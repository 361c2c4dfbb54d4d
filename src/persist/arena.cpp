#include "rpslyzer/persist/arena.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer::persist {

namespace {

namespace fp = util::failpoint;

struct FixedHeader {
  std::uint64_t magic;
  std::uint32_t format_version;
  std::uint32_t header_size;
  std::uint32_t section_count;
  std::uint32_t flags;
  std::uint64_t build_id;
  std::uint64_t file_size;
  std::uint64_t checksum;
};
static_assert(sizeof(FixedHeader) == kFixedHeaderSize);

struct SectionEntry {
  std::uint32_t id;
  std::uint32_t pad;
  std::uint64_t offset;
  std::uint64_t size;
};
static_assert(sizeof(SectionEntry) == 24);

std::size_t align_up(std::size_t n, std::size_t a) { return (n + a - 1) & ~(a - 1); }

/// Close-on-scope-exit fd.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

std::string errno_message(const char* what, const std::filesystem::path& path) {
  return std::string(what) + " " + path.string() + ": " + std::strerror(errno);
}

}  // namespace

const char* section_name(SectionId id) noexcept {
  switch (id) {
    case SectionId::kIr: return "ir";
    case SectionId::kRelations: return "relations";
    case SectionId::kAsSetPool: return "as-set-pool";
    case SectionId::kAsSets: return "as-sets";
    case SectionId::kOriginPool: return "origin-pool";
    case SectionId::kOrigins: return "origins";
    case SectionId::kIntervalPool: return "interval-pool";
    case SectionId::kRouteSets: return "route-sets";
    case SectionId::kConePool: return "cone-pool";
    case SectionId::kAutNums: return "aut-nums";
  }
  return "unknown";
}

void ArenaWriter::add_section(SectionId id, std::vector<std::byte> payload) {
  for (const Section& s : sections_) {
    if (s.id == id) throw SnapshotError("duplicate snapshot section id");
  }
  sections_.push_back({id, std::move(payload)});
}

std::vector<std::byte> ArenaWriter::build_image(std::uint64_t build_id) const {
  // Assemble the full image in memory: header + section table + payloads.
  const std::size_t table_bytes = sections_.size() * sizeof(SectionEntry);
  std::size_t cursor = align_up(kFixedHeaderSize + table_bytes, kSectionAlignment);
  std::vector<SectionEntry> table;
  table.reserve(sections_.size());
  for (const Section& s : sections_) {
    table.push_back({static_cast<std::uint32_t>(s.id), 0, cursor, s.payload.size()});
    cursor = align_up(cursor + s.payload.size(), kSectionAlignment);
  }
  const std::uint64_t file_size = cursor;

  std::vector<std::byte> image(file_size, std::byte{0});
  FixedHeader header{};
  header.magic = kMagic;
  header.format_version = kFormatVersion;
  header.header_size = kFixedHeaderSize;
  header.section_count = static_cast<std::uint32_t>(sections_.size());
  header.flags = 0;
  header.build_id = build_id;
  header.file_size = file_size;
  // memcpy from an empty vector's data() (possibly null) is undefined even
  // for zero bytes: an image may have no sections, and a section may be
  // empty.
  if (table_bytes != 0) std::memcpy(image.data() + kFixedHeaderSize, table.data(), table_bytes);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const auto& payload = sections_[i].payload;
    std::copy(payload.begin(), payload.end(),
              image.begin() + static_cast<std::ptrdiff_t>(table[i].offset));
  }
  header.checksum = digest64(
      std::span<const std::byte>(image).subspan(kFixedHeaderSize, file_size - kFixedHeaderSize));
  static_assert(offsetof(FixedHeader, checksum) == kChecksumOffset);
  std::memcpy(image.data(), &header, sizeof(header));
  return image;
}

std::uint64_t ArenaWriter::write(const std::filesystem::path& path,
                                 std::uint64_t build_id) const {
  const std::vector<std::byte> image = build_image(build_id);
  const std::uint64_t file_size = image.size();

  // An injected truncation publishes a deliberately short file (for the
  // corruption-recovery tests); an injected error aborts with nothing left.
  std::size_t publish_bytes = image.size();
  if (auto hit = fp::hit("persist.write"); hit.is_error()) {
    throw SnapshotError("persist.write failpoint: " + hit.message);
  } else if (hit.is_truncate()) {
    publish_bytes = std::min<std::size_t>(publish_bytes, hit.truncate_at);
  }

  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  Fd fd{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)};
  if (fd.fd < 0) throw SnapshotError(errno_message("cannot create", tmp));
  std::size_t written = 0;
  while (written < publish_bytes) {
    const ssize_t n =
        ::write(fd.fd, reinterpret_cast<const char*>(image.data()) + written,
                publish_bytes - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = errno_message("cannot write", tmp);
      ::unlink(tmp.c_str());
      throw SnapshotError(why);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd.fd) != 0 || ::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = errno_message("cannot publish", path);
    ::unlink(tmp.c_str());
    throw SnapshotError(why);
  }
  return file_size;
}

ArenaView ArenaView::open(const std::filesystem::path& path) {
  if (auto hit = fp::hit("persist.open"); hit.is_error()) {
    throw SnapshotError("persist.open failpoint: " + hit.message);
  }
  Fd fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (fd.fd < 0) throw SnapshotError(errno_message("cannot open snapshot", path));
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0) throw SnapshotError(errno_message("cannot stat snapshot", path));
  const auto actual_size = static_cast<std::uint64_t>(st.st_size);
  if (actual_size < kFixedHeaderSize) {
    throw SnapshotError("snapshot file too small for its header: " + path.string());
  }
  void* mapping = ::mmap(nullptr, actual_size, PROT_READ, MAP_PRIVATE, fd.fd, 0);
  if (mapping == MAP_FAILED) throw SnapshotError(errno_message("cannot mmap snapshot", path));

  ArenaView view;
  view.base_ = static_cast<const std::byte*>(mapping);
  view.size_ = actual_size;

  FixedHeader header{};
  std::memcpy(&header, view.base_, sizeof(header));
  if (header.magic != kMagic) {
    throw SnapshotError("not a snapshot file (bad magic): " + path.string());
  }
  if (header.format_version != kFormatVersion) {
    throw SnapshotError("snapshot format version mismatch (file v" +
                        std::to_string(header.format_version) + ", loader v" +
                        std::to_string(kFormatVersion) + "): " + path.string());
  }
  if (header.header_size != kFixedHeaderSize || header.file_size != actual_size) {
    throw SnapshotError("snapshot header inconsistent with file size (declared " +
                        std::to_string(header.file_size) + " bytes, found " +
                        std::to_string(actual_size) + "): " + path.string());
  }
  std::uint64_t checksum = digest64(std::span<const std::byte>(view.base_, view.size_)
                                       .subspan(kFixedHeaderSize));
  if (auto hit = fp::hit("persist.verify"); hit.is_error()) checksum = ~checksum;
  if (checksum != header.checksum) {
    throw SnapshotError("snapshot checksum mismatch: " + path.string());
  }

  const std::uint64_t table_end =
      kFixedHeaderSize + std::uint64_t{header.section_count} * sizeof(SectionEntry);
  if (table_end > actual_size) {
    throw SnapshotError("snapshot section table out of bounds: " + path.string());
  }
  view.table_.reserve(header.section_count);
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry{};
    std::memcpy(&entry, view.base_ + kFixedHeaderSize + i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.offset > actual_size || entry.size > actual_size - entry.offset ||
        entry.offset % kSectionAlignment != 0) {
      throw SnapshotError("snapshot section out of bounds: " + path.string());
    }
    view.table_.push_back({static_cast<SectionId>(entry.id), entry.offset, entry.size});
  }
  view.build_id_ = header.build_id;
  return view;
}

ArenaView::ArenaView(ArenaView&& other) noexcept
    : base_(other.base_),
      size_(other.size_),
      build_id_(other.build_id_),
      table_(std::move(other.table_)) {
  other.base_ = nullptr;
  other.size_ = 0;
}

ArenaView& ArenaView::operator=(ArenaView&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) ::munmap(const_cast<std::byte*>(base_), size_);
    base_ = other.base_;
    size_ = other.size_;
    build_id_ = other.build_id_;
    table_ = std::move(other.table_);
    other.base_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

ArenaView::~ArenaView() {
  if (base_ != nullptr) ::munmap(const_cast<std::byte*>(base_), size_);
}

std::span<const std::byte> ArenaView::section(SectionId id) const {
  for (const SectionRef& ref : table_) {
    if (ref.id == id) return {base_ + ref.offset, ref.size};
  }
  throw SnapshotError(std::string("snapshot is missing required section ") +
                      section_name(id) + " (id " +
                      std::to_string(static_cast<std::uint32_t>(id)) + ")");
}

bool ArenaView::has_section(SectionId id) const noexcept {
  for (const SectionRef& ref : table_) {
    if (ref.id == id) return true;
  }
  return false;
}

std::uint64_t ArenaView::section_offset(SectionId id) const noexcept {
  for (const SectionRef& ref : table_) {
    if (ref.id == id) return ref.offset;
  }
  return 0;
}

}  // namespace rpslyzer::persist
