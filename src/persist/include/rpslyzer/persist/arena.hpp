#pragma once
// The relocatable arena file underlying snapshot persistence.
//
// A snapshot file is one contiguous buffer laid out as
//
//   +-------------------------------+  offset 0
//   | fixed header (48 bytes)       |  magic, version, build-id, checksum
//   +-------------------------------+  offset 48
//   | section table                 |  {id, offset, size} per section
//   +-------------------------------+
//   | section payloads              |  each 16-byte aligned
//   +-------------------------------+  offset file_size
//
// Every cross-reference inside a payload is an *offset* (into the file or
// into a sibling pool section), never a pointer, so the file is position
// independent: loading is a single read-only mmap plus header/checksum
// validation, after which flat pool sections (ASN arrays, length-interval
// arrays) are referenced in place via spans — zero copy, zero fixup writes.
//
// The digest64 checksum covers every byte after the fixed header (section
// table included), so any flipped byte or mid-section truncation is caught
// before a single payload byte is interpreted. Numbers are little-endian
// host order; the format is not intended as a cross-endian interchange
// format (a snapshot is a cache artifact regenerated from the dumps).
//
// Failure injection: ArenaWriter honors the `persist.write` failpoint
// (error → throw with no file left behind; truncate(n) → publish only the
// first n bytes, producing the corrupt artifact the recovery tests need);
// ArenaView::open honors `persist.open` (error → throw before mapping) and
// `persist.verify` (error → forced checksum mismatch).

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace rpslyzer::persist {

/// Current arena format version. Bump on any layout or codec change; a
/// loader refuses files with a different version (the generation cache then
/// treats them as misses and rebuilds).
inline constexpr std::uint32_t kFormatVersion = 2;

/// File magic: "RPSZSNP1".
inline constexpr std::uint64_t kMagic = 0x31504E535A535052ull;

inline constexpr std::size_t kFixedHeaderSize = 48;
inline constexpr std::size_t kSectionAlignment = 16;

/// Section identifiers. Order in the file follows write order; lookup is by
/// id, so sections may be added without renumbering (with a version bump).
/// The file holds inputs (IR, relations) and the closures that cost real
/// work to derive; everything else is re-derived on open. Ids 1 (symbols)
/// and 12 (NFA tables) belonged to format 1 and are never reused.
enum class SectionId : std::uint32_t {
  kIr = 2,            // binary-encoded ir::Ir
  kRelations = 3,     // binary AS-relationship links + tier-1 clique
  kAsSetPool = 4,     // flattened as-set member ASNs (u32 array)
  kAsSets = 5,        // per-symbol as-set entries referencing the pool
  kOriginPool = 6,    // origin ASNs per route base prefix (u32 array)
  kOrigins = 7,       // origin-trie entries referencing the pool
  kIntervalPool = 8,  // route-set length intervals ({u8 lo, u8 hi} array)
  kRouteSets = 9,     // per-symbol route-set entries referencing the pool
  kConePool = 10,     // customer-cone ASNs (u32 array)
  kAutNums = 11,      // per-AS customer-cone entries referencing the pool
};

/// Human-readable section name for error messages and replication status
/// pages ("ir", "relations", ... , "aut-nums"); "unknown" for any other id.
const char* section_name(SectionId id) noexcept;

/// Byte offset within the image where the checksum field of the fixed
/// header lives. The checksum covers everything *after* the fixed header,
/// so it is a content identity independent of build_id — the replication
/// layer reads it straight out of a serialized image to deduplicate
/// publishes across origin restarts.
inline constexpr std::size_t kChecksumOffset = 40;

/// Any malformed, truncated, corrupted, or version-mismatched snapshot file
/// surfaces as this exception; callers (server reload, generation cache)
/// treat it as "no snapshot" and fall back to a full rebuild.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Content digest for the whole-file checksum and the generation-cache key
/// derivation: xor-rotate-multiply mixing over 64-bit words in four
/// independent lanes (so the multiply chains pipeline instead of
/// serializing), with the tail folded in under a length marker and a final
/// avalanche. The rotation is load-bearing: a plain xor-multiply chain only
/// diffuses upward, so a difference in the high bits of a late word is
/// marched past bit 63 by subsequent multiplies and erased mod 2^64; the
/// rotate feeds high bits back down every step. Digesting is on the
/// mmap-load fast path — a byte-at-a-time loop would cost more than the
/// decode it protects.
inline std::uint64_t digest64(std::span<const std::byte> bytes,
                              std::uint64_t seed = 0xcbf29ce484222325ull) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t lane[4] = {seed, seed ^ 0x9e3779b97f4a7c15ull, seed + 0x6a09e667f3bcc909ull,
                           ~seed};
  std::size_t i = 0;
  for (; i + 32 <= bytes.size(); i += 32) {
    std::uint64_t v[4];
    std::memcpy(v, bytes.data() + i, 32);
    for (int l = 0; l < 4; ++l) {
      lane[l] = std::rotl(lane[l] ^ v[l], 27) * kPrime;
    }
  }
  std::uint64_t h = lane[0];
  for (int l = 1; l < 4; ++l) {
    h = std::rotl(h ^ lane[l], 31) * kPrime;
  }
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + i, 8);
    h = std::rotl(h ^ v, 27) * kPrime;
  }
  std::uint64_t tail = 0x80;  // marker keeps "abc" and "abc\0" distinct
  for (; i < bytes.size(); ++i) {
    tail = (tail << 8) | static_cast<std::uint64_t>(bytes[i]);
  }
  h = std::rotl(h ^ tail, 27) * kPrime;
  h ^= h >> 33;  // fmix-style finalizer: every input bit reaches every output bit
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

inline std::uint64_t digest64(std::string_view text,
                              std::uint64_t seed = 0xcbf29ce484222325ull) noexcept {
  return digest64(std::as_bytes(std::span<const char>(text.data(), text.size())), seed);
}

/// Little-endian append-only byte buffer for section payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i32(std::int32_t v) { raw(&v, 4); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  void bytes(std::span<const std::byte> b) { raw(b.data(), b.size()); }

  std::size_t size() const noexcept { return buf_.size(); }
  std::span<const std::byte> view() const noexcept { return buf_; }
  std::vector<std::byte> take() && noexcept { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::byte> buf_;
};

/// Bounds-checked little-endian reader over a mapped section. Every
/// overrun throws SnapshotError, so a truncated or corrupted payload can
/// never walk past the mapping.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int32_t i32() { return read<std::int32_t>(); }

  std::string str() {
    const std::uint32_t n = u32();
    return chars(n);
  }

  /// `n` raw bytes as a string (no length prefix; callers that store
  /// external offset tables use this).
  std::string chars(std::size_t n) {
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  bool at_end() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  template <typename T>
  T read() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t n) const {
    if (n > data_.size() - pos_) {
      throw SnapshotError("snapshot section payload truncated");
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Assembles sections and publishes the arena file atomically: the image is
/// built in memory, checksummed, written to `<path>.tmp.<pid>`, and
/// renamed into place, so readers only ever see complete files (absent a
/// deliberately injected `persist.write` truncation).
class ArenaWriter {
 public:
  /// Append a section. Ids must be unique per file.
  void add_section(SectionId id, std::vector<std::byte> payload);
  void add_section(SectionId id, ByteWriter&& payload) {
    add_section(id, std::move(payload).take());
  }

  /// Assemble, checksum, and atomically publish. Returns the final file
  /// size in bytes. Throws SnapshotError on I/O failure or an injected
  /// `persist.write` error (no file is left at `path` in either case).
  std::uint64_t write(const std::filesystem::path& path, std::uint64_t build_id) const;

  /// Assemble and checksum the complete in-memory image without touching
  /// the filesystem — the exact bytes write() would publish. The
  /// replication publisher serves generations straight from this buffer.
  std::vector<std::byte> build_image(std::uint64_t build_id) const;

 private:
  struct Section {
    SectionId id;
    std::vector<std::byte> payload;
  };
  std::vector<Section> sections_;
};

/// A validated read-only mapping of an arena file. Move-only; the mapping
/// lives until destruction, and the snapshot loader ties spans into it to
/// the restored snapshot via shared ownership.
class ArenaView {
 public:
  /// mmap `path` and validate magic, format version, declared file size,
  /// section table bounds, and the whole-file checksum. Throws
  /// SnapshotError on any mismatch (and on the `persist.open` /
  /// `persist.verify` failpoints).
  static ArenaView open(const std::filesystem::path& path);

  /// An empty view (no mapping); assign from open() to populate.
  ArenaView() = default;
  ArenaView(ArenaView&& other) noexcept;
  ArenaView& operator=(ArenaView&& other) noexcept;
  ArenaView(const ArenaView&) = delete;
  ArenaView& operator=(const ArenaView&) = delete;
  ~ArenaView();

  /// Payload bytes of a section; throws SnapshotError when absent.
  std::span<const std::byte> section(SectionId id) const;
  bool has_section(SectionId id) const noexcept;

  /// File offset of a section's payload, for error messages that name the
  /// byte range a validation failure landed in; 0 when absent.
  std::uint64_t section_offset(SectionId id) const noexcept;

  /// A pool section reinterpreted as an array of trivially-copyable T.
  /// Section payloads are 16-byte aligned within the page-aligned mapping,
  /// so the cast is well-formed for any pool element type we store.
  template <typename T>
  std::span<const T> pool(SectionId id) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::span<const std::byte> raw = section(id);
    if (raw.size() % sizeof(T) != 0) {
      throw SnapshotError("snapshot pool section size is not a multiple of its element size");
    }
    return {reinterpret_cast<const T*>(raw.data()), raw.size() / sizeof(T)};
  }

  std::uint64_t build_id() const noexcept { return build_id_; }
  std::uint64_t file_size() const noexcept { return size_; }

 private:
  struct SectionRef {
    SectionId id;
    std::uint64_t offset;
    std::uint64_t size;
  };

  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t build_id_ = 0;
  std::vector<SectionRef> table_;
};

}  // namespace rpslyzer::persist
