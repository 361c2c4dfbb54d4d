#pragma once
// Binary codec for the full ir::Ir inside a snapshot arena (internal to the
// persist library). Tag-encoded variants, length-prefixed strings, and
// counted vectors; decode(encode(ir)) == ir under ir::Ir::operator==, which
// tests/persist_test.cpp checks over the synthetic corpus. Cosmetic fields
// operator== ignores (Rule::text, AsPathRegex::text) are still encoded so
// restored snapshots produce byte-identical verification reports.

#include "rpslyzer/ir/objects.hpp"
#include "rpslyzer/persist/arena.hpp"

namespace rpslyzer::persist {

void encode_ir(ByteWriter& w, const ir::Ir& ir);
ir::Ir decode_ir(ByteReader& r);

void encode_prefix(ByteWriter& w, const net::Prefix& p);
net::Prefix decode_prefix(ByteReader& r);

void encode_range_op(ByteWriter& w, const net::RangeOp& op);
net::RangeOp decode_range_op(ByteReader& r);

}  // namespace rpslyzer::persist
