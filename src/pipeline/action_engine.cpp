#include "pipeline/action_engine.hpp"

namespace menshen {

namespace {

/// The PHV field a 5-bit container code names: a data container for
/// codes 0-23, the user-metadata u16 for 24-31 (FlatToContainer's
/// decoding, resolved once).
void ResolveField(u8 code, u8& off, u8& width) {
  if (const auto c = FlatToContainer(code)) {
    off = static_cast<u8>(Phv::ByteOffsetOf(*c));
    width = static_cast<u8>(c->width_bytes());
  } else {
    off = static_cast<u8>(Phv::kMetaBase + meta::kUser);
    width = 2;
  }
}

// --- Decoding reference (Execute / ExecuteInPlace) ---------------------------

/// Reads the value of flat container slot `flat` from `phv` (slot 24
/// reads the user metadata scratch word).
u64 ReadSlot(const Phv& phv, u8 flat) {
  if (const auto c = FlatToContainer(flat)) return phv.Read(*c);
  return phv.meta_u16(meta::kUser);
}

void WriteSlot(Phv& phv, u8 flat, u64 value) {
  if (const auto c = FlatToContainer(flat)) {
    phv.Write(*c, value);
  } else {
    phv.set_meta_u16(meta::kUser, static_cast<u16>(value));
  }
}

/// Executes one slot: operands from `in`, results into `out`.
void ApplySlot(const AluAction& a, u8 dst, const Phv& in, Phv& out,
               const StatefulMemory::Segment& state) {
  // Operands always come from the *incoming* PHV snapshot.
  const u64 v1 = ReadSlot(in, a.container1);
  const u64 v2 = ReadSlot(in, a.container2);

  switch (a.op) {
    case AluOp::kNop:
      break;
    case AluOp::kAdd:
      WriteSlot(out, dst, v1 + v2);
      break;
    case AluOp::kSub:
      WriteSlot(out, dst, v1 - v2);
      break;
    case AluOp::kAddi:
      WriteSlot(out, dst, v1 + a.immediate);
      break;
    case AluOp::kSubi:
      WriteSlot(out, dst, v1 - a.immediate);
      break;
    case AluOp::kSet:
      WriteSlot(out, dst, a.immediate);
      break;
    case AluOp::kLoad:
      WriteSlot(out, dst, state.Load(a.immediate));
      break;
    case AluOp::kStore:
      state.Store(a.immediate, v1);
      break;
    case AluOp::kLoadd:
      WriteSlot(out, dst, state.LoadAddStore(a.immediate));
      break;
    case AluOp::kPort:
      out.set_meta_u16(meta::kDstPort, a.immediate);
      break;
    case AluOp::kDiscard:
      out.set_discard_flag(true);
      break;
    case AluOp::kCopy:
      WriteSlot(out, dst, v1);
      break;
    case AluOp::kLoadc:
      WriteSlot(out, dst, state.Load(v2));
      break;
    case AluOp::kStorec:
      state.Store(v2, v1);
      break;
    case AluOp::kLoaddc:
      WriteSlot(out, dst, state.LoadAddStore(v2));
      break;
    case AluOp::kMcast:
      out.set_meta_u16(meta::kMulticastGroup, a.immediate);
      break;
  }
}

}  // namespace

VliwPlan VliwPlan::Compile(const VliwEntry& vliw) {
  VliwPlan plan;
  u32 written_before = 0;  // flat containers written by earlier active slots
  for (std::size_t slot = 0; slot < vliw.slots.size(); ++slot) {
    const AluAction& a = vliw.slots[slot];
    if (a.op == AluOp::kNop) continue;
    CompiledSlot& c = plan.slots[plan.count++];
    c.op = a.op;
    c.immediate = a.immediate;
    ResolveField(static_cast<u8>(slot), c.dst_off, c.dst_width);
    ResolveField(a.container1, c.src1_off, c.src1_width);
    ResolveField(a.container2, c.src2_off, c.src2_width);
    // A used operand naming a container an earlier active slot writes
    // would observe the new value under direct in-place execution; such
    // entries keep the snapshot.
    if (OpReadsContainer1(a.op) && (written_before & (u32{1} << a.container1)))
      plan.in_place_safe = false;
    if (OpReadsContainer2(a.op) && (written_before & (u32{1} << a.container2)))
      plan.in_place_safe = false;
    if (OpWritesSlotContainer(a.op)) written_before |= u32{1} << slot;
  }
  return plan;
}

Phv ActionEngine::Execute(const VliwEntry& vliw, const Phv& phv,
                          StatefulMemory& state) {
  Phv out = phv;  // slots with kNop keep the incoming value
  Apply(vliw, phv, out, state.ResolveSegment(phv.module_id));
  return out;
}

void ActionEngine::ExecuteInPlace(const VliwEntry& vliw, Phv& phv,
                                  Phv& snapshot, StatefulMemory& state) {
  snapshot = phv;
  Apply(vliw, snapshot, phv, state.ResolveSegment(phv.module_id));
}

void ActionEngine::Apply(const VliwEntry& vliw, const Phv& in, Phv& out,
                         const StatefulMemory::Segment& state) {
  for (std::size_t slot = 0; slot < vliw.slots.size(); ++slot) {
    const AluAction& a = vliw.slots[slot];
    if (a.op == AluOp::kNop) continue;
    ApplySlot(a, static_cast<u8>(slot), in, out, state);
  }
}

}  // namespace menshen
