// VLIW action engine (sections 3.1, 4.1).
//
// One ALU per PHV container (25 in total): slot i of the VLIW instruction
// controls the ALU whose output is hard-wired to container i, so no output
// crossbar is needed.  The input crossbar lets each ALU read any container.
// All ALUs read the *incoming* PHV and their outputs form the *new* PHV —
// true VLIW semantics, which the engine preserves by evaluating every slot
// against a snapshot before committing any write.
//
// Slot 24 is the metadata ALU; it executes the platform ops (`port`,
// `discard`) and can also `set`/`load`/... into the user metadata scratch.
//
// Two forms execute the same semantics.  Execute/ExecuteInPlace decode
// every slot's container codes per packet — the reference.  The hot path
// runs VliwPlans: Stage::WriteVliw compiles each entry once, resolving
// every active slot's result and operands to PHV byte offsets and widths,
// so ExecuteCompiled is fixed-width loads and stores at known offsets.
#pragma once

#include <array>

#include "phv/phv.hpp"
#include "pipeline/entries.hpp"
#include "pipeline/stateful.hpp"

namespace menshen {

/// One active VLIW slot compiled against the PHV layout: the result and
/// both operands resolved to a PHV byte offset and a width of 2, 4 or 6
/// bytes.  Codes 0-23 name a data container; slot 24 and operand codes
/// 24-31 name the user-metadata u16 (meta::kUser), exactly as
/// FlatToContainer decodes them.  Executing one is a fixed-width load
/// or store at a known offset — no container decoding per packet.
struct CompiledSlot {
  AluOp op = AluOp::kNop;
  u8 dst_off = 0;
  u8 dst_width = 0;
  u8 src1_off = 0;
  u8 src1_width = 0;
  u8 src2_off = 0;
  u8 src2_width = 0;
  u16 immediate = 0;
};

/// Compiled form of one VLIW entry: its active slots, in ascending slot
/// order, each compiled to a CompiledSlot (so execution touches only
/// them instead of scanning all 25), and whether the entry can execute
/// directly against the PHV without the incoming-value snapshot — true
/// when no active slot's used operand names a container an *earlier*
/// active slot writes, so every read still observes the incoming value.
/// Rebuilt by Stage::WriteVliw (the sole mutation path).
struct VliwPlan {
  std::array<CompiledSlot, kNumAluContainers> slots{};
  u8 count = 0;
  bool in_place_safe = true;

  [[nodiscard]] static VliwPlan Compile(const VliwEntry& vliw);
};

class ActionEngine {
 public:
  /// Executes all 25 slots of `vliw` against `phv`, using `state` for the
  /// stateful ops.  Returns the new PHV.
  [[nodiscard]] static Phv Execute(const VliwEntry& vliw, const Phv& phv,
                                   StatefulMemory& state);

  /// In-place variant for the batched hot path: snapshots `phv` into the
  /// caller-owned `snapshot` buffer (preserving the all-ALUs-read-the-
  /// incoming-PHV VLIW semantics) and commits the outputs directly into
  /// `phv`.  Equivalent to `phv = Execute(vliw, phv, state)` without the
  /// return-value copy.
  static void ExecuteInPlace(const VliwEntry& vliw, Phv& phv, Phv& snapshot,
                             StatefulMemory& state);

  /// Compiled-plan variant (the module-run hot path): walks only the
  /// plan's compiled slots and skips the PHV snapshot entirely when the
  /// plan proved it safe.  `segment` is the module's stateful segment
  /// resolved once per run.  Behaviour is identical to ExecuteInPlace
  /// (pinned by the compiled-slot differential in
  /// tests/test_action_engine.cpp and the execution-plan suite).  Inline
  /// (with the slot core below): this is the innermost per-hit work.
  static void ExecuteCompiled(const VliwPlan& plan, Phv& phv, Phv& snapshot,
                              const StatefulMemory::Segment& segment) {
    if (plan.count == 0) return;
    const Phv* in = &phv;
    if (!plan.in_place_safe) {
      snapshot = phv;
      in = &snapshot;
    }
    const u8* const src = in->raw().data();
    u8* const dst = phv.mutable_raw().data();
    for (std::size_t k = 0; k < plan.count; ++k)
      ApplyCompiledSlot(plan.slots[k], src, dst, segment);
  }

  /// Executes one compiled slot: operands from the PHV bytes at `in`,
  /// results into the PHV bytes at `out`.  Both operands are read before
  /// any write, so `in == out` is sound for a slot whose plan is
  /// in_place_safe — the kernels' single-slot step runs a one-slot plan
  /// this way, with no snapshot and no slot loop.
  static void ApplyCompiledSlot(const CompiledSlot& s, const u8* in, u8* out,
                                const StatefulMemory::Segment& state) {
    const auto v1 = [&] {
      return Phv::LoadField(in + s.src1_off, s.src1_width);
    };
    const auto v2 = [&] {
      return Phv::LoadField(in + s.src2_off, s.src2_width);
    };
    const auto write = [&](u64 value) {
      Phv::StoreField(out + s.dst_off, s.dst_width, value);
    };
    switch (s.op) {
      case AluOp::kNop:
        break;
      case AluOp::kAdd:
        write(v1() + v2());
        break;
      case AluOp::kSub:
        write(v1() - v2());
        break;
      case AluOp::kAddi:
        write(v1() + s.immediate);
        break;
      case AluOp::kSubi:
        write(v1() - s.immediate);
        break;
      case AluOp::kSet:
        write(s.immediate);
        break;
      case AluOp::kLoad:
        write(state.Load(s.immediate));
        break;
      case AluOp::kStore:
        state.Store(s.immediate, v1());
        break;
      case AluOp::kLoadd:
        write(state.LoadAddStore(s.immediate));
        break;
      case AluOp::kPort:
        Phv::StoreField(out + Phv::kMetaBase + meta::kDstPort, 2, s.immediate);
        break;
      case AluOp::kDiscard:
        out[Phv::kMetaBase + meta::kFlags] |= 1;
        break;
      case AluOp::kCopy:
        write(v1());
        break;
      case AluOp::kLoadc:
        write(state.Load(v2()));
        break;
      case AluOp::kStorec:
        state.Store(v2(), v1());
        break;
      case AluOp::kLoaddc:
        write(state.LoadAddStore(v2()));
        break;
      case AluOp::kMcast:
        Phv::StoreField(out + Phv::kMetaBase + meta::kMulticastGroup, 2,
                        s.immediate);
        break;
    }
  }

 private:
  /// Shared core: evaluates every slot against the `in` snapshot and
  /// writes results into `out` (callers guarantee `out` starts equal to
  /// `in`, so kNop slots keep the incoming value).
  static void Apply(const VliwEntry& vliw, const Phv& in, Phv& out,
                    const StatefulMemory::Segment& state);
};

}  // namespace menshen
