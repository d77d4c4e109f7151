#include "pipeline/exec_plan.hpp"

#include "pipeline/stage.hpp"

namespace menshen {

namespace {

/// Flat-container bit for liveness masks; flat 24 (metadata) is outside
/// the parse/deparse domain and maps to no bit.
u32 FlatBit(std::size_t flat) {
  return flat < 3 * kContainersPerType ? (u32{1} << flat) : 0;
}

/// Accumulates the reads/writes of every VLIW entry reachable through
/// the row's match entries in one stage.  Reachability is per *address*:
/// a valid CAM/TCAM entry whose owner aliases `row` makes the VLIW entry
/// at that address reachable (conservative for aliased module IDs).
void AccumulateVliwLiveness(const Stage& stage, std::size_t row,
                            std::size_t overlay_depth, u32& read_live,
                            u32& written) {
  const auto visit = [&](std::size_t address) {
    const VliwEntry& vliw = stage.VliwAt(address);
    for (std::size_t slot = 0; slot < vliw.slots.size(); ++slot) {
      const AluAction& a = vliw.slots[slot];
      if (a.op == AluOp::kNop) continue;
      if (OpReadsContainer1(a.op)) read_live |= FlatBit(a.container1);
      if (OpReadsContainer2(a.op)) read_live |= FlatBit(a.container2);
      if (OpWritesSlotContainer(a.op)) written |= FlatBit(slot);
    }
  };
  for (std::size_t a = 0; a < stage.cam().depth(); ++a) {
    const CamEntry& e = stage.cam().At(a);
    if (e.valid && e.module.value() % overlay_depth == row) visit(a);
  }
  for (std::size_t a = 0; a < stage.tcam().depth(); ++a) {
    const TcamEntry& e = stage.tcam().At(a);
    if (e.valid && e.module.value() % overlay_depth == row) visit(a);
  }
}

/// Scans every VLIW action reachable through the row's match entries in
/// one stage for an op that is not a per-packet constant: stateful ops
/// and container-reading ops make the stage's effect depend on more than
/// the masked key, so the row cannot be flow-cached.  Same per-address
/// reachability rule as AccumulateVliwLiveness (conservative for aliased
/// module IDs).
FlowCacheBlocker StageActionBlocker(const Stage& stage, std::size_t row,
                                    std::size_t overlay_depth) {
  FlowCacheBlocker blocker = FlowCacheBlocker::kNone;
  const auto visit = [&](std::size_t address) {
    if (blocker != FlowCacheBlocker::kNone) return;
    const VliwEntry& vliw = stage.VliwAt(address);
    for (const AluAction& a : vliw.slots) {
      if (a.op == AluOp::kNop) continue;
      if (OpTouchesState(a.op)) {
        blocker = FlowCacheBlocker::kStatefulOp;
        return;
      }
      if (OpReadsContainer1(a.op) || OpReadsContainer2(a.op)) {
        blocker = FlowCacheBlocker::kVariableOperand;
        return;
      }
    }
  };
  for (std::size_t a = 0; a < stage.cam().depth(); ++a) {
    const CamEntry& e = stage.cam().At(a);
    if (e.valid && e.module.value() % overlay_depth == row) visit(a);
  }
  for (std::size_t a = 0; a < stage.tcam().depth(); ++a) {
    const TcamEntry& e = stage.tcam().At(a);
    if (e.valid && e.module.value() % overlay_depth == row) visit(a);
  }
  return blocker;
}

/// Byte range [begin, end) a parse/deparse action touches (nominal; the
/// runtime clips to the parser window and packet length, which can only
/// shrink both paths identically).
struct ByteRange {
  std::size_t begin;
  std::size_t end;
};

ByteRange RangeOf(const ParserAction& a) {
  const std::size_t begin = a.bytes_from_head;
  return {begin, begin + a.container.width_bytes()};
}

bool Overlaps(const ByteRange& x, const ByteRange& y) {
  return x.begin < y.end && y.begin < x.end;
}

PlannedMove CompileMove(const ParserAction& a) {
  return PlannedMove{static_cast<u8>(Phv::ByteOffsetOf(a.container)),
                     static_cast<u8>(a.container.width_bytes()),
                     a.bytes_from_head};
}

}  // namespace

const char* FlowCacheBlockerName(FlowCacheBlocker b) {
  switch (b) {
    case FlowCacheBlocker::kNone:
      return "none";
    case FlowCacheBlocker::kStatefulOp:
      return "stateful-op";
    case FlowCacheBlocker::kVariableOperand:
      return "variable-operand";
    case FlowCacheBlocker::kWideKey:
      return "wide-key";
    case FlowCacheBlocker::kPredicateWritten:
      return "predicate-written";
  }
  return "?";
}

ModuleExecPlan CompileModuleExecPlan(const ParserEntry& parse_entry,
                                     const DeparserEntry& deparse_entry,
                                     const Stage* stages,
                                     std::size_t num_stages, std::size_t row) {
  ModuleExecPlan plan;

  // --- Liveness: every container some stage can read under this row ---------
  for (std::size_t s = 0; s < num_stages; ++s) {
    const Stage& stage = stages[s];
    const std::size_t depth = stage.key_extractor().depth();
    const KeyExtractorEntry& kx = stage.key_extractor().At(row);
    const BitVec& mask = stage.key_mask().At(row).mask;
    if (!mask.is_zero()) {
      if (s < plan.gather.stages.size())
        plan.gather.stages[plan.gather.count++] = static_cast<u8>(s);
      const auto slots = KeySlots();
      const auto slot_types = KeySlotTypes();
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (mask.field(slots[i].lsb, slots[i].bits) == 0) continue;
        const ContainerRef c{slot_types[i], kx.selectors[i]};
        plan.read_live |= FlatBit(c.flat());
      }
      if (mask.field(0, 1) != 0 && kx.cmp_op != CmpOp::kNone) {
        if (kx.cmp_a.is_container())
          plan.read_live |= FlatBit(kx.cmp_a.container().flat());
        if (kx.cmp_b.is_container())
          plan.read_live |= FlatBit(kx.cmp_b.container().flat());
      }
    }
    AccumulateVliwLiveness(stage, row, depth, plan.read_live, plan.written);

    // --- Kernel tier (pipeline/kernels) ------------------------------------
    if (!mask.is_zero() && (kx.ternary || !mask.high_words_zero()))
      plan.kernel.wide_or_ternary = true;
  }

  // --- Flow-cache stateless provability (pipeline/flow_cache) ---------------
  // Scanned after the liveness loop because the predicate check needs the
  // full `written` set (conservative: a write in ANY stage blocks a
  // predicate operand, though only earlier stages could matter).  Per
  // stage the checks run wide-key -> predicate -> actions and the first
  // blocker found wins.
  for (std::size_t s = 0;
       s < num_stages && plan.flow_blocker == FlowCacheBlocker::kNone; ++s) {
    const Stage& stage = stages[s];
    const KeyExtractorEntry& kx = stage.key_extractor().At(row);
    const BitVec& mask = stage.key_mask().At(row).mask;
    if (!mask.high_words_zero()) {
      plan.flow_blocker = FlowCacheBlocker::kWideKey;
      break;
    }
    if (mask.field(0, 1) != 0 && kx.cmp_op != CmpOp::kNone) {
      for (const Operand8* op : {&kx.cmp_a, &kx.cmp_b}) {
        if (op->is_container() &&
            (plan.written & FlatBit(op->container().flat())) != 0)
          plan.flow_blocker = FlowCacheBlocker::kPredicateWritten;
      }
      if (plan.flow_blocker != FlowCacheBlocker::kNone) break;
    }
    plan.flow_blocker =
        StageActionBlocker(stage, row, stage.key_extractor().depth());
  }

  // --- Per-container parse-action census (for identity detection) -----------
  std::array<u8, 3 * kContainersPerType> parse_count{};
  std::array<u8, 3 * kContainersPerType> parse_offset{};
  for (const ParserAction& a : parse_entry.actions) {
    if (!a.valid) continue;
    const std::size_t f = a.container.flat();
    ++parse_count[f];
    parse_offset[f] = a.bytes_from_head;
  }

  // --- Deparse pruning: drop provably-identity writes ------------------------
  // An action is identity iff its container cannot have been modified
  // (not in `written`), it was filled by exactly one parse action from
  // the very same packet offset, and no other deparse action touches an
  // overlapping byte range (otherwise order against that action matters).
  u32 deparse_reads = 0;
  const auto& dep = deparse_entry.actions;
  for (std::size_t j = 0; j < dep.size(); ++j) {
    if (!dep[j].valid) continue;
    const std::size_t f = dep[j].container.flat();
    bool identity = (plan.written & FlatBit(f)) == 0 && parse_count[f] == 1 &&
                    parse_offset[f] == dep[j].bytes_from_head;
    if (identity) {
      for (std::size_t k = 0; k < dep.size() && identity; ++k) {
        if (k == j || !dep[k].valid) continue;
        if (Overlaps(RangeOf(dep[j]), RangeOf(dep[k]))) identity = false;
      }
    }
    if (identity) {
      ++plan.deparse.pruned;
      continue;
    }
    plan.deparse.moves[plan.deparse.count++] = CompileMove(dep[j]);
    deparse_reads |= FlatBit(f);
  }

  // --- Parse pruning: keep an action iff its container is live --------------
  // (read by some stage, or carried out of the pipeline by a surviving
  // deparse action).
  const u32 live = plan.read_live | deparse_reads;
  for (const ParserAction& a : parse_entry.actions) {
    if (!a.valid) continue;
    if ((live & FlatBit(a.container.flat())) == 0) {
      ++plan.parse.pruned;
      continue;
    }
    plan.parse.moves[plan.parse.count++] = CompileMove(a);
  }

  return plan;
}

}  // namespace menshen
