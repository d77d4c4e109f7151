#include "pipeline/flow_cache.hpp"

#include <stdexcept>

#include "pipeline/stage.hpp"

namespace menshen {

namespace {

/// splitmix64 finalizer — spreads the module id into the per-run seed.
inline u64 Mix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Snapshots everything a row's verdicts derive from in one stage-order
/// pass: key extractor/mask rows plus every CAM/TCAM entry aliasing the
/// row and the VLIW entries at their addresses (same reachability rule
/// as the execution-plan liveness analysis).
FlowRowConfig SnapshotRowConfig(const Stage* stages, std::size_t num_stages,
                                std::size_t row, FlowCacheBlocker blocker) {
  FlowRowConfig cfg;
  cfg.blocker = blocker;
  cfg.stages.resize(num_stages);
  for (std::size_t s = 0; s < num_stages; ++s) {
    const Stage& stage = stages[s];
    FlowRowConfig::StageConfig& sc = cfg.stages[s];
    sc.kx = stage.key_extractor().At(row);
    sc.mask = stage.key_mask().At(row);
    const std::size_t depth = stage.key_extractor().depth();
    for (std::size_t a = 0; a < stage.cam().depth(); ++a) {
      const CamEntry& e = stage.cam().At(a);
      if (!e.valid || e.module.value() % depth != row) continue;
      sc.cam.emplace_back(static_cast<u8>(a), e);
      sc.vliw.emplace_back(static_cast<u8>(a), stage.VliwAt(a));
    }
    for (std::size_t a = 0; a < stage.tcam().depth(); ++a) {
      const TcamEntry& e = stage.tcam().At(a);
      if (!e.valid || e.module.value() % depth != row) continue;
      sc.tcam.emplace_back(static_cast<u8>(a), e);
      sc.vliw.emplace_back(static_cast<u8>(a), stage.VliwAt(a));
    }
  }
  return cfg;
}

/// Derives the per-stage key recipes from a fresh config snapshot
/// (mirrors Stage's private KeyPlan derivation; eligibility already
/// guarantees every mask is one-word).
void BuildStageKeys(FlowRowState& r, std::size_t num_stages) {
  const auto slots = KeySlots();
  r.probed = 0;
  for (std::size_t s = 0; s < num_stages; ++s) {
    const FlowRowConfig::StageConfig& sc = r.config.stages[s];
    FlowStageKey& k = r.keys[s];
    const BitVec& mask = sc.mask.mask;
    k.kx = sc.kx;
    k.skip = mask.is_zero();
    k.ternary = sc.kx.ternary;
    k.active_slots = 0;
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (mask.field(slots[i].lsb, slots[i].bits) != 0)
        k.active_slots |= static_cast<u8>(1u << i);
    k.pred_active = mask.field(0, 1) != 0 && sc.kx.cmp_op != CmpOp::kNone;
    k.word_mask = mask.word(0);
    k.nparts = k.kx.CompileWord0(k.active_slots, k.pred_active, k.parts);
    if (!k.skip) r.probed |= static_cast<u8>(1u << s);
  }
}

}  // namespace

const StatefulMemory::Segment FlowVerdictCache::kNoSegment{};

u64 FlowVerdictCache::HashSeed(ModuleId module) {
  return Mix64(module.value());
}

FlowRowState& FlowVerdictCache::EnsureRow(std::size_t row, u64 stamp,
                                          const Stage* stages,
                                          std::size_t num_stages,
                                          const ModuleExecPlan& plan) {
  FlowRowState& r = rows_.at(row);
  if (r.built_at_version == stamp) return r;

  FlowRowConfig fresh =
      SnapshotRowConfig(stages, num_stages, row, plan.flow_blocker);
  if (!(fresh == r.config)) {
    // This row's own inputs changed: the cached verdicts are stale.
    // (A stamp move with an equal snapshot — some other tenant's
    // reconfiguration — keeps them, preserving the hit rate.)
    FlushRow(r);
    r.config = std::move(fresh);
    r.eligible = r.config.blocker == FlowCacheBlocker::kNone &&
                 num_stages <= params::kNumStages;
    if (r.eligible) BuildStageKeys(r, num_stages);
  }
  r.built_at_version = stamp;
  return r;
}

void FlowVerdictCache::AllocateRow(FlowRowState& row) {
  row.slots.assign(slots_per_row_, FlowVerdict{});
  row.sketch.assign(slots_per_row_ * kSketchPerSlot, 0);
  row.sketch_countdown =
      static_cast<u32>(slots_per_row_) * kSketchPeriodPerSlot;
}

void FlowVerdictCache::HalveSketch(FlowRowState& row) {
  for (u8& c : row.sketch) c = static_cast<u8>(c >> 1);
  row.sketch_countdown =
      static_cast<u32>(row.slots.size()) * kSketchPeriodPerSlot;
}

void FlowVerdictCache::BuildVerdict(const FlowRowState& row,
                                    const Stage* stages,
                                    std::size_t num_stages, ModuleId module,
                                    Phv& phv, FlowVerdict& v) {
  v.matched = 0;
  v.scanned = 0;
  for (std::size_t s = 0; s < num_stages; ++s) {
    const FlowStageKey& k = row.keys[s];
    const Stage& stage = stages[s];
    // The *actual* key is extracted from the evolving PHV, stage by
    // stage, exactly as the uncached path would — the memoization key
    // (parsed-PHV words) determines these by the induction argument in
    // the header, but the lookups themselves must use the live values.
    const u64 word = k.skip ? 0 : k.Word(phv);
    std::optional<std::size_t> address;
    u64 scanned = 0;
    if (k.ternary) {
      const BitVec key = BitVec::FromValue(params::kKeyBits, word);
      address = stage.tcam().LookupQuiet(key, module, scanned);
    } else if (const auto* h = stage.cam().WordIndexFor(module)) {
      address = h->Find(word);
    }
    v.scanned |= scanned << (kTallyBits * s);
    if (!address) continue;  // miss: default action is a no-op
    v.matched |= static_cast<u8>(1u << s);
    v.address[s] = static_cast<u8>(*address);
    ApplyRecordedPlan(stage.VliwPlanAt(*address), phv);
  }
}

void FlowVerdictCache::RequireConstantPlan(const VliwPlan& plan) {
  for (std::size_t i = 0; i < plan.count; ++i) {
    const AluOp op = plan.slots[i].op;
    // The eligibility rule (exec_plan.cpp's StageActionBlocker) proved
    // every reachable op constant; reaching here means the
    // snapshot/invalidation logic is broken.
    if (OpTouchesState(op) || OpReadsContainer1(op) || OpReadsContainer2(op))
      throw std::logic_error("flow cache: non-constant op in eligible row");
  }
}

void FlowVerdictCache::ApplyRecordedPlan(const VliwPlan& plan, Phv& phv) {
  RequireConstantPlan(plan);
  u8* const bytes = phv.mutable_raw().data();
  for (std::size_t i = 0; i < plan.count; ++i)
    ActionEngine::ApplyCompiledSlot(plan.slots[i], bytes, bytes, kNoSegment);
}

void FlowVerdictCache::FlushTally(RunTally& t, const FlowRowState& row,
                                  Stage* stages, std::size_t num_stages) {
  if (t.lanes == 0) return;
  constexpr u64 kField = (u64{1} << kTallyBits) - 1;
  for (std::size_t s = 0; s < num_stages; ++s) {
    if ((row.probed & (1u << s)) == 0) continue;  // a constant-key stage
    const unsigned shift = kTallyBits * static_cast<unsigned>(s);
    const u64 hits = (t.hits >> shift) & kField;
    if (row.keys[s].ternary) {
      stages[s].tcam().NoteCachedLookups(t.lanes, hits,
                                         (t.scanned >> shift) & kField);
    } else {
      stages[s].cam().NoteCachedLookups(t.lanes, hits);
    }
    stages[s].NoteCachedOutcomes(hits, t.lanes - hits);
  }
  t = RunTally{};
}

void FlowVerdictCache::SetSlotsPerRow(std::size_t slots) {
  if (slots == 0 || (slots & (slots - 1)) != 0 || slots > (1u << 24))
    throw std::invalid_argument(
        "flow cache slots per row must be a power of two <= 2^24");
  for (FlowRowState& r : rows_) {
    FlushRow(r);
    r.slots.clear();
    r.slots.shrink_to_fit();
    r.sketch.clear();
    r.sketch.shrink_to_fit();
  }
  slots_per_row_ = slots;
}

void FlowVerdictCache::FlushRow(FlowRowState& row) {
  if (row.live != 0) {
    occupancy_.Sub(row.live);
    row.live = 0;
  }
  for (FlowVerdict& v : row.slots) v.valid = false;
}

}  // namespace menshen
