#include "pipeline/flow_cache.hpp"

#include <stdexcept>

#include "pipeline/stage.hpp"

namespace menshen {

namespace {

/// splitmix64 finalizer — the slot index must spread structured key
/// words (ports, small tags) across the direct-mapped table.
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
  }
}

inline void ApplyOneEffect(const FlowEffect& e, Phv& phv) {
  switch (e.kind) {
    case FlowEffect::Kind::kSetSlot:
      if (const auto c = FlatToContainer(e.slot)) {
        phv.Write(*c, e.value);
      } else {
        phv.set_meta_u16(meta::kUser, e.value);
      }
      break;
    case FlowEffect::Kind::kPort:
      phv.set_meta_u16(meta::kDstPort, e.value);
      break;
    case FlowEffect::Kind::kDiscard:
      phv.set_discard_flag(true);
      break;
    case FlowEffect::Kind::kMcast:
      phv.set_meta_u16(meta::kMulticastGroup, e.value);
      break;
  }
}

}  // namespace

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

void FlowVerdictCache::KeyWords(const FlowRowState& row,
                                std::size_t num_stages, const Phv& phv,
                                KeyWordArray& words) {
  for (std::size_t s = 0; s < num_stages; ++s) {
    const FlowStageKey& k = row.keys[s];
    words[s] = k.skip ? 0
                      : (k.kx.ExtractKeyWord0(phv, k.active_slots,
                                              k.pred_active) &
                         k.word_mask);
  }
  for (std::size_t s = num_stages; s < words.size(); ++s) words[s] = 0;
}

std::size_t FlowVerdictCache::SlotIndex(ModuleId module,
                                        const KeyWordArray& words) const {
  u64 h = Mix64(module.value());
  for (const u64 w : words) h = Mix64(h ^ w);
  return static_cast<std::size_t>(h) & (slots_per_row_ - 1);
}

FlowVerdict& FlowVerdictCache::SlotFor(FlowRowState& row, ModuleId module,
                                       const KeyWordArray& words, bool& hit) {
  if (row.slots.empty()) row.slots.resize(slots_per_row_);
  FlowVerdict& v = row.slots[SlotIndex(module, words)];
  hit = v.valid && v.module == module && SameWords(v.words, words);
  return v;
}

std::size_t FlowVerdictCache::BurstProbe(FlowRowState& row, ModuleId module,
                                         const KeyWordArray* words,
                                         std::size_t n,
                                         const FlowVerdict** verdicts,
                                         u32* fallback,
                                         std::size_t& fallback_count,
                                         u32* slot_out) {
  if (row.slots.empty()) row.slots.resize(slots_per_row_);
  const u64 hm = Mix64(module.value());
  const auto hash_lane = [&](std::size_t k) {
    u64 h = hm;
    for (const u64 w : words[k]) h = Mix64(h ^ w);
    const auto s =
        static_cast<u32>(static_cast<std::size_t>(h) & (slots_per_row_ - 1));
    slot_out[k] = s;
    const char* p = reinterpret_cast<const char*>(&row.slots[s]);
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);  // FlowVerdict spans two cache lines
  };
  const std::size_t ahead = std::min(kBurstPrefetchAhead, n);
  for (std::size_t k = 0; k < ahead; ++k) hash_lane(k);
  std::size_t hits = 0;
  fallback_count = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k + ahead < n) hash_lane(k + ahead);
    const u32 s = slot_out[k];
    // Pending-fill taint: an earlier fallback lane mapping to this slot
    // will (re)fill it before lane k would have probed under scalar
    // order, so the current content cannot decide lane k — route it to
    // the in-order fallback pass.  The fallback list is the compacted
    // miss set, typically short, so the linear scan stays cheap.
    bool pending = false;
    for (std::size_t i = 0; i < fallback_count; ++i) {
      if (slot_out[fallback[i]] == s) {
        pending = true;
        break;
      }
    }
    const FlowVerdict& v = row.slots[s];
    if (!pending && v.valid && v.module == module &&
        SameWords(v.words, words[k])) {
      verdicts[k] = &v;
      ++hits;
    } else {
      verdicts[k] = nullptr;
      fallback[fallback_count++] = static_cast<u32>(k);
    }
  }
  return hits;
}

void FlowVerdictCache::BeginFill(FlowRowState& row, FlowVerdict& slot,
                                 ModuleId module, const KeyWordArray& words) {
  if (slot.valid) {
    evictions_.Add();  // direct-mapped conflict: replace the old verdict
  } else {
    occupancy_.Add();
    ++row.live;
  }
  slot.valid = false;
  slot.module = module;
  slot.words = words;
  slot.outcomes = {};
  slot.effects.clear();
}

void FlowVerdictCache::BuildVerdict(const FlowRowState& row,
                                    const Stage* stages,
                                    std::size_t num_stages, ModuleId module,
                                    Phv& phv, FlowVerdict& v) {
  for (std::size_t s = 0; s < num_stages; ++s) {
    const FlowStageKey& k = row.keys[s];
    const Stage& stage = stages[s];
    // The *actual* key is extracted from the evolving PHV, stage by
    // stage, exactly as the uncached path would — the memoization key
    // (parsed-PHV words) determines these by the induction argument in
    // the header, but the lookups themselves must use the live values.
    const u64 word =
        k.skip ? 0
               : (k.kx.ExtractKeyWord0(phv, k.active_slots, k.pred_active) &
                  k.word_mask);
    std::optional<std::size_t> address;
    u64 scanned = 0;
    if (k.ternary) {
      const BitVec key = BitVec::FromValue(params::kKeyBits, word);
      address = stage.tcam().LookupQuiet(key, module, scanned);
    } else if (const auto* h = stage.cam().WordIndexFor(module)) {
      address = h->Find(word);
    }
    FlowVerdict::StageOutcome& o = v.outcomes[s];
    o.probed = !k.skip;
    o.hit = address.has_value();
    o.address = static_cast<u8>(address.value_or(0));
    o.scanned = static_cast<u16>(scanned);
    if (!address) continue;  // miss: default action is a no-op

    RecordMatchedEffects(stage.VliwAt(*address), phv, v);
  }
}

void FlowVerdictCache::RecordMatchedEffects(const VliwEntry& vliw, Phv& phv,
                                            FlowVerdict& v) {
  for (std::size_t slot = 0; slot < vliw.slots.size(); ++slot) {
    const AluAction& a = vliw.slots[slot];
    FlowEffect e;
    switch (a.op) {
      case AluOp::kNop:
        continue;
      case AluOp::kSet:
        e = {FlowEffect::Kind::kSetSlot, static_cast<u8>(slot), a.immediate};
        break;
      case AluOp::kPort:
        e = {FlowEffect::Kind::kPort, 0, a.immediate};
        break;
      case AluOp::kDiscard:
        e = {FlowEffect::Kind::kDiscard, 0, 0};
        break;
      case AluOp::kMcast:
        e = {FlowEffect::Kind::kMcast, 0, a.immediate};
        break;
      default:
        // Eligibility proved every reachable op constant; reaching
        // here means the snapshot/invalidations logic is broken.
        throw std::logic_error("flow cache: non-constant op in eligible row");
    }
    ApplyOneEffect(e, phv);
    v.effects.push_back(e);
  }
}

void FlowVerdictCache::ApplyEffects(const FlowVerdict& v, Phv& phv) {
  for (const FlowEffect& e : v.effects) ApplyOneEffect(e, phv);
}

void FlowVerdictCache::Accumulate(RunAccounting& acct, const FlowVerdict& v,
                                  std::size_t num_stages) {
  for (std::size_t s = 0; s < num_stages; ++s) {
    const FlowVerdict::StageOutcome& o = v.outcomes[s];
    if (!o.probed) continue;  // constant-key stage: BeginRun accounted it
    ++acct.lookups[s];
    if (o.hit) ++acct.hits[s];
    acct.scanned[s] += o.scanned;
  }
}

void FlowVerdictCache::FlushAccounting(const RunAccounting& acct,
                                       const FlowRowState& row, Stage* stages,
                                       std::size_t num_stages) {
  for (std::size_t s = 0; s < num_stages; ++s) {
    const u64 lookups = acct.lookups[s];
    if (lookups == 0) continue;
    const u64 hits = acct.hits[s];
    if (row.keys[s].ternary) {
      stages[s].tcam().NoteCachedLookups(lookups, hits, acct.scanned[s]);
    } else {
      stages[s].cam().NoteCachedLookups(lookups, hits);
    }
    stages[s].NoteCachedOutcomes(hits, lookups - hits);
  }
}

void FlowVerdictCache::SetSlotsPerRow(std::size_t slots) {
  if (slots == 0 || (slots & (slots - 1)) != 0)
    throw std::invalid_argument(
        "flow cache slots per row must be a power of two");
  for (FlowRowState& r : rows_) {
    FlushRow(r);
    r.slots.clear();
    r.slots.shrink_to_fit();
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
