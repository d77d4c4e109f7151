// Flow-verdict memoization cache.
//
// Production match-action traffic is zipfian: the same (module, masked
// flow key) traverses the identical chain of CAM/TCAM entries and VLIW
// rewrites millions of times.  For overlay rows whose reachable action
// set the execution-plan analysis proves stateless
// (ModuleExecPlan::flow_blocker == kNone: constant ops only, one-word
// masked keys, no predicate reading an action-written container), the
// end-to-end verdict — matched entry per stage, the resulting constant
// effect list, and the per-stage counter deltas — is a pure function of
// the per-stage key words extracted from the freshly parsed PHV.  This
// cache memoizes that function per overlay row, so a hit skips match
// lookup AND action execution entirely: parse, extract the key words,
// one hash probe, replay the recorded effects, deparse.
//
// Soundness sketch (the differential suite in tests/test_flow_cache.cpp
// pins this against ProcessUnplanned): two packets of the same module
// with equal per-stage parsed key words take identical paths.  By
// induction over stages — effects so far are equal, so a container bit
// either carries its parsed value (equal because the masked words are
// equal, predicate operands untouched by eligibility rule 3) or the
// value of an equal recorded effect; hence stage s's *actual* key word,
// extracted from the evolving PHV, is equal too, so the match outcome
// and the appended effects are equal.
//
// Invalidation follows the execution plans: rows are stamped with the
// pipeline's summed config version counters, so direct table writes,
// epoch commits and ResizeShards config-log replay all invalidate
// coherently.  On a stamp move the row's relevant configuration (key
// extractor/mask rows, aliasing CAM/TCAM entries, their VLIW entries) is
// re-snapshotted and deep-compared: only a *change in this row's own
// config* flushes its verdicts, so a hostile tenant thrashing its own
// tables cannot starve another tenant's hit rate (pinned by
// tests/test_isolation_adversarial.cpp).  Multicast port lists have no
// version counter, so only the group id is cached and ports resolve
// live per packet, exactly like the uncached path.
//
// Counter accounting is exact: constant-key (all-zero-mask) stages are
// accounted by Stage::BeginRun for the whole run as before; for probing
// stages each applied verdict accumulates its recorded lookup/hit/
// scanned deltas into a per-run accumulator flushed in one step
// (NoteCachedLookups/NoteCachedOutcomes), so every CAM, TCAM and stage
// counter advances exactly as if each packet had probed.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "phv/phv.hpp"
#include "pipeline/entries.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/params.hpp"
#include "pipeline/tcam.hpp"

namespace menshen {

class Stage;

/// One recorded constant-action effect: what a reachable VLIW slot of an
/// eligible row does to the PHV, independent of the packet.
struct FlowEffect {
  enum class Kind : u8 {
    kSetSlot,  // slot's container (or kUser metadata for slot 24) = value
    kPort,     // metadata kDstPort = value
    kDiscard,  // discard flag set
    kMcast,    // metadata kMulticastGroup = value (ports resolve live)
  };
  Kind kind = Kind::kSetSlot;
  u8 slot = 0;
  u16 value = 0;
  bool operator==(const FlowEffect&) const = default;
};

/// One cached end-to-end verdict, keyed by (module, per-stage key words).
struct FlowVerdict {
  bool valid = false;
  ModuleId module{0};
  std::array<u64, params::kNumStages> words{};
  /// Per-stage match record — the counter deltas one application of this
  /// verdict owes, and the matched entry id for observability.
  struct StageOutcome {
    bool probed = false;  // false: constant-key stage (BeginRun accounts)
    bool hit = false;
    u8 address = 0;   // matched CAM/TCAM entry id (valid when hit)
    u16 scanned = 0;  // TCAM entries examined per probe
  };
  std::array<StageOutcome, params::kNumStages> outcomes{};
  /// Constant effects of every matched stage, in execution order.
  std::vector<FlowEffect> effects;
};

/// Per-stage key recipe for an eligible row, copied out of the stage
/// configuration so the hit path reads no overlay tables (mirrors the
/// stage's private KeyPlan derivation).
struct FlowStageKey {
  bool skip = false;  // all-zero mask: constant key, word is always 0
  bool ternary = false;
  bool pred_active = false;
  u8 active_slots = 0;
  u64 word_mask = 0;
  KeyExtractorEntry kx;
};

/// Deep snapshot of the configuration a row's verdicts derive from.
/// Compared on every stamp move: verdicts survive foreign tenants'
/// reconfiguration (which bumps the global version sum) and flush only
/// when this row's own inputs changed.  Parse/deparse plans are absent
/// deliberately — they run live per packet and never enter the verdict.
struct FlowRowConfig {
  FlowCacheBlocker blocker = FlowCacheBlocker::kNone;
  struct StageConfig {
    KeyExtractorEntry kx;
    KeyMaskEntry mask;
    std::vector<std::pair<u8, CamEntry>> cam;    // (address, entry)
    std::vector<std::pair<u8, TcamEntry>> tcam;  // (address, entry)
    std::vector<std::pair<u8, VliwEntry>> vliw;  // entries at match addresses
    bool operator==(const StageConfig&) const = default;
  };
  std::vector<StageConfig> stages;
  bool operator==(const FlowRowConfig&) const = default;
};

/// One overlay row's cache state.
struct FlowRowState {
  u64 built_at_version = ~u64{0};  // ConfigVersionSum stamp
  bool eligible = false;
  std::array<FlowStageKey, params::kNumStages> keys{};
  FlowRowConfig config;
  std::vector<FlowVerdict> slots;  // direct-mapped; empty until first fill
  u32 live = 0;                    // valid slots (occupancy bookkeeping)
};

/// Cumulative cache statistics (relaxed counters: safe to read while the
/// owning shard worker is mid-batch).
struct FlowCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;  // conflict replacements (not invalidation flushes)
  u64 occupancy = 0;  // valid slots across all rows, right now
  u64 burst_pkts = 0;          // lanes probed through BurstProbe
  u64 burst_fallback_pkts = 0; // lanes compacted into the fallback list
};

class FlowVerdictCache {
 public:
  using KeyWordArray = std::array<u64, params::kNumStages>;

  /// Key-word equality as one XOR-OR chain over the five words, inline:
  /// std::array's operator== compiles to a memcmp call at this size.
  [[nodiscard]] static bool SameWords(const KeyWordArray& a,
                                      const KeyWordArray& b) {
    u64 diff = 0;
    for (std::size_t s = 0; s < a.size(); ++s) diff |= a[s] ^ b[s];
    return diff == 0;
  }

  /// Returns `row`'s cache state, refreshed for the configuration stamp
  /// `stamp` (the pipeline's ConfigVersionSum at the matching ExecPlanFor
  /// call).  On a stamp move the row config is re-snapshotted; verdicts
  /// are kept when it deep-compares equal and flushed otherwise.
  FlowRowState& EnsureRow(std::size_t row, u64 stamp, const Stage* stages,
                          std::size_t num_stages, const ModuleExecPlan& plan);

  /// Extracts the per-stage one-word masked keys from a freshly parsed
  /// PHV — the memoization key.  Only valid for eligible rows.
  static void KeyWords(const FlowRowState& row, std::size_t num_stages,
                       const Phv& phv, KeyWordArray& words);

  /// Direct-mapped probe: returns the slot the key hashes to and whether
  /// it currently holds this exact (module, words) verdict.
  FlowVerdict& SlotFor(FlowRowState& row, ModuleId module,
                       const KeyWordArray& words, bool& hit);

  /// Software-prefetch lookahead for BurstProbe: the slot of the lane
  /// this many positions ahead is hashed and prefetched while the
  /// current lane resolves, so the direct-mapped loads overlap instead
  /// of serializing one dependent miss per packet.
  static constexpr std::size_t kBurstPrefetchAhead = 8;

  /// Burst-wide probe (phase 2 of the burst path): hashes all `n` key
  /// arrays, prefetching each slot kBurstPrefetchAhead lanes before it
  /// is tested.  Lane k is a *final hit* only when no earlier fallback
  /// lane of this burst maps to the same slot (that lane's upcoming
  /// fill would change the outcome) AND the slot currently holds
  /// (module, words[k]); then verdicts[k] points at the slot.  Every
  /// other lane gets verdicts[k] == nullptr and is compacted into
  /// `fallback` for in-order scalar resolution via SlotAt.  slot_out[k]
  /// always receives the lane's slot index so the fallback pass reuses
  /// the hash.  Returns the number of final hits; bumps no counters —
  /// the caller accounts hits in bulk and fallback lanes individually,
  /// which keeps counter totals identical to the scalar path.
  std::size_t BurstProbe(FlowRowState& row, ModuleId module,
                         const KeyWordArray* words, std::size_t n,
                         const FlowVerdict** verdicts, u32* fallback,
                         std::size_t& fallback_count, u32* slot_out);

  /// Re-probes one slot by index (the hash carried out of BurstProbe):
  /// the fallback lanes' replacement for SlotFor.  Resolving fallbacks
  /// in lane order makes a lane hit here exactly when the scalar path
  /// would — e.g. against an earlier fallback lane's fresh fill.
  static FlowVerdict& SlotAt(FlowRowState& row, std::size_t slot,
                             ModuleId module, const KeyWordArray& words,
                             bool& hit) {
    FlowVerdict& v = row.slots[slot];
    hit = v.valid && v.module == module && SameWords(v.words, words);
    return v;
  }

  /// Prepares `slot` (returned miss-side by SlotFor) for a fill:
  /// eviction/occupancy bookkeeping plus key stamping.  The caller runs
  /// BuildVerdict next and sets `valid` last, so a throwing fill leaves
  /// the slot safely invalid.
  void BeginFill(FlowRowState& row, FlowVerdict& slot, ModuleId module,
                 const KeyWordArray& words);

  /// Walks the stages analytically — quiet lookups, no live counters —
  /// recording each stage's match outcome and the constant effects of
  /// every matched action into `v` while applying them to `phv` (so the
  /// filling packet finishes processing in the same pass).
  static void BuildVerdict(const FlowRowState& row, const Stage* stages,
                           std::size_t num_stages, ModuleId module, Phv& phv,
                           FlowVerdict& v);

  /// Records one matched VLIW entry's constant effects into `v` while
  /// applying them to `phv` — the per-hit core of BuildVerdict, shared
  /// with the straight-line recording kernel (pipeline/kernels) so the
  /// two fill paths cannot drift.  Throws std::logic_error on a
  /// non-constant op (eligibility proved none reachable).
  static void RecordMatchedEffects(const VliwEntry& vliw, Phv& phv,
                                   FlowVerdict& v);

  /// Replays a cached verdict's effects onto a freshly parsed PHV — the
  /// entire per-packet match-action work of a hit.
  static void ApplyEffects(const FlowVerdict& v, Phv& phv);

  /// Per-run counter-delta accumulator, flushed once per module run so
  /// the hot loop touches no shared counters.
  struct RunAccounting {
    std::array<u64, params::kNumStages> lookups{};
    std::array<u64, params::kNumStages> hits{};
    std::array<u64, params::kNumStages> scanned{};
  };
  static void Accumulate(RunAccounting& acct, const FlowVerdict& v,
                         std::size_t num_stages);
  static void FlushAccounting(const RunAccounting& acct,
                              const FlowRowState& row, Stage* stages,
                              std::size_t num_stages);

  void NoteHit(u64 n = 1) { hits_.Add(n); }
  void NoteMiss() { misses_.Add(); }
  /// Burst-path bookkeeping: `lanes` probed, of which `fallback` were
  /// compacted for scalar resolution.
  void NoteBurst(u64 lanes, u64 fallback) {
    burst_pkts_.Add(lanes);
    if (fallback != 0) burst_fallback_pkts_.Add(fallback);
  }

  [[nodiscard]] FlowCacheStats Snapshot() const {
    return {hits_.load(),      misses_.load(),
            evictions_.load(), occupancy_.load(),
            burst_pkts_.load(), burst_fallback_pkts_.load()};
  }

  [[nodiscard]] std::size_t slots_per_row() const { return slots_per_row_; }
  /// Resizes the per-row slot count (power of two required) and flushes
  /// every row — a test/bench knob, not a data-path operation.
  void SetSlotsPerRow(std::size_t slots);

  /// Read-only row access for tests.
  [[nodiscard]] const FlowRowState& RowAt(std::size_t row) const {
    return rows_.at(row);
  }

 private:
  void FlushRow(FlowRowState& row);
  [[nodiscard]] std::size_t SlotIndex(ModuleId module,
                                      const KeyWordArray& words) const;

  std::vector<FlowRowState> rows_ =
      std::vector<FlowRowState>(params::kOverlayTableDepth);
  std::size_t slots_per_row_ = params::kFlowCacheSlotsPerRow;
  RelaxedCounter hits_;
  RelaxedCounter misses_;
  RelaxedCounter evictions_;
  RelaxedCounter occupancy_;
  RelaxedCounter burst_pkts_;
  RelaxedCounter burst_fallback_pkts_;
};

}  // namespace menshen
