// Flow-verdict memoization cache.
//
// Production match-action traffic is zipfian: the same (module, masked
// flow key) traverses the identical chain of CAM/TCAM entries and VLIW
// rewrites millions of times.  For overlay rows whose reachable action
// set the execution-plan analysis proves stateless
// (ModuleExecPlan::flow_blocker == kNone: constant ops only, one-word
// masked keys, no predicate reading an action-written container), the
// end-to-end verdict — which entry every stage matched, hence which
// constant actions run, and the per-stage counter deltas — is a pure
// function of the per-stage key words extracted from the freshly parsed
// PHV.  This cache memoizes that function per overlay row, so a hit
// skips match lookup entirely: parse, extract and hash the key words,
// one slot probe, replay the matched entries' compiled VLIW plans,
// deparse.
//
// Soundness sketch (the differential suite in tests/test_flow_cache.cpp
// pins this against ProcessUnplanned): two packets of the same module
// with equal per-stage parsed key words take identical paths.  By
// induction over stages — effects so far are equal, so a container bit
// either carries its parsed value (equal because the masked words are
// equal, predicate operands untouched by eligibility rule 3) or the
// value of an equal constant effect; hence stage s's *actual* key word,
// extracted from the evolving PHV, is equal too, so the match outcome
// and the actions it selects are equal.
//
// One in-order pass per packet (Pipeline::RunSpanCached): the key words
// of the probing stages are hashed with one multiply each plus one
// final mix (HashWord/FinishHash); the low hash bits pick the
// direct-mapped slot, the high bits a counter of the row's frequency
// sketch.  A hit replays the verdict; a miss is resolved by the run's
// compiled kernel steps (pipeline/kernels) — or, for ternary-probing
// rows, which have no kernel, by BuildVerdict — and then offered to the
// slot.  Packets resolve strictly in arrival order, so a burst behaves
// exactly like the same packets submitted one at a time; only the
// parse, gather and hash run a few packets ahead, so that each slot line
// is prefetched before its probe.
//
// Admission (after OVS's exact-match-cache insertion policy and
// TinyLFU): every probe bumps a saturating 4-bit counter of the row's
// sketch, and every kSketchPeriodPerSlot x slots probes halve them all
// (no RNG: deterministic, so differentials and counters reproduce run to
// run).  A miss takes its slot only when the slot is empty or the sketch
// rates the missed key at least as hot as the resident verdict; a
// rejected miss records nothing.  One-off tail keys therefore stop
// evicting the hot set.  Sketches are per row, so one tenant's traffic
// can neither inflate nor age another tenant's counters (pinned by
// tests/test_isolation_adversarial.cpp).
//
// Invalidation follows the row programs: rows are stamped with the
// pipeline's config stamp (its summed version counters), so direct
// table writes, epoch commits and ResizeShards config-log replay all
// invalidate coherently.  On a stamp move the row's relevant
// configuration (key extractor/mask rows, aliasing CAM/TCAM entries,
// their VLIW entries) is re-snapshotted and deep-compared: only a
// *change in this row's own config* flushes its verdicts, so a hostile
// tenant thrashing its own tables cannot starve another tenant's hit
// rate.  A verdict names its
// matched entries by (stage, address) and replays their compiled plans,
// which a snapshot-equal row leaves unchanged.  Multicast port lists
// have no version counter, so only the group id is replayed and ports
// resolve live per packet, exactly like the uncached path.
//
// Counter accounting is exact: constant-key (all-zero-mask) stages are
// accounted by Stage::AccountConstantRun for the whole run; misses
// resolved by kernel steps are accounted by the steps
// (FlushKernelCounters); every other lane adds its verdict's packed
// per-stage hit and scan counts to a RunTally, flushed into the
// CAM/TCAM and stage counters at most every kTallyChunk lanes
// (FlushTally) — so every counter advances exactly as if each packet
// had probed.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "phv/phv.hpp"
#include "pipeline/action_engine.hpp"
#include "pipeline/entries.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/params.hpp"
#include "pipeline/tcam.hpp"

namespace menshen {

class Stage;

/// One cached end-to-end verdict, keyed by (module, per-stage key words):
/// which entry each stage matched.  One cache line.
struct alignas(64) FlowVerdict {
  std::array<u64, params::kNumStages> words{};  // 0 for constant-key stages
  /// Packed per-stage TCAM entries examined by one application (12 bits
  /// per stage, FlowVerdictCache::kTallyBits); 0 on exact stages.
  u64 scanned = 0;
  u32 sketch = 0;  // this key's sketch counter (admission compares it)
  ModuleId module{0};
  bool valid = false;
  /// Bit s: stage s matched the entry at address[s] — its compiled VLIW
  /// plan is replayed, and on a probing stage it counts as a hit.
  u8 matched = 0;
  std::array<u8, params::kNumStages> address{};
};
static_assert(sizeof(FlowVerdict) == 64, "a verdict is one cache line");

/// Per-stage key recipe for an eligible row, copied out of the stage
/// configuration so the probe reads no overlay tables (mirrors the
/// stage's private KeyPlan derivation).
struct FlowStageKey {
  bool skip = false;  // all-zero mask: constant key, word is always 0
  bool ternary = false;
  bool pred_active = false;
  u8 active_slots = 0;
  u64 word_mask = 0;
  KeyExtractorEntry kx;
  /// Precompiled word-0 extraction (KeyExtractorEntry::CompileWord0);
  /// nparts == -1 keeps ExtractKeyWord0 (predicate-comparing keys).
  std::array<KeyExtractorEntry::Word0Part, 3> parts{};
  int nparts = -1;

  /// The stage's masked one-word key for `phv`.
  [[nodiscard]] u64 Word(const Phv& phv) const {
    const u64 w =
        nparts >= 0
            ? KeyExtractorEntry::LoadWord0(phv.raw().data(), parts, nparts)
            : kx.ExtractKeyWord0(phv, active_slots, pred_active);
    return w & word_mask;
  }
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
  u64 built_at_version = ~u64{0};  // Pipeline config stamp
  bool eligible = false;
  u8 probed = 0;  // bit s: stage s probes (its key mask is nonzero)
  std::array<FlowStageKey, params::kNumStages> keys{};
  FlowRowConfig config;
  std::vector<FlowVerdict> slots;  // direct-mapped; empty until first run
  /// Admission sketch: saturating counters indexed by the high hash
  /// bits, kSketchPerSlot per slot, allocated with `slots`.
  std::vector<u8> sketch;
  u32 sketch_countdown = 0;  // probes left until the next halving
  u32 live = 0;              // valid slots (occupancy bookkeeping)
};

/// Cumulative cache statistics (relaxed counters: safe to read while the
/// owning shard worker is mid-batch).  Every miss either fills an empty
/// slot (occupancy), evicts a colder verdict (evictions) or is declined
/// by admission (rejects), so occupancy + evictions + rejects == misses
/// until a flush drops occupancy.
struct FlowCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;  // conflict replacements (not invalidation flushes)
  u64 rejects = 0;    // misses admission declined (nothing recorded)
  u64 occupancy = 0;  // valid slots across all rows, right now
};

class FlowVerdictCache {
 public:
  using KeyWordArray = std::array<u64, params::kNumStages>;

  /// Sketch counters per slot, saturation value, and the halving period
  /// in probes per slot (tuned by a zipf(0.9) / 4,096-key / 256-slot
  /// simulation: hit rate 0.40 -> 0.47, evictions ~600 -> ~60 per kpkt).
  static constexpr std::size_t kSketchPerSlot = 8;
  static constexpr u8 kSketchMax = 15;
  static constexpr u32 kSketchPeriodPerSlot = 16;

  /// Key-word equality as one XOR-OR chain over the five words, inline:
  /// std::array's operator== compiles to a memcmp call at this size.
  [[nodiscard]] static bool SameWords(const KeyWordArray& a,
                                      const KeyWordArray& b) {
    u64 diff = 0;
    for (std::size_t s = 0; s < a.size(); ++s) diff |= a[s] ^ b[s];
    return diff == 0;
  }

  /// The key hash: HashSeed once per run, HashWord once per probing
  /// stage's word, FinishHash once per packet.
  [[nodiscard]] static u64 HashSeed(ModuleId module);
  [[nodiscard]] static u64 HashWord(u64 h, u64 word) {
    return (h ^ word) * 0x9E3779B97F4A7C15ull;
  }
  [[nodiscard]] static u64 FinishHash(u64 h) {
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ull;
    return h ^ (h >> 32);
  }

  /// Returns `row`'s cache state, refreshed for the configuration stamp
  /// `stamp` (the pipeline's config stamp its row program was built
  /// at).  On a stamp move the row config is re-snapshotted; verdicts
  /// are kept when it deep-compares equal and flushed otherwise.
  FlowRowState& EnsureRow(std::size_t row, u64 stamp, const Stage* stages,
                          std::size_t num_stages, const ModuleExecPlan& plan);

  /// Allocates the row's slots and sketch on its first cached run.
  void PrepareRow(FlowRowState& row) {
    if (row.slots.empty()) AllocateRow(row);
  }

  /// One in-order probe: the slot `h` (FinishHash of the key) maps to,
  /// the key's sketch counter, and whether the slot holds (module,
  /// words).  Counts the probe in the row's sketch.
  struct Probe {
    FlowVerdict* slot = nullptr;
    u32 sketch = 0;
    bool hit = false;
  };
  [[nodiscard]] Probe Lookup(FlowRowState& row, ModuleId module,
                             const KeyWordArray& words, u64 h) {
    Probe p;
    p.slot = &row.slots[static_cast<std::size_t>(h) & (row.slots.size() - 1)];
    p.sketch = static_cast<u32>(h >> 32) &
               static_cast<u32>(row.sketch.size() - 1);
    u8& count = row.sketch[p.sketch];
    count = static_cast<u8>(count + (count < kSketchMax));
    if (--row.sketch_countdown == 0) HalveSketch(row);
    const FlowVerdict& v = *p.slot;
    p.hit = v.valid && v.module == module && SameWords(v.words, words);
    return p;
  }

  /// Miss-side admission and bookkeeping: true when the missed key may
  /// take `p.slot` — the slot is empty, or the sketch rates the key at
  /// least as hot as the resident verdict (an eviction).  An admitted
  /// slot is left invalid until Store, so a throwing fill leaves no
  /// half-written verdict.  False counts a reject: the caller records
  /// nothing.
  bool Admit(FlowRowState& row, const Probe& p) {
    misses_.Add();
    FlowVerdict& v = *p.slot;
    if (!v.valid) {
      occupancy_.Add();
      ++row.live;
      return true;
    }
    if (row.sketch[p.sketch] >= row.sketch[v.sketch]) {
      evictions_.Add();
      v.valid = false;
      return true;
    }
    rejects_.Add();
    return false;
  }

  /// Stamps an admitted slot with its key; the caller has filled
  /// `matched`/`address`/`scanned` (RecordKernelOutcome or BuildVerdict).
  static void Store(FlowVerdict& v, ModuleId module, const KeyWordArray& words,
                    u32 sketch) {
    v.words = words;
    v.module = module;
    v.sketch = sketch;
    v.valid = true;
  }

  /// The interpreted miss path of ternary-probing rows (which have no
  /// kernel): walks the stages with quiet lookups, recording each
  /// stage's match and TCAM scan count into `v` while applying the
  /// matched plans to `phv`, so the missing packet finishes processing
  /// in the same pass.
  static void BuildVerdict(const FlowRowState& row, const Stage* stages,
                           std::size_t num_stages, ModuleId module, Phv& phv,
                           FlowVerdict& v);

  /// Checks that every active slot of a plan a verdict records is a
  /// constant op — the only ops a cached verdict may replay (eligibility
  /// proved no other reachable; throws std::logic_error otherwise).
  static void RequireConstantPlan(const VliwPlan& plan);

  /// Replays a cached verdict onto a freshly parsed PHV — the entire
  /// per-packet match-action work of a hit.  `plans[s]` is stage s's
  /// compiled VLIW table (Stage::vliw_plans_data).
  static void Replay(const FlowVerdict& v, const VliwPlan* const* plans,
                     Phv& phv) {
    u8* const bytes = phv.mutable_raw().data();
    for (unsigned m = v.matched; m != 0; m &= m - 1) {
      const auto s = static_cast<std::size_t>(__builtin_ctz(m));
      const VliwPlan& plan = plans[s][v.address[s]];
      for (std::size_t i = 0; i < plan.count; ++i)
        ActionEngine::ApplyCompiledSlot(plan.slots[i], bytes, bytes,
                                        kNoSegment);
    }
  }

  /// Per-run counter tally of the lanes a verdict resolved: per-stage
  /// hit and TCAM scan counts packed kTallyBits per stage, so one lane
  /// costs two adds.  Flushed (FlushTally) before a field can overflow.
  static constexpr unsigned kTallyBits = 12;
  static constexpr u32 kTallyChunk = 255;
  static_assert(params::kCamDepth * kTallyChunk < (1u << kTallyBits),
                "a chunk of TCAM scan counts must fit one tally field");
  struct RunTally {
    u64 hits = 0;
    u64 scanned = 0;
    u32 lanes = 0;
  };
  static void Tally(RunTally& t, const FlowVerdict& v) {
    t.hits += kSpreadMatched[v.matched];
    t.scanned += v.scanned;
    ++t.lanes;
  }
  /// Advances the probing stages' CAM/TCAM lookup, hit and scan counters
  /// and the stage hit/miss counters by the tallied lanes, then resets
  /// `t`.
  static void FlushTally(RunTally& t, const FlowRowState& row, Stage* stages,
                         std::size_t num_stages);

  /// Per-run bookkeeping: `hits` lanes of a run were served by a hit.
  /// Every other lane called Admit, which counted its miss, so the
  /// lanes through the cached tier are hits + misses.
  void NoteRun(u64 hits) {
    if (hits != 0) hits_.Add(hits);
  }

  [[nodiscard]] FlowCacheStats Snapshot() const {
    return {hits_.load(), misses_.load(), evictions_.load(), rejects_.load(),
            occupancy_.load()};
  }

  [[nodiscard]] std::size_t slots_per_row() const { return slots_per_row_; }
  /// Resizes the per-row slot count (power of two required) and flushes
  /// every row, sketch included — a test/bench knob, not a data-path
  /// operation.
  void SetSlotsPerRow(std::size_t slots);

  /// Read-only row access for tests.
  [[nodiscard]] const FlowRowState& RowAt(std::size_t row) const {
    return rows_.at(row);
  }

 private:
  /// kSpreadMatched[m] has bit kTallyBits * s set for each bit s of m.
  static constexpr std::array<u64, 32> kSpreadMatched = [] {
    std::array<u64, 32> t{};
    for (unsigned m = 0; m < t.size(); ++m)
      for (unsigned s = 0; s < 5; ++s)
        if (m & (1u << s)) t[m] |= u64{1} << (kTallyBits * s);
    return t;
  }();
  static_assert(params::kNumStages == 5, "kSpreadMatched covers 5 stages");
  static const StatefulMemory::Segment kNoSegment;

  /// BuildVerdict's per-match step: RequireConstantPlan, then apply.
  static void ApplyRecordedPlan(const VliwPlan& plan, Phv& phv);
  void AllocateRow(FlowRowState& row);
  void FlushRow(FlowRowState& row);
  static void HalveSketch(FlowRowState& row);

  std::vector<FlowRowState> rows_ =
      std::vector<FlowRowState>(params::kOverlayTableDepth);
  std::size_t slots_per_row_ = params::kFlowCacheSlotsPerRow;
  RelaxedCounter hits_;
  RelaxedCounter misses_;
  RelaxedCounter evictions_;
  RelaxedCounter rejects_;
  RelaxedCounter occupancy_;
};

}  // namespace menshen
