// One match-action stage (Figure 4).
//
// Per packet: (1) the key extractor overlay entry for the packet's module
// builds the 193-bit key (including the predicate bit); (2) the key mask
// overlay entry zeroes the bits that do not participate; (3) the masked
// key, augmented with the module ID, is looked up in the exact-match CAM;
// (4) on a hit, the matching address indexes the VLIW action table and the
// action engine executes the instruction, possibly touching this stage's
// stateful memory through the segment table.
//
// The batched hot path reads a module's configuration once per
// configuration, not once per packet: ResolveRun resolves the
// overlay-table Lookup pair, the key-layout plan and the stateful-segment
// base into a ModuleRunContext, which the pipeline keeps in the row's
// program until its config stamp moves, and ProcessRun then executes each
// packet against it.  A module whose key mask is all zero probes the same
// (all-zero) key every packet, so ResolveRun resolves its lookup result
// quietly too and the per-packet work collapses to the action execution
// (or to nothing on a constant miss); AccountConstantRun then advances the
// counters once per module run, exactly as if each packet had probed.
#pragma once

#include <optional>
#include <vector>

#include "phv/phv.hpp"
#include "pipeline/action_engine.hpp"
#include "pipeline/entries.hpp"
#include "pipeline/exact_match.hpp"
#include "pipeline/overlay_table.hpp"
#include "pipeline/stateful.hpp"
#include "pipeline/tcam.hpp"

namespace menshen {

class Stage {
 public:
  /// Processes one PHV; returns the (possibly new) PHV for the next stage.
  /// This is the linear reference path the run-context hot path below is
  /// pinned against (tests/test_exec_plan.cpp).
  [[nodiscard]] Phv Process(const Phv& phv);

  /// Batched hot path predecessor: transforms `phv` in place, reusing
  /// this stage's scratch key/snapshot buffers so no per-packet
  /// allocation happens.  Functionally identical to `phv = Process(phv)`.
  void ProcessInPlace(Phv& phv);

  [[nodiscard]] OverlayTable<KeyExtractorEntry>& key_extractor() {
    return key_extractor_;
  }
  [[nodiscard]] OverlayTable<KeyMaskEntry>& key_mask() { return key_mask_; }
  [[nodiscard]] ExactMatchCam& cam() { return cam_; }
  [[nodiscard]] TernaryCam& tcam() { return tcam_; }
  [[nodiscard]] std::vector<VliwEntry>& vliw_table() { return vliw_table_; }
  [[nodiscard]] StatefulMemory& stateful() { return stateful_; }

  [[nodiscard]] const ExactMatchCam& cam() const { return cam_; }
  [[nodiscard]] const TernaryCam& tcam() const { return tcam_; }
  [[nodiscard]] const StatefulMemory& stateful() const { return stateful_; }
  [[nodiscard]] const OverlayTable<KeyExtractorEntry>& key_extractor() const {
    return key_extractor_;
  }
  [[nodiscard]] const OverlayTable<KeyMaskEntry>& key_mask() const {
    return key_mask_;
  }

  void WriteVliw(std::size_t index, VliwEntry entry);
  [[nodiscard]] const VliwEntry& VliwAt(std::size_t index) const;
  /// Compiled form of the VLIW row at `index` (compiled slots + snapshot
  /// elision) — read by the exec-plan shape classifier and the kernels.
  [[nodiscard]] const VliwPlan& VliwPlanAt(std::size_t index) const {
    return vliw_plans_.at(index);
  }
  /// Raw plan-table base for the kernel layer: a kernel resolves the
  /// matched address's plan with one index, no bounds re-check
  /// (addresses come from the CAM, which only stores valid indices).
  [[nodiscard]] const VliwPlan* vliw_plans_data() const {
    return vliw_plans_.data();
  }
  /// Sum of every version counter of this stage's configuration (key
  /// extractor, key mask, CAM, TCAM, VLIW table, segment table) — the
  /// stage's share of the pipeline's config stamp.  Monotonic: every
  /// write bumps exactly one of them.
  [[nodiscard]] u64 ConfigVersion() const {
    return key_extractor_.version() + key_mask_.version() + cam_.version() +
           tcam_.version() + vliw_version_ +
           stateful_.segment_table().version();
  }

  /// The key the stage would look up for this PHV, after masking — exposed
  /// for tests and the compiler's entry generation.
  [[nodiscard]] BitVec MaskedKeyFor(const Phv& phv) const;

  /// Hot-path equivalent of MaskedKeyFor: builds the masked key into
  /// `key` using the per-module key-layout plan cache, which skips the
  /// slots (and the predicate evaluation) the module's key mask zeroes
  /// anyway.  Plans invalidate automatically on key-extractor or key-mask
  /// writes (overlay-table versioning).
  void MaskedKeyInto(const Phv& phv, BitVec& key);

  /// Variant for callers that already looked the module's entries up
  /// (the per-packet hot path, which needs `kx` for the match-kind bit
  /// anyway) — performs no overlay-table reads itself.
  void MaskedKeyIntoWith(const KeyExtractorEntry& kx, const KeyMaskEntry& mask,
                         const Phv& phv, BitVec& key);

  // Observability.
  [[nodiscard]] u64 hits() const { return hits_; }
  [[nodiscard]] u64 misses() const { return misses_; }

  /// Advances the stage hit/miss counters for packets whose match
  /// outcome the flow-verdict cache replayed without running this stage
  /// — accumulated over one module run and flushed here in one step, so
  /// the counters advance exactly as if each packet had probed.
  void NoteCachedOutcomes(u64 hits, u64 misses) {
    hits_ += hits;
    misses_ += misses;
  }

  /// Cached per-overlay-row key layout, derived from the row's key
  /// extractor and key mask: which of the six key slots have any unmasked
  /// bit, and whether the predicate bit can ever reach the lookup.  Saves
  /// rebuilding the full 193-bit key per stage for the (common) modules
  /// that match on one or two fields.  Public: the kernel-specialization
  /// layer (pipeline/kernels) reads the plan through ModuleRunContext.
  struct KeyPlan {
    u64 built_at_version = ~u64{0};  // kx.version() + mask.version() stamp
    bool skip_extraction = false;    // all-zero mask: key is forced to zero
    u8 active_slots = 0;             // bit i: slot i survives the mask
    bool pred_active = false;        // mask keeps bit 0 and a CmpOp is set
    // One-word fast path: every kept mask bit lies in key word 0, so the
    // masked key is fully described by a u64 and exact-match lookup is an
    // integer compare over the CAM's word index (ExactMatchCam::LookupWord)
    // — no BitVec build.
    bool one_word = false;
    u64 word_mask = 0;  // mask word 0 (valid when one_word)
  };

 public:
  /// One module's resolved per-stage state: the overlay entries, the
  /// key-layout plan and the stateful segment, read once per
  /// configuration instead of once per packet.  Valid until the next
  /// configuration write: the pipeline keeps it in the row's program,
  /// stamped with the config stamp it was resolved at, and re-resolves
  /// when the stamp moves (the dataplane quiesces traffic around
  /// configuration changes, so no run sees one).
  struct ModuleRunContext {
    const KeyExtractorEntry* kx = nullptr;
    const KeyMaskEntry* mask = nullptr;
    const KeyPlan* plan = nullptr;
    StatefulMemory::Segment segment;
    // Pre-resolved per-module CAM shadow-index handles (exact-match
    // modules): the per-packet probe skips the outer module-map hop.
    ExactMatchCam::WordIndexHandle word_index = nullptr;
    ExactMatchCam::KeyIndexHandle key_index = nullptr;
    // All-zero-mask modules probe a constant (all-zero) key: the lookup
    // result, and on a ternary stage the entries one lookup examines,
    // are resolved once per configuration.
    bool constant = false;
    bool constant_hit = false;
    const VliwPlan* constant_vliw_plan = nullptr;
    u64 constant_scanned = 0;
  };

  /// Resolves `ctx` for `module` under the current configuration,
  /// quietly: no counter moves.  For constant-key modules the lookup
  /// happens here; AccountConstantRun accounts it per run.
  void ResolveRun(ModuleId module, ModuleRunContext& ctx);

  /// Per-run accounting of a constant-key context: advances the CAM or
  /// TCAM lookup, hit and scan counters and this stage's hit/miss
  /// counters by `run_len` probes of the all-zero key, exactly what
  /// per-packet probing would have recorded.
  void AccountConstantRun(const ModuleRunContext& ctx, u64 run_len) {
    if (ctx.kx->ternary)
      tcam_.NoteConstantLookups(run_len, ctx.constant_hit,
                                ctx.constant_scanned);
    else
      cam_.NoteConstantLookups(run_len, ctx.constant_hit);
    if (ctx.constant_hit)
      hits_ += run_len;
    else
      misses_ += run_len;
  }

  /// Processes one packet of a run against `ctx`.  Performs no
  /// overlay-table or segment-table reads; constant-key stages are
  /// accounted by AccountConstantRun.  Byte-identical to ProcessInPlace
  /// (pinned by the execution-plan differential suite).
  void ProcessRun(Phv& phv, const ModuleRunContext& ctx);

 private:
  [[nodiscard]] const KeyPlan& PlanFor(std::size_t row);
  /// MaskedKeyIntoWith body for callers that already hold the plan (the
  /// in-place hot path fetches it once per packet for the one-word
  /// check and must not pay a second overlay IndexFor/PlanFor here).
  void MaskedKeyWithPlan(const KeyExtractorEntry& kx, const KeyMaskEntry& mask,
                         const KeyPlan& plan, const Phv& phv, BitVec& key);

  OverlayTable<KeyExtractorEntry> key_extractor_;
  OverlayTable<KeyMaskEntry> key_mask_;
  ExactMatchCam cam_;
  TernaryCam tcam_;
  std::vector<VliwEntry> vliw_table_ =
      std::vector<VliwEntry>(params::kVliwTableDepth);
  /// Compiled form of each VLIW row (compiled slots + snapshot-elision
  /// safety), rebuilt eagerly by WriteVliw — the sole mutation path.
  std::vector<VliwPlan> vliw_plans_ =
      std::vector<VliwPlan>(params::kVliwTableDepth);
  StatefulMemory stateful_;
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 vliw_version_ = 0;  // bumped on every WriteVliw
  // Scratch buffers reused across packets by ProcessInPlace (never part
  // of the stage's observable configuration state).
  BitVec key_scratch_;
  Phv snapshot_scratch_;
  std::vector<KeyPlan> key_plans_ =
      std::vector<KeyPlan>(params::kOverlayTableDepth);
};

}  // namespace menshen
