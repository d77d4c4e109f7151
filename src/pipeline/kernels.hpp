// Compiled steps: the kernel tier of the execution ladder.
//
// PR 5 compiled per-packet work into interpreted plan data; this layer
// removes the remaining per-stage dispatch.  BuildKernelRun compiles the
// per-stage run contexts Stage::ResolveRun resolved for one module into
// a list of steps, one per stage that contributes per-packet work:
//  - probe: extract the one-word key from the evolving PHV (raw loads at
//    fixed PHV offsets), probe the module's CAM word index, apply the
//    matched row's compiled VLIW plan;
//  - constant apply: an all-zero-mask stage whose lookup hit — only the
//    action runs.
// Constant misses and all-nop constant hits compile to nothing.  A row
// with a wide (above key word 0) or ternary probe compiles no steps and
// runs the interpreted plan path (Pipeline::RunSpan's other loop).
//
// Steps live in the tenant row's program (Pipeline), next to the run
// contexts they were compiled from, and are rebuilt only when the
// pipeline's config stamp or the row's module ID moves — not once per
// run.  Every non-cached kernel run is one loop over its packets:
// planned parse, RunKernelSteps (inlined), planned deparse.  The flow
// cache's misses run the same steps one packet at a time.  ProcessUnplanned
// is the reference tests/test_kernels.cpp pins both against.
//
// Counter exactness: probes are quiet (no per-packet atomics) and each
// step accumulates its hit/miss outcomes into step-local fields; one
// flush per run (FlushKernelCounters) advances the CAM lookup/hit and
// stage hit/miss counters by the identical totals per-packet
// interpretation would have recorded — the same bulk discipline the
// flow-verdict cache uses.  Constant-key stages are accounted per run by
// Stage::AccountConstantRun.
//
// Each probing step also memoizes its last (key -> outcome) pair.  The
// memo lives as long as the program: a program never outlives a
// configuration change, so a repeated key — the common case under
// zipfian flow locality — replays the previous outcome without
// re-probing, across runs.  Counters still advance per packet.
#pragma once

#include <array>
#include <cstddef>

#include "phv/phv.hpp"
#include "pipeline/action_engine.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/flow_cache.hpp"
#include "pipeline/params.hpp"
#include "pipeline/stage.hpp"

namespace menshen {

/// One stage's contribution to a row's compiled steps.  Two forms:
///  - probe (constant == false): extract the one-word key from the
///    evolving PHV, probe the per-module CAM word index, apply the
///    matched row's compiled VLIW plan;
///  - constant apply (constant == true): the lookup was resolved by
///    Stage::ResolveRun (and is accounted per run) — only the action
///    runs.
/// Constant *misses* never become steps at all.
struct KernelStep {
  const KeyExtractorEntry* kx = nullptr;
  // Precompiled word-0 extraction (raw PHV loads, no container
  // resolution); key_nparts == -1 falls back to kx->ExtractKeyWord0
  // (predicate-comparing extractors).
  std::array<KeyExtractorEntry::Word0Part, 3> key_parts{};
  int key_nparts = -1;
  ExactMatchCam::WordIndexHandle word_index = nullptr;
  const VliwPlan* vliw_plans = nullptr;
  u64 word_mask = 0;
  u8 active_slots = 0;
  bool pred_active = false;
  bool constant = false;
  const VliwPlan* const_plan = nullptr;
  StatefulMemory::Segment segment;
  u8 stage = 0;  // owning stage index (counter flush)
  // Last-probe memo: valid as long as the step, because a row program
  // never outlives a configuration change.  A constant step holds its
  // matched address here (memo_hit set) for flow-cache recording.
  u64 memo_key = 0;
  u32 memo_addr = 0;
  bool memo_valid = false;
  bool memo_hit = false;
  // Per-run counter accumulators (probe form only), flushed by
  // FlushKernelCounters.  The CAM deltas derive from the same pair:
  // lookups = hits + misses.
  u64 hits = 0;
  u64 misses = 0;
};

/// One row's compiled steps.
struct KernelRun {
  std::array<KernelStep, params::kNumStages> steps{};
  u8 num_steps = 0;
};

/// Compiles the per-stage run contexts Stage::ResolveRun resolved into a
/// step list.  Returns false — interpreted plan path — iff some probing
/// stage needs the wide-key or ternary machinery (exactly the plans with
/// `kernel.wide_or_ternary` set).
[[nodiscard]] bool BuildKernelRun(const Stage* stages, std::size_t num_stages,
                                  const Stage::ModuleRunContext* ctx,
                                  KernelRun& kr);

/// Flushes the per-run accumulators after a run: CAM lookup/hit and
/// stage hit/miss counters advance by exactly what per-packet probing
/// would have recorded.
void FlushKernelCounters(Stage* stages, KernelRun& kr);

/// One step against the evolving PHV.
inline void RunStep(KernelStep& st, Phv& phv, Phv& snapshot) {
  const VliwPlan* plan;
  if (st.constant) {
    plan = st.const_plan;
  } else {
    const u64 key =
        (st.key_nparts >= 0
             ? KeyExtractorEntry::LoadWord0(phv.raw().data(), st.key_parts,
                                            st.key_nparts)
             : st.kx->ExtractKeyWord0(phv, st.active_slots, st.pred_active)) &
        st.word_mask;
    // Quiet probe with a last-key memo — the CAM cannot change while the
    // step lives, so a repeated key replays the previous outcome without
    // re-scanning.
    if (!st.memo_valid || key != st.memo_key) {
      st.memo_valid = true;
      st.memo_key = key;
      st.memo_hit = false;
      if (st.word_index != nullptr) {
        if (const auto address = st.word_index->Find(key)) {
          st.memo_hit = true;
          st.memo_addr = static_cast<u32>(*address);
        }
      }
    }
    if (!st.memo_hit) {
      ++st.misses;
      return;  // miss: default action is a no-op
    }
    ++st.hits;
    plan = st.vliw_plans + st.memo_addr;
  }
  ActionEngine::ExecuteCompiled(*plan, phv, snapshot, st.segment);
}

/// Runs a row's compiled steps over one parsed PHV.  `snapshot` is the
/// multi-slot VLIW snapshot scratch.
inline void RunKernelSteps(KernelRun& kr, Phv& phv, Phv& snapshot) {
  for (std::size_t k = 0; k < kr.num_steps; ++k)
    RunStep(kr.steps[k], phv, snapshot);
}

/// After RunKernelSteps: records which entry each step matched for the
/// packet just run into `v` (matched/address; scanned = 0), checking the
/// matched plans are constant-only (FlowVerdictCache::RequireConstantPlan).
void RecordKernelOutcome(const KernelRun& kr, FlowVerdict& v);

}  // namespace menshen
