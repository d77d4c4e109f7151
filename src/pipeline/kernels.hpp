// Specialized straight-line kernels for compiled execution plans.
//
// PR 5 compiled per-packet work into interpreted plan data; this layer
// removes the remaining per-step dispatch.  Every compiled
// ModuleExecPlan is classified into a small enumerable shape — step
// count (stages that actually contribute work this run) × stateful /
// stateless × single-slot / multi-slot × one-word-exact vs
// wide-or-ternary — and each module run dispatches to a templated
// straight-line kernel instantiated per shape.  A kernel fuses the
// whole per-packet loop — planned parse byte-moves, key-word
// extraction, CAM word-index probe, compiled VLIW slots with snapshot
// elision, planned deparse — into one function with a single pass over
// the PHV: the step count is a compile-time constant (the stage loop
// unrolls), single-slot rows skip the snapshot and the slot loop, and
// constant-miss stages are compiled out of the run entirely.
//
// Selection happens once per module run, from the run contexts
// Stage::BeginRun resolved; invalidation therefore rides the exact same
// summed config-version stamps the execution plans already use.  The
// one shape class with no registered kernel — wide_or_ternary — routes
// to the interpreted plan path (Pipeline::RunOne).  Kernels are
// templated over the packet type like the rest of the ladder: one
// registry per type, the same shapes in both (tests/test_kernels.cpp
// pins byte-identity against ProcessUnplanned; the exhaustiveness unit
// pins that no other shape can silently fall through).
//
// Counter exactness: probes are quiet (no per-packet atomics) and each
// step accumulates its hit/miss outcomes into run-local fields; one
// flush per run (FlushKernelCounters) advances the CAM lookup/hit and
// stage hit/miss counters by the identical totals per-packet
// interpretation would have recorded — the same bulk discipline the
// flow-verdict cache uses.  Constant-key stages were already accounted
// by BeginRun.  The flow cache's miss path runs the same compiled steps
// one packet at a time (RunKernelSteps).
//
// Each probing step also memoizes its last (key -> outcome) pair: a run
// never spans a configuration change, so a repeated key — the common
// case under zipfian flow locality — replays the previous outcome
// without re-probing.  Counters still advance per packet.
#pragma once

#include <array>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "phv/phv.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/flow_cache.hpp"
#include "pipeline/params.hpp"
#include "pipeline/stage.hpp"

namespace menshen {

/// Shape id: bits [2:0] step count (0..kNumStages), bit 3 stateful,
/// bit 4 multi-slot, bit 5 wide-or-ternary.  64 ids; the registry holds
/// a kernel for every id a run can actually present (steps <=
/// kNumStages, wide bit clear) and nullptr — meaning "interpreted plan
/// fallback" — for the rest.
inline constexpr std::size_t kKernelShapeCount = 64;

[[nodiscard]] constexpr u8 KernelShapeId(u8 steps, bool stateful,
                                         bool multi_slot,
                                         bool wide_or_ternary) {
  return static_cast<u8>((steps & 0x7u) | (stateful ? 0x08u : 0u) |
                         (multi_slot ? 0x10u : 0u) |
                         (wide_or_ternary ? 0x20u : 0u));
}
/// Human-readable shape label, e.g. "s2+stateful" or "wide/ternary:s1"
/// (stats dumps and the CI shape-distribution artifact).
[[nodiscard]] const char* KernelShapeName(u8 shape);

/// One stage's contribution to a kernel run.  Two forms:
///  - probe (constant == false): extract the one-word key from the
///    evolving PHV, probe the per-module CAM word index, apply the
///    matched row's compiled VLIW plan;
///  - constant apply (constant == true): the lookup was resolved (and
///    fully accounted) by Stage::BeginRun — only the action runs.
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
  // Last-probe memo: valid for the rest of the run, because run
  // contexts never span a configuration change.  A constant step holds
  // its matched address here (memo_hit set) for flow-cache recording.
  u64 memo_key = 0;
  u32 memo_addr = 0;
  bool memo_valid = false;
  bool memo_hit = false;
  // Run-local counter accumulators (probe form only).  The CAM deltas
  // derive from the same pair: lookups = hits + misses.
  u64 hits = 0;
  u64 misses = 0;
};

/// One module run's compiled kernel input: the surviving steps plus the
/// module's parse/deparse plans.  Reused across runs by the pipeline.
struct KernelRun {
  std::array<KernelStep, params::kNumStages> steps{};
  u8 num_steps = 0;
  const ParsePlan* parse = nullptr;
  const DeparsePlan* deparse = nullptr;
};

/// Per-run packet span a kernel executes: `idx[0..n)` index `pkts` (the
/// pipeline's classified data-packet order), each packet mutated in
/// place.  `work` is the pipeline's reused per-packet PHV scratch
/// (Clear()ed per packet by the kernel).
template <typename PacketT>
struct KernelCtx {
  PacketT* const* pkts = nullptr;
  const u32* idx = nullptr;
  std::size_t n = 0;
  const std::unordered_map<u16, std::vector<u16>>* mcast = nullptr;
  u64* fwd = nullptr;
  u64* drop = nullptr;
  Phv* snapshot = nullptr;  // multi-slot VLIW snapshot scratch
  Phv* work = nullptr;      // per-packet PHV scratch
};

template <typename PacketT>
using KernelFn = void (*)(KernelRun&, const KernelCtx<PacketT>&);

/// The kernel registry for one packet type (Packet or ArenaPacket): one
/// slot per shape id.  nullptr = no registered kernel, route to the
/// interpreted plan path.
template <typename PacketT>
[[nodiscard]] const std::array<KernelFn<PacketT>, kKernelShapeCount>&
KernelRegistry();

/// Compiles the per-stage run contexts BeginRun resolved into a kernel
/// step list.  Returns false — interpreter fallback — iff some probing
/// stage needs the wide-key or ternary machinery (exactly the plans
/// whose KernelShape has wide_or_ternary set; the exhaustiveness test
/// pins the equivalence).
[[nodiscard]] bool BuildKernelRun(const Stage* stages, std::size_t num_stages,
                                  const Stage::ModuleRunContext* ctx,
                                  const ModuleExecPlan& plan, KernelRun& kr);

/// Flushes the run-local accumulators after a kernel run: CAM
/// lookup/hit and stage hit/miss counters advance by exactly what
/// per-packet probing would have recorded.
void FlushKernelCounters(Stage* stages, KernelRun& kr);

/// The flow cache's miss path (Pipeline::RunSpanCached): runs the run's
/// compiled steps over one parsed PHV — the same key extraction, memoized
/// word-index probe and compiled plans as the kernels, with the step
/// counters accumulating for the run's one FlushKernelCounters.
void RunKernelSteps(KernelRun& kr, Phv& phv, Phv& snapshot);

/// After RunKernelSteps: records which entry each step matched for the
/// packet just run into `v` (matched/address; scanned = 0), checking the
/// matched plans are constant-only (FlowVerdictCache::RequireConstantPlan).
void RecordKernelOutcome(const KernelRun& kr, FlowVerdict& v);

}  // namespace menshen
