// The Menshen pipeline (Figure 2): packet filter -> programmable parser ->
// N match-action stages -> deparser, plus the daisy-chain configuration
// sink.  This class implements the *functional* behaviour; per-cycle
// timing lives in sim/ (the timing model shares this object's structural
// parameters).
//
// Packets run through ONE execution ladder — flow-verdict cache ->
// specialized kernel -> interpreted plan — instantiated for both packet
// types.  ProcessStreamBurst runs a burst of packet pointers (Packet or
// ArenaPacket) in place; it is what the dataplane's shard executor calls
// for ticket slices and streaming bursts alike.  Process and
// ProcessBatchInto run owned Packets through the same burst loop and
// return PipelineResults.  ProcessUnplanned is the one semantic
// reference every ladder tier is pinned against.
#pragma once

#include <array>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/counters.hpp"
#include "packet/packet.hpp"
#include "phv/phv.hpp"
#include "pipeline/config_write.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/flow_cache.hpp"
#include "pipeline/kernels.hpp"
#include "pipeline/packet_filter.hpp"
#include "pipeline/params.hpp"
#include "pipeline/parser.hpp"
#include "pipeline/stage.hpp"

namespace menshen {

class ArenaPacket;  // packet/arena.hpp

/// Outcome of running one packet through the pipeline.
struct PipelineResult {
  FilterVerdict filter_verdict = FilterVerdict::kData;
  /// Present iff the packet traversed the match-action pipeline.
  std::optional<Packet> output;
  /// PHV as it left the last stage — filled only by ProcessUnplanned
  /// (the ladder parses into reused scratch PHVs and emits none).
  std::optional<Phv> final_phv;
  /// Execution-ladder tier that resolved the packet (common/
  /// exec_tier.hpp ExecTier as u8; kNone for filtered packets) and the
  /// stages/steps that tier visited — telemetry sidebands.
  u8 exec_tier = 0;
  u8 exec_steps = 0;
};

/// Fills `result` from the sidebands the ladder left on `pkt`; a data
/// packet moves into `output`.
void TakeResult(Packet& pkt, PipelineResult& result);

class Pipeline {
 public:
  explicit Pipeline(PipelineTiming timing = OptimizedTiming(),
                    bool reconfig_on_data_path = true);

  /// Runs one data packet through filter, parser, stages and deparser.
  /// Reconfiguration packets reaching the filter from the data path are
  /// NOT applied here — the caller (config/DaisyChain) owns that path.
  /// The one-packet case of ProcessBatchInto.
  PipelineResult Process(Packet pkt);

  /// The unplanned reference path: linear full parse, per-packet overlay
  /// reads in every stage, linear full deparse.  Retained as the
  /// differential reference the compiled-plan path is pinned against
  /// (tests/test_exec_plan.cpp compares every tenant-observable output).
  /// Dead-container PHV bytes may differ from the planned path — they
  /// are exactly what liveness pruning proves unobservable.
  PipelineResult ProcessUnplanned(Packet pkt);

  /// Batched entry point: runs every packet of `batch` through the
  /// ladder in order, then appends one PipelineResult per packet to
  /// `out`, filled from the packet's sidebands; data packets move into
  /// their result's `output`.  The batch is executed as *module runs* —
  /// maximal spans of consecutive same-tenant data packets — with the
  /// per-stage overlay lookups, key plans, stateful segment bases and
  /// the module's parse/deparse plans resolved once per run, and the
  /// scratch PHVs reused throughout, so the steady state performs no
  /// per-packet allocation.
  void ProcessBatchInto(std::vector<Packet>&& batch,
                        std::vector<PipelineResult>& out);

  /// Convenience wrapper returning a fresh result vector.
  [[nodiscard]] std::vector<PipelineResult> ProcessBatch(
      std::vector<Packet>&& batch);

  /// In-place entry point: runs a burst of packets through the same
  /// ladder, in order — no PipelineResult, no packet move.  Each
  /// packet's bytes are rewritten by the planned deparse and its
  /// verdict / disposition / egress / tier sidebands are filled for the
  /// caller to act on (enqueue to egress, recycle on drop, TakeResult).
  void ProcessStreamBurst(ArenaPacket* const* pkts, std::size_t n);
  void ProcessStreamBurst(Packet* const* pkts, std::size_t n);

  /// The compiled execution plan for `module`'s overlay row, rebuilt
  /// when any of the configuration version counters it derives from
  /// (parser/deparser tables, key extractors/masks, CAM/TCAM entries,
  /// VLIW tables) has moved — every configuration path bumps one, so
  /// epoch commits, overlay rewrites and ResizeShards config-log replay
  /// all invalidate coherently.  Exposed for tests and benchmarks.
  [[nodiscard]] const ModuleExecPlan& ExecPlanFor(ModuleId module);

  /// The flow-verdict cache state for `module`'s overlay row, refreshed
  /// to the current configuration (same stamp discipline as ExecPlanFor).
  /// Exposed for tests; the ladder refreshes rows itself.
  [[nodiscard]] FlowRowState& FlowRowFor(ModuleId module);

  /// Per-shard flow-verdict cache (pipeline/flow_cache.hpp).  Mutable
  /// access is a test/bench knob (capacity); stats are safe to read
  /// concurrently via FlowCacheStats' relaxed counters.
  [[nodiscard]] FlowVerdictCache& flow_cache() { return flow_cache_; }
  [[nodiscard]] FlowCacheStats FlowCacheSnapshot() const {
    return flow_cache_.Snapshot();
  }

  /// Kernel-dispatch statistics (relaxed counters: safe to read while a
  /// shard worker is mid-batch).
  struct KernelStats {
    u64 pkts = 0;           // packets executed by a specialized kernel
    u64 fallback_pkts = 0;  // packets interpreted (wide/ternary rows)
    u64 record_fills = 0;   // flow-cache misses filled by the recording kernel
    std::array<u64, kKernelShapeCount> shape_pkts{};  // pkts per shape id
  };
  [[nodiscard]] KernelStats KernelSnapshot() const;

  /// Compiles (without caching) the execution plan for `module`'s
  /// overlay row — a const observability hook: stats dumps read the
  /// flow-cache blocker and kernel shape of every active tenant without
  /// touching the plan cache.
  [[nodiscard]] ModuleExecPlan DescribeRow(ModuleId module) const;

  /// Applies one configuration write (arriving via the daisy chain or
  /// AXI-L) to the addressed resource, and bumps the filter's
  /// reconfiguration packet counter.
  void ApplyWrite(const ConfigWrite& write);

  [[nodiscard]] PacketFilter& filter() { return filter_; }
  [[nodiscard]] const PacketFilter& filter() const { return filter_; }
  [[nodiscard]] Parser& parser() { return parser_; }
  [[nodiscard]] const Parser& parser() const { return parser_; }
  [[nodiscard]] Deparser& deparser() { return deparser_; }
  [[nodiscard]] const Deparser& deparser() const { return deparser_; }
  [[nodiscard]] Stage& stage(std::size_t i) { return stages_.at(i); }
  [[nodiscard]] const Stage& stage(std::size_t i) const {
    return stages_.at(i);
  }
  [[nodiscard]] std::size_t num_stages() const { return stages_.size(); }
  [[nodiscard]] const PipelineTiming& timing() const { return timing_; }

  /// Multicast group table (owned by the traffic manager / system-level
  /// module, section 3.3): group number -> replication port list.
  void SetMulticastGroup(u16 group, std::vector<u16> ports);
  [[nodiscard]] const std::vector<u16>* MulticastGroup(u16 group) const;

  // Per-module forwarded/dropped counters (control-plane statistics).
  [[nodiscard]] u64 forwarded(ModuleId m) const;
  [[nodiscard]] u64 dropped(ModuleId m) const;
  [[nodiscard]] u64 total_processed() const { return total_processed_; }
  [[nodiscard]] u64 config_writes_applied() const { return config_writes_; }

  /// Every module ID that has a nonzero forwarded or dropped counter,
  /// sorted ascending — the control plane's tenant inventory.
  [[nodiscard]] std::vector<ModuleId> ActiveModules() const;

 private:
  /// Sum of every configuration version counter an execution plan
  /// derives from — monotonic, so a stale plan can never alias a
  /// current stamp.
  [[nodiscard]] u64 ConfigVersionSum() const;
  /// The execution ladder, instantiated for Packet and ArenaPacket.  One
  /// fused pass classifies packets in arrival order (the filter's
  /// round-robin buffer-tag cursor and drop counters advance per packet;
  /// non-data packets finish outright and never break a run) and
  /// executes each module run the moment the tenant changes, while its
  /// packets are still cache-hot.  Eligible runs go through the
  /// burst-probed flow-verdict cache, the rest through the kernel for
  /// the run's shape or the interpreted plan.  Writes every packet's
  /// bytes and verdict / disposition / tier sidebands in place.
  template <typename PacketT>
  void RunBurst(PacketT* const* pkts, std::size_t n);
  /// Executes one module run (`pkts[idx[0..n)]`) through the specialized
  /// kernel selected for the run's shape, or through the interpreted
  /// RunOne loop when the shape has no registered kernel (wide/ternary).
  /// BeginRun must already have resolved the run contexts.
  template <typename PacketT>
  void RunSpan(PacketT* const* pkts, const u32* idx, std::size_t n,
               const ModuleExecPlan& plan, u64& fwd, u64& drop);
  /// Interpreted plan path for one packet: parse, ProcessRun per stage.
  template <typename PacketT>
  void RunOne(PacketT& pkt, const ModuleExecPlan& plan, u64& fwd, u64& drop);
  /// Flow-cache path for an eligible run, in kBurstLanes-sized chunks:
  /// gather every lane's key words, BurstProbe with slot prefetch-ahead,
  /// replay hit lanes, then resolve the compacted fallback lanes in lane
  /// order.  Chunk boundaries behave exactly like per-packet boundaries —
  /// fills from one chunk are visible to the next chunk's probes — so a
  /// burst of one is the sequential probe order.
  template <typename PacketT>
  void RunSpanCached(PacketT* const* pkts, const u32* idx, std::size_t n,
                     const ModuleExecPlan& plan, FlowRowState& frow,
                     FlowVerdictCache::RunAccounting& acct, ModuleId module,
                     u64& fwd, u64& drop);
  /// Resolves one fallback lane given its re-probed slot and hit flag:
  /// replay on a hit, fill through the recording kernel (or the
  /// interpreted BuildVerdict) on a miss, then the shared tail.
  template <typename PacketT>
  void ResolveCached(PacketT& pkt, Phv& phv, const ModuleExecPlan& plan,
                     FlowRowState& frow, FlowVerdictCache::RunAccounting& acct,
                     ModuleId module, FlowVerdict& v, bool hit,
                     const FlowVerdictCache::KeyWordArray& words, u64& fwd,
                     u64& drop);
  /// Shared tail of every tier: multicast resolution, planned deparse,
  /// forwarded/dropped accounting.
  template <typename PacketT>
  void Emit(PacketT& pkt, const Phv& phv, const DeparsePlan& deparse,
            u64& fwd, u64& drop);

  PipelineTiming timing_;
  PacketFilter filter_;
  Parser parser_;
  std::vector<Stage> stages_;
  Deparser deparser_;
  std::unordered_map<u16, std::vector<u16>> mcast_groups_;
  std::unordered_map<u16, u64> forwarded_;
  std::unordered_map<u16, u64> dropped_;
  u64 total_processed_ = 0;
  u64 config_writes_ = 0;

  /// Execution-plan cache, one slot per overlay row, stamped with
  /// ConfigVersionSum() at build time.
  struct CachedExecPlan {
    u64 built_at_version = ~u64{0};
    ModuleExecPlan plan;
  };
  std::vector<CachedExecPlan> exec_plans_ =
      std::vector<CachedExecPlan>(params::kOverlayTableDepth);

  /// Flow-verdict memoization (stamped like exec_plans_): end-to-end
  /// results for rows whose reachable actions are provably stateless.
  FlowVerdictCache flow_cache_;

  // Ladder scratch (RunBurst): per-stage run contexts, the data-packet
  // index list, and ProcessBatchInto's pointer array over the batch.
  // Never part of observable state.
  std::vector<Stage::ModuleRunContext> run_ctx_ =
      std::vector<Stage::ModuleRunContext>(params::kNumStages);
  std::vector<u32> data_idx_scratch_;
  std::vector<Packet*> batch_ptrs_;

  // Kernel dispatch (pipeline/kernels.hpp): the per-run step list and
  // the multi-slot snapshot scratch are reused across runs; per-shape
  // packet counters feed ShardStats/DumpDataplaneStats.
  KernelRun kernel_run_;
  Phv kernel_snapshot_scratch_;
  // Per-packet scratch PHV of the kernel and interpreted tiers:
  // Clear()ed and reused per packet — the ladder never emits a PHV.
  Phv phv_;
  // Burst-probe scratch, sized to one chunk: per-lane gathered key
  // words, probe verdict pointers, compacted fallback lane list, slot
  // indices, and the per-lane parsed PHVs that must survive from the
  // gather phase to the replay phase.
  static constexpr std::size_t kBurstLanes = 64;
  std::array<FlowVerdictCache::KeyWordArray, kBurstLanes> burst_words_{};
  std::array<const FlowVerdict*, kBurstLanes> burst_verdicts_{};
  std::array<u32, kBurstLanes> burst_fallback_{};
  std::array<u32, kBurstLanes> burst_slot_{};
  std::vector<Phv> burst_phv_ = std::vector<Phv>(kBurstLanes);
  RelaxedCounter kernel_pkts_;
  RelaxedCounter kernel_fallback_pkts_;
  RelaxedCounter kernel_record_fills_;
  std::array<RelaxedCounter, kKernelShapeCount> kernel_shape_pkts_;
};

}  // namespace menshen
