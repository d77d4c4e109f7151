// Control-plane statistics and configuration introspection.
//
// The software-to-hardware interface supports "gathering statistics"
// (Figure 6); this module is that read side: per-module counters
// aggregated across the pipeline, plus a human-readable dump of the
// configuration state a module owns — what an operator's `show module`
// command would print.
#pragma once

#include <string>
#include <vector>

#include "common/exec_tier.hpp"
#include "compiler/allocation.hpp"
#include "dataplane/dataplane.hpp"
#include "pipeline/pipeline.hpp"

namespace menshen {

struct ModuleStats {
  ModuleId module;
  u64 forwarded = 0;
  u64 dropped = 0;
  /// Valid exact-match entries the module owns, per stage.
  std::vector<std::size_t> cam_entries;
  /// Stateful segment words allotted, per stage (from the segment table).
  std::vector<std::size_t> segment_words;
  /// Out-of-range stateful accesses the hardware squashed, summed over
  /// stages — a nonzero value means the module (or traffic spoofing its
  /// VID) probed beyond its segment.
  u64 stateful_violations = 0;
};

/// Aggregates hardware counters for one module.
[[nodiscard]] ModuleStats CollectModuleStats(const Pipeline& pipeline,
                                             ModuleId module);

/// Renders the configuration a module currently owns: overlay rows
/// (parser/deparser action counts, key extractor kind, mask popcount,
/// segment), and match-entry occupancy per stage.
[[nodiscard]] std::string DumpModuleConfig(const Pipeline& pipeline,
                                           ModuleId module);

/// Renders pipeline-global occupancy: per stage, how many CAM rows each
/// module holds — the operator's capacity view.
[[nodiscard]] std::string DumpPipelineOccupancy(const Pipeline& pipeline);

// --- Sharded dataplane statistics ---------------------------------------------

/// One shard replica's traffic totals.
struct ShardStats {
  std::size_t shard = 0;
  u64 batches = 0;
  u64 packets = 0;
  u64 forwarded = 0;
  u64 dropped = 0;
  u64 filtered = 0;
  /// Ingress-ring occupancy (sub-batches waiting) at snapshot time and
  /// cumulative worker busy time — the controller's per-shard
  /// utilisation signals (groundwork for per-shard-utilisation scaling).
  u64 queue_depth = 0;
  u64 busy_ns = 0;
  /// Flow-verdict cache counters for this replica (hits, misses,
  /// evictions and admission rejects are cumulative; occupancy is the
  /// instantaneous valid-slot count).
  u64 flow_cache_hits = 0;
  u64 flow_cache_misses = 0;
  u64 flow_cache_evictions = 0;
  u64 flow_cache_rejects = 0;
  u64 flow_cache_occupancy = 0;
  /// Specialized-kernel dispatch counters for this replica
  /// (pipeline/kernels.hpp): straight-line-kernel packets, interpreted
  /// fallback packets (wide/ternary rows), flow-cache misses resolved by
  /// kernel steps.
  u64 kernel_pkts = 0;
  u64 kernel_fallback_pkts = 0;
  u64 kernel_record_fills = 0;
  /// Streaming (run-to-completion) path: bursts and packets executed,
  /// packets emitted to this shard's egress queue, egress occupancy at
  /// snapshot time, and producer pushes that found the ring full.
  u64 stream_bursts = 0;
  u64 stream_pkts = 0;
  u64 egress_pkts = 0;
  u64 egress_depth = 0;
  u64 producer_stalls = 0;

  [[nodiscard]] double flow_cache_hit_ratio() const {
    const u64 probes = flow_cache_hits + flow_cache_misses;
    return probes == 0
               ? 0.0
               : static_cast<double>(flow_cache_hits) /
                     static_cast<double>(probes);
  }
};

/// One tenant's totals plus the shard its traffic is steered to, and
/// the execution-ladder facts of its compiled row: why (if at all) the
/// flow-verdict cache is blocked for it, and which tier its module runs
/// take.
struct TenantStats {
  ModuleId tenant;
  std::size_t shard = 0;
  u64 forwarded = 0;
  u64 dropped = 0;
  FlowCacheBlocker flow_blocker = FlowCacheBlocker::kNone;
  /// The top tier of the tenant's row: the flow cache for a cacheable
  /// row (its misses run the compiled steps), the compiled steps, or the
  /// interpreted plan for a row with a wide or ternary probe.
  ExecTier tier = ExecTier::kNone;
  /// p99 packet latency (ns) from the telemetry histograms, merged
  /// across shards and both paths; 0 when the tenant has no samples
  /// (or histograms are disabled).  The adversarial-isolation suite's
  /// measured bound.
  u64 p99_ns = 0;
};

/// One pipeline stage's match-path counters, aggregated across shard
/// replicas.  Lookups count CAM probes (exact: indexed or one-word;
/// ternary: narrowed scan); the hit ratio is the operator's view of how
/// much traffic actually matches per stage.
struct StageMatchStats {
  std::size_t stage = 0;
  u64 cam_lookups = 0;
  u64 cam_hits = 0;
  u64 tcam_lookups = 0;
  u64 tcam_hits = 0;

  [[nodiscard]] double cam_hit_ratio() const {
    return cam_lookups == 0
               ? 0.0
               : static_cast<double>(cam_hits) /
                     static_cast<double>(cam_lookups);
  }
  [[nodiscard]] double tcam_hit_ratio() const {
    return tcam_lookups == 0
               ? 0.0
               : static_cast<double>(tcam_hits) /
                     static_cast<double>(tcam_lookups);
  }
};

struct DataplaneStats {
  std::vector<ShardStats> shards;
  std::vector<TenantStats> tenants;  // sorted by tenant ID
  /// Per-stage match-path counters, aggregated across shards.
  std::vector<StageMatchStats> match_stages;
  u64 total_packets = 0;
  u64 writes_broadcast = 0;
  /// Committed configuration epoch (bumped by Dataplane::CommitEpoch).
  u64 epoch = 0;
  /// Configuration writes staged but not yet committed.
  std::size_t pending_writes = 0;
  /// Tenant migrations applied (steering changes at epoch boundaries).
  u64 migrations = 0;
  /// Replica-set resizes applied (epoch-boundary grow/shrink).
  u64 resizes = 0;
  /// Worker threads running shard replicas (0 = sequential engine).
  std::size_t workers = 0;
  /// True when this snapshot was taken through the relaxed (non-quiescing)
  /// path: counters are monotonic and at most one in-flight sub-batch
  /// behind the exact totals.
  bool relaxed = false;
};

/// Aggregates per-shard and per-tenant throughput/drop counters.
/// Quiesces the engine (drains in-flight work) so totals are exact and
/// batch-consistent — the operator's audit view.
[[nodiscard]] DataplaneStats CollectDataplaneStats(const Dataplane& dp);

/// Relaxed variant for the periodic control-plane tick: reads only the
/// dataplane's monotonic relaxed counters, so collecting it never stalls
/// ingress.  Shard/tenant totals may each lag by at most one in-flight
/// sub-batch (and `forwarded+dropped+filtered` may momentarily trail
/// `packets` within a shard row); they converge to the exact values as
/// soon as the workers go idle.  Good enough for load tracking
/// (runtime/controller, Rebalancer EWMA) — use CollectDataplaneStats for
/// exact audits.
[[nodiscard]] DataplaneStats CollectDataplaneStatsRelaxed(const Dataplane& dp);

/// Renders the dataplane counters — the operator's `show dataplane` view.
[[nodiscard]] std::string DumpDataplaneStats(const Dataplane& dp);

}  // namespace menshen
