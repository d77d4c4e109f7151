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

/// The exact dataplane view: every row family from one quiesce
/// (Dataplane::QuiescedStats) plus the control-plane counters.
struct DataplaneStats : Dataplane::QuiescedStats {
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
};

/// One per-shard counter, declared once: its Prometheus family, its
/// column in DumpDataplaneStats' shard table, and the ShardCounters
/// member both read.
struct ShardMetric {
  const char* family;
  const char* column;
  u64 Dataplane::ShardCounters::*field;
};

/// Every exported per-shard counter, in export and column order.
/// Adding a shard counter is one ShardCounters field plus one line here.
/// The derived flow_cache_burst_* fields have no line: their values are
/// the hits and misses lines.
inline constexpr ShardMetric kShardMetrics[] = {
    {"menshen_shard_packets_total", "packets",
     &Dataplane::ShardCounters::packets},
    {"menshen_shard_forwarded_total", "fwd",
     &Dataplane::ShardCounters::forwarded},
    {"menshen_shard_dropped_total", "drop", &Dataplane::ShardCounters::dropped},
    {"menshen_shard_filtered_total", "filt",
     &Dataplane::ShardCounters::filtered},
    {"menshen_shard_batches_total", "batches",
     &Dataplane::ShardCounters::batches},
    {"menshen_shard_queue_depth", "queue",
     &Dataplane::ShardCounters::queue_depth},
    {"menshen_shard_busy_ns_total", "busy_ns",
     &Dataplane::ShardCounters::busy_ns},
    {"menshen_flow_cache_hits_total", "fc_hit",
     &Dataplane::ShardCounters::flow_cache_hits},
    {"menshen_flow_cache_misses_total", "fc_miss",
     &Dataplane::ShardCounters::flow_cache_misses},
    {"menshen_flow_cache_evictions_total", "fc_ev",
     &Dataplane::ShardCounters::flow_cache_evictions},
    {"menshen_flow_cache_rejects_total", "fc_rej",
     &Dataplane::ShardCounters::flow_cache_rejects},
    {"menshen_flow_cache_occupancy", "fc_occ",
     &Dataplane::ShardCounters::flow_cache_occupancy},
    {"menshen_kernel_pkts_total", "kernel",
     &Dataplane::ShardCounters::kernel_pkts},
    {"menshen_kernel_fallback_pkts_total", "interp",
     &Dataplane::ShardCounters::kernel_fallback_pkts},
    {"menshen_kernel_record_fills_total", "fills",
     &Dataplane::ShardCounters::kernel_record_fills},
    {"menshen_stream_bursts_total", "sbursts",
     &Dataplane::ShardCounters::stream_bursts},
    {"menshen_stream_pkts_total", "spkts",
     &Dataplane::ShardCounters::stream_pkts},
    {"menshen_egress_pkts_total", "epkts",
     &Dataplane::ShardCounters::egress_pkts},
    {"menshen_egress_depth", "eq", &Dataplane::ShardCounters::egress_depth},
    {"menshen_producer_stalls_total", "stalls",
     &Dataplane::ShardCounters::producer_stalls},
};

/// Aggregates per-shard, per-tenant and per-stage counters under one
/// quiesce (drains in-flight work), so totals are exact and
/// batch-consistent — the operator's audit view.  The controller and the
/// rebalancer read the relaxed accessors instead
/// (Dataplane::CountersSnapshotRelaxed, total_packets_relaxed,
/// forwarded_relaxed), which never stall ingress.
[[nodiscard]] DataplaneStats CollectDataplaneStats(const Dataplane& dp);

/// Renders the dataplane counters — the operator's `show dataplane` view.
/// Per-shard lines name live shards only.
[[nodiscard]] std::string DumpDataplaneStats(const Dataplane& dp);

}  // namespace menshen
