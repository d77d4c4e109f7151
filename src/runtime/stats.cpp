#include "runtime/stats.hpp"

#include <cstdio>
#include <map>

namespace menshen {

ModuleStats CollectModuleStats(const Pipeline& pipeline, ModuleId module) {
  ModuleStats s;
  s.module = module;
  s.forwarded = pipeline.forwarded(module);
  s.dropped = pipeline.dropped(module);
  for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
    const Stage& stage = pipeline.stage(i);
    s.cam_entries.push_back(stage.cam().CountForModule(module));
    s.segment_words.push_back(
        stage.stateful().segment_table().At(module.value() %
                                            params::kOverlayTableDepth)
            .range);
    s.stateful_violations += stage.stateful().violations(module);
  }
  return s;
}

std::string DumpModuleConfig(const Pipeline& pipeline, ModuleId module) {
  const std::size_t row = module.value() % params::kOverlayTableDepth;
  std::string out = "module " + std::to_string(module.value()) + ":\n";

  out += "  parser actions: " +
         std::to_string(pipeline.parser().table().At(row).valid_count()) +
         ", deparser actions: " +
         std::to_string(pipeline.deparser().table().At(row).valid_count()) +
         "\n";

  for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
    const Stage& stage = pipeline.stage(i);
    const KeyExtractorEntry& kx = stage.key_extractor().At(row);
    const KeyMaskEntry& mask = stage.key_mask().At(row);
    const SegmentEntry seg = stage.stateful().segment_table().At(row);
    out += "  stage " + std::to_string(i) + ": ";
    if (mask.mask.is_zero()) {
      out += "no table\n";
      continue;
    }
    out += kx.ternary ? "ternary" : "exact";
    out += " match, key bits " + std::to_string(mask.mask.popcount());
    if (kx.cmp_op != CmpOp::kNone) out += " (+predicate)";
    out += ", entries " + std::to_string(stage.cam().CountForModule(module));
    if (seg.range != 0)
      out += ", segment [" + std::to_string(seg.offset) + ", " +
             std::to_string(seg.offset + seg.range) + ")";
    out += "\n";
  }
  return out;
}

std::string DumpPipelineOccupancy(const Pipeline& pipeline) {
  std::string out = "pipeline occupancy (valid CAM rows per module):\n";
  for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
    const Stage& stage = pipeline.stage(i);
    std::map<u16, std::size_t> per_module;
    std::size_t valid = 0;
    for (std::size_t a = 0; a < stage.cam().depth(); ++a) {
      const CamEntry& e = stage.cam().At(a);
      if (!e.valid) continue;
      ++valid;
      ++per_module[e.module.value()];
    }
    out += "  stage " + std::to_string(i) + ": " + std::to_string(valid) +
           "/" + std::to_string(stage.cam().depth());
    for (const auto& [id, n] : per_module)
      out += "  m" + std::to_string(id) + "=" + std::to_string(n);
    out += "\n";
  }
  return out;
}

namespace {

void CollectControlCounters(const Dataplane& dp, DataplaneStats& s) {
  s.writes_broadcast = dp.writes_broadcast();
  s.epoch = dp.epoch();
  s.pending_writes = dp.pending_writes();
  s.migrations = dp.migrations();
  s.resizes = dp.resizes();
  s.workers = dp.num_workers();
}

void FillShardRows(const std::vector<Dataplane::ShardCounters>& counters,
                   DataplaneStats& s) {
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const Dataplane::ShardCounters& c = counters[i];
    ShardStats row;
    row.shard = i;
    row.batches = c.batches;
    row.packets = c.packets;
    row.forwarded = c.forwarded;
    row.dropped = c.dropped;
    row.filtered = c.filtered;
    row.queue_depth = c.queue_depth;
    row.busy_ns = c.busy_ns;
    row.flow_cache_hits = c.flow_cache_hits;
    row.flow_cache_misses = c.flow_cache_misses;
    row.flow_cache_evictions = c.flow_cache_evictions;
    row.flow_cache_rejects = c.flow_cache_rejects;
    row.flow_cache_occupancy = c.flow_cache_occupancy;
    row.kernel_pkts = c.kernel_pkts;
    row.kernel_fallback_pkts = c.kernel_fallback_pkts;
    row.kernel_record_fills = c.kernel_record_fills;
    row.stream_bursts = c.stream_bursts;
    row.stream_pkts = c.stream_pkts;
    row.egress_pkts = c.egress_pkts;
    row.egress_depth = c.egress_depth;
    row.producer_stalls = c.producer_stalls;
    s.shards.push_back(row);
  }
}

/// Stamps each tenant row with its row's execution-ladder facts
/// (flow-cache blocker, top tier).
void DescribeTenantRows(const Dataplane& dp, DataplaneStats& s) {
  for (TenantStats& t : s.tenants) {
    const ModuleExecPlan plan = dp.DescribeTenantRow(t.tenant);
    t.flow_blocker = plan.flow_blocker;
    t.tier = plan.flow_cacheable()           ? ExecTier::kFlowCacheHit
             : plan.kernel.wide_or_ternary ? ExecTier::kInterpreted
                                           : ExecTier::kKernel;
    t.p99_ns = dp.telemetry().TenantP99(t.tenant.value());
  }
}

void FillMatchRows(const std::vector<Dataplane::StageMatchCounters>& match,
                   DataplaneStats& s) {
  for (std::size_t i = 0; i < match.size(); ++i)
    s.match_stages.push_back(StageMatchStats{i, match[i].cam_lookups,
                                             match[i].cam_hits,
                                             match[i].tcam_lookups,
                                             match[i].tcam_hits});
}

}  // namespace

DataplaneStats CollectDataplaneStats(const Dataplane& dp) {
  DataplaneStats s;
  CollectControlCounters(dp, s);
  // One quiesce for the whole view: shard rows, tenant totals, match
  // counters and the packet total come from the same drained instant
  // (the total is not the sum of the rows — replicas destroyed by a
  // shrink retire their counts into the monotonic dataplane total).
  const Dataplane::QuiescedStats q = dp.QuiescedStatsSnapshot();
  FillShardRows(q.shards, s);
  FillMatchRows(q.match_stages, s);
  s.total_packets = q.total_packets;
  for (const Dataplane::TenantCounts& t : q.tenants) {
    TenantStats row;
    row.tenant = t.tenant;
    row.shard = t.shard;
    row.forwarded = t.forwarded;
    row.dropped = t.dropped;
    s.tenants.push_back(row);
  }
  DescribeTenantRows(dp, s);
  return s;
}

DataplaneStats CollectDataplaneStatsRelaxed(const Dataplane& dp) {
  DataplaneStats s;
  s.relaxed = true;
  CollectControlCounters(dp, s);
  FillShardRows(dp.CountersSnapshotRelaxed(), s);
  FillMatchRows(dp.MatchCountersSnapshotRelaxed(), s);
  s.total_packets = dp.total_packets_relaxed();
  for (const ModuleId tenant : dp.ActiveTenantsRelaxed()) {
    TenantStats row;
    row.tenant = tenant;
    row.shard = dp.ShardFor(tenant);
    row.forwarded = dp.forwarded_relaxed(tenant);
    row.dropped = dp.dropped_relaxed(tenant);
    s.tenants.push_back(row);
  }
  DescribeTenantRows(dp, s);
  return s;
}

std::string DumpDataplaneStats(const Dataplane& dp) {
  const DataplaneStats s = CollectDataplaneStats(dp);
  std::string out = "dataplane: " + std::to_string(dp.num_shards()) +
                    " shard(s) on " + std::to_string(s.workers) +
                    " worker thread(s), " + std::to_string(s.total_packets) +
                    " packets, " + std::to_string(s.writes_broadcast) +
                    " config writes broadcast\n";
  out += "  config epoch " + std::to_string(s.epoch) + " (" +
         std::to_string(s.pending_writes) + " staged), " +
         std::to_string(s.migrations) + " tenant migration(s), " +
         std::to_string(s.resizes) + " resize(s)\n";
  // One aligned per-shard table covering every counter ShardStats
  // carries: traffic, queueing, flow cache, kernels, streaming.
  {
    char line[400];
    std::snprintf(line, sizeof line,
                  "  %5s %9s %9s %8s %6s %8s %5s %9s  %9s %9s %6s %6s %6s  "
                  "%9s %8s %7s  %8s %9s %9s %5s %6s\n",
                  "shard", "packets", "fwd", "drop", "filt", "batches", "queue",
                  "busy_us", "fc_hit", "fc_miss", "fc_ev", "fc_rej", "fc_occ",
                  "kernel", "interp", "fills", "sbursts", "spkts", "epkts",
                  "eq", "stalls");
    out += line;
    for (const ShardStats& sh : s.shards) {
      std::snprintf(
          line, sizeof line,
          "  %5zu %9llu %9llu %8llu %6llu %8llu %5llu %9llu  %9llu %9llu "
          "%6llu %6llu %6llu  %9llu %8llu %7llu  %8llu %9llu %9llu %5llu "
          "%6llu\n",
          sh.shard, static_cast<unsigned long long>(sh.packets),
          static_cast<unsigned long long>(sh.forwarded),
          static_cast<unsigned long long>(sh.dropped),
          static_cast<unsigned long long>(sh.filtered),
          static_cast<unsigned long long>(sh.batches),
          static_cast<unsigned long long>(sh.queue_depth),
          static_cast<unsigned long long>(sh.busy_ns / 1000),
          static_cast<unsigned long long>(sh.flow_cache_hits),
          static_cast<unsigned long long>(sh.flow_cache_misses),
          static_cast<unsigned long long>(sh.flow_cache_evictions),
          static_cast<unsigned long long>(sh.flow_cache_rejects),
          static_cast<unsigned long long>(sh.flow_cache_occupancy),
          static_cast<unsigned long long>(sh.kernel_pkts),
          static_cast<unsigned long long>(sh.kernel_fallback_pkts),
          static_cast<unsigned long long>(sh.kernel_record_fills),
          static_cast<unsigned long long>(sh.stream_bursts),
          static_cast<unsigned long long>(sh.stream_pkts),
          static_cast<unsigned long long>(sh.egress_pkts),
          static_cast<unsigned long long>(sh.egress_depth),
          static_cast<unsigned long long>(sh.producer_stalls));
      out += line;
    }
  }
  // Latency quantiles and execution-tier distribution from the
  // telemetry histograms (runtime/telemetry) — skipped when empty.
  {
    const TelemetrySnapshot tel = dp.telemetry().Snapshot();
    char line[240];
    for (std::size_t i = 0; i < tel.shards.size(); ++i) {
      const ShardTelemetry& st = tel.shards[i];
      for (const auto* h : {&st.batched, &st.stream}) {
        if (h->count == 0) continue;
        std::snprintf(line, sizeof line,
                      "  shard %zu latency %s: n=%llu p50=%llu p90=%llu "
                      "p99=%llu p999=%llu ns\n",
                      i, h == &st.batched ? "batched" : "stream",
                      static_cast<unsigned long long>(h->count),
                      static_cast<unsigned long long>(h->p50()),
                      static_cast<unsigned long long>(h->p90()),
                      static_cast<unsigned long long>(h->p99()),
                      static_cast<unsigned long long>(h->p999()));
        out += line;
      }
      std::string tiers;
      for (int t = 1; t < kExecTierCount; ++t)
        if (st.tier_pkts[static_cast<std::size_t>(t)] != 0)
          tiers += std::string("  ") + ExecTierName(static_cast<u8>(t)) + "=" +
                   std::to_string(st.tier_pkts[static_cast<std::size_t>(t)]);
      if (!tiers.empty())
        out += "  shard " + std::to_string(i) + " tiers:" + tiers + "\n";
      if (st.trace_samples + st.trace_drops != 0)
        out += "  shard " + std::to_string(i) + " traces: " +
               std::to_string(st.trace_samples) + " sampled, " +
               std::to_string(st.trace_drops) + " dropped\n";
    }
  }
  // Per-module flow-cache blocker histogram: how many tenants sit at
  // each rung of the execution ladder, and why the cache is blocked for
  // the ones it is.
  {
    std::map<const char*, std::size_t> blockers;
    for (const TenantStats& t : s.tenants)
      ++blockers[FlowCacheBlockerName(t.flow_blocker)];
    if (!blockers.empty()) {
      out += "  flow blockers:";
      for (const auto& [name, n] : blockers)
        out += std::string("  ") + name + "=" + std::to_string(n);
      out += "\n";
    }
  }
  for (const TenantStats& t : s.tenants) {
    out += "  tenant " + std::to_string(t.tenant.value()) + " @ shard " +
           std::to_string(t.shard) + ": fwd " + std::to_string(t.forwarded) +
           ", drop " + std::to_string(t.dropped) + " [blocker " +
           FlowCacheBlockerName(t.flow_blocker) + ", tier " +
           ExecTierName(static_cast<u8>(t.tier)) + "]";
    if (t.p99_ns != 0) out += ", p99 " + std::to_string(t.p99_ns) + " ns";
    out += "\n";
  }
  for (const StageMatchStats& m : s.match_stages) {
    if (m.cam_lookups == 0 && m.tcam_lookups == 0) continue;
    char line[160];
    std::snprintf(line, sizeof line,
                  "  stage %zu match: cam %llu/%llu (%.1f%%), tcam %llu/%llu"
                  " (%.1f%%)\n",
                  m.stage, static_cast<unsigned long long>(m.cam_hits),
                  static_cast<unsigned long long>(m.cam_lookups),
                  100.0 * m.cam_hit_ratio(),
                  static_cast<unsigned long long>(m.tcam_hits),
                  static_cast<unsigned long long>(m.tcam_lookups),
                  100.0 * m.tcam_hit_ratio());
    out += line;
  }
  return out;
}

}  // namespace menshen
