#include "runtime/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/exec_tier.hpp"

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

DataplaneStats CollectDataplaneStats(const Dataplane& dp) {
  DataplaneStats s{dp.QuiescedStatsSnapshot()};
  // Each tenant row's execution-ladder facts, stamped after the quiesce:
  // compiling the rows' plans pins the shard set but never drains.
  for (Dataplane::TenantCounts& t : s.tenants) {
    const ModuleExecPlan plan = dp.DescribeTenantRow(t.tenant);
    t.flow_blocker = plan.flow_blocker;
    t.tier = plan.flow_cacheable()           ? ExecTier::kFlowCacheHit
             : plan.kernel.wide_or_ternary ? ExecTier::kInterpreted
                                           : ExecTier::kKernel;
    t.p99_ns = dp.telemetry().TenantP99(t.tenant.value());
  }
  s.writes_broadcast = dp.writes_broadcast();
  s.epoch = dp.epoch();
  s.pending_writes = dp.pending_writes();
  s.migrations = dp.migrations();
  s.resizes = dp.resizes();
  s.workers = dp.num_workers();
  return s;
}

namespace {

/// Appends `text` right-aligned in `column`'s cell: one separating
/// space, then at least 8 characters and never narrower than the header.
void AppendCell(std::string& out, const char* column, const std::string& text) {
  const std::size_t width = std::max<std::size_t>(std::strlen(column), 8);
  out.append(1 + width - std::min(width, text.size()), ' ');
  out += text;
}

}  // namespace

std::string DumpDataplaneStats(const Dataplane& dp) {
  const DataplaneStats s = CollectDataplaneStats(dp);
  std::string out = "dataplane: " + std::to_string(s.shards.size()) +
                    " shard(s) on " + std::to_string(s.workers) +
                    " worker thread(s), " + std::to_string(s.total_packets) +
                    " packets, " + std::to_string(s.writes_broadcast) +
                    " config writes broadcast\n";
  out += "  config epoch " + std::to_string(s.epoch) + " (" +
         std::to_string(s.pending_writes) + " staged), " +
         std::to_string(s.migrations) + " tenant migration(s), " +
         std::to_string(s.resizes) + " resize(s)\n";
  // One aligned per-shard table, one column per kShardMetrics line.
  char line[240];
  out += "  shard";
  for (const ShardMetric& m : kShardMetrics) AppendCell(out, m.column, m.column);
  out += "\n";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    std::snprintf(line, sizeof line, "  %5zu", i);
    out += line;
    for (const ShardMetric& m : kShardMetrics)
      AppendCell(out, m.column, std::to_string(s.shards[i].*m.field));
    out += "\n";
  }
  // Per live shard: latency quantiles from the telemetry histograms, the
  // execution-tier split of the shard row, and trace-ring accounting —
  // each line skipped when empty.
  const TelemetrySnapshot tel = dp.telemetry().Snapshot();
  static const ShardTelemetry kNoSamples;
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardTelemetry& st = i < tel.shards.size() ? tel.shards[i] : kNoSamples;
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
    const std::array<u64, kExecTierCount> tier_pkts = s.shards[i].TierPkts();
    std::string tiers;
    for (u8 t = 1; t < kExecTierCount; ++t)
      if (tier_pkts[t] != 0)
        tiers += std::string("  ") + ExecTierName(t) + "=" +
                 std::to_string(tier_pkts[t]);
    if (!tiers.empty())
      out += "  shard " + std::to_string(i) + " tiers:" + tiers + "\n";
    if (st.trace_samples + st.trace_drops != 0)
      out += "  shard " + std::to_string(i) + " traces: " +
             std::to_string(st.trace_samples) + " sampled, " +
             std::to_string(st.trace_drops) + " dropped\n";
  }
  // Per-module flow-cache blocker histogram: how many tenants sit at
  // each rung of the execution ladder, and why the cache is blocked for
  // the ones it is.
  {
    std::map<const char*, std::size_t> blockers;
    for (const Dataplane::TenantCounts& t : s.tenants)
      ++blockers[FlowCacheBlockerName(t.flow_blocker)];
    if (!blockers.empty()) {
      out += "  flow blockers:";
      for (const auto& [name, n] : blockers)
        out += std::string("  ") + name + "=" + std::to_string(n);
      out += "\n";
    }
  }
  for (const Dataplane::TenantCounts& t : s.tenants) {
    out += "  tenant " + std::to_string(t.tenant.value()) + " @ shard " +
           std::to_string(t.shard) + ": fwd " + std::to_string(t.forwarded) +
           ", drop " + std::to_string(t.dropped) + " [blocker " +
           FlowCacheBlockerName(t.flow_blocker) + ", tier " +
           ExecTierName(static_cast<u8>(t.tier)) + "]";
    if (t.p99_ns != 0) out += ", p99 " + std::to_string(t.p99_ns) + " ns";
    out += "\n";
  }
  for (std::size_t i = 0; i < s.match_stages.size(); ++i) {
    const Dataplane::StageMatchCounters& m = s.match_stages[i];
    if (m.cam_lookups == 0 && m.tcam_lookups == 0) continue;
    std::snprintf(line, sizeof line,
                  "  stage %zu match: cam %llu/%llu (%.1f%%), tcam %llu/%llu"
                  " (%.1f%%)\n",
                  i, static_cast<unsigned long long>(m.cam_hits),
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
