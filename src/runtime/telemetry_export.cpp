#include "runtime/telemetry_export.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/exec_tier.hpp"

namespace menshen {
namespace {

// Formats a double so it survives a text round-trip exactly (integers —
// the common case for counters — render without an exponent).
std::string FormatValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -9.0e15 && v <= 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string Idx(std::size_t i) { return std::to_string(i); }

/// Sample-list builder with a fluent label helper.
struct Builder {
  std::vector<MetricSample> out;

  void Add(std::string name,
           std::vector<std::pair<std::string, std::string>> labels,
           double value) {
    out.push_back({std::move(name), std::move(labels), value});
  }
  void Add(std::string name, double value) { Add(std::move(name), {}, value); }
};

void AddQuantiles(Builder& b, const std::string& family,
                  std::vector<std::pair<std::string, std::string>> labels,
                  const HistogramSnapshot& h) {
  auto with = [&labels](const char* q) {
    auto l = labels;
    l.emplace_back("quantile", q);
    return l;
  };
  b.Add(family + "_count", labels, static_cast<double>(h.count));
  b.Add(family + "_sum_ns", labels, static_cast<double>(h.sum));
  if (h.count == 0) return;
  b.Add(family + "_ns", with("0.5"), static_cast<double>(h.p50()));
  b.Add(family + "_ns", with("0.9"), static_cast<double>(h.p90()));
  b.Add(family + "_ns", with("0.99"), static_cast<double>(h.p99()));
  b.Add(family + "_ns", with("0.999"), static_cast<double>(h.p999()));
}

std::string RenderLabels(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string s = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) s += ",";
    s += labels[i].first;
    s += "=\"";
    s += labels[i].second;
    s += "\"";
  }
  s += "}";
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::vector<MetricSample> BuildMetricSamples(const DataplaneStats& s,
                                             const TelemetrySnapshot& tel) {
  Builder b;

  // --- globals -----------------------------------------------------------
  b.Add("menshen_packets_total", static_cast<double>(s.total_packets));
  b.Add("menshen_writes_broadcast_total",
        static_cast<double>(s.writes_broadcast));
  b.Add("menshen_config_epoch", static_cast<double>(s.epoch));
  b.Add("menshen_pending_writes", static_cast<double>(s.pending_writes));
  b.Add("menshen_migrations_total", static_cast<double>(s.migrations));
  b.Add("menshen_resizes_total", static_cast<double>(s.resizes));
  b.Add("menshen_workers", static_cast<double>(s.workers));
  b.Add("menshen_shards", static_cast<double>(s.shards.size()));

  // --- per-shard rows: one family per kShardMetrics line -------------------
  for (const ShardMetric& m : kShardMetrics)
    for (std::size_t i = 0; i < s.shards.size(); ++i)
      b.Add(m.family, {{"shard", Idx(i)}},
            static_cast<double>(s.shards[i].*m.field));

  // --- per live shard: latency, tiers, traces -----------------------------
  // Telemetry slots outlive a shrink; only live shards get rows, while
  // the *_all totals below merge every slot.
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const std::array<u64, kExecTierCount> tier_pkts = s.shards[i].TierPkts();
    for (u8 t = 1; t < kExecTierCount; ++t) {
      if (tier_pkts[t] == 0) continue;
      b.Add("menshen_exec_tier_pkts_total",
            {{"shard", Idx(i)}, {"tier", ExecTierName(t)}},
            static_cast<double>(tier_pkts[t]));
    }
    if (i >= tel.shards.size()) continue;
    const ShardTelemetry& st = tel.shards[i];
    AddQuantiles(b, "menshen_latency", {{"shard", Idx(i)}, {"path", "batched"}},
                 st.batched);
    AddQuantiles(b, "menshen_latency", {{"shard", Idx(i)}, {"path", "stream"}},
                 st.stream);
    if (st.trace_samples != 0)
      b.Add("menshen_trace_samples_total", {{"shard", Idx(i)}},
            static_cast<double>(st.trace_samples));
    if (st.trace_drops != 0)
      b.Add("menshen_trace_dropped_total", {{"shard", Idx(i)}},
            static_cast<double>(st.trace_drops));
  }
  AddQuantiles(b, "menshen_latency", {{"path", "batched_all"}},
               tel.batched_total);
  AddQuantiles(b, "menshen_latency", {{"path", "stream_all"}},
               tel.stream_total);

  // --- per-tenant --------------------------------------------------------
  for (const Dataplane::TenantCounts& t : s.tenants) {
    const std::vector<std::pair<std::string, std::string>> l = {
        {"tenant", Idx(t.tenant.value())}};
    b.Add("menshen_tenant_forwarded_total", l,
          static_cast<double>(t.forwarded));
    b.Add("menshen_tenant_dropped_total", l, static_cast<double>(t.dropped));
    b.Add("menshen_tenant_shard", l, static_cast<double>(t.shard));
    if (t.p99_ns != 0)
      b.Add("menshen_tenant_p99_ns", l, static_cast<double>(t.p99_ns));
  }
  for (const TenantLatency& t : tel.tenants) {
    AddQuantiles(b, "menshen_tenant_latency",
                 {{"tenant", Idx(t.tenant)}}, t.hist);
  }

  // --- match stages --------------------------------------------------------
  for (std::size_t i = 0; i < s.match_stages.size(); ++i) {
    const Dataplane::StageMatchCounters& ms = s.match_stages[i];
    const std::vector<std::pair<std::string, std::string>> l = {
        {"stage", Idx(i)}};
    b.Add("menshen_stage_cam_lookups_total", l,
          static_cast<double>(ms.cam_lookups));
    b.Add("menshen_stage_cam_hits_total", l, static_cast<double>(ms.cam_hits));
    b.Add("menshen_stage_tcam_lookups_total", l,
          static_cast<double>(ms.tcam_lookups));
    b.Add("menshen_stage_tcam_hits_total", l,
          static_cast<double>(ms.tcam_hits));
  }

  return b.out;
}

std::string RenderPrometheus(const DataplaneStats& s,
                             const TelemetrySnapshot& tel) {
  const std::vector<MetricSample> samples = BuildMetricSamples(s, tel);
  std::string out;
  out.reserve(samples.size() * 48);
  std::string last_family;
  for (const MetricSample& m : samples) {
    if (m.name != last_family) {
      out += "# TYPE ";
      out += m.name;
      // Quantile/depth/occupancy samples are point-in-time gauges; the
      // rest are monotonic counters.  The distinction is cosmetic for
      // our parser but keeps real scrapers happy.
      out += m.name.ends_with("_total") ? " counter\n" : " gauge\n";
      last_family = m.name;
    }
    out += m.name;
    out += RenderLabels(m.labels);
    out += " ";
    out += FormatValue(m.value);
    out += "\n";
  }
  return out;
}

std::string RenderJson(const DataplaneStats& s, const TelemetrySnapshot& tel) {
  const std::vector<MetricSample> samples = BuildMetricSamples(s, tel);
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& m = samples[i];
    if (i != 0) out += ",";
    out += "\n  {\"name\":\"";
    out += JsonEscape(m.name);
    out += "\",\"labels\":{";
    for (std::size_t j = 0; j < m.labels.size(); ++j) {
      if (j != 0) out += ",";
      out += "\"";
      out += JsonEscape(m.labels[j].first);
      out += "\":\"";
      out += JsonEscape(m.labels[j].second);
      out += "\"";
    }
    out += "},\"value\":";
    out += FormatValue(m.value);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::vector<MetricSample> ParsePrometheus(const std::string& text) {
  std::vector<MetricSample> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;

    MetricSample m;
    std::size_t i = line.find_first_of("{ ");
    if (i == std::string::npos) continue;
    m.name = line.substr(0, i);
    if (line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) continue;
      std::size_t p = i + 1;
      while (p < close) {
        const std::size_t eq = line.find('=', p);
        if (eq == std::string::npos || eq > close) break;
        const std::string key = line.substr(p, eq - p);
        if (eq + 1 >= close || line[eq + 1] != '"') break;
        const std::size_t endq = line.find('"', eq + 2);
        if (endq == std::string::npos || endq > close) break;
        m.labels.emplace_back(key, line.substr(eq + 2, endq - (eq + 2)));
        p = endq + 1;
        if (p < close && line[p] == ',') ++p;
      }
      i = close + 1;
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) continue;
    m.value = std::strtod(line.c_str() + i, nullptr);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace menshen
