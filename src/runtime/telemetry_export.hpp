// Machine-readable metrics export: DataplaneStats + telemetry
// histograms + trace summaries rendered as Prometheus text exposition
// and as JSON, plus a parser for the Prometheus text (the round-trip
// unit: export -> parse -> compare; also what a scrape test harness
// uses to assert on individual samples).
//
// One sample list (BuildMetricSamples) feeds both renderers, so the
// two formats can never drift apart.  The per-shard counter families
// come from kShardMetrics (runtime/stats.hpp), the table
// DumpDataplaneStats' shard table reads too.  Metric names are stable
// API — the README "Observability" section lists every family.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "runtime/stats.hpp"
#include "runtime/telemetry.hpp"

namespace menshen {

/// One exported sample: flat name, ordered label pairs, double value
/// (u64 counters above 2^53 lose precision — acceptable for metrics).
struct MetricSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;

  bool operator==(const MetricSample&) const = default;
};

/// The canonical sample list both renderers serialize.
[[nodiscard]] std::vector<MetricSample> BuildMetricSamples(
    const DataplaneStats& s, const TelemetrySnapshot& tel);

/// Prometheus text exposition format (one `name{labels} value` line per
/// sample, `# TYPE` comments per family).
[[nodiscard]] std::string RenderPrometheus(const DataplaneStats& s,
                                           const TelemetrySnapshot& tel);

/// JSON: `{"metrics":[{"name":...,"labels":{...},"value":...},...]}`.
[[nodiscard]] std::string RenderJson(const DataplaneStats& s,
                                     const TelemetrySnapshot& tel);

/// Parses Prometheus text (as produced by RenderPrometheus: comments
/// skipped, no escaped label values) back into samples.  Malformed
/// lines are skipped.
[[nodiscard]] std::vector<MetricSample> ParsePrometheus(
    const std::string& text);

}  // namespace menshen
