#include "runtime/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace menshen {

Controller::Controller(Dataplane& dp, ControllerConfig cfg)
    : dp_(dp), cfg_(cfg), rebalancer_(cfg.rebalancer) {
  // The first tick's delta should be "traffic since the controller
  // started", not "since the dataplane was born".
  last_total_packets_ = dp_.total_packets_relaxed();
}

Controller::~Controller() { Stop(); }

void Controller::Start() {
  // lifecycle_mutex_ serializes Start/Stop so thread_ is never assigned
  // while another thread joins it.
  std::lock_guard<std::mutex> lk(lifecycle_mutex_);
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] { RunLoop(); });
}

void Controller::Stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mutex_);
  running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> stop_lk(stop_mutex_);
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Controller::RunLoop() {
  while (running_.load(std::memory_order_acquire)) {
    TickOnce();
    std::unique_lock<std::mutex> lk(stop_mutex_);
    stop_cv_.wait_for(lk, cfg_.tick_interval, [this] {
      return !running_.load(std::memory_order_acquire);
    });
  }
}

double Controller::load_ewma() const {
  std::lock_guard<std::mutex> lk(tick_mutex_);
  return load_ewma_;
}

Controller::TickReport Controller::TickOnce() {
  std::lock_guard<std::mutex> lk(tick_mutex_);
  TickReport report;
  report.tick = ticks_.fetch_add(1, std::memory_order_acq_rel) + 1;

  // 1. Observe offered load through the relaxed stats path — no quiesce,
  //    ingress never stalls for the tick.
  const u64 total = dp_.total_packets_relaxed();
  report.offered_packets = total - std::min(total, last_total_packets_);
  last_total_packets_ = total;
  const double delta = static_cast<double>(report.offered_packets);
  // EWMA with the same seeding rule as the rebalancer: the first
  // observation is taken at face value.
  load_ewma_ = report.tick == 1
                   ? delta
                   : 0.5 * delta + 0.5 * load_ewma_;
  report.load_ewma = load_ewma_;

  // 2. Scale the replica set so num_shards tracks offered load, with a
  //    watermark band + cooldown so the count never flaps.
  report.shards_before = dp_.num_shards();
  report.shards_after = report.shards_before;
  if (cooldown_ > 0) --cooldown_;
  if (cfg_.enable_scaling && cooldown_ == 0) {
    const std::size_t hw = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    const std::size_t max_shards =
        cfg_.max_shards == 0 ? hw : cfg_.max_shards;
    const std::size_t min_shards = std::max<std::size_t>(1, cfg_.min_shards);
    const std::size_t cur = report.shards_before;
    const double target = cfg_.target_packets_per_shard;
    std::size_t desired = cur;
    if (load_ewma_ >
        target * static_cast<double>(cur) * cfg_.scale_up_factor) {
      desired = static_cast<std::size_t>(std::ceil(load_ewma_ / target));
    } else if (cur > 1 &&
               load_ewma_ < target * static_cast<double>(cur - 1) *
                                cfg_.scale_down_factor) {
      desired = static_cast<std::size_t>(
          std::max(1.0, std::ceil(load_ewma_ / target)));
    }
    desired = std::clamp(desired, min_shards, max_shards);
    if (desired != cur) {
      dp_.ResizeShards(desired);  // quiesced, epoch-boundary resize
      report.shards_after = desired;
      if (desired > cur) {
        scale_ups_.fetch_add(1, std::memory_order_acq_rel);
      } else {
        scale_downs_.fetch_add(1, std::memory_order_acq_rel);
      }
      cooldown_ = cfg_.scale_cooldown_ticks;
    }
  }

  // 3. Per-shard utilisation observation (queue depth + busy time since
  //    the previous tick), through the relaxed counters — the operator's
  //    tick log line, and the skew signal the rebalancing round below
  //    keys its aggressiveness off.
  const std::vector<Dataplane::ShardCounters> rows =
      dp_.CountersSnapshotRelaxed();
  last_busy_ns_.resize(rows.size(), 0);
  report.shard_loads.reserve(rows.size());
  u64 stalls_total = 0;
  u64 busy_max = 0;
  u64 busy_sum = 0;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const Dataplane::ShardCounters& c = rows[s];
    const u64 busy = cfg_.shard_busy_ns ? cfg_.shard_busy_ns(c) : c.busy_ns;
    const u64 delta = busy - std::min(busy, last_busy_ns_[s]);
    last_busy_ns_[s] = busy;
    stalls_total += c.producer_stalls;
    busy_max = std::max(busy_max, delta);
    busy_sum += delta;
    report.shard_loads.push_back(ShardLoad{c, delta});
  }
  // Skew = max/mean of the per-shard busy-time deltas: 1.0 when the work
  // is spread evenly, num_shards when one shard does everything.
  if (busy_sum != 0 && !rows.empty()) {
    const double mean = static_cast<double>(busy_sum) /
                        static_cast<double>(rows.size());
    report.shard_skew = static_cast<double>(busy_max) / mean;
  }

  // 4. One rebalancing round (EWMA + hysteresis inside the policy),
  //    keyed off the skew just observed: a hot shard raises the round's
  //    move budget and suspends the dead band (see RebalancerConfig).  A
  //    round that plans nothing does not quiesce anything.
  if (cfg_.enable_rebalancing) {
    report.moves = rebalancer_.Rebalance(dp_, report.shard_skew).size();
    if (report.moves != 0)
      moves_applied_.fetch_add(report.moves, std::memory_order_acq_rel);
  }

  // 5. Adaptive ingress queue depth: widen when producers stalled this
  //    tick, narrow after a run of stall-free ticks.  Both moves go
  //    through the quiesced SetIngressQueueDepth, so they land at epoch
  //    boundaries like every other reconfiguration.
  report.producer_stalls = stalls_total - std::min(stalls_total,
                                                   last_producer_stalls_);
  last_producer_stalls_ = stalls_total;
  report.queue_depth = dp_.ingress_queue_depth();
  if (cfg_.enable_adaptive_queue_depth) {
    const std::size_t cur = report.queue_depth;
    if (report.producer_stalls >= cfg_.queue_widen_stalls) {
      idle_depth_ticks_ = 0;
      if (cur < cfg_.max_queue_depth) {
        dp_.SetIngressQueueDepth(std::min(cur * 2, cfg_.max_queue_depth));
        depth_widens_.fetch_add(1, std::memory_order_acq_rel);
        report.queue_depth = dp_.ingress_queue_depth();
      }
    } else if (report.producer_stalls == 0) {
      if (++idle_depth_ticks_ >= cfg_.queue_narrow_idle_ticks) {
        idle_depth_ticks_ = 0;
        if (cur > cfg_.min_queue_depth) {
          dp_.SetIngressQueueDepth(
              std::max(cur / 2, cfg_.min_queue_depth));
          depth_narrows_.fetch_add(1, std::memory_order_acq_rel);
          report.queue_depth = dp_.ingress_queue_depth();
        }
      }
    } else {
      idle_depth_ticks_ = 0;
    }
  }
  // 6. Per-tenant p99 latency from the telemetry histograms — a relaxed
  //    read of the histogram buckets, never a quiesce.  Only tenants
  //    with samples appear, so the vector stays empty when histograms
  //    are disabled.
  if (dp_.telemetry().histograms_enabled()) {
    const TelemetrySnapshot tel = dp_.telemetry().Snapshot();
    report.tenant_p99.reserve(tel.tenants.size());
    for (const TenantLatency& t : tel.tenants) {
      if (t.hist.count == 0) continue;
      report.tenant_p99.push_back(TenantP99{t.tenant, t.hist.p99()});
    }
  }

  if (cfg_.log_sink) {
    std::string line = "tick " + std::to_string(report.tick) + ": offered " +
                       std::to_string(report.offered_packets) + ", shards " +
                       std::to_string(report.shards_after);
    if (report.shard_skew != 0) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.2f", report.shard_skew);
      line += ", skew " + std::string(buf);
    }
    if (report.moves != 0) line += ", moves " + std::to_string(report.moves);
    for (std::size_t s = 0; s < report.shard_loads.size(); ++s) {
      const Dataplane::ShardCounters& c = report.shard_loads[s].counters;
      line += " | s" + std::to_string(s) + " q=" +
              std::to_string(c.queue_depth) + " busy=" +
              std::to_string(report.shard_loads[s].busy_ns_delta / 1000) +
              "us";
      if (c.flow_cache_hits + c.flow_cache_misses != 0)
        line += " fc=" + std::to_string(c.flow_cache_hits) + "/" +
                std::to_string(c.flow_cache_hits + c.flow_cache_misses);
      if (c.kernel_pkts + c.kernel_fallback_pkts != 0)
        line += " kr=" + std::to_string(c.kernel_pkts) + "/" +
                std::to_string(c.kernel_pkts + c.kernel_fallback_pkts);
      if (c.stream_pkts != 0) line += " st=" + std::to_string(c.stream_pkts);
    }
    if (report.producer_stalls != 0)
      line += " | stalls " + std::to_string(report.producer_stalls) +
              ", depth " + std::to_string(report.queue_depth);
    for (const TenantP99& t : report.tenant_p99)
      line += " | t" + std::to_string(t.tenant) + " p99=" +
              std::to_string(t.p99_ns) + "ns";
    cfg_.log_sink(line);
  }
  return report;
}

}  // namespace menshen
