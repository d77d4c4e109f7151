// Long-running control-plane tick: load tracking, rebalancing, scaling.
//
// The paper's isolation story assumes the pipeline keeps line rate while
// tenants are added, rebalanced and reconfigured live; this controller is
// the long-running harness that drives those levers.  A periodic tick
//
//   1. reads the dataplane's counters through the *relaxed*
//      (non-quiescing) accessors — the tick observes load without ever
//      stalling ingress;
//   2. folds the offered load (packet delta since the previous tick) into
//      an EWMA and resizes the shard replica set at an epoch boundary
//      when the smoothed load leaves the configured per-shard band
//      (scale-up and scale-down watermarks plus a cooldown, so the
//      replica count tracks offered load without flapping);
//   3. observes per-shard busy time and derives the skew (max/mean) of
//      the tick's busy-time deltas — the per-shard hot-spot signal;
//   4. runs one Rebalancer round (EWMA per-tenant load + hysteresis),
//      keyed off that skew: a hot shard switches the round aggressive
//      (bigger move budget, dead band suspended), so hot tenants drift
//      off overloaded replicas within a tick of the hot spot appearing.
//
// Scaling and migration reuse the dataplane's quiesce machinery — both
// land at epoch boundaries, so every reconfiguration the controller makes
// is invisible to per-tenant byte streams (pinned by
// tests/test_controller.cpp).
//
// TickOnce() is public and synchronous: tests and examples drive the
// control loop deterministically; Start() runs the same tick on a
// background thread at tick_interval.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "runtime/rebalancer.hpp"

namespace menshen {

struct ControllerConfig {
  /// Background tick period (Start()).
  std::chrono::milliseconds tick_interval{20};

  /// Rebalancer policy (EWMA + hysteresis) run once per tick.
  RebalancerConfig rebalancer{};
  bool enable_rebalancing = true;

  // --- Dynamic shard scaling ---------------------------------------------------
  bool enable_scaling = true;
  std::size_t min_shards = 1;
  /// 0 = one replica per hardware thread.
  std::size_t max_shards = 0;
  /// Offered-load target per shard per tick (packets): the EWMA of
  /// per-tick packet deltas divided by this is the desired replica count.
  double target_packets_per_shard = 4096;
  /// Grow only when the smoothed load exceeds target * shards * this
  /// factor; shrink only when it falls below target * (shards-1) * this
  /// factor.  The gap between the two watermarks is the hysteresis band
  /// that keeps the replica count from flapping at a boundary.
  double scale_up_factor = 1.25;
  double scale_down_factor = 0.5;
  /// Ticks to sit out after a resize (lets the EWMA re-converge under the
  /// new shard count before the next scaling decision).
  std::size_t scale_cooldown_ticks = 2;

  // --- Adaptive ingress queue depth --------------------------------------------
  /// Ramp the shard rings' capacity from the observed producer-stall
  /// counters: when the per-tick stall delta reaches queue_widen_stalls
  /// the depth doubles (capped at max_queue_depth); after
  /// queue_narrow_idle_ticks consecutive stall-free ticks it halves
  /// (floored at min_queue_depth).  Off by default: a depth change is a
  /// quiesced ring reallocation (Dataplane::SetIngressQueueDepth), so
  /// enabling this trades the tick's never-stall property for
  /// self-sizing rings.
  bool enable_adaptive_queue_depth = false;
  std::size_t min_queue_depth = 16;
  std::size_t max_queue_depth = 1024;
  /// Stalls per tick that trigger a widen.
  u64 queue_widen_stalls = 1;
  /// Consecutive stall-free ticks before a narrow.
  std::size_t queue_narrow_idle_ticks = 4;

  /// Optional sink for the per-tick shard-load line (queue depth + busy
  /// time per shard, read through the relaxed stats — never a quiesce).
  /// Unset: no logging.  Wire to a logger or test capture as needed.
  std::function<void(const std::string&)> log_sink;

  /// Optional source of a shard's cumulative busy nanoseconds, the input
  /// of the tick's busy-time deltas and skew.  Unset reads the worker's
  /// wall-clock ShardCounters::busy_ns; a deterministic cost model can
  /// stand in for it (tests pin the skew response this way).
  std::function<u64(const Dataplane::ShardCounters&)> shard_busy_ns;
};

class Controller {
 public:
  explicit Controller(Dataplane& dp, ControllerConfig cfg = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Starts the background tick thread (idempotent).
  void Start();
  /// Stops and joins it (idempotent; also run by the destructor).
  void Stop();

  /// One shard's utilisation as observed by a tick (relaxed reads): its
  /// row (ring occupancy now, flow-cache, kernel and streaming counts),
  /// and the busy time accumulated since the last tick.
  struct ShardLoad {
    Dataplane::ShardCounters counters;
    u64 busy_ns_delta = 0;
  };

  /// One tenant's merged p99 packet latency as observed by a tick
  /// (runtime/telemetry histograms, across shards and both paths).
  struct TenantP99 {
    u16 tenant = 0;
    u64 p99_ns = 0;
  };

  /// What one tick observed and did.
  struct TickReport {
    u64 tick = 0;
    u64 offered_packets = 0;  // packet delta since the previous tick
    double load_ewma = 0;     // smoothed offered load per tick
    std::size_t shards_before = 0;
    std::size_t shards_after = 0;
    std::size_t moves = 0;  // tenant migrations this tick
    /// Per-shard busy-time skew this tick: max(busy_ns_delta) over
    /// mean(busy_ns_delta) across shards (0 when no shard did work).
    /// Observed BEFORE the rebalancing round and passed to it, so a
    /// single hot shard triggers the rebalancer's aggressive mode
    /// (RebalancerConfig::skew_threshold) the same tick it is seen.
    double shard_skew = 0;
    /// Producer stalls observed this tick (delta across every shard)
    /// and the ingress ring depth after any adaptive adjustment.
    u64 producer_stalls = 0;
    std::size_t queue_depth = 0;
    /// Per-shard rows + busy time (groundwork for the per-shard
    /// utilisation scaling policy), indexed by shard; logged to
    /// cfg.log_sink when set.
    std::vector<ShardLoad> shard_loads;
    /// Per-tenant p99 latency from the telemetry histograms (empty when
    /// histograms are disabled or no tenant has samples yet); appended
    /// to the tick log line.
    std::vector<TenantP99> tenant_p99;
  };
  /// One synchronous control tick — the unit the background thread runs.
  /// Safe to call concurrently with traffic; serialized against itself.
  TickReport TickOnce();

  [[nodiscard]] u64 ticks() const {
    return ticks_.load(std::memory_order_acquire);
  }
  [[nodiscard]] u64 scale_ups() const {
    return scale_ups_.load(std::memory_order_acquire);
  }
  [[nodiscard]] u64 scale_downs() const {
    return scale_downs_.load(std::memory_order_acquire);
  }
  [[nodiscard]] u64 moves_applied() const {
    return moves_applied_.load(std::memory_order_acquire);
  }
  [[nodiscard]] u64 depth_widens() const {
    return depth_widens_.load(std::memory_order_acquire);
  }
  [[nodiscard]] u64 depth_narrows() const {
    return depth_narrows_.load(std::memory_order_acquire);
  }
  [[nodiscard]] double load_ewma() const;

 private:
  void RunLoop();

  Dataplane& dp_;
  ControllerConfig cfg_;
  Rebalancer rebalancer_;

  /// Serializes TickOnce (background thread vs direct calls).
  mutable std::mutex tick_mutex_;
  u64 last_total_packets_ = 0;
  double load_ewma_ = 0;
  std::size_t cooldown_ = 0;
  /// Previous tick's cumulative busy_ns per shard (for the delta).
  std::vector<u64> last_busy_ns_;
  /// Adaptive queue depth state: previous tick's cumulative stall total
  /// and the consecutive stall-free tick count.
  u64 last_producer_stalls_ = 0;
  std::size_t idle_depth_ticks_ = 0;

  std::atomic<u64> ticks_{0};
  std::atomic<u64> scale_ups_{0};
  std::atomic<u64> scale_downs_{0};
  std::atomic<u64> moves_applied_{0};
  std::atomic<u64> depth_widens_{0};
  std::atomic<u64> depth_narrows_{0};

  std::atomic<bool> running_{false};
  /// Serializes Start/Stop (guards thread_ assignment vs join).
  std::mutex lifecycle_mutex_;
  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
};

}  // namespace menshen
