// Dataplane telemetry: latency histograms and sampled packet tracing.
//
// Three pieces, all designed for the packet hot path:
//
// * LatencyHistogram — log-bucketed (8 sub-buckets per power-of-two
//   octave, exact below 16 ns) relaxed-atomic histogram.  Recording is
//   two owner-written adds (common/counters.hpp: a relaxed load and
//   store each, no locked read-modify-write); snapshots are mergeable
//   and support p50/p90/p99/p999 extraction with bounded (~9%) bucket
//   error.
// * TraceRing — per-shard single-producer/single-consumer ring of
//   fixed-size 16-byte TraceRecords.  The producer is the shard's
//   executor (worker thread, or the submitting thread on the inline
//   paths — mutually excluded by the dataplane's gates and per-shard
//   mutexes); drops when full, never blocks, never allocates.
// * Telemetry — per-shard slots (batched + streaming histograms,
//   per-tenant lazily allocated histograms, trace ring) installed
//   lock-free behind atomic pointers so shard growth never stalls a
//   recording worker.  A slot outlives a shrink: a shard that is grown
//   again keeps its slot's earlier samples.
//
// Timestamps use the TSC when available (one rdtsc per batch/burst at
// Submit, one at completion) with a once-per-process calibration
// against steady_clock; non-x86 builds fall back to steady_clock.
//
// Sampling: trace_sample_every = N records every Nth packet a shard
// executes; N = 0 disables tracing entirely and the hot path pays only
// the histogram adds (gated <= 2% by micro_telemetry_overhead).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"

namespace menshen {

// ---------------------------------------------------------------------------
// TSC clock

struct TscClock {
  /// Raw timestamp in ticks (TSC on x86-64, steady_clock ns elsewhere).
  [[nodiscard]] static u64 Now();
  /// Converts a tick *delta* to nanoseconds.
  [[nodiscard]] static u64 ToNs(u64 ticks);
  /// Nanoseconds per tick (calibrated once per process; ~2 ms spin).
  [[nodiscard]] static double NsPerTick();
  /// Forces calibration now so the first hot-path conversion never
  /// pays the spin.  Idempotent; Telemetry's constructor calls it.
  static void Calibrate() { (void)NsPerTick(); }
};

// ---------------------------------------------------------------------------
// Log-bucketed latency histogram

/// Mergeable point-in-time copy of a histogram with quantile extraction.
struct HistogramSnapshot {
  static constexpr u32 kBuckets = 16 + 60 * 8;  // 496: exact 0..15, then
                                                // 8 sub-buckets/octave
  std::array<u64, kBuckets> buckets{};
  u64 count = 0;
  u64 sum = 0;

  void Merge(const HistogramSnapshot& other);
  /// Value at quantile q in [0,1] (bucket midpoint; 0 when empty).
  [[nodiscard]] u64 Quantile(double q) const;
  [[nodiscard]] u64 p50() const { return Quantile(0.50); }
  [[nodiscard]] u64 p90() const { return Quantile(0.90); }
  [[nodiscard]] u64 p99() const { return Quantile(0.99); }
  [[nodiscard]] u64 p999() const { return Quantile(0.999); }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

class LatencyHistogram {
 public:
  static constexpr u32 kBuckets = HistogramSnapshot::kBuckets;

  /// Bucket index for a nanosecond value: exact below 16, then
  /// (msb-4)*8 + top-3-bits-after-msb within the octave.
  [[nodiscard]] static u32 BucketFor(u64 v) {
    if (v < 16) return static_cast<u32>(v);
    const u32 msb = 63u - static_cast<u32>(__builtin_clzll(v));
    const u32 sub = static_cast<u32>((v >> (msb - 3)) & 0x7);
    return 16 + (msb - 4) * 8 + sub;
  }
  /// Inclusive lower bound of a bucket (for quantile reconstruction).
  [[nodiscard]] static u64 BucketLowerBound(u32 idx) {
    if (idx < 16) return idx;
    const u32 msb = 4 + (idx - 16) / 8;
    const u32 sub = (idx - 16) % 8;
    const u64 base = u64{1} << msb;
    return base + sub * (base >> 3);
  }
  /// Exclusive upper bound of a bucket.
  [[nodiscard]] static u64 BucketUpperBound(u32 idx) {
    return idx + 1 < kBuckets ? BucketLowerBound(idx + 1) : ~u64{0};
  }

  void Record(u64 ns) { RecordN(ns, 1); }
  /// Records `n` observations of the same value (a batch whose packets
  /// all completed together shares one latency sample).
  void RecordN(u64 ns, u64 n) {
    buckets_[BucketFor(ns)].Add(n);
    sum_.Add(ns * n);
  }

  [[nodiscard]] HistogramSnapshot Snapshot() const;

 private:
  std::array<RelaxedCounter, kBuckets> buckets_{};
  RelaxedCounter sum_{};
};

// ---------------------------------------------------------------------------
// Sampled trace ring

/// One sampled packet execution.  Fixed 16 bytes; never allocates.
struct TraceRecord {
  u16 tenant = 0;    // vid
  u8 shard = 0;
  u8 tier = 0;       // ExecTier
  u8 stages = 0;     // stages/steps visited by the executing tier
  u8 verdict = 0;    // 0 forwarded, 1 dropped, 2 filtered
  u16 stream = 0;    // 1 when sampled on the streaming path
  u64 ns = 0;        // packet latency (ingress stamp -> completion)
};
static_assert(sizeof(TraceRecord) == 16);

/// Lock-free SPSC ring.  Producer: the shard's executor.  Consumer:
/// whoever drains (controller tick, telemetry_dump, tests).  Push
/// drops when full — observability never applies back-pressure.
class TraceRing {
 public:
  explicit TraceRing(u32 capacity);

  /// Producer side.  Returns false when full (caller counts the drop).
  bool Push(const TraceRecord& rec);
  /// Consumer side: removes and returns everything currently queued.
  [[nodiscard]] std::vector<TraceRecord> Drain();
  [[nodiscard]] u32 capacity() const { return cap_; }

 private:
  u32 cap_;  // power of two
  u32 mask_;
  std::unique_ptr<TraceRecord[]> buf_;
  alignas(64) std::atomic<u64> head_{0};  // written by producer
  alignas(64) std::atomic<u64> tail_{0};  // written by consumer
};

// ---------------------------------------------------------------------------
// Telemetry

struct TelemetryConfig {
  /// Record per-shard / per-tenant latency histograms.
  bool latency_histograms = true;
  /// Sample every Nth executed packet into the trace ring; 0 = off.
  u32 trace_sample_every = 0;
  /// Capacity of each shard's trace ring (rounded up to a power of 2).
  u32 trace_ring_capacity = 1024;
};

/// Per-shard telemetry aggregate (see Telemetry::Snapshot).
struct ShardTelemetry {
  HistogramSnapshot batched;
  HistogramSnapshot stream;
  u64 trace_samples = 0;
  u64 trace_drops = 0;
};

struct TenantLatency {
  u16 tenant = 0;
  HistogramSnapshot hist;  // merged across shards, batched + stream
};

struct TelemetrySnapshot {
  std::vector<ShardTelemetry> shards;
  std::vector<TenantLatency> tenants;   // sorted by tenant id
  HistogramSnapshot batched_total;      // merged across shards
  HistogramSnapshot stream_total;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig cfg = {});
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] const TelemetryConfig& config() const { return cfg_; }
  [[nodiscard]] bool histograms_enabled() const {
    return cfg_.latency_histograms;
  }
  [[nodiscard]] u32 sample_every() const { return cfg_.trace_sample_every; }

  /// Grows the per-shard slot table to at least `n` shards.  Called
  /// under the dataplane's config lock; recording threads only touch
  /// slots for shards that already exist, so installation is a simple
  /// release-store they observe with an acquire-load.
  void EnsureShards(std::size_t n);
  [[nodiscard]] std::size_t num_shards() const {
    return shard_count_.load(std::memory_order_acquire);
  }

  // --- hot path (shard executor) ---------------------------------------

  /// Records `n` packets of tenant `vid` completing with latency `ns`
  /// on shard `shard`'s batched path.
  void RecordBatched(std::size_t shard, u16 vid, u64 ns, u64 n);
  /// Streaming-path sibling.
  void RecordStream(std::size_t shard, u16 vid, u64 ns, u64 n);
  /// Decrements the shard's sampling countdown; true on the Nth call.
  /// Only call when sample_every() != 0.
  [[nodiscard]] bool SampleTick(std::size_t shard);
  /// Pushes a sampled trace record (producer side of the shard ring).
  void Trace(std::size_t shard, const TraceRecord& rec);

  // --- readers ----------------------------------------------------------

  /// Merged p99 latency (ns) for one tenant across all shards and both
  /// paths; 0 when the tenant has no samples.
  [[nodiscard]] u64 TenantP99(u16 vid) const;
  [[nodiscard]] HistogramSnapshot TenantSnapshot(u16 vid) const;
  [[nodiscard]] TelemetrySnapshot Snapshot() const;
  /// Drains shard `shard`'s trace ring (consumer side).
  [[nodiscard]] std::vector<TraceRecord> DrainTraces(std::size_t shard);

 private:
  struct Slot {
    explicit Slot(u32 ring_capacity);
    ~Slot();

    LatencyHistogram batched;
    LatencyHistogram stream;
    // Lazily allocated per-tenant histograms, CAS-installed; indexed
    // by vid (12-bit ModuleId space).
    std::vector<std::atomic<LatencyHistogram*>> tenants;
    TraceRing ring;
    std::atomic<u64> sample_countdown{0};
    RelaxedCounter trace_samples;
    RelaxedCounter trace_drops;
  };

  [[nodiscard]] Slot* slot(std::size_t shard) const {
    return slots_[shard].load(std::memory_order_acquire);
  }
  [[nodiscard]] static LatencyHistogram* TenantHist(Slot& s, u16 vid);

  /// Upper bound on shards; matches the dataplane's practical range
  /// (the controller scales within core counts, not thousands).
  static constexpr std::size_t kMaxShards = 256;

  TelemetryConfig cfg_;
  std::vector<std::atomic<Slot*>> slots_;
  std::atomic<std::size_t> shard_count_{0};
};

}  // namespace menshen
