#include "runtime/telemetry.hpp"

#include <algorithm>
#include <chrono>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define MENSHEN_HAS_TSC 1
#else
#define MENSHEN_HAS_TSC 0
#endif

namespace menshen {

// ---------------------------------------------------------------------------
// TscClock

namespace {

#if MENSHEN_HAS_TSC
double CalibrateNsPerTick() {
  // Spin ~2 ms against steady_clock.  Long enough that clock-read
  // overhead vanishes, short enough to be unnoticeable at startup.
  const auto t0 = std::chrono::steady_clock::now();
  const u64 c0 = __rdtsc();
  for (;;) {
    const auto t1 = std::chrono::steady_clock::now();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count();
    if (ns >= 2'000'000) {
      const u64 c1 = __rdtsc();
      if (c1 <= c0) return 1.0;  // TSC not usable; degrade gracefully
      return static_cast<double>(ns) / static_cast<double>(c1 - c0);
    }
  }
}
#endif

}  // namespace

double TscClock::NsPerTick() {
#if MENSHEN_HAS_TSC
  static const double ratio = CalibrateNsPerTick();
  return ratio;
#else
  return 1.0;
#endif
}

u64 TscClock::Now() {
#if MENSHEN_HAS_TSC
  return __rdtsc();
#else
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

u64 TscClock::ToNs(u64 ticks) {
#if MENSHEN_HAS_TSC
  return static_cast<u64>(static_cast<double>(ticks) * NsPerTick());
#else
  return ticks;
#endif
}

// ---------------------------------------------------------------------------
// HistogramSnapshot

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (u32 i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

u64 HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil — the classic
  // nearest-rank definition, so p100 lands on the max bucket).
  u64 rank = static_cast<u64>(q * static_cast<double>(count));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  u64 seen = 0;
  for (u32 i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      const u64 lo = LatencyHistogram::BucketLowerBound(i);
      if (i < 16) return lo;  // exact buckets
      const u64 hi = LatencyHistogram::BucketUpperBound(i);
      return lo + (hi - lo) / 2;  // midpoint of the log bucket
    }
  }
  return LatencyHistogram::BucketLowerBound(kBuckets - 1);
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot out;
  for (u32 i = 0; i < kBuckets; ++i) {
    const u64 b = buckets_[i].load();
    out.buckets[i] = b;
    out.count += b;
  }
  out.sum = sum_.load();
  return out;
}

// ---------------------------------------------------------------------------
// TraceRing

namespace {

u32 RoundUpPow2(u32 v) {
  if (v < 2) return 2;
  u32 p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

TraceRing::TraceRing(u32 capacity)
    : cap_(RoundUpPow2(capacity)),
      mask_(cap_ - 1),
      buf_(std::make_unique<TraceRecord[]>(cap_)) {}

bool TraceRing::Push(const TraceRecord& rec) {
  const u64 head = head_.load(std::memory_order_relaxed);
  const u64 tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= cap_) return false;  // full: drop, never block
  buf_[head & mask_] = rec;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

std::vector<TraceRecord> TraceRing::Drain() {
  const u64 head = head_.load(std::memory_order_acquire);
  u64 tail = tail_.load(std::memory_order_relaxed);
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(head - tail));
  while (tail != head) {
    out.push_back(buf_[tail & mask_]);
    ++tail;
  }
  tail_.store(tail, std::memory_order_release);
  return out;
}

// ---------------------------------------------------------------------------
// Telemetry

Telemetry::Slot::Slot(u32 ring_capacity)
    : tenants(static_cast<std::size_t>(ModuleId::kMax) + 1),
      ring(ring_capacity) {}

Telemetry::Slot::~Slot() {
  for (auto& t : tenants) delete t.load(std::memory_order_relaxed);
}

Telemetry::Telemetry(TelemetryConfig cfg) : cfg_(cfg), slots_(kMaxShards) {
  // Calibrate the TSC ratio now, off the packet path, so the first
  // ToNs conversion in a worker never pays the 2 ms spin.
  TscClock::Calibrate();
}

Telemetry::~Telemetry() {
  for (auto& s : slots_) delete s.load(std::memory_order_relaxed);
}

void Telemetry::EnsureShards(std::size_t n) {
  if (n > kMaxShards) n = kMaxShards;
  const std::size_t cur = shard_count_.load(std::memory_order_acquire);
  for (std::size_t i = cur; i < n; ++i) {
    if (slots_[i].load(std::memory_order_acquire) == nullptr) {
      slots_[i].store(new Slot(cfg_.trace_ring_capacity),
                      std::memory_order_release);
    }
  }
  if (n > cur) shard_count_.store(n, std::memory_order_release);
}

LatencyHistogram* Telemetry::TenantHist(Slot& s, u16 vid) {
  if (vid >= s.tenants.size()) return nullptr;
  LatencyHistogram* h = s.tenants[vid].load(std::memory_order_acquire);
  if (h != nullptr) return h;
  auto fresh = std::make_unique<LatencyHistogram>();
  LatencyHistogram* expected = nullptr;
  if (s.tenants[vid].compare_exchange_strong(expected, fresh.get(),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
    return fresh.release();
  }
  return expected;  // another recorder won the install race
}

void Telemetry::RecordBatched(std::size_t shard, u16 vid, u64 ns, u64 n) {
  if (shard >= kMaxShards) return;
  Slot* s = slot(shard);
  if (s == nullptr) return;
  s->batched.RecordN(ns, n);
  if (LatencyHistogram* h = TenantHist(*s, vid)) h->RecordN(ns, n);
}

void Telemetry::RecordStream(std::size_t shard, u16 vid, u64 ns, u64 n) {
  if (shard >= kMaxShards) return;
  Slot* s = slot(shard);
  if (s == nullptr) return;
  s->stream.RecordN(ns, n);
  if (LatencyHistogram* h = TenantHist(*s, vid)) h->RecordN(ns, n);
}

bool Telemetry::SampleTick(std::size_t shard) {
  if (shard >= kMaxShards) return false;
  Slot* s = slot(shard);
  if (s == nullptr) return false;
  // Single producer per shard (the executor); atomics only so TSAN
  // sees clean ordering across worker start/stop hand-offs.
  u64 c = s->sample_countdown.load(std::memory_order_relaxed) + 1;
  if (c >= cfg_.trace_sample_every) {
    s->sample_countdown.store(0, std::memory_order_relaxed);
    return true;
  }
  s->sample_countdown.store(c, std::memory_order_relaxed);
  return false;
}

void Telemetry::Trace(std::size_t shard, const TraceRecord& rec) {
  if (shard >= kMaxShards) return;
  Slot* s = slot(shard);
  if (s == nullptr) return;
  if (s->ring.Push(rec)) {
    s->trace_samples.Add();
  } else {
    s->trace_drops.Add();
  }
}

u64 Telemetry::TenantP99(u16 vid) const { return TenantSnapshot(vid).p99(); }

HistogramSnapshot Telemetry::TenantSnapshot(u16 vid) const {
  HistogramSnapshot merged;
  const std::size_t n = num_shards();
  for (std::size_t i = 0; i < n; ++i) {
    Slot* s = slot(i);
    if (s == nullptr || vid >= s->tenants.size()) continue;
    LatencyHistogram* h = s->tenants[vid].load(std::memory_order_acquire);
    if (h != nullptr) merged.Merge(h->Snapshot());
  }
  return merged;
}

TelemetrySnapshot Telemetry::Snapshot() const {
  TelemetrySnapshot out;
  const std::size_t n = num_shards();
  out.shards.reserve(n);
  std::vector<HistogramSnapshot> tenant_merged(
      static_cast<std::size_t>(ModuleId::kMax) + 1);
  std::vector<bool> tenant_seen(tenant_merged.size(), false);
  for (std::size_t i = 0; i < n; ++i) {
    ShardTelemetry st;
    Slot* s = slot(i);
    if (s != nullptr) {
      st.batched = s->batched.Snapshot();
      st.stream = s->stream.Snapshot();
      st.trace_samples = s->trace_samples.load();
      st.trace_drops = s->trace_drops.load();
      for (std::size_t vid = 0; vid < s->tenants.size(); ++vid) {
        LatencyHistogram* h = s->tenants[vid].load(std::memory_order_acquire);
        if (h == nullptr) continue;
        tenant_merged[vid].Merge(h->Snapshot());
        tenant_seen[vid] = true;
      }
    }
    out.batched_total.Merge(st.batched);
    out.stream_total.Merge(st.stream);
    out.shards.push_back(std::move(st));
  }
  for (std::size_t vid = 0; vid < tenant_merged.size(); ++vid) {
    if (!tenant_seen[vid]) continue;
    out.tenants.push_back(TenantLatency{static_cast<u16>(vid),
                                        std::move(tenant_merged[vid])});
  }
  return out;
}

std::vector<TraceRecord> Telemetry::DrainTraces(std::size_t shard) {
  if (shard >= kMaxShards) return {};
  Slot* s = slot(shard);
  if (s == nullptr) return {};
  return s->ring.Drain();
}

}  // namespace menshen
