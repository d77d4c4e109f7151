// Telemetry suite (runtime/telemetry + runtime/telemetry_export):
// histogram bucketing and quantiles, snapshot merge, the SPSC trace
// ring, end-to-end latency recording and sampling through the dataplane
// on both execution paths, relaxed-stats monotonicity under streaming
// churn, and the Prometheus/JSON exporter round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "packet/arena.hpp"
#include "runtime/controller.hpp"
#include "runtime/stats.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/telemetry_export.hpp"
#include "sim/traffic.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using test::CalcPacket;
using test::MustCompile;
using test::MustLoad;
using test::StandardAlloc;

// --- Histogram bucketing ------------------------------------------------------

TEST(LatencyHistogram, SmallValuesBucketExactly) {
  for (u64 v = 0; v < 16; ++v) {
    const u32 idx = LatencyHistogram::BucketFor(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(idx), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(idx), v + 1);
  }
}

TEST(LatencyHistogram, BucketBoundsContainTheirValues) {
  // Every probe value must land in a bucket whose [lower, upper) range
  // contains it, and bucket lower bounds must be monotone.
  for (u64 v : {u64{16}, u64{17}, u64{100}, u64{1000}, u64{4095}, u64{4096},
                u64{65537}, u64{1} << 30, (u64{1} << 40) + 12345,
                ~u64{0} >> 1, ~u64{0}}) {
    const u32 idx = LatencyHistogram::BucketFor(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(idx), v) << v;
    // The last bucket's "exclusive" upper bound saturates at 2^64-1,
    // which is itself representable — hence GE, not GT, there.
    if (idx + 1 < LatencyHistogram::kBuckets)
      EXPECT_GT(LatencyHistogram::BucketUpperBound(idx), v) << v;
    else
      EXPECT_GE(LatencyHistogram::BucketUpperBound(idx), v) << v;
  }
  for (u32 i = 1; i < LatencyHistogram::kBuckets; ++i)
    ASSERT_LT(LatencyHistogram::BucketLowerBound(i - 1),
              LatencyHistogram::BucketLowerBound(i));
}

TEST(LatencyHistogram, RelativeBucketErrorBounded) {
  // 8 sub-buckets per octave: the bucket midpoint is within ~7% of any
  // value in the bucket (1/16th of the octave width each way).
  for (u64 v = 16; v < (u64{1} << 40); v = v * 17 / 16 + 1) {
    const u32 idx = LatencyHistogram::BucketFor(v);
    const u64 lo = LatencyHistogram::BucketLowerBound(idx);
    const u64 hi = LatencyHistogram::BucketUpperBound(idx);
    const double mid = static_cast<double>(lo) +
                       static_cast<double>(hi - lo) / 2.0;
    const double err =
        std::abs(mid - static_cast<double>(v)) / static_cast<double>(v);
    EXPECT_LT(err, 0.0715) << "v=" << v;
  }
}

// --- Quantiles ----------------------------------------------------------------

TEST(HistogramSnapshot, QuantilesOfKnownDistribution) {
  LatencyHistogram h;
  // 100 observations: 1..100 ns (exact buckets below 16, log above).
  for (u64 v = 1; v <= 100; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050u);
  // p50 = 50th value = 50 ns, within one bucket width (~9%).
  EXPECT_NEAR(static_cast<double>(s.p50()), 50.0, 5.0);
  EXPECT_NEAR(static_cast<double>(s.p90()), 90.0, 9.0);
  EXPECT_NEAR(static_cast<double>(s.p99()), 99.0, 10.0);
  EXPECT_NEAR(s.mean(), 50.5, 0.01);
}

TEST(HistogramSnapshot, ExactQuantilesBelowSixteen) {
  LatencyHistogram h;
  for (u64 v = 0; v < 10; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  // Exact buckets: nearest-rank quantiles are exact values.
  EXPECT_EQ(s.p50(), 4u);
  EXPECT_EQ(s.Quantile(1.0), 9u);
  EXPECT_EQ(s.Quantile(0.0), 0u);
}

TEST(HistogramSnapshot, EmptyQuantileIsZero) {
  const HistogramSnapshot s;
  EXPECT_EQ(s.p50(), 0u);
  EXPECT_EQ(s.p999(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramSnapshot, TailQuantileSeesOutlier) {
  LatencyHistogram h;
  h.RecordN(100, 990);
  h.RecordN(1'000'000, 10);  // 1% millisecond outliers
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_NEAR(static_cast<double>(s.p50()), 100.0, 10.0);
  // Nearest-rank 99.9th of 1000 samples = rank 999, inside the
  // outlier block.
  EXPECT_GT(s.p999(), 900'000u);
  EXPECT_GT(s.p99(), 90u);
}

TEST(HistogramSnapshot, MergeIsCountAndQuantilePreserving) {
  LatencyHistogram a, b;
  for (u64 v = 1; v <= 50; ++v) a.Record(v);
  for (u64 v = 51; v <= 100; ++v) b.Record(v);
  HistogramSnapshot m = a.Snapshot();
  m.Merge(b.Snapshot());
  EXPECT_EQ(m.count, 100u);
  EXPECT_EQ(m.sum, 5050u);

  LatencyHistogram whole;
  for (u64 v = 1; v <= 100; ++v) whole.Record(v);
  const HistogramSnapshot w = whole.Snapshot();
  EXPECT_EQ(m.p50(), w.p50());
  EXPECT_EQ(m.p99(), w.p99());
  EXPECT_EQ(m.buckets, w.buckets);
}

// --- Trace ring ---------------------------------------------------------------

TEST(TraceRing, PushDrainRoundTrip) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (u16 i = 0; i < 5; ++i) {
    TraceRecord r;
    r.tenant = i;
    r.ns = 100 + i;
    EXPECT_TRUE(ring.Push(r));
  }
  const std::vector<TraceRecord> got = ring.Drain();
  ASSERT_EQ(got.size(), 5u);
  for (u16 i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i].tenant, i);
    EXPECT_EQ(got[i].ns, 100u + i);
  }
  EXPECT_TRUE(ring.Drain().empty());
}

TEST(TraceRing, DropsWhenFullAndRecoversAfterDrain) {
  TraceRing ring(4);
  TraceRecord r;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.Push(r));
  EXPECT_FALSE(ring.Push(r));  // full: drop, never block
  EXPECT_EQ(ring.Drain().size(), 4u);
  EXPECT_TRUE(ring.Push(r));
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.Push(TraceRecord{}));
  EXPECT_FALSE(ring.Push(TraceRecord{}));
}

TEST(TraceRing, SpscHandoffDeliversEverythingInOrder) {
  // Differential: one producer pushing sequence numbers, one consumer
  // draining concurrently.  Everything that was accepted must come out
  // exactly once, in order.
  TraceRing ring(64);
  constexpr u64 kTotal = 100'000;
  std::atomic<bool> done{false};
  std::vector<u64> got;
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const TraceRecord& r : ring.Drain()) got.push_back(r.ns);
    }
    for (const TraceRecord& r : ring.Drain()) got.push_back(r.ns);
  });
  u64 accepted = 0;
  for (u64 i = 0; i < kTotal; ++i) {
    TraceRecord r;
    r.ns = i;
    if (ring.Push(r)) ++accepted;
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  ASSERT_EQ(got.size(), accepted);
  for (std::size_t i = 1; i < got.size(); ++i)
    ASSERT_LT(got[i - 1], got[i]);  // strictly increasing = in order, no dup
}

// --- Telemetry slots ----------------------------------------------------------

TEST(Telemetry, RecordsPerShardAndPerTenant) {
  Telemetry t;
  t.EnsureShards(2);
  t.RecordBatched(0, 2, 100, 10);
  t.RecordBatched(1, 2, 200, 10);
  t.RecordStream(0, 3, 50, 5);

  const TelemetrySnapshot s = t.Snapshot();
  ASSERT_EQ(s.shards.size(), 2u);
  EXPECT_EQ(s.shards[0].batched.count, 10u);
  EXPECT_EQ(s.shards[1].batched.count, 10u);
  EXPECT_EQ(s.shards[0].stream.count, 5u);
  EXPECT_EQ(s.batched_total.count, 20u);
  EXPECT_EQ(s.stream_total.count, 5u);

  // Tenant 2's histogram merges both shards and both paths.
  const HistogramSnapshot t2 = t.TenantSnapshot(2);
  EXPECT_EQ(t2.count, 20u);
  EXPECT_GT(t.TenantP99(2), 0u);
  EXPECT_EQ(t.TenantSnapshot(3).count, 5u);
  EXPECT_EQ(t.TenantSnapshot(99).count, 0u);
  EXPECT_EQ(t.TenantP99(99), 0u);

  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].tenant, 2u);
  EXPECT_EQ(s.tenants[1].tenant, 3u);
}

TEST(Telemetry, SampleTickFiresEveryNth) {
  Telemetry t(TelemetryConfig{.trace_sample_every = 4});
  t.EnsureShards(1);
  int fired = 0;
  for (int i = 0; i < 16; ++i)
    if (t.SampleTick(0)) ++fired;
  EXPECT_EQ(fired, 4);
}

TEST(TscClock, MonotoneAndCalibrated) {
  TscClock::Calibrate();
  EXPECT_GT(TscClock::NsPerTick(), 0.0);
  const u64 a = TscClock::Now();
  const u64 b = TscClock::Now();
  EXPECT_GE(b, a);
  // A 1 ms sleep must convert to roughly 1 ms of ns (loose factor-of-4
  // band: CI schedulers oversleep, TSC never undersleeps).
  const u64 t0 = TscClock::Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const u64 ns = TscClock::ToNs(TscClock::Now() - t0);
  EXPECT_GT(ns, 900'000u);
  EXPECT_LT(ns, 200'000'000u);
}

// --- End-to-end through the dataplane -----------------------------------------

/// One configured calc tenant on a dataplane with the given config.
void LoadCalc(Dataplane& dp, u16 vid = 2) {
  const ModuleAllocation alloc = StandardAlloc(vid);
  CompiledModule m = MustCompile(apps::CalcSpec(), alloc);
  apps::InstallCalcEntries(m, 1);
  dp.ApplyWrites(m.AllWrites());
}

TEST(DataplaneTelemetry, BatchedPathFillsHistogramsAndTiers) {
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  LoadCalc(dp);
  std::vector<Packet> batch;
  for (int i = 0; i < 256; ++i) batch.push_back(CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));

  const TelemetrySnapshot s = dp.telemetry().Snapshot();
  EXPECT_EQ(s.batched_total.count, 256u);
  EXPECT_GT(s.batched_total.p50(), 0u);
  EXPECT_EQ(s.stream_total.count, 0u);
  u64 tier_pkts = 0;
  for (const Dataplane::ShardCounters& sh : dp.CountersSnapshot())
    for (const u64 n : sh.TierPkts()) tier_pkts += n;
  EXPECT_EQ(tier_pkts, 256u);
  EXPECT_EQ(dp.telemetry().TenantSnapshot(2).count, 256u);
  EXPECT_GT(dp.telemetry().TenantP99(2), 0u);
}

TEST(DataplaneTelemetry, StreamingPathFillsStreamHistogram) {
  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = false});
  LoadCalc(dp);
  const Packet frame = CalcPacket(2, 1, 7, 5);
  PacketArena arena(0);
  std::vector<ArenaPacket*> egress;
  constexpr std::size_t kBurst = 16;
  for (int b = 0; b < 8; ++b) {
    ArenaPacket* burst[kBurst];
    ASSERT_EQ(arena.AllocateBurst(burst, kBurst), kBurst);
    for (ArenaPacket* p : burst) p->Assign(frame.bytes().bytes());
    dp.SubmitStream(burst, kBurst);
  }
  (void)dp.PollEgress(egress);
  ReleaseToOwners(egress.data(), egress.size());

  const TelemetrySnapshot s = dp.telemetry().Snapshot();
  EXPECT_EQ(s.stream_total.count, 128u);
  EXPECT_EQ(s.batched_total.count, 0u);
  EXPECT_EQ(dp.telemetry().TenantSnapshot(2).count, 128u);
}

TEST(DataplaneTelemetry, DisabledHistogramsRecordNothing) {
  Dataplane dp(DataplaneConfig{
      .num_shards = 1,
      .worker_threads = false,
      .telemetry = TelemetryConfig{.latency_histograms = false}});
  LoadCalc(dp);
  std::vector<Packet> batch(64, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));
  const TelemetrySnapshot s = dp.telemetry().Snapshot();
  EXPECT_EQ(s.batched_total.count, 0u);
  EXPECT_EQ(dp.telemetry().TenantP99(2), 0u);
  // The stats layer reports p99 = 0 rather than inventing a number.
  const DataplaneStats stats = CollectDataplaneStats(dp);
  for (const Dataplane::TenantCounts& t : stats.tenants)
    EXPECT_EQ(t.p99_ns, 0u);
}

TEST(DataplaneTelemetry, SamplingCapturesBothPaths) {
  Dataplane dp(DataplaneConfig{
      .num_shards = 1,
      .worker_threads = false,
      .telemetry = TelemetryConfig{.latency_histograms = true,
                                   .trace_sample_every = 4,
                                   .trace_ring_capacity = 1024}});
  LoadCalc(dp);
  std::vector<Packet> batch(64, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));

  const Packet frame = CalcPacket(2, 1, 7, 5);
  PacketArena arena(0);
  std::vector<ArenaPacket*> egress;
  ArenaPacket* burst[64];
  ASSERT_EQ(arena.AllocateBurst(burst, 64), 64u);
  for (ArenaPacket* p : burst) p->Assign(frame.bytes().bytes());
  dp.SubmitStream(burst, 64);
  (void)dp.PollEgress(egress);
  ReleaseToOwners(egress.data(), egress.size());

  const std::vector<TraceRecord> traces = dp.telemetry().DrainTraces(0);
  // 128 packets at 1-in-4: exactly 32 samples (ring is large enough).
  ASSERT_EQ(traces.size(), 32u);
  bool saw_batched = false, saw_stream = false;
  for (const TraceRecord& t : traces) {
    EXPECT_EQ(t.tenant, 2u);
    EXPECT_EQ(t.shard, 0u);
    EXPECT_NE(t.tier, static_cast<u8>(ExecTier::kNone));
    EXPECT_EQ(t.verdict, 0u);  // all forwarded
    (t.stream != 0 ? saw_stream : saw_batched) = true;
  }
  EXPECT_TRUE(saw_batched);
  EXPECT_TRUE(saw_stream);

  const TelemetrySnapshot s = dp.telemetry().Snapshot();
  EXPECT_EQ(s.shards[0].trace_samples, 32u);
  EXPECT_EQ(s.shards[0].trace_drops, 0u);
}

TEST(DataplaneTelemetry, SamplingWorksWithHistogramsDisabled) {
  // sample_every != 0 alone must still stamp ingress and produce traces.
  Dataplane dp(DataplaneConfig{
      .num_shards = 1,
      .worker_threads = false,
      .telemetry = TelemetryConfig{.latency_histograms = false,
                                   .trace_sample_every = 2}});
  LoadCalc(dp);
  std::vector<Packet> batch(32, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));
  EXPECT_EQ(dp.telemetry().DrainTraces(0).size(), 16u);
  EXPECT_EQ(dp.telemetry().Snapshot().batched_total.count, 0u);
}

TEST(DataplaneTelemetry, TraceRingOverflowCountsDrops) {
  Dataplane dp(DataplaneConfig{
      .num_shards = 1,
      .worker_threads = false,
      .telemetry = TelemetryConfig{.trace_sample_every = 1,
                                   .trace_ring_capacity = 16}});
  LoadCalc(dp);
  std::vector<Packet> batch(256, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));
  const TelemetrySnapshot s = dp.telemetry().Snapshot();
  EXPECT_EQ(s.shards[0].trace_samples, 16u);
  EXPECT_EQ(s.shards[0].trace_drops, 240u);
}

TEST(DataplaneTelemetry, TickReportCarriesTenantP99) {
  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = false});
  LoadCalc(dp);
  std::vector<Packet> batch(64, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));

  std::string logged;
  ControllerConfig cfg;
  cfg.enable_scaling = false;
  cfg.enable_rebalancing = false;
  cfg.log_sink = [&logged](const std::string& line) { logged = line; };
  Controller ctl(dp, cfg);
  const Controller::TickReport report = ctl.TickOnce();
  ASSERT_EQ(report.tenant_p99.size(), 1u);
  EXPECT_EQ(report.tenant_p99[0].tenant, 2u);
  EXPECT_GT(report.tenant_p99[0].p99_ns, 0u);
  EXPECT_NE(logged.find("p99="), std::string::npos);
}

// --- Relaxed stats monotonicity under streaming churn -------------------------

TEST(DataplaneTelemetry, RelaxedStatsMonotoneUnderStreamingChurn) {
  // Four producers push arena bursts while a reader polls the relaxed
  // stats, and halfway through a control thread migrates a tenant,
  // grows the shard set and moves the other tenant onto the new shard:
  // every cumulative counter and every histogram count must be
  // non-decreasing between consecutive snapshots.  Each hand-off passes
  // the owner-written counters (common/counters.hpp) to another worker,
  // so after quiesce every count must be exact against the
  // ProcessUnplanned reference.  Run under ASAN and TSAN in CI.
  constexpr u16 kCalcVid = 2;
  constexpr u16 kRouterVid = 6;
  CompiledModule calc = MustCompile(apps::CalcSpec(), StandardAlloc(kCalcVid));
  apps::InstallCalcEntries(calc, 1);
  const CompiledModule router =
      test::MakeTagRouter(StandardAlloc(kRouterVid, 8, 4, 32), 40, 3);
  std::vector<ConfigWrite> writes = calc.AllWrites();
  const std::vector<ConfigWrite> router_writes = router.AllWrites();
  writes.insert(writes.end(), router_writes.begin(), router_writes.end());
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = true});
  dp.ApplyWrites(writes);
  Pipeline reference;
  for (const ConfigWrite& w : writes) reference.ApplyWrite(w);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kBursts = 64;
  constexpr std::size_t kBurst = 16;
  constexpr u64 kTotal = kProducers * kBursts * kBurst;
  // Producers 0 and 1 send CALC requests, 2 and 3 router tags 0..3 (tag
  // 3 is dropped); the reference sees the same frames.
  const auto frame = [&](std::size_t p, std::size_t i) {
    return p < 2 ? CalcPacket(kCalcVid, 1, 7, static_cast<u32>(i % 5))
                 : test::TagRouterPacket(kRouterVid, static_cast<u16>(i % 4));
  };
  std::array<u64, 3> classes{};  // forwarded, dropped, filtered
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kBursts * kBurst; ++i) {
      const PipelineResult r = reference.ProcessUnplanned(frame(p, i));
      ++classes[r.filter_verdict != FilterVerdict::kData ? 2
                : r.output->disposition == Disposition::kDrop ? 1
                                                              : 0];
    }
  }

  std::vector<std::unique_ptr<PacketArena>> arenas;
  for (std::size_t p = 0; p < kProducers; ++p)
    arenas.push_back(std::make_unique<PacketArena>(kBursts * kBurst));

  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    std::vector<ArenaPacket*> egress;
    while (!stop.load(std::memory_order_acquire)) {
      egress.clear();
      if (dp.PollEgress(egress) != 0)
        ReleaseToOwners(egress.data(), egress.size());
      else
        std::this_thread::yield();
    }
    egress.clear();
    while (dp.PollEgress(egress) != 0) {
      ReleaseToOwners(egress.data(), egress.size());
      egress.clear();
    }
  });

  // The churn runs once a quarter of the traffic is through, including
  // packets of both tenants (so the resize pins both where they are);
  // producers hold their second half until it is done, so it lands
  // mid-run.
  std::atomic<bool> churned{false};
  std::thread control([&] {
    const auto seen = [&](u16 vid) {
      return dp.forwarded_relaxed(ModuleId(vid)) +
                 dp.dropped_relaxed(ModuleId(vid)) !=
             0;
    };
    while (dp.total_packets_relaxed() < kTotal / 4 || !seen(kCalcVid) ||
           !seen(kRouterVid))
      std::this_thread::yield();
    const std::size_t from = dp.ShardFor(ModuleId(kCalcVid));
    EXPECT_TRUE(dp.MigrateTenant(ModuleId(kCalcVid), (from + 1) % 2));
    EXPECT_EQ(dp.ResizeShards(3), 3u);
    EXPECT_TRUE(dp.MigrateTenant(ModuleId(kRouterVid), 2));
    churned.store(true, std::memory_order_release);
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ArenaPacket* burst[kBurst];
      for (std::size_t b = 0; b < kBursts; ++b) {
        if (b == kBursts / 2)
          while (!churned.load(std::memory_order_acquire))
            std::this_thread::yield();
        if (arenas[p]->AllocateBurst(burst, kBurst) != kBurst) break;
        for (std::size_t i = 0; i < kBurst; ++i)
          burst[i]->Assign(frame(p, b * kBurst + i).bytes().bytes());
        dp.SubmitStream(burst, kBurst);
      }
    });
  }

  u64 last_total = 0, last_stream = 0, last_hist = 0;
  for (int round = 0; round < 200; ++round) {
    const u64 total = dp.total_packets_relaxed();
    u64 stream_pkts = 0;
    for (const Dataplane::ShardCounters& sh : dp.CountersSnapshotRelaxed())
      stream_pkts += sh.stream_pkts;
    const u64 hist = dp.telemetry().Snapshot().stream_total.count;
    ASSERT_GE(total, last_total);
    ASSERT_GE(stream_pkts, last_stream);
    ASSERT_GE(hist, last_hist);
    last_total = total;
    last_stream = stream_pkts;
    last_hist = hist;
    std::this_thread::yield();
  }

  for (std::thread& t : producers) t.join();
  control.join();
  // Wait until the workers have executed (and recorded) everything,
  // then until the consumer has handed every forwarded packet back.
  while (dp.telemetry().Snapshot().stream_total.count < kTotal)
    std::this_thread::yield();
  while (std::any_of(arenas.begin(), arenas.end(),
                     [](const auto& a) { return a->outstanding() != 0; }))
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(dp.migrations(), 2u);
  EXPECT_EQ(dp.resizes(), 1u);
  EXPECT_EQ(dp.telemetry().Snapshot().stream_total.count, kTotal);
  EXPECT_EQ(dp.total_packets(), kTotal);
  // Exact after quiesce: verdicts partition each shard's packets and
  // match the reference; every flow-cache probe is one burst lane, and
  // every router packet was probed.
  std::array<u64, 3> counted{};
  u64 burst_lanes = 0;
  for (const Dataplane::ShardCounters& c : dp.CountersSnapshot()) {
    EXPECT_EQ(c.forwarded + c.dropped + c.filtered, c.packets);
    EXPECT_EQ(c.flow_cache_hits + c.flow_cache_misses,
              c.flow_cache_burst_pkts);
    counted[0] += c.forwarded;
    counted[1] += c.dropped;
    counted[2] += c.filtered;
    burst_lanes += c.flow_cache_burst_pkts;
  }
  EXPECT_EQ(counted, classes);
  EXPECT_EQ(burst_lanes, kTotal / 2);
  for (const u16 vid : {kCalcVid, kRouterVid}) {
    SCOPED_TRACE(vid);
    const ModuleId m(vid);
    EXPECT_EQ(dp.forwarded(m), reference.forwarded(m));
    EXPECT_EQ(dp.dropped(m), reference.dropped(m));
    EXPECT_EQ(dp.forwarded_relaxed(m), reference.forwarded(m));
    EXPECT_EQ(dp.dropped_relaxed(m), reference.dropped(m));
    EXPECT_EQ(dp.telemetry().TenantSnapshot(vid).count, kTotal / 2);
  }
}

// --- Exporter -----------------------------------------------------------------

TEST(TelemetryExport, PrometheusRoundTripIsExact) {
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  LoadCalc(dp);
  std::vector<Packet> batch(128, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));

  const DataplaneStats stats = CollectDataplaneStats(dp);
  const TelemetrySnapshot tel = dp.telemetry().Snapshot();
  const std::vector<MetricSample> built = BuildMetricSamples(stats, tel);
  const std::vector<MetricSample> parsed =
      ParsePrometheus(RenderPrometheus(stats, tel));
  ASSERT_EQ(built.size(), parsed.size());
  for (std::size_t i = 0; i < built.size(); ++i)
    EXPECT_EQ(built[i], parsed[i]) << built[i].name;
}

TEST(TelemetryExport, SamplesCoverTheSurface) {
  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = false});
  LoadCalc(dp);
  std::vector<Packet> batch(64, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));

  const DataplaneStats stats = CollectDataplaneStats(dp);
  const std::vector<MetricSample> samples =
      BuildMetricSamples(stats, dp.telemetry().Snapshot());
  std::map<std::string, double> by_name;
  for (const MetricSample& m : samples) by_name[m.name] += m.value;
  EXPECT_EQ(by_name.at("menshen_packets_total"), 64.0);
  EXPECT_EQ(by_name.at("menshen_shards"), 1.0);
  EXPECT_GT(by_name.at("menshen_latency_count"), 0.0);
  EXPECT_GT(by_name.at("menshen_tenant_p99_ns"), 0.0);
  EXPECT_EQ(by_name.at("menshen_exec_tier_pkts_total"), 64.0);
  EXPECT_EQ(by_name.at("menshen_tenant_forwarded_total"), 64.0);
}

TEST(TelemetryExport, JsonContainsEverySample) {
  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = false});
  LoadCalc(dp);
  std::vector<Packet> batch(32, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));
  const DataplaneStats stats = CollectDataplaneStats(dp);
  const TelemetrySnapshot tel = dp.telemetry().Snapshot();
  const std::string json = RenderJson(stats, tel);
  for (const MetricSample& m : BuildMetricSamples(stats, tel))
    EXPECT_NE(json.find("\"" + m.name + "\""), std::string::npos) << m.name;
}

/// Three tenants, one per execution tier: a flow-cacheable tag router
/// (vid 6), CALC on the compiled steps (vid 2) and the wide-key load
/// balancer on the interpreted plan (vid 4).
void LoadThreeTiers(Dataplane& dp) {
  LoadCalc(dp, 2);
  dp.ApplyWrites(
      test::MakeTagRouter(StandardAlloc(6, 8, 4, 32), 40, 3).AllWrites());
  CompiledModule lb =
      MustCompile(apps::LoadBalanceSpec(), StandardAlloc(4, 12, 4, 64));
  apps::InstallLoadBalanceEntries(lb, {{0x0A000001, 0x0B000001, 1111, 80, 5}});
  dp.ApplyWrites(lb.AllWrites());
}

std::vector<Packet> ThreeTierBatch() {
  std::vector<Packet> batch;
  for (u16 i = 0; i < 96; ++i) {
    batch.push_back(test::TagRouterPacket(6, i % 4));
    batch.push_back(CalcPacket(2, 1, 7, i));
    batch.push_back(PacketBuilder{}
                        .vid(ModuleId(4))
                        .ipv4(0x0A000001, 0x0B000001)
                        .udp(1111, 80)
                        .Build());
  }
  return batch;
}

TEST(TelemetryExport, ShardRowsCoverEveryTableLine) {
  // Every per-shard family the exporter has always carried; a table
  // that loses a line loses its family here.
  const std::vector<std::string> expected = {
      "menshen_shard_batches_total",        "menshen_shard_packets_total",
      "menshen_shard_forwarded_total",      "menshen_shard_dropped_total",
      "menshen_shard_filtered_total",       "menshen_shard_queue_depth",
      "menshen_shard_busy_ns_total",        "menshen_flow_cache_hits_total",
      "menshen_flow_cache_misses_total",    "menshen_flow_cache_evictions_total",
      "menshen_flow_cache_rejects_total",   "menshen_flow_cache_occupancy",
      "menshen_kernel_pkts_total",          "menshen_kernel_fallback_pkts_total",
      "menshen_kernel_record_fills_total",  "menshen_stream_bursts_total",
      "menshen_stream_pkts_total",          "menshen_egress_pkts_total",
      "menshen_egress_depth",               "menshen_producer_stalls_total"};
  std::vector<std::string> families;
  for (const ShardMetric& m : kShardMetrics) families.emplace_back(m.family);
  EXPECT_EQ(std::multiset<std::string>(families.begin(), families.end()),
            std::multiset<std::string>(expected.begin(), expected.end()));
  // Every ShardCounters field but the two derived burst fields has
  // exactly one line.
  std::vector<u64 Dataplane::ShardCounters::*> fields;
  for (const ShardMetric& m : kShardMetrics) {
    EXPECT_EQ(std::count(fields.begin(), fields.end(), m.field), 0) << m.family;
    fields.push_back(m.field);
  }
  EXPECT_EQ(fields.size() + 2,
            sizeof(Dataplane::ShardCounters) / sizeof(u64));
  for (u64 Dataplane::ShardCounters::*derived :
       {&Dataplane::ShardCounters::flow_cache_burst_pkts,
        &Dataplane::ShardCounters::flow_cache_burst_fallback})
    EXPECT_EQ(std::count(fields.begin(), fields.end(), derived), 0);

  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  LoadThreeTiers(dp);
  (void)dp.ProcessBatch(ThreeTierBatch());
  const DataplaneStats stats = CollectDataplaneStats(dp);
  const TelemetrySnapshot tel = dp.telemetry().Snapshot();
  const std::vector<MetricSample> samples = BuildMetricSamples(stats, tel);
  const std::string json = RenderJson(stats, tel);
  const std::string dump = DumpDataplaneStats(dp);
  const std::size_t header_at = dump.find("  shard ");
  const std::string header =
      dump.substr(header_at, dump.find('\n', header_at) - header_at);
  ASSERT_EQ(stats.shards.size(), 2u);

  for (const ShardMetric& m : kShardMetrics) {
    SCOPED_TRACE(m.family);
    std::vector<const MetricSample*> rows;
    for (const MetricSample& sample : samples)
      if (sample.name == m.family) rows.push_back(&sample);
    ASSERT_EQ(rows.size(), stats.shards.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string shard = std::to_string(i);
      ASSERT_EQ(rows[i]->labels.size(), 1u);
      EXPECT_EQ(rows[i]->labels[0],
                (std::pair<std::string, std::string>{"shard", shard}));
      const u64 value = stats.shards[i].*m.field;
      EXPECT_EQ(rows[i]->value, static_cast<double>(value));
      EXPECT_NE(json.find(std::string("{\"name\":\"") + m.family +
                          "\",\"labels\":{\"shard\":\"" + shard +
                          "\"},\"value\":" + std::to_string(value) + "}"),
                std::string::npos);
    }
    EXPECT_NE(header.find(std::string(" ") + m.column), std::string::npos);
  }

  // The burst-lane fields are derived from hits and misses, on a run
  // that used all three tiers.
  std::array<u64, kExecTierCount> tiers{};
  for (const Dataplane::ShardCounters& c : stats.shards) {
    EXPECT_EQ(c.flow_cache_burst_pkts, c.flow_cache_hits + c.flow_cache_misses);
    EXPECT_EQ(c.flow_cache_burst_fallback, c.flow_cache_misses);
    const std::array<u64, kExecTierCount> t = c.TierPkts();
    for (std::size_t k = 0; k < t.size(); ++k) tiers[k] += t[k];
  }
  EXPECT_GT(tiers[static_cast<u8>(ExecTier::kFlowCacheHit)], 0u);
  EXPECT_GT(tiers[static_cast<u8>(ExecTier::kKernel)], 0u);
  EXPECT_GT(tiers[static_cast<u8>(ExecTier::kInterpreted)], 0u);
}

TEST(TelemetryExport, TierRowsDoNotDependOnHistograms) {
  std::vector<std::vector<MetricSample>> tier_rows;
  for (const bool histograms : {false, true}) {
    Dataplane dp(DataplaneConfig{
        .num_shards = 2,
        .worker_threads = false,
        .telemetry = TelemetryConfig{.latency_histograms = histograms}});
    LoadThreeTiers(dp);
    (void)dp.ProcessBatch(ThreeTierBatch());
    std::vector<MetricSample>& rows = tier_rows.emplace_back();
    for (const MetricSample& m : BuildMetricSamples(
             CollectDataplaneStats(dp), dp.telemetry().Snapshot()))
      if (m.name == "menshen_exec_tier_pkts_total") rows.push_back(m);
  }
  EXPECT_EQ(tier_rows[0], tier_rows[1]);
  double total = 0;
  for (const MetricSample& m : tier_rows[0]) total += m.value;
  EXPECT_EQ(total, static_cast<double>(ThreeTierBatch().size()));
}

TEST(TelemetryExport, ShrinkDropsDeadShardRows) {
  Dataplane dp(DataplaneConfig{
      .num_shards = 3,
      .worker_threads = false,
      .telemetry = TelemetryConfig{.latency_histograms = true,
                                   .trace_sample_every = 4}});
  LoadCalc(dp);
  dp.MigrateTenant(ModuleId(2), 2);
  (void)dp.ProcessBatch(std::vector<Packet>(64, CalcPacket(2, 1, 7, 5)));
  ASSERT_NE(DumpDataplaneStats(dp).find("shard 2 latency"), std::string::npos);

  ASSERT_EQ(dp.ResizeShards(2), 2u);
  const DataplaneStats stats = CollectDataplaneStats(dp);
  const TelemetrySnapshot tel = dp.telemetry().Snapshot();
  const std::vector<MetricSample> samples = BuildMetricSamples(stats, tel);
  double shards = -1;
  double batched_all = 0;
  for (const MetricSample& m : samples) {
    if (m.name == "menshen_shards") shards = m.value;
    if (m.name == "menshen_latency_count" && m.labels.size() == 1 &&
        m.labels[0].second == "batched_all")
      batched_all = m.value;
  }
  ASSERT_EQ(shards, 2.0);
  for (const MetricSample& m : samples) {
    for (const auto& [key, value] : m.labels) {
      if (key != "shard") continue;
      EXPECT_LT(std::stod(value), shards) << m.name;
    }
  }
  // The totals still merge every slot, the dead shard's included.
  EXPECT_EQ(batched_all, 64.0);
  EXPECT_EQ(DumpDataplaneStats(dp).find("shard 2"), std::string::npos);
}

TEST(TelemetryExport, ParserSkipsCommentsAndMalformedLines) {
  const std::vector<MetricSample> got = ParsePrometheus(
      "# HELP x y\n"
      "# TYPE x counter\n"
      "\n"
      "nonsense\n"
      "a_metric 42\n"
      "b_metric{shard=\"3\",path=\"stream\"} 7.5\n");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].name, "a_metric");
  EXPECT_EQ(got[0].value, 42.0);
  EXPECT_EQ(got[1].name, "b_metric");
  ASSERT_EQ(got[1].labels.size(), 2u);
  EXPECT_EQ(got[1].labels[0].first, "shard");
  EXPECT_EQ(got[1].labels[0].second, "3");
  EXPECT_EQ(got[1].labels[1].second, "stream");
  EXPECT_EQ(got[1].value, 7.5);
}

TEST(TelemetryExport, DumpShowsLatencyAndTiers) {
  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = false});
  LoadCalc(dp);
  std::vector<Packet> batch(64, CalcPacket(2, 1, 7, 5));
  (void)dp.ProcessBatch(std::move(batch));
  const std::string dump = DumpDataplaneStats(dp);
  EXPECT_NE(dump.find("latency batched"), std::string::npos);
  EXPECT_NE(dump.find("tiers:"), std::string::npos);
  EXPECT_NE(dump.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace menshen
