// Async ingress benchmark: N producer threads submitting batch tickets
// into the per-shard MPSC rings vs the single-dispatcher baseline.
//
// The old engine funneled every batch through one ProcessBatch caller —
// the front-end bottleneck the ingress subsystem removes.  Here the same
// four-tenant calc workload is driven (a) by one dispatcher thread
// calling ProcessBatch in a loop, and (b) by four producer threads, each
// owning one tenant, submitting tickets asynchronously with a small
// in-flight window.  The ratio is the measured multi-producer ingress
// speedup on this host (≈1 on a single-core container; ≥2x expected on a
// multi-core host, where the scatter work itself parallelizes).  A queue
// depth sweep shows how much in-flight buffering the rings need before
// backpressure stops mattering.
//
// Appends `ingress_*` rows to BENCH_throughput.json (run after
// bench_fig11_throughput, which creates the file) for the CI perf gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dataplane/dataplane.hpp"
#include "packet/arena.hpp"
#include "sim/traffic.hpp"

namespace menshen {
namespace {

constexpr std::size_t kFrameBytes = 96;
constexpr std::size_t kShards = 4;
constexpr std::size_t kTicketPackets = 1024;
constexpr std::size_t kTicketsPerProducer = 48;
constexpr std::size_t kWindow = 4;  // in-flight tickets per producer

void InstallTenants(Dataplane& dp) {
  for (u16 vid = 2; vid <= 5; ++vid) {
    const std::size_t slot = vid - 2;
    ModuleAllocation alloc =
        UniformAllocation(ModuleId(vid), 0, params::kNumStages, slot * 4, 4,
                          static_cast<u8>(slot * 32), 32);
    CompiledModule m = Compile(apps::CalcSpec(), alloc);
    apps::InstallCalcEntries(m, static_cast<u16>(10 + slot));
    dp.ApplyWrites(m.AllWrites());
  }
}

struct IngressPoint {
  std::string name;
  double mpps = 0.0;
  double l2_gbps = 0.0;
};

IngressPoint FinishPoint(std::string name, std::size_t packets,
                         double seconds) {
  IngressPoint p;
  p.name = std::move(name);
  p.mpps = static_cast<double>(packets) / seconds / 1e6;
  p.l2_gbps = p.mpps * 1e6 * static_cast<double>(kFrameBytes) * 8.0 / 1e9;
  return p;
}

/// Baseline: one dispatcher thread, synchronous ProcessBatch — every
/// batch rendezvouses with the caller before the next one starts.
IngressPoint MeasureSingleDispatcher() {
  Dataplane dp(DataplaneConfig{.num_shards = kShards, .worker_threads = true});
  InstallTenants(dp);
  const std::vector<Packet> trace = GenerateTenantMix(
      {{2, kFrameBytes, 1.0},
       {3, kFrameBytes, 1.0},
       {4, kFrameBytes, 1.0},
       {5, kFrameBytes, 1.0}},
      kTicketPackets);
  {
    std::vector<Packet> warm = trace;
    (void)dp.ProcessBatch(std::move(warm));
  }
  constexpr std::size_t kBatches = kTicketsPerProducer * 4;
  std::vector<std::vector<Packet>> batches(kBatches, trace);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < kBatches; ++b)
    benchmark::DoNotOptimize(dp.ProcessBatch(std::move(batches[b])));
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return FinishPoint("ingress_96B_1disp", kBatches * kTicketPackets, seconds);
}

/// Four producers, one tenant each, submitting tickets with a bounded
/// in-flight window through the per-shard MPSC rings.
IngressPoint MeasureProducers(std::size_t producers,
                              std::size_t queue_depth) {
  Dataplane dp(DataplaneConfig{.num_shards = kShards,
                               .worker_threads = true,
                               .ingress_queue_depth = queue_depth});
  InstallTenants(dp);

  std::vector<std::vector<Packet>> traces;
  for (std::size_t p = 0; p < producers; ++p)
    traces.push_back(GenerateTenantMix(
        {{static_cast<u16>(2 + (p % 4)), kFrameBytes, 1.0}}, kTicketPackets));
  {
    std::vector<Packet> warm = traces[0];
    (void)dp.ProcessBatch(std::move(warm));
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      std::deque<std::future<std::vector<PipelineResult>>> window;
      for (std::size_t t = 0; t < kTicketsPerProducer; ++t) {
        BatchTicket ticket;
        ticket.batch = traces[p];
        window.push_back(dp.Submit(std::move(ticket)));
        while (window.size() >= kWindow) {
          benchmark::DoNotOptimize(window.front().get());
          window.pop_front();
        }
      }
      while (!window.empty()) {
        benchmark::DoNotOptimize(window.front().get());
        window.pop_front();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return FinishPoint(
      "ingress_96B_" + std::to_string(producers) + "prod_d" +
          std::to_string(queue_depth),
      producers * kTicketsPerProducer * kTicketPackets, seconds);
}

/// Run-to-completion streaming: producers fill arena bursts in place,
/// run them to completion on their own core (no worker threads — the
/// producer IS the forwarding core, serialized per shard, parallel
/// across shards), and recycle buffers as the egress queues drain — no
/// result gather, no futures, no batch copies, no thread handoffs.
IngressPoint MeasureStream(std::size_t producers, std::size_t shards) {
  Dataplane dp(DataplaneConfig{.num_shards = shards,
                               .worker_threads = false,
                               .ingress_queue_depth = 256});
  InstallTenants(dp);

  constexpr std::size_t kBurst = 64;
  std::vector<std::vector<Packet>> traces;
  for (std::size_t p = 0; p < producers; ++p)
    traces.push_back(GenerateTenantMix(
        {{static_cast<u16>(2 + (p % 4)), kFrameBytes, 1.0}}, kTicketPackets));

  std::vector<std::unique_ptr<PacketArena>> arenas;
  for (std::size_t p = 0; p < producers; ++p)
    arenas.push_back(std::make_unique<PacketArena>(4096));

  const auto produce = [&](std::size_t p, std::size_t tickets) {
    PacketArena& arena = *arenas[p];
    const std::vector<Packet>& trace = traces[p];
    std::vector<ArenaPacket*> egress;
    ArenaPacket* burst[kBurst];
    for (std::size_t t = 0; t < tickets; ++t) {
      for (std::size_t off = 0; off < trace.size(); off += kBurst) {
        const std::size_t n = std::min(kBurst, trace.size() - off);
        std::size_t have = 0;
        while (have < n) {
          have += arena.AllocateBurst(burst + have, n - have);
          if (have < n) {  // arena cap reached: recycle consumed egress
            egress.clear();
            if (dp.PollEgress(egress) != 0)
              ReleaseToOwners(egress.data(), egress.size());
            else
              std::this_thread::yield();
          }
        }
        for (std::size_t i = 0; i < n; ++i)
          burst[i]->Assign(trace[off + i].bytes().bytes());
        dp.SubmitStream(burst, n);
      }
      egress.clear();
      if (dp.PollEgress(egress) != 0)
        ReleaseToOwners(egress.data(), egress.size());
    }
    // Drain this producer's remaining buffers back to the arena.
    while (arena.outstanding() != 0) {
      egress.clear();
      if (dp.PollEgress(egress) != 0)
        ReleaseToOwners(egress.data(), egress.size());
      else
        std::this_thread::yield();
    }
  };

  for (std::size_t p = 0; p < producers; ++p) produce(p, 1);  // warm

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p)
    threads.emplace_back([&, p] { produce(p, kTicketsPerProducer); });
  for (std::thread& t : threads) t.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return FinishPoint("stream_96B_" + std::to_string(shards) + "core_" +
                         std::to_string(producers) + "prod",
                     producers * kTicketsPerProducer * kTicketPackets,
                     seconds);
}

/// Zipf-skewed streaming over a flow-cacheable router tenant: the
/// ladder-tier mix row.  One producer, one shard, zipf(0.9) tags over a
/// 64-tag space — most packets resolve as flow-verdict cache hits, the
/// cold tail as misses through the run's kernel steps.  Alongside
/// throughput the row reports fc_share (flow-cache hits / streamed
/// packets, deltas across the measured phase), which
/// tools/bench_diff.py gates against the committed baseline share: a
/// change that silently pushes zipf traffic off the memoization tier
/// fails the bench gate even if raw Mpps survives.
struct ZipfStreamPoint {
  IngressPoint pt;
  double fc_share = 0;
  u64 stream_pkts = 0;
  u64 fc_hits = 0;
  u64 fc_misses = 0;
  u64 burst_pkts = 0;
  u64 burst_fallback = 0;
  u64 kernel_pkts = 0;
  u64 kernel_fallback_pkts = 0;
};

ZipfStreamPoint MeasureStreamZipf() {
  Dataplane dp(DataplaneConfig{.num_shards = 1,
                               .worker_threads = false,
                               .ingress_queue_depth = 256});
  {
    static const ModuleSpec spec = apps::ParseAppDsl(R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 8; }
}
)");
    ModuleAllocation alloc =
        UniformAllocation(ModuleId(2), 0, params::kNumStages, 0, 8, 0, 0);
    CompiledModule m = Compile(spec, alloc);
    for (u16 t = 0; t < 7; ++t)
      m.AddEntry("routes", {{"tag", t}}, std::nullopt, "fwd",
                 {static_cast<u64>(40 + t)});
    m.AddEntry("routes", {{"tag", 7}}, std::nullopt, "sink", {});
    dp.ApplyWrites(m.AllWrites());
  }

  constexpr std::size_t kTagSpace = 64;
  std::vector<double> cdf;
  cdf.reserve(kTagSpace);
  double sum = 0;
  for (std::size_t k = 1; k <= kTagSpace; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), 0.9);
    cdf.push_back(sum);
  }
  Rng rng(0x21BF);
  std::vector<Packet> trace;
  trace.reserve(kTicketPackets);
  for (std::size_t i = 0; i < kTicketPackets; ++i) {
    const double u = rng.NextDouble() * cdf.back();
    const u16 tag = static_cast<u16>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    Packet p = PacketBuilder{}.vid(ModuleId(2)).frame_size(kFrameBytes).Build();
    p.bytes().set_u16(46, tag);
    trace.push_back(std::move(p));
  }

  PacketArena arena(4096);
  constexpr std::size_t kBurst = 64;
  const auto produce = [&](std::size_t tickets) {
    std::vector<ArenaPacket*> egress;
    ArenaPacket* burst[kBurst];
    for (std::size_t t = 0; t < tickets; ++t) {
      for (std::size_t off = 0; off < trace.size(); off += kBurst) {
        const std::size_t n = std::min(kBurst, trace.size() - off);
        std::size_t have = 0;
        while (have < n) {
          have += arena.AllocateBurst(burst + have, n - have);
          if (have < n) {
            egress.clear();
            if (dp.PollEgress(egress) != 0)
              ReleaseToOwners(egress.data(), egress.size());
            else
              std::this_thread::yield();
          }
        }
        for (std::size_t i = 0; i < n; ++i)
          burst[i]->Assign(trace[off + i].bytes().bytes());
        dp.SubmitStream(burst, n);
      }
      egress.clear();
      if (dp.PollEgress(egress) != 0)
        ReleaseToOwners(egress.data(), egress.size());
    }
    while (arena.outstanding() != 0) {
      egress.clear();
      if (dp.PollEgress(egress) != 0)
        ReleaseToOwners(egress.data(), egress.size());
      else
        std::this_thread::yield();
    }
  };

  produce(1);  // warm: fills the verdict cache's head tags
  const auto sum_counters = [&] {
    ZipfStreamPoint acc;
    for (const Dataplane::ShardCounters& c : dp.CountersSnapshot()) {
      acc.stream_pkts += c.stream_pkts;
      acc.fc_hits += c.flow_cache_hits;
      acc.fc_misses += c.flow_cache_misses;
      acc.burst_pkts += c.flow_cache_burst_pkts;
      acc.burst_fallback += c.flow_cache_burst_fallback;
      acc.kernel_pkts += c.kernel_pkts;
      acc.kernel_fallback_pkts += c.kernel_fallback_pkts;
    }
    return acc;
  };
  const ZipfStreamPoint before = sum_counters();

  const auto start = std::chrono::steady_clock::now();
  produce(kTicketsPerProducer);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  ZipfStreamPoint p = sum_counters();
  p.stream_pkts -= before.stream_pkts;
  p.fc_hits -= before.fc_hits;
  p.fc_misses -= before.fc_misses;
  p.burst_pkts -= before.burst_pkts;
  p.burst_fallback -= before.burst_fallback;
  p.kernel_pkts -= before.kernel_pkts;
  p.kernel_fallback_pkts -= before.kernel_fallback_pkts;
  if (p.stream_pkts != 0)
    p.fc_share = static_cast<double>(p.fc_hits) /
                 static_cast<double>(p.stream_pkts);
  p.pt = FinishPoint("stream_96B_zipf_1core_1prod",
                     kTicketsPerProducer * kTicketPackets, seconds);
  return p;
}

void RunAndEmit() {
  const IngressPoint base = MeasureSingleDispatcher();
  std::vector<IngressPoint> pts{base};
  for (const std::size_t depth : {std::size_t{16}, std::size_t{64},
                                  std::size_t{256}})
    pts.push_back(MeasureProducers(4, depth));
  pts.push_back(MeasureStream(1, 1));
  pts.push_back(MeasureStream(4, 4));
  const ZipfStreamPoint zipf = MeasureStreamZipf();
  pts.push_back(zipf.pt);

  bench::Header("Async ingress — N producers vs 1 dispatcher "
                "(queue-depth sweep)");
  std::printf("%-32s %12s %12s\n", "config", "L2 (Gb/s)", "rate (Mpps)");
  for (const IngressPoint& p : pts)
    std::printf("%-32s %12.3f %12.3f\n", p.name.c_str(), p.l2_gbps, p.mpps);
  double best = 0;
  for (std::size_t i = 1; i < pts.size(); ++i)
    best = std::max(best, pts[i].mpps);
  std::printf("aggregate 4-producer speedup over 1 dispatcher: %.2fx "
              "(%zu hardware threads)\n",
              best / base.mpps,
              static_cast<std::size_t>(std::thread::hardware_concurrency()));

  std::FILE* f = std::fopen("BENCH_throughput.json", "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot append to BENCH_throughput.json\n");
    return;
  }
  for (const IngressPoint& p : pts) {
    if (p.name == zipf.pt.name) {
      // The zipf row carries the flow-cache tier share so bench_diff can
      // gate it against the committed baseline share.
      std::fprintf(f,
                   "{\"name\": \"%s\", \"gbps\": %.4f, \"mpps\": %.4f, "
                   "\"fc_share\": %.4f}\n",
                   p.name.c_str(), p.l2_gbps, p.mpps, zipf.fc_share);
    } else {
      bench::JsonThroughputLine(f, p.name, p.l2_gbps, p.mpps);
    }
  }
  std::fclose(f);
  bench::Note("\nappended ingress rows to BENCH_throughput.json");

  // Ladder-tier mix artifact: where the zipf streaming row's packets
  // resolved (flow-cache burst tier vs kernel/plan ladder).  Uploaded by
  // CI next to the bench JSONs so a tier shift is inspectable without a
  // re-run.
  std::FILE* tf = std::fopen("TIER_mix.json", "w");
  if (tf != nullptr) {
    std::fprintf(
        tf,
        "{\"row\": \"%s\", \"stream_pkts\": %llu, \"flow_cache_hits\": %llu, "
        "\"flow_cache_misses\": %llu, \"flow_cache_burst_pkts\": %llu, "
        "\"flow_cache_burst_fallback\": %llu, \"kernel_pkts\": %llu, "
        "\"kernel_fallback_pkts\": %llu, \"fc_share\": %.4f}\n",
        zipf.pt.name.c_str(),
        static_cast<unsigned long long>(zipf.stream_pkts),
        static_cast<unsigned long long>(zipf.fc_hits),
        static_cast<unsigned long long>(zipf.fc_misses),
        static_cast<unsigned long long>(zipf.burst_pkts),
        static_cast<unsigned long long>(zipf.burst_fallback),
        static_cast<unsigned long long>(zipf.kernel_pkts),
        static_cast<unsigned long long>(zipf.kernel_fallback_pkts),
        zipf.fc_share);
    std::fclose(tf);
    std::printf("zipf ladder-tier mix: fc_share %.3f (burst lanes %llu, "
                "fallback %llu) -> TIER_mix.json\n",
                zipf.fc_share,
                static_cast<unsigned long long>(zipf.burst_pkts),
                static_cast<unsigned long long>(zipf.burst_fallback));
  }
}

void BM_SubmitWindowed(benchmark::State& state) {
  Dataplane dp(DataplaneConfig{.num_shards = kShards, .worker_threads = true});
  InstallTenants(dp);
  const std::vector<Packet> trace = GenerateTenantMix(
      {{2, kFrameBytes, 1.0}, {3, kFrameBytes, 1.0}}, kTicketPackets);
  for (auto _ : state) {
    BatchTicket ticket;
    ticket.batch = trace;
    benchmark::DoNotOptimize(dp.Submit(std::move(ticket)).get());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTicketPackets));
}
BENCHMARK(BM_SubmitWindowed)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace menshen

int main(int argc, char** argv) {
  return menshen::bench::BenchMainWithEmit(argc, argv,
                                           [] { menshen::RunAndEmit(); });
}
