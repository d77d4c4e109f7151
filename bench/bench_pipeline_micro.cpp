// Microbenchmarks of the functional pipeline model itself: how fast this
// simulator processes packets, and the cost of its hot elements.  (Not a
// paper figure — throughput of the simulator, quoted in the README.)
//
// Besides the interactive google-benchmark suite, main() hand-measures
// the match-path micro costs and writes BENCH_micro.json (JSON lines of
// {"name", "ns_per_op"}) — the committed baseline tools/bench_diff.py
// gates in CI alongside the throughput rows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "../tests/linear_scan.hpp"
#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "config/daisy_chain.hpp"
#include "dataplane/dataplane.hpp"
#include "runtime/module_manager.hpp"
#include "sim/traffic.hpp"

namespace menshen {
namespace {

Pipeline& LoadedCalcPipeline() {
  static Pipeline pipe;
  static bool done = [] {
    ModuleManager mgr(pipe);
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(2), 0, params::kNumStages, 0, 8, 0, 32);
    CompiledModule m = Compile(apps::CalcSpec(), alloc);
    mgr.Load(m, alloc);
    apps::InstallCalcEntries(m, 1);
    mgr.Update(m);
    return true;
  }();
  (void)done;
  return pipe;
}

// A flow-cacheable tenant for the flow-verdict-cache rows: one-word 2B
// key, constant port/drop actions only (the stock source-routing app
// decrements its hops field, which blocks caching).
Pipeline& LoadedRouterPipeline() {
  static Pipeline pipe;
  static bool done = [] {
    static const ModuleSpec spec = apps::ParseAppDsl(R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 8; }
}
)");
    ModuleManager mgr(pipe);
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(7), 0, params::kNumStages, 0, 8, 0, 0);
    CompiledModule m = Compile(spec, alloc);
    mgr.Load(m, alloc);
    for (u16 t = 0; t < 7; ++t)
      m.AddEntry("routes", {{"tag", t}}, std::nullopt, "fwd",
                 {static_cast<u64>(40 + t)});
    m.AddEntry("routes", {{"tag", 7}}, std::nullopt, "sink", {});
    mgr.Update(m);
    return true;
  }();
  (void)done;
  return pipe;
}

Packet RouterRequest(u16 tag) {
  Packet p = PacketBuilder{}.vid(ModuleId(7)).frame_size(96).Build();
  p.bytes().set_u16(46, tag);
  return p;
}

Packet CalcRequest() {
  Packet p = PacketBuilder{}.vid(ModuleId(2)).frame_size(96).Build();
  p.bytes().set_u16(46, apps::kCalcOpAdd);
  p.bytes().set_u32(48, 1);
  p.bytes().set_u32(52, 2);
  return p;
}

// --- Kernel-tier tenants (micro_kernel_* rows) -------------------------------
//
// None of them is flow-cacheable, so every packet takes the compiled
// steps or the interpreted fallback: calc is a stateless multi-slot
// probe row, netchain a stateful sequencer row, and the ternary ACL a
// wide/ternary row that routes to the interpreted plan path.

Pipeline& LoadedNetChainPipeline() {
  static Pipeline pipe;
  static bool done = [] {
    ModuleManager mgr(pipe);
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(3), 0, params::kNumStages, 0, 8, 0, 32);
    CompiledModule m = Compile(apps::NetChainSpec(), alloc);
    mgr.Load(m, alloc);
    apps::InstallNetChainEntries(m, 2);
    mgr.Update(m);
    return true;
  }();
  (void)done;
  return pipe;
}

Packet NetChainRequest() {
  Packet p =
      PacketBuilder{}.vid(ModuleId(3)).udp(10000, 40000).frame_size(96).Build();
  p.bytes().set_u16(46, apps::kNetChainOpSeq);
  return p;
}

Pipeline& LoadedAclPipeline() {
  static Pipeline pipe;
  static bool done = [] {
    static const ModuleSpec spec = apps::ParseAppDsl(R"(
module acl {
  field src_ip : 4 @ 30;
  action screen { drop(); }
  action pass(p) { port(p); }
  table acl { key = { src_ip }; actions = { screen, pass }; size = 4;
              match = ternary; }
}
)");
    ModuleManager mgr(pipe);
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(4), 0, params::kNumStages, 0, 8, 0, 0);
    CompiledModule m = Compile(spec, alloc);
    mgr.Load(m, alloc);
    m.AddTernaryEntry("acl", {{"src_ip", 0x0A090000}},
                      {{"src_ip", 0xFFFF0000}}, std::nullopt, "screen", {});
    m.AddTernaryEntry("acl", {{"src_ip", 0}}, {{"src_ip", 0}}, std::nullopt,
                      "pass", {1});
    mgr.Update(m);
    return true;
  }();
  (void)done;
  return pipe;
}

Packet AclRequest() {
  return PacketBuilder{}
      .vid(ModuleId(4))
      .ipv4(0x0B000001, 0x0A000002)
      .udp(1, 2)
      .frame_size(96)
      .Build();
}

void BM_FunctionalPacket(benchmark::State& state) {
  Pipeline& pipe = LoadedCalcPipeline();
  const Packet req = CalcRequest();
  for (auto _ : state) {
    Packet copy = req;
    benchmark::DoNotOptimize(pipe.Process(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FunctionalPacket);

void BM_ParseOnly(benchmark::State& state) {
  Pipeline& pipe = LoadedCalcPipeline();
  const Packet req = CalcRequest();
  for (auto _ : state) benchmark::DoNotOptimize(pipe.parser().Parse(req));
}
BENCHMARK(BM_ParseOnly);

// --- Match-path lookups at full occupancy -------------------------------------
//
// The calc module's 3-entry table lets the linear scan early-exit after
// one compare, so the interesting comparison is a CAM at its hardware
// depth: 16 valid entries of one module, probing the highest address
// (the scan's worst case; the hash probes are depth-independent).

const ExactMatchCam& FullCam() {
  static const ExactMatchCam cam = [] {
    ExactMatchCam c;
    for (std::size_t a = 0; a < c.depth(); ++a) {
      CamEntry e;
      e.valid = true;
      e.key = BitVec::FromValue(params::kKeyBits, (a + 1) << 1);
      e.module = ModuleId(2);
      c.Write(a, e);
    }
    return c;
  }();
  return cam;
}

BitVec FullCamProbeKey() {
  return BitVec::FromValue(params::kKeyBits, u64{params::kCamDepth} << 1);
}

const TernaryCam& FullTcam() {
  static const TernaryCam tcam = [] {
    TernaryCam t;
    for (std::size_t a = 0; a < t.depth(); ++a) {
      TcamEntry e;
      e.valid = true;
      e.key = BitVec::FromValue(params::kKeyBits, (a + 1) << 1);
      e.mask = BitVec::FromValue(params::kKeyBits, 0x3E);
      // Two modules own the halves: the narrowed scan walks 8 entries
      // where the linear reference walks 16.
      e.module = ModuleId(a < t.depth() / 2 ? 2 : 3);
      t.Write(a, e);
    }
    return t;
  }();
  return tcam;
}

void BM_CamLookupLinear(benchmark::State& state) {
  const auto& cam = FullCam();
  const BitVec key = FullCamProbeKey();
  for (auto _ : state)
    benchmark::DoNotOptimize(test::LookupLinear(cam, key, ModuleId(2)));
}
BENCHMARK(BM_CamLookupLinear);

void BM_CamLookup(benchmark::State& state) {
  const auto& cam = FullCam();
  const BitVec key = FullCamProbeKey();
  for (auto _ : state)
    benchmark::DoNotOptimize(cam.Lookup(key, ModuleId(2)));
}
BENCHMARK(BM_CamLookup);

void BM_CamLookupWord(benchmark::State& state) {
  const auto& cam = FullCam();
  const u64 key_w0 = FullCamProbeKey().word(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(cam.LookupWord(key_w0, ModuleId(2)));
}
BENCHMARK(BM_CamLookupWord);

void BM_TcamLookupLinear(benchmark::State& state) {
  const auto& tcam = FullTcam();
  const BitVec key = BitVec::FromValue(params::kKeyBits, u64{16} << 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(test::LookupLinear(tcam, key, ModuleId(3)));
}
BENCHMARK(BM_TcamLookupLinear);

void BM_TcamLookupNarrowed(benchmark::State& state) {
  const auto& tcam = FullTcam();
  const BitVec key = BitVec::FromValue(params::kKeyBits, u64{16} << 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(tcam.Lookup(key, ModuleId(3)));
}
BENCHMARK(BM_TcamLookupNarrowed);

void BM_KeyExtraction(benchmark::State& state) {
  Pipeline& pipe = LoadedCalcPipeline();
  const Phv phv = pipe.parser().Parse(CalcRequest());
  for (auto _ : state)
    benchmark::DoNotOptimize(pipe.stage(0).MaskedKeyFor(phv));
}
BENCHMARK(BM_KeyExtraction);

// The key-layout-cache hot path (what ProcessInPlace runs): the cached
// plan skips the key slots the module's mask zeroes and reuses the
// caller's key storage.  The ratio against BM_KeyExtraction is the
// per-stage key-extraction speedup.
void BM_KeyExtractionPlanned(benchmark::State& state) {
  Pipeline& pipe = LoadedCalcPipeline();
  const Phv phv = pipe.parser().Parse(CalcRequest());
  BitVec key;
  for (auto _ : state) {
    pipe.stage(0).MaskedKeyInto(phv, key);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_KeyExtractionPlanned);

// --- Batched vs per-packet (the src/dataplane/ hot path) ----------------------
//
// The same 10k-packet single-tenant workload, processed (a) one packet at
// a time through Pipeline::Process — the per-call path that copies the
// PHV between stages and allocates a fresh lookup key per stage — and
// (b) as one batch through the scratch-buffer-reusing batched path.  The
// ratio of the two is the measured batching speedup.

constexpr std::size_t kWorkloadPackets = 10000;

void BM_PerPacket10k(benchmark::State& state) {
  Pipeline& pipe = LoadedCalcPipeline();
  const Packet req = CalcRequest();
  for (auto _ : state) {
    for (std::size_t i = 0; i < kWorkloadPackets; ++i) {
      Packet copy = req;
      benchmark::DoNotOptimize(pipe.Process(std::move(copy)));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWorkloadPackets));
}
BENCHMARK(BM_PerPacket10k)->Unit(benchmark::kMillisecond);

void BM_Batched10k(benchmark::State& state) {
  Pipeline& pipe = LoadedCalcPipeline();
  const Packet req = CalcRequest();
  std::vector<PipelineResult> results;
  for (auto _ : state) {
    std::vector<Packet> batch(kWorkloadPackets, req);
    results.clear();
    pipe.ProcessBatchInto(std::move(batch), results);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWorkloadPackets));
}
BENCHMARK(BM_Batched10k)->Unit(benchmark::kMillisecond);

// Multi-tenant batch through the sharded front-end.  Arg 0 = shard
// count, arg 1 = worker threads on/off: the sequential path is the
// reference the concurrent engine is pinned against, and the ratio of
// the two is the measured threading speedup (1 on a single-core host —
// the fork/join engine only pays off with real cores).
void BM_ShardedDataplane10k(benchmark::State& state) {
  Dataplane dp(DataplaneConfig{
      .num_shards = static_cast<std::size_t>(state.range(0)),
      .worker_threads = state.range(1) != 0});
  {
    ModuleAllocation alloc =
        UniformAllocation(ModuleId(2), 0, params::kNumStages, 0, 8, 0, 32);
    CompiledModule m = Compile(apps::CalcSpec(), alloc);
    apps::InstallCalcEntries(m, 1);
    dp.ApplyWrites(m.AllWrites());
  }
  const std::vector<Packet> trace = GenerateTenantMix(
      {{2, 96, 1.0}, {3, 96, 1.0}, {4, 96, 1.0}, {5, 96, 1.0}},
      kWorkloadPackets);
  for (auto _ : state) {
    std::vector<Packet> batch = trace;
    benchmark::DoNotOptimize(dp.ProcessBatch(std::move(batch)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWorkloadPackets));
}
BENCHMARK(BM_ShardedDataplane10k)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

// --- BENCH_micro.json: the committed match-path ns/op baseline ----------------

/// Wall-clock ns/op of `fn` over `iters` iterations, after `warmup`
/// unmeasured calls (callers that pre-provision per-call resources must
/// pass their own warmup and size for iters + warmup total calls).
template <typename Fn>
double MeasureNs(Fn&& fn, std::size_t iters, std::size_t warmup) {
  for (std::size_t i = 0; i < warmup; ++i) fn();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const auto ns = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return ns / static_cast<double>(iters);
}

/// Per-packet ns of `ProcessBatchInto` under rx-ring-style buffer
/// recycling: one batch of packets circulates — each timed call consumes
/// it, and between calls (untimed) the packets are moved back out of the
/// results into the next batch.  This is the steady state of a real
/// receive path (NIC rx rings and DPDK mempools deliberately reuse a
/// small descriptor/buffer set that stays cache-resident), so the row
/// measures the pipeline's per-packet work rather than the LLC latency
/// of streaming a many-megabyte pre-built pool that no receive path
/// would ever present.  Timing is per call, so the recycle loop adds
/// two clock reads per thousand packets — noise.
///
/// Reports the MINIMUM per-call time: every call does identical work on
/// identical warm state, so the distribution is (true cost + one-sided
/// scheduler/interrupt noise) and the minimum is the consistent,
/// noise-rejecting estimator of the pipeline's cost.  A mean over calls
/// moves 10-40% run to run with background load on a shared box; the
/// min is stable to ~1 ns.
double RecycledBatchPerPktNs(Pipeline& pipe, std::vector<Packet> batch,
                             std::size_t calls, std::size_t warmup) {
  const std::size_t n = batch.size();
  std::vector<PipelineResult> results;
  results.reserve(n);
  double best_ns = std::numeric_limits<double>::infinity();
  for (std::size_t call = 0; call < calls + warmup; ++call) {
    const auto t0 = std::chrono::steady_clock::now();
    results.clear();
    pipe.ProcessBatchInto(std::move(batch), results);
    benchmark::DoNotOptimize(results);
    const auto t1 = std::chrono::steady_clock::now();
    if (call >= warmup)
      best_ns = std::min(
          best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
    batch.clear();
    for (PipelineResult& r : results)
      if (r.output) batch.push_back(std::move(*r.output));
  }
  return best_ns / static_cast<double>(n);
}

/// Per-packet ns of the batched path over the flow-cacheable router
/// tenant with zipf(s)-distributed tags across a 64-tag space (7
/// installed routes + the drop sink; the remaining tags memoize miss
/// verdicts).  Lower s = flatter reuse = lower hit rate.
double FlowCacheZipfPerPktNs(double s) {
  Pipeline& pipe = LoadedRouterPipeline();
  constexpr std::size_t kCalls = 200;
  constexpr std::size_t kCallWarmup = 25;
  constexpr std::size_t kTagSpace = 64;
  std::vector<double> cdf;
  cdf.reserve(kTagSpace);
  double sum = 0;
  for (std::size_t k = 1; k <= kTagSpace; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf.push_back(sum);
  }
  Rng rng(0x21BF + static_cast<u64>(s * 10.0));
  std::vector<std::vector<Packet>> pool;
  pool.reserve(kCalls + kCallWarmup);
  for (std::size_t c = 0; c < kCalls + kCallWarmup; ++c) {
    std::vector<Packet> batch;
    batch.reserve(1000);
    for (std::size_t i = 0; i < 1000; ++i) {
      const double u = rng.NextDouble() * cdf.back();
      const u16 tag = static_cast<u16>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      batch.push_back(RouterRequest(tag));
    }
    pool.push_back(std::move(batch));
  }
  std::vector<PipelineResult> results;
  std::size_t next = 0;
  return MeasureNs(
             [&] {
               results.clear();
               pipe.ProcessBatchInto(std::move(pool.at(next++)), results);
               benchmark::DoNotOptimize(results);
             },
             kCalls, kCallWarmup) /
         1000.0;
}

/// The cold probe row (micro_flow_cache_burst_hit): a zipf(0.9)
/// router workload over the FULL 16-bit tag space against a 65536-slot
/// verdict cache, so the touched slots (4 MB, plus a 512 KB admission
/// sketch) dwarf the cache hierarchy and nearly every probe is a cold
/// HIT — a memory miss per packet, which the cached pass overlaps by
/// prefetching each slot line four packets ahead.  The verdict set is
/// pre-filled across every tag before measuring, so the row is pure
/// probe cost, not fill cost.  Between timed calls an LLC-sized write
/// sweep evicts the slot array (server parts carry LLCs past that
/// footprint — 260 MB on some cloud hosts — which would otherwise leave
/// the slots warm); every measured call therefore starts DRAM-cold on
/// any host.
Pipeline& ColdRouterPipeline() {
  static Pipeline pipe;
  static bool done = [] {
    pipe.flow_cache().SetSlotsPerRow(65536);
    static const ModuleSpec spec = apps::ParseAppDsl(R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 8; }
}
)");
    ModuleManager mgr(pipe);
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(7), 0, params::kNumStages, 0, 8, 0, 0);
    CompiledModule m = Compile(spec, alloc);
    mgr.Load(m, alloc);
    for (u16 t = 0; t < 7; ++t)
      m.AddEntry("routes", {{"tag", t}}, std::nullopt, "fwd",
                 {static_cast<u64>(40 + t)});
    m.AddEntry("routes", {{"tag", 7}}, std::nullopt, "sink", {});
    mgr.Update(m);
    // Pre-fill: one packet per tag memoizes every verdict (route hits
    // for tags 0-7, miss verdicts for the rest), so the measured calls
    // below probe resident-but-cold slots instead of running fills.
    std::vector<PipelineResult> results;
    for (u32 base = 0; base < 65536; base += 1024) {
      std::vector<Packet> fill;
      fill.reserve(1024);
      for (u32 t = 0; t < 1024; ++t) {
        Packet p = PacketBuilder{}.vid(ModuleId(7)).frame_size(96).Build();
        p.bytes().set_u16(46, static_cast<u16>(base + t));
        fill.push_back(std::move(p));
      }
      results.clear();
      pipe.ProcessBatchInto(std::move(fill), results);
    }
    return true;
  }();
  (void)done;
  return pipe;
}

double FlowCacheColdZipfPerPktNs() {
  Pipeline& pipe = ColdRouterPipeline();
  constexpr std::size_t kCalls = 40;
  constexpr std::size_t kCallWarmup = 4;
  constexpr std::size_t kTagSpace = 65536;
  std::vector<double> cdf;
  cdf.reserve(kTagSpace);
  double sum = 0;
  for (std::size_t k = 1; k <= kTagSpace; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), 0.9);
    cdf.push_back(sum);
  }
  // Fixed seed: the same draw sequence and slot-touch pattern every run.
  Rng rng(0xC01DCA5E);
  std::vector<std::vector<Packet>> pool;
  pool.reserve(kCalls + kCallWarmup);
  for (std::size_t c = 0; c < kCalls + kCallWarmup; ++c) {
    std::vector<Packet> batch;
    batch.reserve(1000);
    for (std::size_t i = 0; i < 1000; ++i) {
      const double u = rng.NextDouble() * cdf.back();
      const u16 tag = static_cast<u16>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      Packet p = PacketBuilder{}.vid(ModuleId(7)).frame_size(96).Build();
      p.bytes().set_u16(46, tag);
      batch.push_back(std::move(p));
    }
    pool.push_back(std::move(batch));
  }
  // One cache line per 64 B across 512 MB: the sweep evicts any LLC in
  // deployment (shared across both siblings, allocated once).
  static std::vector<u64>& thrash = *new std::vector<u64>(64 * 1024 * 1024);
  std::vector<PipelineResult> results;
  double best_ns = std::numeric_limits<double>::infinity();
  for (std::size_t call = 0; call < kCalls + kCallWarmup; ++call) {
    for (std::size_t i = 0; i < thrash.size(); i += 8) thrash[i] = call + i;
    benchmark::DoNotOptimize(thrash.data());
    const auto t0 = std::chrono::steady_clock::now();
    results.clear();
    pipe.ProcessBatchInto(std::move(pool.at(call)), results);
    benchmark::DoNotOptimize(results);
    const auto t1 = std::chrono::steady_clock::now();
    if (call >= kCallWarmup)
      best_ns = std::min(
          best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  return best_ns / 1000.0;
}

/// The telemetry-overhead pair (micro_telemetry_off / _overhead): the
/// same single-tenant workload through two single-shard dataplanes, one
/// with latency histograms off (and no sampling — the hot path takes no
/// timestamp at all), one with the default histograms-on config.  Each
/// sample is a full Dataplane::ProcessBatch round trip (the layer the
/// telemetry hooks live in: Submit stamp -> shard execute -> record), on
/// one shard without worker threads, so the number is the engine's own
/// cost without scheduler noise.  The two dataplanes are measured
/// interleaved, one call each per round with the order alternating, so
/// host drift moves both rows alike instead of their ratio, and each row
/// is its side's 10th-percentile call: two identical dataplanes measured
/// this way agree within 1%, where the best call of each differed by up
/// to 6%.  tools/bench_diff.py gates overhead <= 1.02x off within the
/// same run.  The trace copy per call is untimed.
struct TelemetryPair {
  double off_ns = 0;
  double on_ns = 0;
};

TelemetryPair TelemetryPerPktNs() {
  constexpr std::size_t kRounds = 1000;
  constexpr std::size_t kWarmup = 25;
  const auto loaded = [](bool histograms) {
    auto dp = std::make_unique<Dataplane>(DataplaneConfig{
        .num_shards = 1,
        .worker_threads = false,
        .telemetry = TelemetryConfig{.latency_histograms = histograms}});
    ModuleAllocation alloc =
        UniformAllocation(ModuleId(2), 0, params::kNumStages, 0, 8, 0, 32);
    CompiledModule m = Compile(apps::CalcSpec(), alloc);
    apps::InstallCalcEntries(m, 1);
    dp->ApplyWrites(m.AllWrites());
    return dp;
  };
  const std::array<std::unique_ptr<Dataplane>, 2> dps = {loaded(false),
                                                         loaded(true)};
  const std::vector<Packet> trace(1000, CalcRequest());
  std::array<std::vector<double>, 2> ns;
  for (std::size_t round = 0; round < kRounds + kWarmup; ++round) {
    for (std::size_t turn = 0; turn < 2; ++turn) {
      const std::size_t side = (round + turn) % 2;
      std::vector<Packet> batch = trace;
      const auto t0 = std::chrono::steady_clock::now();
      auto results = dps[side]->ProcessBatch(std::move(batch));
      benchmark::DoNotOptimize(results);
      const auto t1 = std::chrono::steady_clock::now();
      if (round >= kWarmup)
        ns[side].push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
  }
  const auto decile = [&](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + kRounds / 10, v.end());
    return v[kRounds / 10] / static_cast<double>(trace.size());
  };
  return {decile(ns[0]), decile(ns[1])};
}

void EmitMicroJson() {
  Pipeline& pipe = LoadedCalcPipeline();
  const Phv phv = pipe.parser().Parse(CalcRequest());
  Stage& stage = pipe.stage(0);
  const auto& cam = FullCam();
  const BitVec key = FullCamProbeKey();
  const u64 key_w0 = key.word(0);
  const auto& tcam = FullTcam();
  const BitVec tkey = BitVec::FromValue(params::kKeyBits, u64{16} << 1);
  const ModuleId m(2);
  constexpr std::size_t kIters = 2'000'000;
  constexpr std::size_t kWarmup = kIters / 8;

  struct Row {
    const char* name;
    double ns;
  };
  BitVec scratch;
  std::vector<PipelineResult> results;
  const Packet req = CalcRequest();
  Phv parse_phv;
  const ModuleExecPlan& exec_plan = pipe.ExecPlanFor(m);
  const TelemetryPair telemetry = TelemetryPerPktNs();
  const Row rows[] = {
      {"micro_cam_lookup_linear",
       MeasureNs([&] { benchmark::DoNotOptimize(test::LookupLinear(cam, key, m)); },
                 kIters, kWarmup)},
      {"micro_cam_lookup_indexed",
       MeasureNs([&] { benchmark::DoNotOptimize(cam.Lookup(key, m)); },
                 kIters, kWarmup)},
      {"micro_cam_lookup_word",
       MeasureNs([&] { benchmark::DoNotOptimize(cam.LookupWord(key_w0, m)); },
                 kIters, kWarmup)},
      {"micro_tcam_lookup_linear",
       MeasureNs(
           [&] { benchmark::DoNotOptimize(test::LookupLinear(tcam, tkey, ModuleId(3))); },
           kIters, kWarmup)},
      {"micro_tcam_lookup_narrowed",
       MeasureNs(
           [&] { benchmark::DoNotOptimize(tcam.Lookup(tkey, ModuleId(3))); },
           kIters, kWarmup)},
      {"micro_masked_key_planned", MeasureNs(
                                       [&] {
                                         stage.MaskedKeyInto(phv, scratch);
                                         benchmark::DoNotOptimize(scratch);
                                       },
                                       kIters, kWarmup)},
      // Liveness-pruned parse (compiled execution plan) vs the linear
      // full parse it is pinned against — the per-packet parser cost the
      // batched path pays.
      {"micro_parse_full", MeasureNs(
                               [&] {
                                 pipe.parser().ParseInto(req, parse_phv);
                                 benchmark::DoNotOptimize(parse_phv);
                               },
                               kIters, kWarmup)},
      {"micro_parse_plan", MeasureNs(
                               [&] {
                                 pipe.parser().ParseIntoPlanned(
                                     req, parse_phv, exec_plan.parse);
                                 benchmark::DoNotOptimize(parse_phv);
                               },
                               kIters, kWarmup)},
      {"micro_batched_pipeline_per_pkt", [&] {
         // rx-ring recycling (see RecycledBatchPerPktNs): the batch
         // circulates through the results and back, as a real receive
         // path would reuse its buffer set.
         return RecycledBatchPerPktNs(pipe, std::vector<Packet>(1000, req),
                                      200, 25);
       }()},
      {"micro_module_run", [&] {
         // Per-packet cost when the batch interleaves tenants in blocks
         // of 100 (one loaded calc tenant + three unconfigured ones):
         // exercises the run segmentation — per-run BeginRun resolution,
         // constant-key runs for the no-table tenants, and the run
         // switch overhead — rather than one endless single-tenant run.
         std::vector<Packet> mixed;
         mixed.reserve(1000);
         const std::array<u16, 4> mix_vids = {2, 3, 4, 5};
         for (std::size_t blk = 0; blk < 10; ++blk)
           for (const u16 vid : mix_vids)
             for (std::size_t i = 0; i < 25; ++i) {
               Packet p = req;
               p.set_vid(ModuleId(vid));
               mixed.push_back(std::move(p));
             }
         return RecycledBatchPerPktNs(pipe, std::move(mixed), 200, 25);
       }()},
      // The flow-verdict cache hit path proper (pipeline/flow_cache):
      // the per-packet work that REPLACES the five-stage match+action
      // walk once a verdict is resident — gather and hash the probing
      // stages' key words, one direct-mapped probe (with its sketch
      // count), replay the matched entries' compiled plans, tally the
      // counter deltas.  Parse and deparse are shared with the uncached
      // path (micro_parse_* rows); the comparison partner is
      // micro_module_run's match+action work.
      {"micro_flow_cache_hit", [&] {
         Pipeline& rp = LoadedRouterPipeline();
         const ModuleId module(7);
         {  // Fill the hot flow's verdict through the normal front door.
           Packet fill = RouterRequest(3);
           rp.Process(std::move(fill));
         }
         const ModuleExecPlan& rplan = rp.ExecPlanFor(module);
         FlowRowState& frow = rp.FlowRowFor(module);
         const Packet hot = RouterRequest(3);
         Phv hot_phv;
         rp.parser().ParseIntoPlanned(hot, hot_phv, rplan.parse);
         std::array<const VliwPlan*, params::kNumStages> plans{};
         for (std::size_t s = 0; s < rp.num_stages(); ++s)
           plans[s] = rp.stage(s).vliw_plans_data();
         const u64 seed = FlowVerdictCache::HashSeed(module);
         FlowVerdictCache::RunTally tally;
         return MeasureNs(
             [&] {
               FlowVerdictCache::KeyWordArray words{};
               u64 h = seed;
               for (u8 g = 0; g < rplan.gather.count; ++g) {
                 const std::size_t s = rplan.gather.stages[g];
                 words[s] = frow.keys[s].Word(hot_phv);
                 h = FlowVerdictCache::HashWord(h, words[s]);
               }
               const FlowVerdictCache::Probe probe = rp.flow_cache().Lookup(
                   frow, module, words, FlowVerdictCache::FinishHash(h));
               FlowVerdictCache::Replay(*probe.slot, plans.data(), hot_phv);
               FlowVerdictCache::Tally(tally, *probe.slot);
               if (tally.lanes == FlowVerdictCache::kTallyChunk) tally = {};
               benchmark::DoNotOptimize(probe.hit);
               benchmark::DoNotOptimize(hot_phv);
             },
             kIters, kWarmup);
       }()},
      // Zipf sweep: realistic skewed reuse across 64 flows.  s=1.1 keeps
      // the cache hot; s=0.9 flattens the distribution toward the
      // miss/fill path.
      {"micro_flow_cache_zipf_s0.9", FlowCacheZipfPerPktNs(0.9)},
      {"micro_flow_cache_zipf_s1.1", FlowCacheZipfPerPktNs(1.1)},
      // Probing the cold 16-bit tag space (see FlowCacheColdZipfPerPktNs).
      {"micro_flow_cache_burst_hit", FlowCacheColdZipfPerPktNs()},
      // --- Kernel-tier rows --------------------------------------------------
      // Stateless multi-slot probe row (calc).
      {"micro_kernel_multislot",
       RecycledBatchPerPktNs(LoadedCalcPipeline(),
                             std::vector<Packet>(1000, CalcRequest()), 200,
                             25)},
      // Stateful sequencer row (netchain): the compiled steps carry the
      // stateful segment.
      {"micro_kernel_stateful",
       RecycledBatchPerPktNs(LoadedNetChainPipeline(),
                             std::vector<Packet>(1000, NetChainRequest()), 200,
                             25)},
      // Wide/ternary row (ternary ACL): no compiled steps, so it runs
      // the interpreted plan fallback.
      {"micro_kernel_wide_fallback",
       RecycledBatchPerPktNs(LoadedAclPipeline(),
                             std::vector<Packet>(1000, AclRequest()), 200,
                             25)},
      // --- Telemetry overhead (runtime/telemetry) ------------------------------
      // Same workload through the full dataplane engine with histograms
      // off vs the default histograms-on config, measured interleaved
      // (TelemetryPerPktNs).  bench_diff.py gates overhead <= 1.02x off
      // within this run (the <=2% guarantee) in addition to the normal
      // cross-run drift gate on both rows.
      {"micro_telemetry_off", telemetry.off_ns},
      {"micro_telemetry_overhead", telemetry.on_ns},
  };

  std::FILE* f = std::fopen("BENCH_micro.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_micro.json\n");
    return;
  }
  std::printf("\nmatch-path micro costs (BENCH_micro.json):\n");
  for (const Row& r : rows) {
    std::fprintf(f, "{\"name\": \"%s\", \"ns_per_op\": %.2f}\n", r.name, r.ns);
    std::printf("  %-32s %8.1f ns/op\n", r.name, r.ns);
  }
  std::fclose(f);
}

}  // namespace
}  // namespace menshen

int main(int argc, char** argv) {
  return menshen::bench::BenchMainWithEmit(argc, argv,
                                           [] { menshen::EmitMicroJson(); });
}
