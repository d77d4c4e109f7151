// Multi-hop batched network substrate benchmark (the NetChain-style
// switch-chain topology of section 3.4): one tenant's service chain runs
// NetChain sequencing on the head switch and plain forwarders on the
// rest, and the same packet trace is driven through the chain (a) one
// packet per InjectFromHost call — the old per-packet walk — and (b) as
// whole batches through InjectBatchFromHost, whose hop loop hands each
// device one burst per hop via Pipeline::ProcessStreamBurst.  The ratio
// is the measured end-to-end batching speedup of the network substrate.
//
// Appends `netchain_*` rows to BENCH_throughput.json (run after
// bench_fig11_throughput, which creates the file) for the CI perf gate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "net/network.hpp"
#include "runtime/module_manager.hpp"

namespace menshen {
namespace {

constexpr u16 kVid = 5;
constexpr std::size_t kChainLength = 3;  // head + middle + tail
constexpr std::size_t kFrameBytes = 96;

/// A plain forwarder: send the tenant's traffic (UDP dst 40000) towards
/// `out_port`.
void InstallForwarder(Device& dev, u16 out_port) {
  static const char* kSource = R"(
module fwd {
  field dport : 2 @ 40;
  action go(p) { port(p); }
  table t { key = { dport }; actions = { go }; size = 4; }
}
)";
  const ModuleAllocation alloc = UniformAllocation(
      ModuleId(kVid), 0, params::kNumStages, 0, 4, 0, 0);
  CompiledModule m = CompileDsl(kSource, alloc);
  if (!m.ok()) {
    std::fprintf(stderr, "forwarder failed to compile:\n%s\n",
                 m.diags().ToString().c_str());
    std::exit(1);
  }
  m.AddEntry("t", {{"dport", 40000}}, std::nullopt, "go", {out_port});
  ModuleManager mgr(dev.pipeline());
  const auto result = mgr.Load(m, alloc);
  if (!result.admission.admitted) {
    std::fprintf(stderr, "forwarder not admitted: %s\n",
                 result.admission.reason.c_str());
    std::exit(1);
  }
}

/// Builds the chain: host -> s0 (NetChain sequencer) -> s1 -> ... ->
/// s[K-1] -> edge port 3.
Network BuildChain() {
  Network net;
  std::vector<Device*> devs;
  for (std::size_t i = 0; i < kChainLength; ++i)
    devs.push_back(&net.AddDevice("s" + std::to_string(i)));
  for (std::size_t i = 0; i + 1 < kChainLength; ++i)
    net.Link({devs[i]->name(), 2}, {devs[i + 1]->name(), 1});
  net.AttachHost({"s0", 1}, ModuleId(kVid));

  {
    const auto alloc =
        UniformAllocation(ModuleId(kVid), 0, params::kNumStages, 0, 4, 0, 8);
    CompiledModule m = Compile(apps::NetChainSpec(), alloc);
    ModuleManager mgr(devs[0]->pipeline());
    mgr.Load(m, alloc);
    apps::InstallNetChainEntries(m, /*out_port=*/2);
    mgr.Update(m);
  }
  for (std::size_t i = 1; i < kChainLength; ++i)
    InstallForwarder(*devs[i], i + 1 < kChainLength ? 2 : 3);
  return net;
}

Packet ChainRequest() {
  Packet p = PacketBuilder{}
                 .vid(ModuleId(kVid))
                 .udp(10000, 40000)
                 .frame_size(kFrameBytes)
                 .Build();
  p.bytes().set_u16(46, apps::kNetChainOpSeq);
  return p;
}

struct ChainPoint {
  std::string name;
  double mpps = 0.0;  // injected packets (full chain traversals) per sec
  double l2_gbps = 0.0;
};

constexpr std::size_t kBatch = 256;
constexpr std::size_t kBatches = 256;

ChainPoint MeasurePerPacket() {
  Network net = BuildChain();
  const Packet req = ChainRequest();
  std::size_t delivered = 0;
  // Warm-up: prime table caches and the CAM shadow indexes.
  for (std::size_t i = 0; i < 64; ++i)
    delivered += net.InjectFromHost({"s0", 1}, req).size();

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < kBatches; ++b)
    for (std::size_t i = 0; i < kBatch; ++i)
      delivered += net.InjectFromHost({"s0", 1}, req).size();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (delivered == 0) std::fprintf(stderr, "chain delivered nothing?\n");

  ChainPoint p;
  p.name = "netchain_" + std::to_string(kChainLength) + "hop_" +
           std::to_string(kFrameBytes) + "B_perpkt";
  p.mpps = static_cast<double>(kBatch * kBatches) / seconds / 1e6;
  p.l2_gbps = p.mpps * 1e6 * static_cast<double>(kFrameBytes) * 8.0 / 1e9;
  return p;
}

ChainPoint MeasureBatched() {
  Network net = BuildChain();
  const Packet req = ChainRequest();
  const std::vector<Packet> trace(kBatch, req);
  {
    std::vector<Packet> warm = trace;
    (void)net.InjectBatchFromHost({"s0", 1}, std::move(warm));
  }
  std::size_t delivered = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<Packet> batch = trace;
    delivered +=
        net.InjectBatchFromHost({"s0", 1}, std::move(batch)).size();
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (delivered == 0) std::fprintf(stderr, "chain delivered nothing?\n");

  ChainPoint p;
  p.name = "netchain_" + std::to_string(kChainLength) + "hop_" +
           std::to_string(kFrameBytes) + "B_batched";
  p.mpps = static_cast<double>(kBatch * kBatches) / seconds / 1e6;
  p.l2_gbps = p.mpps * 1e6 * static_cast<double>(kFrameBytes) * 8.0 / 1e9;
  return p;
}

void RunAndEmit() {
  const ChainPoint per_pkt = MeasurePerPacket();
  const ChainPoint batched = MeasureBatched();

  bench::Header("NetChain switch chain — batched network substrate");
  std::printf("%-32s %12s %12s\n", "config", "L2 (Gb/s)", "rate (Mpps)");
  for (const ChainPoint& p : {per_pkt, batched})
    std::printf("%-32s %12.3f %12.3f\n", p.name.c_str(), p.l2_gbps, p.mpps);
  std::printf("batching speedup: %.2fx over %zu hops\n",
              batched.mpps / per_pkt.mpps, kChainLength);

  // Append to the trajectory file bench_fig11_throughput creates.
  std::FILE* f = std::fopen("BENCH_throughput.json", "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot append to BENCH_throughput.json\n");
    return;
  }
  for (const ChainPoint& p : {per_pkt, batched})
    bench::JsonThroughputLine(f, p.name, p.l2_gbps, p.mpps);
  std::fclose(f);
  bench::Note("\nappended netchain rows to BENCH_throughput.json");
}

void BM_ChainBatched(benchmark::State& state) {
  Network net = BuildChain();
  const std::vector<Packet> trace(kBatch, ChainRequest());
  for (auto _ : state) {
    std::vector<Packet> batch = trace;
    benchmark::DoNotOptimize(
        net.InjectBatchFromHost({"s0", 1}, std::move(batch)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ChainBatched)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace menshen

int main(int argc, char** argv) {
  return menshen::bench::BenchMainWithEmit(argc, argv,
                                           [] { menshen::RunAndEmit(); });
}
