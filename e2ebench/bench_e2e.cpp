// bench_e2e: the end-to-end benchmark of the multi-tenant dataplane.
//
//   bench_e2e --workload <name|all> --seed <n> [--seconds <s>] [--trace]
//   bench_e2e --workload <name> --setup-only
//
// Each workload times its cold set-up (compile, admission, load, dataplane
// and worker start) in seven new processes started with --setup-only, each
// of which prints "setup <s> <compile ms> <load ms>" timed from its main.
// It then sets itself up, passes its whole input trace once through the
// dataplane as an untimed warm-up compared byte for byte with
// Pipeline::ProcessUnplanned, and measures for --seconds (default 15).
// It prints one JSON line per metric,
//   {"workload", "metric", "value", "unit", "n"}
// and then {"workload", "correct", "attempted", "failed"}.  --trace times
// a sample of the calls in every second 500 ms window as spans, adds the
// per-layer metrics and writes the spans to TRACE_<workload>.jsonl in the
// working directory.
//
// Exit code: 0 all runs correct, 1 some output or invariant was wrong,
// 2 a workload could not be set up (no result).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "packet/arena.hpp"
#include "run.hpp"

namespace e2e {

using namespace menshen;

void Run::Violation(const std::string& what) {
  ++violations_;
  std::fprintf(stderr, "bench_e2e: %s: %s\n", name_.c_str(), what.c_str());
}

void Run::Print() const {
  for (const Metric& m : metrics_) PrintMetric(name_, m);
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu}\n",
      name_.c_str(), correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  std::fflush(stdout);
}

void Deployment::Deploy(Tenant t, SetupTimes& st) {
  Admit(*mgr, t, st);
  const u64 t0 = NowNs();
  const std::vector<ConfigWrite> w = t.module.AllWrites();
  dp->ApplyWrites(w);
  st.load_ms += static_cast<double>(NowNs() - t0) / 1e6;
  writes.insert(writes.end(), w.begin(), w.end());
  tenants.push_back(std::move(t));
}

void Deployment::Pin(u16 vid, std::size_t shard) {
  if (dp->ShardFor(ModuleId(vid)) != shard) dp->MigrateTenant(ModuleId(vid), shard);
}

Counters Counters::Of(const Dataplane& dp) {
  Counters c;
  for (const Dataplane::ShardCounters& s : dp.CountersSnapshotRelaxed()) {
    c.packets += s.packets;
    c.forwarded += s.forwarded;
    c.dropped += s.dropped;
    c.busy_ns += s.busy_ns;
    c.fc_hits += s.flow_cache_hits;
    c.fc_evictions += s.flow_cache_evictions;
    c.burst_pkts += s.flow_cache_burst_pkts;
    c.burst_fallback += s.flow_cache_burst_fallback;
    c.kernel += s.kernel_pkts;
    c.interp += s.kernel_fallback_pkts;
    c.stalls += s.producer_stalls;
    c.queue_depth += s.queue_depth;
    c.egress_depth += s.egress_depth;
  }
  return c;
}

Counters Counters::Since(const Counters& b) const {
  Counters d;
  d.packets = packets - b.packets;
  d.forwarded = forwarded - b.forwarded;
  d.dropped = dropped - b.dropped;
  d.busy_ns = busy_ns - b.busy_ns;
  d.fc_hits = fc_hits - b.fc_hits;
  d.fc_evictions = fc_evictions - b.fc_evictions;
  d.burst_pkts = burst_pkts - b.burst_pkts;
  d.burst_fallback = burst_fallback - b.burst_fallback;
  d.kernel = kernel - b.kernel;
  d.interp = interp - b.interp;
  d.stalls = stalls - b.stalls;
  return d;
}

void AddFastestPass(Run& run, const FastestPass& fastest, u64 pass_pkts,
                    u64 pass_bytes) {
  if (!fastest.Complete())
    run.Violation("the measured phase did not time every item of a pass");
  const u64 n = fastest.items();
  run.Add("tput_mpps",
          fastest.PerSecond(static_cast<double>(pass_pkts)) / 1e6, "Mpps", n);
  run.Add("tput_gbps",
          fastest.PerSecond(static_cast<double>(pass_bytes) * 8.0) / 1e9,
          "Gbps", n);
  run.Add("lat_p50_us", fastest.LatencyP50Us(), "us", n);
}

void AddWindowMetrics(Run& run, const Windows& win) {
  const Windows::Summary s = win.Summarize();
  run.Add("tput_window_mpps", s.mpps, "Mpps", s.windows);
  run.Add("lat_window_p50_us", s.p50_us, "us", s.lat_samples);
  run.Add("lat_p99_us", s.p99_us, "us", s.lat_samples);
  run.Add("lat_p999_us", s.p999_us, "us", s.lat_samples);
  if (run.opt().trace)
    run.Add("trace_overhead_frac", 1.0 - win.TracedRateRatio(), "ratio",
            s.windows);
}

TierMix AddCounterLayers(Run& run, const Counters& d, u64 elapsed_ns,
                         std::size_t shards, const DepthSampler& depth) {
  const double pk = static_cast<double>(std::max<u64>(d.packets, 1));
  TierMix mix;
  mix.fc = static_cast<double>(d.fc_hits) / pk;
  mix.kernel = static_cast<double>(d.kernel) / pk;
  mix.interp = static_cast<double>(d.interp) / pk;
  run.Add("pipeline.fc_share", mix.fc, "ratio", d.packets);
  run.Add("pipeline.fc_fallback_share",
          d.burst_pkts != 0 ? static_cast<double>(d.burst_fallback) /
                                  static_cast<double>(d.burst_pkts)
                            : 0.0,
          "ratio", d.burst_pkts);
  run.Add("pipeline.fc_evictions_per_kpkt",
          static_cast<double>(d.fc_evictions) * 1e3 / pk, "1/kpkt", d.packets);
  run.Add("pipeline.kernel_share", mix.kernel, "ratio", d.packets);
  run.Add("pipeline.interp_share", mix.interp, "ratio", d.packets);
  run.Add("dataplane.busy_share",
          static_cast<double>(d.busy_ns) /
              (static_cast<double>(elapsed_ns) * static_cast<double>(shards)),
          "ratio", shards);
  run.Add("dataplane.producer_stalls_per_mpkt",
          static_cast<double>(d.stalls) * 1e6 / pk, "1/Mpkt", d.packets);
  const double n = static_cast<double>(std::max<u64>(depth.samples, 1));
  run.Add("dataplane.ingress_depth_mean", depth.ingress_sum / n, "batches",
          depth.samples);
  run.Add("dataplane.egress_depth_mean", depth.egress_sum / n, "pkts",
          depth.samples);
  return mix;
}

namespace {

struct LayerMetric {
  Layer layer;
  const char* name;
};
constexpr LayerMetric kCallLayers[] = {
    {kAlloc, "packet.alloc_ns_per_pkt"},
    {kFill, "packet.fill_ns_per_pkt"},
    {kSubmit, "dataplane.submit_ns_per_pkt"},
    {kPoll, "dataplane.poll_ns_per_pkt"},
    {kCheck, "gen.check_ns_per_pkt"},
    {kRelease, "packet.release_ns_per_pkt"},
};

double NsPerPkt(const Tracer::Total& t) {
  return t.pkts != 0 ? static_cast<double>(t.ns) / static_cast<double>(t.pkts)
                     : 0.0;
}

}  // namespace

void AddSpanLayers(Run& run) {
  for (const LayerMetric& l : kCallLayers) {
    const Tracer::Total& t = run.tracer.total(l.layer);
    run.Add(l.name, NsPerPkt(t), "ns", t.pkts);
  }
}

void AddPipelineLayers(Run& run, const Deployment& d,
                       const std::vector<const Trace*>& traces,
                       std::size_t burst, double dataplane_ns_per_pkt) {
  Pipeline replica;
  for (const ConfigWrite& w : d.writes) replica.ApplyWrite(w);
  PacketArena arena(burst);
  std::vector<ArenaPacket*> b(burst);
  // The dataplane hands its pipeline each burst grouped by tenant, in
  // arrival order within a tenant; the replica gets the same grouping.
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (group, frame)
  std::vector<u16> seen;
  u64 pkts_total = 0;
  const auto pass = [&] {
    u64 ns = 0;
    u64 pkts = 0;
    for (const Trace* t : traces) {
      for (std::size_t at = 0; at < t->size(); at += burst) {
        const std::size_t n = std::min(burst, t->size() - at);
        order.clear();
        seen.clear();
        for (std::size_t k = at; k < at + n; ++k) {
          const u8* f = t->Frame(k).data();
          const u16 vid = static_cast<u16>(
              ((f[offsets::kVlanTci] << 8) | f[offsets::kVlanTci + 1]) & 0xFFF);
          const auto it = std::find(seen.begin(), seen.end(), vid);
          order.emplace_back(static_cast<std::size_t>(it - seen.begin()), k);
          if (it == seen.end()) seen.push_back(vid);
        }
        std::stable_sort(order.begin(), order.end(),
                         [](const auto& x, const auto& y) { return x.first < y.first; });
        if (arena.AllocateBurst(b.data(), n) != n) Fail("replica arena short");
        for (std::size_t k = 0; k < n; ++k) {
          b[k]->Assign(t->Frame(order[k].second));
          StampU64(b[k]->data(), kSeqOffset, order[k].second);
        }
        const u64 t0 = NowNs();
        replica.ProcessStreamBurst(b.data(), n);
        ns += NowNs() - t0;
        arena.ReleaseBurst(b.data(), n);
        pkts += n;
      }
    }
    pkts_total += pkts;
    return static_cast<double>(ns) / static_cast<double>(pkts);
  };
  pass();  // warm the replica's plans and flow cache
  std::vector<double> per_pass;
  pkts_total = 0;
  for (int i = 0; i < 3; ++i) per_pass.push_back(pass());
  const double burst_ns = Median(per_pass);
  run.Add("pipeline.burst_ns_per_pkt", burst_ns, "ns", pkts_total);
  run.Add("dataplane.self_ns_per_pkt", dataplane_ns_per_pkt - burst_ns, "ns",
          pkts_total);
}

void FinishTrace(Run& run, const Windows& win, bool reconcile) {
  const Tracer& tr = run.tracer;
  const Tracer::Total& root = tr.total(kIteration);
  u64 children_ns = 0;
  Layer largest = kIteration;
  u64 largest_ns = 0;
  for (int l = kAlloc; l < kLayerCount; ++l) {
    const u64 ns = tr.total(static_cast<Layer>(l)).ns;
    children_ns += ns;
    if (ns > largest_ns) {
      largest_ns = ns;
      largest = static_cast<Layer>(l);
    }
  }
  const u64 root_self = root.ns > children_ns ? root.ns - children_ns : 0;
  if (root_self > largest_ns) {
    largest_ns = root_self;
    largest = kIteration;
  }
  const double root_pkts = static_cast<double>(std::max<u64>(root.pkts, 1));
  std::fprintf(stderr,
               "bench_e2e: %s: largest self-time layer %s (%.1f ns/pkt, "
               "%.0f%% of traced iteration time)\n",
               run.name().c_str(), kLayerName[largest],
               static_cast<double>(largest_ns) / root_pkts,
               100.0 * static_cast<double>(largest_ns) /
                   static_cast<double>(std::max<u64>(root.ns, 1)));

  if (reconcile) {
    // Spans are sums over traced iterations, so they are compared with the
    // mean rate of the untraced windows, not with their median.
    const double mpps = win.Summarize().mean_mpps;
    const double wall_ns = mpps > 0 ? 1e3 / mpps : 0;
    const double span_ns = static_cast<double>(children_ns) / root_pkts;
    const double ratio = wall_ns > 0 ? span_ns / wall_ns : 0;
    run.Add("trace.span_sum_ratio", ratio, "ratio", root.spans);
    std::fprintf(stderr,
                 "bench_e2e: %s: blocking-path spans %.1f ns/pkt vs untraced "
                 "%.1f ns/pkt (ratio %.3f)%s\n",
                 run.name().c_str(), span_ns, wall_ns, ratio,
                 ratio < 0.9 || ratio > 1.1 ? " -- outside +-10%" : "");
  }

  const std::string path = "TRACE_" + run.name() + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    run.Violation("cannot write " + path);
    return;
  }
  for (const Tracer::Span& s : tr.spans())
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                 "\"start_ns\": %llu, \"end_ns\": %llu}\n",
                 kLayerName[s.layer], s.id, s.parent,
                 static_cast<unsigned long long>(s.start - win.start()),
                 static_cast<unsigned long long>(s.end - win.start()));
  std::fclose(f);
}

void Band(Run& run, const char* what, double v, double lo, double hi) {
  if (v < lo || v > hi) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %.4f outside its band [%.2f, %.2f]",
                  what, v, lo, hi);
    run.Violation(buf);
  }
}

namespace {

/// The process's peak resident set so far; in an `all` run, the peak of
/// this workload and every one before it.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Workload {
  std::unique_ptr<Deployment> (*build)(SetupTimes&);
  void (*run)(Run&, std::unique_ptr<Deployment>);
};

const std::map<std::string, Workload>& Workloads() {
  static const std::map<std::string, Workload> kAll = {
      {"router_zipf", {BuildRouterZipf, RunRouterZipf}},
      {"calc_kernel", {BuildCalcKernel, RunCalcKernel}},
      {"batched_imix", {BuildBatchedImix, RunBatchedImix}},
      {"isolation_churn", {BuildIsolationChurn, RunIsolationChurn}},
      {"chain_3hop", {BuildChain3Hop, RunChain3Hop}},
  };
  return kAll;
}

/// Cold set-ups timed per run, each in a process of its own.
constexpr std::size_t kColdSetups = 7;

/// Runs `bench_e2e --workload <workload> --setup-only` in a new process
/// and returns what it printed; aborts the run if it failed.
std::string SetUpInNewProcess(const std::string& workload) {
  int fds[2];
  if (pipe(fds) != 0) Fail("cannot create a pipe");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::string name = workload;
  char arg0[] = "bench_e2e";
  char arg1[] = "--workload";
  char arg3[] = "--setup-only";
  char* args[] = {arg0, arg1, name.data(), arg3, nullptr};
  pid_t pid = 0;
  // A child's /proc/self/exe is still this program when the exec starts.
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, args, environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
      out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (rc != 0) Fail("cannot start a set-up process");
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    Fail("a set-up process failed");
  return out;
}

/// setup_s, compiler.compile_ms and runtime.load_ms: medians over
/// kColdSetups new processes of the time from main until the dataplane
/// accepts traffic (compile, admission, load, dataplane construction and
/// worker start), and of its compile and load parts.  A process sets a
/// workload up cold only once, so each set-up gets a process of its own.
void TimeColdSetups(Run& run) {
  std::vector<double> total, compile, load;
  for (std::size_t k = 0; k < kColdSetups; ++k) {
    const std::string out = SetUpInNewProcess(run.name());
    double s = 0, c = 0, l = 0;
    if (std::sscanf(out.c_str(), "setup %lf %lf %lf", &s, &c, &l) != 3)
      Fail("a set-up process printed no times");
    total.push_back(s);
    compile.push_back(c);
    load.push_back(l);
  }
  run.Add("setup_s", Median(total), "s", kColdSetups);
  run.Add("compiler.compile_ms", Median(compile), "ms", kColdSetups);
  run.Add("runtime.load_ms", Median(load), "ms", kColdSetups);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name|all> --seed "
               "<n> [--seconds <s>] [--trace]\n"
               "       bench_e2e --workload <name> --setup-only\nworkloads:",
               why);
  for (const auto& [name, w] : Workloads()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = true;
      } else if (a == "--setup-only") {
        o.setup_only = true;
      } else {
        Usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + a).c_str());
    }
  }
  if (o.setup_only) {
    if (!Workloads().contains(o.workload)) Usage("--setup-only needs one workload");
    return o;
  }
  if (o.workload.empty() || !have_seed) Usage("--workload and --seed are required");
  if (!(o.seconds >= 1 && o.seconds <= 600)) Usage("--seconds must be 1..600");
  if (o.workload != "all" && !Workloads().contains(o.workload))
    Usage(("unknown workload " + o.workload).c_str());
  return o;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const u64 main_start = NowNs();
  const Options opt = Parse(argc, argv);
  if (opt.setup_only) {
    SetupTimes st;
    const std::unique_ptr<Deployment> d = Workloads().at(opt.workload).build(st);
    std::printf("setup %.17g %.17g %.17g\n",
                static_cast<double>(NowNs() - main_start) / 1e9, st.compile_ms,
                st.load_ms);
    return 0;
  }
  bool all_correct = true;
  for (const auto& [name, w] : Workloads()) {
    if (opt.workload != "all" && opt.workload != name) continue;
    const double host_before = HostRefMs();
    Run run(name, opt);
    TimeColdSetups(run);
    SetupTimes unused;
    w.run(run, w.build(unused));
    const double host_after = HostRefMs();
    run.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    run.Add("gen.host_ref_ms", (host_before + host_after) / 2, "ms", 2);
    run.Print();
    all_correct = all_correct && run.correct();
  }
  return all_correct ? 0 : 1;
}
