// What one workload run shares: its options, the metrics and failures it
// reports, the deployed system under test, and the helpers that turn
// measurements into metric lines.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "tenants.hpp"

namespace e2e {

inline constexpr std::size_t kTracePackets = 65'536;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 15;
  bool trace = false;
  bool setup_only = false;  // time one set-up from main, print it, exit
};

/// The metrics, failures and trace of one workload run.
class Run {
 public:
  Run(std::string name, const Options& opt)
      : tracer(opt.trace), name_(std::move(name)), opt_(opt) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Options& opt() const { return opt_; }

  void Add(std::string metric, double value, std::string unit, u64 n) {
    metrics_.push_back(Metric{std::move(metric), value, std::move(unit), n});
  }
  /// A broken invariant (tier-mix band, leaked buffer, lost packet): the
  /// run is reported incorrect.
  void Violation(const std::string& what);
  void Count(u64 attempted, u64 failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const {
    return failed_ == 0 && violations_ == 0;
  }
  /// Metric lines, then {"workload", "correct", "attempted", "failed"}.
  void Print() const;

  Tracer tracer;  // the main thread's spans

 private:
  std::string name_;
  const Options& opt_;
  std::vector<Metric> metrics_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 violations_ = 0;
};

/// One workload's system under test: the control plane's pipeline, on
/// which tenants are admitted and which afterwards serves as the
/// reference, the dataplane, and for chain_3hop the network behind it.
struct Deployment {
  explicit Deployment(const menshen::DataplaneConfig& cfg)
      : dp(std::make_unique<menshen::Dataplane>(cfg)) {}

  /// Admits `t` on the control plane and loads it into the dataplane.
  void Deploy(Tenant t, SetupTimes& st);
  /// Steers `vid` to `shard` (a quiesced migration if it hashes elsewhere).
  void Pin(u16 vid, std::size_t shard);

  std::unique_ptr<menshen::Pipeline> ref =
      std::make_unique<menshen::Pipeline>();
  std::unique_ptr<menshen::ModuleManager> mgr =
      std::make_unique<menshen::ModuleManager>(*ref);
  /// Declared before `dp`: the dataplane's egress binding points here.
  std::unique_ptr<menshen::Network> net;
  std::unique_ptr<menshen::Dataplane> dp;
  std::vector<menshen::ConfigWrite> writes;  // everything the dataplane got
  std::vector<Tenant> tenants;               // dataplane tenants
  std::vector<Tenant> hops;                  // network devices' tenants
};

/// Sum of the dataplane's relaxed per-shard counters.
struct Counters {
  u64 packets = 0;
  u64 forwarded = 0;
  u64 dropped = 0;
  u64 busy_ns = 0;
  u64 fc_hits = 0;
  u64 fc_evictions = 0;
  u64 burst_pkts = 0;
  u64 burst_fallback = 0;
  u64 kernel = 0;
  u64 interp = 0;
  u64 stalls = 0;
  u64 queue_depth = 0;   // instantaneous: ingress sub-batches waiting
  u64 egress_depth = 0;  // instantaneous: processed packets not yet polled

  static Counters Of(const menshen::Dataplane& dp);
  /// The cumulative counters' growth since `before` (depths left 0).
  [[nodiscard]] Counters Since(const Counters& before) const;
};

/// Means of the dataplane's instantaneous queue depths, sampled at most
/// once a millisecond from a producer loop.
struct DepthSampler {
  static constexpr u64 kEveryNs = 1'000'000;

  void Sample(const menshen::Dataplane& dp, u64 now) {
    if (now < next_ns) return;
    next_ns = now + kEveryNs;
    const Counters c = Counters::Of(dp);
    ingress_sum += static_cast<double>(c.queue_depth);
    egress_sum += static_cast<double>(c.egress_depth);
    ++samples;
  }

  u64 next_ns = 0;
  double ingress_sum = 0;
  double egress_sum = 0;
  u64 samples = 0;
};

/// Tier mix of the measured phase, for the per-workload bands.
struct TierMix {
  double fc = 0;
  double kernel = 0;
  double interp = 0;
};

/// tput_mpps, tput_gbps and lat_p50_us of a closed loop's fastest pass,
/// whose `pass_pkts` packets carry `pass_bytes` bytes.
void AddFastestPass(Run& run, const FastestPass& fastest, u64 pass_pkts,
                    u64 pass_bytes);
/// Medians over the untraced windows: tput_window_mpps, lat_window_p50_us,
/// lat_p99_us, lat_p999_us; in a trace run also trace_overhead_frac from
/// the traced ones.
void AddWindowMetrics(Run& run, const Windows& win);
/// Per-layer metrics from the dataplane's counter deltas and queue depths.
TierMix AddCounterLayers(Run& run, const Counters& delta, u64 elapsed_ns,
                         std::size_t shards, const DepthSampler& depth);
/// Per-layer ns/pkt of every traced call (trace runs only).
void AddSpanLayers(Run& run);
/// pipeline.burst_ns_per_pkt and dataplane.self_ns_per_pkt (trace runs
/// only).  The replica is a standalone Pipeline with the dataplane's
/// writes, fed the traces in `burst`-packet bursts grouped by tenant as
/// the dataplane groups them; the dataplane's own
/// time per packet is the submit call for an inline engine and the
/// workers' busy time for a threaded one.
void AddPipelineLayers(Run& run, const Deployment& d,
                       const std::vector<const Trace*>& traces,
                       std::size_t burst, double dataplane_ns_per_pkt);
/// In a trace run: checks that the spans along the producer's blocking
/// path add up to the untraced ns/pkt, names the largest self-time
/// layer, and writes TRACE_<workload>.jsonl.
void FinishTrace(Run& run, const Windows& win, bool reconcile);
/// Band check on one per-workload tier share.
void Band(Run& run, const char* what, double v, double lo, double hi);

// The five workloads: how each sets up its system under test, and what it
// runs on it.
std::unique_ptr<Deployment> BuildRouterZipf(SetupTimes& st);
std::unique_ptr<Deployment> BuildCalcKernel(SetupTimes& st);
std::unique_ptr<Deployment> BuildBatchedImix(SetupTimes& st);
std::unique_ptr<Deployment> BuildIsolationChurn(SetupTimes& st);
std::unique_ptr<Deployment> BuildChain3Hop(SetupTimes& st);
void RunRouterZipf(Run& run, std::unique_ptr<Deployment> d);
void RunCalcKernel(Run& run, std::unique_ptr<Deployment> d);
void RunBatchedImix(Run& run, std::unique_ptr<Deployment> d);
void RunIsolationChurn(Run& run, std::unique_ptr<Deployment> d);
void RunChain3Hop(Run& run, std::unique_ptr<Deployment> d);

}  // namespace e2e
