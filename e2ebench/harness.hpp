// Harness primitives of the end-to-end benchmark: the seeded input
// generator, 500 ms measurement windows, a closed loop's fastest pass,
// span tracing around the public calls a workload makes, the host
// reference loop, and the metric lines bench_e2e prints.  Nothing here
// includes the menshen sources, so a change to the library cannot change
// how the benchmark measures.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

inline u64 NowNs() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64.  The benchmark owns its generator, so the inputs depend on
/// the seed alone and never on a library change.
class Rng {
 public:
  explicit Rng(u64 seed) : s_(seed) {}
  u64 Next() {
    u64 z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  u64 Below(u64 n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  u64 s_;
};

/// Zipf(s) over ranks [0, n) by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    cdf_.reserve(n);
    double sum = 0;
    for (std::size_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(sum);
    }
  }
  std::size_t Draw(Rng& rng) const {
    const double u = rng.Unit() * cdf_.back();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank q-quantile of `v` (reorders it); 0 for an empty sample.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}
inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

/// Durations in ns, counted in log-linear buckets: 128 per power of two,
/// each under 0.8% wide.  Adding is a few instructions and a quantile is
/// one walk over the counters, so a window closes inside a producer loop
/// in microseconds; sorting a half-second of an open loop's raw samples
/// took milliseconds, long enough to show up in the tail it measured.
class LatencyHistogram {
 public:
  void Add(u64 ns) {
    ++counts_[Bucket(ns)];
    ++n_;
  }
  [[nodiscard]] u64 count() const { return n_; }
  void Clear() {
    counts_.fill(0);
    n_ = 0;
  }
  /// Nearest-rank q-quantile in microseconds, placed within its bucket by
  /// rank; 0 when empty.
  [[nodiscard]] double QuantileUs(double q) const {
    if (n_ == 0) return 0;
    const u64 rank = std::min<u64>(
        n_ - 1, static_cast<u64>(q * static_cast<double>(n_)));
    u64 below = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (below + counts_[b] > rank) {
        const double within = (static_cast<double>(rank - below) + 0.5) /
                              static_cast<double>(counts_[b]);
        return (static_cast<double>(Lower(b)) +
                within * static_cast<double>(Width(b))) / 1e3;
      }
      below += counts_[b];
    }
    return 0;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr u64 kSub = u64{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  // Values below kSub get a bucket each; above, bucket (shift + 1, top
  // kSubBits bits after the leading one) spans 2^shift values.
  static std::size_t Bucket(u64 v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = 63 - std::countl_zero(v) - kSubBits;
    return static_cast<std::size_t>(((static_cast<u64>(shift) + 1) << kSubBits) +
                                    ((v >> shift) & (kSub - 1)));
  }
  static u64 Lower(std::size_t b) {
    if (b < kSub) return b;
    const u64 shift = (b >> kSubBits) - 1;
    return (kSub + (b & (kSub - 1))) << shift;
  }
  static u64 Width(std::size_t b) {
    return b < kSub ? 1 : u64{1} << ((b >> kSubBits) - 1);
  }

  std::array<u32, kBuckets> counts_{};
  u64 n_ = 0;
};

// --- Measurement windows ------------------------------------------------------

/// The measured phase cut into 500 ms windows.  Throughput and latency
/// percentiles are computed per window and reported as the median over
/// windows, so a stall or slowdown in half of them or more shows.  In a
/// trace run every second window is traced; the untraced windows give the
/// end-to-end numbers and each traced window, against the untraced one
/// before it, the tracing overhead.
class Windows {
 public:
  static constexpr u64 kWindowNs = 500'000'000;

  struct Window {
    u64 pkts = 0;
    double p50_us = 0;
    double p99_us = 0;
    double p999_us = 0;
    u64 lat_samples = 0;
  };

  Windows(u64 start_ns, double seconds, bool alternate_traced)
      : start_(start_ns),
        windows_(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(seconds * 1e9 /
                                                     kWindowNs)))),
        alternate_(alternate_traced) {
    end_ = start_ + windows_.size() * kWindowNs;
  }

  [[nodiscard]] u64 start() const { return start_; }
  [[nodiscard]] bool Done(u64 now) const { return now >= end_; }
  [[nodiscard]] bool Traced(u64 now) const {
    return alternate_ && (Index(now) % 2 == 1);
  }

  /// Credits completed packets to the window containing `now`.
  void Complete(u64 now, u64 pkts) {
    Advance(now);
    windows_[cur_].pkts += pkts;
  }
  void Latency(u64 now, u64 ns) {
    Advance(now);
    lat_.Add(ns);
  }
  /// Closes every window (call once after the measured phase).
  void Finish() {
    for (; closed_ < windows_.size(); ++closed_) Close(windows_[closed_]);
  }

  /// Medians over the untraced windows of pkts/s and the per-window
  /// latency percentiles; mean_mpps is the rates' mean.
  struct Summary {
    double mpps = 0;
    double p50_us = 0;
    double p99_us = 0;
    double p999_us = 0;
    double mean_mpps = 0;
    u64 windows = 0;
    u64 lat_samples = 0;
  };
  /// In a trace run: the median over adjacent (untraced, traced) window
  /// pairs of the traced window's rate over the untraced one's.  Pairs
  /// share the host's state, which two separate runs do not.
  [[nodiscard]] double TracedRateRatio() const {
    std::vector<double> r;
    for (std::size_t i = 0; i + 1 < windows_.size(); i += 2)
      if (windows_[i].pkts != 0)
        r.push_back(static_cast<double>(windows_[i + 1].pkts) /
                    static_cast<double>(windows_[i].pkts));
    return r.empty() ? 1.0 : Median(r);
  }

  [[nodiscard]] Summary Summarize() const {
    std::vector<double> mpps, p50, p99, p999;
    Summary s;
    const double sec = static_cast<double>(kWindowNs) / 1e9;
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      if (alternate_ && i % 2 == 1) continue;
      const Window& w = windows_[i];
      mpps.push_back(static_cast<double>(w.pkts) / sec / 1e6);
      s.mean_mpps += mpps.back();
      if (w.lat_samples != 0) {
        p50.push_back(w.p50_us);
        p99.push_back(w.p99_us);
        p999.push_back(w.p999_us);
      }
      ++s.windows;
      s.lat_samples += w.lat_samples;
    }
    s.mean_mpps /= static_cast<double>(std::max<u64>(s.windows, 1));
    s.mpps = Median(mpps);
    s.p50_us = Median(p50);
    s.p99_us = Median(p99);
    s.p999_us = Median(p999);
    return s;
  }

 private:
  [[nodiscard]] std::size_t Index(u64 now) const {
    const u64 i = now > start_ ? (now - start_) / kWindowNs : 0;
    return std::min<std::size_t>(i, windows_.size() - 1);
  }
  void Advance(u64 now) {
    const std::size_t i = Index(now);
    if (i <= cur_) return;
    cur_ = i;
    for (; closed_ < cur_; ++closed_) Close(windows_[closed_]);
  }
  /// Only the open window takes samples, so one histogram serves them all.
  void Close(Window& w) {
    w.lat_samples = lat_.count();
    w.p50_us = lat_.QuantileUs(0.50);
    w.p99_us = lat_.QuantileUs(0.99);
    w.p999_us = lat_.QuantileUs(0.999);
    lat_.Clear();
  }

  u64 start_;
  u64 end_ = 0;
  std::vector<Window> windows_;
  LatencyHistogram lat_;  // the open window's latency samples
  bool alternate_;
  std::size_t cur_ = 0;
  std::size_t closed_ = 0;
};

// --- Fastest pass -------------------------------------------------------------

/// The fastest pass a closed loop made over its cycled input.  Such a loop
/// sends the same work items (bursts, tickets) in the same order on every
/// pass, and the system's state repeats with them, so an item costs the
/// same on every pass and only the host changes.  Other tenants of a
/// shared host slow a run by up to a half, for seconds at a time, and a
/// window median follows them.  Each item's fastest iteration is its cost
/// with the host out of the way; their sum is the fastest pass.  A
/// slowdown of the code on every pass moves it in proportion; a stall that
/// hits a random item now and then does not, and shows in the window
/// metrics instead.
class FastestPass {
 public:
  explicit FastestPass(std::size_t items)
      : iter_(items, kNever), lat_(items, kNever) {}

  /// One untraced iteration of item `i`: its whole iteration and its
  /// latency (the part from handing it to the dataplane until its outputs
  /// were back).
  void Record(std::size_t i, u64 iter_ns, u64 lat_ns) {
    iter_[i] = std::min(iter_[i], iter_ns);
    lat_[i] = std::min(lat_[i], lat_ns);
  }
  /// Whether every item was timed at least once.
  [[nodiscard]] bool Complete() const {
    return std::find(iter_.begin(), iter_.end(), kNever) == iter_.end();
  }
  /// What one pass carries (packets, bits) per second of the fastest pass.
  [[nodiscard]] double PerSecond(double per_pass) const {
    u64 ns = 0;
    for (const u64 t : iter_) ns += t;
    return per_pass * 1e9 / static_cast<double>(ns);
  }
  /// Median over the items of each one's fastest latency.
  [[nodiscard]] double LatencyP50Us() const {
    std::vector<double> us;
    for (const u64 t : lat_) us.push_back(static_cast<double>(t) / 1e3);
    return Median(std::move(us));
  }
  [[nodiscard]] std::size_t items() const { return iter_.size(); }

 private:
  static constexpr u64 kNever = ~u64{0};
  std::vector<u64> iter_;
  std::vector<u64> lat_;
};

// --- Span tracing -------------------------------------------------------------

/// The public calls a workload iteration is made of.  A traced iteration
/// records one root span and one child span per call it makes.
enum Layer : u8 {
  kIteration,  // root: one producer-loop iteration
  kAlloc,      // obtaining packet buffers
  kFill,       // writing frame bytes into them
  kSubmit,     // handing packets to the dataplane
  kPoll,       // collecting completed packets
  kCheck,      // the harness's own output verification
  kRelease,    // handing consumed packets back
  kStage,      // staging a configuration epoch
  kCommit,     // committing it
  kLayerCount
};
inline constexpr const char* kLayerName[kLayerCount] = {
    "gen.iteration", "packet.alloc",   "packet.fill",
    "dataplane.submit", "dataplane.poll", "gen.check",
    "packet.release", "dataplane.stage", "dataplane.commit"};

/// Spans kept in memory and written at exit.  A random one in
/// kSampleEvery iterations is traced -- random, because a fixed stride
/// would keep landing on the same frames of a cycled trace -- which keeps
/// the overhead (a clock read per call) far below the 5% budget.  Every
/// traced span is folded into per-layer totals; storage is capped so a
/// long run stays small.
class Tracer {
 public:
  static constexpr u64 kSampleEvery = 16;
  static constexpr std::size_t kMaxStoredSpans = 1u << 16;

  struct Span {
    u8 layer;
    u32 id;
    u32 parent;
    u64 start;
    u64 end;
  };
  struct Total {
    u64 ns = 0;
    u64 pkts = 0;
    u64 spans = 0;
  };

  explicit Tracer(bool on) : on_(on) {}

  /// Whether the next iteration is traced (only inside traced windows).
  bool Sample(bool traced_window) {
    return on_ && traced_window && rng_.Below(kSampleEvery) == 0;
  }
  u32 NewId() { return ++next_id_; }
  void Record(Layer layer, u32 id, u32 parent, u64 start, u64 end, u64 pkts) {
    Total& t = totals_[layer];
    t.ns += end - start;
    t.pkts += pkts;
    ++t.spans;
    if (spans_.size() < kMaxStoredSpans)
      spans_.push_back(Span{layer, id, parent, start, end});
  }
  [[nodiscard]] const Total& total(Layer l) const { return totals_[l]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  u32 next_id_ = 0;
  Rng rng_{1};
  Total totals_[kLayerCount]{};
  std::vector<Span> spans_;
};

/// Times the calls of one iteration as consecutive child spans of a root
/// span.  Inactive (untraced iteration) it reads no clock at all.
class IterationSpans {
 public:
  IterationSpans(Tracer& tracer, bool active, u64 start)
      : tracer_(tracer), active_(active), start_(start), last_(start) {
    if (active_) root_ = tracer_.NewId();
  }
  /// Ends the current child span (begun where the previous one ended).
  void Mark(Layer layer, u64 pkts) {
    if (!active_) return;
    const u64 now = NowNs();
    tracer_.Record(layer, tracer_.NewId(), root_, last_, now, pkts);
    last_ = now;
  }
  void Finish(u64 pkts) {
    if (active_) tracer_.Record(kIteration, root_, 0, start_, NowNs(), pkts);
  }

 private:
  Tracer& tracer_;
  bool active_;
  u32 root_ = 0;
  u64 start_;
  u64 last_;
};

// --- Host reference -----------------------------------------------------------

/// A fixed integer loop of about 20 ms that touches no library code.  Its
/// time before and after a run shows how fast the host was, so drift
/// between two sets of runs can be told apart from a code change.
inline double HostRefMs() {
  const u64 t0 = NowNs();
  u64 x = 0x9E3779B97F4A7C15ULL;
  for (u64 i = 0; i < 8'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  asm volatile("" : : "r"(x));
  return static_cast<double>(NowNs() - t0) / 1e6;
}

// --- Metric output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  u64 n;  // samples behind the value
};

/// One JSON line per metric; values keep every digit.
inline void PrintMetric(const std::string& workload, const Metric& m) {
  std::printf(
      "{\"workload\": \"%s\", \"metric\": \"%s\", \"value\": %.17g, "
      "\"unit\": \"%s\", \"n\": %llu}\n",
      workload.c_str(), m.name.c_str(), m.value, m.unit.c_str(),
      static_cast<unsigned long long>(m.n));
}

}  // namespace e2e
