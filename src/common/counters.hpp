// Statistics counters: owner-written on the data path, shared where
// more than one thread can bump at once.
//
// Hot-path observability counters (CAM lookups/hits, flow-cache and
// kernel counts, per-shard traffic, latency histogram buckets) are
// bumped while shard executors process work, and read by control-plane
// threads collecting statistics.  A plain `mutable u64` there is a data
// race; a read-modify-write (even a relaxed fetch_add, a `lock xadd` on
// x86) is a full barrier paid per packet.  A counter instead belongs to
// the one thread that bumps it, as a forwarding loop per core owns its
// state: RelaxedCounter::Add is a relaxed load plus a relaxed store, no
// `lock` prefix.
//
// The owner contract for RelaxedCounter:
//   * One writer at a time.  On the dataplane that writer is the thread
//     running the counter's Pipeline replica or shard executor: the
//     shard's worker thread, or, on the inline engine (worker_threads =
//     false), the producer holding the shard's `inline_m`.  Standalone
//     Pipelines, CAMs and histograms are owned by whoever drives them.
//   * Ownership passes only through a happens-before hand-off: the
//     shard's `inline_m`, the exclusive engine gate plus drain (config
//     writes, migration, resize, SetIngressQueueDepth), or worker
//     start/stop (thread creation and join).  The next writer's load
//     then sees the previous writer's last store, so no add is lost.
//     FlushEgress's transmit counters are owned by the holder of
//     `egress_bind_m_`, a hand-off of the same kind.
//   * Readers keep their relaxed loads at any time.  A single writer
//     stores an increasing sequence, and read-read coherence makes every
//     reader see it non-decreasing; exact totals come from quiescing
//     (the exclusive gate plus drain) before reading, as runtime/stats
//     does.  Sub is for gauges (flow-cache occupancy) and breaks
//     monotonicity only for them.
// TSAN cannot see a lost update from a hidden second writer, because
// every access to the value is atomic.  So in TSAN builds every write
// also bumps a plain shadow field that readers never touch: a second
// writer without a happens-before hand-off is then reported as a data
// race on the shadow, whether or not the two writes collided.  The
// exact-count tests in test_stream, test_telemetry and test_counters
// guard the contract in every other build.
//
// SharedCounter keeps the relaxed fetch_add, for the counters that more
// than one thread can bump at the same time:
//   * Dataplane's per-shard `producer_stalls`: bumped by any producer
//     that finds the shard's ring full, never by the shard's owner.
//   * Dataplane's `tenant_forwarded_` / `tenant_dropped_`: one array
//     indexed by tenant and shared by every shard's executor.  They take
//     one add per tenant run of a work item, not one per packet, and are
//     the one source of every per-tenant total: the exact accessors read
//     them after a drain, the relaxed ones without, and a shrink has
//     nothing to fold because no replica holds a copy.
//
// Both types copy by value so the structs embedding them stay copyable
// (pipeline replicas are constructed into vectors).
#pragma once

#include <atomic>

#include "common/types.hpp"

#if defined(__SANITIZE_THREAD__)
#define MENSHEN_TSAN_OWNER_CHECK 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MENSHEN_TSAN_OWNER_CHECK 1
#endif
#endif

namespace menshen {

class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& other) : v_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    NoteWrite();
    v_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  /// Owner-only (see the contract above): a plain add, published with a
  /// relaxed store.
  void Add(u64 n = 1) {
    NoteWrite();
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  /// Gauge-style decrement (the flow-verdict cache's occupancy gauge
  /// drops when a row's entries are invalidated wholesale).  Owner-only.
  void Sub(u64 n = 1) {
    NoteWrite();
    v_.store(v_.load(std::memory_order_relaxed) - n,
             std::memory_order_relaxed);
  }
  [[nodiscard]] u64 load() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
#ifdef MENSHEN_TSAN_OWNER_CHECK
  void NoteWrite() { ++writes_; }
  u64 writes_ = 0;  // the shadow: written by the owner, read by no one
#else
  void NoteWrite() {}
#endif
  std::atomic<u64> v_{0};
};

class SharedCounter {
 public:
  SharedCounter() = default;
  SharedCounter(const SharedCounter& other) : v_(other.load()) {}
  SharedCounter& operator=(const SharedCounter& other) {
    v_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  /// Safe from any number of threads at once.
  void Add(u64 n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] u64 load() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<u64> v_{0};
};

}  // namespace menshen
