// Bounded lock-free MPSC ring queue — the ingress submission primitive.
//
// Any number of producer threads push batch work items concurrently; one
// consumer (the shard's worker thread) pops them in FIFO order.  This is
// the per-forwarding-thread input-queue shape line-rate software
// dataplanes use (cf. ndn-dpdk's per-fwd crossbar of DPDK rings): the
// producers never take a lock on the hot path, and the single consumer
// owns the head cursor outright.
//
// The implementation is Vyukov's bounded queue specialised to one
// consumer: every slot carries a sequence number that encodes whether it
// is free (seq == pos), full (seq == pos + 1), or still being written.
// Producers claim a slot by CAS on the tail cursor and publish the value
// with a release store of the slot sequence; the consumer reads with an
// acquire load, so a popped value is fully constructed.  Capacity is
// rounded up to a power of two; TryPush on a full ring returns false —
// backpressure is the caller's policy (the dataplane spins/yields, which
// bounds queue memory instead of growing it).
//
// The tail CAS uses seq_cst so the dataplane's sleep/wake protocol can
// reason about a single total order between "producer advanced tail" and
// "consumer parked itself" (see ShardContext in dataplane.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/types.hpp"

namespace menshen {

template <typename T>
class MpscRingQueue {
 public:
  explicit MpscRingQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscRingQueue(const MpscRingQueue&) = delete;
  MpscRingQueue& operator=(const MpscRingQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer push.  Returns false when the ring is full.
  bool TryPush(T&& value) {
    u64 pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const u64 seq = slot.seq.load(std::memory_order_acquire);
      const i64 dif = static_cast<i64>(seq) - static_cast<i64>(pos);
      if (dif == 0) {
        // Slot free at this position: claim it.  seq_cst so the claim is
        // ordered against the consumer's park flag (dataplane doorbell).
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          slot.value = std::move(value);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // lapped: the ring is full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop.  Returns false when the ring is empty (or the
  /// head item is claimed but not yet published — the caller retries).
  bool TryPop(T& out) {
    const u64 pos = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & mask_];
    const u64 seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<i64>(seq) - static_cast<i64>(pos + 1) != 0) return false;
    out = std::move(slot.value);
    slot.value = T{};  // drop payload refs eagerly (tickets, packet buffers)
    slot.seq.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Reinitializes the ring at a new capacity.  Quiescent-only: the
  /// caller guarantees the ring is empty and no producer or consumer is
  /// touching it (the dataplane's adaptive-depth resize runs it under
  /// the exclusive engine gate with every worker stopped).
  void Reset(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
  }

  /// Approximate occupancy: exact when quiescent, a safe over/under
  /// estimate while producers race.  empty() is used by the drain path
  /// (which first excludes producers) and the worker's park predicate.
  [[nodiscard]] std::size_t approx_size() const {
    const u64 tail = tail_.load(std::memory_order_seq_cst);
    const u64 head = head_.load(std::memory_order_seq_cst);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }
  [[nodiscard]] bool empty() const { return approx_size() == 0; }

 private:
  struct Slot {
    std::atomic<u64> seq{0};
    T value{};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<u64> tail_{0};  // producers (CAS)
  alignas(64) std::atomic<u64> head_{0};  // single consumer
};

}  // namespace menshen
