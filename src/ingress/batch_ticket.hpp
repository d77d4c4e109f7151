// Batch submission tickets and the shard work unit of the ingress rings.
//
// A producer thread wraps one packet batch in a BatchTicket and hands it
// to Dataplane::Submit.  The batch moves into the ticket's shared state
// and stays there: the scatter enqueues one ShardWork slice per involved
// shard — pointers into that batch — and the shard worker runs its slice
// in place, then moves each packet into its result slot at the packet's
// original batch position.  Whichever worker finishes last completes the
// ticket — fulfilling the future and invoking the optional completion
// callback — so producers never rendezvous with each other.  A streaming
// burst (Dataplane::SubmitStream) is the same ShardWork with arena
// buffers instead of a ticket, on the same per-shard ring.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "packet/packet.hpp"
#include "pipeline/pipeline.hpp"

namespace menshen {

class ArenaPacket;  // packet/arena.hpp

/// One batch handed to Dataplane::Submit.  The optional callback runs
/// exactly once, on whichever thread completes the ticket (a shard
/// worker, or the submitting thread after it released the engine gate),
/// before the future becomes ready.  It must not call back into ANY
/// dataplane operation that takes the engine gate — quiesced ops
/// (CommitEpoch, MigrateTenant, ResizeShards, exact stats) and the
/// relaxed stats reads alike: when it runs on a shard worker, that
/// worker is exactly what a concurrently waiting quiesce is draining,
/// and even a shared-gate read deadlocks against a waiting writer.
/// Stash results and act from your own thread instead.
struct BatchTicket {
  std::vector<Packet> batch;
  std::function<void(const std::vector<PipelineResult>&)> on_complete;
};

namespace ingress {

/// Shared completion state of one submitted ticket.  Shard workers
/// process disjoint positions of `batch` in place and move each packet
/// into `results` at the same position, then synchronize on
/// shards_pending (release on decrement, acquire on the last one), so
/// the completing thread observes every slice's writes.
struct TicketState {
  std::vector<Packet> batch;
  std::vector<PipelineResult> results;
  std::atomic<std::size_t> shards_pending{0};
  std::promise<std::vector<PipelineResult>> promise;
  std::function<void(const std::vector<PipelineResult>&)> on_complete;
  /// First processing error wins; the completing thread re-throws it
  /// through the promise instead of delivering results.
  std::atomic<bool> failed{false};
  std::exception_ptr error;

  /// Called by each shard worker when its slice is done (and by Submit
  /// itself for its own reference).  The last caller completes the
  /// ticket.
  void FinishOneShard() {
    if (shards_pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if (failed.load(std::memory_order_acquire)) {
      promise.set_exception(error);
      return;
    }
    if (on_complete) on_complete(results);
    promise.set_value(std::move(results));
  }

  void RecordError(std::exception_ptr err) {
    // Publication of `error` to the completing thread rides the
    // shards_pending acq_rel chain (the recorder decrements after
    // writing), not this flag: the exchange only elects the first error.
    if (!failed.exchange(true, std::memory_order_acq_rel))
      error = std::move(err);
  }
};

/// One shard's slice of a submission, in per-tenant arrival order: a
/// ticket slice (`ticket` set, `packets` point into ticket->batch) or a
/// streaming burst (no ticket; the dataplane owns the `burst` buffers
/// until egress).  Exactly one of the two pointer vectors is in use.
struct ShardWork {
  std::shared_ptr<TicketState> ticket;
  std::vector<Packet*> packets;
  std::vector<ArenaPacket*> burst;

  template <typename PacketT>
  [[nodiscard]] std::vector<PacketT*>& slice() {
    if constexpr (std::is_same_v<PacketT, Packet>) {
      return packets;
    } else {
      return burst;
    }
  }
};

}  // namespace ingress
}  // namespace menshen
