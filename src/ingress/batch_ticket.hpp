// Batch submission tickets — the unit of work on the async ingress path.
//
// A producer thread wraps one packet batch in a BatchTicket and hands it
// to Dataplane::Submit, which scatters the batch into per-shard
// sub-batches and enqueues one ShardWork item per involved shard.  The
// ticket's shared state gathers the per-shard results back into the
// original batch order; whichever shard worker finishes last completes
// the ticket — fulfilling the future and invoking the optional
// completion callback — so producers never rendezvous with each other
// and the dispatcher thread of the old fork/join design disappears.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "packet/packet.hpp"
#include "pipeline/pipeline.hpp"

namespace menshen {

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
  /// TSC stamp taken by Submit at ingress; shard workers subtract it at
  /// completion to feed the batched latency histograms (runtime/
  /// telemetry).  0 when histograms are disabled.
  u64 ingress_tsc = 0;
};

namespace ingress {

/// Shared completion state of one submitted ticket.  Shard workers write
/// disjoint index sets of `results`, then synchronize on shards_pending
/// (release on decrement, acquire on the last one), so the completing
/// thread observes every sub-batch's writes.
struct TicketState {
  std::vector<PipelineResult> results;
  std::atomic<std::size_t> shards_pending{0};
  std::promise<std::vector<PipelineResult>> promise;
  std::function<void(const std::vector<PipelineResult>&)> on_complete;
  /// First processing error wins; the completing thread re-throws it
  /// through the promise instead of delivering results.
  std::atomic<bool> failed{false};
  std::exception_ptr error;

  /// Called by each shard worker when its sub-batch is done (and by
  /// Submit itself for empty batches).  The last caller completes the
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

/// One shard's slice of a submitted ticket: the packets steered to that
/// shard, plus where each result goes in the ticket's gather array.
struct ShardWork {
  std::shared_ptr<TicketState> ticket;
  std::vector<Packet> packets;
  std::vector<std::size_t> indices;
  /// Copy of the ticket's ingress TSC stamp (the executing shard reads
  /// it without touching the shared ticket state).
  u64 ingress_tsc = 0;
};

}  // namespace ingress
}  // namespace menshen
