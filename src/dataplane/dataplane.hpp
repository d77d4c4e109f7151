// Concurrent, epoch-versioned dataplane front-end.
//
// Scales the single functional Pipeline the way line-rate software
// dataplanes do (cf. NDN-DPDK's one input queue per forwarding thread):
// the work is sharded across N replicated Pipeline instances, each
// pinned to a persistent worker thread that pulls work from its own
// bounded MPSC ring and runs it to completion.
//
//   producer threads ──Submit(BatchTicket)───┐ scatter: tenant → shard,
//   producer threads ──SubmitStream(burst)───┤ lock-free enqueue, whole
//        │                                   ┘ tenant groups per slice
//        ▼
//   ONE MPSC ring per shard: ticket slices and streaming bursts in
//   enqueue order; the shard worker pops each item and runs its packets
//   in place through Pipeline::ProcessStreamBurst, then
//     * a ticket slice moves each packet into the ticket's results at
//       its original batch position — the last shard to finish
//       completes the ticket (future + optional callback);
//     * a streaming burst goes to the shard's egress queue (forwarded)
//       or back to its arena (dropped / filtered).
//
// Within a shard's slice the packets are laid out as whole tenant
// groups, so the pipeline's module-run segmentation sees maximal runs;
// order within a tenant is always arrival order, and ticket results
// land by original batch index, so the grouping is invisible to every
// per-tenant byte stream.  There is no dispatcher thread and no
// per-batch fork/join rendezvous: any number of producers submit
// concurrently, and a shard only ever waits when it has no work.
// ProcessBatch remains as a submit+wait wrapper, byte-identical to the
// single-pipeline path (pinned by the differential tests).
//
// The shard for a packet is chosen by a tenant→shard steering table
// (defaulting to a hash of the tenant's VLAN/module ID), so
//
//   * all packets of one tenant land on the same replica, preserving
//     per-tenant processing order and keeping that tenant's stateful
//     memory in exactly one place (per-tenant isolation is untouched);
//   * different tenants spread across replicas and run in parallel;
//   * a hot tenant can be migrated to an underloaded replica
//     (MigrateTenant / runtime::Rebalancer): configuration is replicated
//     everywhere, so migration is a steering change plus a quiesced copy
//     of the tenant's stateful segments.
//
// Configuration changes flow through quiesced epochs: writes staged with
// StageWrite() accumulate in a pending set, and CommitEpoch() excludes
// new submissions, drains every shard ring, broadcasts the whole set to
// every replica, and bumps the epoch counter (exposed via runtime/stats).
// A slice therefore never observes a partially applied write set — the
// paper's non-disruptive reconfiguration property, now under real
// concurrency.  ResizeShards() reuses the same quiesce machinery to grow
// or shrink the replica set at an epoch boundary: new replicas replay the
// configuration log, steering is pinned so no tenant is silently
// re-homed, and tenants on dying shards are migrated off (state moves
// with them) before their workers join.
//
// Threading contract: Submit/ProcessBatch/SubmitStream may be called
// from any number of producer threads concurrently with each other and
// with control-plane operations.  Mutations (CommitEpoch, ApplyWrite,
// MigrateTenant, ResizeShards) and the exact statistics accessors take
// the engine exclusively and drain in-flight work first (the quiesce
// barrier); the *_relaxed statistics accessors never quiesce — they read
// monotonic relaxed counters and are meant for a periodic control-plane
// tick that must not stall ingress (runtime/controller).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/counters.hpp"
#include "ingress/batch_ticket.hpp"
#include "ingress/mpsc_queue.hpp"
#include "net/network.hpp"
#include "pipeline/config_write.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/telemetry.hpp"

namespace menshen {

struct DataplaneConfig {
  /// Number of pipeline replicas; 0 = one per hardware thread
  /// (std::thread::hardware_concurrency).
  std::size_t num_shards = 1;
  PipelineTiming timing = OptimizedTiming();
  bool reconfig_on_data_path = true;
  /// Run shards on persistent per-shard worker threads consuming MPSC
  /// submission queues (the async ingress engine).  With false the
  /// submitting thread runs each shard's slice itself, serialized per
  /// shard and in parallel across shards — the reference path the
  /// concurrent engine is pinned against.
  bool worker_threads = true;
  /// Capacity of each shard's ingress ring (rounded up to a power of
  /// two), counted in work items: one ticket slice or one streaming
  /// burst each.  A full ring backpressures the submitting producer (it
  /// yields and retries, counted in producer_stalls), bounding queue
  /// memory.  Adjustable at runtime via SetIngressQueueDepth (the
  /// controller's adaptive-depth loop).
  std::size_t ingress_queue_depth = 64;
  /// Telemetry knobs (runtime/telemetry.hpp): latency histograms on the
  /// batched + streaming paths, and 1-in-N sampled packet tracing.
  TelemetryConfig telemetry{};
};

class Dataplane {
 public:
  explicit Dataplane(DataplaneConfig cfg = {});
  ~Dataplane();

  Dataplane(const Dataplane&) = delete;
  Dataplane& operator=(const Dataplane&) = delete;

  [[nodiscard]] std::size_t num_shards() const {
    return num_shards_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t num_workers() const {
    return workers_running_.load(std::memory_order_acquire);
  }

  /// The shard replica a tenant's packets are currently steered to:
  /// the steering-table entry if one was installed, else the tenant hash.
  [[nodiscard]] std::size_t ShardFor(ModuleId tenant) const;

  /// Compiles (without caching) the execution plan for `tenant`'s row on
  /// its steered shard — the stats dump's view of the tenant's flow-cache
  /// blocker and kernel shape.  Pins the shard set (shared gate) but
  /// never drains traffic.
  [[nodiscard]] ModuleExecPlan DescribeTenantRow(ModuleId tenant) const;

  /// Direct replica access — quiescent-only (no traffic in flight).
  [[nodiscard]] Pipeline& shard(std::size_t i) { return shards_.at(i); }
  [[nodiscard]] const Pipeline& shard(std::size_t i) const {
    return shards_.at(i);
  }

  // --- Async ingress -----------------------------------------------------------

  /// Submits one batch to the per-shard ingress rings and returns a
  /// future for its results (in the ticket's original batch order).  The
  /// packets are processed in place and move into their results.  Any
  /// number of producer threads may submit concurrently; per-tenant
  /// order is the per-shard enqueue order, shared with SubmitStream, so
  /// one producer's tickets and bursts stay ordered per tenant and
  /// distinct producers racing on the *same* tenant interleave at ticket
  /// granularity.  A full ring backpressures the producer (counted in
  /// the shard's producer_stalls).  On the sequential engine
  /// (worker_threads = false) the batch is processed inline and the
  /// returned future is already ready.
  [[nodiscard]] std::future<std::vector<PipelineResult>> Submit(
      BatchTicket&& ticket);

  /// Submit + wait: byte-identical to the historical synchronous path
  /// (pinned by tests/test_dataplane*.cpp differentials).
  [[nodiscard]] std::vector<PipelineResult> ProcessBatch(
      std::vector<Packet>&& batch);

  // --- Streaming ingress (run-to-completion) -----------------------------------

  /// Enqueues a burst of arena packets into the per-shard ingress rings
  /// (the rings Submit uses).  No ticket, no gather barrier: each shard
  /// worker runs its slice to completion and pushes the processed
  /// packets straight onto its egress queue.  Ownership of every packet
  /// transfers to the dataplane here; it comes back either via
  /// PollEgress (forwarded / multicast packets, bytes rewritten in
  /// place) or by being released to its owning arena (dropped and
  /// filtered packets — the caller never sees them again).  Per-tenant
  /// order is preserved end to end: one tenant maps to one shard, whose
  /// ring and egress queue are both FIFO, also across interleaved Submit
  /// calls of the same producer.  A full ring backpressures the producer
  /// (counted in the shard's producer_stalls).  On the sequential engine
  /// (worker_threads = false) the burst is processed inline.
  void SubmitStream(ArenaPacket* const* pkts, std::size_t n);

  /// Drains every shard's egress queue (and the quiesce-overflow FIFO)
  /// into `out`, returning the number of packets appended.  The caller
  /// owns the returned packets and must hand them back to their arenas
  /// (packet/arena.hpp ReleaseToOwners) once consumed.  Within one
  /// tenant the drain order is processing order; across tenants it is
  /// unspecified.  Never drains traffic — safe to call from any thread
  /// concurrently with SubmitStream.
  std::size_t PollEgress(std::vector<ArenaPacket*>& out);

  // --- Egress burst transmit ---------------------------------------------------

  /// Binds this dataplane's streaming egress to `net`: a processed
  /// packet whose egress_port appears in `port_map` is transmitted by
  /// FlushEgress into the mapped network port.  Every mapped port must
  /// be a host-attached edge port of `net` (Network::AttachHost — the
  /// vSwitch stamps the tenant VID at that edge, so injections without a
  /// host throw); this resolves the whole map to host indices up front
  /// and throws std::invalid_argument on an unattached port.  `net` must
  /// outlive the binding; rebinding replaces the previous map.
  void BindEgressDevice(Network& net, std::map<u16, PortRef> port_map);

  /// Drains the egress queues exactly like PollEgress — overflow FIFO
  /// first, then the per-shard queues in shard order, per-tenant FIFO
  /// within each — but instead of handing buffers to the caller, passes
  /// the drained buffers themselves to Network::InjectArena (one burst
  /// call per device per hop, no copy), and returns the resulting edge
  /// deliveries.  Ordering contract: the injection order IS the drain
  /// order, so each tenant's packets enter the network in processing
  /// order; delivery order then follows the hop loop (hop, device name,
  /// arrival).  Multicast packets enter once per bound port of their
  /// port list (the network copies all but the first); packets whose
  /// egress_port has no binding are counted in egress_unbound() and
  /// recycled.  The network releases each buffer to its owner when its
  /// packet leaves the network, so every drained buffer is back before
  /// FlushEgress returns.  Serialized against itself and
  /// BindEgressDevice; safe to call concurrently with SubmitStream.
  std::vector<Delivery> FlushEgress(std::size_t max_hops = 8);

  /// Packets transmitted into the bound network by FlushEgress.
  [[nodiscard]] u64 egress_transmitted() const { return egress_tx_.load(); }
  /// Drained packets with no binding for their egress port (recycled).
  [[nodiscard]] u64 egress_unbound() const { return egress_unbound_.load(); }

  /// Quiesced resize of every shard's ingress ring to `depth` (min 2,
  /// rounded up to a power of two) — the controller's adaptive-depth
  /// actuator.  Drains in-flight work, stops the workers, reallocates
  /// the rings, restarts the workers.
  void SetIngressQueueDepth(std::size_t depth);
  [[nodiscard]] std::size_t ingress_queue_depth() const {
    return ingress_depth_.load(std::memory_order_acquire);
  }

  // --- Epoched configuration ---------------------------------------------------

  /// Stages one write into the pending epoch.  Thread-safe; callable
  /// while batches are in flight.  Nothing is visible to the data path
  /// until CommitEpoch().
  void StageWrite(const ConfigWrite& write);
  void StageWrites(const std::vector<ConfigWrite>& writes);

  /// Quiesced epoch switch: excludes new submissions, drains every shard
  /// queue, applies every staged write to every replica, and bumps the
  /// epoch.  Returns the new epoch.  An empty commit is a pure barrier
  /// (still bumps the epoch — e.g. a steering-only reconfiguration point).
  u64 CommitEpoch();

  /// Committed configuration epoch (0 until the first CommitEpoch).
  [[nodiscard]] u64 epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Writes staged but not yet committed.
  [[nodiscard]] std::size_t pending_writes() const;

  /// Immediate (legacy) path: broadcasts one configuration write to every
  /// shard replica under the quiesced engine.  Does not advance the epoch.
  void ApplyWrite(const ConfigWrite& write);
  void ApplyWrites(const std::vector<ConfigWrite>& writes);
  [[nodiscard]] u64 writes_broadcast() const {
    return writes_broadcast_.load(std::memory_order_acquire);
  }

  // --- Steering / rebalancing / scaling ----------------------------------------

  /// Quiesced tenant migration: drains in-flight work, copies the
  /// tenant's per-stage stateful segments from its current replica to
  /// `to_shard` (zeroing the source so state lives in exactly one place),
  /// and repoints the steering table.  Per-tenant ordering is preserved
  /// because nothing is in flight while the move happens.  Returns false
  /// if the tenant already lives on `to_shard`.
  ///
  /// Precondition (enforced by the control plane's admission check, not
  /// here): active tenants own distinct overlay rows — module IDs fit
  /// the overlay-table depth and are unique.
  bool MigrateTenant(ModuleId tenant, std::size_t to_shard);
  [[nodiscard]] u64 migrations() const {
    return migrations_.load(std::memory_order_acquire);
  }

  /// Quiesced replica-set resize at an epoch boundary (the dynamic-shard
  /// machinery the control-plane tick drives): `new_count` replicas
  /// (0 = hardware concurrency).  Before the count changes, every active
  /// tenant's placement is pinned into the steering table, so the
  /// default-hash re-map cannot silently re-home a tenant away from its
  /// stateful segments.  Growing replays the configuration log onto the
  /// new replicas and starts their workers; shrinking migrates every
  /// tenant steered to a dying shard onto a surviving one (state moves
  /// with it), then joins the dying workers.  Pending staged writes are
  /// committed and the epoch bumps — a resize IS an epoch boundary.
  /// Returns the new shard count.
  std::size_t ResizeShards(std::size_t new_count);
  [[nodiscard]] u64 resizes() const {
    return resizes_.load(std::memory_order_acquire);
  }

  // --- Statistics --------------------------------------------------------------

  /// Per-shard traffic counters, updated per work item.  forwarded,
  /// dropped and filtered are disjoint and sum to packets.
  struct ShardCounters {
    u64 batches = 0;   // ticket slices handed to this replica
    u64 packets = 0;   // packets steered to this replica
    u64 forwarded = 0;
    u64 dropped = 0;   // filter-bitmap or ALU/deparser drops
    u64 filtered = 0;  // other non-data verdicts (reconfig, no VLAN)
    /// Instantaneous ingress-ring occupancy (work items waiting) at
    /// snapshot time — with busy_ns the controller's per-shard
    /// utilisation signal.
    u64 queue_depth = 0;
    /// Cumulative wall-clock nanoseconds this shard's worker spent
    /// executing work items.
    u64 busy_ns = 0;
    /// This replica's flow-verdict cache (pipeline/flow_cache.hpp):
    /// cumulative hits/misses, and of the misses, admitted fills that
    /// replaced a resident verdict (evictions) and fills admission
    /// declined (rejects), plus current occupancy.  Read from the
    /// replica's relaxed counters — consistent with the traffic counters
    /// above.
    u64 flow_cache_hits = 0;
    u64 flow_cache_misses = 0;
    u64 flow_cache_evictions = 0;
    u64 flow_cache_rejects = 0;
    u64 flow_cache_occupancy = 0;
    /// Cached tier (Pipeline::RunSpanCached): lanes run through the
    /// flow-verdict cache (hits + misses), and of those, lanes not
    /// served by a hit (the misses).  The names are kept for the
    /// end-to-end bench, which reads them.
    u64 flow_cache_burst_pkts = 0;
    u64 flow_cache_burst_fallback = 0;
    /// Specialized-kernel dispatch (pipeline/kernels.hpp): packets run
    /// by a straight-line kernel, packets interpreted (wide/ternary
    /// rows), flow-cache misses resolved by the run's kernel steps, and
    /// the per-shape-id packet distribution.
    u64 kernel_pkts = 0;
    u64 kernel_fallback_pkts = 0;
    u64 kernel_record_fills = 0;
    std::array<u64, kKernelShapeCount> kernel_shape_pkts{};
    /// Streaming path: bursts and packets run to completion on this
    /// replica (stream_pkts is included in `packets`), packets pushed
    /// onto the egress queue, and its occupancy at snapshot time.
    u64 stream_bursts = 0;
    u64 stream_pkts = 0;
    u64 egress_pkts = 0;
    u64 egress_depth = 0;
    /// Producer-side pushes (ticket slices and streaming bursts alike)
    /// that found this shard's ingress ring full (one per stalled push,
    /// not per retry) — the controller's adaptive-depth signal.
    u64 producer_stalls = 0;
  };
  /// Relaxed per-shard view: never drains traffic, but does pin the
  /// shard set against a concurrent resize (see CountersSnapshotRelaxed).
  [[nodiscard]] ShardCounters shard_counters(std::size_t i) const;

  /// Exact snapshot of every shard's counters: quiesces (drains in-flight
  /// work), so totals are batch-consistent.
  [[nodiscard]] std::vector<ShardCounters> CountersSnapshot() const;
  /// Relaxed snapshot: reads the monotonic per-shard counters without
  /// draining.  Sub-batches mid-flight are partially counted (a shard's
  /// `packets` may momentarily exceed forwarded+dropped+filtered), but
  /// every counter is within one in-flight sub-batch of exact and
  /// catches up as soon as the worker finishes — consistent enough for
  /// load tracking, never a stall for ingress.
  [[nodiscard]] std::vector<ShardCounters> CountersSnapshotRelaxed() const;

  /// Per-stage match-path counters, aggregated across every shard
  /// replica.  The exact variant quiesces; the relaxed variant reads the
  /// CAM/TCAM relaxed atomics live.
  struct StageMatchCounters {
    u64 cam_lookups = 0;
    u64 cam_hits = 0;
    u64 tcam_lookups = 0;
    u64 tcam_hits = 0;
  };
  [[nodiscard]] std::vector<StageMatchCounters> MatchCountersSnapshot() const;
  [[nodiscard]] std::vector<StageMatchCounters> MatchCountersSnapshotRelaxed()
      const;

  /// One tenant's exact totals (aggregated across shards + retired),
  /// plus its steering as of the same quiesced instant.
  struct TenantCounts {
    ModuleId tenant;
    std::size_t shard = 0;
    u64 forwarded = 0;
    u64 dropped = 0;
  };
  /// Everything the exact statistics collection needs, gathered under a
  /// single quiesce, so shard rows, tenant totals, match counters and
  /// the packet total are mutually consistent — and ingress stalls once,
  /// not once per accessor (runtime/CollectDataplaneStats uses this).
  struct QuiescedStats {
    std::vector<ShardCounters> shards;
    std::vector<StageMatchCounters> match_stages;
    std::vector<TenantCounts> tenants;  // sorted by tenant ID
    u64 total_packets = 0;
  };
  [[nodiscard]] QuiescedStats QuiescedStatsSnapshot() const;

  // Per-tenant view, aggregated across shards.  The exact accessors
  // quiesce (they read the replicas' pipeline-internal maps); the
  // _relaxed accessors read dataplane-level monotonic counters bumped by
  // the workers after each sub-batch — equal to the exact values when
  // quiescent, at most one in-flight sub-batch behind otherwise.
  [[nodiscard]] u64 forwarded(ModuleId tenant) const;
  [[nodiscard]] u64 dropped(ModuleId tenant) const;
  [[nodiscard]] u64 forwarded_relaxed(ModuleId tenant) const;
  [[nodiscard]] u64 dropped_relaxed(ModuleId tenant) const;
  [[nodiscard]] std::vector<ModuleId> ActiveTenants() const;
  [[nodiscard]] std::vector<ModuleId> ActiveTenantsRelaxed() const;
  [[nodiscard]] u64 total_packets() const;
  [[nodiscard]] u64 total_packets_relaxed() const;

  // --- Telemetry ---------------------------------------------------------------

  /// Latency histograms + trace rings (runtime/telemetry.hpp).  Readers
  /// (snapshots, TenantP99, DrainTraces) never quiesce; recording is
  /// relaxed-atomic on the workers.
  [[nodiscard]] Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const { return telemetry_; }

 private:
  /// Per-shard ingress state.  Heap-allocated so addresses stay stable
  /// across replica-set resizes (workers and sleeping condvars point
  /// here).
  struct ShardContext {
    explicit ShardContext(std::size_t queue_depth) : queue(queue_depth) {}

    /// The shard's one ingress ring: ticket slices and streaming bursts
    /// in enqueue order.  Its only consumer is the worker.
    MpscRingQueue<ingress::ShardWork> queue;

    /// Serializes inline (no-worker-thread) execution on this shard's
    /// replica: producer cores run their slices to completion
    /// themselves under the shared gate, in parallel across shards,
    /// serialized per shard — which is also what keeps per-tenant FIFO
    /// order (a tenant maps to exactly one shard).
    std::mutex inline_m;

    // Doorbell: the worker parks on `cv` when its ring is empty;
    // producers ring it after a push when `parked` is set.  `busy` is
    // true from just before a pop until the popped work is fully
    // executed — the drain path treats (empty ring && !busy) as idle.
    alignas(64) std::atomic<bool> busy{false};
    std::atomic<bool> parked{false};
    std::atomic<bool> stop{false};
    std::mutex m;
    std::condition_variable cv;
    std::thread worker;

    /// Per-device egress queue: processed stream packets in completion
    /// order, drained by PollEgress.
    mutable std::mutex egress_m;
    std::vector<ArenaPacket*> egress;

    // Traffic counters, written by this shard's executor only (the
    // owner contract in common/counters.hpp; see
    // CountersSnapshotRelaxed).
    RelaxedCounter batches, packets, forwarded, dropped, filtered;
    // Wall-clock ns spent executing work items (one clock pair per
    // item, never per packet).
    RelaxedCounter busy_ns;
    // Streaming counters (see ShardCounters).
    RelaxedCounter stream_bursts, stream_pkts, egress_pkts;
    // Bumped by whichever producer finds the ring full: shared.
    SharedCounter producer_stalls;

    // Executor scratch (ingress VIDs), reused across work items.
    std::vector<u16> vids;
  };

  /// Recycled ShardWork storage: pointer vectors whose packets were
  /// handed on keep their capacity and flow back to producers, so a
  /// steady Submit or SubmitStream load stops allocating.  Guarded by
  /// pool_mutex_; both sides use try_lock and fall back to fresh
  /// allocation under contention.
  [[nodiscard]] ingress::ShardWork AcquireWork();
  void RecycleWork(ingress::ShardWork&& work);

  void WorkerLoop(ShardContext* ctx, std::size_t s);
  /// Appends one replica (replaying the config log) and starts its
  /// worker when the engine runs worker threads.  Caller holds the
  /// engine exclusively (or is the constructor).
  void AddShardLocked();
  void StartWorkerLocked(std::size_t s);
  void StopWorkerLocked(std::size_t s);
  /// Scatters packets `at(0..n)` by tenant into one work item per
  /// involved shard (slices of `ticket` when set, else a streaming
  /// burst), stamps their ingress TSC, and pushes each item onto its
  /// shard's ring — or, without worker threads, executes it inline.
  /// Caller holds the engine shared.
  template <typename PacketAt>
  void Scatter(std::size_t n, PacketAt at,
               const std::shared_ptr<ingress::TicketState>& ticket);
  /// Runs one work item on shard `s` in place, accounts verdicts and
  /// telemetry, then hands the packets on: a ticket slice moves them
  /// into the ticket's results and finishes its shard, a streaming
  /// burst pushes them onto the egress queue or back to their arenas.
  /// Called by the shard worker and by the inline engine.
  template <typename PacketT>
  void ExecuteWork(std::size_t s, ingress::ShardWork& work);

  /// Waits until every shard ring is empty and every worker idle.
  /// Caller holds the engine exclusively, so no new work can arrive.
  void DrainLocked() const;
  /// Moves every shard's egress queue into the global overflow FIFO.
  /// Run (drained, exclusive) before any operation that re-homes a
  /// tenant, so the per-tenant egress order survives the move:
  /// PollEgress drains the overflow before the per-shard queues.
  void FlushEgressLocked();
  /// Applies `write` to every replica and records it in the config log.
  /// Caller holds the engine exclusively and has drained.
  void BroadcastLocked(const ConfigWrite& write);
  bool MigrateTenantLocked(ModuleId tenant, std::size_t to_shard);
  [[nodiscard]] std::size_t ShardForLocked(ModuleId tenant,
                                           std::size_t shard_count) const;
  // Unlocked internals of the exact accessors (caller holds a gate).
  [[nodiscard]] ShardCounters ShardCountersLocked(std::size_t i) const;
  [[nodiscard]] u64 ForwardedLocked(ModuleId tenant) const;
  [[nodiscard]] u64 DroppedLocked(ModuleId tenant) const;
  [[nodiscard]] std::vector<ModuleId> ActiveTenantsLocked() const;

  // Writer-priority engine lock.  Producers (Submit, SubmitStream) hold
  // it shared for the scatter+enqueue window only (the inline engine:
  // also while running their slices); control-plane mutations and exact
  // stats hold it exclusively and drain.  `exclusive_waiting_` makes
  // producers back off while a writer waits, so a continuous submit load
  // cannot starve CommitEpoch (pthread rwlocks are reader-preferring by
  // default).
  class ExclusiveGate;
  class SharedGate;
  mutable std::shared_mutex engine_mutex_;
  mutable std::atomic<std::size_t> exclusive_waiting_{0};

  DataplaneConfig cfg_;  // num_shards tracks resizes
  /// Declared before shards_/shard_ctx_ so workers recording into it
  /// are destroyed first on teardown.
  Telemetry telemetry_;
  std::deque<Pipeline> shards_;  // deque: growth never moves replicas
  std::vector<std::unique_ptr<ShardContext>> shard_ctx_;
  std::atomic<std::size_t> num_shards_{0};
  std::atomic<std::size_t> workers_running_{0};
  /// Mirror of cfg_.ingress_queue_depth for lock-free reads (the
  /// controller tick); writes under the exclusive engine.
  std::atomic<std::size_t> ingress_depth_{0};

  /// Work items dispatched (pushed to a ring or run inline) but not yet
  /// fully executed.  DrainLocked waits for zero after the per-shard
  /// (empty && !busy) scan.
  std::atomic<u64> inflight_{0};

  /// Egress packets carried across a tenant re-homing (migration /
  /// resize): drained by PollEgress before any per-shard queue.
  mutable std::mutex overflow_m_;
  std::deque<ArenaPacket*> egress_overflow_;

  /// Egress transmit binding (BindEgressDevice / FlushEgress).  The
  /// mutex serializes FlushEgress calls against each other and against
  /// rebinding — Network is not thread-safe, so one consumer drives the
  /// bound network at a time.
  mutable std::mutex egress_bind_m_;
  Network* egress_net_ = nullptr;
  /// (local egress port, network host index), sorted by local port.
  std::vector<std::pair<u16, u32>> egress_hosts_;
  // Written only under egress_bind_m_.
  RelaxedCounter egress_tx_;
  RelaxedCounter egress_unbound_;

  std::atomic<u64> writes_broadcast_{0};
  std::atomic<u64> epoch_{0};
  std::atomic<u64> migrations_{0};
  std::atomic<u64> resizes_{0};

  // Pending epoch (guarded by pending_mutex_, never by engine_mutex_, so
  // staging never blocks behind in-flight work).
  mutable std::mutex pending_mutex_;
  std::vector<ConfigWrite> pending_writes_;

  // Configuration log: last write per resource address, replayed onto
  // replicas created by ResizeShards.  Guarded by the exclusive engine.
  std::map<u32, ConfigWrite> config_log_;

  // Tenant→shard steering table, indexed by VLAN/module ID.  kNoSteering
  // means "use the hash".  Lock-free reads on the scatter hot path;
  // stores only happen under the exclusive engine.
  static constexpr u32 kNoSteering = ~u32{0};
  std::vector<std::atomic<u32>> steering_;

  // Per-tenant monotonic counters for the relaxed stats path (indexed by
  // VLAN/module ID, bumped by every shard's executor once per tenant run
  // of a work item).
  std::vector<SharedCounter> tenant_forwarded_;
  std::vector<SharedCounter> tenant_dropped_;

  // Counts carried over from replicas destroyed by ResizeShards shrinks,
  // so the exact per-tenant/total accessors stay monotonic across
  // resizes.  Written under the exclusive engine; read under either gate.
  std::unordered_map<u16, u64> retired_forwarded_;
  std::unordered_map<u16, u64> retired_dropped_;
  u64 retired_packets_ = 0;

  // Recycled work-item pool (see AcquireWork).
  mutable std::mutex pool_mutex_;
  std::vector<ingress::ShardWork> work_pool_;
};

}  // namespace menshen
