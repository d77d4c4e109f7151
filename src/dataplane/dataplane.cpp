#include "dataplane/dataplane.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "packet/arena.hpp"

namespace menshen {

namespace {

// SplitMix64 finalizer: cheap, well-mixed tenant-ID hash so consecutive
// VIDs do not all land on the same shard.
u64 MixTenantId(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Packets without a VLAN tag carry no tenant ID (dropped identically by
// any replica's filter); this sentinel keeps them out of the per-tenant
// counters.
constexpr u16 kNoVid = 0xFFFF;

// Grouping key for the no-VLAN packets during the scatter (they all go
// to shard 0 as one pseudo-tenant group).
constexpr u32 kNoVlanKey = ModuleId::kMax + 1;

// Upper bound on pooled work items: enough for several in-flight
// submissions' worth of slices without holding memory forever.
constexpr std::size_t kWorkPoolCap = 64;

/// Per-producer scatter scratch (thread-local, so any number of
/// producers submit without sharing): the tenant-grouping tables and
/// the per-shard work array, all reused across submissions so the
/// scatter itself allocates nothing in steady state.
struct ScatterScratch {
  /// One tenant (or the no-VLAN pseudo-tenant) appearing in this batch.
  struct Group {
    u32 shard = 0;
    u32 count = 0;   // packets in this group
    u32 base = 0;    // start offset inside the shard's slice
    u32 cursor = 0;  // next position during placement
  };
  std::vector<Group> groups;        // first-appearance order
  std::vector<u32> group_of;        // packet index -> group index
  std::vector<u32> slot;            // key -> group index (stamped)
  std::vector<u32> stamp;           // key -> generation of `slot`
  u32 gen = 0;
  std::vector<u32> shard_total;     // shard -> slice size
  std::vector<ingress::ShardWork> works;
};

/// Verdict class of a processed packet in the TraceRecord::verdict
/// encoding: 0 forwarded (egress), 1 dropped, 2 filtered.
template <typename PacketT>
u8 VerdictClass(const PacketT& p) {
  const auto fv = static_cast<FilterVerdict>(p.verdict);
  if (fv == FilterVerdict::kDropBitmap ||
      (fv == FilterVerdict::kData && p.disposition == Disposition::kDrop))
    return 1;
  return fv == FilterVerdict::kData ? 0 : 2;
}

thread_local ScatterScratch tls_scatter;

}  // namespace

// --- Engine gates --------------------------------------------------------------

class Dataplane::ExclusiveGate {
 public:
  explicit ExclusiveGate(const Dataplane& dp) : dp_(dp) {
    dp_.exclusive_waiting_.fetch_add(1, std::memory_order_acq_rel);
    dp_.engine_mutex_.lock();
    dp_.exclusive_waiting_.fetch_sub(1, std::memory_order_acq_rel);
  }
  ~ExclusiveGate() { dp_.engine_mutex_.unlock(); }
  ExclusiveGate(const ExclusiveGate&) = delete;
  ExclusiveGate& operator=(const ExclusiveGate&) = delete;

 private:
  const Dataplane& dp_;
};

class Dataplane::SharedGate {
 public:
  explicit SharedGate(const Dataplane& dp) : dp_(dp) {
    // Back off while a writer waits: pthread rwlocks prefer readers by
    // default, and a continuous submit load must not starve CommitEpoch.
    while (dp_.exclusive_waiting_.load(std::memory_order_acquire) != 0)
      std::this_thread::yield();
    dp_.engine_mutex_.lock_shared();
  }
  ~SharedGate() { dp_.engine_mutex_.unlock_shared(); }
  SharedGate(const SharedGate&) = delete;
  SharedGate& operator=(const SharedGate&) = delete;

 private:
  const Dataplane& dp_;
};

// --- Construction / teardown ---------------------------------------------------

Dataplane::Dataplane(DataplaneConfig cfg)
    : cfg_(cfg), telemetry_(cfg.telemetry) {
  if (cfg_.num_shards == 0) {
    // Auto-scale: one replica per hardware thread (at least one — the
    // standard leaves hardware_concurrency free to return 0).
    cfg_.num_shards =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (cfg_.ingress_queue_depth < 2) cfg_.ingress_queue_depth = 2;

  steering_ = std::vector<std::atomic<u32>>(ModuleId::kMax + 1);
  for (auto& s : steering_) s.store(kNoSteering, std::memory_order_relaxed);
  tenant_forwarded_.resize(ModuleId::kMax + 1);
  tenant_dropped_.resize(ModuleId::kMax + 1);
  ingress_depth_.store(cfg_.ingress_queue_depth, std::memory_order_release);

  for (std::size_t s = 0; s < cfg_.num_shards; ++s) AddShardLocked();
  num_shards_.store(cfg_.num_shards, std::memory_order_release);
}

Dataplane::~Dataplane() {
  // Drain first so no ticket is abandoned with a broken promise, then
  // stop every worker.
  ExclusiveGate gate(*this);
  DrainLocked();
  for (std::size_t s = 0; s < shard_ctx_.size(); ++s) StopWorkerLocked(s);
}

void Dataplane::AddShardLocked() {
  const std::size_t s = shards_.size();
  Pipeline& replica = shards_.emplace_back(cfg_.timing,
                                           cfg_.reconfig_on_data_path);
  // A replica born after traffic started must carry the same
  // configuration as its siblings: replay the log (last write per
  // resource address).
  for (const auto& [key, write] : config_log_) replica.ApplyWrite(write);
  shard_ctx_.push_back(
      std::make_unique<ShardContext>(cfg_.ingress_queue_depth));
  telemetry_.EnsureShards(s + 1);
  StartWorkerLocked(s);
}

void Dataplane::StartWorkerLocked(std::size_t s) {
  if (!cfg_.worker_threads) return;
  ShardContext* ctx = shard_ctx_[s].get();
  ctx->stop.store(false, std::memory_order_seq_cst);
  ctx->worker = std::thread([this, ctx, s] { WorkerLoop(ctx, s); });
  workers_running_.fetch_add(1, std::memory_order_acq_rel);
}

void Dataplane::StopWorkerLocked(std::size_t s) {
  ShardContext& ctx = *shard_ctx_[s];
  if (!ctx.worker.joinable()) return;
  {
    std::lock_guard<std::mutex> g(ctx.m);
    ctx.stop.store(true, std::memory_order_seq_cst);
  }
  ctx.cv.notify_all();
  ctx.worker.join();
  workers_running_.fetch_sub(1, std::memory_order_acq_rel);
}

// --- Steering ------------------------------------------------------------------

std::size_t Dataplane::ShardForLocked(ModuleId tenant,
                                      std::size_t shard_count) const {
  const u32 steered =
      steering_[tenant.value()].load(std::memory_order_acquire);
  if (steered != kNoSteering && steered < shard_count) return steered;
  return MixTenantId(tenant.value()) % shard_count;
}

std::size_t Dataplane::ShardFor(ModuleId tenant) const {
  return ShardForLocked(tenant, num_shards());
}

// --- Ingress: submit / scatter / workers ---------------------------------------

std::future<std::vector<PipelineResult>> Dataplane::Submit(
    BatchTicket&& ticket) {
  auto state = std::make_shared<ingress::TicketState>();
  state->batch = std::move(ticket.batch);
  state->results.resize(state->batch.size());
  state->on_complete = std::move(ticket.on_complete);
  std::future<std::vector<PipelineResult>> fut = state->promise.get_future();
  {
    SharedGate gate(*this);
    Packet* const batch = state->batch.data();
    Scatter(state->batch.size(), [batch](std::size_t i) { return batch + i; },
            state);
  }
  // Drop the submitter's ticket reference only after the gate above is
  // released: when this is the last reference (inline mode, or every
  // worker already finished its slice), the completion — including the
  // user's on_complete callback — must not run while this thread holds
  // the engine.
  state->FinishOneShard();
  return fut;
}

std::vector<PipelineResult> Dataplane::ProcessBatch(
    std::vector<Packet>&& batch) {
  BatchTicket ticket;
  ticket.batch = std::move(batch);
  return Submit(std::move(ticket)).get();
}

void Dataplane::SubmitStream(ArenaPacket* const* pkts, std::size_t n) {
  if (n == 0) return;
  SharedGate gate(*this);
  Scatter(n, [pkts](std::size_t i) { return pkts[i]; }, nullptr);
}

template <typename PacketAt>
void Dataplane::Scatter(std::size_t n, PacketAt at,
                        const std::shared_ptr<ingress::TicketState>& ticket) {
  using PacketT = std::remove_pointer_t<decltype(at(std::size_t{0}))>;
  const std::size_t shard_count = shards_.size();
  ScatterScratch& sc = tls_scatter;
  // One TSC read per submission, shared by every packet in it: the
  // ingress side of the latency histograms and trace records.
  const bool timed =
      telemetry_.histograms_enabled() || telemetry_.sample_every() != 0;
  const u64 now = timed ? TscClock::Now() : 0;

  // Pass 1 — group by tenant (first-appearance order).  Each shard's
  // slice is laid out as whole tenant groups, maximizing the module-run
  // length the pipeline's run segmentation sees, while the order
  // *within* a tenant stays the arrival order — per-tenant streams are
  // byte-identical to the ungrouped scatter (cross-tenant order within a
  // slice was never observable: tenants share no state, ticket results
  // land by original batch index).  Packets without a VLAN tag form one
  // pseudo-group on shard 0 (any replica's filter drops them
  // identically).
  if (sc.slot.size() < kNoVlanKey + 1) {
    sc.slot.resize(kNoVlanKey + 1, 0);
    sc.stamp.resize(kNoVlanKey + 1, 0);
  }
  if (++sc.gen == 0) {  // generation wrap: invalidate all stamps
    std::fill(sc.stamp.begin(), sc.stamp.end(), 0u);
    sc.gen = 1;
  }
  sc.groups.clear();
  sc.group_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    PacketT* const p = at(i);
    if (timed) p->ingress_tsc = now;
    const u32 key = p->has_vlan() ? p->vid().value() : kNoVlanKey;
    if (sc.stamp[key] != sc.gen) {
      sc.stamp[key] = sc.gen;
      sc.slot[key] = static_cast<u32>(sc.groups.size());
      const std::size_t s =
          key == kNoVlanKey
              ? 0
              : ShardForLocked(ModuleId(static_cast<u16>(key)), shard_count);
      sc.groups.push_back(ScatterScratch::Group{static_cast<u32>(s), 0, 0, 0});
    }
    const u32 g = sc.slot[key];
    ++sc.groups[g].count;
    sc.group_of[i] = g;
  }

  // Group base offsets: a running prefix per shard, in first-appearance
  // order, so each shard's slice is a concatenation of its groups.
  sc.shard_total.assign(shard_count, 0);
  for (ScatterScratch::Group& g : sc.groups) {
    g.base = sc.shard_total[g.shard];
    g.cursor = 0;
    sc.shard_total[g.shard] += g.count;
  }

  // Pass 2 — place the packet pointers.  The slices come from the work
  // pool (executors return consumed storage), so a steady load
  // allocates nothing here.
  if (sc.works.size() < shard_count) sc.works.resize(shard_count);
  std::size_t involved = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (sc.shard_total[s] == 0) continue;
    ++involved;
    sc.works[s] = AcquireWork();
    sc.works[s].slice<PacketT>().resize(sc.shard_total[s]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ScatterScratch::Group& g = sc.groups[sc.group_of[i]];
    sc.works[g.shard].slice<PacketT>()[g.base + g.cursor++] = at(i);
  }
  // +1: the submitter holds one reference until every shard is enqueued,
  // so a fast worker cannot complete the ticket mid-dispatch.  This also
  // makes an empty batch complete (with empty results) in Submit.
  if (ticket)
    ticket->shards_pending.store(involved + 1, std::memory_order_relaxed);

  for (std::size_t s = 0; s < shard_count; ++s) {
    if (sc.shard_total[s] == 0) continue;
    ingress::ShardWork& work = sc.works[s];
    work.ticket = ticket;
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    ShardContext& ctx = *shard_ctx_[s];
    if (!cfg_.worker_threads) {
      // Without worker threads the producer core IS the forwarding
      // core: it runs the slice to completion itself, serialized per
      // shard on inline_m.  Config operations still exclude this via
      // the exclusive gate.
      std::lock_guard<std::mutex> lk(ctx.inline_m);
      ExecuteWork<PacketT>(s, work);
      continue;
    }
    // Backpressure on a full ring; one producer_stalls tick per stalled
    // push (not per retry) keeps the controller's signal proportional
    // to how often producers actually block.
    bool stalled = false;
    while (!ctx.queue.TryPush(std::move(work))) {
      if (!stalled) {
        ctx.producer_stalls.Add(1);
        stalled = true;
      }
      std::this_thread::yield();
    }
    work = ingress::ShardWork{};
    // Doorbell: ring only when the worker may be parked.  The seq_cst
    // pairing with the worker's park sequence guarantees that if the
    // worker saw an empty ring, we see parked == true here (or it sees
    // our push) — a wakeup is never lost.
    if (ctx.parked.load(std::memory_order_seq_cst)) {
      { std::lock_guard<std::mutex> g(ctx.m); }
      ctx.cv.notify_one();
    }
  }
  // A ticket's own +1 reference is released by Submit, outside the
  // engine gate.
}

std::size_t Dataplane::PollEgress(std::vector<ArenaPacket*>& out) {
  SharedGate gate(*this);
  std::size_t appended = 0;
  {
    // Quiesce-overflow first: packets parked here by a migration or
    // resize precede — per tenant — anything now sitting in a shard
    // egress queue.
    std::lock_guard<std::mutex> lk(overflow_m_);
    if (!egress_overflow_.empty()) {
      out.insert(out.end(), egress_overflow_.begin(), egress_overflow_.end());
      appended += egress_overflow_.size();
      egress_overflow_.clear();
    }
  }
  for (const auto& ctx : shard_ctx_) {
    std::lock_guard<std::mutex> lk(ctx->egress_m);
    if (ctx->egress.empty()) continue;
    out.insert(out.end(), ctx->egress.begin(), ctx->egress.end());
    appended += ctx->egress.size();
    ctx->egress.clear();
  }
  return appended;
}

void Dataplane::FlushEgressLocked() {
  std::lock_guard<std::mutex> lk(overflow_m_);
  for (const auto& ctx : shard_ctx_) {
    std::lock_guard<std::mutex> g(ctx->egress_m);
    egress_overflow_.insert(egress_overflow_.end(), ctx->egress.begin(),
                            ctx->egress.end());
    ctx->egress.clear();
  }
}

void Dataplane::BindEgressDevice(Network& net, std::map<u16, PortRef> port_map) {
  // Resolve up front: an injection at a host-less port would throw after
  // the flush drained its packets.  Failing here keeps FlushEgress
  // all-or-nothing, and FlushEgress maps ports with integers only.
  std::vector<std::pair<u16, u32>> hosts;
  for (const auto& [local_port, ref] : port_map) {
    const std::optional<u32> host = net.FindHost(ref);
    if (!host) {
      throw std::invalid_argument(
          "BindEgressDevice: no host attached at " + ref.device + ":" +
          std::to_string(ref.port) + " (mapped from egress port " +
          std::to_string(local_port) + ")");
    }
    hosts.emplace_back(local_port, *host);
  }
  std::lock_guard<std::mutex> lk(egress_bind_m_);
  egress_net_ = &net;
  egress_hosts_ = std::move(hosts);
}

std::vector<Delivery> Dataplane::FlushEgress(std::size_t max_hops) {
  // Drain first (PollEgress already implements the ordering contract:
  // quiesce-overflow FIFO, then shard queues in shard order), then hand
  // the drained run to the network as one burst under the binding lock.
  // Draining outside the lock would let two concurrent FlushEgress calls
  // interleave their injection order, so the whole flush is serialized.
  std::lock_guard<std::mutex> lk(egress_bind_m_);
  std::vector<ArenaPacket*> drained;
  if (PollEgress(drained) == 0) return {};

  // Each packet enters at the host bound to its egress port; a multicast
  // packet once per bound port of its list, as consecutive entries
  // naming its buffer.  Unbound packets go straight back to their arenas.
  std::vector<Network::ArenaInjection> tx;
  std::vector<ArenaPacket*> unbound;
  try {
    tx.reserve(drained.size());
    const auto via = [&](ArenaPacket* p, u16 local_port) {
      const auto it = std::lower_bound(
          egress_hosts_.begin(), egress_hosts_.end(), local_port,
          [](const std::pair<u16, u32>& e, u16 port) { return e.first < port; });
      if (it != egress_hosts_.end() && it->first == local_port)
        tx.push_back(Network::ArenaInjection{p, it->second});
    };
    for (ArenaPacket* p : drained) {
      const std::size_t before = tx.size();
      if (p->disposition == Disposition::kMulticast) {
        for (const u16 mp : p->multicast_ports) via(p, mp);
      } else {
        via(p, p->egress_port);
      }
      if (tx.size() == before) unbound.push_back(p);
    }
  } catch (...) {
    ReleaseToOwners(drained.data(), drained.size());
    throw;
  }
  ReleaseToOwners(unbound.data(), unbound.size());
  if (!unbound.empty()) egress_unbound_.Add(unbound.size());
  if (tx.empty()) return {};
  egress_tx_.Add(tx.size());
  return egress_net_->InjectArena(tx, max_hops);
}

void Dataplane::SetIngressQueueDepth(std::size_t depth) {
  if (depth < 2) depth = 2;
  ExclusiveGate gate(*this);
  DrainLocked();
  if (depth == cfg_.ingress_queue_depth) return;
  // The rings reallocate only when quiescent AND consumer-free: stop
  // every worker (queues are drained, so nothing is lost), swap the
  // storage, restart.
  for (std::size_t s = 0; s < shard_ctx_.size(); ++s) StopWorkerLocked(s);
  for (const auto& ctx : shard_ctx_) ctx->queue.Reset(depth);
  cfg_.ingress_queue_depth = depth;
  ingress_depth_.store(depth, std::memory_order_release);
  for (std::size_t s = 0; s < shard_ctx_.size(); ++s) StartWorkerLocked(s);
}

ingress::ShardWork Dataplane::AcquireWork() {
  std::unique_lock<std::mutex> lk(pool_mutex_, std::try_to_lock);
  if (lk.owns_lock() && !work_pool_.empty()) {
    ingress::ShardWork w = std::move(work_pool_.back());
    work_pool_.pop_back();
    return w;
  }
  return {};
}

void Dataplane::RecycleWork(ingress::ShardWork&& work) {
  // Packets are handed on and the ticket reference released; the
  // vectors' capacity is the value.
  work.ticket.reset();
  work.packets.clear();
  work.burst.clear();
  std::unique_lock<std::mutex> lk(pool_mutex_, std::try_to_lock);
  if (!lk.owns_lock() || work_pool_.size() >= kWorkPoolCap) return;
  work_pool_.push_back(std::move(work));
}

void Dataplane::WorkerLoop(ShardContext* ctx, std::size_t s) {
  ingress::ShardWork work;
  for (;;) {
    // busy spans the pop and the execution, so the drain path's
    // (empty ring && !busy) check never declares an in-flight item
    // quiescent.
    ctx->busy.store(true, std::memory_order_seq_cst);
    if (ctx->queue.TryPop(work)) {
      if (work.ticket) {
        ExecuteWork<Packet>(s, work);
      } else {
        ExecuteWork<ArenaPacket>(s, work);
      }
      ctx->busy.store(false, std::memory_order_seq_cst);
      continue;
    }
    ctx->busy.store(false, std::memory_order_seq_cst);

    std::unique_lock<std::mutex> lk(ctx->m);
    ctx->parked.store(true, std::memory_order_seq_cst);
    ctx->cv.wait(lk, [&] {
      return ctx->stop.load(std::memory_order_relaxed) || !ctx->queue.empty();
    });
    ctx->parked.store(false, std::memory_order_seq_cst);
    if (ctx->stop.load(std::memory_order_relaxed)) return;
  }
}

template <typename PacketT>
void Dataplane::ExecuteWork(std::size_t s, ingress::ShardWork& work) {
  constexpr bool kTicket = std::is_same_v<PacketT, Packet>;
  ShardContext& ctx = *shard_ctx_[s];
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<PacketT*>& pkts = work.slice<PacketT>();
  const std::size_t n = pkts.size();

  // Ingress VIDs, snapshotted before processing: modules may rewrite the
  // VID in the packet bytes, but accounting follows the ingress tenant.
  ctx.vids.clear();
  for (const PacketT* p : pkts)
    ctx.vids.push_back(p->has_vlan() ? p->vid().value() : kNoVid);

  bool ok = true;
  try {
    shards_[s].ProcessStreamBurst(pkts.data(), n);
  } catch (...) {
    ok = false;
    if constexpr (kTicket) {
      work.ticket->RecordError(std::current_exception());
    } else {
      // A throwing burst must not leak arena buffers: hand everything
      // back unprocessed.
      ReleaseToOwners(pkts.data(), n);
    }
  }

  if (ok) {
    if constexpr (kTicket) {
      ctx.batches.Add(1);
    } else {
      ctx.stream_bursts.Add(1);
      ctx.stream_pkts.Add(n);
    }
    ctx.packets.Add(n);

    // One pass per contiguous tenant run (the scatter lays each slice
    // out as whole tenant groups, so runs are maximal): verdict counts,
    // one add per run on the shared per-tenant counters, and one latency
    // record per run from its ingress stamp (every packet of one
    // submission shares it).  forwarded/dropped/filtered are disjoint
    // and sum to packets; the per-tenant counters mirror Pipeline's own
    // accounting, so the relaxed stats agree with the exact ones whenever
    // the engine is quiet.  Runs before the tail below hands the packets
    // on.
    const bool histograms = telemetry_.histograms_enabled();
    const bool sampling = telemetry_.sample_every() != 0;
    const u64 now = histograms || sampling ? TscClock::Now() : 0;
    u64 fwd = 0;
    u64 drop = 0;
    for (std::size_t k = 0, e = 0; k < n; k = e) {
      const u16 vid = ctx.vids[k];
      u64 run_fwd = 0;
      u64 run_drop = 0;
      for (e = k; e < n && ctx.vids[e] == vid; ++e) {
        const u8 verdict = VerdictClass(*pkts[e]);
        run_fwd += verdict == 0;
        run_drop += verdict == 1;
      }
      fwd += run_fwd;
      drop += run_drop;
      if (vid == kNoVid) continue;
      if (run_fwd != 0) tenant_forwarded_[vid].Add(run_fwd);
      if (run_drop != 0) tenant_dropped_[vid].Add(run_drop);
      const u64 stamp = pkts[k]->ingress_tsc;
      if (histograms && stamp != 0) {
        const u64 ns = TscClock::ToNs(now - stamp);
        if constexpr (kTicket) {
          telemetry_.RecordBatched(s, vid, ns, e - k);
        } else {
          telemetry_.RecordStream(s, vid, ns, e - k);
        }
      }
    }
    ctx.forwarded.Add(fwd);
    ctx.dropped.Add(drop);
    ctx.filtered.Add(n - fwd - drop);

    if (sampling) {
      for (std::size_t k = 0; k < n; ++k) {
        if (!telemetry_.SampleTick(s)) continue;
        const PacketT& p = *pkts[k];
        TraceRecord rec;
        rec.tenant = ctx.vids[k] == kNoVid ? 0 : ctx.vids[k];
        rec.shard = static_cast<u8>(s);
        rec.tier = p.exec_tier;
        rec.stages = p.exec_steps;
        rec.verdict = VerdictClass(p);
        rec.stream = kTicket ? 0 : 1;
        rec.ns = p.ingress_tsc != 0 ? TscClock::ToNs(now - p.ingress_tsc) : 0;
        telemetry_.Trace(s, rec);
      }
    }

    if constexpr (kTicket) {
      // Gather: each packet moves into its result at its original batch
      // position.  Distinct shards write disjoint positions; the
      // shards_pending decrement publishes them to whichever thread
      // completes the ticket.
      ingress::TicketState& t = *work.ticket;
      for (Packet* p : pkts)
        TakeResult(*p, t.results[static_cast<std::size_t>(p - t.batch.data())]);
    } else {
      // Emit: forwarded/multicast packets go onto the egress queue in
      // processing order; drops and non-data verdicts are recycled
      // straight back to their arenas (compacted into the head of the
      // burst array).
      std::size_t ndrop = 0;
      std::size_t nfwd = 0;
      {
        std::lock_guard<std::mutex> g(ctx.egress_m);
        for (ArenaPacket* p : pkts) {
          if (VerdictClass(*p) != 0) {
            pkts[ndrop++] = p;
          } else {
            ctx.egress.push_back(p);
            ++nfwd;
          }
        }
      }
      if (nfwd != 0) ctx.egress_pkts.Add(nfwd);
      if (ndrop != 0) ReleaseToOwners(pkts.data(), ndrop);
    }
  }

  // Return the consumed storage to the producer pool and account the
  // busy time before handing the ticket on.
  const std::shared_ptr<ingress::TicketState> ticket = std::move(work.ticket);
  RecycleWork(std::move(work));
  ctx.busy_ns.Add(static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  if (ticket) ticket->FinishOneShard();
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

void Dataplane::DrainLocked() const {
  // Caller holds the engine exclusively: no producer can enqueue, so
  // every ring drains monotonically and every worker goes idle.
  for (const auto& ctx : shard_ctx_) {
    while (!ctx->queue.empty() || ctx->busy.load(std::memory_order_seq_cst))
      std::this_thread::yield();
  }
  // The dispatch-to-completion counter is the authoritative check: it
  // is raised before every push and lowered (acq_rel) only after the
  // work fully executed, so zero means nothing is queued or running.
  while (inflight_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
}

// --- Epoched configuration -----------------------------------------------------

void Dataplane::BroadcastLocked(const ConfigWrite& write) {
  for (Pipeline& shard : shards_) shard.ApplyWrite(write);
  // Last write per resource address wins: the log is what a replica born
  // later (ResizeShards growth) replays to catch up.
  const u32 key = (static_cast<u32>(write.kind) << 16) |
                  (static_cast<u32>(write.stage) << 8) |
                  static_cast<u32>(write.index);
  config_log_[key] = write;
  writes_broadcast_.fetch_add(1, std::memory_order_release);
}

void Dataplane::StageWrite(const ConfigWrite& write) {
  std::lock_guard<std::mutex> lk(pending_mutex_);
  pending_writes_.push_back(write);
}

void Dataplane::StageWrites(const std::vector<ConfigWrite>& writes) {
  std::lock_guard<std::mutex> lk(pending_mutex_);
  pending_writes_.insert(pending_writes_.end(), writes.begin(), writes.end());
}

std::size_t Dataplane::pending_writes() const {
  std::lock_guard<std::mutex> lk(pending_mutex_);
  return pending_writes_.size();
}

u64 Dataplane::CommitEpoch() {
  // Take the staged set first: writes staged after this point belong to
  // the next epoch.
  std::vector<ConfigWrite> writes;
  {
    std::lock_guard<std::mutex> lk(pending_mutex_);
    writes.swap(pending_writes_);
  }
  // Quiesce: exclude new submissions and drain every ring, so the whole
  // write set lands between sub-batches — never inside one.
  ExclusiveGate gate(*this);
  DrainLocked();
  for (const ConfigWrite& w : writes) BroadcastLocked(w);
  return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

void Dataplane::ApplyWrite(const ConfigWrite& write) {
  ExclusiveGate gate(*this);
  DrainLocked();
  BroadcastLocked(write);
}

void Dataplane::ApplyWrites(const std::vector<ConfigWrite>& writes) {
  ExclusiveGate gate(*this);
  DrainLocked();
  for (const ConfigWrite& w : writes) BroadcastLocked(w);
}

// --- Migration / dynamic shard count -------------------------------------------

bool Dataplane::MigrateTenantLocked(ModuleId tenant, std::size_t to_shard) {
  const std::size_t from = ShardForLocked(tenant, shards_.size());
  if (from == to_shard) return false;

  // Configuration is replicated on every shard, so only the tenant's
  // stateful segments move: copy each stage's segment to the same
  // physical window on the target (the segment table is part of the
  // replicated configuration) and zero the source, so the tenant's state
  // keeps living in exactly one place.
  Pipeline& src_pipe = shards_[from];
  Pipeline& dst_pipe = shards_[to_shard];
  for (std::size_t i = 0; i < src_pipe.num_stages(); ++i) {
    StatefulMemory& src = src_pipe.stage(i).stateful();
    StatefulMemory& dst = dst_pipe.stage(i).stateful();
    const std::size_t row = src.segment_table().IndexFor(tenant);
    const SegmentEntry seg = src.segment_table().At(row);
    for (std::size_t w = 0; w < seg.range; ++w)
      dst.PhysicalStore(seg.offset + w, src.PhysicalAt(seg.offset + w));
    src.ZeroRange(seg.offset, seg.range);
  }

  steering_[tenant.value()].store(static_cast<u32>(to_shard),
                                  std::memory_order_release);
  migrations_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool Dataplane::MigrateTenant(ModuleId tenant, std::size_t to_shard) {
  ExclusiveGate gate(*this);
  if (to_shard >= shards_.size())
    throw std::out_of_range("migration targets nonexistent shard");
  DrainLocked();
  // The tenant's processed-but-unpolled stream packets sit in its old
  // shard's egress queue; park them in the overflow FIFO so PollEgress
  // keeps emitting them before anything the new shard produces.
  FlushEgressLocked();
  return MigrateTenantLocked(tenant, to_shard);
}

std::size_t Dataplane::ResizeShards(std::size_t new_count) {
  if (new_count == 0)
    new_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // A resize is an epoch boundary: staged writes committed here land on
  // every replica, old and new, at the same quiesce point.
  std::vector<ConfigWrite> writes;
  {
    std::lock_guard<std::mutex> lk(pending_mutex_);
    writes.swap(pending_writes_);
  }
  ExclusiveGate gate(*this);
  DrainLocked();
  FlushEgressLocked();  // egress order must survive the re-homing

  const std::size_t old_count = shards_.size();
  if (new_count != old_count) {
    // Pin every tenant the dataplane counted to its current placement
    // before the hash denominator changes: an unpinned tenant's default
    // shard would silently move, stranding its stateful segments.
    for (const ModuleId t : ActiveTenantsRelaxed())
      steering_[t.value()].store(
          static_cast<u32>(ShardForLocked(t, old_count)),
          std::memory_order_release);

    if (new_count > old_count) {
      for (std::size_t s = old_count; s < new_count; ++s) AddShardLocked();
    } else {
      // Evacuate dying shards: every steering entry pointing past the new
      // count is migrated (state moves with it) onto a surviving shard.
      for (std::size_t v = 0; v < steering_.size(); ++v) {
        const u32 steered = steering_[v].load(std::memory_order_relaxed);
        if (steered == kNoSteering || steered < new_count) continue;
        MigrateTenantLocked(ModuleId(static_cast<u16>(v)),
                            MixTenantId(v) % new_count);
      }
      // Retire the dying replicas' packets so the total stays monotonic.
      for (std::size_t s = new_count; s < old_count; ++s)
        retired_packets_ += shard_ctx_[s]->packets.load();
      for (std::size_t s = new_count; s < old_count; ++s) StopWorkerLocked(s);
      shard_ctx_.resize(new_count);
      while (shards_.size() > new_count) shards_.pop_back();
    }
    num_shards_.store(new_count, std::memory_order_release);
    resizes_.fetch_add(1, std::memory_order_acq_rel);
  }

  for (const ConfigWrite& w : writes) BroadcastLocked(w);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return shards_.size();
}

// --- Statistics ----------------------------------------------------------------

std::array<u64, kExecTierCount> Dataplane::ShardCounters::TierPkts() const {
  // A run's fills are counted at its end, after Admit counted each miss:
  // a relaxed row may see fills whose misses it did not, so clamp.
  const u64 fills = std::min(kernel_record_fills, flow_cache_misses);
  std::array<u64, kExecTierCount> t{};
  t[static_cast<u8>(ExecTier::kFlowCacheHit)] = flow_cache_hits;
  t[static_cast<u8>(ExecTier::kKernel)] = kernel_pkts + kernel_record_fills;
  t[static_cast<u8>(ExecTier::kInterpreted)] =
      kernel_fallback_pkts + flow_cache_misses - fills;
  return t;
}

std::vector<Dataplane::ShardCounters> Dataplane::ShardRowsLocked() const {
  std::vector<ShardCounters> rows(shard_ctx_.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardContext& ctx = *shard_ctx_[i];
    ShardCounters& c = rows[i];
    c.batches = ctx.batches.load();
    c.packets = ctx.packets.load();
    c.forwarded = ctx.forwarded.load();
    c.dropped = ctx.dropped.load();
    c.filtered = ctx.filtered.load();
    c.queue_depth = ctx.queue.approx_size();
    c.busy_ns = ctx.busy_ns.load();
    c.stream_bursts = ctx.stream_bursts.load();
    c.stream_pkts = ctx.stream_pkts.load();
    c.egress_pkts = ctx.egress_pkts.load();
    {
      std::lock_guard<std::mutex> lk(ctx.egress_m);
      c.egress_depth = ctx.egress.size();
    }
    c.producer_stalls = ctx.producer_stalls.load();
    const FlowCacheStats fc = shards_[i].FlowCacheSnapshot();
    c.flow_cache_hits = fc.hits;
    c.flow_cache_misses = fc.misses;
    c.flow_cache_evictions = fc.evictions;
    c.flow_cache_rejects = fc.rejects;
    c.flow_cache_occupancy = fc.occupancy;
    c.flow_cache_burst_pkts = fc.hits + fc.misses;
    c.flow_cache_burst_fallback = fc.misses;
    const Pipeline::KernelStats ks = shards_[i].KernelSnapshot();
    c.kernel_pkts = ks.pkts;
    c.kernel_fallback_pkts = ks.fallback_pkts;
    c.kernel_record_fills = ks.record_fills;
  }
  return rows;
}

std::vector<Dataplane::TenantCounts> Dataplane::TenantRowsLocked() const {
  std::vector<TenantCounts> rows;
  for (const ModuleId tenant : ActiveTenantsRelaxed()) {
    TenantCounts& t = rows.emplace_back();
    t.tenant = tenant;
    t.shard = ShardForLocked(tenant, shards_.size());
    t.forwarded = forwarded_relaxed(tenant);
    t.dropped = dropped_relaxed(tenant);
  }
  return rows;
}

u64 Dataplane::TotalPacketsLocked() const {
  u64 total = retired_packets_;
  for (const auto& ctx : shard_ctx_) total += ctx->packets.load();
  return total;
}

ModuleExecPlan Dataplane::DescribeTenantRow(ModuleId tenant) const {
  SharedGate gate(*this);
  return shards_.at(ShardForLocked(tenant, shards_.size()))
      .DescribeRow(tenant);
}

std::vector<Dataplane::ShardCounters> Dataplane::CountersSnapshot() const {
  ExclusiveGate gate(*this);
  DrainLocked();
  return ShardRowsLocked();
}

std::vector<Dataplane::ShardCounters> Dataplane::CountersSnapshotRelaxed()
    const {
  // Shared gate: serializes only against ResizeShards (shard set stable),
  // never against traffic — producers also hold the gate shared.
  SharedGate gate(*this);
  return ShardRowsLocked();
}

Dataplane::QuiescedStats Dataplane::QuiescedStatsSnapshot() const {
  ExclusiveGate gate(*this);
  DrainLocked();
  QuiescedStats s;
  s.shards = ShardRowsLocked();
  s.match_stages.resize(shards_.front().num_stages());
  for (const Pipeline& shard : shards_) {
    for (std::size_t i = 0; i < shard.num_stages(); ++i) {
      const Stage& stage = shard.stage(i);
      s.match_stages[i].cam_lookups += stage.cam().lookups();
      s.match_stages[i].cam_hits += stage.cam().hits();
      s.match_stages[i].tcam_lookups += stage.tcam().lookups();
      s.match_stages[i].tcam_hits += stage.tcam().hits();
    }
  }
  s.tenants = TenantRowsLocked();
  s.total_packets = TotalPacketsLocked();
  return s;
}

u64 Dataplane::forwarded(ModuleId tenant) const {
  ExclusiveGate gate(*this);
  DrainLocked();
  return forwarded_relaxed(tenant);
}

u64 Dataplane::dropped(ModuleId tenant) const {
  ExclusiveGate gate(*this);
  DrainLocked();
  return dropped_relaxed(tenant);
}

u64 Dataplane::forwarded_relaxed(ModuleId tenant) const {
  return tenant_forwarded_[tenant.value()].load();
}

u64 Dataplane::dropped_relaxed(ModuleId tenant) const {
  return tenant_dropped_[tenant.value()].load();
}

std::vector<ModuleId> Dataplane::ActiveTenantsRelaxed() const {
  std::vector<ModuleId> out;
  for (std::size_t v = 0; v < tenant_forwarded_.size(); ++v)
    if (tenant_forwarded_[v].load() != 0 || tenant_dropped_[v].load() != 0)
      out.emplace_back(static_cast<u16>(v));
  return out;
}

u64 Dataplane::total_packets() const {
  ExclusiveGate gate(*this);
  DrainLocked();
  return TotalPacketsLocked();
}

u64 Dataplane::total_packets_relaxed() const {
  SharedGate gate(*this);
  return TotalPacketsLocked();
}

}  // namespace menshen
