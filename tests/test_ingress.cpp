// Async ingress subsystem (src/ingress/ + Dataplane::Submit): the MPSC
// submission ring must be FIFO and producer-safe, Submit must complete
// tickets byte-identically to the sequential single-pipeline reference,
// and ≥4 producer threads submitting interleaved tickets while the
// control plane commits epochs and migrates tenants must stay correct
// (run under ASAN and TSAN in CI).
#include "ingress/mpsc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "runtime/stats.hpp"
#include "sim/traffic.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

// --- MPSC ring unit tests -----------------------------------------------------

TEST(MpscRingQueue, FifoSingleProducer) {
  MpscRingQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(int{i}));
  EXPECT_FALSE(q.TryPush(99));  // full: backpressure, not growth
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(v));
  EXPECT_TRUE(q.empty());
}

TEST(MpscRingQueue, CapacityRoundsUpToPowerOfTwo) {
  MpscRingQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  MpscRingQueue<int> q1(1);
  EXPECT_EQ(q1.capacity(), 2u);
}

TEST(MpscRingQueue, WrapsAroundManyTimes) {
  MpscRingQueue<int> q(4);
  int v = -1;
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(q.TryPush(int{round}));
    EXPECT_TRUE(q.TryPush(round + 1000000));
    ASSERT_TRUE(q.TryPop(v));
    EXPECT_EQ(v, round);
    ASSERT_TRUE(q.TryPop(v));
    EXPECT_EQ(v, round + 1000000);
  }
}

TEST(MpscRingQueue, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscRingQueue<int> q(64);
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * kPerProducer + i;
        while (!q.TryPush(std::move(v))) std::this_thread::yield();
      }
    });
  }

  // Single consumer: per-producer subsequences must arrive in order, and
  // every value exactly once.
  u64 sum = 0;
  std::size_t popped = 0;
  std::vector<int> last_seen(kProducers, -1);
  std::thread consumer([&] {
    int v = -1;
    while (popped < kProducers * kPerProducer) {
      if (!q.TryPop(v)) {
        std::this_thread::yield();
        continue;
      }
      const int p = v / kPerProducer;
      EXPECT_GT(v % kPerProducer, last_seen[p]) << "producer " << p;
      last_seen[p] = v % kPerProducer;
      sum += static_cast<u64>(v);
      ++popped;
    }
  });

  for (auto& t : producers) t.join();
  done = true;
  consumer.join();

  const u64 n = u64{kProducers} * kPerProducer;
  EXPECT_EQ(popped, n);
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

// --- Submit API basics --------------------------------------------------------

struct TenantApp {
  u16 vid;
  const ModuleSpec* spec;
  u16 port;
};

const std::vector<TenantApp>& Tenants() {
  static const std::vector<TenantApp> tenants = {
      {2, &apps::CalcSpec(), 11},
      {3, &apps::CalcSpec(), 12},
      {4, &apps::NetChainSpec(), 13},
      {5, &apps::NetChainSpec(), 14},
  };
  return tenants;
}

std::vector<CompiledModule> CompileTenants() {
  std::vector<CompiledModule> images;
  for (std::size_t i = 0; i < Tenants().size(); ++i) {
    const TenantApp& t = Tenants()[i];
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(t.vid), 0, params::kNumStages, i * 4, 4,
                          static_cast<u8>(i * 32), 32);
    CompiledModule m = MustCompile(*t.spec, alloc);
    if (t.spec == &apps::CalcSpec()) {
      EXPECT_TRUE(apps::InstallCalcEntries(m, t.port));
    } else {
      EXPECT_TRUE(apps::InstallNetChainEntries(m, t.port));
    }
    images.push_back(std::move(m));
  }
  return images;
}

void ExpectSameResult(const PipelineResult& expected, const PipelineResult& got,
                      std::size_t index) {
  EXPECT_EQ(expected.filter_verdict, got.filter_verdict) << "packet " << index;
  ASSERT_EQ(expected.output.has_value(), got.output.has_value())
      << "packet " << index;
  if (expected.output) {
    EXPECT_EQ(expected.output->bytes().hex(), got.output->bytes().hex())
        << "packet " << index;
    EXPECT_EQ(expected.output->disposition, got.output->disposition)
        << "packet " << index;
    EXPECT_EQ(expected.output->egress_port, got.output->egress_port)
        << "packet " << index;
  }
}

TEST(Ingress, SubmitCompletesFutureAndCallbackInBatchOrder) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 4, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  Pipeline single;
  for (const CompiledModule& m : images)
    for (const ConfigWrite& w : m.AllWrites()) single.ApplyWrite(w);

  std::vector<Packet> batch;
  for (int i = 0; i < 32; ++i) {
    const TenantApp& t = Tenants()[static_cast<std::size_t>(i) % 4];
    batch.push_back(t.spec == &apps::CalcSpec()
                        ? CalcPacket(t.vid, apps::kCalcOpAdd,
                                     static_cast<u32>(i), 1)
                        : NetChainPacket(t.vid, apps::kNetChainOpSeq));
  }
  std::vector<PipelineResult> expected;
  for (const Packet& p : batch) expected.push_back(single.Process(p));

  std::atomic<int> callbacks{0};
  BatchTicket ticket;
  ticket.batch = batch;
  ticket.on_complete = [&](const std::vector<PipelineResult>& results) {
    EXPECT_EQ(results.size(), 32u);
    ++callbacks;
  };
  auto fut = dp.Submit(std::move(ticket));
  const std::vector<PipelineResult> got = fut.get();
  EXPECT_EQ(callbacks.load(), 1);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ExpectSameResult(expected[i], got[i], i);
}

TEST(Ingress, EmptyBatchCompletesImmediately) {
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = true});
  bool called = false;
  BatchTicket ticket;
  ticket.on_complete = [&](const std::vector<PipelineResult>& r) {
    called = r.empty();
  };
  auto results = dp.Submit(std::move(ticket)).get();
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(called);
}

TEST(Ingress, ManyOutstandingTicketsFromOneProducerStayOrdered) {
  const std::vector<CompiledModule> images = CompileTenants();
  // Tiny ring: the producer must hit backpressure and survive it.
  Dataplane dp(DataplaneConfig{.num_shards = 2,
                               .worker_threads = true,
                               .ingress_queue_depth = 2});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  // The NetChain sequencer hands out consecutive numbers: ticket-order
  // processing is visible in the bytes.
  constexpr u16 kVid = 4;
  std::vector<std::future<std::vector<PipelineResult>>> futures;
  for (int i = 0; i < 64; ++i) {
    BatchTicket t;
    t.batch.push_back(NetChainPacket(kVid, apps::kNetChainOpSeq));
    futures.push_back(dp.Submit(std::move(t)));
  }
  u32 expected_seq = 1;
  for (auto& f : futures) {
    auto results = f.get();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].output.has_value());
    EXPECT_EQ(NetChainSeq(*results[0].output), expected_seq++);
  }
}

// A full ring backpressures Submit exactly as it does SubmitStream, and
// the stall is counted: producer_stalls is what the controller's
// adaptive ring depth reacts to.  One long ticket keeps the only worker
// busy while three one-packet tickets overfill the two-slot ring.
TEST(Ingress, TicketBackpressureCountsProducerStalls) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 1,
                               .worker_threads = true,
                               .ingress_queue_depth = 2});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  const Packet pkt = CalcPacket(Tenants()[0].vid, apps::kCalcOpAdd, 7, 8);
  BatchTicket big;
  big.batch.assign(100000, pkt);
  std::vector<std::future<std::vector<PipelineResult>>> futures;
  futures.push_back(dp.Submit(std::move(big)));
  for (int i = 0; i < 3; ++i) {
    BatchTicket t;
    t.batch.push_back(pkt);
    futures.push_back(dp.Submit(std::move(t)));
  }
  EXPECT_EQ(futures[0].get().size(), 100000u);
  for (std::size_t i = 1; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get().size(), 1u);

  const std::vector<Dataplane::ShardCounters> c = dp.CountersSnapshot();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_GE(c[0].producer_stalls, 1u);
  EXPECT_EQ(c[0].batches, 4u);
  EXPECT_EQ(c[0].stream_bursts, 0u);
}

// --- Acceptance: multi-producer stress differential ---------------------------
//
// ≥4 producer threads, each owning one disjoint tenant (two producers
// drive stateless calc tenants, two drive stateful NetChain sequencers),
// submit interleaved tickets while a control thread commits epochs and
// migrates tenants.  Tenant disjointness makes every producer's stream
// independent, so each producer checks its tickets byte-for-byte against
// a private sequential single-pipeline reference — regardless of how the
// producers interleave globally.  Runs on both engines: with worker
// threads, and inline, where producers run their slices concurrently
// under the shared gate, serialized per shard.
void RunFourProducersConcurrentEpochsAndMigrations(bool worker_threads) {
  SCOPED_TRACE(worker_threads ? "worker threads" : "inline engine");
  constexpr std::size_t kProducers = 4;  // == Tenants().size()
  constexpr int kTicketsPerProducer = 60;
  constexpr std::size_t kPerTicket = 24;

  const std::vector<CompiledModule> images = CompileTenants();
  ASSERT_EQ(Tenants().size(), kProducers);

  Dataplane dp(DataplaneConfig{.num_shards = 4,
                               .worker_threads = worker_threads,
                               .ingress_queue_depth = 8});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  std::atomic<std::size_t> producers_done{0};
  std::atomic<int> failures{0};
  // Producers hold their second half until the control thread has
  // committed an epoch and moved a tenant, so the churn always lands
  // mid-run however the threads are scheduled.
  std::atomic<bool> churned{false};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Private reference: a single pipeline with the same configuration,
      // fed exactly this producer's stream in submission order.
      Pipeline reference;
      for (const CompiledModule& m : images)
        for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);

      const TenantApp& tenant = Tenants()[p];
      Rng rng(1000 + static_cast<u64>(p));
      for (int ticket_no = 0; ticket_no < kTicketsPerProducer; ++ticket_no) {
        if (ticket_no == kTicketsPerProducer / 2)
          while (!churned.load(std::memory_order_acquire))
            std::this_thread::yield();
        BatchTicket ticket;
        for (std::size_t i = 0; i < kPerTicket; ++i) {
          if (tenant.spec == &apps::CalcSpec()) {
            const u16 op = static_cast<u16>(
                rng.Between(apps::kCalcOpAdd, apps::kCalcOpEcho));
            ticket.batch.push_back(
                CalcPacket(tenant.vid, op, static_cast<u32>(rng.Below(1000)),
                           static_cast<u32>(rng.Below(1000))));
          } else {
            ticket.batch.push_back(
                NetChainPacket(tenant.vid, apps::kNetChainOpSeq));
          }
        }
        std::vector<PipelineResult> expected;
        expected.reserve(ticket.batch.size());
        for (const Packet& pkt : ticket.batch)
          expected.push_back(reference.Process(pkt));

        const std::vector<PipelineResult> got =
            dp.Submit(std::move(ticket)).get();
        if (got.size() != expected.size()) {
          ++failures;
          continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
          const bool same =
              expected[i].filter_verdict == got[i].filter_verdict &&
              expected[i].output.has_value() == got[i].output.has_value() &&
              (!expected[i].output ||
               (expected[i].output->bytes().hex() ==
                    got[i].output->bytes().hex() &&
                expected[i].output->egress_port == got[i].output->egress_port));
          if (!same) ++failures;
        }
      }
      ++producers_done;
    });
  }

  // Control thread: epoch churn + migration churn while tickets fly.
  std::thread control([&] {
    u64 flip = 0;
    u64 last_total = 0;
    while (producers_done.load() < kProducers) {
      for (const CompiledModule& m : images) dp.StageWrites(m.AllWrites());
      dp.CommitEpoch();
      // Bounce a stateful tenant across shards; the quiesced segment
      // copy must keep its sequence numbers intact.
      const u16 vid = Tenants()[2 + (flip % 2)].vid;  // NetChain tenants
      dp.MigrateTenant(ModuleId(vid), flip % dp.num_shards());
      ++flip;
      if (dp.migrations() != 0) churned.store(true, std::memory_order_release);
      // The controller tick's relaxed reads race the churn without
      // draining: one row per shard, a packet total that never falls.
      EXPECT_EQ(dp.CountersSnapshotRelaxed().size(), 4u);
      for (const ModuleId t : dp.ActiveTenantsRelaxed())
        (void)dp.DescribeTenantRow(t);
      const u64 total = dp.total_packets_relaxed();
      EXPECT_GE(total, last_total);
      last_total = total;
      std::this_thread::yield();
    }
  });

  for (auto& t : producers) t.join();
  control.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(dp.epoch(), 0u);
  EXPECT_GT(dp.migrations(), 0u);
  // Exact totals after quiesce: every submitted packet was processed.
  EXPECT_EQ(dp.total_packets(),
            u64{kProducers} * kTicketsPerProducer * kPerTicket);
}

TEST(Ingress, FourProducersConcurrentEpochsAndMigrationsByteIdentical) {
  for (const bool worker_threads : {true, false})
    RunFourProducersConcurrentEpochsAndMigrations(worker_threads);
}

// --- Relaxed stats path (the controller tick's view) --------------------------

TEST(Ingress, RelaxedStatsAgreeWithExactWhenQuiescent) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 3, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  std::vector<Packet> batch;
  for (int i = 0; i < 200; ++i) {
    const TenantApp& t = Tenants()[static_cast<std::size_t>(i) % 4];
    batch.push_back(t.spec == &apps::CalcSpec()
                        ? CalcPacket(t.vid, apps::kCalcOpAdd, 7, 8)
                        : NetChainPacket(t.vid, apps::kNetChainOpSeq));
  }
  (void)dp.ProcessBatch(std::move(batch));

  const DataplaneStats exact = CollectDataplaneStats(dp);
  const std::vector<Dataplane::ShardCounters> relaxed =
      dp.CountersSnapshotRelaxed();
  EXPECT_EQ(exact.total_packets, dp.total_packets_relaxed());
  ASSERT_EQ(exact.shards.size(), relaxed.size());
  for (std::size_t s = 0; s < exact.shards.size(); ++s) {
    EXPECT_EQ(exact.shards[s].packets, relaxed[s].packets);
    EXPECT_EQ(exact.shards[s].forwarded, relaxed[s].forwarded);
    EXPECT_EQ(exact.shards[s].dropped, relaxed[s].dropped);
  }
  const std::vector<ModuleId> active = dp.ActiveTenantsRelaxed();
  ASSERT_EQ(exact.tenants.size(), active.size());
  for (std::size_t i = 0; i < exact.tenants.size(); ++i) {
    EXPECT_EQ(exact.tenants[i].tenant, active[i]);
    EXPECT_EQ(exact.tenants[i].forwarded, dp.forwarded_relaxed(active[i]));
    EXPECT_EQ(exact.tenants[i].dropped, dp.dropped_relaxed(active[i]));
  }
  for (const TenantApp& t : Tenants()) {
    EXPECT_EQ(dp.forwarded(ModuleId(t.vid)),
              dp.forwarded_relaxed(ModuleId(t.vid)));
    EXPECT_EQ(dp.dropped(ModuleId(t.vid)),
              dp.dropped_relaxed(ModuleId(t.vid)));
  }
}

}  // namespace
}  // namespace menshen
