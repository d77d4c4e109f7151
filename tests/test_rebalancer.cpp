// Tenant rebalancing (runtime/rebalancer + Dataplane::MigrateTenant):
// migrating a stateful tenant mid-trace at an epoch boundary must keep
// the output byte-identical to a never-migrated run, and the
// stats-driven policy must move hot tenants off overloaded replicas.
#include "runtime/rebalancer.hpp"

#include <gtest/gtest.h>

#include <map>

#include "runtime/stats.hpp"
#include "sim/traffic.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

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

void ExpectSameBytes(const PipelineResult& expected, const PipelineResult& got,
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

// --- Reshard safety -----------------------------------------------------------

// NetChain's sequencer hands out consecutive numbers from stateful
// memory, so the output bytes prove (a) per-tenant order survived the
// migration and (b) the tenant's state moved with it — a migration that
// left state behind would restart the sequence from zero.
TEST(Rebalancer, MigratingStatefulTenantMidTraceIsByteIdentical) {
  const std::vector<CompiledModule> images = CompileTenants();

  Pipeline reference;
  for (const CompiledModule& m : images)
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);

  Dataplane dp(DataplaneConfig{.num_shards = 4, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  const ModuleId tenant(4);  // stateful NetChain replica
  const std::size_t home = dp.ShardFor(tenant);

  // An interleaved trace where the migrating tenant's packets are mixed
  // with every other tenant's.
  std::vector<Packet> trace;
  Rng rng(97);
  for (int i = 0; i < 600; ++i) {
    const TenantApp& t = Tenants()[rng.Below(Tenants().size())];
    if (t.spec == &apps::CalcSpec()) {
      trace.push_back(CalcPacket(t.vid, apps::kCalcOpAdd,
                                 static_cast<u32>(rng.Below(1000)),
                                 static_cast<u32>(rng.Below(1000))));
    } else {
      trace.push_back(NetChainPacket(t.vid, apps::kNetChainOpSeq));
    }
  }

  std::vector<PipelineResult> expected;
  expected.reserve(trace.size());
  for (const Packet& p : trace) expected.push_back(reference.Process(p));

  // First half, migrate at a quiesced epoch boundary, second half.
  std::vector<PipelineResult> got;
  const std::size_t half = trace.size() / 2;
  {
    std::vector<Packet> batch(trace.begin(), trace.begin() + half);
    for (PipelineResult& r : dp.ProcessBatch(std::move(batch)))
      got.push_back(std::move(r));
  }
  const std::size_t target = (home + 1) % dp.num_shards();
  ASSERT_TRUE(dp.MigrateTenant(tenant, target));
  EXPECT_EQ(dp.ShardFor(tenant), target);
  EXPECT_EQ(dp.migrations(), 1u);
  {
    std::vector<Packet> batch(trace.begin() + half, trace.end());
    for (PipelineResult& r : dp.ProcessBatch(std::move(batch)))
      got.push_back(std::move(r));
  }

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ExpectSameBytes(expected[i], got[i], i);

  // Per-tenant counters also match the never-sharded reference.
  for (const TenantApp& t : Tenants()) {
    EXPECT_EQ(dp.forwarded(ModuleId(t.vid)),
              reference.forwarded(ModuleId(t.vid)));
    EXPECT_EQ(dp.dropped(ModuleId(t.vid)), reference.dropped(ModuleId(t.vid)));
  }
}

TEST(Rebalancer, MigrationMovesStatefulSegmentsAndZeroesSource) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  const ModuleId tenant(4);
  std::vector<Packet> batch;
  for (int i = 0; i < 5; ++i)
    batch.push_back(NetChainPacket(tenant.value(), apps::kNetChainOpSeq));
  u32 last_seq = 0;
  for (const PipelineResult& r : dp.ProcessBatch(std::move(batch))) {
    ASSERT_TRUE(r.output.has_value());
    last_seq = NetChainSeq(*r.output);
  }

  const std::size_t home = dp.ShardFor(tenant);
  const std::size_t target = 1 - home;

  // Snapshot the tenant's per-stage segments on the home replica; the
  // sequencer's counter must be in there somewhere.
  std::vector<std::vector<u64>> snapshot;
  bool any_nonzero = false;
  for (std::size_t i = 0; i < dp.shard(home).num_stages(); ++i) {
    StatefulMemory& mem = dp.shard(home).stage(i).stateful();
    const SegmentEntry seg =
        mem.segment_table().At(mem.segment_table().IndexFor(tenant));
    std::vector<u64> words;
    for (std::size_t w = 0; w < seg.range; ++w) {
      words.push_back(mem.PhysicalAt(seg.offset + w));
      any_nonzero |= words.back() != 0;
    }
    snapshot.push_back(std::move(words));
  }
  ASSERT_TRUE(any_nonzero);

  ASSERT_TRUE(dp.MigrateTenant(tenant, target));

  // Segments arrived intact on the target and were zeroed at the source.
  for (std::size_t i = 0; i < dp.shard(target).num_stages(); ++i) {
    StatefulMemory& dst = dp.shard(target).stage(i).stateful();
    StatefulMemory& src = dp.shard(home).stage(i).stateful();
    const SegmentEntry seg =
        dst.segment_table().At(dst.segment_table().IndexFor(tenant));
    for (std::size_t w = 0; w < seg.range; ++w) {
      EXPECT_EQ(dst.PhysicalAt(seg.offset + w), snapshot[i][w])
          << "stage " << i << " word " << w;
      EXPECT_EQ(src.PhysicalAt(seg.offset + w), 0u)
          << "stage " << i << " word " << w;
    }
  }

  // Functional continuity: the sequencer picks up where it left off.
  std::vector<Packet> more;
  more.push_back(NetChainPacket(tenant.value(), apps::kNetChainOpSeq));
  const auto results = dp.ProcessBatch(std::move(more));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].output.has_value());
  EXPECT_EQ(NetChainSeq(*results[0].output), last_seq + 1);

  // Migrating to the shard the tenant already lives on is a no-op.
  EXPECT_FALSE(dp.MigrateTenant(tenant, target));
}

// --- Stats-driven policy ------------------------------------------------------

// Drives a skewed workload (one tenant dominates), then checks the
// policy moves tenants off the hot replica onto an idle one.
TEST(Rebalancer, MovesHotTenantOffOverloadedShard) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  // Force every tenant onto shard 0 so the hash placement is maximally
  // imbalanced, then let the policy spread them.
  for (const TenantApp& t : Tenants()) dp.MigrateTenant(ModuleId(t.vid), 0);

  std::vector<Packet> batch;
  for (int i = 0; i < 400; ++i)
    batch.push_back(CalcPacket(2, apps::kCalcOpAdd, 1, 2));
  for (int i = 0; i < 100; ++i)
    batch.push_back(CalcPacket(3, apps::kCalcOpAdd, 3, 4));
  for (int i = 0; i < 50; ++i)
    batch.push_back(NetChainPacket(4, apps::kNetChainOpSeq));
  (void)dp.ProcessBatch(std::move(batch));

  Rebalancer rebalancer(RebalancerConfig{.imbalance_threshold = 1.1,
                                         .max_moves_per_round = 2});
  const std::vector<Migration> planned = rebalancer.Plan(dp);
  ASSERT_FALSE(planned.empty());
  // The hottest tenant whose move narrows the spread goes first: tenant 2
  // (400 packets against 550 total on the shard).
  EXPECT_EQ(planned[0].tenant, ModuleId(2));
  EXPECT_EQ(planned[0].from, 0u);
  EXPECT_EQ(planned[0].to, 1u);

  const u64 epoch_before = dp.epoch();
  const std::vector<Migration> applied = rebalancer.Rebalance(dp);
  ASSERT_EQ(applied.size(), planned.size());
  for (const Migration& m : applied) EXPECT_EQ(dp.ShardFor(m.tenant), m.to);
  EXPECT_GT(dp.migrations(), 0u);
  // The placement change landed at an epoch boundary.
  EXPECT_EQ(dp.epoch(), epoch_before + 1);

  // A balanced system stays put: the next round plans nothing (loads are
  // measured as deltas, and no new traffic arrived).
  EXPECT_TRUE(rebalancer.Plan(dp).empty());
  EXPECT_EQ(rebalancer.rounds(), 1u);
}

TEST(Rebalancer, BalancedLoadPlansNoMoves) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  // Two equally hot tenants on different shards.
  dp.MigrateTenant(ModuleId(2), 0);
  dp.MigrateTenant(ModuleId(3), 1);
  std::vector<Packet> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back(CalcPacket(2, apps::kCalcOpAdd, 1, 2));
    batch.push_back(CalcPacket(3, apps::kCalcOpAdd, 3, 4));
  }
  (void)dp.ProcessBatch(std::move(batch));

  Rebalancer rebalancer;
  EXPECT_TRUE(rebalancer.Plan(dp).empty());
}

// --- EWMA + hysteresis: no ping-pong under bursty load -------------------------

// Drives an alternating burst pattern (shard 0's tenants hot on even
// ticks, shard 1's on odd ticks) through repeated Rebalance rounds and
// returns the per-round move log.
std::vector<std::vector<Migration>> DriveAlternatingBursts(
    Rebalancer& rebalancer, int ticks) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());
  // Pinned start: calc tenants 2,3 on shard 0; NetChain tenants 4,5 on
  // shard 1.
  dp.MigrateTenant(ModuleId(2), 0);
  dp.MigrateTenant(ModuleId(3), 0);
  dp.MigrateTenant(ModuleId(4), 1);
  dp.MigrateTenant(ModuleId(5), 1);

  const auto send = [&](u16 vid, int count) {
    std::vector<Packet> batch;
    batch.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      if (vid <= 3) {
        batch.push_back(CalcPacket(vid, apps::kCalcOpAdd, 1, 2));
      } else {
        batch.push_back(NetChainPacket(vid, apps::kNetChainOpSeq));
      }
    }
    (void)dp.ProcessBatch(std::move(batch));
  };

  std::vector<std::vector<Migration>> per_round;
  for (int tick = 0; tick < ticks; ++tick) {
    if (tick % 2 == 0) {
      send(2, 400);
      send(3, 100);
      send(4, 60);
      send(5, 40);
    } else {
      send(4, 400);
      send(5, 100);
      send(2, 60);
      send(3, 40);
    }
    per_round.push_back(rebalancer.Rebalance(dp));
  }
  return per_round;
}

// Whether any tenant moved in two consecutive rounds (the churn a bursty
// tenant induces when rounds react to instantaneous deltas).
bool HasConsecutiveMoves(const std::vector<std::vector<Migration>>& rounds) {
  for (std::size_t r = 1; r < rounds.size(); ++r)
    for (const Migration& prev : rounds[r - 1])
      for (const Migration& cur : rounds[r])
        if (cur.tenant == prev.tenant) return true;
  return false;
}

// The regression the EWMA + hysteresis policy exists for: with smoothing
// disabled (alpha = 1 degenerates to the old cumulative-delta policy, no
// dead band, no cooldown), alternating bursts bounce tenants between the
// two shards on consecutive ticks; the default policy settles after at
// most one corrective move and never bounces.
TEST(Rebalancer, BurstyTenantDoesNotPingPongAcrossConsecutiveTicks) {
  // Degenerate config == the pre-EWMA policy: it churns.
  Rebalancer raw(RebalancerConfig{.imbalance_threshold = 1.25,
                                  .max_moves_per_round = 2,
                                  .ewma_alpha = 1.0,
                                  .hysteresis_band = 0.0,
                                  .move_cooldown_rounds = 0});
  const auto raw_rounds = DriveAlternatingBursts(raw, 8);
  std::size_t raw_moves = 0;
  for (const auto& r : raw_rounds) raw_moves += r.size();
  EXPECT_TRUE(HasConsecutiveMoves(raw_rounds))
      << "burst pattern too tame: the unsmoothed policy did not churn, "
         "so the test would not prove anything";
  EXPECT_GE(raw_moves, 3u);

  // Default EWMA + hysteresis: at most one corrective move, never on
  // consecutive ticks.
  Rebalancer smoothed(RebalancerConfig{});
  const auto rounds = DriveAlternatingBursts(smoothed, 8);
  std::size_t moves = 0;
  for (const auto& r : rounds) moves += r.size();
  EXPECT_FALSE(HasConsecutiveMoves(rounds));
  EXPECT_LE(moves, 2u);
  // And no tenant ever returns to a shard it was moved off (no A->B->A).
  std::map<u16, std::vector<std::size_t>> shard_history;
  for (const auto& r : rounds)
    for (const Migration& m : r) {
      shard_history[m.tenant.value()].push_back(m.from);
      shard_history[m.tenant.value()].push_back(m.to);
    }
  for (const auto& [vid, hist] : shard_history)
    for (std::size_t i = 2; i < hist.size(); ++i)
      EXPECT_NE(hist[i], hist[i - 2]) << "tenant " << vid << " ping-ponged";
}

// The migration itself is also reachable through stats: the tenant view
// reports the post-migration steering.
TEST(Rebalancer, StatsReflectMigratedSteering) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 3, .worker_threads = false});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  std::vector<Packet> batch;
  for (int i = 0; i < 10; ++i)
    batch.push_back(CalcPacket(2, apps::kCalcOpAdd, 1, 2));
  (void)dp.ProcessBatch(std::move(batch));

  const std::size_t target = (dp.ShardFor(ModuleId(2)) + 1) % 3;
  dp.MigrateTenant(ModuleId(2), target);

  const DataplaneStats stats = CollectDataplaneStats(dp);
  EXPECT_EQ(stats.migrations, 1u);
  bool found = false;
  for (const Dataplane::TenantCounts& t : stats.tenants) {
    if (t.tenant != ModuleId(2)) continue;
    found = true;
    EXPECT_EQ(t.shard, target);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace menshen
