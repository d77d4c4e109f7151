// Control-plane runtime (runtime/controller + Dataplane::ResizeShards):
// the shard replica set must grow under offered load and shrink when it
// subsides — always at epoch boundaries with byte-identical outputs —
// and the periodic tick must observe stats through the relaxed path.
#include "runtime/controller.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "packet/arena.hpp"
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

std::vector<Packet> MixedTrace(std::size_t count, u64 seed) {
  Rng rng(seed);
  std::vector<Packet> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const TenantApp& t = Tenants()[rng.Below(Tenants().size())];
    if (t.spec == &apps::CalcSpec()) {
      trace.push_back(CalcPacket(t.vid, apps::kCalcOpAdd,
                                 static_cast<u32>(rng.Below(1000)),
                                 static_cast<u32>(rng.Below(1000))));
    } else {
      trace.push_back(NetChainPacket(t.vid, apps::kNetChainOpSeq));
    }
  }
  return trace;
}

void ExpectSameBytes(const PipelineResult& expected, const PipelineResult& got,
                     std::size_t index) {
  EXPECT_EQ(expected.filter_verdict, got.filter_verdict) << "packet " << index;
  ASSERT_EQ(expected.output.has_value(), got.output.has_value())
      << "packet " << index;
  if (expected.output) {
    EXPECT_EQ(expected.output->bytes().hex(), got.output->bytes().hex())
        << "packet " << index;
    EXPECT_EQ(expected.output->egress_port, got.output->egress_port)
        << "packet " << index;
  }
}

// --- ResizeShards mechanics ---------------------------------------------------

TEST(DynamicShards, GrowReplaysConfigAndPreservesPlacementAndBytes) {
  const std::vector<CompiledModule> images = CompileTenants();

  Pipeline reference;
  for (const CompiledModule& m : images)
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);

  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  const std::vector<Packet> trace = MixedTrace(600, /*seed=*/41);
  std::vector<PipelineResult> expected;
  for (const Packet& p : trace) expected.push_back(reference.Process(p));

  std::vector<PipelineResult> got;
  const std::size_t third = trace.size() / 3;

  // First third on 1 shard.
  {
    std::vector<Packet> batch(trace.begin(), trace.begin() + third);
    for (PipelineResult& r : dp.ProcessBatch(std::move(batch)))
      got.push_back(std::move(r));
  }

  // Grow 1 -> 3 at an epoch boundary.  Active tenants keep their shard
  // (pinned), the new replicas carry the full configuration.
  std::vector<std::size_t> homes;
  for (const TenantApp& t : Tenants()) homes.push_back(dp.ShardFor(ModuleId(t.vid)));
  const u64 epoch_before = dp.epoch();
  EXPECT_EQ(dp.ResizeShards(3), 3u);
  EXPECT_EQ(dp.num_shards(), 3u);
  EXPECT_EQ(dp.num_workers(), 3u);
  EXPECT_EQ(dp.epoch(), epoch_before + 1);
  EXPECT_EQ(dp.resizes(), 1u);
  for (std::size_t i = 0; i < Tenants().size(); ++i)
    EXPECT_EQ(dp.ShardFor(ModuleId(Tenants()[i].vid)), homes[i])
        << "tenant " << Tenants()[i].vid << " was re-homed by growth";
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_GT(dp.shard(s).config_writes_applied(), 0u) << "shard " << s;

  // Second third on 3 shards; spread the tenants so the new replicas
  // actually process traffic.
  for (std::size_t i = 0; i < Tenants().size(); ++i)
    dp.MigrateTenant(ModuleId(Tenants()[i].vid), i % 3);
  {
    std::vector<Packet> batch(trace.begin() + third,
                              trace.begin() + 2 * third);
    for (PipelineResult& r : dp.ProcessBatch(std::move(batch)))
      got.push_back(std::move(r));
  }

  // Shrink 3 -> 1: tenants on dying shards evacuate with their state.
  EXPECT_EQ(dp.ResizeShards(1), 1u);
  EXPECT_EQ(dp.num_shards(), 1u);
  EXPECT_EQ(dp.resizes(), 2u);
  for (const TenantApp& t : Tenants())
    EXPECT_EQ(dp.ShardFor(ModuleId(t.vid)), 0u);

  // Last third on the single survivor.
  {
    std::vector<Packet> batch(trace.begin() + 2 * third, trace.end());
    for (PipelineResult& r : dp.ProcessBatch(std::move(batch)))
      got.push_back(std::move(r));
  }

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ExpectSameBytes(expected[i], got[i], i);
  for (const TenantApp& t : Tenants()) {
    EXPECT_EQ(dp.forwarded(ModuleId(t.vid)),
              reference.forwarded(ModuleId(t.vid)));
    EXPECT_EQ(dp.dropped(ModuleId(t.vid)), reference.dropped(ModuleId(t.vid)));
  }
}

TEST(DynamicShards, ResizeCommitsStagedWritesAtTheBoundary) {
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});

  ParserEntry entry;
  entry.actions[0] = ParserAction{true, {ContainerType::k2B, 3}, 14};
  ConfigWrite write;
  write.kind = ResourceKind::kParserTable;
  write.stage = 0;
  write.index = 9;
  write.payload = entry.Encode();
  dp.StageWrite(write);
  EXPECT_EQ(dp.pending_writes(), 1u);

  EXPECT_EQ(dp.ResizeShards(4), 4u);
  EXPECT_EQ(dp.pending_writes(), 0u);
  EXPECT_EQ(dp.epoch(), 1u);
  // The staged write landed on every replica — including the two born in
  // this very resize (config-log replay plus the boundary commit).
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_EQ(dp.shard(s).parser().table().At(9), entry) << "shard " << s;
}

// --- Controller tick: scaling tracks offered load ------------------------------

TEST(Controller, ShardCountTracksLoadRampUpAndDown) {
  const std::vector<CompiledModule> images = CompileTenants();

  Pipeline reference;
  for (const CompiledModule& m : images)
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);

  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  ControllerConfig cfg;
  cfg.min_shards = 1;
  cfg.max_shards = 4;
  cfg.target_packets_per_shard = 400;
  cfg.scale_cooldown_ticks = 0;
  cfg.enable_rebalancing = true;
  Controller controller(dp, cfg);

  const std::vector<Packet> trace = MixedTrace(4000, /*seed=*/67);
  std::vector<PipelineResult> expected;
  for (const Packet& p : trace) expected.push_back(reference.Process(p));
  std::vector<PipelineResult> got;
  std::size_t consumed = 0;
  const auto drive = [&](std::size_t n) {
    n = std::min(n, trace.size() - consumed);
    std::vector<Packet> batch(trace.begin() + consumed,
                              trace.begin() + consumed + n);
    consumed += n;
    for (PipelineResult& r : dp.ProcessBatch(std::move(batch)))
      got.push_back(std::move(r));
  };

  // Ramp up: heavy ticks push the EWMA over the scale-up watermark.
  std::size_t peak_shards = 1;
  for (int tick = 0; tick < 6; ++tick) {
    drive(600);
    const Controller::TickReport r = controller.TickOnce();
    peak_shards = std::max(peak_shards, r.shards_after);
  }
  EXPECT_GT(peak_shards, 1u) << "controller never scaled up under load";
  EXPECT_GT(controller.scale_ups(), 0u);
  EXPECT_EQ(dp.num_shards(), dp.num_workers());

  // Ramp down: idle ticks decay the EWMA under the scale-down watermark.
  for (int tick = 0; tick < 12 && dp.num_shards() > 1; ++tick)
    controller.TickOnce();
  EXPECT_EQ(dp.num_shards(), 1u) << "controller never scaled back down";
  EXPECT_GT(controller.scale_downs(), 0u);

  // Whatever the controller did, the byte stream is that of the
  // never-resized single pipeline.
  drive(trace.size() - consumed);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ExpectSameBytes(expected[i], got[i], i);

  // Every reconfiguration the controller made landed at an epoch
  // boundary: epochs advanced with the resizes.
  EXPECT_GE(dp.epoch(), dp.resizes());
  EXPECT_GT(dp.resizes(), 1u);  // at least one grow and one shrink
}

TEST(Controller, TickObservesAndLogsPerShardQueueDepthAndBusyTime) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  std::vector<std::string> lines;
  ControllerConfig cfg;
  cfg.enable_scaling = false;
  cfg.enable_rebalancing = false;
  cfg.log_sink = [&](const std::string& line) { lines.push_back(line); };
  Controller controller(dp, cfg);

  std::vector<Packet> batch = MixedTrace(2000, /*seed=*/17);
  (void)dp.ProcessBatch(std::move(batch));

  const Controller::TickReport r = controller.TickOnce();
  ASSERT_EQ(r.shard_loads.size(), dp.num_shards());
  // Traffic drained before the tick: rings are empty, but the workers'
  // busy time must have registered on at least one shard.
  u64 total_busy = 0;
  for (const Controller::ShardLoad& sl : r.shard_loads)
    total_busy += sl.busy_ns_delta;
  EXPECT_GT(total_busy, 0u);
  // The log sink saw one line naming every shard's queue/busy signals.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("q="), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("busy="), std::string::npos) << lines[0];
  // Second tick: busy deltas reset (no new traffic processed).
  const Controller::TickReport r2 = controller.TickOnce();
  ASSERT_EQ(lines.size(), 2u);
  u64 total_busy2 = 0;
  for (const Controller::ShardLoad& sl : r2.shard_loads)
    total_busy2 += sl.busy_ns_delta;
  EXPECT_EQ(total_busy2, 0u);
}

TEST(Controller, AdaptiveQueueDepthRampsUpOnStallsAndBackDownWhenIdle) {
  const std::vector<CompiledModule> images = CompileTenants();
  // A 2-deep ring in front of one worker: a burst train from the test
  // thread is guaranteed to find the ring full and stall.
  Dataplane dp(DataplaneConfig{.num_shards = 1,
                               .worker_threads = true,
                               .ingress_queue_depth = 2});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  ControllerConfig cfg;
  cfg.enable_scaling = false;
  cfg.enable_rebalancing = false;
  cfg.enable_adaptive_queue_depth = true;
  cfg.min_queue_depth = 2;
  cfg.max_queue_depth = 64;
  cfg.queue_narrow_idle_ticks = 2;
  Controller controller(dp, cfg);
  ASSERT_EQ(dp.ingress_queue_depth(), 2u);

  PacketArena arena(4096);
  const Packet frame = CalcPacket(2, apps::kCalcOpAdd, 7, 9);
  std::vector<ArenaPacket*> egress;
  const auto drain = [&] {
    while (dp.PollEgress(egress) != 0 || arena.outstanding() != 0) {
      ReleaseToOwners(egress.data(), egress.size());
      egress.clear();
      std::this_thread::yield();
    }
  };

  // Ramp up: offer burst trains until a tick observes the stalls and
  // widens the ring (the first train virtually always suffices — the
  // retry loop just keeps the test deterministic).
  u64 stalls_seen = 0;
  for (int attempt = 0; attempt < 50 && controller.depth_widens() == 0;
       ++attempt) {
    for (int burst = 0; burst < 64; ++burst) {
      ArenaPacket* pkts[16];
      ASSERT_EQ(arena.AllocateBurst(pkts, 16), 16u);
      for (ArenaPacket* p : pkts) p->Assign(frame.bytes().bytes());
      dp.SubmitStream(pkts, 16);
    }
    drain();
    const Controller::TickReport r = controller.TickOnce();
    stalls_seen += r.producer_stalls;
  }
  EXPECT_GT(stalls_seen, 0u);
  EXPECT_GE(controller.depth_widens(), 1u);
  const std::size_t widened = dp.ingress_queue_depth();
  EXPECT_GT(widened, 2u);
  EXPECT_LE(widened, cfg.max_queue_depth);

  // Ramp down: stall-free ticks narrow the ring back toward the floor.
  for (std::size_t i = 0; i < 2 * cfg.queue_narrow_idle_ticks; ++i)
    (void)controller.TickOnce();
  EXPECT_GE(controller.depth_narrows(), 1u);
  EXPECT_LT(dp.ingress_queue_depth(), widened);
  EXPECT_GE(dp.ingress_queue_depth(), cfg.min_queue_depth);

  // The depth changes were quiesced reconfigurations: the streamed bytes
  // still came through intact (arena fully recycled by drain()).
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(Controller, HotShardSkewTriggersAggressiveRebalanceRamp) {
  const std::vector<CompiledModule> images = CompileTenants();
  // Sequential engine: busy time lands on the shard context that owns
  // each sub-batch (no worker stealing), so piling every tenant onto
  // shard 0 yields a clean max/mean busy-time skew of num_shards.
  Dataplane dp(DataplaneConfig{.num_shards = 4, .worker_threads = false});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());
  for (const TenantApp& t : Tenants()) dp.MigrateTenant(ModuleId(t.vid), 0);
  dp.CommitEpoch();

  ControllerConfig cfg;
  cfg.enable_scaling = false;
  // Busy time from a fixed cost per packet instead of the wall clock: the
  // skew then depends on where the packets ran, not on how fast the host
  // happened to run each shard's slices.
  cfg.shard_busy_ns = [](const Dataplane::ShardCounters& c) {
    return c.packets * 100;
  };
  Controller controller(dp, cfg);

  // Every tenant's traffic runs on shard 0: the hot-spot shape the
  // aggregate watermark cannot see (total load is fine, placement is not).
  (void)dp.ProcessBatch(MixedTrace(2000, /*seed=*/23));

  const Controller::TickReport r = controller.TickOnce();
  // Only shard 0 accumulated busy time -> skew == num_shards (max/mean).
  EXPECT_GT(r.shard_skew, cfg.rebalancer.skew_threshold);
  EXPECT_NEAR(r.shard_skew, 4.0, 0.01);
  // The aggressive round outruns the default budget: greedy spreads the
  // four co-homed tenants until the watermark clears — three moves, one
  // more than max_moves_per_round allows in a calm round.
  EXPECT_GT(r.moves, cfg.rebalancer.max_moves_per_round);
  EXPECT_EQ(r.moves, 3u);
  // Placement after the ramp: the four tenants occupy four distinct
  // shards.
  std::set<std::size_t> homes;
  for (const TenantApp& t : Tenants()) homes.insert(dp.ShardFor(ModuleId(t.vid)));
  EXPECT_EQ(homes.size(), Tenants().size());

  // Balanced follow-up: traffic now spreads, the skew collapses toward
  // 1 and a calm round plans nothing (cooldown + no watermark breach).
  (void)dp.ProcessBatch(MixedTrace(2000, /*seed=*/29));
  const Controller::TickReport r2 = controller.TickOnce();
  EXPECT_LT(r2.shard_skew, cfg.rebalancer.skew_threshold);
  EXPECT_EQ(r2.moves, 0u);
}

TEST(Controller, BackgroundThreadTicksConcurrentlyWithTraffic) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  ControllerConfig cfg;
  cfg.tick_interval = std::chrono::milliseconds(1);
  cfg.max_shards = 4;
  cfg.target_packets_per_shard = 500;
  Controller controller(dp, cfg);
  controller.Start();

  const std::vector<Packet> trace = MixedTrace(256, /*seed=*/91);
  u64 processed = 0;
  for (int b = 0; b < 60; ++b) {
    std::vector<Packet> batch = trace;
    processed += dp.ProcessBatch(std::move(batch)).size();
  }
  // The tick thread must have observed the traffic (relaxed stats) while
  // it flowed.
  while (controller.ticks() == 0) std::this_thread::yield();
  controller.Stop();

  EXPECT_GT(controller.ticks(), 0u);
  EXPECT_EQ(dp.total_packets(), processed);
  const DataplaneStats stats = CollectDataplaneStats(dp);
  EXPECT_EQ(stats.total_packets, processed);
}

}  // namespace
}  // namespace menshen
