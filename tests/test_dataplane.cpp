// Batched, sharded dataplane (src/dataplane/): the sharded N-replica
// front-end must be observationally identical to one pipeline processing
// the same trace per packet — same bytes out, same dispositions, same
// per-tenant counters — while configuration broadcasts keep every
// replica consistent.
#include "dataplane/dataplane.hpp"

#include <gtest/gtest.h>

#include <set>

#include "runtime/stats.hpp"
#include "sim/traffic.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

struct TenantApp {
  u16 vid;
  const ModuleSpec* spec;
  u16 port;  // calc reply port / netchain out port
};

// Four tenants: two stateless calculators and two NetChain replicas
// (whose stateful sequence counter makes any ordering or state-placement
// bug visible in the output bytes).
const std::vector<TenantApp>& Tenants() {
  static const std::vector<TenantApp> tenants = {
      {2, &apps::CalcSpec(), 11},
      {3, &apps::CalcSpec(), 12},
      {4, &apps::NetChainSpec(), 13},
      {5, &apps::NetChainSpec(), 14},
  };
  return tenants;
}

// Compiles every tenant with its control-plane entries installed and
// returns the per-tenant configuration images.
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

void LoadIntoPipeline(Pipeline& pipe,
                      const std::vector<CompiledModule>& images) {
  for (const CompiledModule& m : images)
    for (const ConfigWrite& w : m.AllWrites()) pipe.ApplyWrite(w);
}

void LoadIntoDataplane(Dataplane& dp,
                       const std::vector<CompiledModule>& images) {
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());
}

// An interleaved multi-tenant trace with real app requests (which hit
// the tenants' match tables) plus background traffic (which misses).
std::vector<Packet> MixedTrace(std::size_t count, u64 seed) {
  Rng rng(seed);
  std::vector<Packet> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const TenantApp& t = Tenants()[rng.Below(Tenants().size())];
    if (t.spec == &apps::CalcSpec()) {
      const u16 op = static_cast<u16>(rng.Between(apps::kCalcOpAdd,
                                                  apps::kCalcOpEcho));
      trace.push_back(CalcPacket(t.vid, op, static_cast<u32>(rng.Below(1000)),
                                 static_cast<u32>(rng.Below(1000))));
    } else {
      trace.push_back(NetChainPacket(t.vid, apps::kNetChainOpSeq));
    }
  }
  // Background flows that miss every table still traverse the pipeline.
  std::vector<Packet> background = GenerateTenantMix(
      {{2, 96, 1.0}, {3, 128, 1.0}, {4, 96, 1.0}, {5, 256, 1.0}},
      count / 4, seed ^ 0xBEEF);
  for (Packet& p : background) trace.push_back(std::move(p));
  return trace;
}

void ExpectSameResult(const PipelineResult& single, const PipelineResult& dp,
                      std::size_t index) {
  EXPECT_EQ(single.filter_verdict, dp.filter_verdict) << "packet " << index;
  ASSERT_EQ(single.output.has_value(), dp.output.has_value())
      << "packet " << index;
  if (single.output) {
    EXPECT_EQ(single.output->bytes().hex(), dp.output->bytes().hex())
        << "packet " << index;
    EXPECT_EQ(single.output->disposition, dp.output->disposition)
        << "packet " << index;
    EXPECT_EQ(single.output->egress_port, dp.output->egress_port)
        << "packet " << index;
    EXPECT_EQ(single.output->multicast_ports, dp.output->multicast_ports)
        << "packet " << index;
  }
}

// --- (a) sharded differential -------------------------------------------------

TEST(Dataplane, ShardedMatchesSinglePipelineByteForByte) {
  const std::vector<CompiledModule> images = CompileTenants();

  Pipeline single;
  LoadIntoPipeline(single, images);

  Dataplane dp(DataplaneConfig{.num_shards = 3});
  LoadIntoDataplane(dp, images);

  // The four tenants must actually exercise the sharding: at least two
  // distinct shards (acceptance criterion for the sharded differential).
  std::set<std::size_t> used_shards;
  for (const TenantApp& t : Tenants())
    used_shards.insert(dp.ShardFor(ModuleId(t.vid)));
  ASSERT_GE(used_shards.size(), 2u);

  const std::vector<Packet> trace = MixedTrace(2000, /*seed=*/7);

  std::vector<PipelineResult> expected;
  expected.reserve(trace.size());
  for (const Packet& p : trace) expected.push_back(single.Process(p));

  std::vector<Packet> batch = trace;  // the dataplane consumes its copy
  const std::vector<PipelineResult> got = dp.ProcessBatch(std::move(batch));

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ExpectSameResult(expected[i], got[i], i);

  // Per-tenant counters agree with the single pipeline.
  for (const TenantApp& t : Tenants()) {
    EXPECT_EQ(dp.forwarded(ModuleId(t.vid)), single.forwarded(ModuleId(t.vid)));
    EXPECT_EQ(dp.dropped(ModuleId(t.vid)), single.dropped(ModuleId(t.vid)));
  }
}

TEST(Dataplane, PerTenantOrderIsPreservedAcrossBatches) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 4});
  LoadIntoDataplane(dp, images);

  // NetChain sequence numbers are handed out in processing order, so the
  // replies expose the order tenant 4's packets were processed in —
  // across several batches.
  std::vector<u32> seqs;
  for (int b = 0; b < 5; ++b) {
    std::vector<Packet> batch;
    for (int i = 0; i < 20; ++i)
      batch.push_back(NetChainPacket(4, apps::kNetChainOpSeq));
    for (const PipelineResult& r : dp.ProcessBatch(std::move(batch))) {
      ASSERT_TRUE(r.output.has_value());
      seqs.push_back(NetChainSeq(*r.output));
    }
  }
  ASSERT_EQ(seqs.size(), 100u);
  for (std::size_t i = 1; i < seqs.size(); ++i)
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1) << "at " << i;
}

// --- (b) configuration broadcast ----------------------------------------------

TEST(Dataplane, ConfigWriteBroadcastLandsOnEveryShard) {
  Dataplane dp(DataplaneConfig{.num_shards = 4});

  ParserEntry entry;
  entry.actions[0] = ParserAction{true, {ContainerType::k2B, 3}, 14};
  ConfigWrite write;
  write.kind = ResourceKind::kParserTable;
  write.stage = 0;
  write.index = 9;
  write.payload = entry.Encode();

  dp.ApplyWrite(write);

  EXPECT_EQ(dp.writes_broadcast(), 1u);
  for (std::size_t s = 0; s < dp.num_shards(); ++s) {
    EXPECT_EQ(dp.shard(s).config_writes_applied(), 1u) << "shard " << s;
    EXPECT_EQ(dp.shard(s).parser().table().At(9), entry) << "shard " << s;
  }
}

TEST(Dataplane, ModuleImageBroadcastKeepsReplicasIdentical) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 3});
  LoadIntoDataplane(dp, images);

  std::size_t writes = 0;
  for (const CompiledModule& m : images) writes += m.AllWrites().size();
  EXPECT_EQ(dp.writes_broadcast(), writes);

  // Every replica holds every tenant's configuration: any shard would
  // process any tenant correctly (what makes resharding safe).
  for (std::size_t s = 0; s < dp.num_shards(); ++s) {
    EXPECT_EQ(dp.shard(s).config_writes_applied(), writes) << "shard " << s;
    for (const TenantApp& t : Tenants()) {
      const PipelineResult r =
          dp.shard(s).Process(CalcPacket(t.vid, apps::kCalcOpEcho, 42, 0));
      EXPECT_EQ(r.filter_verdict, FilterVerdict::kData) << "shard " << s;
    }
  }
}

// --- (c) batch API ------------------------------------------------------------

TEST(Dataplane, EmptyBatch) {
  Dataplane dp(DataplaneConfig{.num_shards = 2});
  EXPECT_TRUE(dp.ProcessBatch({}).empty());
  EXPECT_EQ(dp.total_packets(), 0u);
}

TEST(Dataplane, SinglePacketBatchMatchesProcess) {
  const std::vector<CompiledModule> images = CompileTenants();

  Pipeline single;
  LoadIntoPipeline(single, images);
  Dataplane dp(DataplaneConfig{.num_shards = 2});
  LoadIntoDataplane(dp, images);

  const Packet pkt = CalcPacket(2, apps::kCalcOpAdd, 20, 22);
  const PipelineResult expected = single.Process(pkt);

  std::vector<Packet> batch;
  batch.push_back(pkt);
  const std::vector<PipelineResult> got = dp.ProcessBatch(std::move(batch));
  ASSERT_EQ(got.size(), 1u);
  ExpectSameResult(expected, got[0], 0);
  EXPECT_EQ(CalcResult(*got[0].output), 42u);
}

TEST(Dataplane, LargeBatchOver1kPackets) {
  const std::vector<CompiledModule> images = CompileTenants();

  Pipeline single;
  LoadIntoPipeline(single, images);
  Dataplane dp(DataplaneConfig{.num_shards = 2});
  LoadIntoDataplane(dp, images);

  const std::vector<Packet> trace = MixedTrace(1200, /*seed=*/21);
  ASSERT_GT(trace.size(), 1000u);

  std::vector<PipelineResult> expected;
  for (const Packet& p : trace) expected.push_back(single.Process(p));

  std::vector<Packet> batch = trace;
  const std::vector<PipelineResult> got = dp.ProcessBatch(std::move(batch));
  ASSERT_EQ(got.size(), trace.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ExpectSameResult(expected[i], got[i], i);
  EXPECT_EQ(dp.total_packets(), trace.size());
}

TEST(Pipeline, BatchedPathMatchesPerPacketPath) {
  const std::vector<CompiledModule> images = CompileTenants();

  Pipeline per_packet;
  LoadIntoPipeline(per_packet, images);
  Pipeline batched;
  LoadIntoPipeline(batched, images);

  const std::vector<Packet> trace = MixedTrace(1500, /*seed=*/3);

  std::vector<PipelineResult> expected;
  for (const Packet& p : trace) expected.push_back(per_packet.Process(p));

  std::vector<Packet> batch = trace;
  const std::vector<PipelineResult> got =
      batched.ProcessBatch(std::move(batch));

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ExpectSameResult(expected[i], got[i], i);
  EXPECT_EQ(batched.total_processed(), per_packet.total_processed());
}

// --- stats --------------------------------------------------------------------

TEST(Dataplane, StatsAggregatePerShardAndPerTenant) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 3});
  LoadIntoDataplane(dp, images);

  std::vector<Packet> batch = MixedTrace(800, /*seed=*/5);
  const std::size_t n = batch.size();
  (void)dp.ProcessBatch(std::move(batch));

  const DataplaneStats stats = CollectDataplaneStats(dp);
  EXPECT_EQ(stats.total_packets, n);
  EXPECT_EQ(stats.shards.size(), 3u);

  u64 packets = 0, forwarded = 0;
  for (const Dataplane::ShardCounters& s : stats.shards) {
    packets += s.packets;
    forwarded += s.forwarded;
  }
  EXPECT_EQ(packets, n);
  EXPECT_GT(forwarded, 0u);

  ASSERT_EQ(stats.tenants.size(), Tenants().size());
  for (const Dataplane::TenantCounts& t : stats.tenants) {
    EXPECT_EQ(t.shard, dp.ShardFor(t.tenant));
    EXPECT_EQ(t.forwarded, dp.forwarded(t.tenant));
    // CALC and NetChain rows are not flow-cacheable and probe one-word
    // keys: their runs take the compiled steps.
    EXPECT_EQ(t.tier, ExecTier::kKernel);
  }

  const std::string dump = DumpDataplaneStats(dp);
  EXPECT_NE(dump.find("3 shard(s)"), std::string::npos);
  EXPECT_NE(dump.find("tenant 2"), std::string::npos);
  EXPECT_NE(dump.find("tier kernel]"), std::string::npos);

  // Per-stage match-path counters: every forwarded calc packet probed
  // stage 0's exact-match CAM on some replica, and the hit ratio is a
  // valid fraction.
  ASSERT_EQ(stats.match_stages.size(), params::kNumStages);
  EXPECT_GT(stats.match_stages[0].cam_lookups, 0u);
  EXPECT_GT(stats.match_stages[0].cam_hits, 0u);
  EXPECT_GE(stats.match_stages[0].cam_hit_ratio(), 0.0);
  EXPECT_LE(stats.match_stages[0].cam_hit_ratio(), 1.0);
  EXPECT_NE(dump.find("match: cam"), std::string::npos);
}

}  // namespace
}  // namespace menshen
