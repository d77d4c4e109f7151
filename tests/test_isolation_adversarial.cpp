// Adversarial isolation tests: a malicious or buggy module actively
// trying to break each isolation property of section 2.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "config/daisy_chain.hpp"
#include "dataplane/dataplane.hpp"
#include "runtime/stats.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

TEST(Adversarial, StatefulOverreadReturnsZeroNotNeighborData) {
  // Victim stores a secret; attacker's segment sits next to it and the
  // attacker issues loads beyond its range.
  Pipeline pipe;
  StatefulMemory& mem = pipe.stage(0).stateful();
  mem.segment_table().Write(1, SegmentEntry{0, 8});   // victim
  mem.segment_table().Write(2, SegmentEntry{8, 8});   // attacker
  mem.Store(ModuleId(1), 0, 0x5EC2E7);

  for (u64 probe = 8; probe < 64; ++probe)
    EXPECT_EQ(mem.Load(ModuleId(2), probe), 0u) << probe;
  EXPECT_GE(mem.violations(ModuleId(2)), 56u);
  EXPECT_EQ(mem.Load(ModuleId(1), 0), 0x5EC2E7u);  // victim unharmed
}

TEST(Adversarial, CompilerRejectsVidRewriteAttack) {
  // Changing the VID would steer packets into another module's overlay
  // rows on downstream devices (section 3.4).
  const CompiledModule m = CompileDsl(R"(
module attack {
  field tci : 2 @ 14;
  action impersonate { tci = 1; }
  table t { key = { tci }; actions = { impersonate }; size = 1; }
}
)",
                                      StandardAlloc(2));
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.diags().HasCode("static.vid-write"));
}

TEST(Adversarial, SpoofedVidSelectsVictimConfigButNotItsState) {
  // A tenant VM could mark packets with the victim's VID before they
  // reach the pipeline.  The pipeline then processes them under the
  // victim's configuration — VID assignment is the vSwitch's job
  // (section 3.1) — but crucially the spoofed packets can only touch the
  // victim's resources as the victim's program allows; they can never
  // reach the attacker's own tables to exfiltrate into attacker state.
  Pipeline pipe;
  ModuleManager mgr(pipe);
  const auto a1 = StandardAlloc(1, 0, 4, 0, 8);
  CompiledModule victim = MustCompile(apps::NetChainSpec(), a1);
  MustLoad(mgr, victim, a1);
  apps::InstallNetChainEntries(victim, 2);
  mgr.Update(victim);

  Packet spoofed = NetChainPacket(1, apps::kNetChainOpSeq);
  const auto r = pipe.Process(std::move(spoofed));
  // Processed exactly as the victim's own traffic (counter ticked)...
  EXPECT_EQ(NetChainSeq(*r.output), 1u);
  // ...and nothing outside the victim's segment was touched.
  for (std::size_t w = 8; w < 32; ++w)
    EXPECT_EQ(pipe.stage(0).stateful().PhysicalAt(w), 0u);
}

TEST(Adversarial, DataPathCannotForgeConfigWithoutReservedPort) {
  // Reconfiguration packets are separated by UDP destination port; an
  // ordinary data packet carrying a config-looking payload is parsed as
  // data and never reaches the daisy chain.
  Pipeline pipe;
  DaisyChain chain(pipe);
  Packet fake = PacketBuilder{}
                    .vid(ModuleId(3))
                    .udp(1234, 4321)  // not 0xF1F2
                    .payload({0x50, 0x00, 0x01})
                    .Build();
  EXPECT_EQ(pipe.Process(fake).filter_verdict, FilterVerdict::kData);
  EXPECT_THROW(DecodeReconfigPacket(fake), std::invalid_argument);
  EXPECT_EQ(pipe.config_writes_applied(), 0u);
}

TEST(Adversarial, PhvZeroingStopsCrossPacketLeak) {
  // Module 1 parses a secret into a container.  Module 2's parser entry
  // extracts nothing; if the PHV were reused, module 2's deparser could
  // write module 1's residue into its own packet.
  Pipeline pipe;
  ParserEntry p1;
  p1.actions[0] = {true, {ContainerType::k4B, 0}, offsets::kIpv4Src};
  pipe.parser().table().Write(1, p1);

  DeparserEntry d2;  // module 2 deparses container 4B[0] into its payload
  d2.actions[0] = {true, {ContainerType::k4B, 0}, 46};
  pipe.deparser().table().Write(2, d2);

  Packet secret =
      PacketBuilder{}.vid(ModuleId(1)).ipv4(0xDEADBEEF, 1).Build();
  pipe.Process(std::move(secret));

  Packet probe = PacketBuilder{}.vid(ModuleId(2)).frame_size(64).Build();
  const auto r = pipe.Process(std::move(probe));
  EXPECT_EQ(r.output->bytes().u32_at(46), 0u);  // no residue
}

TEST(Adversarial, CamCollisionAcrossModulesImpossible) {
  // Build two modules with byte-identical masked keys; flood lookups
  // with every key value either module uses — no cross-hit ever occurs.
  Pipeline pipe;
  ModuleManager mgr(pipe);
  Diagnostics d;
  const ModuleSpec spec = ParseModuleDsl(R"(
module twin {
  field f : 2 @ 46;
  action left { drop(); }
  action right(p) { port(p); }
  table t { key = { f }; actions = { left, right }; size = 4; }
}
)",
                                         d);
  ASSERT_TRUE(d.ok());

  const auto a1 = StandardAlloc(1, 0, 4, 0, 0);
  const auto a2 = StandardAlloc(2, 4, 4, 0, 0);
  CompiledModule m1 = MustCompile(spec, a1);
  CompiledModule m2 = MustCompile(spec, a2);
  for (u64 k = 0; k < 4; ++k) {
    m1.AddEntry("t", {{"f", k}}, std::nullopt, "left", {});
    m2.AddEntry("t", {{"f", k}}, std::nullopt, "right", {static_cast<u64>(40 + k)});
  }
  MustLoad(mgr, m1, a1);
  MustLoad(mgr, m2, a2);
  mgr.Update(m1);
  mgr.Update(m2);

  for (u64 k = 0; k < 4; ++k) {
    Packet p1 = PacketBuilder{}.vid(ModuleId(1)).frame_size(64).Build();
    p1.bytes().set_u16(46, static_cast<u16>(k));
    EXPECT_EQ(pipe.Process(std::move(p1)).output->disposition,
              Disposition::kDrop);

    Packet p2 = PacketBuilder{}.vid(ModuleId(2)).frame_size(64).Build();
    p2.bytes().set_u16(46, static_cast<u16>(k));
    const auto r2 = pipe.Process(std::move(p2));
    EXPECT_EQ(r2.output->disposition, Disposition::kForward);
    EXPECT_EQ(r2.output->egress_port, 40 + k);
  }
}

TEST(Adversarial, ReconfigBitmapCannotBeSetByPackets) {
  // Only the AXI-L register interface (control plane) writes the bitmap;
  // processing any number of packets never flips it.
  Pipeline pipe;
  for (int i = 0; i < 100; ++i) {
    Packet p = PacketBuilder{}.vid(ModuleId(i % 8)).Build();
    pipe.Process(std::move(p));
  }
  EXPECT_EQ(pipe.filter().bitmap(), 0u);
}

TEST(Adversarial, CompilerRejectsRecirculationBandwidthAttack) {
  const CompiledModule m = CompileDsl(R"(
module hog {
  field f : 2 @ 46;
  action spin { recirculate(); }
  table t { key = { f }; actions = { spin }; size = 1; }
}
)",
                                      StandardAlloc(2));
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.diags().HasCode("static.recirculate"));
}

TEST(Adversarial, ReconfigThrashCannotStarveVictimFlowCache) {
  // A hostile tenant constantly rewriting its own configuration bumps
  // the pipeline's global version counters on every commit.  The
  // flow-verdict cache (pipeline/flow_cache) stamps its rows with that
  // version sum, so a naive invalidation would flush the victim's
  // cached verdicts on every attacker commit — a cross-tenant
  // performance attack.  The deep row-snapshot comparison must keep the
  // victim at full hit rate: outputs stay byte-identical AND the
  // victim's misses never exceed its cold fills.
  Pipeline pipe;
  Pipeline reference;
  ModuleManager mgr(pipe);
  ModuleManager mgr_ref(reference);
  Diagnostics d;
  const ModuleSpec spec = ParseModuleDsl(R"(
module steer {
  field f : 2 @ 46;
  action out(p) { port(p); }
  table t { key = { f }; actions = { out }; size = 4; }
}
)",
                                         d);
  ASSERT_TRUE(d.ok());

  const auto victim_alloc = StandardAlloc(1, 0, 4, 0, 0);
  const auto attacker_alloc = StandardAlloc(2, 4, 4, 0, 0);
  const auto make = [&](const ModuleAllocation& alloc, u16 port_base) {
    CompiledModule m = MustCompile(spec, alloc);
    for (u64 k = 0; k < 4; ++k)
      m.AddEntry("t", {{"f", k}}, std::nullopt, "out", {port_base + k});
    return m;
  };
  CompiledModule victim = make(victim_alloc, 40);
  CompiledModule attacker = make(attacker_alloc, 50);
  for (auto* m : {&mgr, &mgr_ref}) {
    MustLoad(*m, victim, victim_alloc);
    m->Update(victim);
    MustLoad(*m, attacker, attacker_alloc);
    m->Update(attacker);
  }
  ASSERT_TRUE(pipe.FlowRowFor(ModuleId(1)).eligible);

  // Cold fills: one miss per distinct victim flow.
  for (u16 k = 0; k < 4; ++k) {
    Packet p = PacketBuilder{}.vid(ModuleId(1)).frame_size(64).Build();
    p.bytes().set_u16(46, k);
    pipe.Process(std::move(p));
  }
  const u64 cold_misses = pipe.FlowCacheSnapshot().misses;

  // Attacker thrash: full reconfiguration every round, interleaved with
  // victim traffic.
  for (int round = 0; round < 50; ++round) {
    CompiledModule thrash =
        make(attacker_alloc, static_cast<u16>(100 + round));
    mgr.Update(thrash);
    mgr_ref.Update(thrash);
    for (u16 k = 0; k < 4; ++k) {
      Packet p = PacketBuilder{}.vid(ModuleId(1)).frame_size(64).Build();
      p.bytes().set_u16(46, k);
      Packet copy = p;
      const PipelineResult got = pipe.Process(std::move(p));
      const PipelineResult want = reference.ProcessUnplanned(copy);
      ASSERT_TRUE(got.output && want.output);
      EXPECT_EQ(got.output->bytes().hex(), want.output->bytes().hex())
          << "round " << round << " flow " << k;
      EXPECT_EQ(got.output->egress_port, 40 + k);
    }
  }

  // The attacker's 50 commits caused zero victim re-misses: the hit
  // rate floor holds at 100% of warm traffic.
  const FlowCacheStats fc = pipe.FlowCacheSnapshot();
  EXPECT_EQ(fc.misses, cold_misses);
  EXPECT_EQ(fc.hits, 50u * 4u);
}

TEST(Adversarial, OneOffKeyStreamCannotMoveVictimAdmission) {
  // A tenant streaming one-off keys through its own overlay row sends
  // exactly the traffic flow-cache admission exists to decline.  The
  // frequency sketch, like the slots, is per row, so the stream must not
  // reach a co-located victim: beside it, the victim keeps its outputs,
  // its row state and its misses, fills and rejects exactly as when it
  // runs alone.
  Diagnostics d;
  const ModuleSpec spec = ParseModuleDsl(R"(
module steer {
  field f : 2 @ 46;
  action out(p) { port(p); }
  table t { key = { f }; actions = { out }; size = 4; }
}
)",
                                         d);
  ASSERT_TRUE(d.ok());
  const auto victim_alloc = StandardAlloc(1, 0, 4, 0, 0);
  const auto attacker_alloc = StandardAlloc(2, 4, 4, 0, 0);
  const auto make = [&](const ModuleAllocation& alloc, u16 port_base) {
    CompiledModule m = MustCompile(spec, alloc);
    for (u64 k = 0; k < 4; ++k)
      m.AddEntry("t", {{"f", k}}, std::nullopt, "out", {port_base + k});
    return m;
  };
  const CompiledModule victim = make(victim_alloc, 40);
  const CompiledModule attacker = make(attacker_alloc, 50);

  // Three identically configured pipelines: the victim alone, the
  // attacker alone, and both sharing one pipeline.  64-slot rows make
  // the victim's 512 tags conflict, so its own admission both fills and
  // rejects.
  Pipeline alone, flood, shared;
  ModuleManager mgr_alone(alone), mgr_flood(flood), mgr_shared(shared);
  for (ModuleManager* mgr : {&mgr_alone, &mgr_flood, &mgr_shared}) {
    MustLoad(*mgr, victim, victim_alloc);
    mgr->Update(victim);
    MustLoad(*mgr, attacker, attacker_alloc);
    mgr->Update(attacker);
  }
  for (Pipeline* p : {&alone, &flood, &shared})
    p->flow_cache().SetSlotsPerRow(64);

  const auto packet = [](u16 vid, u16 tag) {
    Packet p = PacketBuilder{}.vid(ModuleId(vid)).frame_size(64).Build();
    p.bytes().set_u16(46, tag);
    return p;
  };
  std::vector<double> cdf;  // zipf(0.9) over 512 victim tags
  double sum = 0;
  for (int k = 1; k <= 512; ++k) cdf.push_back(sum += std::pow(k, -0.9));

  Rng rng(0xA77AC4ED);
  u16 one_off = 0;
  std::size_t victim_pkts = 0, attacker_pkts = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Packet> v_batch, a_batch, mixed;
    std::vector<bool> is_victim;
    while (v_batch.size() < 32 || a_batch.size() < 32) {
      // A random merge keeps each tenant's order and varies run lengths.
      const bool pick_victim =
          a_batch.size() == 32 || (v_batch.size() < 32 && rng.Below(2) == 0);
      if (pick_victim) {
        const u16 tag = static_cast<u16>(
            std::lower_bound(cdf.begin(), cdf.end(),
                             rng.NextDouble() * cdf.back()) -
            cdf.begin());
        v_batch.push_back(packet(1, tag));
        mixed.push_back(v_batch.back());
      } else {
        a_batch.push_back(packet(2, one_off++));
        mixed.push_back(a_batch.back());
      }
      is_victim.push_back(pick_victim);
    }
    victim_pkts += v_batch.size();
    attacker_pkts += a_batch.size();
    const std::vector<PipelineResult> want =
        alone.ProcessBatch(std::move(v_batch));
    (void)flood.ProcessBatch(std::move(a_batch));
    const std::vector<PipelineResult> got =
        shared.ProcessBatch(std::move(mixed));
    std::size_t v = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!is_victim[i]) continue;
      ASSERT_TRUE(got[i].output && want[v].output);
      EXPECT_EQ(got[i].output->bytes().hex(), want[v].output->bytes().hex())
          << "round " << round << " victim packet " << v;
      EXPECT_EQ(got[i].output->egress_port, want[v].output->egress_port);
      ++v;
    }
  }

  const FlowCacheStats a = alone.FlowCacheSnapshot();
  const FlowCacheStats f = flood.FlowCacheSnapshot();
  const FlowCacheStats s = shared.FlowCacheSnapshot();
  // The stream is all misses; the victim's own admission was exercised.
  EXPECT_EQ(f.hits, 0u);
  EXPECT_EQ(f.misses, attacker_pkts);
  EXPECT_EQ(a.hits + a.misses, victim_pkts);
  EXPECT_GT(a.rejects, 0u);
  EXPECT_GT(a.evictions, 0u);
  // Sharing the pipeline adds the two tenants' counts, nothing more.
  EXPECT_EQ(s.hits, a.hits + f.hits);
  EXPECT_EQ(s.misses, a.misses + f.misses);
  EXPECT_EQ(s.evictions, a.evictions + f.evictions);
  EXPECT_EQ(s.rejects, a.rejects + f.rejects);
  EXPECT_EQ(s.occupancy, a.occupancy + f.occupancy);
  // And the victim's row — slots and sketch — is byte-for-byte the one
  // it builds alone.
  const FlowRowState& ra = alone.flow_cache().RowAt(1);
  const FlowRowState& rs = shared.flow_cache().RowAt(1);
  EXPECT_EQ(ra.sketch, rs.sketch);
  EXPECT_EQ(ra.sketch_countdown, rs.sketch_countdown);
  EXPECT_EQ(ra.live, rs.live);
  ASSERT_EQ(ra.slots.size(), rs.slots.size());
  for (std::size_t i = 0; i < ra.slots.size(); ++i) {
    const FlowVerdict& x = ra.slots[i];
    const FlowVerdict& y = rs.slots[i];
    EXPECT_EQ(x.valid, y.valid) << "slot " << i;
    if (!x.valid || !y.valid) continue;
    EXPECT_EQ(x.words, y.words) << "slot " << i;
    EXPECT_EQ(x.matched, y.matched) << "slot " << i;
    EXPECT_EQ(x.address, y.address) << "slot " << i;
  }
}

TEST(Adversarial, FloodingTenantCannotMoveVictimTailLatency) {
  // Performance isolation, measured at the tail: a hostile tenant
  // flooding oversized batches (and thrashing its own configuration)
  // on its own shard must not move a victim tenant's p99 packet
  // latency.  Uses the runtime/telemetry histograms through
  // Dataplane::TenantCounts::p99_ns — the same surface the controller
  // tick logs.
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  {
    const auto alloc = StandardAlloc(2);
    CompiledModule m = MustCompile(apps::CalcSpec(), alloc);
    apps::InstallCalcEntries(m, 1);
    dp.ApplyWrites(m.AllWrites());
  }
  // Pin the tenants to distinct replicas so the flood lands elsewhere
  // (MigrateTenant is a no-op returning false when already there).
  const std::size_t victim_shard = dp.ShardFor(ModuleId(2));
  if (dp.ShardFor(ModuleId(3)) == victim_shard) {
    ASSERT_TRUE(dp.MigrateTenant(ModuleId(3), 1 - victim_shard));
  }
  ASSERT_NE(dp.ShardFor(ModuleId(2)), dp.ShardFor(ModuleId(3)));

  const auto victim_batch = [] {
    return std::vector<Packet>(64, CalcPacket(2, 1, 7, 5));
  };
  const auto victim_round = [&] {
    for (int b = 0; b < 200; ++b) (void)dp.ProcessBatch(victim_batch());
  };
  // Phase-local histogram: cumulative snapshots subtracted bucketwise.
  const auto minus = [](const HistogramSnapshot& after,
                        const HistogramSnapshot& before) {
    HistogramSnapshot d;
    for (u32 i = 0; i < HistogramSnapshot::kBuckets; ++i)
      d.buckets[i] = after.buckets[i] - before.buckets[i];
    d.count = after.count - before.count;
    d.sum = after.sum - before.sum;
    return d;
  };

  // Baseline: victim alone.
  const HistogramSnapshot t0 = dp.telemetry().TenantSnapshot(2);
  victim_round();
  const HistogramSnapshot t1 = dp.telemetry().TenantSnapshot(2);
  const u64 base_p99 = minus(t1, t0).p99();
  ASSERT_GT(base_p99, 0u);

  // Attack: the same victim workload interleaved with 8x-sized hostile
  // batches on the other shard.
  for (int b = 0; b < 200; ++b) {
    (void)dp.ProcessBatch(
        std::vector<Packet>(512, CalcPacket(3, 1, 7, 5)));
    for (int v = 0; v < 1; ++v) (void)dp.ProcessBatch(victim_batch());
  }
  const HistogramSnapshot t2 = dp.telemetry().TenantSnapshot(2);
  const u64 attacked_p99 = minus(t2, t1).p99();
  ASSERT_GT(attacked_p99, 0u);

  // Real measured bound: the victim's tail may wobble with cache and
  // scheduler noise but must stay within 4x + 20us of its own baseline
  // — a flood that queued in front of the victim would blow past this
  // by orders of magnitude.
  EXPECT_LE(attacked_p99, std::max(base_p99 * 4, base_p99 + 20'000))
      << "baseline p99 " << base_p99 << " ns, under attack "
      << attacked_p99 << " ns";

  // The stats plumbing reports the same surface: both tenants have a
  // nonzero p99_ns on their tenant rows.
  const DataplaneStats stats = CollectDataplaneStats(dp);
  bool saw_victim = false, saw_attacker = false;
  for (const Dataplane::TenantCounts& t : stats.tenants) {
    if (t.tenant.value() == 2) {
      saw_victim = true;
      EXPECT_GT(t.p99_ns, 0u);
      EXPECT_EQ(t.p99_ns, dp.telemetry().TenantP99(2));
    }
    if (t.tenant.value() == 3) {
      saw_attacker = true;
      EXPECT_GT(t.p99_ns, 0u);
    }
  }
  EXPECT_TRUE(saw_victim);
  EXPECT_TRUE(saw_attacker);
}

TEST(Adversarial, StatWriteAttackRejected) {
  const CompiledModule m = CompileDsl(R"(
module liar {
  field f : 2 @ 46;
  action lie { meta.queue_len = 0; }
  table t { key = { f }; actions = { lie }; size = 1; }
}
)",
                                      StandardAlloc(2));
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.diags().HasCode("static.stat-write"));
}

}  // namespace
}  // namespace menshen
