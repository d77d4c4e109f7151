// Differential and property tests for the flow-verdict memoization
// cache (pipeline/flow_cache).
//
// The cache rewrites the per-packet match-action work of provably
// stateless overlay rows into a single hash probe, so the observable
// function must stay byte-identical to the unplanned linear reference —
// Pipeline::ProcessUnplanned — under zipfian key reuse (the traffic
// shape the cache exists for) and across every invalidation source:
// direct table writes, staged epoch commits, tenant migrations and
// ResizeShards config-log replay.  The suite also pins the cache's own
// bookkeeping (hits/misses/evictions/occupancy), the exactness of the
// bulk counter accounting, and the deep-snapshot invalidation property
// that verdicts survive *foreign* tenants' reconfiguration.  Run under
// ASAN and TSAN in CI like test_exec_plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/dataplane.hpp"
#include "pipeline/flow_cache.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/traffic.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

// --- Harness --------------------------------------------------------------------

/// Zipf(s) over ranks [0, n): CDF table + binary search.  Deterministic
/// given the caller's Rng, like every generator in this suite.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) {
    cdf_.reserve(n);
    double sum = 0;
    for (std::size_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(sum);
    }
  }
  std::size_t Next(Rng& rng) const {
    const double u = rng.NextDouble() * cdf_.back();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// A flow-cacheable module: one-word 2B key, constant port/drop actions
/// only.  (The stock source-routing app decrements its hops field — a
/// container-reading op — so it is deliberately NOT cacheable; this is
/// its stateless sibling.)
const ModuleSpec& RouterSpec() {
  static const ModuleSpec spec = [] {
    Diagnostics d;
    ModuleSpec s = ParseModuleDsl(R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 4; }
}
)",
                                  d);
    if (!d.ok()) throw std::logic_error(d.ToString());
    return s;
  }();
  return spec;
}

/// Compiles the router for `vid` with routes tag t -> port port_base+t
/// for t in [0, n_routes), plus tag n_routes -> drop.
CompiledModule MakeRouter(const ModuleAllocation& alloc, u16 port_base,
                          u16 n_routes) {
  CompiledModule m = MustCompile(RouterSpec(), alloc);
  for (u16 t = 0; t < n_routes; ++t)
    m.AddEntry("routes", {{"tag", t}}, std::nullopt, "fwd",
               {static_cast<u64>(port_base + t)});
  m.AddEntry("routes", {{"tag", n_routes}}, std::nullopt, "sink", {});
  EXPECT_TRUE(m.ok()) << m.diags().ToString();
  return m;
}

Packet TagPacket(u16 vid, u16 tag) {
  Packet p = PacketBuilder{}.vid(ModuleId(vid)).frame_size(96).Build();
  p.bytes().set_u16(46, tag);
  return p;
}

void ExpectSameOutput(const PipelineResult& ref, const PipelineResult& got,
                      const std::string& what) {
  EXPECT_EQ(ref.filter_verdict, got.filter_verdict) << what;
  ASSERT_EQ(ref.output.has_value(), got.output.has_value()) << what;
  if (ref.output) {
    EXPECT_EQ(ref.output->bytes().hex(), got.output->bytes().hex()) << what;
    EXPECT_EQ(ref.output->disposition, got.output->disposition) << what;
    EXPECT_EQ(ref.output->egress_port, got.output->egress_port) << what;
    EXPECT_EQ(ref.output->multicast_ports, got.output->multicast_ports)
        << what;
  }
}

// --- Eligibility surface --------------------------------------------------------

TEST(FlowCache, RowEligibilityMirrorsExecPlan) {
  Pipeline pipe;
  ModuleManager mgr(pipe);
  const auto ar = StandardAlloc(2, 0, 8, 0, 0);
  CompiledModule router = MakeRouter(ar, 40, 3);
  MustLoad(mgr, router, ar);
  mgr.Update(router);

  const auto ac = StandardAlloc(3, 8, 8, 0, 8);
  CompiledModule calc = MustCompile(apps::CalcSpec(), ac);
  apps::InstallCalcEntries(calc, 7);
  MustLoad(mgr, calc, ac);
  mgr.Update(calc);

  EXPECT_TRUE(pipe.ExecPlanFor(ModuleId(2)).flow_cacheable());
  EXPECT_TRUE(pipe.FlowRowFor(ModuleId(2)).eligible);
  // CALC adds/copies containers — variable operands block caching.
  EXPECT_FALSE(pipe.ExecPlanFor(ModuleId(3)).flow_cacheable());
  EXPECT_FALSE(pipe.FlowRowFor(ModuleId(3)).eligible);
}

TEST(FlowCache, IneligibleRowNeverTouchesTheCache) {
  Pipeline pipe;
  ModuleManager mgr(pipe);
  const auto ac = StandardAlloc(3, 0, 8, 0, 8);
  CompiledModule calc = MustCompile(apps::CalcSpec(), ac);
  apps::InstallCalcEntries(calc, 7);
  MustLoad(mgr, calc, ac);
  mgr.Update(calc);

  for (int i = 0; i < 16; ++i)
    pipe.Process(CalcPacket(3, apps::kCalcOpAdd, 10, static_cast<u32>(i)));
  const FlowCacheStats fc = pipe.FlowCacheSnapshot();
  EXPECT_EQ(fc.hits + fc.misses, 0u);
  EXPECT_EQ(fc.occupancy, 0u);
}

// --- Hit-path behaviour and bookkeeping ----------------------------------------

TEST(FlowCache, RepeatKeyHitsAndReplaysIdentically) {
  Pipeline pipe;
  ModuleManager mgr(pipe);
  const auto ar = StandardAlloc(2, 0, 8, 0, 0);
  CompiledModule router = MakeRouter(ar, 40, 3);
  MustLoad(mgr, router, ar);
  mgr.Update(router);

  const PipelineResult first = pipe.Process(TagPacket(2, 2));
  const PipelineResult again = pipe.Process(TagPacket(2, 2));
  ExpectSameOutput(first, again, "replayed verdict");
  EXPECT_EQ(again.output->egress_port, 42);

  const FlowCacheStats fc = pipe.FlowCacheSnapshot();
  EXPECT_EQ(fc.misses, 1u);
  EXPECT_EQ(fc.hits, 1u);
  EXPECT_EQ(fc.occupancy, 1u);
  EXPECT_EQ(fc.evictions, 0u);
}

TEST(FlowCache, EvictionAndOccupancyBookkeeping) {
  Pipeline pipe;
  ModuleManager mgr(pipe);
  const auto ar = StandardAlloc(2, 0, 8, 0, 0);
  CompiledModule router = MakeRouter(ar, 40, 3);
  MustLoad(mgr, router, ar);
  mgr.Update(router);

  // Two slots per row: eight distinct keys must conflict-evict.
  pipe.flow_cache().SetSlotsPerRow(2);
  for (u16 tag = 0; tag < 8; ++tag) pipe.Process(TagPacket(2, tag));
  const FlowCacheStats fc = pipe.FlowCacheSnapshot();
  EXPECT_EQ(fc.misses, 8u);
  EXPECT_GT(fc.evictions, 0u);
  EXPECT_LE(fc.occupancy, 2u);
  // Every miss lands in an empty slot, evicts, or is declined.
  EXPECT_EQ(fc.occupancy + fc.evictions + fc.rejects, 8u);

  EXPECT_THROW(pipe.flow_cache().SetSlotsPerRow(3), std::invalid_argument);
  EXPECT_THROW(pipe.flow_cache().SetSlotsPerRow(0), std::invalid_argument);
}

// --- Admission ------------------------------------------------------------------

/// Streams kZipfPackets router packets — tags zipf(0.9) over 4,096, a
/// fixed seed, bursts of 64 — through a fresh pipeline with 256-slot
/// rows and returns the cache statistics.
constexpr std::size_t kZipfPackets = 102'400;
FlowCacheStats SeededZipfRun() {
  Pipeline pipe;
  ModuleManager mgr(pipe);
  const auto ar = StandardAlloc(2, 0, 8, 0, 0);
  CompiledModule router = MakeRouter(ar, 40, 3);
  MustLoad(mgr, router, ar);
  mgr.Update(router);
  EXPECT_EQ(pipe.flow_cache().slots_per_row(), 256u);

  Rng rng(0x5EEDF10C);
  const ZipfSampler zipf(4096, 0.9);
  for (std::size_t sent = 0; sent < kZipfPackets; sent += 64) {
    std::vector<Packet> batch;
    for (std::size_t i = 0; i < 64; ++i)
      batch.push_back(TagPacket(2, static_cast<u16>(zipf.Next(rng))));
    (void)pipe.ProcessBatch(std::move(batch));
  }
  return pipe.FlowCacheSnapshot();
}

TEST(FlowCacheAdmission, SeededZipfHitsAndEvictionsArePinned) {
  // 4,096 tags contend for 256 direct-mapped slots.  Without admission
  // each conflict miss evicts (~0.40 hit rate, ~600 evictions per 1,000
  // packets); the frequency sketch keeps the hot tag of each slot
  // resident and declines the tail.  Deterministic: no RNG in the
  // cache, so the counts repeat exactly from run to run.
  const FlowCacheStats a = SeededZipfRun();
  const FlowCacheStats b = SeededZipfRun();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.rejects, b.rejects);
  EXPECT_EQ(a.occupancy, b.occupancy);

  EXPECT_EQ(a.hits + a.misses, kZipfPackets);
  EXPECT_EQ(a.occupancy + a.evictions + a.rejects, a.misses);
  EXPECT_EQ(a.hits, 49'027u);      // 0.479 of the packets
  EXPECT_EQ(a.evictions, 6'093u);  // 59.5 per 1,000 packets
}

// --- Invalidation semantics ----------------------------------------------------

TEST(FlowCache, VerdictsSurviveForeignReconfig) {
  // Victim (vid 2) and a hostile neighbour (vid 3) in different overlay
  // rows.  The neighbour rewriting its own tables bumps the global
  // version sum, but the victim's row snapshot is unchanged, so its
  // verdicts must survive: re-running the victim's flows adds zero
  // misses.
  Pipeline pipe;
  ModuleManager mgr(pipe);
  const auto av = StandardAlloc(2, 0, 4, 0, 0);
  const auto aa = StandardAlloc(3, 4, 4, 0, 0);
  CompiledModule victim = MakeRouter(av, 40, 3);
  MustLoad(mgr, victim, av);
  mgr.Update(victim);
  CompiledModule attacker = MakeRouter(aa, 50, 3);
  MustLoad(mgr, attacker, aa);
  mgr.Update(attacker);

  for (u16 tag = 0; tag < 3; ++tag) pipe.Process(TagPacket(2, tag));
  const u64 misses_before = pipe.FlowCacheSnapshot().misses;

  for (int round = 0; round < 10; ++round) {
    CompiledModule thrash =
        MakeRouter(aa, static_cast<u16>(60 + round), 3);
    mgr.Update(thrash);
    for (u16 tag = 0; tag < 3; ++tag) {
      const PipelineResult r = pipe.Process(TagPacket(2, tag));
      EXPECT_EQ(r.output->egress_port, 40 + tag);
    }
  }
  EXPECT_EQ(pipe.FlowCacheSnapshot().misses, misses_before);
}

TEST(FlowCache, OwnReconfigFlushesAndNewVerdictsApply) {
  Pipeline pipe;
  ModuleManager mgr(pipe);
  const auto ar = StandardAlloc(2, 0, 8, 0, 0);
  CompiledModule router = MakeRouter(ar, 40, 3);
  MustLoad(mgr, router, ar);
  mgr.Update(router);

  for (u16 tag = 0; tag < 3; ++tag) pipe.Process(TagPacket(2, tag));
  ASSERT_EQ(pipe.FlowCacheSnapshot().occupancy, 3u);

  // Re-point every route: the row's own config changed, so the stale
  // verdicts must flush and the new ports take effect immediately.
  CompiledModule repointed = MakeRouter(ar, 70, 3);
  mgr.Update(repointed);
  for (u16 tag = 0; tag < 3; ++tag) {
    const PipelineResult r = pipe.Process(TagPacket(2, tag));
    EXPECT_EQ(r.output->egress_port, 70 + tag) << tag;
  }
  const FlowCacheStats fc = pipe.FlowCacheSnapshot();
  EXPECT_EQ(fc.misses, 6u);  // 3 cold + 3 after the flush
  EXPECT_EQ(fc.occupancy, 3u);
}

// --- Randomized zipfian differential vs the unplanned reference ----------------

TEST(FlowCacheDifferential, ZipfTrafficMatchesUnplannedAcrossRewrites) {
  Rng rng(0xF7041CAC);
  Pipeline cached;
  Pipeline reference;
  ModuleManager mgr_c(cached);
  ModuleManager mgr_r(reference);

  // An eligible router and an ineligible CALC share the batches, so
  // mixed runs exercise both ProcessBatchInto paths in one pass.
  const auto ar = StandardAlloc(2, 0, 8, 0, 0);
  const auto ac = StandardAlloc(3, 8, 8, 0, 8);
  CompiledModule router = MakeRouter(ar, 40, 3);
  CompiledModule calc = MustCompile(apps::CalcSpec(), ac);
  apps::InstallCalcEntries(calc, 7);
  for (ModuleManager* mgr : {&mgr_c, &mgr_r}) {
    MustLoad(*mgr, router, ar);
    mgr->Update(router);
    MustLoad(*mgr, calc, ac);
    mgr->Update(calc);
  }

  const ZipfSampler zipf(16, 1.1);  // tags 6..15 miss the table: cached
                                    // miss verdicts are verdicts too
  u64 router_packets = 0;
  for (int round = 0; round < 40; ++round) {
    if (round % 7 == 3) {
      // Direct rewrite of the router's own entries on both pipelines.
      CompiledModule repointed =
          MakeRouter(ar, static_cast<u16>(40 + round), 3);
      mgr_c.Update(repointed);
      mgr_r.Update(repointed);
    }
    std::vector<Packet> batch;
    const std::size_t count = 16 + rng.Below(32);
    for (std::size_t i = 0; i < count; ++i) {
      if (rng.Below(4) == 0) {
        batch.push_back(CalcPacket(3, static_cast<u16>(1 + rng.Below(3)),
                                   static_cast<u32>(rng.Below(100)),
                                   static_cast<u32>(rng.Below(100))));
      } else {
        batch.push_back(
            TagPacket(2, static_cast<u16>(zipf.Next(rng))));
        ++router_packets;
      }
    }
    std::vector<Packet> copy = batch;
    const std::vector<PipelineResult> got =
        cached.ProcessBatch(std::move(copy));
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const PipelineResult ref = reference.ProcessUnplanned(batch[i]);
      ExpectSameOutput(ref, got[i],
                       "round " + std::to_string(round) + " packet " +
                           std::to_string(i));
    }
  }

  // Every router packet probed the cache; zipf reuse means mostly hits.
  const FlowCacheStats fc = cached.FlowCacheSnapshot();
  EXPECT_EQ(fc.hits + fc.misses, router_packets);
  EXPECT_GT(fc.hits, router_packets / 2);

  // The bulk accounting is exact: every stage/CAM counter equals the
  // per-packet reference, and the tenant counters agree.
  for (std::size_t s = 0; s < params::kNumStages; ++s) {
    EXPECT_EQ(cached.stage(s).cam().lookups(),
              reference.stage(s).cam().lookups())
        << "stage " << s;
    EXPECT_EQ(cached.stage(s).cam().hits(), reference.stage(s).cam().hits())
        << "stage " << s;
    EXPECT_EQ(cached.stage(s).hits(), reference.stage(s).hits())
        << "stage " << s;
    EXPECT_EQ(cached.stage(s).misses(), reference.stage(s).misses())
        << "stage " << s;
  }
  for (const u16 vid : {2, 3}) {
    EXPECT_EQ(cached.forwarded(ModuleId(vid)),
              reference.forwarded(ModuleId(vid)));
    EXPECT_EQ(cached.dropped(ModuleId(vid)),
              reference.dropped(ModuleId(vid)));
  }
  EXPECT_EQ(cached.total_processed(), reference.total_processed());
}

// A ternary-probing ACL is cacheable (constant port/drop actions, a
// one-word key) but has no kernel: its misses fill through BuildVerdict
// inside the same in-order pass, and its TCAM scan counts ride the
// packed run tally.  16-slot rows under zipf reuse force evictions and
// admission rejects; every output and every TCAM, CAM and stage counter
// must still match the per-packet reference.
TEST(FlowCacheDifferential, TernaryRowFillsInPassWithExactCounters) {
  constexpr std::string_view kAcl = R"(
module acl {
  field tag : 2 @ 46;
  action allow(p) { port(p); }
  action deny { drop(); }
  table rules { key = { tag }; actions = { allow, deny }; size = 4;
                match = ternary; }
}
)";
  const ModuleAllocation alloc =
      UniformAllocation(ModuleId(2), 0, params::kNumStages, 0, 4, 0, 0);
  CompiledModule m = CompileDsl(kAcl, alloc);
  // Priority = address: one tag allowed, the rest of its /8 denied,
  // everything else allowed elsewhere.
  m.AddTernaryEntry("rules", {{"tag", 0x0101}}, {}, std::nullopt, "allow",
                    {5});
  m.AddTernaryEntry("rules", {{"tag", 0x0100}}, {{"tag", 0xFF00}},
                    std::nullopt, "deny", {});
  m.AddTernaryEntry("rules", {{"tag", 0}}, {{"tag", 0}}, std::nullopt,
                    "allow", {9});
  ASSERT_TRUE(m.ok()) << m.diags().ToString();
  Pipeline cached;
  Pipeline reference;
  ModuleManager mgr_c(cached);
  ModuleManager mgr_r(reference);
  for (ModuleManager* mgr : {&mgr_c, &mgr_r}) {
    MustLoad(*mgr, m, alloc);
    mgr->Update(m);
  }
  ASSERT_TRUE(cached.FlowRowFor(ModuleId(2)).eligible);
  cached.flow_cache().SetSlotsPerRow(16);

  Rng rng(0x7E2A2CAC);
  const ZipfSampler zipf(256, 0.9);
  u64 packets = 0;
  for (int round = 0; round < 60; ++round) {
    std::vector<Packet> batch;
    const std::size_t count = 16 + rng.Below(32);
    for (std::size_t i = 0; i < count; ++i) {
      const u16 rank = static_cast<u16>(zipf.Next(rng));
      batch.push_back(TagPacket(2, rank < 128 ? 0x0100 + rank : rank));
    }
    packets += count;
    std::vector<Packet> copy = batch;
    const std::vector<PipelineResult> got =
        cached.ProcessBatch(std::move(copy));
    for (std::size_t i = 0; i < batch.size(); ++i)
      ExpectSameOutput(reference.ProcessUnplanned(batch[i]), got[i],
                       "round " + std::to_string(round) + " packet " +
                           std::to_string(i));
  }

  const FlowCacheStats fc = cached.FlowCacheSnapshot();
  EXPECT_EQ(fc.hits + fc.misses, packets);
  EXPECT_GT(fc.hits, 0u);
  EXPECT_GT(fc.evictions, 0u);
  EXPECT_GT(fc.rejects, 0u);
  EXPECT_EQ(cached.KernelSnapshot().record_fills, 0u);  // no kernel here
  for (std::size_t s = 0; s < params::kNumStages; ++s) {
    SCOPED_TRACE(s);
    const Stage& c = cached.stage(s);
    const Stage& r = reference.stage(s);
    EXPECT_EQ(c.tcam().lookups(), r.tcam().lookups());
    EXPECT_EQ(c.tcam().hits(), r.tcam().hits());
    EXPECT_EQ(c.tcam().entries_scanned(), r.tcam().entries_scanned());
    EXPECT_EQ(c.cam().lookups(), r.cam().lookups());
    EXPECT_EQ(c.cam().hits(), r.cam().hits());
    EXPECT_EQ(c.hits(), r.hits());
    EXPECT_EQ(c.misses(), r.misses());
  }
  EXPECT_EQ(cached.forwarded(ModuleId(2)), reference.forwarded(ModuleId(2)));
  EXPECT_EQ(cached.dropped(ModuleId(2)), reference.dropped(ModuleId(2)));
}

// --- Dataplane differential across epochs / migrations / resizes ---------------

TEST(FlowCacheDifferential, DataplaneZipfAcrossEpochsMigrationsResizes) {
  Rng rng(0xCAC4ED1F);
  const std::vector<u16> vids = {2, 3, 4};

  std::vector<CompiledModule> images;
  std::vector<ModuleAllocation> allocs;
  for (std::size_t i = 0; i < vids.size(); ++i) {
    allocs.push_back(UniformAllocation(ModuleId(vids[i]), 0,
                                       params::kNumStages, i * 5, 5, 0, 0));
    images.push_back(MakeRouter(allocs.back(),
                                static_cast<u16>(40 + 10 * i), 3));
  }

  Dataplane dp(DataplaneConfig{.num_shards = 3});
  Pipeline reference;
  for (const CompiledModule& m : images) {
    dp.ApplyWrites(m.AllWrites());
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);
  }

  const ZipfSampler zipf(12, 0.9);
  for (int round = 0; round < 40; ++round) {
    switch (rng.Below(5)) {
      case 0: {
        // Repoint one tenant's routes through a staged epoch commit.
        const std::size_t i = rng.Below(images.size());
        images[i] = MakeRouter(allocs[i],
                               static_cast<u16>(100 + round), 3);
        dp.StageWrites(images[i].AllWrites());
        dp.CommitEpoch();
        for (const ConfigWrite& w : images[i].AllWrites())
          reference.ApplyWrite(w);
        break;
      }
      case 1: {
        // Idempotent re-broadcast: versions bump, behaviour must not.
        const CompiledModule& m = images[rng.Below(images.size())];
        dp.ApplyWrites(m.AllWrites());
        for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);
        break;
      }
      case 2:
        dp.ResizeShards(1 + rng.Below(4));
        break;
      case 3:
        dp.MigrateTenant(ModuleId(vids[rng.Below(vids.size())]),
                         rng.Below(dp.num_shards()));
        break;
      default:
        break;
    }

    std::vector<Packet> batch;
    const std::size_t count = 16 + rng.Below(48);
    for (std::size_t i = 0; i < count; ++i)
      batch.push_back(TagPacket(vids[rng.Below(vids.size())],
                                static_cast<u16>(zipf.Next(rng))));

    std::vector<Packet> dp_batch = batch;
    const std::vector<PipelineResult> got =
        dp.ProcessBatch(std::move(dp_batch));
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const PipelineResult ref = reference.ProcessUnplanned(batch[i]);
      ExpectSameOutput(ref, got[i],
                       "round " + std::to_string(round) + " packet " +
                           std::to_string(i));
    }
  }

  for (const u16 vid : vids) {
    EXPECT_EQ(dp.forwarded(ModuleId(vid)), reference.forwarded(ModuleId(vid)));
    EXPECT_EQ(dp.dropped(ModuleId(vid)), reference.dropped(ModuleId(vid)));
  }
  // The surviving replicas' caches were exercised (hits from shrunk
  // replicas are destroyed with them, so only a floor is asserted).
  u64 hits = 0, misses = 0;
  for (const Dataplane::ShardCounters& c : dp.CountersSnapshot()) {
    hits += c.flow_cache_hits;
    misses += c.flow_cache_misses;
  }
  EXPECT_GT(hits + misses, 0u);
}

}  // namespace
}  // namespace menshen
