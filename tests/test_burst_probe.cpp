// Burst-vectorized flow-cache probing (FlowVerdictCache::BurstProbe) and
// egress burst transmit (Dataplane::BindEgressDevice / FlushEgress).
//
// The burst path gathers keys, hashes + prefetches across the whole
// burst, then replays hits and routes fallback lanes through the
// in-order resolve tail — so its observable behaviour (egress bytes,
// sidebands, per-tenant order, exact cache accounting) must be
// indistinguishable from probing one packet at a time, which is what a
// burst of one does; both must match ProcessUnplanned.  This suite pins
// that differential under zipfian reuse, epoch commits, migrations and
// mid-stream resizes, and runs under ASAN+TSAN in CI (the
// concurrent-producer test is the TSAN target for the burst scratch
// arrays).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "net/network.hpp"
#include "packet/arena.hpp"
#include "sim/traffic.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

/// Zipf(s) over ranks [0, n): CDF table + binary search, deterministic
/// given the caller's Rng (same harness as tests/test_flow_cache.cpp).
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

/// Flow-cacheable one-word-key router (constant port/drop actions).
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

/// What one egressed packet must look like: deparsed bytes plus routing
/// sidebands.
struct EgressRecord {
  std::vector<u8> bytes;
  u16 egress_port = 0;
  Disposition disposition = Disposition::kForward;
  std::vector<u16> multicast_ports;

  bool operator==(const EgressRecord&) const = default;
};

EgressRecord RecordOf(const Packet& p) {
  const auto s = p.bytes().bytes();
  return EgressRecord{{s.begin(), s.end()}, p.egress_port, p.disposition,
                      p.multicast_ports};
}

EgressRecord RecordOf(const ArenaPacket& p) {
  const auto v = p.bytes().bytes();
  return EgressRecord{{v.begin(), v.end()}, p.egress_port, p.disposition,
                      p.multicast_ports};
}

/// Streams `trace` into `dp` as bursts of `burst` and appends every
/// egressed record per tenant to `got`.  All buffers drain back to the
/// arena (the per-round leak check).
void StreamThrough(Dataplane& dp, PacketArena& arena,
                   const std::vector<Packet>& trace, std::size_t burst,
                   std::map<u16, std::vector<EgressRecord>>& got) {
  std::vector<ArenaPacket*> pkts(burst);
  for (std::size_t off = 0; off < trace.size(); off += burst) {
    const std::size_t n = std::min(burst, trace.size() - off);
    ASSERT_EQ(arena.AllocateBurst(pkts.data(), n), n);
    for (std::size_t i = 0; i < n; ++i)
      pkts[i]->Assign(trace[off + i].bytes().bytes());
    dp.SubmitStream(pkts.data(), n);
  }
  std::vector<ArenaPacket*> egress;
  (void)dp.PollEgress(egress);
  for (const ArenaPacket* p : egress) {
    ASSERT_TRUE(p->has_vlan());
    got[p->vid().value()].push_back(RecordOf(*p));
  }
  ReleaseToOwners(egress.data(), egress.size());
  ASSERT_EQ(arena.outstanding(), 0u);
}

// --- Bursts vs bursts of one vs unplanned ---------------------------------------

TEST(BurstProbeDifferential, ZipfStreamAcrossEpochsMigrationsResizes) {
  Rng rng(0xB0857B0B);
  const std::vector<u16> vids = {2, 3, 4};

  std::vector<CompiledModule> images;
  std::vector<ModuleAllocation> allocs;
  for (std::size_t i = 0; i < vids.size(); ++i) {
    allocs.push_back(UniformAllocation(ModuleId(vids[i]), 0,
                                       params::kNumStages, i * 4, 4, 0, 0));
    images.push_back(
        MakeRouter(allocs.back(), static_cast<u16>(40 + 10 * i), 3));
  }
  // A non-cacheable tenant rides along: its packets split every burst
  // into spans, so the burst prober sees ragged lane sets, not just
  // whole bursts.
  const ModuleAllocation calc_alloc =
      UniformAllocation(ModuleId(5), 0, params::kNumStages, 12, 4, 0, 32);
  CompiledModule calc = MustCompile(apps::CalcSpec(), calc_alloc);
  ASSERT_TRUE(apps::InstallCalcEntries(calc, 19));

  // Same traffic, same churn: a dataplane fed 32-packet bursts vs an
  // identically configured one fed one packet per SubmitStream call (a
  // burst of one probes in sequential order) vs ProcessUnplanned.
  Dataplane burst_dp(
      DataplaneConfig{.num_shards = 2, .worker_threads = false});
  Dataplane scalar_dp(
      DataplaneConfig{.num_shards = 2, .worker_threads = false});
  Pipeline reference;
  const auto apply_all = [&](const CompiledModule& m) {
    burst_dp.ApplyWrites(m.AllWrites());
    scalar_dp.ApplyWrites(m.AllWrites());
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);
  };
  for (const CompiledModule& m : images) apply_all(m);
  apply_all(calc);

  PacketArena burst_arena(0);
  PacketArena scalar_arena(0);
  std::map<u16, std::vector<EgressRecord>> expected;
  std::map<u16, std::vector<EgressRecord>> got_burst;
  std::map<u16, std::vector<EgressRecord>> got_scalar;

  const ZipfSampler zipf(12, 1.1);
  for (int round = 0; round < 40; ++round) {
    switch (rng.Below(5)) {
      case 0: {
        // Repoint one router's routes through a staged epoch commit.
        const std::size_t i = rng.Below(images.size());
        images[i] =
            MakeRouter(allocs[i], static_cast<u16>(100 + round), 3);
        burst_dp.StageWrites(images[i].AllWrites());
        scalar_dp.StageWrites(images[i].AllWrites());
        burst_dp.CommitEpoch();
        scalar_dp.CommitEpoch();
        for (const ConfigWrite& w : images[i].AllWrites())
          reference.ApplyWrite(w);
        break;
      }
      case 1: {
        // Mid-stream resize: both engines move in lockstep, so tenant
        // placement stays identical and so does the cache accounting.
        const std::size_t shards = 1 + rng.Below(4);
        burst_dp.ResizeShards(shards);
        scalar_dp.ResizeShards(shards);
        break;
      }
      case 2: {
        const u16 vid = vids[rng.Below(vids.size())];
        const std::size_t to = rng.Below(burst_dp.num_shards());
        burst_dp.MigrateTenant(ModuleId(vid), to);
        scalar_dp.MigrateTenant(ModuleId(vid), to);
        break;
      }
      default:
        break;
    }

    std::vector<Packet> trace;
    const std::size_t count = 16 + rng.Below(112);
    for (std::size_t i = 0; i < count; ++i) {
      if (rng.Below(5) == 0) {
        trace.push_back(CalcPacket(5, apps::kCalcOpAdd,
                                   static_cast<u32>(rng.Below(1000)),
                                   static_cast<u32>(rng.Below(1000))));
      } else {
        trace.push_back(TagPacket(vids[rng.Below(vids.size())],
                                  static_cast<u16>(zipf.Next(rng))));
      }
    }

    for (const Packet& p : trace) {
      const PipelineResult r = reference.ProcessUnplanned(p);
      if (r.output && r.output->disposition != Disposition::kDrop)
        expected[p.vid().value()].push_back(RecordOf(*r.output));
    }
    StreamThrough(burst_dp, burst_arena, trace, /*burst=*/32, got_burst);
    StreamThrough(scalar_dp, scalar_arena, trace, /*burst=*/1, got_scalar);
  }

  EXPECT_EQ(got_burst, expected);
  EXPECT_EQ(got_scalar, expected);

  // Exact-accounting differential: wide bursts must report the very
  // same hit/miss/eviction stream as bursts of one — provisional burst
  // hits that a pending fill taints are resolved in lane order, so the
  // counters are not allowed to drift.
  u64 b_hits = 0, b_miss = 0, b_evict = 0, b_burst = 0;
  u64 s_hits = 0, s_miss = 0, s_evict = 0;
  for (const auto& c : burst_dp.CountersSnapshot()) {
    b_hits += c.flow_cache_hits;
    b_miss += c.flow_cache_misses;
    b_evict += c.flow_cache_evictions;
    b_burst += c.flow_cache_burst_pkts;
  }
  for (const auto& c : scalar_dp.CountersSnapshot()) {
    s_hits += c.flow_cache_hits;
    s_miss += c.flow_cache_misses;
    s_evict += c.flow_cache_evictions;
  }
  EXPECT_EQ(b_hits, s_hits);
  EXPECT_EQ(b_miss, s_miss);
  EXPECT_EQ(b_evict, s_evict);
  EXPECT_GT(b_burst, 0u);  // the burst engine actually burst-probed
}

// Worker threads + concurrent per-tenant producers + control churn: the
// TSAN surface for the burst scratch arrays (per-Pipeline, worker-owned)
// and the egress binding lock.  Per-tenant egress must stay
// byte-identical to the unplanned reference, in order.
TEST(BurstProbeDifferential, ConcurrentProducersWorkerThreadsMatchReference) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kBursts = 32;
  constexpr std::size_t kBurst = 16;

  std::vector<CompiledModule> images;
  std::vector<ModuleAllocation> allocs;
  const std::vector<u16> vids = {2, 3, 4};
  for (std::size_t i = 0; i < vids.size(); ++i) {
    allocs.push_back(UniformAllocation(ModuleId(vids[i]), 0,
                                       params::kNumStages, i * 4, 4, 0, 0));
    images.push_back(
        MakeRouter(allocs.back(), static_cast<u16>(40 + 10 * i), 3));
  }

  Dataplane dp(DataplaneConfig{.num_shards = 3,
                               .worker_threads = true,
                               .ingress_queue_depth = 8});
  Pipeline reference;
  for (const CompiledModule& m : images) {
    dp.ApplyWrites(m.AllWrites());
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);
  }

  // Fixed traces and expectations before any traffic flows.
  std::vector<std::vector<Packet>> traces(kProducers);
  std::map<u16, std::vector<EgressRecord>> expected;
  const ZipfSampler zipf(12, 1.1);
  for (std::size_t p = 0; p < kProducers; ++p) {
    Rng rng(7100 + static_cast<u64>(p));
    for (std::size_t i = 0; i < kBursts * kBurst; ++i)
      traces[p].push_back(
          TagPacket(vids[p], static_cast<u16>(zipf.Next(rng))));
    for (const Packet& pkt : traces[p]) {
      const PipelineResult r = reference.ProcessUnplanned(pkt);
      if (r.output && r.output->disposition != Disposition::kDrop)
        expected[pkt.vid().value()].push_back(RecordOf(*r.output));
    }
  }

  std::vector<std::unique_ptr<PacketArena>> arenas;
  for (std::size_t p = 0; p < kProducers; ++p)
    arenas.push_back(std::make_unique<PacketArena>(kBursts * kBurst));

  std::atomic<std::size_t> producers_done{0};
  std::mutex got_m;
  std::map<u16, std::vector<EgressRecord>> got;
  std::atomic<bool> drain_stop{false};

  std::thread consumer([&] {
    std::vector<ArenaPacket*> out;
    while (!drain_stop.load(std::memory_order_acquire)) {
      out.clear();
      if (dp.PollEgress(out) == 0) {
        std::this_thread::yield();
        continue;
      }
      {
        std::lock_guard<std::mutex> lk(got_m);
        for (const ArenaPacket* p : out)
          got[p->vid().value()].push_back(RecordOf(*p));
      }
      ReleaseToOwners(out.data(), out.size());
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      PacketArena& arena = *arenas[p];
      for (std::size_t b = 0; b < kBursts; ++b) {
        ArenaPacket* burst[kBurst];
        std::size_t have = 0;
        while (have < kBurst) {  // cap reached = egress not drained yet
          have += arena.AllocateBurst(burst + have, kBurst - have);
          if (have < kBurst) std::this_thread::yield();
        }
        for (std::size_t i = 0; i < kBurst; ++i)
          burst[i]->Assign(traces[p][b * kBurst + i].bytes().bytes());
        dp.SubmitStream(burst, kBurst);
      }
      ++producers_done;
    });
  }

  // Control churn while the streams fly: every op is quiesced; none may
  // reorder or corrupt a tenant's stream nor race the burst scratch.
  std::thread control([&] {
    u64 flip = 0;
    while (producers_done.load() < kProducers) {
      for (const CompiledModule& m : images) dp.StageWrites(m.AllWrites());
      dp.CommitEpoch();
      dp.MigrateTenant(ModuleId(vids[flip % vids.size()]),
                       flip % dp.num_shards());
      if (flip % 3 == 0) dp.ResizeShards(2 + (flip / 3) % 3);  // 2..4
      ++flip;
      std::this_thread::yield();
    }
  });

  for (std::thread& t : producers) t.join();
  control.join();
  // Drain until every arena is fully recycled, then stop the consumer.
  while (true) {
    bool all_home = true;
    for (const auto& a : arenas)
      if (a->outstanding() != 0) all_home = false;
    if (all_home) break;
    std::this_thread::yield();
  }
  drain_stop.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(got, expected);
}

// --- Egress burst transmit ------------------------------------------------------

TEST(EgressTransmit, FlushDrainsBoundPortsIntoTheNetworkInOrder) {
  // Dataplane router forwards tag t -> port 40+t (t<3), drops tag 3.
  const ModuleAllocation alloc =
      UniformAllocation(ModuleId(2), 0, params::kNumStages, 0, 4, 0, 0);
  const CompiledModule image = MakeRouter(alloc, 40, 3);

  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  dp.ApplyWrites(image.AllWrites());

  // Downstream device runs the same router image; the dataplane's ports
  // 40 and 41 are bound to its host edge, port 42 is left unbound.
  Network net;
  Device& s1 = net.AddDevice("s1");
  for (const ConfigWrite& w : image.AllWrites()) s1.pipeline().ApplyWrite(w);
  net.AttachHost({"s1", 1}, ModuleId(2));

  // Validation is up-front and all-or-nothing: a mapping to a port with
  // no attached host throws before anything is stored.
  EXPECT_THROW(
      dp.BindEgressDevice(net, {{40, PortRef{"s1", 99}}}),
      std::invalid_argument);
  dp.BindEgressDevice(net,
                      {{40, PortRef{"s1", 1}}, {41, PortRef{"s1", 1}}});

  // tags: 0 -> port 40 (bound), 1 -> 41 (bound), 2 -> 42 (unbound),
  // 3 -> dropped in the dataplane (never reaches egress).
  const std::vector<u16> tags = {0, 1, 0, 2, 3, 1, 0};
  PacketArena arena(0);
  std::vector<ArenaPacket*> pkts(tags.size());
  ASSERT_EQ(arena.AllocateBurst(pkts.data(), tags.size()), tags.size());
  for (std::size_t i = 0; i < tags.size(); ++i)
    pkts[i]->Assign(TagPacket(2, tags[i]).bytes().bytes());
  dp.SubmitStream(pkts.data(), tags.size());

  const std::vector<Delivery> out = dp.FlushEgress();
  // 5 bound-forwarded packets entered the network; the device re-routes
  // each by the same tag to edge ports 40/41 (single hop, so delivery
  // order == injection order == the per-tenant egress order).
  ASSERT_EQ(out.size(), 5u);
  const std::vector<u16> expect_ports = {40, 41, 40, 41, 40};
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].at.device, "s1");
    EXPECT_EQ(out[i].at.port, expect_ports[i]) << "delivery " << i;
  }
  EXPECT_EQ(dp.egress_transmitted(), 5u);
  EXPECT_EQ(dp.egress_unbound(), 1u);  // the tag-2 packet had no binding
  // Every drained buffer went home (FlushEgress owns the release).
  EXPECT_EQ(arena.outstanding(), 0u);

  // Nothing queued -> nothing injected.
  EXPECT_TRUE(dp.FlushEgress().empty());

  // Rebinding replaces the map: port 42 now routes too.
  dp.BindEgressDevice(net, {{40, PortRef{"s1", 1}},
                            {41, PortRef{"s1", 1}},
                            {42, PortRef{"s1", 1}}});
  ASSERT_EQ(arena.AllocateBurst(pkts.data(), 1), 1u);
  pkts[0]->Assign(TagPacket(2, 2).bytes().bytes());
  dp.SubmitStream(pkts.data(), 1);
  const std::vector<Delivery> out2 = dp.FlushEgress();
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].at.port, 42u);
  EXPECT_EQ(dp.egress_transmitted(), 6u);
  EXPECT_EQ(arena.outstanding(), 0u);
}

// A streaming dataplane feeding a multi-hop chain without the
// per-packet host bounce: dp egress -> s1 -> s2 -> edge.
TEST(EgressTransmit, FlushFeedsAMultiHopChain) {
  const ModuleAllocation alloc =
      UniformAllocation(ModuleId(2), 0, params::kNumStages, 0, 4, 0, 0);
  const CompiledModule image = MakeRouter(alloc, 40, 3);

  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = false});
  dp.ApplyWrites(image.AllWrites());

  // s1 forwards every tag out of port 40+tag; its port 40 links into
  // s2, whose port 40+tag is an edge.
  Network net;
  Device& s1 = net.AddDevice("s1");
  Device& s2 = net.AddDevice("s2");
  for (const ConfigWrite& w : image.AllWrites()) {
    s1.pipeline().ApplyWrite(w);
    s2.pipeline().ApplyWrite(w);
  }
  net.Link({"s1", 40}, {"s2", 1});
  net.AttachHost({"s1", 1}, ModuleId(2));
  dp.BindEgressDevice(net, {{40, PortRef{"s1", 1}}});

  PacketArena arena(0);
  ArenaPacket* pkt = arena.Allocate();
  ASSERT_NE(pkt, nullptr);
  pkt->Assign(TagPacket(2, 0).bytes().bytes());
  dp.SubmitStream(&pkt, 1);

  const std::vector<Delivery> out = dp.FlushEgress();
  ASSERT_EQ(out.size(), 1u);
  // tag 0: dp -> port 40 -> injected at s1:1 -> s1 forwards to its port
  // 40 -> link -> s2 -> s2 forwards to its (edge) port 40.
  EXPECT_EQ(out[0].at, (PortRef{"s2", 40}));
  EXPECT_EQ(arena.outstanding(), 0u);
}

}  // namespace
}  // namespace menshen
