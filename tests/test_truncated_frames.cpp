// Truncated-frame differential: hostile input must not disturb a
// co-located tenant.
//
// For the router, CALC and NetChain apps, one frame of every length from
// 0 to the end of the app's parse plan is sent through both ingress APIs
// (SubmitStream and Submit), in the middle of a co-located NetChain
// sequencer's packets on the same shard, on both engines.  Every output
// must equal what Pipeline::ProcessUnplanned made of the same frame, or
// the frame must land in the shard's named drop or filter counter.  The
// sequencer's bytes must equal those of a reference that never saw a
// truncated frame (any lost, duplicated or reordered packet would shift
// its sequence numbers), the per-tenant counters must match the
// reference exactly, and every arena buffer must come back.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "packet/arena.hpp"
#include "sim/traffic.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

constexpr u16 kRouterVid = 6;
constexpr u16 kCalcVid = 2;
constexpr u16 kNetChainVid = 4;
constexpr u16 kNeighbourVid = 5;  // the co-located NetChain sequencer

/// Every tenant's configuration writes, on disjoint CAM blocks and
/// stateful segments.
std::vector<ConfigWrite> AllTenantWrites() {
  std::vector<ConfigWrite> writes;
  const u16 vids[] = {kCalcVid, kNetChainVid, kNeighbourVid, kRouterVid};
  for (std::size_t i = 0; i < std::size(vids); ++i) {
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(vids[i]), 0, params::kNumStages, i * 4, 4,
                          static_cast<u8>(i * 32), 32);
    CompiledModule m;
    if (vids[i] == kRouterVid) {
      m = MakeTagRouter(alloc, 40, 3);
    } else if (vids[i] == kCalcVid) {
      m = MustCompile(apps::CalcSpec(), alloc);
      EXPECT_TRUE(apps::InstallCalcEntries(m, 11));
    } else {
      m = MustCompile(apps::NetChainSpec(), alloc);
      EXPECT_TRUE(apps::InstallNetChainEntries(m, static_cast<u16>(12 + i)));
    }
    const std::vector<ConfigWrite> w = m.AllWrites();
    writes.insert(writes.end(), w.begin(), w.end());
  }
  return writes;
}

struct AppUnderTest {
  const char* name;
  u16 vid;
  Packet frame;  // a well-formed request, truncated below
};

std::vector<AppUnderTest> AppsUnderTest() {
  // Tag 3 routes to the sink, so the router's sweep also reaches the
  // drop counter (a frame cut inside the tag parses as tag 0 and is
  // forwarded).
  return {{"router", kRouterVid, TagRouterPacket(kRouterVid, 3)},
          {"calc", kCalcVid, CalcPacket(kCalcVid, apps::kCalcOpAdd, 40, 2)},
          {"netchain", kNetChainVid,
           NetChainPacket(kNetChainVid, apps::kNetChainOpSeq)}};
}

/// One past the last byte the tenant's parser entry reads.
std::size_t ParsePlanEnd(const Pipeline& p, u16 vid) {
  const auto& table = p.parser().table();
  const ParserEntry& e = table.At(table.IndexFor(ModuleId(vid)));
  std::size_t end = 0;
  for (const ParserAction& a : e.actions)
    if (a.valid)
      end = std::max(end, a.bytes_from_head + a.container.width_bytes());
  return end;
}

Packet Truncated(const Packet& frame, std::size_t len) {
  const auto b = frame.bytes().bytes();
  return Packet(ByteBuffer(std::vector<u8>(b.begin(), b.begin() + len)));
}

struct EgressRecord {
  std::vector<u8> bytes;
  u16 egress_port = 0;
  Disposition disposition = Disposition::kForward;
  std::vector<u16> multicast_ports;

  bool operator==(const EgressRecord&) const = default;
};

template <typename PacketT>
EgressRecord RecordOf(const PacketT& p) {
  const auto s = p.bytes().bytes();
  return EgressRecord{{s.begin(), s.end()}, p.egress_port, p.disposition,
                      p.multicast_ports};
}

/// The dataplane's verdict classes: 0 forwarded, 1 dropped, 2 filtered.
int ClassOf(const PipelineResult& r) {
  if (r.filter_verdict == FilterVerdict::kDropBitmap) return 1;
  if (r.filter_verdict != FilterVerdict::kData) return 2;
  return r.output->disposition == Disposition::kDrop ? 1 : 0;
}

void RunSweep(bool worker_threads) {
  const std::vector<ConfigWrite> writes = AllTenantWrites();
  const Packet neighbour = NetChainPacket(kNeighbourVid, apps::kNetChainOpSeq);

  for (const AppUnderTest& app : AppsUnderTest()) {
    SCOPED_TRACE(app.name);
    // One shard: the app and its neighbour share a replica, a ring, an
    // executor and every work item.
    Dataplane dp(DataplaneConfig{.num_shards = 1,
                                 .worker_threads = worker_threads});
    dp.ApplyWrites(writes);
    Pipeline reference;            // sees everything the dataplane sees
    Pipeline neighbour_reference;  // sees only the neighbour's packets
    for (const ConfigWrite& w : writes) {
      reference.ApplyWrite(w);
      neighbour_reference.ApplyWrite(w);
    }
    const std::size_t end = ParsePlanEnd(reference, app.vid);
    ASSERT_GT(end, offsets::kPayload);
    ASSERT_LE(end, app.frame.size());

    PacketArena arena(0);
    std::map<u16, std::vector<EgressRecord>> expected_egress;
    std::vector<EgressRecord> ticket_neighbour;
    std::array<u64, 3> classes{};  // reference verdict classes, cumulative

    for (std::size_t len = 0; len <= end; ++len) {
      SCOPED_TRACE(len);
      const Packet runt = Truncated(app.frame, len);
      // The runt sits between the neighbour's packets of one burst.
      const std::vector<Packet> burst = {neighbour, neighbour, runt, neighbour,
                                         neighbour};
      const Dataplane::ShardCounters before = dp.CountersSnapshot()[0];

      // SubmitStream, then Submit: both land on the shard's one ring in
      // this order, so the reference processes them in this order too.
      std::vector<ArenaPacket*> pkts(burst.size());
      ASSERT_EQ(arena.AllocateBurst(pkts.data(), pkts.size()), pkts.size());
      for (std::size_t i = 0; i < burst.size(); ++i)
        pkts[i]->Assign(burst[i].bytes().bytes());
      dp.SubmitStream(pkts.data(), pkts.size());
      std::array<u64, 3> delta{};
      for (const Packet& p : burst) {
        const PipelineResult r = reference.ProcessUnplanned(p);
        ++delta[ClassOf(r)];
        if (ClassOf(r) == 0)
          expected_egress[r.output->vid().value()].push_back(
              RecordOf(*r.output));
      }

      BatchTicket ticket;
      ticket.batch = burst;
      const std::vector<PipelineResult> got =
          dp.Submit(std::move(ticket)).get();
      ASSERT_EQ(got.size(), burst.size());
      for (std::size_t i = 0; i < burst.size(); ++i) {
        SCOPED_TRACE(i);
        const PipelineResult want = reference.ProcessUnplanned(burst[i]);
        ++delta[ClassOf(want)];
        EXPECT_EQ(got[i].filter_verdict, want.filter_verdict);
        ASSERT_EQ(got[i].output.has_value(), want.output.has_value());
        if (want.output) {
          EXPECT_EQ(RecordOf(*got[i].output), RecordOf(*want.output));
        }
        if (i != 2) {
          ASSERT_TRUE(got[i].output.has_value());
          ticket_neighbour.push_back(RecordOf(*got[i].output));
        }
      }

      // Each frame is forwarded as the reference forwards it, or counted
      // in the shard's drop or filter counter.
      const Dataplane::ShardCounters after = dp.CountersSnapshot()[0];
      EXPECT_EQ(after.packets - before.packets, 2 * burst.size());
      EXPECT_EQ(after.forwarded - before.forwarded, delta[0]);
      EXPECT_EQ(after.dropped - before.dropped, delta[1]);
      EXPECT_EQ(after.filtered - before.filtered, delta[2]);
      for (int c = 0; c < 3; ++c) classes[c] += delta[c];
    }

    // Quiesced: every streamed output is on the egress queue.
    (void)dp.CountersSnapshot();
    std::vector<ArenaPacket*> egress;
    (void)dp.PollEgress(egress);
    std::map<u16, std::vector<EgressRecord>> got_egress;
    for (const ArenaPacket* p : egress) {
      ASSERT_TRUE(p->has_vlan());
      got_egress[p->vid().value()].push_back(RecordOf(*p));
    }
    ReleaseToOwners(egress.data(), egress.size());
    EXPECT_EQ(arena.outstanding(), 0u);
    EXPECT_EQ(got_egress, expected_egress);

    // The neighbour's bytes, through both APIs, are those of a reference
    // that never saw a runt: stream outputs and ticket outputs
    // interleave per length as [stream x4, ticket x4].
    std::vector<EgressRecord> clean;
    for (std::size_t len = 0; len <= end; ++len)
      for (int i = 0; i < 8; ++i)
        clean.push_back(
            RecordOf(*neighbour_reference.ProcessUnplanned(neighbour).output));
    std::vector<EgressRecord> seen;
    const std::vector<EgressRecord>& streamed = got_egress[kNeighbourVid];
    ASSERT_EQ(streamed.size() * 2, clean.size());
    for (std::size_t len = 0; len <= end; ++len) {
      for (std::size_t i = 0; i < 4; ++i) seen.push_back(streamed[len * 4 + i]);
      for (std::size_t i = 0; i < 4; ++i)
        seen.push_back(ticket_neighbour[len * 4 + i]);
    }
    EXPECT_EQ(seen, clean);

    // The sweep reached the filter counter (runts without a VLAN tag)
    // and, for the router, the drop counter.
    EXPECT_GT(classes[2], 0u);
    if (app.vid == kRouterVid) {
      EXPECT_GT(classes[1], 0u);
    }

    // Per-tenant counters, exact and relaxed, match the reference.
    for (const u16 vid : {app.vid, kNeighbourVid}) {
      SCOPED_TRACE(vid);
      const ModuleId m(vid);
      EXPECT_EQ(dp.forwarded(m), reference.forwarded(m));
      EXPECT_EQ(dp.dropped(m), reference.dropped(m));
      EXPECT_EQ(dp.forwarded_relaxed(m), reference.forwarded(m));
      EXPECT_EQ(dp.dropped_relaxed(m), reference.dropped(m));
    }
    EXPECT_EQ(dp.forwarded(ModuleId(kNeighbourVid)), 8 * (end + 1));
  }
}

TEST(TruncatedFrames, InlineEngineMatchesUnplannedAndSparesNeighbour) {
  RunSweep(/*worker_threads=*/false);
}

TEST(TruncatedFrames, WorkerEngineMatchesUnplannedAndSparesNeighbour) {
  RunSweep(/*worker_threads=*/true);
}

}  // namespace
}  // namespace menshen
