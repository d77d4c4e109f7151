// Multi-device topologies: vSwitch VID stamping, cross-device forwarding,
// loop containment, and the cross-device VID-rewrite attack the static
// checker exists to prevent (section 3.4).
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "dataplane/dataplane.hpp"
#include "packet/arena.hpp"
#include "runtime/module_manager.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

/// Installs a one-table forwarder on a device: match the L4 dst port,
/// send to an egress port.
void InstallForwarder(Device& dev, u16 vid, std::size_t cam_base,
                      const std::vector<std::pair<u16, u16>>& port_map) {
  static const char* kSource = R"(
module fwd {
  field dport : 2 @ 40;
  action go(p) { port(p); }
  table t { key = { dport }; actions = { go }; size = 4; }
}
)";
  const ModuleAllocation alloc = UniformAllocation(
      ModuleId(vid), 0, params::kNumStages, cam_base, 4, 0, 0);
  CompiledModule m = CompileDsl(kSource, alloc);
  ASSERT_TRUE(m.ok()) << m.diags().ToString();
  for (const auto& [dport, out] : port_map)
    m.AddEntry("t", {{"dport", dport}}, std::nullopt, "go", {out});
  ModuleManager mgr(dev.pipeline());
  MustLoad(mgr, m, alloc);
}

TEST(Network, VSwitchStampsTheVid) {
  Network net;
  Device& s1 = net.AddDevice("s1");
  InstallForwarder(s1, 5, 0, {{80, 2}});
  net.AttachHost({"s1", 1}, ModuleId(5));

  // The host marks its packet with a spoofed VID; the vSwitch overwrites
  // it with the tenant's assigned one.
  Packet pkt = PacketBuilder{}.vid(ModuleId(9)).udp(1, 80).Build();
  const auto deliveries = net.InjectFromHost({"s1", 1}, std::move(pkt));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].at, (PortRef{"s1", 2}));
  EXPECT_EQ(deliveries[0].packet.vid().value(), 5);
}

TEST(Network, ForwardsAcrossTwoDevices) {
  // host -> s1:1, s1 forwards port 80 out of port 2, which links to s2:1;
  // s2 forwards port 80 out of its port 3 (an edge).
  Network net;
  InstallForwarder(net.AddDevice("s1"), 5, 0, {{80, 2}});
  InstallForwarder(net.AddDevice("s2"), 5, 0, {{80, 3}});
  net.Link({"s1", 2}, {"s2", 1});
  net.AttachHost({"s1", 1}, ModuleId(5));

  const auto out = net.InjectFromHost(
      {"s1", 1}, PacketBuilder{}.udp(1, 80).Build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at, (PortRef{"s2", 3}));
}

TEST(Network, DropOnOneDeviceEndsTheWalk) {
  Network net;
  Device& s1 = net.AddDevice("s1");
  InstallForwarder(s1, 5, 0, {{80, 2}});  // no entry for port 23
  net.AttachHost({"s1", 1}, ModuleId(5));
  // Miss -> default forward to port 0, which is an edge here.
  const auto out = net.InjectFromHost(
      {"s1", 1}, PacketBuilder{}.udp(1, 23).Build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at, (PortRef{"s1", 0}));
}

TEST(Network, RoutingLoopIsContainedByTheHopBudget) {
  // s1 sends port-80 traffic to s2, s2 sends it straight back: the walk
  // burns its hop budget and the packet is dropped and counted — the
  // data-plane symptom of what the control-plane loop checker rejects.
  Network net;
  InstallForwarder(net.AddDevice("s1"), 5, 0, {{80, 2}});
  InstallForwarder(net.AddDevice("s2"), 5, 0, {{80, 1}});
  net.Link({"s1", 2}, {"s2", 1});
  net.AttachHost({"s1", 1}, ModuleId(5));

  const auto out = net.InjectFromHost(
      {"s1", 1}, PacketBuilder{}.udp(1, 80).Build(), /*max_hops=*/6);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(net.loop_drops(), 1u);
}

TEST(Network, MulticastFansOutAcrossLinks) {
  Network net;
  Device& s1 = net.AddDevice("s1");
  Device& s2 = net.AddDevice("s2");
  s1.pipeline().SetMulticastGroup(3, {2, 4});
  InstallForwarder(s2, 5, 0, {{80, 9}});

  // A raw multicast module on s1 (hand-config to keep the test focused).
  const ModuleAllocation alloc =
      UniformAllocation(ModuleId(5), 0, params::kNumStages, 0, 4, 0, 0);
  CompiledModule m = CompileDsl(R"(
module mc {
  field dport : 2 @ 40;
  action fan(g) { mcast(g); }
  table t { key = { dport }; actions = { fan }; size = 2; }
}
)",
                                alloc);
  ASSERT_TRUE(m.ok());
  m.AddEntry("t", {{"dport", 80}}, std::nullopt, "fan", {3});
  ModuleManager mgr(s1.pipeline());
  MustLoad(mgr, m, alloc);

  net.Link({"s1", 2}, {"s2", 1});  // one replica continues into s2
  net.AttachHost({"s1", 1}, ModuleId(5));

  const auto out = net.InjectFromHost(
      {"s1", 1}, PacketBuilder{}.udp(1, 80).Build());
  ASSERT_EQ(out.size(), 2u);  // one copy at s1:4 (edge), one via s2:9
  // The hop loop delivers by hop: the s1:4 edge copy leaves at hop 1,
  // the copy that continues through s2 leaves at hop 2.
  EXPECT_EQ(out[0].at, (PortRef{"s1", 4}));
  EXPECT_EQ(out[1].at, (PortRef{"s2", 9}));
}

TEST(Network, BatchedInjectionMatchesPerPacketWalks) {
  // The batched hop loop must deliver exactly what per-packet injection
  // delivers: same edge ports, same packet bytes, same loop drops — only
  // the grouping into per-device sub-batches differs.
  const auto build = [] {
    Network net;
    InstallForwarder(net.AddDevice("s1"), 5, 0, {{80, 2}, {81, 3}});
    InstallForwarder(net.AddDevice("s2"), 5, 0, {{80, 4}});
    InstallForwarder(net.AddDevice("s3"), 5, 0, {{81, 5}});
    net.Link({"s1", 2}, {"s2", 1});
    net.Link({"s1", 3}, {"s3", 1});
    net.AttachHost({"s1", 1}, ModuleId(5));
    return net;
  };

  std::vector<Packet> trace;
  for (int i = 0; i < 64; ++i)
    trace.push_back(
        PacketBuilder{}.udp(static_cast<u16>(i), i % 2 ? 80 : 81).Build());

  Network per_packet = build();
  std::vector<Delivery> ref;
  for (const Packet& p : trace) {
    auto one = per_packet.InjectFromHost({"s1", 1}, p);
    for (auto& d : one) ref.push_back(std::move(d));
  }

  Network batched = build();
  const auto out = batched.InjectBatchFromHost({"s1", 1}, trace);

  ASSERT_EQ(out.size(), ref.size());
  // Delivery order differs (per-hop vs per-packet), so compare as
  // multisets of (port, bytes).
  const auto key = [](const Delivery& d) {
    return d.at.device + ":" + std::to_string(d.at.port) + "/" +
           std::to_string(d.packet.bytes().u16_at(40));  // UDP dst port
  };
  std::multiset<std::string> want, got;
  for (const auto& d : ref) want.insert(key(d));
  for (const auto& d : out) got.insert(key(d));
  EXPECT_EQ(want, got);
  EXPECT_EQ(batched.loop_drops(), per_packet.loop_drops());
}

TEST(Network, BatchedInjectionCountsLoopDrops) {
  Network net;
  InstallForwarder(net.AddDevice("s1"), 5, 0, {{80, 2}});
  InstallForwarder(net.AddDevice("s2"), 5, 0, {{80, 1}});
  net.Link({"s1", 2}, {"s2", 1});
  net.AttachHost({"s1", 1}, ModuleId(5));

  std::vector<Packet> looping(8, PacketBuilder{}.udp(1, 80).Build());
  const auto out =
      net.InjectBatchFromHost({"s1", 1}, std::move(looping), /*max_hops=*/5);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(net.loop_drops(), 8u);
}

TEST(Network, VidRewriteAttackCrossesDevices) {
  // The attack the static checker forbids (section 3.4): module 5 on s1
  // rewrites the VLAN TCI so that on s2 the packet is processed under
  // module 6's configuration.  The compiler refuses such a program, so
  // we inject the configuration by hand to demonstrate the blast radius
  // the check prevents.
  Network net;
  Device& s1 = net.AddDevice("s1");
  Device& s2 = net.AddDevice("s2");
  net.Link({"s1", 2}, {"s2", 1});
  net.AttachHost({"s1", 1}, ModuleId(5));

  // s1, module 5, hand-built: parse TCI, set it to 6, forward to port 2.
  Pipeline& p1 = s1.pipeline();
  ParserEntry parser;
  parser.actions[0] = {true, {ContainerType::k2B, 0}, offsets::kVlanTci};
  p1.parser().table().Write(5, parser);
  DeparserEntry deparser;
  deparser.actions[0] = {true, {ContainerType::k2B, 0}, offsets::kVlanTci};
  p1.deparser().table().Write(5, deparser);
  Stage& st = p1.stage(0);
  st.key_extractor().Write(5, KeyExtractorEntry{});
  KeyMaskEntry mask;  // match-all (zero mask): every packet hits entry 0
  st.key_mask().Write(5, mask);
  st.cam().Write(0, CamEntry{true, BitVec(params::kKeyBits), ModuleId(5)});
  VliwEntry vliw;
  vliw.slots[0] = {AluOp::kSet, 0, 0, 6};          // TCI := 6 (VID rewrite!)
  vliw.slots[24] = {AluOp::kPort, 0, 0, 2};        // towards s2
  st.WriteVliw(0, vliw);

  // s2, module 6 (the victim): counts its packets via a sequencer.
  const ModuleAllocation alloc =
      UniformAllocation(ModuleId(6), 0, params::kNumStages, 0, 4, 0, 8);
  CompiledModule victim = MustCompile(apps::NetChainSpec(), alloc);
  ModuleManager mgr(s2.pipeline());
  MustLoad(mgr, victim, alloc);
  apps::InstallNetChainEntries(victim, 3);
  mgr.Update(victim);

  const auto out =
      net.InjectFromHost({"s1", 1}, NetChainPacket(5, apps::kNetChainOpSeq));
  ASSERT_EQ(out.size(), 1u);
  // The packet crossed into s2 carrying the victim's VID and consumed
  // the victim's sequencer state — the isolation breach.
  EXPECT_EQ(out[0].packet.vid().value(), 6);
  EXPECT_EQ(NetChainSeq(out[0].packet), 1u);

  // ...and the compiler's static checker makes this unprogrammable:
  const CompiledModule rejected = CompileDsl(R"(
module attack {
  field tci : 2 @ 14;
  action a(p) { tci = 6; port(p); }
  table t { key = { tci }; actions = { a }; size = 1; }
}
)",
                                             UniformAllocation(
                                                 ModuleId(5), 0, 5, 0, 4));
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.diags().HasCode("static.vid-write"));
}

TEST(Network, TopologyValidation) {
  Network net;
  net.AddDevice("s1");
  EXPECT_THROW(net.AddDevice("s1"), std::invalid_argument);
  EXPECT_THROW((void)net.device("ghost"), std::invalid_argument);
  EXPECT_THROW(net.Link({"s1", 1}, {"ghost", 1}), std::invalid_argument);
  net.AddDevice("s2");
  net.Link({"s1", 1}, {"s2", 1});
  EXPECT_THROW(net.Link({"s1", 1}, {"s2", 2}), std::invalid_argument);
  EXPECT_THROW(net.AttachHost({"s1", 1}, ModuleId(1)),
               std::invalid_argument);
  EXPECT_THROW(net.InjectFromHost({"s1", 9}, PacketBuilder{}.Build()),
               std::invalid_argument);
  // A host needs an existing device, and a host port takes no link —
  // from either end of the link.
  EXPECT_THROW(net.AttachHost({"ghost", 1}, ModuleId(1)),
               std::invalid_argument);
  net.AttachHost({"s1", 3}, ModuleId(1));
  EXPECT_THROW(net.Link({"s1", 3}, {"s2", 3}), std::invalid_argument);
  EXPECT_THROW(net.Link({"s2", 4}, {"s1", 3}), std::invalid_argument);
}

TEST(Network, RuntAndUntaggedFramesAreFilteredNotThrown) {
  // Hostile input at the edge: the vSwitch stamps only VLAN-tagged
  // frames, and the first device's packet filter drops the rest.
  Network net;
  Device& s1 = net.AddDevice("s1");
  InstallForwarder(s1, 5, 0, {{80, 2}});
  net.AttachHost({"s1", 1}, ModuleId(5));

  Packet untagged = PacketBuilder{}.udp(1, 80).frame_size(64).Build();
  untagged.bytes().set_u16(offsets::kVlanTpid, 0x0800);
  std::vector<Packet> batch;
  batch.push_back(PacketBuilder{}.udp(1, 80).Build());
  batch.emplace_back();
  batch.emplace_back(ByteBuffer(std::vector<u8>(15, 0xAB)));
  batch.push_back(std::move(untagged));
  batch.push_back(PacketBuilder{}.udp(2, 80).Build());
  std::vector<Delivery> out;
  ASSERT_NO_THROW(out = net.InjectBatchFromHost({"s1", 1}, std::move(batch)));
  ASSERT_EQ(out.size(), 2u);
  for (const Delivery& d : out) {
    EXPECT_EQ(d.at, (PortRef{"s1", 2}));
    EXPECT_EQ(d.packet.vid().value(), 5);
  }
  EXPECT_EQ(out[0].packet.l4_src_port(), 1);
  EXPECT_EQ(out[1].packet.l4_src_port(), 2);
  EXPECT_EQ(s1.pipeline().filter().dropped_no_vlan(), 3u);

  EXPECT_TRUE(net.InjectFromHost({"s1", 1}, Packet{}).empty());
  EXPECT_EQ(s1.pipeline().filter().dropped_no_vlan(), 4u);
  EXPECT_EQ(net.arena().outstanding(), 0u);
}

// --- Byte differential: the arena hop loop vs a per-hop reference walk ---------

// Topology (every device runs tenant kChainVid):
//
//   host (kChainVid)  -> s0:1   NetChain head; sequenced requests leave s0:2
//   host (kFrozenVid) -> s1:6   kFrozenVid is under reconfiguration on s1
//   links: s0:2-s1:1, s1:2-s2:1, s1:3-s3:1
//
// s1 steers on the UDP destination port:
//   chain  -> s2 -> edge s2:3
//   branch -> s3 -> edge s3:2
//   fan    -> multicast to edge s1:4 and to s2 -> edge s2:3
//   sink   -> the drop row
//   bounce -> s2, which rewrites it to return -> s1 -> edge s1:5 (a
//             2-device loop inside the hop budget)
//   loop   -> s1 <-> s2 until the hop budget runs out
//   miss   -> no entry: the default port 0, an edge
// An unknown NetChain op misses on s0 and leaves at edge s0:0.  Untagged
// frames are dropped by s0's filter, kFrozenVid's by s1's bitmap.
constexpr u16 kChainVid = 5;
constexpr u16 kFrozenVid = 6;
constexpr u16 kFanGroup = 7;
enum : u16 {
  kChainPort = 40000,
  kBranchPort = 40001,
  kFanPort = 40002,
  kSinkPort = 40003,
  kBouncePort = 40004,
  kReturnPort = 40005,
  kLoopPort = 40006,
  kMissPort = 40009,
};
constexpr std::array<u16, 7> kDiffPorts = {kChainPort,  kBranchPort, kFanPort,
                                           kSinkPort,   kBouncePort, kLoopPort,
                                           kMissPort};
const std::vector<std::pair<PortRef, PortRef>> kDiffLinks = {
    {{"s0", 2}, {"s1", 1}}, {{"s1", 2}, {"s2", 1}}, {{"s1", 3}, {"s3", 1}}};
const PortRef kChainHost{"s0", 1};
const PortRef kFrozenHost{"s1", 6};
const std::vector<std::pair<PortRef, u16>> kDiffHosts = {
    {kChainHost, kChainVid}, {kFrozenHost, kFrozenVid}};

struct HopRule {
  u16 dport;
  const char* action;
  std::vector<u64> args;
};

/// A steering table keyed on the UDP destination port.
CompiledModule HopModule(u16 vid, const std::vector<HopRule>& rules) {
  static const char* kSource = R"(
module hop {
  field dport : 2 @ 40;
  action go(p) { port(p); }
  action fan(g) { mcast(g); }
  action sink { drop(); }
  action turn(d, p) { dport = d; port(p); }
  table t { key = { dport }; actions = { go, fan, sink, turn }; size = 8; }
}
)";
  CompiledModule m = CompileDsl(
      kSource, UniformAllocation(ModuleId(vid), 0, params::kNumStages, 0, 8, 0, 0));
  EXPECT_TRUE(m.ok()) << m.diags().ToString();
  for (const HopRule& r : rules)
    m.AddEntry("t", {{"dport", r.dport}}, std::nullopt, r.action, r.args);
  EXPECT_TRUE(m.ok()) << m.diags().ToString();
  return m;
}

void Configure(Pipeline& p, const CompiledModule& m) {
  for (const ConfigWrite& w : m.AllWrites()) p.ApplyWrite(w);
}

Network BuildDiffNet() {
  Network net;
  // Added out of name order: deliveries follow names, not insertion.
  for (const char* name : {"s3", "s2", "s1", "s0"}) net.AddDevice(name);
  CompiledModule head = MustCompile(
      apps::NetChainSpec(),
      UniformAllocation(ModuleId(kChainVid), 0, params::kNumStages, 0, 4, 0, 8));
  EXPECT_TRUE(apps::InstallNetChainEntries(head, /*out_port=*/2));
  Configure(net.device("s0").pipeline(), head);
  Pipeline& s1 = net.device("s1").pipeline();
  Configure(s1, HopModule(kChainVid, {{kChainPort, "go", {2}},
                                      {kBranchPort, "go", {3}},
                                      {kFanPort, "fan", {kFanGroup}},
                                      {kSinkPort, "sink", {}},
                                      {kBouncePort, "go", {2}},
                                      {kReturnPort, "go", {5}},
                                      {kLoopPort, "go", {2}}}));
  s1.SetMulticastGroup(kFanGroup, {4, 2});
  s1.filter().MarkUnderReconfig(ModuleId(kFrozenVid), true);
  Configure(net.device("s2").pipeline(),
            HopModule(kChainVid, {{kChainPort, "go", {3}},
                                  {kFanPort, "go", {3}},
                                  {kBouncePort, "turn", {kReturnPort, 1}},
                                  {kLoopPort, "go", {1}}}));
  Configure(net.device("s3").pipeline(),
            HopModule(kChainVid, {{kBranchPort, "go", {2}}}));
  for (const auto& [a, b] : kDiffLinks) net.Link(a, b);
  for (const auto& [port, vid] : kDiffHosts) net.AttachHost(port, ModuleId(vid));
  return net;
}

/// The reference: the same topology walked hop by hop with
/// ProcessUnplanned on replica pipelines, delivering by hop, then device
/// name, then arrival.
class ReferenceWalk {
 public:
  ReferenceWalk() : net_(BuildDiffNet()) {
    for (const auto& [a, b] : kDiffLinks) {
      links_[a] = b;
      links_[b] = a;
    }
    for (const auto& [port, vid] : kDiffHosts) hosts_[port] = ModuleId(vid);
  }

  std::vector<Delivery> Inject(std::vector<Injection> injections,
                               std::size_t max_hops = 8) {
    std::vector<Injection> cur;
    for (Injection& inj : injections) {
      if (inj.packet.has_vlan()) inj.packet.set_vid(hosts_.at(inj.port));
      cur.push_back(std::move(inj));
    }
    std::vector<Delivery> out;
    for (std::size_t hop = 0; !cur.empty(); ++hop) {
      if (hop == max_hops) {
        loop_drops_ += cur.size();
        break;
      }
      std::map<std::string, std::vector<Injection>> by_device;
      for (Injection& t : cur) by_device[t.port.device].push_back(std::move(t));
      std::vector<Injection> next;
      for (auto& [name, arrivals] : by_device) {
        for (Injection& t : arrivals) {
          t.packet.ingress_port = t.port.port;
          PipelineResult r =
              net_.device(name).pipeline().ProcessUnplanned(std::move(t.packet));
          if (!r.output) continue;
          const Packet& p = *r.output;
          const auto emit = [&](u16 port) {
            const PortRef egress{name, port};
            const auto link = links_.find(egress);
            if (link == links_.end())
              out.push_back(Delivery{egress, p});
            else
              next.push_back(Injection{link->second, p});
          };
          if (p.disposition == Disposition::kForward) emit(p.egress_port);
          if (p.disposition == Disposition::kMulticast)
            for (const u16 port : p.multicast_ports) emit(port);
        }
      }
      cur = std::move(next);
    }
    return out;
  }

  Network& net() { return net_; }
  [[nodiscard]] u64 loop_drops() const { return loop_drops_; }

 private:
  Network net_;
  std::map<PortRef, PortRef> links_;
  std::map<PortRef, ModuleId> hosts_;
  u64 loop_drops_ = 0;
};

/// A frame for the differential, steered by a random destination port;
/// one in eight carries an unknown NetChain op (s0 misses, edge s0:0).
Packet DiffFrame(Rng& rng, u16 dport, std::size_t size) {
  Packet p = PacketBuilder{}
                 .vid(ModuleId(static_cast<u16>(rng.Below(16))))
                 .udp(static_cast<u16>(rng.Below(65536)), dport)
                 .frame_size(size)
                 .Build();
  p.bytes().set_u16(46, rng.Below(8) == 0 ? apps::kNetChainOpSeq + 7
                                          : apps::kNetChainOpSeq);
  return p;
}

std::vector<Injection> RandomInjections(Rng& rng, std::size_t n) {
  std::vector<Injection> out;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 kind = rng.Below(12);
    Packet p = DiffFrame(rng, kDiffPorts[rng.Below(kDiffPorts.size())],
                         rng.Between(64, 600));
    if (kind == 0) p.bytes().set_u16(offsets::kVlanTpid, 0x0800);  // untagged
    out.push_back(Injection{kind == 1 ? kFrozenHost : kChainHost, std::move(p)});
  }
  return out;
}

void ExpectSameDeliveries(const std::vector<Delivery>& got,
                          const std::vector<Delivery>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Packet& g = got[i].packet;
    const Packet& w = want[i].packet;
    EXPECT_EQ(got[i].at, want[i].at) << "delivery " << i;
    EXPECT_TRUE(g == w) << "bytes of delivery " << i;
    EXPECT_EQ(g.disposition, w.disposition) << "delivery " << i;
    EXPECT_EQ(g.egress_port, w.egress_port) << "delivery " << i;
    EXPECT_EQ(g.multicast_ports, w.multicast_ports) << "delivery " << i;
    EXPECT_EQ(g.ingress_port, w.ingress_port) << "delivery " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

/// Loop drops, filter counters and the chain tenant's per-device
/// forwarded/dropped counters agree with the reference.
void ExpectSameCounters(Network& net, ReferenceWalk& ref) {
  EXPECT_EQ(net.loop_drops(), ref.loop_drops());
  for (const char* name : {"s0", "s1", "s2", "s3"}) {
    const Pipeline& a = net.device(name).pipeline();
    const Pipeline& b = ref.net().device(name).pipeline();
    EXPECT_EQ(a.filter().dropped_no_vlan(), b.filter().dropped_no_vlan()) << name;
    EXPECT_EQ(a.filter().dropped_bitmap(), b.filter().dropped_bitmap()) << name;
    EXPECT_EQ(a.forwarded(ModuleId(kChainVid)), b.forwarded(ModuleId(kChainVid)))
        << name;
    EXPECT_EQ(a.dropped(ModuleId(kChainVid)), b.dropped(ModuleId(kChainVid)))
        << name;
  }
}

std::set<PortRef> EdgesOf(const std::vector<Delivery>& out) {
  std::set<PortRef> edges;
  for (const Delivery& d : out) edges.insert(d.at);
  return edges;
}

TEST(Network, ArenaHopLoopMatchesPerHopReferenceWalk) {
  Network net = BuildDiffNet();
  ReferenceWalk ref;
  Rng rng(0x5EED);

  // Sequencer order through the 3-switch chain: the head saw every
  // packet in injection order, so packet i carries sequence i+1.
  std::vector<Injection> chain;
  for (int i = 0; i < 60; ++i)
    chain.push_back(
        Injection{kChainHost, NetChainPacket(kChainVid, apps::kNetChainOpSeq)});
  const auto chain_out = net.InjectBatch(chain);
  ExpectSameDeliveries(chain_out, ref.Inject(chain));
  ASSERT_EQ(chain_out.size(), 60u);
  for (std::size_t i = 0; i < chain_out.size(); ++i) {
    EXPECT_EQ(chain_out[i].at, (PortRef{"s2", 3}));
    EXPECT_EQ(NetChainSeq(chain_out[i].packet), static_cast<u32>(i) + 1);
  }

  std::set<PortRef> edges;
  const auto round = [&](std::vector<Injection> batch) {
    const auto got = net.InjectBatch(batch);
    ExpectSameDeliveries(got, ref.Inject(std::move(batch)));
    const std::set<PortRef> e = EdgesOf(got);
    edges.insert(e.begin(), e.end());
  };
  round(RandomInjections(rng, 400));

  // A frame longer than the arena's data room fails the whole batch
  // before any packet enters (the sequencer below would show it); one
  // exactly at the data room walks like any other.
  const u64 drops_before = net.loop_drops();
  std::vector<Injection> too_long;
  too_long.push_back(Injection{kChainHost, DiffFrame(rng, kChainPort, 100)});
  too_long.push_back(Injection{
      kChainHost, DiffFrame(rng, kChainPort, ArenaPacket::kDataRoom + 1)});
  EXPECT_THROW((void)net.InjectBatch(std::move(too_long)), std::length_error);
  EXPECT_EQ(net.arena().outstanding(), 0u);
  EXPECT_EQ(net.loop_drops(), drops_before);
  std::vector<Injection> at_room;
  at_room.push_back(Injection{
      kChainHost, DiffFrame(rng, kChainPort, ArenaPacket::kDataRoom)});
  round(std::move(at_room));

  round(RandomInjections(rng, 400));
  ExpectSameCounters(net, ref);
  EXPECT_EQ(net.arena().outstanding(), 0u);

  // Every path of the topology was exercised.
  const std::pair<const char*, u16> kEdges[] = {
      {"s0", 0}, {"s1", 0}, {"s1", 4}, {"s1", 5}, {"s2", 3}, {"s3", 2}};
  for (const auto& [device, port] : kEdges)
    EXPECT_TRUE(edges.contains(PortRef{device, port})) << device << ":" << port;
  EXPECT_GT(net.loop_drops(), 0u);
  EXPECT_GT(net.device("s0").pipeline().filter().dropped_no_vlan(), 0u);
  EXPECT_GT(net.device("s1").pipeline().filter().dropped_bitmap(), 0u);
  EXPECT_GT(net.device("s1").pipeline().dropped(ModuleId(kChainVid)), 0u);
}

TEST(Network, FlushEgressMatchesPerHopReferenceWalk) {
  // A streaming dataplane steers tenant 2's frames into the topology:
  // every destination port to its port 40 (bound to host s0:1) except
  // fan frames, which it multicasts to ports 40, 41 (bound to the frozen
  // host s1:6) and 43 (unbound), and miss frames, which go to the
  // unbound default port 0.
  constexpr u16 kEdgeVid = 2;
  std::vector<HopRule> rules;
  for (const u16 dport : kDiffPorts)
    if (dport != kMissPort)
      rules.push_back(dport == kFanPort ? HopRule{dport, "fan", {9}}
                                        : HopRule{dport, "go", {40}});
  const CompiledModule edge = HopModule(kEdgeVid, rules);
  const std::map<u16, PortRef> bound = {{40, kChainHost}, {41, kFrozenHost}};

  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = false});
  dp.ApplyWrites(edge.AllWrites());
  dp.shard(0).SetMulticastGroup(9, {40, 41, 43});
  Pipeline ref_edge;
  Configure(ref_edge, edge);
  ref_edge.SetMulticastGroup(9, {40, 41, 43});

  Network net = BuildDiffNet();
  dp.BindEgressDevice(net, bound);
  ReferenceWalk ref;
  Rng rng(0xF1054);
  PacketArena arena(0);
  u64 unbound = 0;
  u64 transmitted = 0;

  for (int flush = 0; flush < 4; ++flush) {
    std::vector<Injection> want_in;
    std::vector<ArenaPacket*> burst;
    for (int i = 0; i < 200; ++i) {
      Packet frame = DiffFrame(rng, kDiffPorts[rng.Below(kDiffPorts.size())],
                               rng.Between(64, 600));
      frame.set_vid(ModuleId(kEdgeVid));
      ArenaPacket* a = arena.Allocate();
      a->Assign(frame.bytes().bytes());
      burst.push_back(a);

      PipelineResult r = ref_edge.ProcessUnplanned(std::move(frame));
      ASSERT_TRUE(r.output.has_value());
      const Packet& p = *r.output;
      std::vector<u16> ports = p.multicast_ports;
      if (p.disposition == Disposition::kForward) ports = {p.egress_port};
      const std::size_t before = want_in.size();
      for (const u16 port : ports)
        if (bound.contains(port))
          want_in.push_back(Injection{bound.at(port), p});
      if (want_in.size() == before) ++unbound;
    }
    transmitted += want_in.size();
    dp.SubmitStream(burst.data(), burst.size());
    ExpectSameDeliveries(dp.FlushEgress(), ref.Inject(std::move(want_in)));
    EXPECT_EQ(arena.outstanding(), 0u);
    EXPECT_EQ(net.arena().outstanding(), 0u);
  }
  EXPECT_EQ(dp.egress_unbound(), unbound);
  EXPECT_EQ(dp.egress_transmitted(), transmitted);
  ExpectSameCounters(net, ref);
  EXPECT_GT(unbound, 0u);
  EXPECT_GT(net.loop_drops(), 0u);
  EXPECT_GT(net.device("s1").pipeline().filter().dropped_bitmap(), 0u);
}

TEST(Network, ArenaInjectionReleasesEveryBufferWhenItThrows) {
  Network net = BuildDiffNet();
  PacketArena arena(0);
  Rng rng(7);
  std::vector<ArenaPacket*> bufs(3);
  ASSERT_EQ(arena.AllocateBurst(bufs.data(), 3), 3u);
  for (ArenaPacket* b : bufs)
    b->Assign(DiffFrame(rng, kChainPort, 96).bytes().bytes());
  // The second entry repeats the first buffer (a replica); the third
  // names no host, so entering it throws after two packets entered.
  const std::vector<Network::ArenaInjection> tx = {
      {bufs[0], 0}, {bufs[0], 0}, {bufs[1], 0}, {bufs[2], 99}};
  EXPECT_THROW((void)net.InjectArena(tx), std::out_of_range);
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_EQ(net.arena().outstanding(), 0u);
  EXPECT_EQ(net.device("s0").pipeline().total_processed(), 0u);
}

}  // namespace
}  // namespace menshen
