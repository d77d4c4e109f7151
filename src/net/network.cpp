#include "net/network.hpp"

#include <stdexcept>
#include <utility>

namespace menshen {

namespace {

/// The one copy out: a delivered packet's bytes (into cached storage,
/// common/bytes.hpp) plus its sidebands.
Packet ToPacket(const ArenaPacket& p) {
  Packet out(ByteBuffer(p.bytes().bytes()));
  out.ingress_port = p.ingress_port;
  out.disposition = p.disposition;
  out.egress_port = p.egress_port;
  out.multicast_ports = p.multicast_ports;
  out.buffer_tag = p.buffer_tag;
  out.verdict = p.verdict;
  out.exec_tier = p.exec_tier;
  out.exec_steps = p.exec_steps;
  return out;
}

}  // namespace

Device& Network::AddDevice(const std::string& name, PipelineTiming timing) {
  if (index_.contains(name))
    throw std::invalid_argument("duplicate device " + name);
  Node node;
  node.device = std::make_unique<Device>(name, timing);
  nodes_.push_back(std::move(node));
  index_.emplace(name, static_cast<u32>(nodes_.size() - 1));
  by_name_.clear();
  for (const auto& [n, i] : index_) by_name_.push_back(i);
  return *nodes_.back().device;
}

u32 Network::DeviceIndex(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) throw std::invalid_argument("unknown device " + name);
  return it->second;
}

Device& Network::device(const std::string& name) {
  return *nodes_[DeviceIndex(name)].device;
}

bool Network::Linked(u32 device, u16 port) const {
  const std::vector<Peer>& peers = nodes_[device].peers;
  return port < peers.size() && peers[port].device != kNoDevice;
}

std::optional<u32> Network::FindHost(u32 device, u16 port) const {
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    if (hosts_[h].device == device && hosts_[h].port == port)
      return static_cast<u32>(h);
  return std::nullopt;
}

std::optional<u32> Network::FindHost(const PortRef& port) const {
  const auto it = index_.find(port.device);
  if (it == index_.end()) return std::nullopt;
  return FindHost(it->second, port.port);
}

void Network::Link(const PortRef& a, const PortRef& b) {
  const u32 da = DeviceIndex(a.device);
  const u32 db = DeviceIndex(b.device);
  if (Linked(da, a.port) || Linked(db, b.port))
    throw std::invalid_argument("port already linked");
  if (FindHost(da, a.port) || FindHost(db, b.port))
    throw std::invalid_argument("port already carries a host");
  const auto connect = [&](u32 d, u16 port, Peer peer) {
    std::vector<Peer>& peers = nodes_[d].peers;
    if (port >= peers.size()) peers.resize(std::size_t{port} + 1);
    peers[port] = peer;
  };
  connect(da, a.port, Peer{db, b.port});
  connect(db, b.port, Peer{da, a.port});
}

void Network::AttachHost(const PortRef& port, ModuleId vid) {
  const u32 d = DeviceIndex(port.device);
  if (Linked(d, port.port))
    throw std::invalid_argument("host port already carries a link");
  if (const auto h = FindHost(d, port.port)) {
    hosts_[*h].vid = vid;
    return;
  }
  hosts_.push_back(Host{d, port.port, vid});
}

std::vector<Delivery> Network::InjectFromHost(const PortRef& port,
                                              Packet packet,
                                              std::size_t max_hops) {
  std::vector<Injection> one;
  one.push_back(Injection{port, std::move(packet)});
  return InjectBatch(std::move(one), max_hops);
}

std::vector<Delivery> Network::InjectBatchFromHost(const PortRef& port,
                                                   std::vector<Packet> packets,
                                                   std::size_t max_hops) {
  std::vector<Injection> injections;
  injections.reserve(packets.size());
  for (Packet& p : packets)
    injections.push_back(Injection{port, std::move(p)});
  return InjectBatch(std::move(injections), max_hops);
}

std::vector<Delivery> Network::InjectBatch(std::vector<Injection> injections,
                                           std::size_t max_hops) {
  // All-or-nothing: every host port and frame length is checked before
  // the first buffer is allocated.
  const std::size_t n = injections.size();
  std::vector<ArenaInjection> entries(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Injection& inj = injections[i];
    if (i > 0 && inj.port == injections[i - 1].port) {
      entries[i].host = entries[i - 1].host;
    } else {
      const auto host = FindHost(inj.port);
      if (!host)
        throw std::invalid_argument("no host attached at " +
                                    inj.port.device + ":" +
                                    std::to_string(inj.port.port));
      entries[i].host = *host;
    }
    if (inj.packet.size() > ArenaPacket::kDataRoom)
      throw std::length_error("Network: frame of " +
                              std::to_string(inj.packet.size()) +
                              " bytes exceeds the 2 KiB arena data room");
  }
  std::vector<ArenaPacket*> bufs(n);
  arena_->AllocateBurst(bufs.data(), n);  // uncapped: never short
  for (std::size_t i = 0; i < n; ++i) {
    bufs[i]->Assign(injections[i].packet.bytes().bytes());
    entries[i].pkt = bufs[i];
  }
  return InjectArena(entries, max_hops);
}

std::vector<Delivery> Network::InjectArena(
    std::span<const ArenaInjection> injections, std::size_t max_hops) {
  std::vector<Delivery> out;
  std::size_t entered = 0;
  try {
    out.reserve(injections.size());
    for (; entered < injections.size(); ++entered) {
      const ArenaInjection& inj = injections[entered];
      const Host& host = hosts_.at(inj.host);
      std::vector<ArenaPacket*>& queue = nodes_[host.device].cur;
      const bool repeat = entered > 0 && inj.pkt == injections[entered - 1].pkt;
      queue.push_back(repeat ? nullptr : inj.pkt);
      if (repeat) queue.back() = Replicate(*inj.pkt);
      ArenaPacket& p = *queue.back();
      // The vSwitch stamps the tenant's VLAN ID at the network edge; hosts
      // cannot choose their module ID themselves (section 3.1).  A frame
      // without a VLAN tag enters unstamped, and the device's packet
      // filter drops it and counts it in dropped_no_vlan().
      if (p.has_vlan()) p.set_vid(host.vid);
      p.ingress_port = host.port;
    }
    Walk(max_hops, out);
  } catch (...) {
    ReleaseInFlight();
    // Buffers that never entered a queue (a repeat's buffer already did).
    for (std::size_t i = entered; i < injections.size(); ++i) {
      ArenaPacket* p = injections[i].pkt;
      if (i == 0 || p != injections[i - 1].pkt) p->owner()->Release(p);
    }
    throw;
  }
  return out;
}

void Network::Walk(std::size_t max_hops, std::vector<Delivery>& out) {
  for (std::size_t hop = 0;; ++hop) {
    std::size_t in_flight = 0;
    for (const Node& node : nodes_) in_flight += node.cur.size();
    if (in_flight == 0) return;
    if (hop == max_hops) {
      loop_drops_ += in_flight;
      ReleaseInFlight();
      return;
    }
    for (const u32 d : by_name_) RunDevice(nodes_[d], out);
    ReleaseToOwners(retired_.data(), retired_.size());
    retired_.clear();
    for (Node& node : nodes_) node.cur.swap(node.next);
  }
}

void Network::RunDevice(Node& node, std::vector<Delivery>& out) {
  if (node.cur.empty()) return;
  node.device->pipeline().ProcessStreamBurst(node.cur.data(), node.cur.size());
  for (ArenaPacket*& slot : node.cur) {
    const ArenaPacket& p = *slot;
    if (p.verdict != static_cast<u8>(FilterVerdict::kData) ||
        p.disposition == Disposition::kDrop) {
      Retire(slot);
    } else if (p.disposition == Disposition::kForward) {
      Emit(node, p.egress_port, slot, /*copy=*/false, out);
    } else {
      // Multicast: a replica per port but the last, which takes the
      // buffer itself.  An empty port list drops the packet.
      const std::size_t k = p.multicast_ports.size();
      if (k == 0) Retire(slot);
      for (std::size_t i = 0; i < k; ++i)
        Emit(node, p.multicast_ports[i], slot, /*copy=*/i + 1 < k, out);
    }
  }
  node.cur.clear();
}

void Network::Emit(const Node& node, u16 port, ArenaPacket*& slot, bool copy,
                   std::vector<Delivery>& out) {
  if (port >= node.peers.size() || node.peers[port].device == kNoDevice) {
    // Edge port: the packet leaves the network.
    out.push_back(Delivery{PortRef{node.device->name(), port}, ToPacket(*slot)});
    if (!copy) Retire(slot);
    return;
  }
  const Peer peer = node.peers[port];
  std::vector<ArenaPacket*>& queue = nodes_[peer.device].next;
  queue.push_back(nullptr);
  queue.back() = copy ? Replicate(*slot) : std::exchange(slot, nullptr);
  queue.back()->ingress_port = peer.port;
}

ArenaPacket* Network::Replicate(const ArenaPacket& src) {
  ArenaPacket* copy = arena_->Allocate();  // uncapped: never null
  copy->Assign(src.bytes().bytes());
  return copy;
}

void Network::Retire(ArenaPacket*& slot) {
  retired_.push_back(slot);
  slot = nullptr;
}

void Network::ReleaseInFlight() {
  const auto release = [](std::vector<ArenaPacket*>& queue) {
    for (ArenaPacket* p : queue)
      if (p != nullptr) p->owner()->Release(p);
    queue.clear();
  };
  for (Node& node : nodes_) {
    release(node.cur);
    release(node.next);
  }
  release(retired_);
}

}  // namespace menshen
