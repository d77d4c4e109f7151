// Multi-device network substrate.
//
// Modules can span several programmable devices (section 3.4: NetChain
// runs on a switch chain; the VID-rewrite static check exists precisely
// because module A's rewrite on one device would select module B's
// configuration on the next).  This substrate wires several Menshen
// pipelines into a topology:
//
//   * a Device is one pipeline with numbered ports;
//   * Links connect (device, port) pairs bidirectionally;
//   * hosts sit on edge ports behind a vSwitch, which stamps the
//     tenant's VLAN ID onto packets entering the network (section 3.1:
//     "the VID ... we assume is set by the vSwitch");
//   * injected packets advance through one run-to-completion hop loop
//     over arena buffers: each hop, every device runs its in-flight
//     packets through Pipeline::ProcessStreamBurst — one call per device
//     per hop, the streaming dataplane's burst call — and each verdict
//     (drop/forward/multicast) moves the buffer pointer onto the next
//     device's queue, until every packet leaves at an edge port or
//     exceeds its hop budget (the runaway guard whose control-plane
//     counterpart is the routing-loop checker).
//
// Links and host ports are resolved to integer device and port indices
// when the topology is built, so the hop loop does no string or map
// work per packet.  A unicast forward moves the buffer pointer; only a
// multicast replica is copied, into a PacketArena the network owns.
// Packets copy in once (InjectBatch and friends) or not at all
// (InjectArena, which Dataplane::FlushEgress feeds its drained egress
// buffers), and copy out once, into each Delivery's Packet.  Every
// buffer goes back to its owning arena when its packet leaves the
// network — delivered, dropped, filtered or out of hop budget — and all
// of them are back before the injection returns, also when it throws.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "packet/arena.hpp"
#include "pipeline/pipeline.hpp"

namespace menshen {

struct PortRef {
  std::string device;
  u16 port = 0;
  bool operator==(const PortRef&) const = default;
  auto operator<=>(const PortRef&) const = default;
};

class Device {
 public:
  explicit Device(std::string name, PipelineTiming timing = OptimizedTiming())
      : name_(std::move(name)), pipeline_(timing) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Pipeline& pipeline() { return pipeline_; }
  [[nodiscard]] const Pipeline& pipeline() const { return pipeline_; }

 private:
  std::string name_;
  Pipeline pipeline_;
};

/// A packet that left the network at an edge port.
struct Delivery {
  PortRef at;
  Packet packet;
};

/// One packet awaiting injection at a host edge port.
struct Injection {
  PortRef port;
  Packet packet;
};

class Network {
 public:
  /// One arena buffer awaiting injection at a host edge port, named by
  /// its FindHost index.
  struct ArenaInjection {
    ArenaPacket* pkt = nullptr;
    u32 host = 0;
  };

  /// Adds a device; the name must be unique.
  Device& AddDevice(const std::string& name,
                    PipelineTiming timing = OptimizedTiming());
  [[nodiscard]] Device& device(const std::string& name);

  /// Connects two ports bidirectionally.  A port can carry one link, and
  /// no link where a host is attached; both devices must exist.
  void Link(const PortRef& a, const PortRef& b);

  /// Declares a host edge port on an existing device: packets injected
  /// there are stamped with `vid` by the vSwitch before entering the
  /// first pipeline — VLAN-tagged ones; any other frame enters unstamped
  /// and the device's packet filter drops it.  The port must not carry a
  /// link.
  void AttachHost(const PortRef& port, ModuleId vid);

  /// The index of the host attached at `port` (the InjectArena handle),
  /// or nullopt — the injection precondition.  Egress bindings
  /// (Dataplane::BindEgressDevice) resolve their port map through this.
  [[nodiscard]] std::optional<u32> FindHost(const PortRef& port) const;

  /// Injects a packet from the host on `port` and walks it through the
  /// network.  Returns every copy that left at an edge port.  Packets
  /// still in flight after `max_hops` devices are dropped and counted in
  /// loop_drops() — the symptom the control-plane loop checker prevents.
  std::vector<Delivery> InjectFromHost(const PortRef& port, Packet packet,
                                       std::size_t max_hops = 8);

  /// Batched injection from one host port: the whole vector advances
  /// together through the hop loop, so every device processes one burst
  /// per hop instead of one packet per call.  Deliveries are ordered by
  /// hop, then by device name, then by arrival order within the device.
  std::vector<Delivery> InjectBatchFromHost(const PortRef& port,
                                            std::vector<Packet> packets,
                                            std::size_t max_hops = 8);

  /// General batched injection: packets may enter at different host
  /// ports.  Same hop-loop semantics and delivery order as above.  Each
  /// packet is copied once into the network's arena; an unknown host
  /// port (std::invalid_argument) or a frame longer than
  /// ArenaPacket::kDataRoom (std::length_error) throws before any packet
  /// of the batch enters.
  std::vector<Delivery> InjectBatch(std::vector<Injection> injections,
                                    std::size_t max_hops = 8);

  /// Zero-copy injection of arena buffers (Dataplane::FlushEgress): the
  /// network takes ownership of every buffer and releases each to its
  /// owner when its packet leaves the network, all before returning.
  /// Consecutive entries may name the same buffer (one packet bound to
  /// several host ports): the first enters as the buffer itself, each
  /// repeat as a copy in the network's arena.  A buffer must not appear
  /// anywhere else in `injections`.  A host index FindHost never
  /// returned throws std::out_of_range, with every buffer released.
  std::vector<Delivery> InjectArena(std::span<const ArenaInjection> injections,
                                    std::size_t max_hops = 8);

  [[nodiscard]] u64 loop_drops() const { return loop_drops_; }

  /// The arena holding copied-in packets and multicast replicas; its
  /// outstanding() is 0 whenever no injection is running.
  [[nodiscard]] const PacketArena& arena() const { return *arena_; }

 private:
  static constexpr u32 kNoDevice = ~u32{0};

  /// Where the link on a port leads; device == kNoDevice on an edge port.
  struct Peer {
    u32 device = kNoDevice;
    u16 port = 0;
  };
  struct Host {
    u32 device = 0;
    u16 port = 0;
    ModuleId vid{0};
  };
  /// One device with its resolved links and its hop-loop queues: `cur`
  /// holds this hop's burst in arrival order, `next` collects the next
  /// hop's arrivals.  Both keep their capacity across hops and calls.
  struct Node {
    std::unique_ptr<Device> device;
    std::vector<Peer> peers;  // indexed by port
    std::vector<ArenaPacket*> cur;
    std::vector<ArenaPacket*> next;
  };

  [[nodiscard]] u32 DeviceIndex(const std::string& name) const;
  [[nodiscard]] bool Linked(u32 device, u16 port) const;
  [[nodiscard]] std::optional<u32> FindHost(u32 device, u16 port) const;

  /// The hop loop over the queued packets.
  void Walk(std::size_t max_hops, std::vector<Delivery>& out);
  /// One device's hop: its burst call, then every verdict routed.
  void RunDevice(Node& node, std::vector<Delivery>& out);
  /// Sends the packet in `slot` out of `port`: delivered at an edge,
  /// queued at the linked device otherwise.  With `copy` a replica goes
  /// and `slot` keeps the buffer; without, the buffer leaves `slot`.
  void Emit(const Node& node, u16 port, ArenaPacket*& slot, bool copy,
            std::vector<Delivery>& out);
  /// A network-arena buffer holding `src`'s bytes.
  [[nodiscard]] ArenaPacket* Replicate(const ArenaPacket& src);
  /// Queues the buffer in `slot` for release at the end of the hop.
  void Retire(ArenaPacket*& slot);
  /// Releases every buffer still queued (budget exhausted, or a throw).
  void ReleaseInFlight();

  std::vector<Node> nodes_;
  std::map<std::string, u32> index_;  // device name -> nodes_ index
  std::vector<u32> by_name_;          // nodes_ indices in name order
  std::vector<Host> hosts_;
  std::unique_ptr<PacketArena> arena_ = std::make_unique<PacketArena>();
  std::vector<ArenaPacket*> retired_;  // released once per hop
  u64 loop_drops_ = 0;
};

}  // namespace menshen
