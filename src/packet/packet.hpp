// Packet representation for the Menshen simulator.
//
// A Packet owns its bytes plus simulation metadata that real hardware would
// carry on sidebands: arrival timestamp, ingress port, and what the
// pipeline assigns (filter verdict, forward to port / drop, the execution
// tier) — the same sideband set as the streaming ArenaPacket, so one
// templated execution ladder serves both.  Header fields are accessed
// through typed accessors at the fixed offsets of a VLAN-tagged IPv4 packet
// (see headers.hpp).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "packet/headers.hpp"

namespace menshen {

/// Egress disposition assigned by the pipeline.
enum class Disposition : u8 {
  kForward,   // send out of egress port in metadata
  kDrop,      // discarded (ALU `discard`, filter drop, or reconfig bitmap)
  kMulticast, // replicate to the ports in `multicast_ports`
};

class Packet {
 public:
  Packet() = default;
  explicit Packet(ByteBuffer bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] const ByteBuffer& bytes() const { return bytes_; }
  [[nodiscard]] ByteBuffer& bytes() { return bytes_; }

  // --- Common header accessors -------------------------------------------
  [[nodiscard]] bool has_vlan() const {
    return bytes_.size() >= offsets::kPayload &&
           bytes_.u16_at(offsets::kVlanTpid) == kEtherTypeVlan;
  }
  [[nodiscard]] ModuleId vid() const {
    return ModuleId(bytes_.u16_at(offsets::kVlanTci) & 0x0FFF);
  }
  void set_vid(ModuleId id) {
    const u16 tci = bytes_.u16_at(offsets::kVlanTci);
    bytes_.set_u16(offsets::kVlanTci,
                   static_cast<u16>((tci & 0xF000) | id.value()));
  }

  [[nodiscard]] u32 ipv4_src() const { return bytes_.u32_at(offsets::kIpv4Src); }
  [[nodiscard]] u32 ipv4_dst() const { return bytes_.u32_at(offsets::kIpv4Dst); }
  void set_ipv4_src(u32 v) { bytes_.set_u32(offsets::kIpv4Src, v); }
  void set_ipv4_dst(u32 v) { bytes_.set_u32(offsets::kIpv4Dst, v); }
  [[nodiscard]] u8 ip_proto() const { return bytes_.u8_at(offsets::kIpv4Proto); }

  [[nodiscard]] u16 l4_src_port() const {
    return bytes_.u16_at(offsets::kL4SrcPort);
  }
  [[nodiscard]] u16 l4_dst_port() const {
    return bytes_.u16_at(offsets::kL4DstPort);
  }
  void set_l4_dst_port(u16 v) { bytes_.set_u16(offsets::kL4DstPort, v); }

  [[nodiscard]] bool is_reconfig() const {
    return has_vlan() && ip_proto() == kIpProtoUdp &&
           l4_dst_port() == kReconfigUdpPort;
  }

  // --- Simulation metadata -----------------------------------------------
  Cycle arrival_cycle = 0;
  u16 ingress_port = 0;
  Disposition disposition = Disposition::kForward;
  u16 egress_port = 0;
  std::vector<u16> multicast_ports;
  /// Cycle at which the deparser emitted the packet (set by the pipeline).
  Cycle departure_cycle = 0;
  /// Packet-buffer tag assigned by the packet filter (0-3, section 3.2).
  u8 buffer_tag = 0;
  /// FilterVerdict (as u8 — packet/ sits below pipeline/) the planned
  /// pipeline assigned; 0 = kData.  Only kData packets carry a pipeline
  /// disposition.
  u8 verdict = 0;
  /// Execution-ladder tier (common/exec_tier.hpp ExecTier as u8) that
  /// resolved this packet, and the stages/steps that tier visited.
  u8 exec_tier = 0;
  u8 exec_steps = 0;
  /// TSC stamp taken by Dataplane::Submit at ingress (one read per
  /// ticket), the same sideband as ArenaPacket's; the shard executor
  /// subtracts it at completion for the latency histograms.  0 when
  /// telemetry is disabled.
  u64 ingress_tsc = 0;

  bool operator==(const Packet& other) const {
    return bytes_ == other.bytes_;
  }

 private:
  ByteBuffer bytes_;
};

/// Fluent builder for VLAN-tagged IPv4/UDP test and workload packets.
class PacketBuilder {
 public:
  PacketBuilder& vid(ModuleId id) {
    vid_ = id;
    return *this;
  }
  PacketBuilder& eth(u64 src, u64 dst) {
    eth_src_ = src;
    eth_dst_ = dst;
    return *this;
  }
  PacketBuilder& ipv4(u32 src, u32 dst) {
    ip_src_ = src;
    ip_dst_ = dst;
    return *this;
  }
  PacketBuilder& proto(u8 p) {
    ip_proto_ = p;
    return *this;
  }
  PacketBuilder& udp(u16 src_port, u16 dst_port) {
    ip_proto_ = kIpProtoUdp;
    sport_ = src_port;
    dport_ = dst_port;
    return *this;
  }
  PacketBuilder& tcp(u16 src_port, u16 dst_port) {
    ip_proto_ = kIpProtoTcp;
    sport_ = src_port;
    dport_ = dst_port;
    return *this;
  }
  PacketBuilder& payload(std::vector<u8> bytes) {
    payload_ = std::move(bytes);
    return *this;
  }
  /// Pads (with zeros) or leaves the packet so its total size is `bytes`.
  PacketBuilder& frame_size(std::size_t bytes) {
    frame_size_ = bytes;
    return *this;
  }

  [[nodiscard]] Packet Build() const;

 private:
  ModuleId vid_{2};
  u64 eth_src_ = 0x0200'0000'0001;
  u64 eth_dst_ = 0x0200'0000'0002;
  u32 ip_src_ = 0x0A000001;  // 10.0.0.1
  u32 ip_dst_ = 0x0A000002;  // 10.0.0.2
  u8 ip_proto_ = kIpProtoUdp;
  u16 sport_ = 10000;
  u16 dport_ = 20000;
  std::vector<u8> payload_;
  std::optional<std::size_t> frame_size_;
};

}  // namespace menshen
