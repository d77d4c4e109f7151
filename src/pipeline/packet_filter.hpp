// Packet filter (sections 3.1, 4.1).
//
// The filter sits in front of the parser and (1) discards packets that
// carry no VLAN tag (so every packet entering the pipeline has a module
// ID); (2) separates reconfiguration packets — identified by the reserved
// UDP destination port 0xF1F2 — from untrusted data packets; (3) holds the
// two AXI-Lite-accessible registers of the secure-reconfiguration
// protocol: a 32-bit bitmap naming the module(s) currently being updated,
// whose data packets are dropped until reconfiguration completes, and a
// 4-byte counter of reconfiguration packets that have traversed the daisy
// chain; and (4) tags each data packet with a packet-buffer number (0-3)
// and a parser number in round-robin order (section 3.2).
#pragma once

#include "packet/packet.hpp"
#include "pipeline/params.hpp"

namespace menshen {

enum class FilterVerdict : u8 {
  kData,       // proceed to a parser
  kReconfig,   // route to the daisy chain
  kDropNoVlan, // no module ID: discarded
  kDropBitmap, // module under reconfiguration: dropped (section 4.1)
};

class PacketFilter {
 public:
  explicit PacketFilter(std::size_t buffers = 1,
                        bool reconfig_on_data_path = true)
      : buffers_(buffers), reconfig_on_data_path_(reconfig_on_data_path) {}

  /// Classifies a packet and, for data packets, assigns buffer/parser
  /// tags.  Templated over the packet representation (Packet for the
  /// batched path, ArenaPacket for the streaming path — both expose
  /// `bytes()` with `.size()`/`.bytes().data()` plus a `buffer_tag`
  /// sideband), so the two paths share one classification and one
  /// round-robin cursor discipline.
  //
  // Per-packet hot path: one bound check covers every header field read
  // below (all offsets are < offsets::kPayload), then direct big-endian
  // loads replace the individually range-checked accessors — and the
  // VLAN test is evaluated once instead of again inside is_reconfig().
  template <typename PacketT>
  FilterVerdict Classify(PacketT& pkt) {
    const auto& buf = pkt.bytes();
    if (buf.size() < offsets::kPayload) {
      ++dropped_no_vlan_;
      return FilterVerdict::kDropNoVlan;
    }
    const u8* d = buf.bytes().data();
    const u16 tpid = static_cast<u16>((u16{d[offsets::kVlanTpid]} << 8) |
                                      d[offsets::kVlanTpid + 1]);
    if (tpid != kEtherTypeVlan) {
      ++dropped_no_vlan_;
      return FilterVerdict::kDropNoVlan;
    }
    if (reconfig_on_data_path_ && d[offsets::kIpv4Proto] == kIpProtoUdp &&
        static_cast<u16>((u16{d[offsets::kL4DstPort]} << 8) |
                         d[offsets::kL4DstPort + 1]) == kReconfigUdpPort) {
      // Corundum connects the daisy chain behind the filter; the reserved
      // UDP destination port separates reconfiguration traffic.  (On the
      // NetFPGA build the chain is fed over PCIe only and data-path
      // packets to the reserved port are just data.)
      return FilterVerdict::kReconfig;
    }
    const ModuleId vid(static_cast<u16>(
        ((u16{d[offsets::kVlanTci]} << 8) | d[offsets::kVlanTci + 1]) &
        0x0FFF));
    if (IsUnderReconfig(vid)) {
      // Drop in-flight packets of a module whose configuration is
      // partially written, so they are never processed by a mix of old
      // and new config.
      ++dropped_bitmap_;
      return FilterVerdict::kDropBitmap;
    }
    // Round-robin buffer/parser assignment without the per-packet integer
    // division a `rr % buffers` would cost (the divisor is a runtime
    // value, so the compiler cannot strength-reduce it).
    pkt.buffer_tag = static_cast<u8>(rr_);
    if (++rr_ == buffers_) rr_ = 0;
    return FilterVerdict::kData;
  }

  // --- AXI-Lite register file (section 4.1) -------------------------------
  [[nodiscard]] u32 bitmap() const { return bitmap_; }
  void set_bitmap(u32 bitmap) { bitmap_ = bitmap; }
  [[nodiscard]] u32 reconfig_packet_counter() const { return counter_; }
  void IncrementReconfigCounter() { ++counter_; }

  /// Convenience used by the control plane: mark one module as under
  /// reconfiguration (bit M of the bitmap).
  void MarkUnderReconfig(ModuleId module, bool under);
  [[nodiscard]] bool IsUnderReconfig(ModuleId module) const {
    return module.value() < 32 &&
           (bitmap_ & (u32{1} << module.value())) != 0;
  }

  // Drop statistics.
  [[nodiscard]] u64 dropped_no_vlan() const { return dropped_no_vlan_; }
  [[nodiscard]] u64 dropped_bitmap() const { return dropped_bitmap_; }

 private:
  std::size_t buffers_;
  bool reconfig_on_data_path_;
  u32 bitmap_ = 0;
  u32 counter_ = 0;
  u64 rr_ = 0;  // round-robin cursor for buffer/parser assignment
  u64 dropped_no_vlan_ = 0;
  u64 dropped_bitmap_ = 0;
};

}  // namespace menshen
