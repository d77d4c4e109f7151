// Inline executors for compiled parse/deparse plans.
//
// The planned byte-move loops and the per-packet metadata/disposition
// epilogues are shared verbatim by every tier of the execution ladder
// (pipeline/pipeline.cpp, the straight-line kernels in
// pipeline/kernels.cpp) and by Parser::ParseIntoPlanned — one
// definition, templated over the packet type, so no two paths can drift
// apart byte-wise.
#pragma once

#include <algorithm>
#include <cstring>

#include "packet/arena.hpp"
#include "packet/packet.hpp"
#include "phv/phv.hpp"
#include "pipeline/exec_plan.hpp"

namespace menshen {

/// Prefetch hint for a packet a few lanes ahead of a burst loop.  An
/// ArenaPacket's byte array is its first member, so one prefetch covers
/// the header line and a second at +kDataRoom the line holding its
/// length and sidebands; a Packet's bytes sit behind its heap ByteBuffer
/// pointer.
inline void PrefetchPacket(const ArenaPacket& pkt) {
  const char* p = reinterpret_cast<const char*>(&pkt);
  __builtin_prefetch(p);
  __builtin_prefetch(p + ArenaPacket::kDataRoom);
}
inline void PrefetchPacket(const Packet& pkt) {
  __builtin_prefetch(pkt.bytes().bytes().data());
}

/// Metadata the pipeline provides on every packet (section 4.3), shared
/// by every parse path.  Templated over the packet representation: the
/// batched API hands Packet, the streaming API hands ArenaPacket —
/// both expose the same size/bytes/sideband surface.
template <typename PacketT>
inline void FillPipelineMetadata(const PacketT& pkt, Phv& phv) {
  phv.set_meta_u16(meta::kSrcPort, pkt.ingress_port);
  phv.set_meta_u16(meta::kPktLen, static_cast<u16>(
                                      std::min<std::size_t>(pkt.size(), 0xFFFF)));
  phv.set_meta_u8(meta::kBufferTag, static_cast<u8>(1u << (pkt.buffer_tag & 3)));
}

/// Disposition epilogue of every deparse path.
template <typename PacketT>
inline void ApplyDisposition(const Phv& phv, PacketT& pkt) {
  if (phv.discard_flag()) {
    pkt.disposition = Disposition::kDrop;
  } else if (!pkt.multicast_ports.empty()) {
    pkt.disposition = Disposition::kMulticast;
  } else {
    pkt.disposition = Disposition::kForward;
    pkt.egress_port = phv.meta_u16(meta::kDstPort);
  }
}

/// Copies exactly one container's bytes — `width` is 2, 4 or 6 — as
/// fixed-size moves (a 6-byte container is a 4-byte plus a 2-byte move),
/// so no planned move becomes a variable-length memcpy call.
inline void MoveContainerBytes(u8* dst, const u8* src, u8 width) {
  if (width == 2) {
    std::memcpy(dst, src, 2);
    return;
  }
  std::memcpy(dst, src, 4);
  if (width == 6) std::memcpy(dst + 4, src + 4, 2);
}

/// Runs a compiled parse plan into `phv`, which the caller guarantees is
/// already all-zero (a freshly constructed Phv, or one Clear()ed).
/// Containers whose parse was pruned stay zero.
template <typename PacketT>
inline void PlannedParseInto(const PacketT& pkt, Phv& phv,
                             const ParsePlan& plan) {
  phv.module_id = pkt.vid();
  FillPipelineMetadata(pkt, phv);

  u8* const dst_base = phv.mutable_raw().data();
  const u8* const src_base = pkt.bytes().bytes().data();
  const std::size_t limit =
      std::min<std::size_t>(kParserWindowBytes, pkt.size());
  for (std::size_t i = 0; i < plan.count; ++i) {
    const PlannedMove& mv = plan.moves[i];
    const std::size_t end = static_cast<std::size_t>(mv.pkt_off) + mv.width;
    if (end <= limit) {
      MoveContainerBytes(dst_base + mv.phv_off, src_base + mv.pkt_off,
                         mv.width);
    } else {
      // Clipped tail: bytes beyond the window/packet read as zero (the
      // PHV is already zeroed).
      for (std::size_t b = 0; b < mv.width; ++b) {
        const std::size_t off = static_cast<std::size_t>(mv.pkt_off) + b;
        if (off < limit) dst_base[mv.phv_off + b] = src_base[off];
      }
    }
  }
}

/// Runs a compiled deparse plan: writes back the surviving moves and
/// applies the PHV's disposition metadata to the packet.
template <typename PacketT>
inline void PlannedDeparseFrom(const Phv& phv, PacketT& pkt,
                               const DeparsePlan& plan) {
  const u8* const src_base = phv.raw().data();
  u8* const dst_base = pkt.bytes().bytes().data();
  const std::size_t limit =
      std::min<std::size_t>(kParserWindowBytes, pkt.size());
  for (std::size_t i = 0; i < plan.count; ++i) {
    const PlannedMove& mv = plan.moves[i];
    const std::size_t end = static_cast<std::size_t>(mv.pkt_off) + mv.width;
    if (end <= limit) {
      MoveContainerBytes(dst_base + mv.pkt_off, src_base + mv.phv_off,
                         mv.width);
    } else {
      for (std::size_t b = 0; b < mv.width; ++b) {
        const std::size_t off = static_cast<std::size_t>(mv.pkt_off) + b;
        if (off < limit) dst_base[off] = src_base[mv.phv_off + b];
      }
    }
  }
  ApplyDisposition(phv, pkt);
}

}  // namespace menshen
