// Pool-recycled packet arena — the zero-copy substrate of the streaming
// dataplane (dataplane/Dataplane::SubmitStream).
//
// The batched path keeps each packet's bytes behind a heap ByteBuffer
// and materializes a PipelineResult with an optional<Packet> per packet.
// The streaming path replaces that with
// ArenaPacket: a fixed-room, cache-line-aligned buffer owned by a
// PacketArena free list.  Producers allocate bursts, fill bytes in
// place, and enqueue raw pointers; the pipeline parses/deparses through
// in-place views (the templated helpers in pipeline/plan_exec.hpp);
// consumers read the egress bytes and
// release the buffers back to their owning arena — one allocation per
// buffer for the lifetime of the arena, ASAN-clean because the deque
// owns every byte.
//
// Ownership rule: exactly one party owns an ArenaPacket at any time —
// the producer between Allocate and SubmitStream, the dataplane between
// SubmitStream and PollEgress, the consumer between PollEgress and
// Release.  The arena never frees storage while packets are
// outstanding; Release(Burst) hands buffers back for reuse.
//
// The byte array is the FIRST member, followed by the length and the
// sidebands in the one cache line after the data room: prefetching the
// ArenaPacket pointer prefetches the packet's header bytes, and one more
// prefetch at +kDataRoom covers everything else the ladder touches — the
// classify loop's prefetch-ahead needs no dependent pointer chase (a
// Packet must first be loaded, then its heap ByteBuffer pointer
// followed).
//
// The data room is a hard limit: a frame longer than kDataRoom is
// rejected with std::length_error, never clipped — a clipped frame would
// forward silently truncated with a wrong packet-length metadata field.
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <deque>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "packet/headers.hpp"

namespace menshen {

enum class Disposition : u8;  // packet/packet.hpp (full def for users)

class PacketArena;

class ArenaPacket {
 public:
  /// Fixed data room per buffer (one DPDK-style mbuf dataroom): every
  /// frame this simulator generates fits with slack, and the fixed size
  /// keeps buffers interchangeable in the free list.  Longer frames do
  /// not fit and are rejected (see Assign).
  static constexpr std::size_t kDataRoom = 2048;

 private:
  friend class PacketArena;

  // Declared before every other data member: data() is the object's
  // address, and len_ opens the line after the data room.
  alignas(64) std::array<u8, kDataRoom> data_{};
  std::size_t len_ = 0;
  PacketArena* owner_ = nullptr;

 public:
  ArenaPacket() = default;
  ArenaPacket(const ArenaPacket&) = delete;
  ArenaPacket& operator=(const ArenaPacket&) = delete;

  /// In-place byte views, interface-compatible with Packet's
  /// `pkt.bytes()` for the shared hot-path templates (plan_exec.hpp,
  /// PacketFilter::Classify): `.size()` and `.bytes().data()`.
  struct View {
    u8* d = nullptr;
    std::size_t n = 0;
    [[nodiscard]] std::size_t size() const { return n; }
    [[nodiscard]] std::span<u8> bytes() const { return {d, n}; }
  };
  struct ConstView {
    const u8* d = nullptr;
    std::size_t n = 0;
    [[nodiscard]] std::size_t size() const { return n; }
    [[nodiscard]] std::span<const u8> bytes() const { return {d, n}; }
  };

  [[nodiscard]] View bytes() { return View{data_.data(), len_}; }
  [[nodiscard]] ConstView bytes() const { return ConstView{data_.data(), len_}; }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] u8* data() { return data_.data(); }
  [[nodiscard]] const u8* data() const { return data_.data(); }

  /// Copies a frame into the buffer and sets the length.  The
  /// producer-side fill primitive.  Throws std::length_error, leaving
  /// the buffer unchanged, when the frame exceeds kDataRoom.
  void Assign(std::span<const u8> frame) {
    set_size(frame.size());
    // An empty frame may have a null data() (memcpy's source must not).
    if (len_ != 0) std::memcpy(data_.data(), frame.data(), len_);
  }
  void set_size(std::size_t n) {
    if (n > kDataRoom)
      throw std::length_error("ArenaPacket: frame exceeds the 2 KiB data room");
    len_ = n;
  }

  // --- Header accessors the steering/accounting paths need ---------------
  [[nodiscard]] bool has_vlan() const {
    return len_ >= offsets::kPayload &&
           static_cast<u16>((u16{data_[offsets::kVlanTpid]} << 8) |
                            data_[offsets::kVlanTpid + 1]) == kEtherTypeVlan;
  }
  [[nodiscard]] ModuleId vid() const {
    return ModuleId(static_cast<u16>(
        ((u16{data_[offsets::kVlanTci]} << 8) | data_[offsets::kVlanTci + 1]) &
        0x0FFF));
  }
  /// Rewrites the VID, keeping PCP/DEI (the vSwitch stamp).  Requires
  /// has_vlan().
  void set_vid(ModuleId id) {
    const u16 tci = static_cast<u16>(((data_[offsets::kVlanTci] & 0xF0) << 8) |
                                     id.value());
    data_[offsets::kVlanTci] = static_cast<u8>(tci >> 8);
    data_[offsets::kVlanTci + 1] = static_cast<u8>(tci);
  }

  // --- Sidebands (same contract as Packet's) ------------------------------
  u16 ingress_port = 0;
  Disposition disposition{};  // kForward (0) until the pipeline decides
  u16 egress_port = 0;
  std::vector<u16> multicast_ports;
  u8 buffer_tag = 0;
  /// FilterVerdict (as u8 — packet/ sits below pipeline/) the streaming
  /// pipeline assigned; 0 = kData.  Consumers route on it: only kData
  /// packets carry a pipeline disposition.
  u8 verdict = 0;
  /// Execution-ladder tier (common/exec_tier.hpp ExecTier as u8) that
  /// resolved this packet, and the stages/steps that tier visited —
  /// telemetry sidebands the streaming pipeline fills.
  u8 exec_tier = 0;
  u8 exec_steps = 0;
  /// TSC stamp taken by SubmitStream at ingress (one read per burst);
  /// the shard worker subtracts it at completion for the streaming
  /// latency histograms.  0 when histograms are disabled.
  u64 ingress_tsc = 0;

  [[nodiscard]] PacketArena* owner() const { return owner_; }
};

/// Free-list arena of ArenaPackets.  Thread-safe: any thread may
/// allocate or release (the burst APIs take the lock once per burst,
/// not per packet).  Storage is a deque, so buffer addresses are stable
/// forever and the arena's destructor is the single point of
/// deallocation — a leaked buffer is a held-pointer bug, not lost
/// memory, and `outstanding()` makes it testable.
class PacketArena {
 public:
  /// `max_packets` caps the number of buffers ever created; 0 means
  /// unbounded.  A capped arena returns nullptr / a short burst when
  /// every buffer is outstanding — natural end-to-end flow control for
  /// streaming producers (allocate fails until egress is consumed).
  explicit PacketArena(std::size_t max_packets = 0)
      : max_packets_(max_packets) {}

  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  /// One buffer, metadata reset; nullptr when the cap is exhausted.
  [[nodiscard]] ArenaPacket* Allocate();
  /// Up to `n` buffers into `out`; returns how many were allocated
  /// (short only when the cap is exhausted).
  std::size_t AllocateBurst(ArenaPacket** out, std::size_t n);

  /// Returns buffers to the free list.  Each packet must be owned by
  /// THIS arena; use ReleaseToOwners for mixed-origin spans.
  void Release(ArenaPacket* pkt);
  void ReleaseBurst(ArenaPacket* const* pkts, std::size_t n);

  /// Buffers ever created (== high-water mark of concurrent ownership).
  [[nodiscard]] std::size_t capacity() const;
  /// Buffers currently outside the free list.  0 after every consumer
  /// released — the arena leak check.
  [[nodiscard]] std::size_t outstanding() const;
  [[nodiscard]] u64 allocations() const;
  /// Allocations served by recycling a previously released buffer.
  [[nodiscard]] u64 recycles() const;

 private:
  mutable std::mutex m_;
  std::deque<ArenaPacket> storage_;
  std::vector<ArenaPacket*> free_;
  std::size_t max_packets_;
  std::size_t outstanding_ = 0;
  u64 allocations_ = 0;
  u64 recycles_ = 0;
};

/// Releases a span of packets that may come from different arenas
/// (a consumer draining a shared egress queue holds buffers from every
/// producer): groups consecutive same-owner runs so the per-arena lock
/// is taken once per run, not per packet.
void ReleaseToOwners(ArenaPacket* const* pkts, std::size_t n);

}  // namespace menshen
