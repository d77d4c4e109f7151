// Packet Header Vector (PHV).
//
// Per Table 5 of the paper: three container types of 2, 4 and 6 bytes with
// 8 containers each, plus one 32-byte container for platform-specific
// metadata — 8*(2+4+6) + 32 = 128 bytes, 25 containers total.  The PHV is
// zeroed for every incoming packet so no contents can leak from one
// module's packet to the next (section 4.1).
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace menshen {

enum class ContainerType : u8 { k2B = 0, k4B = 1, k6B = 2 };

inline constexpr std::size_t kContainersPerType = 8;
inline constexpr std::size_t kMetadataBytes = 32;
inline constexpr std::size_t kPhvBytes =
    kContainersPerType * (2 + 4 + 6) + kMetadataBytes;  // 128
inline constexpr std::size_t kNumAluContainers =
    3 * kContainersPerType + 1;  // 25: one ALU per container (section 3.1)

[[nodiscard]] constexpr std::size_t ContainerWidthBytes(ContainerType t) {
  switch (t) {
    case ContainerType::k2B:
      return 2;
    case ContainerType::k4B:
      return 4;
    case ContainerType::k6B:
      return 6;
  }
  return 0;
}

/// Identifies one PHV container: a type and an index 0-7.
struct ContainerRef {
  ContainerType type = ContainerType::k2B;
  u8 index = 0;

  [[nodiscard]] std::size_t width_bytes() const {
    return ContainerWidthBytes(type);
  }

  /// Flat container number 0-23 (2B: 0-7, 4B: 8-15, 6B: 16-23), used to
  /// index the 25-wide VLIW action word (slot 24 is the metadata ALU).
  [[nodiscard]] std::size_t flat() const {
    return static_cast<std::size_t>(type) * kContainersPerType + index;
  }

  [[nodiscard]] std::string ToString() const;

  bool operator==(const ContainerRef&) const = default;
  auto operator<=>(const ContainerRef&) const = default;
};

/// Well-known metadata layout within the 32-byte metadata container.
/// The first fields mirror what the paper inserts on its platforms: a
/// discard flag, source/destination port, packet length and a one-hot
/// packet-buffer tag (section 4.3).  The remaining words carry the
/// system-level statistics that the system module exposes read-only to
/// tenant modules (section 3.3).
namespace meta {
inline constexpr std::size_t kFlags = 0;        // bit0 = discard
inline constexpr std::size_t kSrcPort = 1;      // u16
inline constexpr std::size_t kDstPort = 3;      // u16
inline constexpr std::size_t kPktLen = 5;       // u16
inline constexpr std::size_t kBufferTag = 7;    // u8, one-hot 4 bits
inline constexpr std::size_t kEnqueueTs = 8;    // u32, set by traffic manager
inline constexpr std::size_t kQueueDelay = 12;  // u32
inline constexpr std::size_t kLinkUtil = 16;    // u32, system statistic
inline constexpr std::size_t kQueueLen = 20;    // u32, system statistic
inline constexpr std::size_t kMulticastGroup = 24;  // u16
inline constexpr std::size_t kUser = 26;        // scratch, u16 x3
}  // namespace meta

class Phv {
  // The 128 PHV bytes are the first member, 16-byte aligned: raw() is the
  // object's own address, Clear() is aligned 16-byte stores, and every
  // planned move or compiled ALU slot addresses a fixed offset from it.
  alignas(16) std::array<u8, kPhvBytes> bytes_;

 public:
  /// A fresh PHV is all zeroes (isolation requirement, section 4.1).
  Phv() { Clear(); }

  /// Re-zeroes the PHV in place so one buffer can be reused across the
  /// packets of a batch without weakening the isolation guarantee: a
  /// cleared PHV is indistinguishable from a freshly constructed one.
  /// Eight aligned 16-byte stores: GCC lowers `bytes_.fill(0)` (and a
  /// plain zeroing loop, via memset) to `rep stosq`, which costs several
  /// times as much on a 128-byte object.
  void Clear() {
    using Lane = u64 __attribute__((vector_size(16), may_alias));
    Lane* const lanes = reinterpret_cast<Lane*>(bytes_.data());
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kPhvBytes / sizeof(Lane); ++i)
      lanes[i] = Lane{};
    module_id = ModuleId(0);
  }

  // Container and metadata accessors are defined inline below: they are
  // the innermost operations of the per-packet hot path (every parser
  // action, key-extractor slot and ALU slot goes through them).

  /// Reads a container as an unsigned big-endian value (2/4/6 bytes).
  /// Dispatching on the width keeps each arm a fixed-width load the
  /// compiler turns into one (or two) byte-swapped moves instead of a
  /// variable-bound byte loop — this is the innermost read of every
  /// key-extractor slot.
  [[nodiscard]] u64 Read(ContainerRef c) const {
    return LoadField(bytes_.data() + ContainerOffset(c),
                     static_cast<u8>(c.width_bytes()));
  }
  void Write(ContainerRef c, u64 value) {
    StoreField(bytes_.data() + ContainerOffset(c),
               static_cast<u8>(c.width_bytes()), value);
  }

  /// The same big-endian access on a raw PHV field of `width` 2, 4 or 6
  /// bytes (a container, or a u16 metadata word) — the form the
  /// compiled ALU slots run from, with the offset and width resolved
  /// when the plan was built.  Stores truncate to the width, as
  /// hardware would.
  [[nodiscard]] static u64 LoadField(const u8* p, u8 width) {
    switch (width) {
      case 2:
        return LoadBe<2>(p);
      case 4:
        return LoadBe<4>(p);
      default:
        return (LoadBe<4>(p) << 16) | LoadBe<2>(p + 4);
    }
  }
  static void StoreField(u8* p, u8 width, u64 value) {
    switch (width) {
      case 2:
        StoreBe<2>(p, value);
        return;
      case 4:
        StoreBe<4>(p, value);
        return;
      default:
        StoreBe<4>(p, value >> 16);
        StoreBe<2>(p + 4, value);
        return;
    }
  }

  /// Raw byte access to a container for parser/deparser data movement.
  [[nodiscard]] std::span<const u8> ContainerBytes(ContainerRef c) const {
    return {bytes_.data() + ContainerOffset(c), c.width_bytes()};
  }
  [[nodiscard]] std::span<u8> ContainerBytes(ContainerRef c) {
    return {bytes_.data() + ContainerOffset(c), c.width_bytes()};
  }

  // Metadata accessors (offsets from the meta namespace).
  [[nodiscard]] u8 meta_u8(std::size_t off) const {
    CheckMeta(off, 1);
    return bytes_[kMetaBase + off];
  }
  [[nodiscard]] u16 meta_u16(std::size_t off) const {
    CheckMeta(off, 2);
    return static_cast<u16>((bytes_[kMetaBase + off] << 8) |
                            bytes_[kMetaBase + off + 1]);
  }
  [[nodiscard]] u32 meta_u32(std::size_t off) const {
    CheckMeta(off, 4);
    u32 v = 0;
    for (std::size_t i = 0; i < 4; ++i)
      v = (v << 8) | bytes_[kMetaBase + off + i];
    return v;
  }
  void set_meta_u8(std::size_t off, u8 v) {
    CheckMeta(off, 1);
    bytes_[kMetaBase + off] = v;
  }
  void set_meta_u16(std::size_t off, u16 v) {
    CheckMeta(off, 2);
    bytes_[kMetaBase + off] = static_cast<u8>(v >> 8);
    bytes_[kMetaBase + off + 1] = static_cast<u8>(v);
  }
  void set_meta_u32(std::size_t off, u32 v) {
    CheckMeta(off, 4);
    for (std::size_t i = 0; i < 4; ++i)
      bytes_[kMetaBase + off + i] = static_cast<u8>(v >> (8 * (3 - i)));
  }

  [[nodiscard]] bool discard_flag() const {
    return (meta_u8(meta::kFlags) & 1) != 0;
  }
  void set_discard_flag(bool v) {
    set_meta_u8(meta::kFlags, static_cast<u8>((meta_u8(meta::kFlags) & ~1u) |
                                              (v ? 1u : 0u)));
  }

  [[nodiscard]] std::span<const u8> raw() const { return bytes_; }
  /// Mutable raw view for the compiled parse/deparse plans and ALU
  /// slots, which address bytes by precomputed offsets (ByteOffsetOf)
  /// instead of per-action container dispatch.
  [[nodiscard]] std::span<u8> mutable_raw() { return bytes_; }

  /// Byte offset of a container within the PHV — the compile-time form
  /// of ContainerBytes, used by the execution-plan compiler.
  [[nodiscard]] static std::size_t ByteOffsetOf(ContainerRef c) {
    if (c.index >= kContainersPerType)
      throw std::out_of_range("PHV container index out of range");
    // Layout: 8 x 2B, then 8 x 4B, then 8 x 6B, then 32B metadata.
    switch (c.type) {
      case ContainerType::k2B:
        return c.index * 2;
      case ContainerType::k4B:
        return kContainersPerType * 2 + c.index * 4;
      case ContainerType::k6B:
        return kContainersPerType * (2 + 4) + c.index * 6;
    }
    throw std::invalid_argument("bad container type");
  }

  /// The module ID travels alongside the PHV (split from it by the
  /// "masking RAM read latency" optimization, section 3.2, but logically
  /// part of the per-packet state).
  ModuleId module_id{0};

  bool operator==(const Phv& other) const {
    return bytes_ == other.bytes_ && module_id == other.module_id;
  }

  /// Byte offset of the 32-byte metadata container (it follows the 24
  /// data containers); meta:: offsets are relative to it.
  static constexpr std::size_t kMetaBase = kContainersPerType * (2 + 4 + 6);

 private:
  /// Fixed-width big-endian load/store primitives (W in {2, 4}).
  template <std::size_t W>
  [[nodiscard]] static u64 LoadBe(const u8* p) {
    if constexpr (W == 2) {
      u16 v;
      std::memcpy(&v, p, 2);
      return __builtin_bswap16(v);
    } else {
      u32 v;
      std::memcpy(&v, p, 4);
      return __builtin_bswap32(v);
    }
  }
  template <std::size_t W>
  static void StoreBe(u8* p, u64 value) {
    if constexpr (W == 2) {
      const u16 v = __builtin_bswap16(static_cast<u16>(value));
      std::memcpy(p, &v, 2);
    } else {
      const u32 v = __builtin_bswap32(static_cast<u32>(value));
      std::memcpy(p, &v, 4);
    }
  }

  [[nodiscard]] std::size_t ContainerOffset(ContainerRef c) const {
    return ByteOffsetOf(c);
  }

  // Always inlined: every caller passes constants, so the check folds
  // away instead of becoming a call in the ladder's large loops.
  [[gnu::always_inline]] static void CheckMeta(std::size_t off,
                                               std::size_t len) {
    if (off + len > kMetadataBytes)
      throw std::out_of_range("PHV metadata access out of range");
  }
};

}  // namespace menshen
