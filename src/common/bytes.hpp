// Byte-buffer utilities: network-order readers/writers over contiguous
// byte storage.  All multi-byte packet fields in this codebase are
// big-endian (network order), matching what the hardware parser sees.
//
// A ByteBuffer's storage comes from a per-thread cache of freed blocks
// (byte_storage below), the software counterpart of the fixed packet
// buffers Menshen's packet filter parks data packets in (section 3.2):
// building and destroying a Packet costs a stack pop and a push instead
// of a trip through the general-purpose allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace menshen {

/// Per-thread cache of freed byte storage, modelled on the per-core
/// buffer cache of a DPDK mempool.  Requests up to kMaxClassBytes are
/// rounded up to one of eleven size classes (two per octave, 64 B to the
/// 2 KiB ArenaPacket data room); each class keeps a stack of pointers to
/// freed blocks, and a free never writes into the freed block (the
/// worker that deparsed the packet may still hold its lines).  A thread
/// keeps at most kCacheBudget bytes of idle blocks (class-rounded):
/// larger requests, and frees past the budget or after the thread's
/// cache is gone, go straight to operator new/delete.  A thread's blocks
/// are released when it exits.  Storage freed on another thread than
/// the one that allocated it is reused by the freeing thread.  Under
/// AddressSanitizer cached blocks are poisoned, so a use after free is
/// still reported.
namespace byte_storage {

inline constexpr std::size_t kMaxClassBytes = 2048;
inline constexpr std::size_t kCacheBudget = std::size_t{1} << 20;

/// A block of at least `n` bytes, from this thread's cache when its
/// class has one.
[[nodiscard]] void* Allocate(std::size_t n);
/// Returns a block Allocate(n) handed out (on any thread).
void Release(void* p, std::size_t n) noexcept;
/// Bytes (class-rounded) of idle blocks this thread's cache holds.
[[nodiscard]] std::size_t CachedBytes() noexcept;

}  // namespace byte_storage

/// Stateless allocator over byte_storage: every instance is equal, so
/// moving a ByteBuffer (and the Packet around it) steals its storage.
template <typename T>
struct ByteStorageAllocator {
  using value_type = T;
  using is_always_equal = std::true_type;

  ByteStorageAllocator() = default;
  template <typename U>
  ByteStorageAllocator(const ByteStorageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(byte_storage::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    byte_storage::Release(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const ByteStorageAllocator<U>&) const noexcept {
    return true;
  }
};

/// Growable byte buffer with bounds-checked big-endian accessors.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  /// `size` zero bytes (recycled storage included).
  explicit ByteBuffer(std::size_t size) : data_(size, 0) {}
  /// A copy of `bytes` (a std::vector<u8> converts).
  explicit ByteBuffer(std::span<const u8> bytes)
      : data_(bytes.begin(), bytes.end()) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  void resize(std::size_t n) { data_.resize(n, 0); }

  [[nodiscard]] std::span<const u8> bytes() const { return data_; }
  [[nodiscard]] std::span<u8> bytes() { return data_; }

  [[nodiscard]] u8 u8_at(std::size_t off) const {
    CheckRange(off, 1);
    return data_[off];
  }
  [[nodiscard]] u16 u16_at(std::size_t off) const {
    CheckRange(off, 2);
    return static_cast<u16>((data_[off] << 8) | data_[off + 1]);
  }
  [[nodiscard]] u32 u32_at(std::size_t off) const {
    CheckRange(off, 4);
    return (static_cast<u32>(data_[off]) << 24) |
           (static_cast<u32>(data_[off + 1]) << 16) |
           (static_cast<u32>(data_[off + 2]) << 8) |
           static_cast<u32>(data_[off + 3]);
  }
  [[nodiscard]] u64 u48_at(std::size_t off) const {
    CheckRange(off, 6);
    u64 v = 0;
    for (std::size_t i = 0; i < 6; ++i) v = (v << 8) | data_[off + i];
    return v;
  }

  void set_u8(std::size_t off, u8 v) {
    CheckRange(off, 1);
    data_[off] = v;
  }
  void set_u16(std::size_t off, u16 v) {
    CheckRange(off, 2);
    data_[off] = static_cast<u8>(v >> 8);
    data_[off + 1] = static_cast<u8>(v);
  }
  void set_u32(std::size_t off, u32 v) {
    CheckRange(off, 4);
    for (std::size_t i = 0; i < 4; ++i)
      data_[off + i] = static_cast<u8>(v >> (8 * (3 - i)));
  }
  void set_u48(std::size_t off, u64 v) {
    CheckRange(off, 6);
    for (std::size_t i = 0; i < 6; ++i)
      data_[off + i] = static_cast<u8>(v >> (8 * (5 - i)));
  }

  /// Copies `src` into the buffer starting at `off` (bounds-checked).
  void write_bytes(std::size_t off, std::span<const u8> src);

  /// Reads `len` bytes starting at `off` (bounds-checked).
  [[nodiscard]] std::vector<u8> read_bytes(std::size_t off,
                                           std::size_t len) const;

  /// Appends raw bytes at the end.
  void append(std::span<const u8> src);
  void append_u8(u8 v) { data_.push_back(v); }
  void append_u16(u16 v);
  void append_u32(u32 v);

  [[nodiscard]] std::string hex() const;

  bool operator==(const ByteBuffer&) const = default;

 private:
  // The compare inlines into every accessor; the throw (which formats
  // its message) stays out of line, off the packet loops.
  void CheckRange(std::size_t off, std::size_t len) const {
    if (off + len > data_.size()) [[unlikely]]
      ThrowOutOfRange(off, len, data_.size());
  }
  [[noreturn, gnu::cold]] static void ThrowOutOfRange(std::size_t off,
                                                      std::size_t len,
                                                      std::size_t size);

  std::vector<u8, ByteStorageAllocator<u8>> data_;
};

}  // namespace menshen
