#include "common/bytes.hpp"

#include <algorithm>
#include <array>
#include <new>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace menshen {

namespace byte_storage {
namespace {

// Eleven classes, two per octave, up to the 2 KiB ArenaPacket data room.
constexpr std::array<u32, 11> kClassBytes = {64,  96,  128, 192,  256, 384,
                                             512, 768, 1024, 1536, 2048};
static_assert(kClassBytes.back() == kMaxClassBytes);

// Every class bound is a multiple of 32, so (n - 1) / 32 indexes the
// class of an n-byte request (1 <= n <= kMaxClassBytes).
constexpr auto kClassOf = [] {
  std::array<u8, kMaxClassBytes / 32> table{};
  std::size_t k = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    while ((i + 1) * 32 > kClassBytes[k]) ++k;
    table[i] = static_cast<u8>(k);
  }
  return table;
}();

/// Pointers to this thread's idle blocks of one class.
struct ClassStack {
  void** slots = nullptr;
  u32 count = 0;
  u32 capacity = 0;
};

enum class CacheState : u8 { kFresh, kLive, kExited };

/// Trivially destructible, so every access is a plain TLS load; the
/// thread-exit release lives in CacheReaper, registered on the first
/// free a thread caches.
struct ThreadCache {
  std::array<ClassStack, kClassBytes.size()> stacks{};
  std::size_t cached_bytes = 0;
  CacheState state = CacheState::kFresh;
};

constinit thread_local ThreadCache tls_cache;

void Poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

void Unpoison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

struct CacheReaper {
  CacheReaper() = default;
  CacheReaper(const CacheReaper&) = delete;
  CacheReaper& operator=(const CacheReaper&) = delete;
  ~CacheReaper() {
    ThreadCache& c = tls_cache;
    for (std::size_t k = 0; k < c.stacks.size(); ++k) {
      ClassStack& s = c.stacks[k];
      for (u32 i = 0; i < s.count; ++i) {
        Unpoison(s.slots[i], kClassBytes[k]);
        ::operator delete(s.slots[i]);
      }
      ::operator delete(s.slots);
      s = ClassStack{};
    }
    c.cached_bytes = 0;
    c.state = CacheState::kExited;
  }
};

/// Registers this thread's reaper on its first cached free; false once
/// the thread's cache is gone (frees during thread or process exit).
bool GoLive(ThreadCache& c) noexcept {
  if (c.state == CacheState::kExited) return false;
  thread_local CacheReaper reaper;
  (void)reaper;
  c.state = CacheState::kLive;
  return true;
}

/// Doubles a full stack, up to the most blocks of its class the budget
/// admits.  False when the slot array cannot be allocated.
bool Grow(ClassStack& s, std::size_t class_bytes) noexcept {
  const std::size_t cap = std::min<std::size_t>(
      s.capacity == 0 ? 64 : 2 * std::size_t{s.capacity},
      kCacheBudget / class_bytes);
  auto* slots = static_cast<void**>(
      ::operator new(cap * sizeof(void*), std::nothrow));
  if (slots == nullptr) return false;
  std::copy_n(s.slots, s.count, slots);
  ::operator delete(s.slots);
  s.slots = slots;
  s.capacity = static_cast<u32>(cap);
  return true;
}

}  // namespace

void* Allocate(std::size_t n) {
  // n - 1 wraps for n == 0, which takes the uncached path too.
  if (n - 1 >= kMaxClassBytes) return ::operator new(n);
  const std::size_t k = kClassOf[(n - 1) / 32];
  ClassStack& s = tls_cache.stacks[k];
  if (s.count == 0) return ::operator new(kClassBytes[k]);
  void* p = s.slots[--s.count];
  tls_cache.cached_bytes -= kClassBytes[k];
  Unpoison(p, kClassBytes[k]);
  return p;
}

void Release(void* p, std::size_t n) noexcept {
  if (n - 1 >= kMaxClassBytes) {
    ::operator delete(p);
    return;
  }
  const std::size_t k = kClassOf[(n - 1) / 32];
  const std::size_t bytes = kClassBytes[k];
  ThreadCache& c = tls_cache;
  ClassStack& s = c.stacks[k];
  if ((c.state != CacheState::kLive && !GoLive(c)) ||
      c.cached_bytes + bytes > kCacheBudget ||
      (s.count == s.capacity && !Grow(s, bytes))) {
    ::operator delete(p);
    return;
  }
  Poison(p, bytes);
  s.slots[s.count++] = p;
  c.cached_bytes += bytes;
}

std::size_t CachedBytes() noexcept { return tls_cache.cached_bytes; }

}  // namespace byte_storage

void ByteBuffer::ThrowOutOfRange(std::size_t off, std::size_t len,
                                 std::size_t size) {
  throw std::out_of_range("ByteBuffer access out of range: off=" +
                          std::to_string(off) + " len=" +
                          std::to_string(len) + " size=" +
                          std::to_string(size));
}

void ByteBuffer::write_bytes(std::size_t off, std::span<const u8> src) {
  CheckRange(off, src.size());
  std::copy(src.begin(), src.end(), data_.begin() + static_cast<long>(off));
}

std::vector<u8> ByteBuffer::read_bytes(std::size_t off,
                                       std::size_t len) const {
  CheckRange(off, len);
  return {data_.begin() + static_cast<long>(off),
          data_.begin() + static_cast<long>(off + len)};
}

void ByteBuffer::append(std::span<const u8> src) {
  data_.insert(data_.end(), src.begin(), src.end());
}

void ByteBuffer::append_u16(u16 v) {
  data_.push_back(static_cast<u8>(v >> 8));
  data_.push_back(static_cast<u8>(v));
}

void ByteBuffer::append_u32(u32 v) {
  for (int i = 3; i >= 0; --i) data_.push_back(static_cast<u8>(v >> (8 * i)));
}

std::string ByteBuffer::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data_.size() * 2);
  for (u8 b : data_) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

}  // namespace menshen
