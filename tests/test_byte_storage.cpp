// The per-thread storage cache behind ByteBuffer (common/bytes.hpp): size
// classes, recycling, zero-fill of recycled blocks, the per-thread
// budget, cross-thread frees, thread exit, and a Submit differential
// against ProcessUnplanned while packet storage recycles.  The cache
// tests run on fresh threads so no earlier test's idle blocks interfere.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <future>
#include <optional>
#include <set>
#include <thread>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "dataplane/dataplane.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using byte_storage::CachedBytes;
using byte_storage::kCacheBudget;

// The documented classes: two per octave, 64 B to 2 KiB.
constexpr std::array<std::size_t, 11> kClasses = {
    64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048};

std::size_t ClassOf(std::size_t n) {
  return *std::lower_bound(kClasses.begin(), kClasses.end(), n);
}

template <typename Fn>
void OnFreshThread(Fn fn) {
  std::thread t(fn);
  t.join();
}

const u8* DataOf(const ByteBuffer& b) { return b.bytes().data(); }

TEST(ByteStorage, EverySizeGetsABlockOfItsClassAndReusesIt) {
  OnFreshThread([] {
    for (std::size_t n = 1; n <= byte_storage::kMaxClassBytes; ++n) {
      const u8* block = nullptr;
      std::size_t idle = 0;
      {
        ByteBuffer b(n);
        block = DataOf(b);
        ASSERT_GE(malloc_usable_size(b.bytes().data()), n) << "size " << n;
        std::fill(b.bytes().begin(), b.bytes().end(), u8{0xA5});
        idle = CachedBytes();
      }
      EXPECT_EQ(CachedBytes(), idle + ClassOf(n)) << "size " << n;
      // The freed block is the next one its class hands out, to any size
      // of the class; the next class up hands out a block of its own.
      {
        const ByteBuffer same(n);
        EXPECT_EQ(DataOf(same), block) << "size " << n;
      }
      {
        const ByteBuffer top(ClassOf(n));
        EXPECT_EQ(DataOf(top), block) << "size " << n;
      }
      if (ClassOf(n) < byte_storage::kMaxClassBytes) {
        const ByteBuffer next(ClassOf(n) + 1);
        EXPECT_NE(DataOf(next), block) << "size " << n;
      }
    }
  });
}

TEST(ByteStorage, RecycledBlockReadsZeros) {
  OnFreshThread([] {
    const u8* block = nullptr;
    {
      ByteBuffer dirty(1500);
      std::fill(dirty.bytes().begin(), dirty.bytes().end(), u8{0xFF});
      block = DataOf(dirty);
    }
    {
      ByteBuffer sized(1500);
      EXPECT_EQ(DataOf(sized), block);
      EXPECT_TRUE(std::all_of(sized.bytes().begin(), sized.bytes().end(),
                              [](u8 b) { return b == 0; }));
      std::fill(sized.bytes().begin(), sized.bytes().end(), u8{0xFF});
    }
    ByteBuffer grown;
    grown.resize(1400);
    EXPECT_EQ(DataOf(grown), block);
    EXPECT_TRUE(std::all_of(grown.bytes().begin(), grown.bytes().end(),
                            [](u8 b) { return b == 0; }));
    // Shrinking and growing inside the block zero-fills the regrown tail.
    std::fill(grown.bytes().begin(), grown.bytes().end(), u8{0xFF});
    grown.resize(10);
    grown.resize(1400);
    EXPECT_TRUE(std::all_of(grown.bytes().begin() + 10, grown.bytes().end(),
                            [](u8 b) { return b == 0; }));
  });
}

TEST(ByteStorage, IdleBytesPerThreadStayWithinTheBudget) {
  OnFreshThread([] {
    {
      std::vector<ByteBuffer> bufs;
      for (std::size_t freed = 0; freed < 2 * kCacheBudget; freed += 1500)
        bufs.emplace_back(1500);
    }
    // 1,500 B rounds to the 1,536 B class: the cache fills to the last
    // whole block under 1 MiB and hands the rest to operator delete.
    EXPECT_LE(CachedBytes(), kCacheBudget);
    EXPECT_EQ(CachedBytes(), (kCacheBudget / 1536) * 1536);
  });
}

TEST(ByteStorage, CrossThreadFreeIsReusedByTheFreeingThread) {
  std::optional<ByteBuffer> handed_over;
  OnFreshThread([&] { handed_over.emplace(1500); });
  const u8* block = DataOf(*handed_over);
  OnFreshThread([&] {
    ASSERT_EQ(CachedBytes(), 0u);
    handed_over.reset();
    EXPECT_EQ(CachedBytes(), 1536u);
    const ByteBuffer reused(1500);
    EXPECT_EQ(DataOf(reused), block);
    EXPECT_EQ(CachedBytes(), 0u);
  });
}

/// Destroyed after the cache's own thread-exit release (constructed
/// first, so destroyed last): reads what the exited thread left cached,
/// then frees one more buffer.
struct ExitObserver {
  ExitObserver() = default;
  ExitObserver(const ExitObserver&) = delete;
  ExitObserver& operator=(const ExitObserver&) = delete;
  std::size_t* cached_at_exit = nullptr;
  std::size_t* cached_after_late_free = nullptr;
  std::optional<ByteBuffer> late;
  ~ExitObserver() {
    if (cached_at_exit == nullptr) return;
    *cached_at_exit = CachedBytes();
    late.reset();
    *cached_after_late_free = CachedBytes();
  }
};

TEST(ByteStorage, ThreadExitLeavesNothingCached) {
  std::size_t before_exit = 0;
  std::size_t at_exit = 1;
  std::size_t after_late_free = 1;
  OnFreshThread([&] {
    thread_local ExitObserver observer;
    observer.cached_at_exit = &at_exit;
    observer.cached_after_late_free = &after_late_free;
    observer.late.emplace(96);
    {
      std::vector<ByteBuffer> bufs;
      for (std::size_t n : {96, 576, 1500, 64, 2048}) bufs.emplace_back(n);
    }
    before_exit = CachedBytes();
  });
  EXPECT_EQ(before_exit, 96u + 768 + 1536 + 64 + 2048);
  EXPECT_EQ(at_exit, 0u);
  // A free after the cache is gone goes to operator delete.
  EXPECT_EQ(after_late_free, 0u);
}

TEST(ByteStorage, BuffersOverTheLargestClassBypassTheCache) {
  OnFreshThread([] {
    { const ByteBuffer b(byte_storage::kMaxClassBytes + 1); }
    { const ByteBuffer b(4096); }
    { const ByteBuffer b(64 * 1024); }
    EXPECT_EQ(CachedBytes(), 0u);
    { const ByteBuffer b(byte_storage::kMaxClassBytes); }
    EXPECT_EQ(CachedBytes(), byte_storage::kMaxClassBytes);
  });
}

#if defined(__SANITIZE_ADDRESS__)
// Cached blocks are poisoned: reading a freed packet's bytes is still a
// reported error, not a silent read of the next packet's storage.
TEST(ByteStorageDeathTest, ReadingFreedBytesIsReported) {
  EXPECT_DEATH(
      {
        const u8* freed = nullptr;
        {
          const ByteBuffer b(1500);
          freed = DataOf(b);
        }
        std::printf("%u\n", static_cast<unsigned>(
                                *static_cast<const volatile u8*>(freed)));
      },
      "AddressSanitizer");
}
#endif

// --- Submit differential while storage recycles ------------------------------

Packet SizedRequest(u16 vid, std::size_t bytes, Rng& rng) {
  Packet p = PacketBuilder{}
                 .vid(ModuleId(vid))
                 .udp(10000, vid == 4 ? 40000 : 20000)
                 .frame_size(bytes)
                 .Build();
  if (vid == 4) {
    p.bytes().set_u16(46, apps::kNetChainOpSeq);
  } else {
    p.bytes().set_u16(46, static_cast<u16>(rng.Between(apps::kCalcOpAdd,
                                                       apps::kCalcOpEcho)));
    p.bytes().set_u32(48, static_cast<u32>(rng.Below(1000)));
    p.bytes().set_u32(52, static_cast<u32>(rng.Below(1000)));
  }
  return p;
}

TEST(ByteStorage, SubmitStaysByteEqualToUnplannedWhileStorageRecycles) {
  // A CALC tenant and a stateful NetChain sequencer (whose counter makes
  // any reordering or shared storage visible in the bytes).
  std::vector<CompiledModule> images;
  images.push_back(test::MustCompile(apps::CalcSpec(), test::StandardAlloc(2)));
  ASSERT_TRUE(apps::InstallCalcEntries(images.back(), 11));
  images.push_back(test::MustCompile(
      apps::NetChainSpec(), test::StandardAlloc(4, 8, 8, 32, 32)));
  ASSERT_TRUE(apps::InstallNetChainEntries(images.back(), 13));

  Pipeline ref;
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = true});
  for (const CompiledModule& m : images) {
    for (const ConfigWrite& w : m.AllWrites()) ref.ApplyWrite(w);
    dp.ApplyWrites(m.AllWrites());
  }

  constexpr std::size_t kTickets = 48;
  constexpr std::size_t kPerTicket = 256;
  constexpr std::size_t kInFlight = 3;
  constexpr std::array<std::size_t, 3> kSizes = {96, 576, 1500};
  Rng rng(2201);
  std::set<const u8*> seen;
  std::size_t reused = 0;
  struct InFlight {
    std::future<std::vector<PipelineResult>> fut;
    std::vector<PipelineResult> want;
  };
  std::deque<InFlight> inflight;
  const auto collect = [&] {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const std::vector<PipelineResult> got = f.fut.get();
    ASSERT_EQ(got.size(), f.want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].filter_verdict, f.want[i].filter_verdict) << i;
      ASSERT_EQ(got[i].output.has_value(), f.want[i].output.has_value()) << i;
      if (!got[i].output) continue;
      EXPECT_EQ(got[i].output->bytes().hex(), f.want[i].output->bytes().hex())
          << i;
      EXPECT_EQ(got[i].output->disposition, f.want[i].output->disposition);
      EXPECT_EQ(got[i].output->egress_port, f.want[i].output->egress_port);
    }
  };
  for (std::size_t t = 0; t < kTickets; ++t) {
    if (inflight.size() == kInFlight) collect();
    BatchTicket ticket;
    InFlight f;
    for (std::size_t i = 0; i < kPerTicket; ++i) {
      const u16 vid = rng.Below(2) == 0 ? 2 : 4;
      Packet p = SizedRequest(vid, kSizes[rng.Below(kSizes.size())], rng);
      f.want.push_back(ref.ProcessUnplanned(p));
      // The ticket's copy draws its storage from this thread's cache,
      // which the collected tickets' results refill.
      ticket.batch.push_back(p);
      if (!seen.insert(DataOf(ticket.batch.back().bytes())).second) ++reused;
    }
    f.fut = dp.Submit(std::move(ticket));
    inflight.push_back(std::move(f));
  }
  while (!inflight.empty()) collect();
  EXPECT_GT(reused, kTickets * kPerTicket / 2);
}

}  // namespace
}  // namespace menshen
