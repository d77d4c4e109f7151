// Counter types (common/counters.hpp): SharedCounter stays exact under
// concurrent adders; an owner-written RelaxedCounter never reads as
// decreasing while its one writer races a reader and ends exact; both
// keep their value through copy construction and assignment, since
// pipeline replicas embedding them are built into vectors.  Run under
// TSAN in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/counters.hpp"

namespace menshen {
namespace {

TEST(SharedCounter, ExactUnderConcurrentAdders) {
  constexpr std::size_t kThreads = 4;
  constexpr u64 kAdds = 1'000'000;
  SharedCounter c;
  std::vector<std::thread> adders;
  for (std::size_t t = 0; t < kThreads; ++t)
    adders.emplace_back([&c] {
      for (u64 i = 0; i < kAdds; ++i) c.Add();
    });
  for (std::thread& t : adders) t.join();
  EXPECT_EQ(c.load(), kThreads * kAdds);
}

TEST(RelaxedCounter, OneWriterRacingOneReaderIsMonotoneAndExact) {
  constexpr u64 kAdds = 1'000'000;
  RelaxedCounter c;
  std::atomic<bool> done{false};
  u64 decreases = 0;
  u64 last = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const u64 v = c.load();
      if (v < last) ++decreases;
      last = v;
    }
  });
  // Mixed increments, so a torn or reordered store would show as a
  // value the sequence never held.
  u64 expected = 0;
  for (u64 i = 0; i < kAdds; ++i) {
    const u64 n = 1 + (i & 3);
    c.Add(n);
    expected += n;
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(decreases, 0u);
  EXPECT_LE(last, expected);
  EXPECT_EQ(c.load(), expected);
}

TEST(RelaxedCounter, SubIsTheGaugeInverseOfAdd) {
  RelaxedCounter gauge;
  gauge.Add(10);
  gauge.Sub(4);
  EXPECT_EQ(gauge.load(), 6u);
}

template <typename Counter>
void ExpectCopiesKeepTheValue() {
  Counter a;
  a.Add(41);
  a.Add();
  const Counter copied(a);
  EXPECT_EQ(copied.load(), 42u);
  Counter assigned;
  assigned.Add(7);
  assigned = a;
  EXPECT_EQ(assigned.load(), 42u);
  // Copies are independent: the source keeps counting alone.
  a.Add();
  EXPECT_EQ(a.load(), 43u);
  EXPECT_EQ(copied.load(), 42u);
  // Growing a vector copies (or moves) every element.
  std::vector<Counter> v(1, a);
  for (int i = 0; i < 64; ++i) v.push_back(Counter{});
  EXPECT_EQ(v.front().load(), 43u);
}

TEST(RelaxedCounter, CopyConstructionAndAssignmentKeepTheValue) {
  ExpectCopiesKeepTheValue<RelaxedCounter>();
}

TEST(SharedCounter, CopyConstructionAndAssignmentKeepTheValue) {
  ExpectCopiesKeepTheValue<SharedCounter>();
}

}  // namespace
}  // namespace menshen
