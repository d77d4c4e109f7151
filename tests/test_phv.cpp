#include "phv/phv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace menshen {
namespace {

TEST(Phv, Dimensions) {
  // Table 5: 8 containers each of 2/4/6 bytes + 32B metadata = 128 bytes,
  // 25 ALU slots.
  EXPECT_EQ(kPhvBytes, 128u);
  EXPECT_EQ(kNumAluContainers, 25u);
  EXPECT_EQ(kMetadataBytes, 32u);
}

TEST(Phv, FreshPhvIsZero) {
  const Phv phv;
  for (const u8 b : phv.raw()) EXPECT_EQ(b, 0);
}

TEST(Phv, ContainerReadWriteRoundTrip) {
  Phv phv;
  phv.Write({ContainerType::k2B, 3}, 0xBEEF);
  phv.Write({ContainerType::k4B, 0}, 0xDEADBEEF);
  phv.Write({ContainerType::k6B, 7}, 0x0123456789ABULL);
  EXPECT_EQ(phv.Read({ContainerType::k2B, 3}), 0xBEEFu);
  EXPECT_EQ(phv.Read({ContainerType::k4B, 0}), 0xDEADBEEFu);
  EXPECT_EQ(phv.Read({ContainerType::k6B, 7}), 0x0123456789ABULL);
}

TEST(Phv, WriteTruncatesToContainerWidth) {
  Phv phv;
  phv.Write({ContainerType::k2B, 0}, 0x123456);
  EXPECT_EQ(phv.Read({ContainerType::k2B, 0}), 0x3456u);
}

TEST(Phv, ContainersDoNotOverlap) {
  Phv phv;
  // Fill every container with a distinct value, then verify all survive.
  for (u8 t = 0; t < 3; ++t) {
    for (u8 i = 0; i < kContainersPerType; ++i)
      phv.Write({static_cast<ContainerType>(t), i}, t * 8 + i + 1);
  }
  for (u8 t = 0; t < 3; ++t) {
    for (u8 i = 0; i < kContainersPerType; ++i)
      EXPECT_EQ(phv.Read({static_cast<ContainerType>(t), i}),
                static_cast<u64>(t * 8 + i + 1));
  }
}

TEST(Phv, ContainerIndexOutOfRangeThrows) {
  Phv phv;
  EXPECT_THROW((void)phv.Read({ContainerType::k2B, 8}), std::out_of_range);
}

TEST(Phv, MetadataAccessors) {
  Phv phv;
  phv.set_meta_u16(meta::kDstPort, 42);
  phv.set_meta_u32(meta::kLinkUtil, 123456);
  EXPECT_EQ(phv.meta_u16(meta::kDstPort), 42);
  EXPECT_EQ(phv.meta_u32(meta::kLinkUtil), 123456u);
  EXPECT_THROW((void)phv.meta_u32(30), std::out_of_range);
}

TEST(Phv, MetadataDoesNotClobberContainers) {
  Phv phv;
  phv.Write({ContainerType::k6B, 7}, 0xFFFFFFFFFFFFULL);
  phv.set_meta_u8(0, 0xAA);
  EXPECT_EQ(phv.Read({ContainerType::k6B, 7}), 0xFFFFFFFFFFFFULL);
}

TEST(Phv, DiscardFlag) {
  Phv phv;
  EXPECT_FALSE(phv.discard_flag());
  phv.set_discard_flag(true);
  EXPECT_TRUE(phv.discard_flag());
  phv.set_discard_flag(false);
  EXPECT_FALSE(phv.discard_flag());
}

TEST(Phv, ClearEqualsFreshAfterRandomWrites) {
  Rng rng(0x9E7);
  Phv phv;
  const Phv fresh;
  for (int iter = 0; iter < 200; ++iter) {
    for (int k = 0; k < 12; ++k) {
      const ContainerRef c{static_cast<ContainerType>(rng.Below(3)),
                           static_cast<u8>(rng.Below(kContainersPerType))};
      phv.Write(c, rng.Next());
    }
    phv.set_meta_u8(rng.Below(kMetadataBytes), static_cast<u8>(rng.Next()));
    phv.set_meta_u16(rng.Below(kMetadataBytes - 1),
                     static_cast<u16>(rng.Next()));
    phv.set_meta_u32(rng.Below(kMetadataBytes - 3),
                     static_cast<u32>(rng.Next()));
    phv.module_id = ModuleId(static_cast<u16>(1 + rng.Below(0xFFF)));
    ASSERT_FALSE(phv == fresh);
    phv.Clear();
    ASSERT_EQ(phv, fresh);
    for (const u8 b : phv.raw()) ASSERT_EQ(b, 0);
  }
}

TEST(Phv, BytesAreTheObjectsFirst16ByteAlignedMember) {
  // raw() is the object's own address, 16-byte aligned — for a local and
  // for every element of a vector (the burst path's per-lane PHVs).
  const auto check = [](const Phv& phv) {
    const auto* bytes = phv.raw().data();
    EXPECT_EQ(static_cast<const void*>(bytes),
              static_cast<const void*>(&phv));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes) % 16, 0u);
  };
  const Phv local;
  check(local);
  const std::vector<Phv> lanes(64);
  for (const Phv& phv : lanes) check(phv);
  EXPECT_EQ(alignof(Phv), 16u);
}

TEST(ContainerRef, FlatNumbering) {
  EXPECT_EQ((ContainerRef{ContainerType::k2B, 0}).flat(), 0u);
  EXPECT_EQ((ContainerRef{ContainerType::k2B, 7}).flat(), 7u);
  EXPECT_EQ((ContainerRef{ContainerType::k4B, 0}).flat(), 8u);
  EXPECT_EQ((ContainerRef{ContainerType::k6B, 7}).flat(), 23u);
}

TEST(ContainerRef, WidthBytes) {
  EXPECT_EQ((ContainerRef{ContainerType::k2B, 0}).width_bytes(), 2u);
  EXPECT_EQ((ContainerRef{ContainerType::k4B, 0}).width_bytes(), 4u);
  EXPECT_EQ((ContainerRef{ContainerType::k6B, 0}).width_bytes(), 6u);
}

}  // namespace
}  // namespace menshen
