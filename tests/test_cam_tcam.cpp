#include <gtest/gtest.h>

#include "linear_scan.hpp"
#include "pipeline/exact_match.hpp"
#include "pipeline/tcam.hpp"

namespace menshen {
namespace {

BitVec Key(u64 low_bits) { return BitVec::FromValue(params::kKeyBits, low_bits); }

CamEntry Entry(u64 key, u16 module) {
  CamEntry e;
  e.valid = true;
  e.key = Key(key);
  e.module = ModuleId(module);
  return e;
}

TEST(ExactMatchCam, HitAndMiss) {
  ExactMatchCam cam;
  cam.Write(5, Entry(0xAB, 1));
  EXPECT_EQ(cam.Lookup(Key(0xAB), ModuleId(1)), 5u);
  EXPECT_EQ(cam.Lookup(Key(0xAC), ModuleId(1)), std::nullopt);
  EXPECT_EQ(cam.hits(), 1u);
  EXPECT_EQ(cam.lookups(), 2u);
}

TEST(ExactMatchCam, ModuleIdIsPartOfTheMatch) {
  // Isolation: identical key bits, different owners — each module only
  // ever hits its own entry.
  ExactMatchCam cam;
  cam.Write(0, Entry(0x77, 1));
  cam.Write(1, Entry(0x77, 2));
  EXPECT_EQ(cam.Lookup(Key(0x77), ModuleId(1)), 0u);
  EXPECT_EQ(cam.Lookup(Key(0x77), ModuleId(2)), 1u);
  EXPECT_EQ(cam.Lookup(Key(0x77), ModuleId(3)), std::nullopt);
}

TEST(ExactMatchCam, InvalidEntriesNeverMatch) {
  ExactMatchCam cam;
  CamEntry e = Entry(0x1, 1);
  e.valid = false;
  cam.Write(0, e);
  EXPECT_EQ(cam.Lookup(Key(0x1), ModuleId(1)), std::nullopt);
}

TEST(ExactMatchCam, WrongKeyWidthThrows) {
  ExactMatchCam cam;
  EXPECT_THROW((void)cam.Lookup(BitVec(192), ModuleId(0)),
               std::invalid_argument);
}

TEST(ExactMatchCam, CountForModule) {
  ExactMatchCam cam;
  cam.Write(0, Entry(1, 4));
  cam.Write(1, Entry(2, 4));
  cam.Write(2, Entry(3, 9));
  EXPECT_EQ(cam.CountForModule(ModuleId(4)), 2u);
  EXPECT_EQ(cam.CountForModule(ModuleId(9)), 1u);
  EXPECT_EQ(cam.CountForModule(ModuleId(1)), 0u);
}

TEST(ExactMatchCam, DepthBoundsChecked) {
  ExactMatchCam cam;
  EXPECT_EQ(cam.depth(), params::kCamDepth);
  EXPECT_THROW(cam.Write(16, Entry(0, 0)), std::out_of_range);
  EXPECT_THROW((void)cam.At(16), std::out_of_range);
}

// --- Ternary CAM (Appendix B) -------------------------------------------------

TcamEntry Ternary(u64 key, u64 mask, u16 module) {
  TcamEntry e;
  e.valid = true;
  e.key = Key(key);
  e.mask = BitVec::FromValue(params::kKeyBits, mask);
  e.module = ModuleId(module);
  return e;
}

TEST(TernaryCam, WildcardBitsIgnored) {
  TernaryCam tcam;
  tcam.Write(0, Ternary(0xA0, 0xF0, 1));  // match high nibble only
  EXPECT_EQ(tcam.Lookup(Key(0xA5), ModuleId(1)), 0u);
  EXPECT_EQ(tcam.Lookup(Key(0xAF), ModuleId(1)), 0u);
  EXPECT_EQ(tcam.Lookup(Key(0xB5), ModuleId(1)), std::nullopt);
}

TEST(TernaryCam, LowestAddressWins) {
  // The Xilinx CAM IP resolves multi-match by address priority.
  TernaryCam tcam;
  tcam.Write(2, Ternary(0x00, 0x00, 1));  // match-all (lower priority)
  tcam.Write(1, Ternary(0xA0, 0xF0, 1));  // more specific, lower address
  EXPECT_EQ(tcam.Lookup(Key(0xA1), ModuleId(1)), 1u);
  EXPECT_EQ(tcam.Lookup(Key(0x01), ModuleId(1)), 2u);
}

TEST(TernaryCam, ModuleIdAppendedToTernaryRules) {
  TernaryCam tcam;
  tcam.Write(0, Ternary(0x00, 0x00, 1));  // module 1 match-all
  EXPECT_EQ(tcam.Lookup(Key(0x42), ModuleId(2)), std::nullopt);
}

TEST(ExactMatchCam, ShadowIndexTracksOverwrites) {
  // The hash shadow must follow every mutation of the stored entries:
  // overwriting an address with a new key forgets the old mapping.
  ExactMatchCam cam;
  cam.Write(3, Entry(0x10, 1));
  EXPECT_EQ(cam.Lookup(Key(0x10), ModuleId(1)), 3u);
  cam.Write(3, Entry(0x20, 1));
  EXPECT_EQ(cam.Lookup(Key(0x10), ModuleId(1)), std::nullopt);
  EXPECT_EQ(cam.Lookup(Key(0x20), ModuleId(1)), 3u);
  // Ownership changes reindex too.
  cam.Write(3, Entry(0x20, 2));
  EXPECT_EQ(cam.Lookup(Key(0x20), ModuleId(1)), std::nullopt);
  EXPECT_EQ(cam.Lookup(Key(0x20), ModuleId(2)), 3u);
}

TEST(ExactMatchCam, WordProbeMatchesWideLookupForOneWordKeys) {
  ExactMatchCam cam;
  cam.Write(2, Entry(0xAB, 1));
  EXPECT_EQ(cam.LookupWord(0xAB, ModuleId(1)), 2u);
  EXPECT_EQ(cam.LookupWord(0xAB, ModuleId(2)), std::nullopt);
  EXPECT_EQ(cam.LookupWord(0xAC, ModuleId(1)), std::nullopt);
  // The counters count word probes like any other lookup.
  EXPECT_EQ(cam.lookups(), 3u);
  EXPECT_EQ(cam.hits(), 1u);
}

TEST(ExactMatchCam, LinearReferenceAgreesWithIndex) {
  ExactMatchCam cam;
  cam.Write(1, Entry(0x42, 7));
  cam.Write(5, Entry(0x42, 8));
  for (const u16 m : {7, 8, 9}) {
    EXPECT_EQ(cam.Lookup(Key(0x42), ModuleId(m)),
              test::LookupLinear(cam, Key(0x42), ModuleId(m)));
  }
}

TEST(TcamAllocator, ContiguousRegions) {
  TcamAllocator alloc(16);
  const auto a = alloc.Allocate(ModuleId(1), 4);
  const auto b = alloc.Allocate(ModuleId(2), 8);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 4u);
  EXPECT_TRUE(alloc.Owns(ModuleId(1), 3));
  EXPECT_FALSE(alloc.Owns(ModuleId(1), 4));
  EXPECT_TRUE(alloc.Owns(ModuleId(2), 11));
}

TEST(TcamAllocator, RejectsWhenFullAndReusesReleasedSpace) {
  TcamAllocator alloc(16);
  ASSERT_TRUE(alloc.Allocate(ModuleId(1), 8));
  ASSERT_TRUE(alloc.Allocate(ModuleId(2), 8));
  EXPECT_FALSE(alloc.Allocate(ModuleId(3), 1));  // full
  alloc.Release(ModuleId(1));
  const auto c = alloc.Allocate(ModuleId(3), 8);
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, 0u);  // first-fit reuses the freed region
}

TEST(TcamAllocator, UpdatingOneModuleNeverMovesAnother) {
  // The Appendix B argument: contiguous regions mean rule updates for one
  // module never change the addresses (= priorities) of another's rules.
  TernaryCam tcam;
  TcamAllocator alloc(16);
  const auto r1 = alloc.Allocate(ModuleId(1), 4);
  const auto r2 = alloc.Allocate(ModuleId(2), 4);
  ASSERT_TRUE(r1 && r2);

  tcam.Write(*r2, Ternary(0xC0, 0xF0, 2));
  const TcamEntry before = tcam.At(*r2);

  // Module 1 churns its rules within its own region.
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(alloc.Owns(ModuleId(1), *r1 + i));
    tcam.Write(*r1 + i, Ternary(i, 0xFF, 1));
  }
  EXPECT_EQ(tcam.At(*r2), before);
  EXPECT_EQ(tcam.Lookup(Key(0xC5), ModuleId(2)), *r2);
}

TEST(TcamAllocator, OneRegionPerModule) {
  TcamAllocator alloc(16);
  ASSERT_TRUE(alloc.Allocate(ModuleId(1), 2));
  EXPECT_FALSE(alloc.Allocate(ModuleId(1), 2));
  EXPECT_FALSE(alloc.Allocate(ModuleId(2), 0));   // zero-size
  EXPECT_FALSE(alloc.Allocate(ModuleId(2), 17));  // larger than CAM
}

}  // namespace
}  // namespace menshen
