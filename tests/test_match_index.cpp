// Randomized differential tests for the indexed match path.
//
// The hash-shadowed exact-match CAM, the one-word u64 probe and the
// region-narrowed ternary scan are all rewrites of the same observable
// function the hardware's linear scan defines.  These tests hammer the
// rewrites with thousands of interleaved Write / overwrite / invalidate /
// Lookup operations over a deliberately tiny key alphabet (forcing
// duplicate keys, priority decisions and module collisions) and assert
// byte-identical results against the linear-scan reference in
// linear_scan.hpp.  Run under ASAN and TSAN in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linear_scan.hpp"
#include "pipeline/exact_match.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/tcam.hpp"

namespace menshen {
namespace {

BitVec Key193(u64 low) { return BitVec::FromValue(params::kKeyBits, low); }

/// A random 193-bit key drawn from a small alphabet: low word from a few
/// bits, and occasionally a bit above word 0 so the one-word index's
/// reachable-set filtering is exercised.
BitVec RandomKey(Rng& rng) {
  BitVec k = Key193(rng.Below(16));
  if (rng.Below(4) == 0) k.set_bit(64 + rng.Below(129), true);
  return k;
}

TEST(MatchIndexDifferential, ExactCamInterleavedOpsMatchLinearReference) {
  Rng rng(0xC0FFEE);
  ExactMatchCam cam;
  const std::vector<u16> modules = {1, 2, 7, 31};

  for (int op = 0; op < 8000; ++op) {
    const u16 module = modules[rng.Below(modules.size())];
    switch (rng.Below(4)) {
      case 0: {  // write or overwrite
        CamEntry e;
        e.valid = true;
        e.key = RandomKey(rng);
        e.module = ModuleId(module);
        cam.Write(rng.Below(cam.depth()), e);
        break;
      }
      case 1: {  // invalidate
        CamEntry e;
        e.valid = false;
        cam.Write(rng.Below(cam.depth()), e);
        break;
      }
      default: {  // lookup, both paths
        const BitVec key = RandomKey(rng);
        EXPECT_EQ(cam.Lookup(key, ModuleId(module)),
                  test::LookupLinear(cam, key, ModuleId(module)));
        // The one-word probe must agree with linear whenever the key is
        // representable in word 0 (which all fast-path keys are).
        if (key.high_words_zero()) {
          EXPECT_EQ(cam.LookupWord(key.word(0), ModuleId(module)),
                    test::LookupLinear(cam, key, ModuleId(module)));
        }
        break;
      }
    }
  }
}

TEST(MatchIndexDifferential, DuplicateKeysKeepLowestAddressPriority) {
  ExactMatchCam cam;
  CamEntry e;
  e.valid = true;
  e.key = Key193(0x5);
  e.module = ModuleId(3);
  cam.Write(9, e);
  cam.Write(4, e);
  cam.Write(12, e);
  EXPECT_EQ(cam.Lookup(Key193(0x5), ModuleId(3)), 4u);
  EXPECT_EQ(cam.LookupWord(0x5, ModuleId(3)), 4u);

  // Removing the winner promotes the next-lowest duplicate.
  CamEntry dead;
  dead.valid = false;
  cam.Write(4, dead);
  EXPECT_EQ(cam.Lookup(Key193(0x5), ModuleId(3)), 9u);
  EXPECT_EQ(cam.LookupWord(0x5, ModuleId(3)), 9u);
  cam.Write(9, dead);
  EXPECT_EQ(cam.Lookup(Key193(0x5), ModuleId(3)), 12u);
  cam.Write(12, dead);
  EXPECT_EQ(cam.Lookup(Key193(0x5), ModuleId(3)), std::nullopt);
  EXPECT_EQ(cam.LookupWord(0x5, ModuleId(3)), std::nullopt);
}

TEST(MatchIndexDifferential, WideKeysAreUnreachableFromTheWordProbe) {
  ExactMatchCam cam;
  CamEntry wide;
  wide.valid = true;
  wide.key = Key193(0x5);
  wide.key.set_bit(100, true);  // a bit above word 0
  wide.module = ModuleId(3);
  cam.Write(0, wide);
  // Indexed wide lookup finds it; the word probe (whose search key by
  // construction has no bits above 63) must not.
  EXPECT_EQ(cam.Lookup(wide.key, ModuleId(3)), 0u);
  EXPECT_EQ(cam.LookupWord(0x5, ModuleId(3)), std::nullopt);
  EXPECT_EQ(test::LookupLinear(cam, Key193(0x5), ModuleId(3)), std::nullopt);
}

TEST(MatchIndexDifferential, TernaryInterleavedOpsMatchLinearReference) {
  Rng rng(0xBADC0DE);
  TernaryCam tcam;
  const std::vector<u16> modules = {1, 5, 9};

  for (int op = 0; op < 8000; ++op) {
    const u16 module = modules[rng.Below(modules.size())];
    switch (rng.Below(4)) {
      case 0: {  // write or overwrite
        TcamEntry e;
        e.valid = true;
        e.key = RandomKey(rng);
        e.mask = RandomKey(rng);
        e.module = ModuleId(module);
        tcam.Write(rng.Below(tcam.depth()), e);
        break;
      }
      case 1: {  // invalidate
        TcamEntry e;
        e.valid = false;
        tcam.Write(rng.Below(tcam.depth()), e);
        break;
      }
      default: {
        const BitVec key = RandomKey(rng);
        EXPECT_EQ(tcam.Lookup(key, ModuleId(module)),
                  test::LookupLinear(tcam, key, ModuleId(module)));
        break;
      }
    }
  }
}

TEST(MatchIndexDifferential, TernaryScanStaysInsideTheModuleRegion) {
  // Module 2 owns [4, 8), module 9 owns [12, 14).  A module's lookups
  // must examine at most its own span, never the full depth — the
  // region-restriction invariant (satellite of the indexed-match rework).
  TernaryCam tcam;
  const auto entry = [](u64 key, u64 mask, u16 module) {
    TcamEntry e;
    e.valid = true;
    e.key = Key193(key);
    e.mask = Key193(mask);
    e.module = ModuleId(module);
    return e;
  };
  for (std::size_t a = 4; a < 8; ++a)
    tcam.Write(a, entry(a, 0xF, 2));
  tcam.Write(12, entry(1, 0xF, 9));
  tcam.Write(13, entry(2, 0xF, 9));

  const u64 before = tcam.entries_scanned();
  (void)tcam.Lookup(Key193(6), ModuleId(2));   // hits address 6
  (void)tcam.Lookup(Key193(15), ModuleId(2));  // miss: full span scanned
  EXPECT_LE(tcam.entries_scanned() - before, 4u + 4u);

  const u64 before9 = tcam.entries_scanned();
  (void)tcam.Lookup(Key193(2), ModuleId(9));
  EXPECT_LE(tcam.entries_scanned() - before9, 2u);

  // A module with no entries scans nothing at all.
  const u64 before7 = tcam.entries_scanned();
  EXPECT_EQ(tcam.Lookup(Key193(1), ModuleId(7)), std::nullopt);
  EXPECT_EQ(tcam.entries_scanned(), before7);
}

// --- Stage-level differential: one-word fast path vs wide reference ----------

/// Builds a stage whose module matches on the 2nd-2B key slot (a layout
/// that fits word 0 → one-word fast path) or on the 1st-6B slot (wide).
void ConfigureStage(Stage& stage, u16 module, bool one_word) {
  KeyExtractorEntry kx;
  kx.selectors = {0, 0, 0, 0, 0, 0};  // slot i reads container index 0
  KeyMaskEntry mask;
  if (one_word) {
    mask.mask.set_field(1, 16, 0xFFFF);  // 2nd 2B slot, bits [1,17)
  } else {
    mask.mask.set_field(145, 48, 0xFFFFFFFFFFFF);  // 1st 6B slot
  }
  stage.key_extractor().Write(module % params::kOverlayTableDepth, kx);
  stage.key_mask().Write(module % params::kOverlayTableDepth, mask);
}

TEST(MatchIndexDifferential, StageOneWordPathMatchesWideReference) {
  Rng rng(0x5EED);
  for (const bool one_word : {true, false}) {
    Stage fast;    // exercised via ProcessInPlace (one-word when eligible)
    Stage wide;    // exercised via the reference Process
    const u16 module = 6;
    ConfigureStage(fast, module, one_word);
    ConfigureStage(wide, module, one_word);

    // Entries over the matched slot's value space, same on both stages.
    for (std::size_t a = 0; a < 8; ++a) {
      CamEntry e;
      e.valid = true;
      e.module = ModuleId(module);
      if (one_word) {
        e.key = Key193((a * 3) << 1);  // 2nd2B slot sits at lsb 1
      } else {
        e.key = Key193(0);
        e.key.set_field(145, 48, a * 3);  // 1st6B slot
      }
      fast.cam().Write(a, e);
      wide.cam().Write(a, e);
      VliwEntry act;
      act.slots[0] = {AluOp::kSet, 0, 0, static_cast<u16>(100 + a)};
      fast.WriteVliw(a, act);
      wide.WriteVliw(a, act);
    }

    for (int i = 0; i < 2000; ++i) {
      Phv phv;
      phv.module_id = ModuleId(module);
      phv.Write({ContainerType::k2B, 0}, rng.Below(30));
      phv.Write({ContainerType::k6B, 0}, rng.Below(30));

      const Phv ref = wide.Process(phv);
      Phv inplace = phv;
      fast.ProcessInPlace(inplace);
      EXPECT_EQ(inplace, ref);
    }
    EXPECT_EQ(fast.hits(), wide.hits());
    EXPECT_EQ(fast.misses(), wide.misses());
  }
}

TEST(MatchIndexCounters, ReadableWhileLookupsRunConcurrently) {
  // The lookup/hit counters mutate inside const Lookup on worker threads
  // while control-plane threads read them: with plain u64s this is the
  // data race TSAN flags; with relaxed atomics both sides are clean.
  ExactMatchCam cam;
  CamEntry e;
  e.valid = true;
  e.key = Key193(0x2);
  e.module = ModuleId(1);
  cam.Write(0, e);

  TernaryCam tcam;
  TcamEntry t;
  t.valid = true;
  t.key = Key193(0x2);
  t.mask = Key193(0xF);
  t.module = ModuleId(1);
  tcam.Write(0, t);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    u64 sink = 0;
    while (!stop.load(std::memory_order_acquire))
      sink += cam.lookups() + cam.hits() + tcam.lookups() + tcam.hits() +
              tcam.entries_scanned();
    (void)sink;
  });
  const BitVec key = Key193(0x2);
  for (int i = 0; i < 20000; ++i) {
    (void)cam.Lookup(key, ModuleId(1));
    (void)cam.LookupWord(0x2, ModuleId(1));
    (void)tcam.Lookup(key, ModuleId(1));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(cam.lookups(), 40000u);
  EXPECT_EQ(cam.hits(), 40000u);
  EXPECT_EQ(tcam.hits(), 20000u);
}

}  // namespace
}  // namespace menshen
