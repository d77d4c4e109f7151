#include "pipeline/action_engine.hpp"

#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"

namespace menshen {
namespace {

constexpr ContainerRef kA{ContainerType::k4B, 0};  // flat 8
constexpr ContainerRef kB{ContainerType::k4B, 1};  // flat 9
constexpr ContainerRef kC{ContainerType::k4B, 2};  // flat 10

class ActionEngineTest : public ::testing::Test {
 protected:
  ActionEngineTest() {
    state_.segment_table().Write(1, SegmentEntry{0, 32});
    phv_.module_id = ModuleId(1);
    phv_.Write(kA, 100);
    phv_.Write(kB, 30);
  }

  Phv Run(u8 slot, AluAction a) {
    VliwEntry vliw;
    vliw.slots[slot] = a;
    return ActionEngine::Execute(vliw, phv_, state_);
  }

  Phv phv_;
  StatefulMemory state_;
};

TEST_F(ActionEngineTest, Add) {
  const Phv out = Run(10, {AluOp::kAdd, 8, 9, 0});
  EXPECT_EQ(out.Read(kC), 130u);
  EXPECT_EQ(out.Read(kA), 100u);  // operands untouched
}

TEST_F(ActionEngineTest, Sub) {
  EXPECT_EQ(Run(10, {AluOp::kSub, 8, 9, 0}).Read(kC), 70u);
}

TEST_F(ActionEngineTest, SubWrapsAtContainerWidth) {
  const Phv out = Run(10, {AluOp::kSub, 9, 8, 0});  // 30 - 100
  EXPECT_EQ(out.Read(kC), 0xFFFFFFBAu);  // two's complement in 4 bytes
}

TEST_F(ActionEngineTest, AddiSubiSet) {
  EXPECT_EQ(Run(10, {AluOp::kAddi, 8, 0, 11}).Read(kC), 111u);
  EXPECT_EQ(Run(10, {AluOp::kSubi, 8, 0, 1}).Read(kC), 99u);
  EXPECT_EQ(Run(10, {AluOp::kSet, 0, 0, 4242}).Read(kC), 4242u);
}

TEST_F(ActionEngineTest, Copy) {
  EXPECT_EQ(Run(10, {AluOp::kCopy, 8, 0, 0}).Read(kC), 100u);
}

TEST_F(ActionEngineTest, LoadStore) {
  state_.Store(ModuleId(1), 5, 777);
  EXPECT_EQ(Run(10, {AluOp::kLoad, 0, 0, 5}).Read(kC), 777u);

  (void)Run(10, {AluOp::kStore, 8, 0, 6});  // state[6] = phv[A]
  EXPECT_EQ(state_.Load(ModuleId(1), 6), 100u);
}

TEST_F(ActionEngineTest, LoaddIncrements) {
  EXPECT_EQ(Run(10, {AluOp::kLoadd, 0, 0, 7}).Read(kC), 1u);
  EXPECT_EQ(Run(10, {AluOp::kLoadd, 0, 0, 7}).Read(kC), 2u);
  EXPECT_EQ(state_.Load(ModuleId(1), 7), 2u);
}

TEST_F(ActionEngineTest, DynamicAddressing) {
  // Address comes from PHV container B (value 30).
  state_.Store(ModuleId(1), 30, 555);
  EXPECT_EQ(Run(10, {AluOp::kLoadc, 0, 9, 0}).Read(kC), 555u);

  (void)Run(10, {AluOp::kStorec, 8, 9, 0});  // state[phv[B]] = phv[A]
  EXPECT_EQ(state_.Load(ModuleId(1), 30), 100u);

  EXPECT_EQ(Run(10, {AluOp::kLoaddc, 0, 9, 0}).Read(kC), 101u);
}

TEST_F(ActionEngineTest, PortDiscardMcast) {
  const Phv p = Run(24, {AluOp::kPort, 0, 0, 3});
  EXPECT_EQ(p.meta_u16(meta::kDstPort), 3);

  const Phv d = Run(24, {AluOp::kDiscard, 0, 0, 0});
  EXPECT_TRUE(d.discard_flag());

  const Phv m = Run(24, {AluOp::kMcast, 0, 0, 7});
  EXPECT_EQ(m.meta_u16(meta::kMulticastGroup), 7);
}

TEST_F(ActionEngineTest, VliwReadsSnapshotNotIntermediate) {
  // True VLIW semantics: both ALUs read the incoming PHV.  Swapping two
  // containers in one instruction must actually swap them.
  VliwEntry vliw;
  vliw.slots[8] = {AluOp::kCopy, 9, 0, 0};  // A' = B
  vliw.slots[9] = {AluOp::kCopy, 8, 0, 0};  // B' = A
  const Phv out = ActionEngine::Execute(vliw, phv_, state_);
  EXPECT_EQ(out.Read(kA), 30u);
  EXPECT_EQ(out.Read(kB), 100u);
}

TEST_F(ActionEngineTest, NopSlotsPreserveValues) {
  const Phv out = ActionEngine::Execute(VliwEntry{}, phv_, state_);
  EXPECT_EQ(out, phv_);
}

TEST_F(ActionEngineTest, StatefulOpsRespectSegment) {
  // Module 2 has no segment: the same VLIW program must be inert.
  phv_.module_id = ModuleId(2);
  const Phv out = Run(10, {AluOp::kLoadd, 0, 0, 7});
  EXPECT_EQ(out.Read(kC), 0u);
  EXPECT_EQ(state_.violations(ModuleId(2)), 1u);
}

TEST_F(ActionEngineTest, MetadataSlotArithmetic) {
  // Slot 24 reads/writes the user scratch metadata word.
  phv_.set_meta_u16(meta::kUser, 40);
  const Phv out = Run(24, {AluOp::kAddi, 24, 0, 2});
  EXPECT_EQ(out.meta_u16(meta::kUser), 42);
}

// --- Compiled slots vs the decoding reference --------------------------------
//
// VliwPlan::Compile resolves every active slot to raw PHV byte offsets and
// widths; ExecuteCompiled and the kernels' single-slot step (one compiled
// slot applied with in == out) then run fixed-width loads and stores.
// This differential drives random VLIW entries over every opcode and
// every five-bit container code through both forms and the decoding
// reference (ActionEngine::Execute), on random PHV bytes and a segment
// table with in-range, mis-programmed and missing segments, and demands
// identical PHVs, stateful words and violation counts.

/// Every word of both memories and the violation counts of `modules`.
void ExpectSameState(const StatefulMemory& ref, const StatefulMemory& got,
                     const std::array<u16, 3>& modules) {
  for (std::size_t w = 0; w < ref.size(); ++w)
    ASSERT_EQ(got.PhysicalAt(w), ref.PhysicalAt(w)) << "word " << w;
  for (const u16 m : modules)
    ASSERT_EQ(got.violations(ModuleId(m)), ref.violations(ModuleId(m)))
        << "module " << m;
  ASSERT_EQ(got.total_violations(), ref.total_violations());
}

TEST(CompiledSlotDifferential, RandomEntriesMatchDecodingReference) {
  Rng rng(0x5107);
  // Module 1 owns words [0, 32); module 2's segment runs past the end of
  // memory (offset 240, range 40), so some in-range local addresses are
  // still squashed; module 3 has no segment at all.
  const std::array<u16, 3> modules = {1, 2, 3};
  StatefulMemory mem_ref;
  StatefulMemory mem_plan;
  StatefulMemory mem_single;
  for (StatefulMemory* m : {&mem_ref, &mem_plan, &mem_single}) {
    m->segment_table().Write(1, SegmentEntry{0, 32});
    m->segment_table().Write(2, SegmentEntry{240, 40});
  }
  for (std::size_t w = 0; w < mem_ref.size(); ++w) {
    const u64 v = rng.Below(4) == 0 ? rng.Next() : rng.Below(64);
    for (StatefulMemory* m : {&mem_ref, &mem_plan, &mem_single})
      m->PhysicalStore(w, v);
  }

  std::array<u32, 16> op_seen{};
  std::array<u32, 32> code_seen{};
  u32 snapshot_entries = 0;
  u32 in_place_entries = 0;
  u32 single_slot_entries = 0;
  Phv snapshot;

  for (int iter = 0; iter < 4000; ++iter) {
    // A random entry: one active slot in a third of the entries (the
    // kernels' single-slot shape), otherwise each slot active with
    // probability 1/4.
    VliwEntry vliw;
    const bool single = rng.Below(3) == 0;
    const std::size_t only = rng.Below(kNumAluContainers);
    for (std::size_t slot = 0; slot < kNumAluContainers; ++slot) {
      if (single ? slot != only : rng.Below(4) != 0) continue;
      AluAction& a = vliw.slots[slot];
      a.op = static_cast<AluOp>(rng.Below(16));
      a.container1 = static_cast<u8>(rng.Below(32));
      a.container2 = static_cast<u8>(rng.Below(32));
      // Mostly small immediates, so stateful ops hit in-range addresses.
      a.immediate =
          static_cast<u16>(rng.Below(4) == 0 ? rng.Next() : rng.Below(48));
      ++op_seen[static_cast<std::size_t>(a.op)];
      ++code_seen[a.container1];
      ++code_seen[a.container2];
    }

    // Random PHV bytes; some containers hold small values so that
    // container-addressed stateful ops land in range too.
    Phv phv;
    for (u8& b : phv.mutable_raw()) b = static_cast<u8>(rng.Next());
    for (int k = 0; k < 6; ++k) {
      const u8 flat = static_cast<u8>(rng.Below(3 * kContainersPerType));
      phv.Write(*FlatToContainer(flat), rng.Below(48));
    }
    if (rng.Below(2) == 0) phv.set_meta_u16(meta::kUser, rng.Below(48));
    phv.module_id = ModuleId(modules[rng.Below(modules.size())]);

    const VliwPlan plan = VliwPlan::Compile(vliw);
    ASSERT_EQ(plan.count, vliw.active_count());
    (plan.in_place_safe ? in_place_entries : snapshot_entries) += 1;

    const Phv ref = ActionEngine::Execute(vliw, phv, mem_ref);

    Phv got = phv;
    ActionEngine::ExecuteCompiled(plan, got, snapshot,
                                  mem_plan.ResolveSegment(phv.module_id));
    ASSERT_EQ(got, ref) << "iteration " << iter;
    ASSERT_NO_FATAL_FAILURE(ExpectSameState(mem_ref, mem_plan, modules));

    // The kernels' single-slot step; the other memory replays the
    // reference's effect so all three stay in lockstep.
    if (plan.count == 1) {
      ++single_slot_entries;
      ASSERT_TRUE(plan.in_place_safe);
      Phv one = phv;
      u8* const bytes = one.mutable_raw().data();
      ActionEngine::ApplyCompiledSlot(
          plan.slots[0], bytes, bytes,
          mem_single.ResolveSegment(phv.module_id));
      ASSERT_EQ(one, ref) << "iteration " << iter;
      ASSERT_NO_FATAL_FAILURE(ExpectSameState(mem_ref, mem_single, modules));
    } else {
      (void)ActionEngine::Execute(vliw, phv, mem_single);
    }
  }

  for (std::size_t op = 0; op < op_seen.size(); ++op)
    EXPECT_GT(op_seen[op], 0u) << AluOpName(static_cast<AluOp>(op));
  for (std::size_t code = 0; code < code_seen.size(); ++code)
    EXPECT_GT(code_seen[code], 0u) << "container code " << code;
  EXPECT_GT(snapshot_entries, 100u);
  EXPECT_GT(in_place_entries, 100u);
  EXPECT_GT(single_slot_entries, 100u);
  // Both in-range and squashed stateful accesses happened.
  EXPECT_GT(mem_ref.total_violations(), 0u);
  EXPECT_NE(mem_ref.PhysicalAt(0) + mem_ref.PhysicalAt(1), 0u);
}

TEST(CompiledSlotDifferential, MetadataCodesResolveToUserWord) {
  // Operand codes 24-31 and slot 24 all name the user-metadata u16.
  VliwEntry vliw;
  vliw.slots[3] = {AluOp::kAdd, 24, 31, 0};  // 2B[3] = kUser + kUser
  vliw.slots[24] = {AluOp::kAddi, 27, 0, 5};  // kUser = kUser + 5
  const VliwPlan plan = VliwPlan::Compile(vliw);
  ASSERT_EQ(plan.count, 2u);
  constexpr std::size_t kUserOff = Phv::kMetaBase + meta::kUser;
  EXPECT_EQ(plan.slots[0].src1_off, kUserOff);
  EXPECT_EQ(plan.slots[0].src2_off, kUserOff);
  EXPECT_EQ(plan.slots[1].src1_off, kUserOff);
  EXPECT_EQ(plan.slots[1].dst_off, kUserOff);
  EXPECT_EQ(plan.slots[1].dst_width, 2u);

  StatefulMemory mem;
  Phv phv;
  phv.set_meta_u16(meta::kUser, 20);
  Phv snapshot;
  ActionEngine::ExecuteCompiled(plan, phv, snapshot,
                                mem.ResolveSegment(phv.module_id));
  EXPECT_EQ(phv.Read({ContainerType::k2B, 3}), 40u);
  EXPECT_EQ(phv.meta_u16(meta::kUser), 25u);
}

}  // namespace
}  // namespace menshen
