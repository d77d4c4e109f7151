// Differential and tier-selection tests for the compiled steps
// (pipeline/kernels).
//
// A row's compiled steps rewrite the observable per-packet function of
// ProcessUnplanned (the linear reference) as one step loop;
// wide/ternary rows stay on the interpreted compiled plan
// (pipeline/exec_plan).  Everything a tenant can observe — output
// bytes, disposition, egress, multicast set, per-tenant counters, and
// every CAM/TCAM/stage counter — must match the reference under
// randomized configurations, epoch commits, direct writes, tenant
// migrations and ResizeShards.  Run under ASAN and TSAN in CI like
// test_exec_plan.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "dataplane/dataplane.hpp"
#include "packet/arena.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/kernels.hpp"
#include "pipeline/pipeline.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

void ExpectSameOutput(const PipelineResult& ref, const PipelineResult& got,
                      const std::string& what) {
  EXPECT_EQ(ref.filter_verdict, got.filter_verdict) << what;
  ASSERT_EQ(ref.output.has_value(), got.output.has_value()) << what;
  if (ref.output) {
    EXPECT_EQ(ref.output->bytes().hex(), got.output->bytes().hex()) << what;
    EXPECT_EQ(ref.output->disposition, got.output->disposition) << what;
    EXPECT_EQ(ref.output->egress_port, got.output->egress_port) << what;
    EXPECT_EQ(ref.output->multicast_ports, got.output->multicast_ports)
        << what;
  }
}

// --- Tier selection ----------------------------------------------------------
//
// Wide/ternary plans must route to the interpreter and count as
// fallback packets; every other plan must count as kernel packets.  (A
// word-0-only ternary mask stays flow-cacheable and never reaches
// either — the wide mask here also blocks the cache, forcing the run
// through RunSpan.)
TEST(KernelSelection, DispatchCountersTellKernelFromFallback) {
  Pipeline pipe;
  const std::size_t row = 2;
  KeyExtractorEntry kx;
  kx.ternary = true;
  kx.selectors[5] = 1;
  pipe.stage(0).key_extractor().Write(row, kx);
  KeyMaskEntry mask;
  mask.mask.set_field(97, 16, 0xFFFF);  // bits above key word 0: kWideKey
  mask.mask.set_field(1, 16, 0xFFFF);
  pipe.stage(0).key_mask().Write(row, mask);

  std::vector<Packet> batch(
      8, PacketBuilder{}.vid(ModuleId(row)).frame_size(96).Build());
  (void)pipe.ProcessBatch(std::move(batch));
  Pipeline::KernelStats ks = pipe.KernelSnapshot();
  EXPECT_EQ(ks.pkts, 0u);
  EXPECT_EQ(ks.fallback_pkts, 8u);

  // A step-compiled tenant (calc: multi-slot writes block the flow
  // cache) lands in the kernel counters, with the fallback untouched.
  ModuleManager mgr(pipe);
  const ModuleAllocation alloc = StandardAlloc(9);
  CompiledModule m = MustCompile(apps::CalcSpec(), alloc);
  MustLoad(mgr, m, alloc);
  EXPECT_TRUE(apps::InstallCalcEntries(m, 7));
  mgr.Update(m);
  std::vector<Packet> calc_batch;
  for (int i = 0; i < 8; ++i) {
    Packet p = PacketBuilder{}.vid(ModuleId(9)).frame_size(96).Build();
    p.bytes().set_u16(46, apps::kCalcOpAdd);
    p.bytes().set_u32(48, 1);
    p.bytes().set_u32(52, 2);
    calc_batch.push_back(std::move(p));
  }
  (void)pipe.ProcessBatch(std::move(calc_batch));
  ks = pipe.KernelSnapshot();
  EXPECT_EQ(ks.pkts, 8u);
  EXPECT_EQ(ks.fallback_pkts, 8u);  // unchanged
}

// --- Randomized single-pipeline differential -----------------------------------
//
// Two pipelines under the identical random configuration stream: one
// running the execution ladder, one processing through
// ProcessUnplanned.  Ternary extractors and wide masks are thrown in so
// the wide/ternary fallback runs interleaved with step-loop runs.

ParserAction RandomParserAction(Rng& rng) {
  ParserAction a;
  a.valid = rng.Below(3) != 0;
  a.container = ContainerRef{static_cast<ContainerType>(rng.Below(3)),
                             static_cast<u8>(rng.Below(8))};
  a.bytes_from_head = static_cast<u8>(rng.Below(100));
  return a;
}

TEST(KernelsDifferential, RandomConfigsMatchInterpreterAndUnplanned) {
  Rng rng(0xC0FFEE);
  Pipeline kern;
  Pipeline reference;
  for (Pipeline* p : {&kern, &reference}) p->SetMulticastGroup(5, {3, 4, 5});
  const std::vector<u16> vids = {2, 3, 9, 31};
  const auto all = {&kern, &reference};

  for (int round = 0; round < 50; ++round) {
    for (int w = 0; w < 6; ++w) {
      const std::size_t row = vids[rng.Below(vids.size())];
      switch (rng.Below(7)) {
        case 0: {
          ParserEntry e;
          for (auto& a : e.actions) a = RandomParserAction(rng);
          for (Pipeline* p : all) p->parser().table().Write(row, e);
          break;
        }
        case 1: {
          DeparserEntry e;
          for (auto& a : e.actions) a = RandomParserAction(rng);
          for (Pipeline* p : all) p->deparser().table().Write(row, e);
          break;
        }
        case 2: {
          const std::size_t s = rng.Below(params::kNumStages);
          KeyExtractorEntry kx;
          for (auto& sel : kx.selectors) sel = static_cast<u8>(rng.Below(8));
          kx.ternary = rng.Below(4) == 0;  // wide/ternary fallback shape
          if (rng.Below(3) == 0) {
            kx.cmp_op = static_cast<CmpOp>(1 + rng.Below(6));
            kx.cmp_a = Operand8::Container(
                ContainerRef{static_cast<ContainerType>(rng.Below(3)),
                             static_cast<u8>(rng.Below(8))});
            kx.cmp_b = Operand8::Immediate(static_cast<u8>(rng.Below(128)));
          }
          for (Pipeline* p : all) p->stage(s).key_extractor().Write(row, kx);
          break;
        }
        case 3: {
          const std::size_t s = rng.Below(params::kNumStages);
          KeyMaskEntry mask;
          const auto kind = rng.Below(3);
          if (kind == 1) {
            mask.mask.set_field(1, 16, 0xFFFF);
            if (rng.Below(2) == 0) mask.mask.set_bit(0, true);
          } else if (kind == 2) {
            // Wide mask: bits above key word 0 force the interpreter.
            mask.mask.set_field(97, 48, 0xFFFFFFFFFFFFull);
            mask.mask.set_field(1, 16, 0xFFFF);
          }
          for (Pipeline* p : all) p->stage(s).key_mask().Write(row, mask);
          break;
        }
        case 4: {
          const std::size_t s = rng.Below(params::kNumStages);
          const std::size_t addr = rng.Below(params::kCamDepth);
          CamEntry e;
          e.valid = rng.Below(4) != 0;
          e.key = BitVec::FromValue(params::kKeyBits,
                                    rng.Below(2) == 0 ? 0 : rng.Below(8) << 1);
          e.module = ModuleId(vids[rng.Below(vids.size())]);
          for (Pipeline* p : all) p->stage(s).cam().Write(addr, e);
          break;
        }
        case 5: {
          const std::size_t s = rng.Below(params::kNumStages);
          const std::size_t addr = rng.Below(params::kCamDepth);
          TcamEntry e;
          e.valid = rng.Below(3) != 0;
          e.key = BitVec::FromValue(params::kKeyBits, rng.Below(8) << 1);
          e.mask = BitVec::FromValue(params::kKeyBits,
                                     rng.Below(2) == 0 ? 0x0E : 0);
          e.module = ModuleId(vids[rng.Below(vids.size())]);
          for (Pipeline* p : all) p->stage(s).tcam().Write(addr, e);
          break;
        }
        default: {
          const std::size_t s = rng.Below(params::kNumStages);
          const std::size_t addr = rng.Below(params::kVliwTableDepth);
          VliwEntry v;
          for (int k = 0; k < 3; ++k) {
            const std::size_t slot = rng.Below(kNumAluContainers);
            AluAction a;
            a.op = static_cast<AluOp>(rng.Below(16));
            a.container1 = static_cast<u8>(rng.Below(kNumAluContainers));
            a.container2 = static_cast<u8>(rng.Below(kNumAluContainers));
            a.immediate = static_cast<u16>(rng.Below(64));
            if (a.op == AluOp::kMcast)
              a.immediate = rng.Below(2) == 0 ? 5 : 0;
            v.slots[slot] = a;
          }
          for (Pipeline* p : all) p->stage(s).WriteVliw(addr, v);
          break;
        }
      }
    }

    std::vector<Packet> batch;
    const std::size_t count = 8 + rng.Below(24);
    for (std::size_t i = 0; i < count; ++i) {
      Packet p = PacketBuilder{}
                     .vid(ModuleId(vids[rng.Below(vids.size())]))
                     .frame_size(64 + rng.Below(80))
                     .Build();
      for (int b = 0; b < 8; ++b)
        p.bytes().set_u8(20 + rng.Below(p.size() - 24),
                         static_cast<u8>(rng.Below(256)));
      batch.push_back(std::move(p));
    }

    std::vector<Packet> kb = batch;
    const std::vector<PipelineResult> kern_out =
        kern.ProcessBatch(std::move(kb));
    ASSERT_EQ(kern_out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string what =
          "round " + std::to_string(round) + " packet " + std::to_string(i);
      const PipelineResult ref = reference.ProcessUnplanned(batch[i]);
      ExpectSameOutput(ref, kern_out[i], what + " (kernel vs unplanned)");
    }
  }

  // The kernels actually ran (this differential would be vacuous if
  // every round fell back), and the fallback also ran (wide/ternary
  // rounds exist).
  const Pipeline::KernelStats ks = kern.KernelSnapshot();
  EXPECT_GT(ks.pkts, 0u);
  EXPECT_GT(ks.fallback_pkts, 0u);

  // Every CAM/TCAM/stage counter agrees with the per-packet reference —
  // the kernels' and the flow cache's bulk counter flushes are exact.
  for (std::size_t s = 0; s < params::kNumStages; ++s) {
    EXPECT_EQ(kern.stage(s).hits(), reference.stage(s).hits())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).misses(), reference.stage(s).misses())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).cam().lookups(),
              reference.stage(s).cam().lookups())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).cam().hits(), reference.stage(s).cam().hits())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).tcam().lookups(),
              reference.stage(s).tcam().lookups())
        << "stage " << s;
    EXPECT_EQ(kern.stage(s).tcam().hits(), reference.stage(s).tcam().hits())
        << "stage " << s;
  }
  for (const u16 vid : vids) {
    EXPECT_EQ(kern.forwarded(ModuleId(vid)),
              reference.forwarded(ModuleId(vid)));
    EXPECT_EQ(kern.dropped(ModuleId(vid)), reference.dropped(ModuleId(vid)));
  }
  EXPECT_EQ(kern.total_processed(), reference.total_processed());
}

// --- Dataplane differential across epochs / writes / migrations / resizes ------
//
// A worker-threaded dataplane against the unplanned reference, while
// epochs commit, direct writes land, tenants migrate and the replica
// set resizes.  Stateful tenants (netchain sequencers) make any
// state-placement divergence visible in the output bytes.

TEST(KernelsDifferential, DataplaneMatchesAcrossEpochsWritesMigrationsResizes) {
  Rng rng(0x5EED);
  const std::vector<u16> vids = {2, 3, 4, 5};

  std::vector<CompiledModule> images;
  for (std::size_t i = 0; i < vids.size(); ++i) {
    const bool calc = i < 2;
    const ModuleAllocation alloc = UniformAllocation(
        ModuleId(vids[i]), 0, params::kNumStages, i * 4, 4,
        static_cast<u8>(i * 32), 32);
    CompiledModule m =
        MustCompile(calc ? apps::CalcSpec() : apps::NetChainSpec(), alloc);
    if (calc) {
      EXPECT_TRUE(apps::InstallCalcEntries(m, static_cast<u16>(10 + i)));
    } else {
      EXPECT_TRUE(apps::InstallNetChainEntries(m, static_cast<u16>(10 + i)));
    }
    images.push_back(std::move(m));
  }

  Dataplane dp(DataplaneConfig{.num_shards = 3});
  Pipeline reference;
  for (const CompiledModule& m : images) {
    dp.ApplyWrites(m.AllWrites());
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);
  }

  const auto random_packet = [&](u16 vid) {
    Packet p = PacketBuilder{}
                   .vid(ModuleId(vid))
                   .frame_size(96 + rng.Below(32))
                   .Build();
    p.bytes().set_u16(46, static_cast<u16>(rng.Below(4) + 1));
    p.bytes().set_u32(48, static_cast<u32>(rng.Below(100)));
    p.bytes().set_u32(52, static_cast<u32>(rng.Below(100)));
    return p;
  };

  for (int round = 0; round < 30; ++round) {
    switch (rng.Below(5)) {
      case 0: {
        // Staged overlay rewrite + epoch commit.
        const CompiledModule& m = images[rng.Below(images.size())];
        dp.StageWrites(m.AllWrites());
        dp.CommitEpoch();
        for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);
        break;
      }
      case 1: {
        // Direct (non-staged) parser rewrite for a random tenant.
        const u16 vid = vids[rng.Below(vids.size())];
        const std::size_t row = vid % params::kOverlayTableDepth;
        ParserEntry e = reference.parser().table().At(row);
        e.actions[params::kParserActionsPerEntry - 1] =
            RandomParserAction(rng);
        const ConfigWrite w{ResourceKind::kParserTable, 0,
                            static_cast<u8>(row), e.Encode()};
        dp.ApplyWrite(w);
        reference.ApplyWrite(w);
        break;
      }
      case 2: {
        dp.ResizeShards(1 + rng.Below(4));
        break;
      }
      case 3: {
        dp.MigrateTenant(ModuleId(vids[rng.Below(vids.size())]),
                         rng.Below(dp.num_shards()));
        break;
      }
      default:
        break;
    }

    std::vector<Packet> batch;
    const std::size_t count = 16 + rng.Below(48);
    for (std::size_t i = 0; i < count; ++i)
      batch.push_back(random_packet(vids[rng.Below(vids.size())]));

    std::vector<Packet> dp_batch = batch;
    const std::vector<PipelineResult> got =
        dp.ProcessBatch(std::move(dp_batch));
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string what =
          "round " + std::to_string(round) + " packet " + std::to_string(i);
      const PipelineResult uref = reference.ProcessUnplanned(batch[i]);
      ExpectSameOutput(uref, got[i], what + " (kernels vs unplanned)");
    }
  }

  for (const u16 vid : vids) {
    EXPECT_EQ(dp.forwarded(ModuleId(vid)),
              reference.forwarded(ModuleId(vid)));
    EXPECT_EQ(dp.dropped(ModuleId(vid)), reference.dropped(ModuleId(vid)));
  }
}

}  // namespace
}  // namespace menshen
