// Differentials for what a row program caches (pipeline/pipeline.hpp).
//
// A row program keeps an overlay row's execution plan, run contexts,
// compiled steps with their last-key memos, flow-cache row and counter
// slots from one config stamp to the next.  Each test changes one input
// of that cache between or within bursts — a segment-table entry, the
// module ID on an aliased row, a direct CAM write — or runs many short
// runs over constant-key stages, and pins every tenant-observable output
// and every CAM/TCAM/stage counter against ProcessUnplanned.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
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

void ExpectSameCounters(const Pipeline& ref, const Pipeline& got) {
  for (std::size_t s = 0; s < params::kNumStages; ++s) {
    EXPECT_EQ(got.stage(s).hits(), ref.stage(s).hits()) << "stage " << s;
    EXPECT_EQ(got.stage(s).misses(), ref.stage(s).misses()) << "stage " << s;
    EXPECT_EQ(got.stage(s).cam().lookups(), ref.stage(s).cam().lookups())
        << "stage " << s;
    EXPECT_EQ(got.stage(s).cam().hits(), ref.stage(s).cam().hits())
        << "stage " << s;
    EXPECT_EQ(got.stage(s).tcam().lookups(), ref.stage(s).tcam().lookups())
        << "stage " << s;
    EXPECT_EQ(got.stage(s).tcam().hits(), ref.stage(s).tcam().hits())
        << "stage " << s;
    EXPECT_EQ(got.stage(s).tcam().entries_scanned(),
              ref.stage(s).tcam().entries_scanned())
        << "stage " << s;
  }
  EXPECT_EQ(got.total_processed(), ref.total_processed());
}

/// Runs `batch` as one burst through `got` and packet by packet through
/// `ref`'s unplanned path; every output must match.
void RunBurstAgainstReference(Pipeline& got, Pipeline& ref,
                              const std::vector<Packet>& batch,
                              const std::string& what) {
  std::vector<Packet> copy = batch;
  const std::vector<PipelineResult> out = got.ProcessBatch(std::move(copy));
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    ExpectSameOutput(ref.ProcessUnplanned(batch[i]), out[i],
                     what + " packet " + std::to_string(i));
}

ParserAction Move2B(u8 container, u8 offset) {
  ParserAction a;
  a.valid = true;
  a.container = ContainerRef{ContainerType::k2B, container};
  a.bytes_from_head = offset;
  return a;
}

/// Stage `s` probes `row` on 2B container 2 (key bits [1,16]).
void WriteTagKey(Pipeline& pipe, std::size_t s, std::size_t row,
                 bool wide = false) {
  KeyExtractorEntry kx;
  kx.selectors[5] = 2;
  pipe.stage(s).key_extractor().Write(row, kx);
  KeyMaskEntry mask;
  mask.mask.set_field(1, 16, 0xFFFF);
  // Bits above key word 0 (an unparsed 6B container, always zero) keep
  // the lookup's result but force the wide-key interpreted plan path.
  if (wide) mask.mask.set_field(97, 16, 0xFFFF);
  pipe.stage(s).key_mask().Write(row, mask);
}

void WriteCam(Pipeline& pipe, std::size_t s, std::size_t addr, u16 module,
              u64 key_word) {
  CamEntry e;
  e.valid = true;
  e.key = BitVec::FromValue(params::kKeyBits, key_word);
  e.module = ModuleId(module);
  pipe.stage(s).cam().Write(addr, e);
}

// --- (a) Segment-table rewrite between bursts --------------------------------
//
// A NetChain sequencer's compiled step carries its stateful segment.  The
// segment table is not an input of the execution plan, but it is one of
// the row program's: rewriting the tenant's segment entry between two
// bursts must move the config stamp, so the second burst counts in the
// new (zeroed) window, as the reference does — not on from the old one.

TEST(RowProgram, SegmentRewriteBetweenBurstsMovesTheSequencer) {
  const u16 vid = 5;
  CompiledModule m = MustCompile(apps::NetChainSpec(), StandardAlloc(vid));
  ASSERT_TRUE(apps::InstallNetChainEntries(m, 3));
  Pipeline got;
  Pipeline ref;
  for (const ConfigWrite& w : m.AllWrites()) {
    got.ApplyWrite(w);
    ref.ApplyWrite(w);
  }
  const std::vector<Packet> burst(8,
                                  NetChainPacket(vid, apps::kNetChainOpSeq));
  RunBurstAgainstReference(got, ref, burst, "first burst");

  std::size_t rewritten = 0;
  for (const ConfigWrite& w : m.AllWrites()) {
    if (w.kind != ResourceKind::kSegmentTable) continue;
    SegmentEntry seg = SegmentEntry::Decode(w.payload);
    seg.offset = static_cast<u8>(seg.offset + 64);
    const ConfigWrite moved{w.kind, w.stage, w.index, seg.Encode()};
    got.ApplyWrite(moved);
    ref.ApplyWrite(moved);
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);

  std::vector<Packet> copy = burst;
  const std::vector<PipelineResult> out = got.ProcessBatch(std::move(copy));
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const PipelineResult r = ref.ProcessUnplanned(burst[i]);
    ExpectSameOutput(r, out[i], "second burst packet " + std::to_string(i));
    ASSERT_TRUE(r.output.has_value());
    EXPECT_EQ(NetChainSeq(*r.output), i + 1) << "fresh window restarts at 1";
  }
  ExpectSameCounters(ref, got);
  EXPECT_EQ(got.forwarded(ModuleId(vid)), ref.forwarded(ModuleId(vid)));
}

// --- (b) Aliased module IDs alternating within one burst ---------------------
//
// Module IDs 2 and 34 share overlay row 2 (IDs beyond the table depth are
// refused by admission, but the pipeline must stay exact).  Each owns its
// own CAM entries, and only 34 owns a constant-key hit, so a program
// resolved for one module is wrong for the other: runs alternating within
// one burst must re-resolve at every module change.

void ConfigureAliasedRow(Pipeline& pipe, bool stateful) {
  const std::size_t row = 2;
  ParserEntry pe;
  pe.actions[0] = Move2B(2, 46);
  pipe.parser().table().Write(row, pe);
  DeparserEntry de;
  de.actions[0] = Move2B(3, 50);
  de.actions[1] = Move2B(4, 52);
  pipe.deparser().table().Write(row, de);

  WriteTagKey(pipe, 0, row);
  for (u16 tag = 1; tag <= 3; ++tag) {
    // Module 2 at addresses 0-2, module 34 at 4-6: same keys, different
    // actions.
    for (const u16 module : {u16{2}, u16{34}}) {
      const std::size_t addr = (module == 2 ? 0 : 4) + tag - 1;
      WriteCam(pipe, 0, addr, module, u64{tag} << 1);
      VliwEntry v;
      v.slots[3] = AluAction{AluOp::kSet, 0, 0,
                             static_cast<u16>(module * 16 + tag)};
      v.slots[7] =
          AluAction{AluOp::kPort, 0, 0, static_cast<u16>(module + tag)};
      // The stateful variant keeps the row off the flow cache: the
      // sequencer word lands in container 4.
      if (stateful) v.slots[4] = AluAction{AluOp::kLoadd, 0, 0, 1};
      pipe.stage(0).WriteVliw(addr, v);
    }
  }
  SegmentEntry seg;
  seg.offset = 16;
  seg.range = 4;
  pipe.ApplyWrite(ConfigWrite{ResourceKind::kSegmentTable, 0,
                              static_cast<u8>(row), seg.Encode()});
  // Stage 1: all-zero mask; only module 34 owns the zero key.
  WriteCam(pipe, 1, 9, 34, 0);
  VliwEntry v;
  v.slots[4] = AluAction{AluOp::kSet, 0, 0, 0x77};
  pipe.stage(1).WriteVliw(9, v);
}

TEST(RowProgram, AliasedModulesAlternatingWithinOneBurstStayExact) {
  for (const bool stateful : {false, true}) {
    SCOPED_TRACE(stateful ? "compiled steps" : "flow cache");
    Pipeline got;
    Pipeline ref;
    ConfigureAliasedRow(got, stateful);
    ConfigureAliasedRow(ref, stateful);
    EXPECT_EQ(got.ExecPlanFor(ModuleId(2)).flow_cacheable(), !stateful);

    Rng rng(0xA11A5);
    for (int burst = 0; burst < 12; ++burst) {
      std::vector<Packet> batch;
      while (batch.size() < 48) {
        const u16 vid = rng.Below(2) == 0 ? 2 : 34;
        const std::size_t run = 1 + rng.Below(3);
        for (std::size_t k = 0; k < run; ++k)
          batch.push_back(
              TagRouterPacket(vid, static_cast<u16>(rng.Below(5))));
      }
      RunBurstAgainstReference(got, ref, batch,
                               "burst " + std::to_string(burst));
    }
    ExpectSameCounters(ref, got);
    for (const u16 vid : {u16{2}, u16{34}}) {
      EXPECT_EQ(got.forwarded(ModuleId(vid)), ref.forwarded(ModuleId(vid)));
      EXPECT_EQ(got.dropped(ModuleId(vid)), ref.dropped(ModuleId(vid)));
    }
    for (std::size_t w = 0; w < params::kStatefulWordsPerStage; ++w)
      ASSERT_EQ(got.stage(0).stateful().PhysicalAt(w),
                ref.stage(0).stateful().PhysicalAt(w))
          << "word " << w;
  }
}

// --- (c) Constant-key stages over many runs ----------------------------------
//
// Stage 0 is an all-zero-mask CAM stage with a constant hit, stage 1 an
// all-zero-mask ternary stage whose constant lookup scans three entries
// before it hits, stage 3 an all-zero-mask stage that misses; stage 2
// probes the tag.  Their lookups are resolved once per program and
// accounted once per run, so many short runs — split by a second tenant
// — must leave every CAM/TCAM lookup, hit and scan counter and every
// stage hit/miss counter exactly where per-packet probing leaves them, on
// the flow cache, the compiled steps and the interpreted plan alike.

enum class Tier { kFlowCache, kSteps, kInterpreted };

void ConfigureConstantStages(Pipeline& pipe, Tier tier) {
  const std::size_t row = 7;
  ParserEntry pe;
  pe.actions[0] = Move2B(2, 46);
  pipe.parser().table().Write(row, pe);
  DeparserEntry de;
  de.actions[0] = Move2B(3, 50);
  de.actions[1] = Move2B(4, 52);
  de.actions[2] = Move2B(5, 54);
  de.actions[3] = Move2B(6, 56);
  pipe.deparser().table().Write(row, de);

  // Stage 0: constant CAM hit.
  WriteCam(pipe, 0, 3, row, 0);
  VliwEntry v0;
  v0.slots[3] = AluAction{AluOp::kSet, 0, 0, 0x33};
  pipe.stage(0).WriteVliw(3, v0);

  // Stage 1: constant ternary hit after scanning a non-matching entry and
  // another module's entry.
  KeyExtractorEntry tkx;
  tkx.ternary = true;
  pipe.stage(1).key_extractor().Write(row, tkx);
  const auto tcam = [&](std::size_t addr, u16 module, u64 key, u64 mask) {
    TcamEntry e;
    e.valid = true;
    e.key = BitVec::FromValue(params::kKeyBits, key);
    e.mask = BitVec::FromValue(params::kKeyBits, mask);
    e.module = ModuleId(module);
    pipe.stage(1).tcam().Write(addr, e);
  };
  tcam(3, row, u64{1} << 1, 0x1FFFE);  // compares the tag bits: no match
  tcam(4, 9, 0, 0);                    // another module's entry
  tcam(5, row, 0, 0);                  // matches any key
  VliwEntry v1;
  v1.slots[4] = AluAction{AluOp::kSet, 0, 0, 0x44};
  pipe.stage(1).WriteVliw(5, v1);

  // Stage 2: the probing stage.
  WriteTagKey(pipe, 2, row, tier == Tier::kInterpreted);
  for (u16 tag = 1; tag <= 3; ++tag) {
    WriteCam(pipe, 2, tag, row, u64{tag} << 1);
    VliwEntry v;
    v.slots[5] = AluAction{AluOp::kSet, 0, 0, static_cast<u16>(0x50 + tag)};
    v.slots[7] = AluAction{AluOp::kPort, 0, 0, static_cast<u16>(10 + tag)};
    if (tier == Tier::kSteps) v.slots[6] = AluAction{AluOp::kLoadd, 0, 0, 0};
    pipe.stage(2).WriteVliw(tag, v);
  }
  SegmentEntry seg;
  seg.offset = 0;
  seg.range = 4;
  pipe.ApplyWrite(ConfigWrite{ResourceKind::kSegmentTable, 2,
                              static_cast<u8>(row), seg.Encode()});
  // Stage 3: all-zero mask, a zero-key entry of another module only.
  WriteCam(pipe, 3, 0, 9, 0);
}

TEST(RowProgram, ConstantKeyStagesAccountExactlyOverManyRuns) {
  for (const Tier tier : {Tier::kFlowCache, Tier::kSteps, Tier::kInterpreted}) {
    SCOPED_TRACE(static_cast<int>(tier));
    Pipeline got;
    Pipeline ref;
    ConfigureConstantStages(got, tier);
    ConfigureConstantStages(ref, tier);
    const ModuleExecPlan& plan = got.ExecPlanFor(ModuleId(7));
    EXPECT_EQ(plan.flow_cacheable(), tier == Tier::kFlowCache);
    EXPECT_EQ(plan.kernel.wide_or_ternary, tier == Tier::kInterpreted);

    Rng rng(0xC0457);
    for (int burst = 0; burst < 16; ++burst) {
      std::vector<Packet> batch;
      while (batch.size() < 64) {
        // Runs of 1-6 packets of the tested row, split by a packet of an
        // unconfigured tenant.
        const std::size_t run = 1 + rng.Below(6);
        for (std::size_t k = 0; k < run; ++k)
          batch.push_back(TagRouterPacket(7, static_cast<u16>(rng.Below(5))));
        batch.push_back(TagRouterPacket(12, 1));
      }
      RunBurstAgainstReference(got, ref, batch,
                               "burst " + std::to_string(burst));
    }
    ExpectSameCounters(ref, got);
    EXPECT_GT(got.stage(1).tcam().entries_scanned(), 0u);
    const Pipeline::KernelStats ks = got.KernelSnapshot();
    switch (tier) {
      case Tier::kFlowCache:
        EXPECT_GT(got.FlowCacheSnapshot().hits, 0u);
        break;
      case Tier::kSteps:
        EXPECT_GT(ks.pkts, 0u);
        break;
      case Tier::kInterpreted:
        EXPECT_GT(ks.fallback_pkts, 0u);
        break;
    }
  }
}

// --- (d) Direct CAM write between bursts -------------------------------------
//
// A write straight into a stage's CAM, bypassing ApplyWrite, must still
// retire the row program: its probe steps memoize the last key's
// outcome, and a kept memo would replay the entry the write removed.

TEST(RowProgram, DirectCamWriteBetweenBurstsRetiresTheMemo) {
  // CALC runs the compiled steps; the tag router runs the flow cache.
  const u16 calc = 3;
  const u16 router = 4;
  CompiledModule c = MustCompile(apps::CalcSpec(), StandardAlloc(calc, 0, 4));
  ASSERT_TRUE(apps::InstallCalcEntries(c, 11));
  CompiledModule r = MakeTagRouter(StandardAlloc(router, 8, 4), 20, 3);
  Pipeline got;
  Pipeline ref;
  for (const CompiledModule* m : {&c, &r})
    for (const ConfigWrite& w : m->AllWrites()) {
      got.ApplyWrite(w);
      ref.ApplyWrite(w);
    }
  ASSERT_FALSE(got.ExecPlanFor(ModuleId(calc)).flow_cacheable());
  ASSERT_TRUE(got.ExecPlanFor(ModuleId(router)).flow_cacheable());

  std::vector<Packet> burst;
  for (int i = 0; i < 16; ++i) {
    burst.push_back(CalcPacket(calc, apps::kCalcOpAdd, 5, 6));
    burst.push_back(TagRouterPacket(router, 1));
  }
  RunBurstAgainstReference(got, ref, burst, "before the write");

  // Invalidate every valid CAM entry of both tenants, stage by stage,
  // directly — the memoized keys of the last burst now miss.
  std::size_t invalidated = 0;
  for (std::size_t s = 0; s < params::kNumStages; ++s) {
    for (std::size_t a = 0; a < params::kCamDepth; ++a) {
      CamEntry e = got.stage(s).cam().At(a);
      if (!e.valid) continue;
      e.valid = false;
      got.stage(s).cam().Write(a, e);
      ref.stage(s).cam().Write(a, e);
      ++invalidated;
    }
  }
  ASSERT_GT(invalidated, 0u);
  RunBurstAgainstReference(got, ref, burst, "after the write");
  ExpectSameCounters(ref, got);
  for (const u16 vid : {calc, router}) {
    EXPECT_EQ(got.forwarded(ModuleId(vid)), ref.forwarded(ModuleId(vid)));
    EXPECT_EQ(got.dropped(ModuleId(vid)), ref.dropped(ModuleId(vid)));
  }
}

}  // namespace
}  // namespace menshen
