#include "pipeline/kernels.hpp"

#include <string>

#include "packet/arena.hpp"
#include "packet/packet.hpp"
#include "pipeline/action_engine.hpp"
#include "pipeline/plan_exec.hpp"

namespace menshen {

namespace {

/// One step against the evolving PHV.  kMultiSlot=false is the
/// single-slot specialization: every VLIW plan reachable through the
/// row has at most one active slot, so there is never a snapshot and
/// never a slot loop (count <= 1 implies in_place_safe).
template <bool kMultiSlot>
inline void RunStep(KernelStep& st, Phv& phv, Phv& snapshot) {
  const VliwPlan* plan;
  if (st.constant) {
    // Resolved (and fully accounted) by Stage::BeginRun.
    plan = st.const_plan;
  } else {
    // Precompiled extraction where possible: raw big-endian loads at
    // fixed PHV offsets (BuildKernelRun resolved the containers once).
    const u64 key =
        (st.key_nparts >= 0
             ? KeyExtractorEntry::LoadWord0(phv.raw().data(), st.key_parts,
                                            st.key_nparts)
             : st.kx->ExtractKeyWord0(phv, st.active_slots, st.pred_active)) &
        st.word_mask;
    // Quiet probe with a last-key memo — the CAM cannot change mid-run,
    // so a repeated key replays the previous outcome without re-scanning.
    // Counter deltas accumulate below and flush once per run.
    if (!st.memo_valid || key != st.memo_key) {
      st.memo_valid = true;
      st.memo_key = key;
      st.memo_hit = false;
      if (st.word_index != nullptr) {
        if (const auto address = st.word_index->Find(key)) {
          st.memo_hit = true;
          st.memo_addr = static_cast<u32>(*address);
        }
      }
    }
    if (!st.memo_hit) {
      ++st.misses;
      return;  // miss: default action is a no-op
    }
    ++st.hits;
    plan = st.vliw_plans + st.memo_addr;
  }
  if constexpr (kMultiSlot) {
    ActionEngine::ExecuteCompiled(*plan, phv, snapshot, st.segment);
  } else {
    // One compiled slot, operands read before its write: in == out.
    if (plan->count != 0) {
      u8* const bytes = phv.mutable_raw().data();
      ActionEngine::ApplyCompiledSlot(plan->slots[0], bytes, bytes,
                                      st.segment);
    }
  }
}

/// The straight-line kernel: one fused function per shape and packet
/// type.  kSteps is a compile-time constant so the stage loop unrolls;
/// parse, probes, effects and deparse make a single pass over one
/// scratch PHV, Clear()ed and reused per packet, and the packet's bytes
/// and sidebands are rewritten in place.  kStateful only differentiates
/// the shape id (stateless instances let the compiler drop the segment
/// plumbing after inlining).
template <typename PacketT, int kSteps, bool kStateful, bool kMultiSlot>
void KernelBody(KernelRun& kr, const KernelCtx<PacketT>& ctx) {
  Phv& phv = *ctx.work;
  for (std::size_t k = 0; k < ctx.n; ++k) {
    PacketT& pkt = *ctx.pkts[ctx.idx[k]];
    if (k + 4 < ctx.n) PrefetchPacket(*ctx.pkts[ctx.idx[k + 4]]);

    phv.Clear();
    PlannedParseInto(pkt, phv, *kr.parse);

    for (int s = 0; s < kSteps; ++s)
      RunStep<kMultiSlot>(kr.steps[static_cast<std::size_t>(s)], phv,
                          *ctx.snapshot);

    // Multicast resolution (traffic-manager side, consulted by the
    // deparser) — identical to the interpreted tail.
    const u16 group = phv.meta_u16(meta::kMulticastGroup);
    if (group != 0) {
      const auto it = ctx.mcast->find(group);
      if (it != ctx.mcast->end()) pkt.multicast_ports = it->second;
    }

    PlannedDeparseFrom(phv, pkt, *kr.deparse);

    if (pkt.disposition == Disposition::kDrop)
      ++*ctx.drop;
    else
      ++*ctx.fwd;
  }
}

template <typename PacketT, int kSteps>
void RegisterSteps(std::array<KernelFn<PacketT>, kKernelShapeCount>& table) {
  table[KernelShapeId(kSteps, false, false, false)] =
      &KernelBody<PacketT, kSteps, false, false>;
  table[KernelShapeId(kSteps, true, false, false)] =
      &KernelBody<PacketT, kSteps, true, false>;
  table[KernelShapeId(kSteps, false, true, false)] =
      &KernelBody<PacketT, kSteps, false, true>;
  table[KernelShapeId(kSteps, true, true, false)] =
      &KernelBody<PacketT, kSteps, true, true>;
}

template <typename PacketT>
std::array<KernelFn<PacketT>, kKernelShapeCount> BuildRegistry() {
  // Shapes with the wide/ternary bit set — and step counts beyond
  // kNumStages, which no run can present — stay nullptr: the dispatcher
  // routes them to the interpreted plan path.
  std::array<KernelFn<PacketT>, kKernelShapeCount> table{};
  static_assert(params::kNumStages == 5,
                "RegisterSteps instantiations track kNumStages");
  RegisterSteps<PacketT, 0>(table);
  RegisterSteps<PacketT, 1>(table);
  RegisterSteps<PacketT, 2>(table);
  RegisterSteps<PacketT, 3>(table);
  RegisterSteps<PacketT, 4>(table);
  RegisterSteps<PacketT, 5>(table);
  return table;
}

}  // namespace

template <typename PacketT>
const std::array<KernelFn<PacketT>, kKernelShapeCount>& KernelRegistry() {
  static const std::array<KernelFn<PacketT>, kKernelShapeCount> table =
      BuildRegistry<PacketT>();
  return table;
}

template const std::array<KernelFn<Packet>, kKernelShapeCount>&
KernelRegistry<Packet>();
template const std::array<KernelFn<ArenaPacket>, kKernelShapeCount>&
KernelRegistry<ArenaPacket>();

const char* KernelShapeName(u8 shape) {
  static const std::array<std::string, kKernelShapeCount> names = [] {
    std::array<std::string, kKernelShapeCount> n;
    for (std::size_t id = 0; id < kKernelShapeCount; ++id) {
      // Built front to back by appends: GCC 12 reports a false-positive
      // -Wrestrict on prepending to a string through a temporary.
      std::string& s = n[id];
      if (id & 0x20u) s += "wide/ternary:";
      s += 's';
      s += std::to_string(id & 0x7u);
      if (id & 0x08u) s += "+stateful";
      if (id & 0x10u) s += "+multislot";
    }
    return n;
  }();
  return names[shape & (kKernelShapeCount - 1)].c_str();
}

bool BuildKernelRun(const Stage* stages, std::size_t num_stages,
                    const Stage::ModuleRunContext* ctx,
                    const ModuleExecPlan& plan, KernelRun& kr) {
  kr.num_steps = 0;
  kr.parse = &plan.parse;
  kr.deparse = &plan.deparse;
  for (std::size_t s = 0; s < num_stages; ++s) {
    const Stage::ModuleRunContext& c = ctx[s];
    if (c.constant) {
      if (!c.constant_hit) continue;  // constant miss: no per-packet work
      if (c.constant_vliw_plan->count == 0) continue;  // all-nop action
      KernelStep& st = kr.steps[kr.num_steps++];
      st.constant = true;
      st.const_plan = c.constant_vliw_plan;
      // The matched address, for flow-cache recording (RecordKernelOutcome).
      st.memo_hit = true;
      st.memo_addr =
          static_cast<u32>(c.constant_vliw_plan - stages[s].vliw_plans_data());
      st.segment = c.segment;
      st.stage = static_cast<u8>(s);
      st.hits = st.misses = 0;
      continue;
    }
    if (c.kx->ternary || !c.plan->one_word)
      return false;  // wide/ternary probe: interpreted plan path
    KernelStep& st = kr.steps[kr.num_steps++];
    st.constant = false;
    st.kx = c.kx;
    st.key_nparts = c.kx->CompileWord0(c.plan->active_slots,
                                       c.plan->pred_active, st.key_parts);
    st.word_index = c.word_index;
    st.vliw_plans = stages[s].vliw_plans_data();
    st.word_mask = c.plan->word_mask;
    st.active_slots = c.plan->active_slots;
    st.pred_active = c.plan->pred_active;
    st.segment = c.segment;
    st.stage = static_cast<u8>(s);
    st.memo_valid = false;
    st.hits = st.misses = 0;
  }
  return true;
}

void FlushKernelCounters(Stage* stages, KernelRun& kr) {
  for (std::size_t k = 0; k < kr.num_steps; ++k) {
    KernelStep& st = kr.steps[k];
    if (st.constant) continue;  // BeginRun accounted the whole run
    const u64 lookups = st.hits + st.misses;
    if (lookups != 0) {
      stages[st.stage].cam().NoteCachedLookups(lookups, st.hits);
      stages[st.stage].NoteCachedOutcomes(st.hits, st.misses);
    }
    st.hits = st.misses = 0;
  }
}

void RunKernelSteps(KernelRun& kr, Phv& phv, Phv& snapshot) {
  for (std::size_t k = 0; k < kr.num_steps; ++k)
    RunStep<true>(kr.steps[k], phv, snapshot);
}

void RecordKernelOutcome(const KernelRun& kr, FlowVerdict& v) {
  v.matched = 0;
  v.scanned = 0;
  for (std::size_t k = 0; k < kr.num_steps; ++k) {
    const KernelStep& st = kr.steps[k];
    if (!st.memo_hit) continue;  // this packet's probe missed
    FlowVerdictCache::RequireConstantPlan(
        st.constant ? *st.const_plan : st.vliw_plans[st.memo_addr]);
    v.matched |= static_cast<u8>(1u << st.stage);
    v.address[st.stage] = static_cast<u8>(st.memo_addr);
  }
}

}  // namespace menshen
