#include "pipeline/kernels.hpp"

namespace menshen {

bool BuildKernelRun(const Stage* stages, std::size_t num_stages,
                    const Stage::ModuleRunContext* ctx, KernelRun& kr) {
  kr.num_steps = 0;
  for (std::size_t s = 0; s < num_stages; ++s) {
    const Stage::ModuleRunContext& c = ctx[s];
    if (c.constant) {
      if (!c.constant_hit) continue;  // constant miss: no per-packet work
      if (c.constant_vliw_plan->count == 0) continue;  // all-nop action
      KernelStep& st = kr.steps[kr.num_steps++];
      st = KernelStep{};
      st.constant = true;
      st.const_plan = c.constant_vliw_plan;
      // The matched address, for flow-cache recording (RecordKernelOutcome).
      st.memo_hit = true;
      st.memo_addr =
          static_cast<u32>(c.constant_vliw_plan - stages[s].vliw_plans_data());
      st.segment = c.segment;
      st.stage = static_cast<u8>(s);
      continue;
    }
    if (c.kx->ternary || !c.plan->one_word)
      return false;  // wide/ternary probe: interpreted plan path
    KernelStep& st = kr.steps[kr.num_steps++];
    st = KernelStep{};
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
  }
  return true;
}

void FlushKernelCounters(Stage* stages, KernelRun& kr) {
  for (std::size_t k = 0; k < kr.num_steps; ++k) {
    KernelStep& st = kr.steps[k];
    const u64 lookups = st.hits + st.misses;
    if (lookups == 0) continue;  // constant step, or no packet probed
    stages[st.stage].cam().NoteCachedLookups(lookups, st.hits);
    stages[st.stage].NoteCachedOutcomes(st.hits, st.misses);
    st.hits = st.misses = 0;
  }
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
