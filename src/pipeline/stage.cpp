#include "pipeline/stage.hpp"

#include <stdexcept>

namespace menshen {

BitVec Stage::MaskedKeyFor(const Phv& phv) const {
  const KeyExtractorEntry& kx = key_extractor_.Lookup(phv.module_id);
  const KeyMaskEntry& mask = key_mask_.Lookup(phv.module_id);
  return kx.ExtractKey(phv).masked(mask.mask);
}

Phv Stage::Process(const Phv& phv) {
  // Reference per-packet path; ProcessInPlace below is its optimized
  // mirror — keep the two in lockstep (pinned by the dataplane
  // differential test).
  const KeyExtractorEntry& kx = key_extractor_.Lookup(phv.module_id);
  const BitVec key = MaskedKeyFor(phv);
  // The match-kind bit in the module's key-extractor entry selects the
  // exact-match CAM or the ternary CAM (Appendix B); both index the same
  // VLIW action table.
  const auto address = kx.ternary ? tcam_.Lookup(key, phv.module_id)
                                  : cam_.Lookup(key, phv.module_id);
  if (!address) {
    ++misses_;
    return phv;  // miss: default action is a no-op, PHV passes unchanged
  }
  ++hits_;
  const VliwEntry& vliw = VliwAt(*address);
  return ActionEngine::Execute(vliw, phv, stateful_);
}

const Stage::KeyPlan& Stage::PlanFor(std::size_t row) {
  KeyPlan& plan = key_plans_[row];
  const u64 stamp = key_extractor_.version() + key_mask_.version();
  if (plan.built_at_version != stamp) {
    const KeyExtractorEntry& kx = key_extractor_.At(row);
    const BitVec& mask = key_mask_.At(row).mask;
    plan.skip_extraction = mask.is_zero();
    plan.active_slots = 0;
    const auto slots = KeySlots();
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (mask.field(slots[i].lsb, slots[i].bits) != 0)
        plan.active_slots |= static_cast<u8>(1u << i);
    plan.pred_active = mask.field(0, 1) != 0 && kx.cmp_op != CmpOp::kNone;
    // The masked key fits one 64-bit word when the mask keeps no bit
    // above 63 (an all-zero mask qualifies too: the u64 key is just 0).
    plan.one_word = mask.high_words_zero();
    plan.word_mask = plan.one_word ? mask.word(0) : 0;
    plan.built_at_version = stamp;
  }
  return plan;
}

void Stage::MaskedKeyIntoWith(const KeyExtractorEntry& kx,
                              const KeyMaskEntry& mask, const Phv& phv,
                              BitVec& key) {
  MaskedKeyWithPlan(kx, mask, PlanFor(key_extractor_.IndexFor(phv.module_id)),
                    phv, key);
}

void Stage::MaskedKeyWithPlan(const KeyExtractorEntry& kx,
                              const KeyMaskEntry& mask, const KeyPlan& plan,
                              const Phv& phv, BitVec& key) {
  if (plan.skip_extraction) {
    // An all-zero mask (no table configured for this module in this
    // stage) forces the masked key — predicate bit included — to zero
    // whatever the PHV holds, so extraction can be skipped outright.
    // The caller's CAM lookup still runs: a module may own an all-zero
    // entry.
    key.AssignZero(params::kKeyBits);
    return;
  }
  kx.ExtractKeyPartialInto(phv, plan.active_slots, plan.pred_active, key);
  key.AndWith(mask.mask);
}

void Stage::MaskedKeyInto(const Phv& phv, BitVec& key) {
  MaskedKeyIntoWith(key_extractor_.Lookup(phv.module_id),
                    key_mask_.Lookup(phv.module_id), phv, key);
}

void Stage::ResolveRun(ModuleId module, ModuleRunContext& ctx) {
  ctx.kx = &key_extractor_.Lookup(module);
  ctx.mask = &key_mask_.Lookup(module);
  ctx.plan = &PlanFor(key_extractor_.IndexFor(module));
  ctx.segment = stateful_.ResolveSegment(module);
  ctx.constant = ctx.plan->skip_extraction;
  ctx.constant_hit = false;
  ctx.constant_vliw_plan = nullptr;
  ctx.constant_scanned = 0;
  ctx.word_index = nullptr;
  ctx.key_index = nullptr;
  if (!ctx.constant) {
    if (!ctx.kx->ternary) {
      if (ctx.plan->one_word)
        ctx.word_index = cam_.WordIndexFor(module);
      else
        ctx.key_index = cam_.KeyIndexFor(module);
    }
    return;
  }

  // All-zero mask: the masked key — predicate bit included — is zero for
  // every packet, so the lookup result is fixed.  Probe once, quietly;
  // AccountConstantRun counts it per run.
  std::optional<std::size_t> address;
  if (ctx.kx->ternary) {
    key_scratch_.AssignZero(params::kKeyBits);
    address = tcam_.LookupQuiet(key_scratch_, module, ctx.constant_scanned);
  } else if (const auto* index = cam_.WordIndexFor(module)) {
    // A zero key trivially fits one word: word-index probe.
    address = index->Find(0);
  }
  if (address) {
    ctx.constant_hit = true;
    ctx.constant_vliw_plan = &vliw_plans_[*address];
  }
}

void Stage::ProcessRun(Phv& phv, const ModuleRunContext& ctx) {
  if (ctx.constant) {
    // Lookup resolved by ResolveRun and counted by AccountConstantRun;
    // only the action runs per packet.
    if (ctx.constant_hit)
      ActionEngine::ExecuteCompiled(*ctx.constant_vliw_plan, phv,
                                    snapshot_scratch_, ctx.segment);
    return;
  }

  const KeyExtractorEntry& kx = *ctx.kx;
  const KeyPlan& plan = *ctx.plan;
  std::optional<std::size_t> address;
  if (!kx.ternary && plan.one_word) {
    const u64 key =
        kx.ExtractKeyWord0(phv, plan.active_slots, plan.pred_active) &
        plan.word_mask;
    address = cam_.LookupWordWith(ctx.word_index, key);
  } else {
    MaskedKeyWithPlan(kx, *ctx.mask, plan, phv, key_scratch_);
    address = kx.ternary ? tcam_.Lookup(key_scratch_, phv.module_id)
                         : cam_.LookupWith(ctx.key_index, key_scratch_);
  }
  if (!address) {
    ++misses_;
    return;  // miss: default action is a no-op, PHV passes unchanged
  }
  ++hits_;
  ActionEngine::ExecuteCompiled(vliw_plans_[*address], phv, snapshot_scratch_,
                                ctx.segment);
}

void Stage::ProcessInPlace(Phv& phv) {
  const KeyExtractorEntry& kx = key_extractor_.Lookup(phv.module_id);
  const KeyMaskEntry& mask = key_mask_.Lookup(phv.module_id);
  std::optional<std::size_t> address;
  const KeyPlan& plan = PlanFor(key_extractor_.IndexFor(phv.module_id));
  if (!kx.ternary && plan.one_word) {
    // One-word fast path: the module's masked key layout fits word 0, so
    // the key is extracted straight into a u64 and the CAM lookup is an
    // integer word-index probe.  Byte-identical to the wide path below
    // (pinned by the randomized match-index differential test).
    const u64 key = plan.skip_extraction
                        ? 0
                        : (kx.ExtractKeyWord0(phv, plan.active_slots,
                                              plan.pred_active) &
                           plan.word_mask);
    address = cam_.LookupWord(key, phv.module_id);
  } else {
    MaskedKeyWithPlan(kx, mask, plan, phv, key_scratch_);
    address = kx.ternary ? tcam_.Lookup(key_scratch_, phv.module_id)
                         : cam_.Lookup(key_scratch_, phv.module_id);
  }
  if (!address) {
    ++misses_;
    return;  // miss: default action is a no-op, PHV passes unchanged
  }
  ++hits_;
  ActionEngine::ExecuteInPlace(VliwAt(*address), phv, snapshot_scratch_,
                               stateful_);
}

void Stage::WriteVliw(std::size_t index, VliwEntry entry) {
  if (index >= vliw_table_.size())
    throw std::out_of_range("VLIW table index out of range");
  vliw_table_[index] = std::move(entry);
  vliw_plans_[index] = VliwPlan::Compile(vliw_table_[index]);
  ++vliw_version_;
}

const VliwEntry& Stage::VliwAt(std::size_t index) const {
  if (index >= vliw_table_.size())
    throw std::out_of_range("VLIW table index out of range");
  return vliw_table_[index];
}

}  // namespace menshen
