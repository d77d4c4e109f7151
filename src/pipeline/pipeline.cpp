#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/exec_tier.hpp"
#include "packet/arena.hpp"
#include "pipeline/plan_exec.hpp"

namespace menshen {

Pipeline::Pipeline(PipelineTiming timing, bool reconfig_on_data_path)
    : timing_(timing),
      filter_(timing.deparsers, reconfig_on_data_path),
      stages_(params::kNumStages) {}

u64 Pipeline::ConfigVersionSum() const {
  // Every configuration mutation path bumps one of these monotonic
  // counters, so the sum moves on any write — epoch commits, direct
  // table writes from tests, and ResizeShards config-log replay alike.
  u64 sum = parser_.table().version() + deparser_.table().version();
  for (const Stage& stage : stages_)
    sum += stage.key_extractor().version() + stage.key_mask().version() +
           stage.cam().version() + stage.tcam().version() +
           stage.vliw_version();
  return sum;
}

const ModuleExecPlan& Pipeline::ExecPlanFor(ModuleId module) {
  const std::size_t row = parser_.table().IndexFor(module);
  CachedExecPlan& cached = exec_plans_[row];
  const u64 stamp = ConfigVersionSum();
  if (cached.built_at_version != stamp) {
    cached.plan = CompileModuleExecPlan(parser_.table().At(row),
                                        deparser_.table().At(row),
                                        stages_.data(), stages_.size(), row);
    cached.built_at_version = stamp;
  }
  return cached.plan;
}

Pipeline::KernelStats Pipeline::KernelSnapshot() const {
  KernelStats s;
  s.pkts = kernel_pkts_.load();
  s.fallback_pkts = kernel_fallback_pkts_.load();
  s.record_fills = kernel_record_fills_.load();
  for (std::size_t i = 0; i < kKernelShapeCount; ++i)
    s.shape_pkts[i] = kernel_shape_pkts_[i].load();
  return s;
}

ModuleExecPlan Pipeline::DescribeRow(ModuleId module) const {
  const std::size_t row = parser_.table().IndexFor(module);
  return CompileModuleExecPlan(parser_.table().At(row),
                               deparser_.table().At(row), stages_.data(),
                               stages_.size(), row);
}

FlowRowState& Pipeline::FlowRowFor(ModuleId module) {
  const std::size_t row = parser_.table().IndexFor(module);
  const ModuleExecPlan& plan = ExecPlanFor(module);
  // ExecPlanFor just stamped this row with the current ConfigVersionSum.
  return flow_cache_.EnsureRow(row, exec_plans_[row].built_at_version,
                               stages_.data(), stages_.size(), plan);
}

template <typename PacketT>
void Pipeline::Emit(PacketT& pkt, const Phv& phv, const DeparsePlan& deparse,
                    u64& fwd, u64& drop) {
  // Multicast ports resolve live (traffic-manager side, consulted by the
  // deparser): the group table has no version counter, so the flow
  // cache records only the group id.
  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) {
    if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
  }

  PlannedDeparseFrom(phv, pkt, deparse);

  if (pkt.disposition == Disposition::kDrop)
    ++drop;
  else
    ++fwd;
}

template <typename PacketT>
bool Pipeline::ResolveCached(PacketT& pkt, Phv& phv, FlowRowState& frow,
                             const FlowVerdictCache::Probe& probe,
                             ModuleId module,
                             const FlowVerdictCache::KeyWordArray& words,
                             KernelRun* kr, const VliwPlan* const* plans,
                             FlowVerdictCache::RunTally& tally) {
  FlowVerdict& slot = *probe.slot;
  if (probe.hit) {
    FlowVerdictCache::Replay(slot, plans, phv);
    FlowVerdictCache::Tally(tally, slot);
    pkt.exec_tier = static_cast<u8>(ExecTier::kFlowCacheHit);
    pkt.exec_steps = 0;
    return true;
  }
  if (kr != nullptr) {
    // The miss runs the run's compiled kernel steps, which account their
    // own probes; an admitted miss records what the steps matched.
    RunKernelSteps(*kr, phv, kernel_snapshot_scratch_);
    if (flow_cache_.Admit(frow, probe)) {
      RecordKernelOutcome(*kr, slot);
      FlowVerdictCache::Store(slot, module, words, probe.sketch);
    }
    pkt.exec_tier = static_cast<u8>(ExecTier::kKernel);
    pkt.exec_steps = kr->num_steps;
  } else {
    FlowVerdictCache::BuildVerdict(frow, stages_.data(), stages_.size(),
                                   module, phv, miss_verdict_);
    FlowVerdictCache::Tally(tally, miss_verdict_);
    if (flow_cache_.Admit(frow, probe)) {
      slot = miss_verdict_;
      FlowVerdictCache::Store(slot, module, words, probe.sketch);
    }
    pkt.exec_tier = static_cast<u8>(ExecTier::kInterpreted);
    pkt.exec_steps = static_cast<u8>(stages_.size());
  }
  return false;
}

template <typename PacketT>
void Pipeline::RunSpanCached(PacketT* const* pkts, const u32* idx,
                             std::size_t n, const ModuleExecPlan& plan,
                             FlowRowState& frow, ModuleId module, u64& fwd,
                             u64& drop) {
  KernelRun* const kr = BuildKernelRun(stages_.data(), stages_.size(),
                                       run_ctx_.data(), plan, kernel_run_)
                            ? &kernel_run_
                            : nullptr;
  std::array<const VliwPlan*, params::kNumStages> plans;
  for (std::size_t s = 0; s < stages_.size(); ++s)
    plans[s] = stages_[s].vliw_plans_data();
  flow_cache_.PrepareRow(frow);
  const u64 seed = FlowVerdictCache::HashSeed(module);
  const std::size_t slot_mask = frow.slots.size() - 1;
  FlowVerdictCache::RunTally tally;
  u64 hits = 0;
  // Iteration k resolves packet k - kSlotLookahead from its lane, then
  // refills the lane with packet k: parse, gather and hash the probing
  // stages' key words (constant-key stages keep the word 0 the array
  // starts with), and prefetch the slot line the packet will probe.
  for (std::size_t k = 0; k < n + kSlotLookahead; ++k) {
    CachedLane& lane = cached_lanes_[k % kSlotLookahead];
    if (k >= kSlotLookahead) {
      PacketT& pkt = *pkts[idx[k - kSlotLookahead]];
      const FlowVerdictCache::Probe probe =
          flow_cache_.Lookup(frow, module, lane.words, lane.hash);
      hits += ResolveCached(pkt, lane.phv, frow, probe, module, lane.words,
                            kr, plans.data(), tally);
      if (tally.lanes == FlowVerdictCache::kTallyChunk)
        FlowVerdictCache::FlushTally(tally, frow, stages_.data(),
                                     stages_.size());
      Emit(pkt, lane.phv, plan.deparse, fwd, drop);
    }
    if (k >= n) continue;
    if (k + 4 < n) PrefetchPacket(*pkts[idx[k + 4]]);
    lane.phv.Clear();
    PlannedParseInto(*pkts[idx[k]], lane.phv, plan.parse);
    lane.words = {};
    u64 h = seed;
    for (u8 g = 0; g < plan.gather.count; ++g) {
      const std::size_t s = plan.gather.stages[g];
      lane.words[s] = frow.keys[s].Word(lane.phv);
      h = FlowVerdictCache::HashWord(h, lane.words[s]);
    }
    lane.hash = FlowVerdictCache::FinishHash(h);
    __builtin_prefetch(
        &frow.slots[static_cast<std::size_t>(lane.hash) & slot_mask]);
  }
  FlowVerdictCache::FlushTally(tally, frow, stages_.data(), stages_.size());
  if (kr != nullptr) {
    FlushKernelCounters(stages_.data(), *kr);
    if (hits != n) kernel_record_fills_.Add(n - hits);
  }
  flow_cache_.NoteRun(n, hits);
  total_processed_ += n;
}

template <typename PacketT>
void Pipeline::RunOne(PacketT& pkt, const ModuleExecPlan& plan, u64& fwd,
                      u64& drop) {
  ++total_processed_;
  phv_.Clear();
  PlannedParseInto(pkt, phv_, plan.parse);
  for (std::size_t s = 0; s < stages_.size(); ++s)
    stages_[s].ProcessRun(phv_, run_ctx_[s]);
  pkt.exec_tier = static_cast<u8>(ExecTier::kInterpreted);
  pkt.exec_steps = static_cast<u8>(stages_.size());
  Emit(pkt, phv_, plan.deparse, fwd, drop);
}

template <typename PacketT>
void Pipeline::RunSpan(PacketT* const* pkts, const u32* idx, std::size_t n,
                       const ModuleExecPlan& plan, u64& fwd, u64& drop) {
  if (!plan.kernel.wide_or_ternary &&
      BuildKernelRun(stages_.data(), stages_.size(), run_ctx_.data(), plan,
                     kernel_run_)) {
    const u8 shape = KernelShapeId(kernel_run_.num_steps, plan.kernel.stateful,
                                   plan.kernel.multi_slot, false);
    if (const KernelFn<PacketT> fn = KernelRegistry<PacketT>()[shape]) {
      KernelCtx<PacketT> ctx;
      ctx.pkts = pkts;
      ctx.idx = idx;
      ctx.n = n;
      ctx.mcast = &mcast_groups_;
      ctx.fwd = &fwd;
      ctx.drop = &drop;
      ctx.snapshot = &kernel_snapshot_scratch_;
      ctx.work = &phv_;
      fn(kernel_run_, ctx);
      FlushKernelCounters(stages_.data(), kernel_run_);
      total_processed_ += n;
      kernel_pkts_.Add(n);
      kernel_shape_pkts_[shape].Add(n);
      for (std::size_t k = 0; k < n; ++k) {
        pkts[idx[k]]->exec_tier = static_cast<u8>(ExecTier::kKernel);
        pkts[idx[k]]->exec_steps = kernel_run_.num_steps;
      }
      return;
    }
  }
  kernel_fallback_pkts_.Add(n);
  for (std::size_t k = 0; k < n; ++k) RunOne(*pkts[idx[k]], plan, fwd, drop);
}

void Pipeline::GrowIndexScratch(std::size_t n) {
  data_idx_scratch_.resize(n);
}

template <typename PacketT>
void Pipeline::RunBurst(PacketT* const* pkts, std::size_t n) {
  // Sized once per burst, outside the loop: the per-packet appends are
  // plain stores with no capacity check or reallocation path.
  if (data_idx_scratch_.size() < n) GrowIndexScratch(n);
  u32* const idx = data_idx_scratch_.data();
  std::size_t count = 0;       // data packets indexed so far
  std::size_t span_start = 0;  // index into idx
  ModuleId span_module(0);
  for (std::size_t i = 0; i <= n; ++i) {
    if (i < n) {
      if (i + 4 < n) PrefetchPacket(*pkts[i + 4]);
      PacketT& pkt = *pkts[i];

      // Disposition fields are per-device sidebands, not packet bytes: a
      // packet entering this pipeline carries none of the previous
      // device's forwarding decisions.
      pkt.disposition = Disposition::kForward;
      pkt.egress_port = 0;
      pkt.multicast_ports.clear();
      pkt.exec_tier = static_cast<u8>(ExecTier::kNone);
      pkt.exec_steps = 0;

      const FilterVerdict verdict = filter_.Classify(pkt);
      pkt.verdict = static_cast<u8>(verdict);
      if (verdict != FilterVerdict::kData) {
        if (verdict == FilterVerdict::kDropBitmap)
          ++dropped_[pkt.vid().value()];
        continue;
      }
      const ModuleId vid = pkt.vid();
      if (count == span_start || vid == span_module) {
        // Extends the open span (or opens the first one).
        span_module = vid;
        idx[count++] = static_cast<u32>(i);
        continue;
      }
      // Tenant change: execute the open span below, then start a new
      // one with this packet.
    } else if (count == span_start) {
      break;  // end of burst, no span left to flush
    }

    const ModuleId module = span_module;
    const std::size_t a = span_start;
    const std::size_t b = count;

    const ModuleExecPlan& plan = ExecPlanFor(module);
    // BeginRun resolves the per-stage contexts AND accounts constant-key
    // stages for the run — required on the cached path too, which skips
    // ProcessRun but relies on that accounting.
    for (std::size_t s = 0; s < stages_.size(); ++s)
      stages_[s].BeginRun(module, b - a, run_ctx_[s]);
    // unordered_map references are stable across inserts, so the run's
    // counter slots are hoisted out of the packet loop.
    u64& fwd = forwarded_[module.value()];
    u64& drop = dropped_[module.value()];

    const std::size_t row = parser_.table().IndexFor(module);
    FlowRowState& frow = flow_cache_.EnsureRow(
        row, exec_plans_[row].built_at_version, stages_.data(),
        stages_.size(), plan);
    if (frow.eligible) {
      // Provably stateless row: every packet goes through the
      // flow-verdict cache.
      RunSpanCached(pkts, idx + a, b - a, plan, frow, module, fwd, drop);
    } else {
      RunSpan(pkts, idx + a, b - a, plan, fwd, drop);
    }
    span_start = b;
    if (i < n) {
      // The packet that closed the previous span opens the next one.
      span_module = pkts[i]->vid();
      idx[count++] = static_cast<u32>(i);
    }
  }
}

void TakeResult(Packet& pkt, PipelineResult& result) {
  result.filter_verdict = static_cast<FilterVerdict>(pkt.verdict);
  result.exec_tier = pkt.exec_tier;
  result.exec_steps = pkt.exec_steps;
  if (result.filter_verdict == FilterVerdict::kData)
    result.output = std::move(pkt);
}

PipelineResult Pipeline::Process(Packet pkt) {
  Packet* const p = &pkt;
  RunBurst(&p, 1);
  PipelineResult result;
  TakeResult(pkt, result);
  return result;
}

void Pipeline::ProcessBatchInto(std::vector<Packet>&& batch,
                                std::vector<PipelineResult>& out) {
  const std::size_t n = batch.size();
  batch_ptrs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) batch_ptrs_[i] = &batch[i];
  RunBurst(batch_ptrs_.data(), n);
  out.reserve(out.size() + n);
  for (Packet& pkt : batch) TakeResult(pkt, out.emplace_back());
}

std::vector<PipelineResult> Pipeline::ProcessBatch(
    std::vector<Packet>&& batch) {
  std::vector<PipelineResult> out;
  ProcessBatchInto(std::move(batch), out);
  return out;
}

void Pipeline::ProcessStreamBurst(ArenaPacket* const* pkts, std::size_t n) {
  RunBurst(pkts, n);
}

void Pipeline::ProcessStreamBurst(Packet* const* pkts, std::size_t n) {
  RunBurst(pkts, n);
}

PipelineResult Pipeline::ProcessUnplanned(Packet pkt) {
  // The linear reference path: full parse, per-packet overlay reads,
  // full deparse.  tests/test_exec_plan.cpp pins the compiled-plan paths
  // against this on every tenant-observable output.
  pkt.disposition = Disposition::kForward;
  pkt.egress_port = 0;
  pkt.multicast_ports.clear();

  PipelineResult result;
  result.filter_verdict = filter_.Classify(pkt);
  if (result.filter_verdict != FilterVerdict::kData) {
    if (result.filter_verdict == FilterVerdict::kDropBitmap)
      ++dropped_[pkt.vid().value()];
    return result;
  }

  ++total_processed_;
  Phv phv = parser_.Parse(pkt);
  for (Stage& stage : stages_) phv = stage.Process(phv);

  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) {
    if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
  }

  deparser_.Deparse(phv, pkt);

  if (pkt.disposition == Disposition::kDrop)
    ++dropped_[phv.module_id.value()];
  else
    ++forwarded_[phv.module_id.value()];

  result.exec_tier = static_cast<u8>(ExecTier::kUnplanned);
  result.exec_steps = static_cast<u8>(stages_.size());
  result.final_phv = phv;
  result.output = std::move(pkt);
  return result;
}

void Pipeline::ApplyWrite(const ConfigWrite& write) {
  if (write.payload.size() != EntryBytesFor(write.kind))
    throw std::invalid_argument("config payload size mismatch for " +
                                std::string(ResourceKindName(write.kind)));

  const auto stage_index = [&]() -> std::size_t {
    if (write.stage >= stages_.size())
      throw std::out_of_range("config write addresses nonexistent stage");
    return write.stage;
  };

  switch (write.kind) {
    case ResourceKind::kParserTable:
      parser_.table().Write(write.index, ParserEntry::Decode(write.payload));
      break;
    case ResourceKind::kDeparserTable:
      deparser_.table().Write(write.index,
                              DeparserEntry::Decode(write.payload));
      break;
    case ResourceKind::kKeyExtractor:
      stages_[stage_index()].key_extractor().Write(
          write.index, KeyExtractorEntry::Decode(write.payload));
      break;
    case ResourceKind::kKeyMask:
      stages_[stage_index()].key_mask().Write(
          write.index, KeyMaskEntry::Decode(write.payload));
      break;
    case ResourceKind::kCamEntry:
      stages_[stage_index()].cam().Write(write.index,
                                         CamEntry::Decode(write.payload));
      break;
    case ResourceKind::kVliwAction:
      stages_[stage_index()].WriteVliw(write.index,
                                       VliwEntry::Decode(write.payload));
      break;
    case ResourceKind::kSegmentTable:
      stages_[stage_index()].stateful().segment_table().Write(
          write.index, SegmentEntry::Decode(write.payload));
      break;
    case ResourceKind::kTcamEntry:
      stages_[stage_index()].tcam().Write(write.index,
                                          TcamEntry::Decode(write.payload));
      break;
  }
  ++config_writes_;
  filter_.IncrementReconfigCounter();
}

void Pipeline::SetMulticastGroup(u16 group, std::vector<u16> ports) {
  if (group == 0)
    throw std::invalid_argument("multicast group 0 means 'no multicast'");
  mcast_groups_[group] = std::move(ports);
}

const std::vector<u16>* Pipeline::MulticastGroup(u16 group) const {
  const auto it = mcast_groups_.find(group);
  return it == mcast_groups_.end() ? nullptr : &it->second;
}

std::vector<ModuleId> Pipeline::ActiveModules() const {
  std::set<u16> ids;
  for (const auto& [id, count] : forwarded_)
    if (count != 0) ids.insert(id);
  for (const auto& [id, count] : dropped_)
    if (count != 0) ids.insert(id);
  std::vector<ModuleId> out;
  out.reserve(ids.size());
  for (const u16 id : ids) out.emplace_back(id);
  return out;
}

u64 Pipeline::forwarded(ModuleId m) const {
  const auto it = forwarded_.find(m.value());
  return it == forwarded_.end() ? 0 : it->second;
}

u64 Pipeline::dropped(ModuleId m) const {
  const auto it = dropped_.find(m.value());
  return it == dropped_.end() ? 0 : it->second;
}

}  // namespace menshen
