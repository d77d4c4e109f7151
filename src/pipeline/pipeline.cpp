#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/exec_tier.hpp"
#include "packet/arena.hpp"
#include "pipeline/plan_exec.hpp"

namespace menshen {

Pipeline::Pipeline(PipelineTiming timing, bool reconfig_on_data_path)
    : timing_(timing),
      filter_(timing.deparsers, reconfig_on_data_path),
      stages_(params::kNumStages) {}

u64 Pipeline::ConfigStamp() const {
  // Every configuration mutation path bumps one of these monotonic
  // counters, so the sum moves on any write — epoch commits, direct
  // table writes from tests, and ResizeShards config-log replay alike.
  u64 sum = parser_.table().version() + deparser_.table().version();
  for (const Stage& stage : stages_) sum += stage.ConfigVersion();
  return sum;
}

Pipeline::RowProgram& Pipeline::BuildProgram(ModuleId module, u64 stamp) {
  const std::size_t row = parser_.table().IndexFor(module);
  std::unique_ptr<RowProgram>& slot = programs_[row];
  if (slot == nullptr) slot = std::make_unique<RowProgram>();
  RowProgram& prog = *slot;
  if (prog.plan_stamp != stamp) {
    // The plan is a function of the row alone; aliasing module IDs
    // alternating on one row re-resolve only what follows.
    prog.plan = CompileModuleExecPlan(parser_.table().At(row),
                                      deparser_.table().At(row),
                                      stages_.data(), stages_.size(), row);
    prog.plan_stamp = stamp;
  }
  prog.constant_stages = 0;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    stages_[s].ResolveRun(module, prog.ctx[s]);
    if (prog.ctx[s].constant) prog.constant_stages |= static_cast<u8>(1u << s);
    prog.vliw_plans[s] = stages_[s].vliw_plans_data();
  }
  prog.kernel = BuildKernelRun(stages_.data(), stages_.size(),
                               prog.ctx.data(), prog.steps);
  prog.frow = &flow_cache_.EnsureRow(row, stamp, stages_.data(),
                                     stages_.size(), prog.plan);
  prog.hash_seed = FlowVerdictCache::HashSeed(module);
  prog.forwarded = &forwarded_[module.value()];
  prog.dropped = &dropped_[module.value()];
  prog.module = module;
  prog.stamp = stamp;
  return prog;
}

const ModuleExecPlan& Pipeline::ExecPlanFor(ModuleId module) {
  return ProgramFor(module, ConfigStamp()).plan;
}

Pipeline::KernelStats Pipeline::KernelSnapshot() const {
  KernelStats s;
  s.pkts = kernel_pkts_.load();
  s.fallback_pkts = kernel_fallback_pkts_.load();
  s.record_fills = kernel_record_fills_.load();
  return s;
}

ModuleExecPlan Pipeline::DescribeRow(ModuleId module) const {
  const std::size_t row = parser_.table().IndexFor(module);
  return CompileModuleExecPlan(parser_.table().At(row),
                               deparser_.table().At(row), stages_.data(),
                               stages_.size(), row);
}

FlowRowState& Pipeline::FlowRowFor(ModuleId module) {
  return *ProgramFor(module, ConfigStamp()).frow;
}

template <typename PacketT>
void Pipeline::AssignMulticast(PacketT& pkt, u16 group) const {
  if (const auto* ports = MulticastGroup(group)) pkt.multicast_ports = *ports;
}

template <typename PacketT>
void Pipeline::Emit(PacketT& pkt, const Phv& phv, const DeparsePlan& deparse,
                    u64& fwd, u64& drop) {
  // Multicast ports resolve live (traffic-manager side, consulted by the
  // deparser): the group table has no version counter, so the flow
  // cache records only the group id.
  const u16 group = phv.meta_u16(meta::kMulticastGroup);
  if (group != 0) [[unlikely]]
    AssignMulticast(pkt, group);

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
                             std::size_t n, RowProgram& prog) {
  const ModuleExecPlan& plan = prog.plan;
  FlowRowState& frow = *prog.frow;
  const ModuleId module = prog.module;
  KernelRun* const kr = prog.kernel ? &prog.steps : nullptr;
  flow_cache_.PrepareRow(frow);
  const std::size_t slot_mask = frow.slots.size() - 1;
  FlowVerdictCache::RunTally tally;
  u64 hits = 0;
  u64 fwd = 0;
  u64 drop = 0;
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
                            kr, prog.vliw_plans.data(), tally);
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
    u64 h = prog.hash_seed;
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
  flow_cache_.NoteRun(hits);
  total_processed_ += n;
  *prog.forwarded += fwd;
  *prog.dropped += drop;
}

template <typename PacketT>
void Pipeline::RunSpan(PacketT* const* pkts, const u32* idx, std::size_t n,
                       RowProgram& prog) {
  const ModuleExecPlan& plan = prog.plan;
  u64 fwd = 0;
  u64 drop = 0;
  if (prog.kernel) {
    KernelRun& kr = prog.steps;
    for (std::size_t k = 0; k < n; ++k) {
      PacketT& pkt = *pkts[idx[k]];
      if (k + 4 < n) PrefetchPacket(*pkts[idx[k + 4]]);
      phv_.Clear();
      PlannedParseInto(pkt, phv_, plan.parse);
      RunKernelSteps(kr, phv_, kernel_snapshot_scratch_);
      pkt.exec_tier = static_cast<u8>(ExecTier::kKernel);
      pkt.exec_steps = kr.num_steps;
      Emit(pkt, phv_, plan.deparse, fwd, drop);
    }
    FlushKernelCounters(stages_.data(), kr);
    kernel_pkts_.Add(n);
  } else {
    // Interpreted plan path (a wide or ternary probe): every stage runs
    // against its resolved context.
    for (std::size_t k = 0; k < n; ++k) {
      PacketT& pkt = *pkts[idx[k]];
      phv_.Clear();
      PlannedParseInto(pkt, phv_, plan.parse);
      for (std::size_t s = 0; s < stages_.size(); ++s)
        stages_[s].ProcessRun(phv_, prog.ctx[s]);
      pkt.exec_tier = static_cast<u8>(ExecTier::kInterpreted);
      pkt.exec_steps = static_cast<u8>(stages_.size());
      Emit(pkt, phv_, plan.deparse, fwd, drop);
    }
    kernel_fallback_pkts_.Add(n);
  }
  total_processed_ += n;
  *prog.forwarded += fwd;
  *prog.dropped += drop;
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
  // One stamp per burst: no configuration write lands inside a burst.
  const u64 stamp = ConfigStamp();
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

    RowProgram& prog = ProgramFor(span_module, stamp);
    const u32* const span = idx + span_start;
    const std::size_t len = count - span_start;
    // Constant-key stages are accounted per run, on every tier (the
    // cached and compiled paths skip them; ProcessRun only applies them).
    for (unsigned m = prog.constant_stages; m != 0; m &= m - 1) {
      const auto s = static_cast<std::size_t>(__builtin_ctz(m));
      stages_[s].AccountConstantRun(prog.ctx[s], len);
    }
    if (prog.frow->eligible) {
      // Provably stateless row: every packet goes through the
      // flow-verdict cache.
      RunSpanCached(pkts, span, len, prog);
    } else {
      RunSpan(pkts, span, len, prog);
    }
    span_start = count;
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

u64 Pipeline::forwarded(ModuleId m) const {
  const auto it = forwarded_.find(m.value());
  return it == forwarded_.end() ? 0 : it->second;
}

u64 Pipeline::dropped(ModuleId m) const {
  const auto it = dropped_.find(m.value());
  return it == dropped_.end() ? 0 : it->second;
}

}  // namespace menshen
