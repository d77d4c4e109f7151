// The five workloads.  Frames are 96 B unless stated; every producer
// cycles through its own seeded trace of kTracePackets frames, whose first
// pass is the untimed verification pass.
#include <array>
#include <cstring>
#include <future>

#include "packet/arena.hpp"
#include "run.hpp"

namespace e2e {

using namespace menshen;

namespace {

constexpr std::size_t kFrameBytes = 96;
constexpr std::size_t kBurst = 64;

Packet Frame(u16 vid, std::size_t bytes, u16 sport, u16 dport) {
  return PacketBuilder{}
      .vid(ModuleId(vid))
      .udp(sport, dport)
      .frame_size(bytes)
      .Build();
}

void RandomCalcRequest(Packet& p, Rng& rng) {
  p.bytes().set_u16(46, static_cast<u16>(1 + rng.Below(3)));  // add/sub/echo
  p.bytes().set_u32(48, static_cast<u32>(rng.Next()));
  p.bytes().set_u32(52, static_cast<u32>(rng.Next()));
}

void RegisterAll(Checker& c, const Trace& t, u16 first_vid, u16 count) {
  for (u16 v = first_vid; v < first_vid + count; ++v) c.Register(v, &t);
}

/// Packets handed to the dataplane, and what the reference says they
/// become.
struct Submitted {
  u64 pkts = 0;
  u64 fwd = 0;
  u64 drops = 0;
};

/// Reconciles what went in with what came out after the measured phase:
/// lost packets count as failed; counters that disagree with the
/// reference, and leaked arena buffers, are violations.
void Reconcile(Run& run, const Submitted& sub, u64 outputs,
               const Checker& checker, const Counters& total,
               std::size_t outstanding) {
  const u64 lost = sub.fwd > outputs ? sub.fwd - outputs : 0;
  if (lost != 0) run.Violation(std::to_string(lost) + " packets lost");
  if (total.forwarded != sub.fwd || total.dropped != sub.drops)
    run.Violation("dataplane counted " + std::to_string(total.forwarded) +
                  " forwarded / " + std::to_string(total.dropped) +
                  " dropped; reference says " + std::to_string(sub.fwd) +
                  " / " + std::to_string(sub.drops));
  if (outstanding != 0)
    run.Violation(std::to_string(outstanding) +
                  " arena buffers still outstanding");
  run.Count(sub.pkts, checker.mismatched + checker.reordered + lost);
  run.Add("error_frac",
          static_cast<double>(checker.mismatched + checker.reordered + lost) /
              static_cast<double>(std::max<u64>(sub.pkts, 1)),
          "ratio", sub.pkts);
}

struct LoopResult {
  TierMix mix;
  Submitted sub;
  u64 outputs = 0;
};

/// Closed loop, one producer, inline run to completion: each iteration
/// allocates a 64-packet burst, fills it from the trace, submits it and
/// collects its outputs before the next burst is sent.  `drain` collects,
/// checks and releases one burst's outputs (marking the poll, check and
/// release spans), sets `polled_at` when the dataplane handed them over,
/// and returns how many came out.  A burst's latency runs from
/// SubmitStream until then.  Every pass over the trace sends the same
/// bursts, so the loop times its fastest pass.
template <class Drain>
LoopResult ClosedLoop(Run& run, Deployment& d, const Trace& trace,
                      const Checker& checker, Drain&& drain) {
  if (trace.size() % kBurst != 0) Fail("a trace must be whole bursts");
  PacketArena arena(2 * kBurst);
  std::array<ArenaPacket*, kBurst> burst{};
  std::size_t cursor = 0;
  u64 seq = 0;
  LoopResult res;

  struct Iter {
    u64 submitted_at, done_at, completed;
  };
  const auto iterate = [&](IterationSpans& sp) {
    if (arena.AllocateBurst(burst.data(), kBurst) != kBurst)
      Fail("arena exhausted: a closed loop's outputs did not come back");
    sp.Mark(kAlloc, kBurst);
    u64 drops = 0;
    for (ArenaPacket* p : burst) {
      p->Assign(trace.Frame(cursor));
      StampU64(p->data(), kSeqOffset, seq++);
      drops += trace.drop[cursor];
      if (++cursor == trace.size()) cursor = 0;
    }
    sp.Mark(kFill, kBurst);
    const u64 submitted_at = NowNs();
    d.dp->SubmitStream(burst.data(), kBurst);
    sp.Mark(kSubmit, kBurst);
    u64 polled_at = 0;
    const u64 out = drain(sp, polled_at);
    res.sub.pkts += kBurst;
    res.sub.drops += drops;
    res.sub.fwd += kBurst - drops;
    res.outputs += out;
    return Iter{submitted_at, polled_at, out + drops};
  };

  for (std::size_t i = 0; i < trace.size() / kBurst; ++i) {
    IterationSpans off(run.tracer, false, 0);
    iterate(off);
  }

  const Counters c0 = Counters::Of(*d.dp);
  Windows win(NowNs(), run.opt().seconds, run.opt().trace);
  FastestPass fastest(trace.size() / kBurst);
  DepthSampler depth;
  for (;;) {
    const u64 start = NowNs();
    if (win.Done(start)) break;
    const std::size_t item = cursor / kBurst;
    const bool traced = run.tracer.Sample(win.Traced(start));
    IterationSpans sp(run.tracer, traced, start);
    const Iter it = iterate(sp);
    sp.Finish(kBurst);
    if (!traced)
      fastest.Record(item, NowNs() - start, it.done_at - it.submitted_at);
    win.Complete(it.done_at, it.completed);
    win.Latency(it.done_at, it.done_at - it.submitted_at);
    depth.Sample(*d.dp, it.done_at);
  }
  const u64 elapsed = NowNs() - win.start();
  win.Finish();
  const Counters total = Counters::Of(*d.dp);

  AddFastestPass(run, fastest, trace.size(), trace.bytes);
  AddWindowMetrics(run, win);
  res.mix = AddCounterLayers(run, total.Since(c0), elapsed, 1, depth);
  run.Add("packet.recycle_ratio",
          static_cast<double>(arena.recycles()) /
              static_cast<double>(std::max<u64>(arena.allocations(), 1)),
          "ratio", arena.allocations());
  if (run.opt().trace) {
    AddSpanLayers(run);
    const Tracer::Total& submit = run.tracer.total(kSubmit);
    AddPipelineLayers(run, d, {&trace}, kBurst,
                      static_cast<double>(submit.ns) /
                          static_cast<double>(std::max<u64>(submit.pkts, 1)));
    FinishTrace(run, win, /*reconcile=*/true);
  }
  Reconcile(run, res.sub, res.outputs, checker, total, arena.outstanding());
  return res;
}

/// PollEgress, check every output, ReleaseToOwners.
struct StreamDrain {
  Dataplane& dp;
  Checker& checker;
  std::vector<ArenaPacket*> egress;

  u64 operator()(IterationSpans& sp, u64& polled_at) {
    egress.clear();
    dp.PollEgress(egress);
    polled_at = NowNs();
    sp.Mark(kPoll, egress.size());
    for (const ArenaPacket* p : egress)
      checker.Check(p->data(), p->size(), p->egress_port);
    sp.Mark(kCheck, egress.size());
    ReleaseToOwners(egress.data(), egress.size());
    sp.Mark(kRelease, egress.size());
    return egress.size();
  }
};

DataplaneConfig Inline() {
  return DataplaneConfig{.num_shards = 1, .worker_threads = false};
}

}  // namespace

// --- router_zipf ----------------------------------------------------------------
// Four stateless routers keyed on a 2-byte tag drawn zipf(0.9) over 4096
// tags -- 16x a 256-slot flow-cache row -- so the burst-probe tier serves
// most packets and the tail misses and evicts.

std::unique_ptr<Deployment> BuildRouterZipf(SetupTimes& st) {
  std::vector<Tenant> ts;
  for (u16 i = 0; i < 4; ++i) ts.push_back(Router(2 + i, 4 * i, 40, st));
  auto d = std::make_unique<Deployment>(Inline());
  for (Tenant& t : ts) d->Deploy(std::move(t), st);
  return d;
}

void RunRouterZipf(Run& run, std::unique_ptr<Deployment> d) {
  Rng rng(run.opt().seed);
  const Zipf zipf(4096, 0.9);
  Trace trace;
  for (std::size_t i = 0; i < kTracePackets; ++i) {
    const u16 vid = static_cast<u16>(2 + rng.Below(4));
    Packet p = Frame(vid, kFrameBytes, static_cast<u16>(10000 + rng.Below(1024)),
                     20000);
    p.bytes().set_u16(46, static_cast<u16>(zipf.Draw(rng)));
    trace.Add(p, false);
  }
  ExpectFrom(*d->ref, trace);

  Checker checker;
  RegisterAll(checker, trace, 2, 4);
  const LoopResult r =
      ClosedLoop(run, *d, trace, checker, StreamDrain{*d->dp, checker, {}});
  Band(run, "pipeline.fc_share", r.mix.fc, 0.30, 0.95);
}

// --- calc_kernel ----------------------------------------------------------------
// Four CALC tenants with valid opcodes and random operands plus a
// NetChain sequencer: the specialized-kernel tier with stateful access.
// Neither row is flow-cacheable, so a flow-cache change predicts no
// change here.

std::unique_ptr<Deployment> BuildCalcKernel(SetupTimes& st) {
  std::vector<Tenant> ts;
  for (u16 i = 0; i < 4; ++i)
    ts.push_back(Calc(2 + i, 4 * i, static_cast<u16>(50 + i), st));
  ts.push_back(NetChain(6, 1, 60, st));
  auto d = std::make_unique<Deployment>(Inline());
  for (Tenant& t : ts) d->Deploy(std::move(t), st);
  return d;
}

void RunCalcKernel(Run& run, std::unique_ptr<Deployment> d) {
  Rng rng(run.opt().seed);
  Trace trace;
  for (std::size_t i = 0; i < kTracePackets; ++i) {
    const u16 vid = static_cast<u16>(2 + rng.Below(5));
    Packet p = Frame(vid, kFrameBytes, static_cast<u16>(10000 + rng.Below(1024)),
                     20000);
    if (vid == 6) {
      p.bytes().set_u16(46, apps::kNetChainOpSeq);
    } else {
      RandomCalcRequest(p, rng);
    }
    trace.Add(p, vid == 6);
  }
  ExpectFrom(*d->ref, trace);

  Checker checker;
  RegisterAll(checker, trace, 2, 5);
  const LoopResult r =
      ClosedLoop(run, *d, trace, checker, StreamDrain{*d->dp, checker, {}});
  Band(run, "pipeline.fc_share", r.mix.fc, 0.0, 0.0);
  Band(run, "pipeline.kernel_share", r.mix.kernel, 0.95, 1.0);
}

// --- chain_3hop -----------------------------------------------------------------
// An inline dataplane (an edge forwarder keyed on the UDP destination
// port) bound through BindEgressDevice to a three-switch chain: NetChain
// sequencer, forwarder, forwarder.  FlushEgress drains the dataplane into
// the chain; the hop loop and the egress transmit are what this workload
// adds over the others.

namespace {

constexpr u16 kChainVid = 5;
constexpr std::array<const char*, 3> kHopNames = {"s0", "s1", "s2"};
constexpr std::array<u16, 4> kChainDports = {40000, 40001, 40002, 40003};

std::vector<std::pair<u16, u16>> AllDportsTo(u16 port) {
  std::vector<std::pair<u16, u16>> r;
  for (const u16 dp : kChainDports) r.emplace_back(dp, port);
  return r;
}

/// The chain's expected deliveries: the edge forwarder, the vSwitch VLAN
/// stamp, then each switch in turn, all by ProcessUnplanned.
void ExpectThroughChain(Deployment& d, Trace& trace) {
  std::vector<std::unique_ptr<Pipeline>> hop_ref;
  for (const Tenant& t : d.hops) {
    hop_ref.push_back(std::make_unique<Pipeline>());
    ModuleManager mgr(*hop_ref.back());
    SetupTimes unused;
    Admit(mgr, t, unused);
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    PipelineResult r = d.ref->ProcessUnplanned(trace.Stamped(i, i));
    if (!r.output || (r.output->egress_port != 40 && r.output->egress_port != 41))
      Fail("edge forwarder did not route a chain frame to ports 40/41");
    Packet p = std::move(*r.output);
    p.set_vid(ModuleId(kChainVid));
    for (std::size_t h = 0; h < hop_ref.size(); ++h) {
      r = hop_ref[h]->ProcessUnplanned(std::move(p));
      const u16 want = h + 1 < hop_ref.size() ? 2 : 3;
      if (!r.output || r.output->egress_port != want)
        Fail(std::string("chain switch ") + kHopNames[h] + " misrouted a frame");
      p = std::move(*r.output);
    }
    trace.SetOut(i, p);
  }
}

}  // namespace

std::unique_ptr<Deployment> BuildChain3Hop(SetupTimes& st) {
  Tenant edge = Forwarder(2, 0,
                          {{kChainDports[0], 40}, {kChainDports[1], 41},
                           {kChainDports[2], 40}, {kChainDports[3], 41}},
                          st);
  std::vector<Tenant> hops;
  hops.push_back(NetChain(kChainVid, 0, 2, st));
  hops.push_back(Forwarder(kChainVid, 0, AllDportsTo(2), st));
  hops.push_back(Forwarder(kChainVid, 0, AllDportsTo(3), st));

  auto d = std::make_unique<Deployment>(Inline());
  d->Deploy(std::move(edge), st);
  d->net = std::make_unique<Network>();
  for (std::size_t i = 0; i < hops.size(); ++i) {
    Device& dev = d->net->AddDevice(kHopNames[i]);
    ModuleManager mgr(dev.pipeline());
    Admit(mgr, hops[i], st);
  }
  d->net->Link({"s0", 2}, {"s1", 1});
  d->net->Link({"s1", 2}, {"s2", 1});
  d->net->AttachHost({"s0", 1}, ModuleId(kChainVid));
  d->dp->BindEgressDevice(*d->net,
                          {{40, PortRef{"s0", 1}}, {41, PortRef{"s0", 1}}});
  d->hops = std::move(hops);
  return d;
}

void RunChain3Hop(Run& run, std::unique_ptr<Deployment> d) {
  Rng rng(run.opt().seed);
  Trace trace;
  for (std::size_t i = 0; i < kTracePackets; ++i) {
    Packet p = Frame(2, kFrameBytes, static_cast<u16>(10000 + rng.Below(1024)),
                     kChainDports[rng.Below(kChainDports.size())]);
    p.bytes().set_u16(46, apps::kNetChainOpSeq);
    trace.Add(p, true);
  }
  ExpectThroughChain(*d, trace);

  Checker checker;
  checker.Register(kChainVid, &trace);
  const auto drain = [&](IterationSpans& sp, u64& polled_at) -> u64 {
    std::vector<Delivery> out = d->dp->FlushEgress();
    polled_at = NowNs();
    sp.Mark(kPoll, out.size());
    for (const Delivery& del : out) {
      const std::span<const u8> b = del.packet.bytes().bytes();
      if (del.at.device != "s2")
        checker.Mismatch("delivered before the chain's last switch", kChainVid,
                         ReadU64(b.data(), kSeqOffset));
      checker.Check(b.data(), b.size(), del.at.port);
    }
    sp.Mark(kCheck, out.size());
    const u64 n = out.size();
    out.clear();
    sp.Mark(kRelease, n);
    return n;
  };
  const LoopResult r = ClosedLoop(run, *d, trace, checker, drain);
  if (run.opt().trace) {
    const Tracer::Total& flush = run.tracer.total(kPoll);
    run.Add("net.flush_ns_per_pkt",
            static_cast<double>(flush.ns) /
                static_cast<double>(std::max<u64>(flush.pkts, 1)),
            "ns", flush.pkts);
  }
  run.Add("net.delivered_ratio",
          static_cast<double>(r.outputs) /
              static_cast<double>(std::max<u64>(r.sub.pkts, 1)),
          "ratio", r.sub.pkts);
  Band(run, "pipeline.fc_share", r.mix.fc, 0.90, 1.0);
}

// --- batched_imix ---------------------------------------------------------------
// The batched API and its futures gather: one producer keeps four
// 1024-packet Submit tickets in flight over three worker-thread shards.
// Frames are 96/576/1500 B in a 7:4:1 mix across a router, a CALC and a
// load-balance tenant, whose 4-tuple key only the interpreted tier runs.
// The only multi-core and multi-size workload.  A ticket's latency runs
// from Submit until its completion callback fires.

namespace {

constexpr u16 kLbVid = 4;

/// Eight load-balance flows; the first four have an entry installed.
std::vector<apps::LbFlow> LbFlows() {
  std::vector<apps::LbFlow> flows;
  for (u16 i = 0; i < 8; ++i)
    flows.push_back({0x0A000001u + i, 0x0B000001u, static_cast<u16>(1000 + i),
                     80, static_cast<u16>(60 + i)});
  return flows;
}

}  // namespace

std::unique_ptr<Deployment> BuildBatchedImix(SetupTimes& st) {
  const std::vector<apps::LbFlow> flows = LbFlows();
  std::vector<Tenant> ts;
  ts.push_back(Router(2, 0, 40, st));
  ts.push_back(Calc(3, 4, 50, st));
  ts.push_back(LoadBalance(kLbVid, 8, {flows.begin(), flows.begin() + 4}, st));
  auto d = std::make_unique<Deployment>(
      DataplaneConfig{.num_shards = 3, .worker_threads = true});
  for (Tenant& t : ts) d->Deploy(std::move(t), st);
  for (u16 i = 0; i < 3; ++i) d->Pin(static_cast<u16>(2 + i), i);
  return d;
}

void RunBatchedImix(Run& run, std::unique_ptr<Deployment> d) {
  constexpr std::size_t kTicket = 1024;
  constexpr std::size_t kInFlight = 4;
  static_assert(kTracePackets % kTicket == 0);
  if (!d->dp->DescribeTenantRow(ModuleId(kLbVid)).kernel.wide_or_ternary)
    Fail("the load-balance row is not on the interpreted tier");

  const std::vector<apps::LbFlow> flows = LbFlows();
  Rng rng(run.opt().seed);
  const Zipf zipf(256, 0.9);
  Trace trace;
  for (std::size_t i = 0; i < kTracePackets; ++i) {
    const u16 vid = static_cast<u16>(2 + rng.Below(3));
    const u64 r = rng.Below(12);
    const std::size_t bytes = r < 7 ? 96 : r < 11 ? 576 : 1500;
    const u16 sport = static_cast<u16>(10000 + rng.Below(1024));
    Packet p;
    if (vid == kLbVid) {
      const apps::LbFlow& f = flows[rng.Below(flows.size())];
      p = PacketBuilder{}
              .vid(ModuleId(vid))
              .ipv4(f.src_ip, f.dst_ip)
              .udp(f.src_port, f.dst_port)
              .frame_size(bytes)
              .Build();
    } else {
      p = Frame(vid, bytes, sport, 20000);
      if (vid == 2) {
        p.bytes().set_u16(46, static_cast<u16>(zipf.Draw(rng)));
      } else {
        RandomCalcRequest(p, rng);
      }
    }
    trace.Add(p, false);
  }
  ExpectFrom(*d->ref, trace);

  Checker checker;
  RegisterAll(checker, trace, 2, 3);
  struct Slot {
    std::future<std::vector<PipelineResult>> fut;
    u64 submitted_at = 0;
    u64 done_at = 0;  // written by the completion callback
    u64 first_seq = 0;
  };
  std::array<Slot, kInFlight> slots;
  std::size_t head = 0;
  std::size_t inflight = 0;
  std::size_t cursor = 0;
  u64 seq = 0;
  Submitted sub;
  u64 outputs = 0;

  const auto submit = [&](IterationSpans& sp) {
    Slot& s = slots[(head + inflight) % kInFlight];
    BatchTicket ticket;
    ticket.batch.reserve(kTicket);
    for (std::size_t k = 0, c = cursor; k < kTicket; ++k) {
      ticket.batch.emplace_back(ByteBuffer(trace.len[c]));
      if (++c == trace.size()) c = 0;
    }
    sp.Mark(kAlloc, kTicket);
    s.first_seq = seq;
    for (Packet& p : ticket.batch) {
      const std::span<const u8> f = trace.Frame(cursor);
      u8* dst = p.bytes().bytes().data();
      std::memcpy(dst, f.data(), f.size());
      StampU64(dst, kSeqOffset, seq++);
      sub.drops += trace.drop[cursor];
      sub.fwd += 1 - trace.drop[cursor];
      if (++cursor == trace.size()) cursor = 0;
    }
    sp.Mark(kFill, kTicket);
    sub.pkts += kTicket;
    ticket.on_complete = [&s](const std::vector<PipelineResult>&) {
      s.done_at = NowNs();
    };
    s.submitted_at = NowNs();
    s.fut = d->dp->Submit(std::move(ticket));
    sp.Mark(kSubmit, kTicket);
    ++inflight;
  };
  const auto collect = [&](IterationSpans& sp) -> const Slot& {
    Slot& s = slots[head];
    std::vector<PipelineResult> results = s.fut.get();
    sp.Mark(kPoll, results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const u64 want = s.first_seq + i;
      const PipelineResult& r = results[i];
      if (r.filter_verdict != FilterVerdict::kData || !r.output) {
        checker.Mismatch("result missing", 0, want);
        continue;
      }
      const std::span<const u8> b = r.output->bytes().bytes();
      if (ReadU64(b.data(), kSeqOffset) != want) {
        checker.Mismatch("result out of batch order", 0, want);
        continue;
      }
      if (r.output->disposition == Disposition::kDrop) {
        if (trace.drop[want % trace.size()] == 0)
          checker.Mismatch("dropped unexpectedly", 0, want);
        continue;
      }
      checker.Check(b.data(), b.size(), r.output->egress_port);
      ++outputs;
    }
    sp.Mark(kCheck, results.size());
    const std::size_t n = results.size();
    results.clear();
    sp.Mark(kRelease, n);
    head = (head + 1) % kInFlight;
    --inflight;
    return s;
  };

  // Verification pass: the whole trace once, four tickets in flight.
  {
    IterationSpans off(run.tracer, false, 0);
    for (std::size_t t = 0; t < trace.size() / kTicket; ++t) {
      while (inflight < kInFlight && sub.pkts < trace.size()) submit(off);
      collect(off);
    }
    while (inflight != 0) collect(off);
  }

  const Counters c0 = Counters::Of(*d->dp);
  Windows win(NowNs(), run.opt().seconds, run.opt().trace);
  // An iteration collects the ticket four back and submits the next, the
  // same pair on every pass; it is timed as the collected ticket.
  FastestPass fastest(trace.size() / kTicket);
  DepthSampler depth;
  for (;;) {
    const u64 start = NowNs();
    if (win.Done(start)) break;
    const bool traced = run.tracer.Sample(win.Traced(start));
    IterationSpans sp(run.tracer, traced, start);
    while (inflight < kInFlight) submit(sp);
    const Slot& s = collect(sp);
    sp.Finish(kTicket);
    const u64 now = NowNs();
    if (!traced)
      fastest.Record(s.first_seq % trace.size() / kTicket, now - start,
                     s.done_at - s.submitted_at);
    win.Complete(now, kTicket);
    win.Latency(now, s.done_at - s.submitted_at);
    depth.Sample(*d->dp, now);
  }
  const u64 elapsed = NowNs() - win.start();
  {
    IterationSpans off(run.tracer, false, 0);
    while (inflight != 0) collect(off);
  }
  win.Finish();
  const Counters total = Counters::Of(*d->dp);
  const Counters delta = total.Since(c0);

  AddFastestPass(run, fastest, trace.size(), trace.bytes);
  AddWindowMetrics(run, win);
  const TierMix mix = AddCounterLayers(run, delta, elapsed, 3, depth);
  if (run.opt().trace) {
    AddSpanLayers(run);
    const Tracer::Total& sub_t = run.tracer.total(kSubmit);
    const Tracer::Total& wait_t = run.tracer.total(kPoll);
    run.Add("dataplane.ticket_submit_us",
            static_cast<double>(sub_t.ns) / 1e3 /
                static_cast<double>(std::max<u64>(sub_t.spans, 1)),
            "us", sub_t.spans);
    run.Add("dataplane.ticket_wait_us",
            static_cast<double>(wait_t.ns) / 1e3 /
                static_cast<double>(std::max<u64>(wait_t.spans, 1)),
            "us", wait_t.spans);
    AddPipelineLayers(run, *d, {&trace}, kBurst,
                      static_cast<double>(delta.busy_ns) /
                          static_cast<double>(std::max<u64>(delta.packets, 1)));
    FinishTrace(run, win, /*reconcile=*/true);
  }
  Reconcile(run, sub, outputs, checker, total, 0);
  Band(run, "pipeline.interp_share", mix.interp, 0.25, 0.42);
  Band(run, "pipeline.fc_share", mix.fc, 0.10, 0.34);
}

// --- isolation_churn ------------------------------------------------------------
// The isolation and non-disruptive reload claim.  Two worker-thread
// shards: the victim, a CALC tenant on shard 0, is driven open loop at a
// fixed 1.0 Mpps in 32-packet bursts; the attacker, a router on shard 1,
// floods closed loop and every 50 ms re-stages its own table
// (StageWrites + CommitEpoch).  The generator spin-polls PollEgress
// between sends.  The victim's latency runs from each packet's due time,
// carried in the payload tail, until a poll returns it.  Its throughput is
// what it got of its offered rate; tput_window_mpps counts both tenants.

namespace {

constexpr u16 kVictim = 2;
constexpr u16 kAttacker = 3;

/// Creates all `n` buffers of a capped arena.
void Prime(PacketArena& arena, std::size_t n) {
  std::vector<ArenaPacket*> all(n);
  if (arena.AllocateBurst(all.data(), n) != n) Fail("arena smaller than its cap");
  arena.ReleaseBurst(all.data(), n);
}

/// One producer's position in its trace and what it has submitted.
struct Producer {
  const Trace& trace;
  PacketArena& arena;
  std::size_t burst;
  std::size_t cursor = 0;
  u64 seq = 0;
  Submitted sub;

  /// Allocates, fills (stamping `due`) and submits up to one burst;
  /// returns false if the arena had no buffer free.
  bool Send(Dataplane& dp, IterationSpans& sp, u64 due) {
    std::array<ArenaPacket*, kBurst> b{};
    const std::size_t n = arena.AllocateBurst(b.data(), burst);
    if (n == 0) return false;
    sp.Mark(kAlloc, n);
    for (std::size_t k = 0; k < n; ++k) {
      b[k]->Assign(trace.Frame(cursor));
      StampU64(b[k]->data(), kSeqOffset, seq++);
      StampU64(b[k]->data(), kDueOffset, due);
      sub.drops += trace.drop[cursor];
      sub.fwd += 1 - trace.drop[cursor];
      if (++cursor == trace.size()) cursor = 0;
    }
    sp.Mark(kFill, n);
    dp.SubmitStream(b.data(), n);
    sp.Mark(kSubmit, n);
    sub.pkts += n;
    return true;
  }
};

}  // namespace

std::unique_ptr<Deployment> BuildIsolationChurn(SetupTimes& st) {
  Tenant victim = Calc(kVictim, 0, 50, st);
  Tenant attacker = Router(kAttacker, 4, 40, st);
  auto d = std::make_unique<Deployment>(
      DataplaneConfig{.num_shards = 2, .worker_threads = true});
  d->Deploy(std::move(victim), st);
  d->Deploy(std::move(attacker), st);
  d->Pin(kVictim, 0);
  d->Pin(kAttacker, 1);
  return d;
}

void RunIsolationChurn(Run& run, std::unique_ptr<Deployment> d) {
  constexpr std::size_t kVictimBurst = 32;
  constexpr u64 kVictimGapNs = 32'000;  // 32 packets at 1.0 Mpps
  constexpr u64 kCommitEveryNs = 50'000'000;

  const std::vector<ConfigWrite> attacker_writes =
      d->tenants[1].module.AllWrites();

  Rng rng(run.opt().seed);
  Trace victim_trace;
  Trace attacker_trace;
  for (std::size_t i = 0; i < kTracePackets; ++i) {
    Packet v = Frame(kVictim, kFrameBytes,
                     static_cast<u16>(10000 + rng.Below(1024)), 20000);
    RandomCalcRequest(v, rng);
    victim_trace.Add(v, false);
    Packet a = Frame(kAttacker, kFrameBytes,
                     static_cast<u16>(10000 + rng.Below(1024)), 20000);
    a.bytes().set_u16(46, static_cast<u16>(rng.Below(3)));  // forwarded tags
    attacker_trace.Add(a, false);
  }
  ExpectFrom(*d->ref, victim_trace);
  ExpectFrom(*d->ref, attacker_trace);

  Checker checker;
  checker.Register(kVictim, &victim_trace);
  checker.Register(kAttacker, &attacker_trace);
  // The victim's arena holds 4 ms of its traffic; past that its generator
  // runs late rather than growing the backlog.  Both arenas are filled up
  // front so the footprint does not depend on how deep the backlog got.
  PacketArena victim_arena(4096);
  PacketArena attacker_arena(1024);
  Prime(victim_arena, 4096);
  Prime(attacker_arena, 1024);
  Producer victim{victim_trace, victim_arena, kVictimBurst, 0, 0, {}};
  Producer attacker{attacker_trace, attacker_arena, kBurst, 0, 0, {}};

  std::vector<ArenaPacket*> egress;
  u64 outputs = 0;
  u64 victim_out = 0;  // victim packets polled in the measured phase
  u64 victim_bytes = 0;
  Windows* measuring = nullptr;  // set during the measured phase
  const u64 epoch = NowNs();     // due times are relative to this
  const auto poll = [&](IterationSpans& sp) {
    egress.clear();
    d->dp->PollEgress(egress);
    const u64 now = NowNs();
    sp.Mark(kPoll, egress.size());
    for (const ArenaPacket* p : egress) {
      checker.Check(p->data(), p->size(), p->egress_port);
      if (measuring != nullptr && p->vid().value() == kVictim) {
        const u64 due = epoch + ReadU64(p->data(), kDueOffset);
        measuring->Latency(now, now > due ? now - due : 0);
        ++victim_out;
        victim_bytes += p->size();
      }
    }
    sp.Mark(kCheck, egress.size());
    ReleaseToOwners(egress.data(), egress.size());
    sp.Mark(kRelease, egress.size());
    outputs += egress.size();
    if (measuring != nullptr && !egress.empty())
      measuring->Complete(now, egress.size());
  };
  const auto wait_for_outputs = [&] {
    IterationSpans off(run.tracer, false, 0);
    const u64 deadline = NowNs() + 10'000'000'000;
    while (victim_arena.outstanding() + attacker_arena.outstanding() != 0 &&
           NowNs() < deadline)
      poll(off);
  };

  // Verification pass: both traces once, due time 0.
  {
    IterationSpans off(run.tracer, false, 0);
    while (victim.sub.pkts < kTracePackets || attacker.sub.pkts < kTracePackets) {
      if (victim.sub.pkts < kTracePackets) victim.Send(*d->dp, off, 0);
      if (attacker.sub.pkts < kTracePackets) attacker.Send(*d->dp, off, 0);
      poll(off);
    }
    wait_for_outputs();
  }

  // One generator thread plays both producers, so the workload runs three
  // threads and leaves the fourth core to everything else on the host.
  // Each iteration does the most urgent of a due commit, a due victim
  // burst, or an attacker burst, then polls.
  const Counters c0 = Counters::Of(*d->dp);
  Windows win(NowNs(), run.opt().seconds, run.opt().trace);
  measuring = &win;
  std::vector<double> commit_ms;
  std::vector<double> stage_us;
  LatencyHistogram late;
  DepthSampler depth;
  u64 next_due = win.start();
  u64 next_commit = win.start() + kCommitEveryNs;
  for (;;) {
    const u64 now = NowNs();
    if (win.Done(now)) break;
    depth.Sample(*d->dp, now);
    IterationSpans sp(run.tracer, run.tracer.Sample(win.Traced(now)), now);
    u64 sent = 0;
    if (now >= next_commit) {
      d->dp->StageWrites(attacker_writes);
      const u64 staged = NowNs();
      sp.Mark(kStage, 0);
      d->dp->CommitEpoch();
      const u64 committed = NowNs();
      sp.Mark(kCommit, 0);
      stage_us.push_back(static_cast<double>(staged - now) / 1e3);
      commit_ms.push_back(static_cast<double>(committed - staged) / 1e6);
      next_commit += kCommitEveryNs;
    } else if (now >= next_due) {
      if (victim.Send(*d->dp, sp, next_due - epoch)) {
        late.Add(now - next_due);
        next_due += kVictimGapNs;
        sent = kVictimBurst;
      }
    } else if (attacker.Send(*d->dp, sp, 0)) {
      sent = kBurst;
    }
    poll(sp);
    sp.Finish(sent);
  }
  const u64 elapsed = NowNs() - win.start();
  measuring = nullptr;
  wait_for_outputs();
  win.Finish();
  const Counters total = Counters::Of(*d->dp);
  const Counters delta = total.Since(c0);

  const double seconds = static_cast<double>(elapsed) / 1e9;
  run.Add("tput_mpps", static_cast<double>(victim_out) / seconds / 1e6, "Mpps",
          victim_out);
  run.Add("tput_gbps", static_cast<double>(victim_bytes) * 8.0 / seconds / 1e9,
          "Gbps", victim_out);
  const Windows::Summary s = win.Summarize();
  run.Add("lat_p50_us", s.p50_us, "us", s.lat_samples);
  AddWindowMetrics(run, win);
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  run.Add("dataplane.commit_ms", mean(commit_ms), "ms", commit_ms.size());
  run.Add("dataplane.stage_us", mean(stage_us), "us", stage_us.size());
  run.Add("commit_p50_ms", Quantile(commit_ms, 0.50), "ms", commit_ms.size());
  run.Add("commit_p90_ms", Quantile(commit_ms, 0.90), "ms", commit_ms.size());
  run.Add("gen.late_p99_us", late.QuantileUs(0.99), "us", late.count());
  const TierMix mix = AddCounterLayers(run, delta, elapsed, 2, depth);
  if (run.opt().trace) {
    AddSpanLayers(run);
    AddPipelineLayers(run, *d, {&victim_trace, &attacker_trace}, kBurst,
                      static_cast<double>(delta.busy_ns) /
                          static_cast<double>(std::max<u64>(delta.packets, 1)));
    FinishTrace(run, win, /*reconcile=*/false);
  }
  Submitted sub = victim.sub;
  sub.pkts += attacker.sub.pkts;
  sub.fwd += attacker.sub.fwd;
  sub.drops += attacker.sub.drops;
  Reconcile(run, sub, outputs, checker, total,
            victim_arena.outstanding() + attacker_arena.outstanding());
  Band(run, "pipeline.kernel_share", mix.kernel, 0.01, 0.5);
  Band(run, "pipeline.fc_share", mix.fc, 0.5, 0.99);
}

}  // namespace e2e
