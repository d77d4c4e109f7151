// Streaming dataplane (Dataplane::SubmitStream / PollEgress + the
// packet/arena.hpp buffer pool): the run-to-completion path must be
// byte-identical per tenant to the batched reference — including under
// epoch commits, migrations, shard resizes and producer churn — and the
// arena must recycle every buffer (outstanding() == 0 is the leak
// check ASAN/TSAN CI runs on this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "packet/arena.hpp"
#include "sim/traffic.hpp"
#include "test_util.hpp"

namespace menshen {
namespace {

using namespace test;

struct TenantApp {
  u16 vid;
  const ModuleSpec* spec;
  u16 port;
};

const std::vector<TenantApp>& Tenants() {
  static const std::vector<TenantApp> tenants = {
      {2, &apps::CalcSpec(), 11},
      {3, &apps::CalcSpec(), 12},
      {4, &apps::NetChainSpec(), 13},
      {5, &apps::NetChainSpec(), 14},
  };
  return tenants;
}

std::vector<CompiledModule> CompileTenants() {
  std::vector<CompiledModule> images;
  for (std::size_t i = 0; i < Tenants().size(); ++i) {
    const TenantApp& t = Tenants()[i];
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(t.vid), 0, params::kNumStages, i * 4, 4,
                          static_cast<u8>(i * 32), 32);
    CompiledModule m = MustCompile(*t.spec, alloc);
    if (t.spec == &apps::CalcSpec()) {
      EXPECT_TRUE(apps::InstallCalcEntries(m, t.port));
    } else {
      EXPECT_TRUE(apps::InstallNetChainEntries(m, t.port));
    }
    images.push_back(std::move(m));
  }
  return images;
}

Packet TracePacket(const TenantApp& t, Rng& rng) {
  if (t.spec == &apps::CalcSpec()) {
    const u16 op = static_cast<u16>(
        rng.Between(apps::kCalcOpAdd, apps::kCalcOpEcho));
    return CalcPacket(t.vid, op, static_cast<u32>(rng.Below(1000)),
                      static_cast<u32>(rng.Below(1000)));
  }
  return NetChainPacket(t.vid, apps::kNetChainOpSeq);
}

/// What one egressed packet must look like: the deparsed bytes plus the
/// routing sidebands the consumer acts on.
struct EgressRecord {
  std::vector<u8> bytes;
  u16 egress_port = 0;
  Disposition disposition = Disposition::kForward;
  std::vector<u16> multicast_ports;

  bool operator==(const EgressRecord&) const = default;
};

EgressRecord RecordOf(const Packet& p) {
  const auto s = p.bytes().bytes();
  return EgressRecord{{s.begin(), s.end()}, p.egress_port, p.disposition,
                      p.multicast_ports};
}

EgressRecord RecordOf(const ArenaPacket& p) {
  const auto v = p.bytes().bytes();
  return EgressRecord{{v.begin(), v.end()}, p.egress_port, p.disposition,
                      p.multicast_ports};
}

/// Per-tenant expected egress: the batched reference pipeline fed the
/// trace in order; packets it forwards (or multicasts) are what the
/// streaming path must deliver to PollEgress, per tenant, in order.
std::map<u16, std::vector<EgressRecord>> ReferenceEgress(
    const std::vector<CompiledModule>& images, const std::vector<Packet>& trace) {
  Pipeline reference;
  for (const CompiledModule& m : images)
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);
  std::map<u16, std::vector<EgressRecord>> expected;
  for (const Packet& p : trace) {
    const PipelineResult r = reference.Process(p);
    if (r.output && r.output->disposition != Disposition::kDrop)
      expected[p.vid().value()].push_back(RecordOf(*r.output));
  }
  return expected;
}

// --- Packet arena -------------------------------------------------------------

TEST(PacketArena, CapRecyclingAndLeakCheck) {
  PacketArena arena(4);
  ArenaPacket* pkts[8] = {};
  // The cap bounds the burst; the shortfall is the producer's
  // backpressure signal.
  ASSERT_EQ(arena.AllocateBurst(pkts, 8), 4u);
  EXPECT_EQ(arena.capacity(), 4u);
  EXPECT_EQ(arena.outstanding(), 4u);
  EXPECT_EQ(arena.Allocate(), nullptr);

  // Dirty a buffer, release, reallocate: the recycled buffer must look
  // fresh (no sideband leaks across tenants).
  pkts[0]->set_size(96);
  pkts[0]->disposition = Disposition::kMulticast;
  pkts[0]->egress_port = 7;
  pkts[0]->multicast_ports = {1, 2, 3};
  pkts[0]->verdict = 9;
  arena.ReleaseBurst(pkts, 4);
  EXPECT_EQ(arena.outstanding(), 0u);

  ArenaPacket* p = arena.Allocate();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->size(), 0u);
  EXPECT_EQ(p->disposition, Disposition::kForward);
  EXPECT_EQ(p->egress_port, 0u);
  EXPECT_TRUE(p->multicast_ports.empty());
  EXPECT_EQ(p->verdict, 0u);
  EXPECT_EQ(p->owner(), &arena);
  // Recycled, not grown: capacity stays at the high-water mark.
  EXPECT_GE(arena.recycles(), 1u);
  EXPECT_EQ(arena.capacity(), 4u);
  arena.Release(p);
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_EQ(arena.allocations(), 5u);
}

TEST(PacketArena, ReleaseToOwnersRoutesMixedOriginSpans) {
  PacketArena a(0);
  PacketArena b(0);
  // Interleave the owners so ReleaseToOwners must split the span into
  // per-arena runs.
  std::vector<ArenaPacket*> pkts;
  for (int i = 0; i < 12; ++i)
    pkts.push_back((i % 3 == 0 ? b : a).Allocate());
  EXPECT_EQ(a.outstanding(), 8u);
  EXPECT_EQ(b.outstanding(), 4u);
  ReleaseToOwners(pkts.data(), pkts.size());
  EXPECT_EQ(a.outstanding(), 0u);
  EXPECT_EQ(b.outstanding(), 0u);
}

// The byte array is the buffer's first member and the length and
// sidebands fill the one line after it, so the burst loop's two
// prefetches (at +0 and +kDataRoom) land on the header line and on the
// line holding the length and every sideband.
TEST(PacketArena, ByteArrayIsTheFirstMember) {
  PacketArena arena(0);
  ArenaPacket* p = arena.Allocate();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<u8*>(p), p->data());
  EXPECT_LE(sizeof(ArenaPacket), ArenaPacket::kDataRoom + 64);
  arena.Release(p);
}

// The 2 KiB data room is a hard limit: a frame exactly kDataRoom long
// streams byte-identical to the unplanned reference, one byte more is
// rejected — never silently clipped — and the buffer still goes back.
TEST(PacketArena, FrameAtDataRoomStreamsAndLongerFrameIsRejected) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = false});
  Pipeline reference;
  for (const CompiledModule& m : images) {
    dp.ApplyWrites(m.AllWrites());
    for (const ConfigWrite& w : m.AllWrites()) reference.ApplyWrite(w);
  }
  const auto calc_frame = [](std::size_t size) {
    Packet p = PacketBuilder{}
                   .vid(ModuleId(2))
                   .udp(10000, 20000)
                   .frame_size(size)
                   .Build();
    p.bytes().set_u16(46, apps::kCalcOpAdd);
    p.bytes().set_u32(48, 40);
    p.bytes().set_u32(52, 2);
    p.bytes().set_u8(size - 1, 0xA5);  // the last byte must survive
    return p;
  };

  PacketArena arena(0);
  const Packet fits = calc_frame(ArenaPacket::kDataRoom);
  ArenaPacket* p = arena.Allocate();
  ASSERT_NE(p, nullptr);
  p->Assign(fits.bytes().bytes());
  dp.SubmitStream(&p, 1);
  std::vector<ArenaPacket*> egress;
  ASSERT_EQ(dp.PollEgress(egress), 1u);
  const PipelineResult ref = reference.ProcessUnplanned(fits);
  ASSERT_TRUE(ref.output.has_value());
  EXPECT_EQ(egress[0]->size(), ArenaPacket::kDataRoom);
  EXPECT_EQ(RecordOf(*egress[0]), RecordOf(*ref.output));
  ReleaseToOwners(egress.data(), egress.size());

  const Packet too_long = calc_frame(ArenaPacket::kDataRoom + 1);
  ArenaPacket* q = arena.Allocate();
  ASSERT_NE(q, nullptr);
  EXPECT_THROW(q->Assign(too_long.bytes().bytes()), std::length_error);
  EXPECT_THROW(q->set_size(ArenaPacket::kDataRoom + 1), std::length_error);
  EXPECT_EQ(q->size(), 0u);  // rejected, not clipped
  arena.Release(q);
  EXPECT_EQ(arena.outstanding(), 0u);
}

// --- Streaming vs batched differential ----------------------------------------

TEST(Stream, SequentialEngineByteIdenticalToBatchedReference) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  Rng rng(7);
  std::vector<Packet> trace;
  for (int i = 0; i < 512; ++i)
    trace.push_back(TracePacket(Tenants()[rng.Below(Tenants().size())], rng));
  const auto expected = ReferenceEgress(images, trace);

  PacketArena arena(0);
  std::vector<ArenaPacket*> egress;
  constexpr std::size_t kBurst = 32;
  for (std::size_t off = 0; off < trace.size(); off += kBurst) {
    const std::size_t n = std::min(kBurst, trace.size() - off);
    ArenaPacket* burst[kBurst];
    ASSERT_EQ(arena.AllocateBurst(burst, n), n);
    for (std::size_t i = 0; i < n; ++i)
      burst[i]->Assign(trace[off + i].bytes().bytes());
    dp.SubmitStream(burst, n);
  }
  (void)dp.PollEgress(egress);

  std::map<u16, std::vector<EgressRecord>> got;
  for (const ArenaPacket* p : egress) {
    ASSERT_TRUE(p->has_vlan());
    got[p->vid().value()].push_back(RecordOf(*p));
  }
  EXPECT_EQ(got, expected);

  ReleaseToOwners(egress.data(), egress.size());
  EXPECT_EQ(arena.outstanding(), 0u);  // drops were recycled by the dataplane
  EXPECT_EQ(dp.total_packets(), trace.size());
}

// With no worker threads the producer core runs each work item to
// completion itself (shared gate, per-shard serialization on inline_m) —
// the bench's run-to-completion configuration.  Every producer feeds
// every tenant, a flow-cacheable router among them, and alternates
// Submit tickets with SubmitStream bursts, so each shard's owner-written
// counters (common/counters.hpp) change writer through inline_m on
// nearly every call.  Per tenant the outputs must be the reference's:
// the same multiset of bytes, and the NetChain sequencer's numbers
// rising in processing order on both APIs.  After quiesce every counter
// must be exact against the ProcessUnplanned reference, and under TSAN
// the counters' shadow writes flag any writer that bypasses inline_m.
TEST(Stream, ConcurrentProducersInlineEngineByteIdenticalPerTenant) {
  constexpr u16 kCalcVid = 2;
  constexpr u16 kSeqVid = 4;
  constexpr u16 kRouterVid = 6;
  const u16 vids[] = {kCalcVid, kSeqVid, kRouterVid};
  std::vector<ConfigWrite> writes;
  for (std::size_t i = 0; i < std::size(vids); ++i) {
    const ModuleAllocation alloc =
        UniformAllocation(ModuleId(vids[i]), 0, params::kNumStages, i * 4, 4,
                          static_cast<u8>(i * 32), 32);
    CompiledModule m;
    if (vids[i] == kCalcVid) {
      m = MustCompile(apps::CalcSpec(), alloc);
      EXPECT_TRUE(apps::InstallCalcEntries(m, 11));
    } else if (vids[i] == kSeqVid) {
      m = MustCompile(apps::NetChainSpec(), alloc);
      EXPECT_TRUE(apps::InstallNetChainEntries(m, 13));
    } else {
      m = MakeTagRouter(alloc, 40, 3);  // tag 3 is dropped
    }
    const std::vector<ConfigWrite> w = m.AllWrites();
    writes.insert(writes.end(), w.begin(), w.end());
  }
  Dataplane dp(DataplaneConfig{.num_shards = 2, .worker_threads = false});
  dp.ApplyWrites(writes);

  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kCalls = 64;  // per producer: ticket, burst, ...
  constexpr std::size_t kBurst = 16;
  constexpr std::size_t kTotal = kProducers * kCalls * kBurst;

  // Traces mix all three tenants.  The reference sees every producer's
  // trace back to back: the router and CALC are stateless, and every
  // sequencer frame is identical, so each tenant's multiset of outputs
  // does not depend on how the producers interleave.
  std::vector<std::vector<Packet>> traces(kProducers);
  Pipeline reference;
  for (const ConfigWrite& w : writes) reference.ApplyWrite(w);
  std::map<u16, std::vector<EgressRecord>> expected;
  std::array<u64, 3> classes{};  // forwarded, dropped, filtered
  std::size_t router_pkts = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    Rng rng(100 + p);
    for (std::size_t i = 0; i < kCalls * kBurst; ++i) {
      const u16 vid = vids[rng.Below(std::size(vids))];
      Packet pkt = vid == kCalcVid
                       ? CalcPacket(vid,
                                    static_cast<u16>(rng.Between(
                                        apps::kCalcOpAdd, apps::kCalcOpEcho)),
                                    static_cast<u32>(rng.Below(1000)),
                                    static_cast<u32>(rng.Below(1000)))
                   : vid == kSeqVid
                       ? NetChainPacket(vid, apps::kNetChainOpSeq)
                       : TagRouterPacket(vid, static_cast<u16>(rng.Below(4)));
      router_pkts += vid == kRouterVid;
      const PipelineResult r = reference.ProcessUnplanned(pkt);
      if (r.filter_verdict != FilterVerdict::kData) {
        ++classes[2];
      } else if (r.output->disposition == Disposition::kDrop) {
        ++classes[1];
      } else {
        ++classes[0];
        expected[vid].push_back(RecordOf(*r.output));
      }
      traces[p].push_back(std::move(pkt));
    }
  }

  std::vector<std::unique_ptr<PacketArena>> arenas;
  for (std::size_t p = 0; p < kProducers; ++p)
    arenas.push_back(std::make_unique<PacketArena>(kCalls * kBurst));

  std::map<u16, std::vector<EgressRecord>> streamed;  // in PollEgress order
  std::map<u16, std::vector<EgressRecord>> returned;  // ticket results
  std::mutex got_m;
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    std::vector<ArenaPacket*> egress;
    while (!stop.load(std::memory_order_acquire)) {
      egress.clear();
      if (dp.PollEgress(egress) == 0) {
        std::this_thread::yield();
        continue;
      }
      {
        std::lock_guard<std::mutex> lk(got_m);
        for (const ArenaPacket* p : egress)
          streamed[p->vid().value()].push_back(RecordOf(*p));
      }
      ReleaseToOwners(egress.data(), egress.size());
    }
  });

  std::atomic<std::size_t> ticket_seq_out_of_order{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      u32 last_seq = 0;
      ArenaPacket* burst[kBurst];
      for (std::size_t c = 0; c < kCalls; ++c) {
        const Packet* frames = traces[p].data() + c * kBurst;
        if (c % 2 == 1) {
          ASSERT_EQ(arenas[p]->AllocateBurst(burst, kBurst), kBurst);
          for (std::size_t i = 0; i < kBurst; ++i)
            burst[i]->Assign(frames[i].bytes().bytes());
          dp.SubmitStream(burst, kBurst);
          continue;
        }
        BatchTicket t;
        t.batch.assign(frames, frames + kBurst);
        const std::vector<PipelineResult> results =
            dp.Submit(std::move(t)).get();
        std::lock_guard<std::mutex> lk(got_m);
        for (const PipelineResult& r : results) {
          if (!r.output || r.output->disposition == Disposition::kDrop)
            continue;
          const u16 vid = r.output->vid().value();
          returned[vid].push_back(RecordOf(*r.output));
          if (vid != kSeqVid) continue;
          // One producer's tickets run in its call order.
          if (NetChainSeq(*r.output) <= last_seq) ++ticket_seq_out_of_order;
          last_seq = NetChainSeq(*r.output);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  // Inline work items have fully executed once Submit/SubmitStream
  // return; only consumer hand-back remains.  The consumer is the only
  // drainer, so `streamed` keeps PollEgress order.
  while (std::any_of(arenas.begin(), arenas.end(),
                     [](const auto& a) { return a->outstanding() != 0; }))
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  consumer.join();

  // Bytes: per tenant, streamed + returned is the reference's multiset;
  // the sequencer's egress rises in processing order.
  EXPECT_EQ(ticket_seq_out_of_order.load(), 0u);
  u32 last_seq = 0;
  for (const EgressRecord& r : streamed[kSeqVid]) {
    const u32 seq = (u32{r.bytes[48]} << 24) | (u32{r.bytes[49]} << 16) |
                    (u32{r.bytes[50]} << 8) | u32{r.bytes[51]};
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
  const auto by_value = [](const EgressRecord& a, const EgressRecord& b) {
    return std::tie(a.bytes, a.egress_port, a.disposition,
                    a.multicast_ports) < std::tie(b.bytes, b.egress_port,
                                                  b.disposition,
                                                  b.multicast_ports);
  };
  for (const u16 vid : vids) {
    SCOPED_TRACE(vid);
    std::vector<EgressRecord> got = streamed[vid];
    got.insert(got.end(), returned[vid].begin(), returned[vid].end());
    std::vector<EgressRecord>& want = expected[vid];
    std::sort(got.begin(), got.end(), by_value);
    std::sort(want.begin(), want.end(), by_value);
    EXPECT_EQ(got, want);
    // Per-tenant counters, exact and relaxed.
    const ModuleId m(vid);
    EXPECT_EQ(dp.forwarded(m), reference.forwarded(m));
    EXPECT_EQ(dp.dropped(m), reference.dropped(m));
    EXPECT_EQ(dp.forwarded_relaxed(m), reference.forwarded(m));
    EXPECT_EQ(dp.dropped_relaxed(m), reference.dropped(m));
  }

  // Shard counters: verdicts partition packets, every flow-cache probe
  // is one burst lane, and every packet is in a latency histogram.
  std::array<u64, 3> counted{};
  u64 burst_lanes = 0;
  for (const Dataplane::ShardCounters& c : dp.CountersSnapshot()) {
    EXPECT_EQ(c.forwarded + c.dropped + c.filtered, c.packets);
    EXPECT_EQ(c.flow_cache_hits + c.flow_cache_misses,
              c.flow_cache_burst_pkts);
    counted[0] += c.forwarded;
    counted[1] += c.dropped;
    counted[2] += c.filtered;
    burst_lanes += c.flow_cache_burst_pkts;
  }
  EXPECT_EQ(counted, classes);
  EXPECT_EQ(burst_lanes, router_pkts);
  const TelemetrySnapshot tel = dp.telemetry().Snapshot();
  EXPECT_EQ(tel.batched_total.count + tel.stream_total.count, kTotal);
  EXPECT_EQ(tel.stream_total.count, kTotal / 2);
  EXPECT_EQ(dp.total_packets(), kTotal);
}

TEST(Stream, PerTenantOrderSurvivesWorkerThreads) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 4, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  // The NetChain sequencer stamps consecutive numbers: any reordering
  // inside the streaming path is visible in the egress bytes.
  constexpr u16 kVid = 4;
  constexpr std::size_t kPackets = 512;
  const Packet frame = NetChainPacket(kVid, apps::kNetChainOpSeq);

  PacketArena arena(0);
  std::vector<ArenaPacket*> egress;
  constexpr std::size_t kBurst = 16;
  for (std::size_t off = 0; off < kPackets; off += kBurst) {
    ArenaPacket* burst[kBurst];
    ASSERT_EQ(arena.AllocateBurst(burst, kBurst), kBurst);
    for (ArenaPacket* p : burst) p->Assign(frame.bytes().bytes());
    dp.SubmitStream(burst, kBurst);
    (void)dp.PollEgress(egress);
  }
  while (egress.size() < kPackets) {
    (void)dp.PollEgress(egress);
    std::this_thread::yield();
  }

  ASSERT_EQ(egress.size(), kPackets);
  for (std::size_t i = 0; i < egress.size(); ++i) {
    const u8* b = egress[i]->data();
    const u32 seq = (u32{b[48]} << 24) | (u32{b[49]} << 16) |
                    (u32{b[50]} << 8) | u32{b[51]};
    EXPECT_EQ(seq, i + 1) << "egress position " << i;
  }
  ReleaseToOwners(egress.data(), egress.size());
  EXPECT_EQ(arena.outstanding(), 0u);
}

// One producer feeding one stateful tenant through both ingress APIs:
// tickets and streaming bursts share the shard's ring, so the NetChain
// sequencer numbers the packets in submission order whichever API
// carried them.
TEST(Stream, TicketsAndBurstsOfOneProducerKeepTenantOrder) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 1, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  constexpr u16 kVid = 4;
  constexpr std::size_t kCalls = 2000;  // alternating, a ticket first
  const Packet frame = NetChainPacket(kVid, apps::kNetChainOpSeq);
  PacketArena arena(0);
  std::vector<std::future<std::vector<PipelineResult>>> tickets;
  for (std::size_t i = 0; i < kCalls; ++i) {
    if (i % 2 == 0) {
      BatchTicket t;
      t.batch.push_back(frame);
      tickets.push_back(dp.Submit(std::move(t)));
    } else {
      ArenaPacket* p = arena.Allocate();
      ASSERT_NE(p, nullptr);
      p->Assign(frame.bytes().bytes());
      dp.SubmitStream(&p, 1);
    }
  }

  // Call i carries sequence number i + 1: ticket k is call 2k, the k-th
  // egressed burst packet is call 2k + 1.
  std::size_t out_of_order = 0;
  for (std::size_t k = 0; k < tickets.size(); ++k) {
    const std::vector<PipelineResult> r = tickets[k].get();
    ASSERT_EQ(r.size(), 1u);
    ASSERT_TRUE(r[0].output.has_value());
    if (NetChainSeq(*r[0].output) != 2 * k + 1) ++out_of_order;
  }
  std::vector<ArenaPacket*> egress;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (egress.size() < kCalls / 2 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)dp.PollEgress(egress);
    std::this_thread::yield();
  }
  ASSERT_EQ(egress.size(), kCalls / 2);
  for (std::size_t k = 0; k < egress.size(); ++k) {
    const u8* b = egress[k]->data();
    const u32 seq = (u32{b[48]} << 24) | (u32{b[49]} << 16) |
                    (u32{b[50]} << 8) | u32{b[51]};
    if (seq != 2 * k + 2) ++out_of_order;
  }
  EXPECT_EQ(out_of_order, 0u);
  ReleaseToOwners(egress.data(), egress.size());
  EXPECT_EQ(arena.outstanding(), 0u);
}

// --- Acceptance: randomized churn differential --------------------------------
//
// Four producers, each owning one disjoint tenant, stream bursts from
// private arenas while a control thread commits epochs, migrates
// tenants, resizes the shard set and flexes the ingress ring depth — and
// a consumer thread drains PollEgress concurrently.  Tenant disjointness
// makes every producer's stream independent, so each tenant's egress
// must match a private sequential reference byte-for-byte, regardless of
// the global interleave.  Producers start staggered (producer churn).
TEST(Stream, RandomizedChurnByteIdenticalToBatchedReferencePerTenant) {
  constexpr std::size_t kProducers = 4;  // == Tenants().size()
  constexpr std::size_t kBursts = 48;
  constexpr std::size_t kBurst = 16;

  const std::vector<CompiledModule> images = CompileTenants();
  ASSERT_EQ(Tenants().size(), kProducers);
  Dataplane dp(DataplaneConfig{.num_shards = 4,
                               .worker_threads = true,
                               .ingress_queue_depth = 8});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  // Traces and expectations are fixed before any traffic flows.
  std::vector<std::vector<Packet>> traces(kProducers);
  std::map<u16, std::vector<EgressRecord>> expected;
  for (std::size_t p = 0; p < kProducers; ++p) {
    Rng rng(3000 + static_cast<u64>(p));
    for (std::size_t i = 0; i < kBursts * kBurst; ++i)
      traces[p].push_back(TracePacket(Tenants()[p], rng));
    auto one = ReferenceEgress(images, traces[p]);
    expected.merge(one);
  }

  std::vector<std::unique_ptr<PacketArena>> arenas;
  for (std::size_t p = 0; p < kProducers; ++p)
    arenas.push_back(std::make_unique<PacketArena>(kBursts * kBurst));

  std::atomic<std::size_t> producers_done{0};
  std::mutex got_m;
  std::map<u16, std::vector<EgressRecord>> got;
  std::atomic<bool> drain_stop{false};

  // Consumer: drain egress continuously, record, release to the owning
  // arenas (mixed-origin spans exercise ReleaseToOwners).
  std::thread consumer([&] {
    std::vector<ArenaPacket*> out;
    while (!drain_stop.load(std::memory_order_acquire)) {
      out.clear();
      if (dp.PollEgress(out) == 0) {
        std::this_thread::yield();
        continue;
      }
      {
        std::lock_guard<std::mutex> lk(got_m);
        for (const ArenaPacket* p : out)
          got[p->vid().value()].push_back(RecordOf(*p));
      }
      ReleaseToOwners(out.data(), out.size());
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Staggered start: later producers join while earlier ones (and
      // the control churn) are already in flight.
      std::this_thread::sleep_for(std::chrono::microseconds(200 * p));
      PacketArena& arena = *arenas[p];
      for (std::size_t b = 0; b < kBursts; ++b) {
        ArenaPacket* burst[kBurst];
        std::size_t have = 0;
        while (have < kBurst) {  // cap reached = egress not drained yet
          have += arena.AllocateBurst(burst + have, kBurst - have);
          if (have < kBurst) std::this_thread::yield();
        }
        for (std::size_t i = 0; i < kBurst; ++i)
          burst[i]->Assign(traces[p][b * kBurst + i].bytes().bytes());
        dp.SubmitStream(burst, kBurst);
      }
      ++producers_done;
    });
  }

  // Control thread: epoch + migration + resize + ring-depth churn while
  // the streams fly.  Every op is quiesced; none may reorder or corrupt
  // a tenant's stream.
  std::thread control([&] {
    u64 flip = 0;
    while (producers_done.load() < kProducers) {
      for (const CompiledModule& m : images) dp.StageWrites(m.AllWrites());
      dp.CommitEpoch();
      const u16 vid = Tenants()[flip % Tenants().size()].vid;
      dp.MigrateTenant(ModuleId(vid), flip % dp.num_shards());
      if (flip % 3 == 0) dp.ResizeShards(2 + (flip / 3) % 3);  // 2..4
      if (flip % 5 == 0) dp.SetIngressQueueDepth(flip % 10 == 0 ? 4 : 8);
      ++flip;
      std::this_thread::yield();
    }
  });

  for (auto& t : producers) t.join();
  control.join();
  // Everything submitted must eventually egress or be recycled.
  const auto all_recycled = [&] {
    for (const auto& a : arenas)
      if (a->outstanding() != 0) return false;
    return true;
  };
  while (!all_recycled()) std::this_thread::yield();
  drain_stop.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(got, expected);
  EXPECT_EQ(dp.total_packets(), u64{kProducers} * kBursts * kBurst);
  EXPECT_GT(dp.epoch(), 0u);
  EXPECT_GT(dp.migrations(), 0u);
  // The streaming counters saw traffic.  (Not the exact total: a shard
  // shrink retires the dying shards' counters, like every per-shard
  // counter here.)
  u64 stream_pkts = 0;
  for (const Dataplane::ShardCounters& c : dp.CountersSnapshotRelaxed())
    stream_pkts += c.stream_pkts;
  EXPECT_GT(stream_pkts, 0u);
}

}  // namespace
}  // namespace menshen
