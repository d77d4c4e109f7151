// Concurrent epoch-based dataplane (src/dataplane/): per-shard worker
// threads must be byte-identical to the single-pipeline reference, a
// config epoch committed mid-run must never tear (no batch observes a
// partially applied write set), and concurrent ProcessBatch /
// StageWrite / CommitEpoch / rebalancing interleavings must be
// ASAN/TSAN-clean.
#include "dataplane/dataplane.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "runtime/rebalancer.hpp"
#include "runtime/stats.hpp"
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

// Four tenants: two stateless calculators and two NetChain replicas
// (whose stateful sequence counter makes any ordering or state-placement
// bug visible in the output bytes).
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

std::vector<Packet> MixedTrace(std::size_t count, u64 seed) {
  Rng rng(seed);
  std::vector<Packet> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const TenantApp& t = Tenants()[rng.Below(Tenants().size())];
    if (t.spec == &apps::CalcSpec()) {
      const u16 op =
          static_cast<u16>(rng.Between(apps::kCalcOpAdd, apps::kCalcOpEcho));
      trace.push_back(CalcPacket(t.vid, op, static_cast<u32>(rng.Below(1000)),
                                 static_cast<u32>(rng.Below(1000))));
    } else {
      trace.push_back(NetChainPacket(t.vid, apps::kNetChainOpSeq));
    }
  }
  return trace;
}

void ExpectSameResult(const PipelineResult& expected, const PipelineResult& got,
                      std::size_t index) {
  EXPECT_EQ(expected.filter_verdict, got.filter_verdict) << "packet " << index;
  ASSERT_EQ(expected.output.has_value(), got.output.has_value())
      << "packet " << index;
  if (expected.output) {
    EXPECT_EQ(expected.output->bytes().hex(), got.output->bytes().hex())
        << "packet " << index;
    EXPECT_EQ(expected.output->disposition, got.output->disposition)
        << "packet " << index;
    EXPECT_EQ(expected.output->egress_port, got.output->egress_port)
        << "packet " << index;
    EXPECT_EQ(expected.output->multicast_ports, got.output->multicast_ports)
        << "packet " << index;
  }
}

// --- Acceptance: concurrent N>=4 worker shards, byte-identical ----------------

TEST(DataplaneConcurrent, FourWorkerShardsMatchSinglePipelineByteForByte) {
  const std::vector<CompiledModule> images = CompileTenants();

  Pipeline single;
  for (const CompiledModule& m : images)
    for (const ConfigWrite& w : m.AllWrites()) single.ApplyWrite(w);

  Dataplane dp(DataplaneConfig{.num_shards = 4, .worker_threads = true});
  ASSERT_EQ(dp.num_workers(), 4u);
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  // The tenants must actually spread across shards so the worker threads
  // genuinely run concurrently.
  std::set<std::size_t> used;
  for (const TenantApp& t : Tenants()) used.insert(dp.ShardFor(ModuleId(t.vid)));
  ASSERT_GE(used.size(), 2u);

  const std::vector<Packet> trace = MixedTrace(3000, /*seed=*/11);
  std::vector<PipelineResult> expected;
  expected.reserve(trace.size());
  for (const Packet& p : trace) expected.push_back(single.Process(p));

  // Several batches, so worker threads fork/join repeatedly.
  constexpr std::size_t kBatchSize = 512;
  std::vector<PipelineResult> got;
  for (std::size_t base = 0; base < trace.size(); base += kBatchSize) {
    const std::size_t n = std::min(kBatchSize, trace.size() - base);
    std::vector<Packet> batch(trace.begin() + base, trace.begin() + base + n);
    for (PipelineResult& r : dp.ProcessBatch(std::move(batch)))
      got.push_back(std::move(r));
  }

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ExpectSameResult(expected[i], got[i], i);
  for (const TenantApp& t : Tenants()) {
    EXPECT_EQ(dp.forwarded(ModuleId(t.vid)), single.forwarded(ModuleId(t.vid)));
    EXPECT_EQ(dp.dropped(ModuleId(t.vid)), single.dropped(ModuleId(t.vid)));
  }
}

TEST(DataplaneConcurrent, WorkerPoolMatchesSequentialShardedPath) {
  const std::vector<CompiledModule> images = CompileTenants();

  Dataplane seq(DataplaneConfig{.num_shards = 4, .worker_threads = false});
  Dataplane mt(DataplaneConfig{.num_shards = 4, .worker_threads = true});
  EXPECT_EQ(seq.num_workers(), 0u);
  EXPECT_EQ(mt.num_workers(), 4u);
  for (const CompiledModule& m : images) {
    seq.ApplyWrites(m.AllWrites());
    mt.ApplyWrites(m.AllWrites());
  }

  const std::vector<Packet> trace = MixedTrace(2000, /*seed=*/23);
  std::vector<Packet> a = trace, b = trace;
  const std::vector<PipelineResult> ra = seq.ProcessBatch(std::move(a));
  const std::vector<PipelineResult> rb = mt.ProcessBatch(std::move(b));
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) ExpectSameResult(ra[i], rb[i], i);

  const std::vector<Dataplane::ShardCounters> seq_rows =
      seq.CountersSnapshotRelaxed();
  const std::vector<Dataplane::ShardCounters> mt_rows =
      mt.CountersSnapshotRelaxed();
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(seq_rows[s].packets, mt_rows[s].packets);
    EXPECT_EQ(seq_rows[s].forwarded, mt_rows[s].forwarded);
  }
}

// --- Acceptance: epochs never tear --------------------------------------------

// A hand-rolled two-stage module whose configuration image spans TWO
// writes that only make sense together: stage 0 adds X and stage 1 adds
// Y to the IPv4 destination, and the (X, Y) pairs of the two images are
// chosen so every torn combination produces a value from neither image.
//
//   image A: X=100, Y=10  ->  dst + 110
//   image B: X=7,   Y=70  ->  dst + 77
//   torn:    (100,70) -> +170, (7,10) -> +17   -> detected
//
// A commit landing inside a batch shows up as a mixed batch.
constexpr u16 kEpochVid = 2;
constexpr u32 kBaseDst = 1000;

ConfigWrite VliwAddWrite(std::size_t stage, u16 imm) {
  VliwEntry vliw;
  vliw.slots[8] = {AluOp::kAddi, 8, 0, imm};  // 4B container 0 += imm
  ConfigWrite w;
  w.kind = ResourceKind::kVliwAction;
  w.stage = stage;
  w.index = 0;
  w.payload = vliw.Encode();
  return w;
}

std::vector<ConfigWrite> EpochImage(u16 x, u16 y) {
  return {VliwAddWrite(0, x), VliwAddWrite(1, y)};
}

void InstallEpochTestModule(Dataplane& dp) {
  ParserEntry parser;
  parser.actions[0] = {true, {ContainerType::k2B, 0}, offsets::kL4DstPort};
  parser.actions[1] = {true, {ContainerType::k4B, 0}, offsets::kIpv4Dst};
  ConfigWrite w;
  w.kind = ResourceKind::kParserTable;
  w.index = kEpochVid;
  w.payload = parser.Encode();
  dp.ApplyWrite(w);

  DeparserEntry deparser;
  deparser.actions[0] = {true, {ContainerType::k4B, 0}, offsets::kIpv4Dst};
  w.kind = ResourceKind::kDeparserTable;
  w.payload = deparser.Encode();
  dp.ApplyWrite(w);

  const auto slots = KeySlots();
  for (std::size_t stage = 0; stage < 2; ++stage) {
    w.stage = stage;

    w.kind = ResourceKind::kKeyExtractor;
    w.index = kEpochVid;
    w.payload = KeyExtractorEntry{}.Encode();  // 1st2B slot = container 0
    dp.ApplyWrite(w);

    KeyMaskEntry mask;
    for (std::size_t b = 0; b < 16; ++b)
      mask.mask.set_bit(slots[4].lsb + b, true);
    w.kind = ResourceKind::kKeyMask;
    w.payload = mask.Encode();
    dp.ApplyWrite(w);

    CamEntry cam;
    cam.valid = true;
    cam.key = BitVec(params::kKeyBits);
    cam.key.set_field(slots[4].lsb, 16, 999);
    cam.module = ModuleId(kEpochVid);
    w.kind = ResourceKind::kCamEntry;
    w.index = 0;
    w.payload = cam.Encode();
    dp.ApplyWrite(w);
  }
  dp.ApplyWrites(EpochImage(100, 10));  // start on image A
}

TEST(DataplaneConcurrent, EpochCommitMidRunNeverTearsAcrossBatches) {
  Dataplane dp(DataplaneConfig{.num_shards = 4, .worker_threads = true});
  InstallEpochTestModule(dp);

  constexpr u32 kImageA = kBaseDst + 100 + 10;
  constexpr u32 kImageB = kBaseDst + 7 + 70;
  constexpr int kBatches = 150;
  constexpr int kCommits = 30;
  constexpr std::size_t kPerBatch = 64;

  std::atomic<bool> data_done{false};
  std::atomic<int> tear_batches{0};
  std::atomic<int> bad_values{0};
  std::atomic<int> a_batches{0};
  std::atomic<int> b_batches{0};

  // The liveness assertions below (both images observed) must hold under
  // any scheduling, including a loaded CI host where one thread can lap
  // the other: both loops therefore pace against observed progress — the
  // data thread keeps processing (up to a generous cap) until it has seen
  // both images, and the control thread keeps flipping images until then.
  constexpr int kMaxBatches = 20 * kBatches;
  std::thread data([&] {
    for (int b = 0; (b < kBatches || a_batches.load() == 0 ||
                     b_batches.load() == 0) &&
                    b < kMaxBatches;
         ++b) {
      std::vector<Packet> batch;
      batch.reserve(kPerBatch);
      for (std::size_t i = 0; i < kPerBatch; ++i)
        batch.push_back(PacketBuilder{}
                            .vid(ModuleId(kEpochVid))
                            .ipv4(0, kBaseDst)
                            .udp(1, 999)
                            .Build());
      const std::vector<PipelineResult> results =
          dp.ProcessBatch(std::move(batch));
      bool saw_a = false, saw_b = false;
      for (const PipelineResult& r : results) {
        ASSERT_TRUE(r.output.has_value());
        const u32 v = r.output->ipv4_dst();
        if (v == kImageA) {
          saw_a = true;
        } else if (v == kImageB) {
          saw_b = true;
        } else {
          ++bad_values;  // a value from neither image: torn write set
        }
      }
      if (saw_a && saw_b) ++tear_batches;  // commit landed inside a batch
      if (saw_a) ++a_batches;
      if (saw_b) ++b_batches;
    }
    data_done = true;
  });

  std::thread control([&] {
    for (int c = 0; (c < kCommits || a_batches.load() == 0 ||
                     b_batches.load() == 0) &&
                    !data_done;
         ++c) {
      dp.StageWrites((c % 2 == 0) ? EpochImage(7, 70) : EpochImage(100, 10));
      dp.CommitEpoch();
      std::this_thread::yield();
    }
  });

  data.join();
  control.join();

  EXPECT_EQ(tear_batches.load(), 0);
  EXPECT_EQ(bad_values.load(), 0);
  EXPECT_GT(dp.epoch(), 0u);
  EXPECT_EQ(dp.pending_writes(), 0u);
  // The run must actually have exercised both images (the commits really
  // flipped configuration under live traffic).
  EXPECT_GT(a_batches.load(), 0);
  EXPECT_GT(b_batches.load(), 0);
}

// --- Stress: concurrent batches, epochs, migrations and stats -----------------

TEST(DataplaneConcurrent, StressConcurrentBatchesEpochsAndRebalancing) {
  const std::vector<CompiledModule> images = CompileTenants();
  Dataplane dp(DataplaneConfig{.num_shards = 4, .worker_threads = true});
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());

  const std::vector<Packet> trace = MixedTrace(256, /*seed=*/31);
  constexpr int kBatches = 150;

  std::atomic<bool> data_done{false};
  std::atomic<u64> processed{0};
  // The data thread holds its second half until the control thread has
  // committed an epoch and moved a tenant, so the churn always lands
  // mid-run however the threads are scheduled.
  std::atomic<bool> churned{false};

  std::thread data([&] {
    for (int b = 0; b < kBatches; ++b) {
      if (b == kBatches / 2)
        while (!churned.load(std::memory_order_acquire))
          std::this_thread::yield();
      std::vector<Packet> batch = trace;
      processed += dp.ProcessBatch(std::move(batch)).size();
    }
    data_done = true;
  });

  std::thread control([&] {
    Rebalancer rebalancer;
    int flip = 0;
    while (!data_done) {
      for (const CompiledModule& m : images) dp.StageWrites(m.AllWrites());
      dp.CommitEpoch();
      // Steering churn: alternate a tenant between two shards, and let
      // the stats-driven policy run against live counters.
      dp.MigrateTenant(ModuleId(4), static_cast<std::size_t>(flip++ % 2));
      if (dp.migrations() != 0) churned.store(true, std::memory_order_release);
      rebalancer.Rebalance(dp);
      const DataplaneStats stats = CollectDataplaneStats(dp);
      (void)stats;
      std::this_thread::yield();
    }
  });

  data.join();
  control.join();

  EXPECT_EQ(processed.load(), static_cast<u64>(trace.size()) * kBatches);
  EXPECT_EQ(dp.total_packets(), processed.load());
  EXPECT_GT(dp.epoch(), 0u);
  EXPECT_GT(dp.migrations(), 0u);
}

// --- Satellite: num_shards == 0 scales from hardware_concurrency --------------

TEST(DataplaneConcurrent, ZeroShardsDefaultsToHardwareConcurrency) {
  Dataplane dp(DataplaneConfig{.num_shards = 0});
  const std::size_t expected =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(dp.num_shards(), expected);
  if (expected >= 2) {
    EXPECT_EQ(dp.num_workers(), expected);
  }

  // The auto-scaled engine still processes traffic.
  const std::vector<CompiledModule> images = CompileTenants();
  for (const CompiledModule& m : images) dp.ApplyWrites(m.AllWrites());
  std::vector<Packet> batch;
  batch.push_back(CalcPacket(2, apps::kCalcOpAdd, 20, 22));
  const auto results = dp.ProcessBatch(std::move(batch));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].output.has_value());
  EXPECT_EQ(CalcResult(*results[0].output), 42u);
}

// --- Epoch lifecycle observability --------------------------------------------

TEST(DataplaneConcurrent, EpochLifecycleIsExposedViaStats) {
  Dataplane dp(DataplaneConfig{.num_shards = 3});

  ParserEntry entry;
  entry.actions[0] = ParserAction{true, {ContainerType::k2B, 3}, 14};
  ConfigWrite write;
  write.kind = ResourceKind::kParserTable;
  write.stage = 0;
  write.index = 9;
  write.payload = entry.Encode();

  dp.StageWrite(write);
  EXPECT_EQ(dp.epoch(), 0u);
  EXPECT_EQ(dp.pending_writes(), 1u);
  // Staged but uncommitted: invisible to every replica.
  for (std::size_t s = 0; s < dp.num_shards(); ++s)
    EXPECT_EQ(dp.shard(s).config_writes_applied(), 0u) << "shard " << s;

  EXPECT_EQ(dp.CommitEpoch(), 1u);
  EXPECT_EQ(dp.epoch(), 1u);
  EXPECT_EQ(dp.pending_writes(), 0u);
  for (std::size_t s = 0; s < dp.num_shards(); ++s)
    EXPECT_EQ(dp.shard(s).parser().table().At(9), entry) << "shard " << s;

  // An empty commit is a pure quiesce barrier and still advances the epoch.
  EXPECT_EQ(dp.CommitEpoch(), 2u);

  const DataplaneStats stats = CollectDataplaneStats(dp);
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.pending_writes, 0u);
  EXPECT_EQ(stats.writes_broadcast, 1u);
  const std::string dump = DumpDataplaneStats(dp);
  EXPECT_NE(dump.find("config epoch 2"), std::string::npos);
}

}  // namespace
}  // namespace menshen
