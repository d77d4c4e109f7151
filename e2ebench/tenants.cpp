#include "tenants.hpp"

#include <cstdlib>
#include <cstring>

namespace e2e {

using namespace menshen;

namespace {

constexpr const char* kRouterDsl = R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 4; }
}
)";

constexpr const char* kForwarderDsl = R"(
module forwarder {
  field dport : 2 @ 40;
  action go(p) { port(p); }
  table t { key = { dport }; actions = { go }; size = 4; }
}
)";

constexpr std::size_t kCamBlock = 4;

double MsSince(u64 t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

/// Compiles `source` for `alloc`, lets `install` add the entries, and
/// aborts on any diagnostic.
template <class Install>
Tenant Build(std::string_view source, ModuleAllocation alloc, SetupTimes& st,
             Install&& install) {
  const u64 t0 = NowNs();
  Tenant t{CompileDsl(source, alloc), std::move(alloc)};
  if (!t.module.ok())
    Fail("tenant " + std::to_string(t.alloc.id.value()) +
         " failed to compile:\n" + t.module.diags().ToString());
  install(t.module);
  if (!t.module.ok())
    Fail("tenant " + std::to_string(t.alloc.id.value()) +
         " rejected an entry:\n" + t.module.diags().ToString());
  st.compile_ms += MsSince(t0);
  return t;
}

}  // namespace

void Fail(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(2);
}

Tenant Router(u16 vid, std::size_t cam_base, u16 port_base, SetupTimes& st) {
  return Build(kRouterDsl,
               UniformAllocation(ModuleId(vid), 0, 1, cam_base, kCamBlock),
               st, [&](CompiledModule& m) {
                 for (u16 tag = 0; tag < 3; ++tag)
                   m.AddEntry("routes", {{"tag", tag}}, std::nullopt, "fwd",
                              {static_cast<u64>(port_base + tag)});
                 m.AddEntry("routes", {{"tag", 3}}, std::nullopt, "sink", {});
               });
}

Tenant Forwarder(u16 vid, std::size_t cam_base,
                 const std::vector<std::pair<u16, u16>>& routes,
                 SetupTimes& st) {
  return Build(kForwarderDsl,
               UniformAllocation(ModuleId(vid), 0, 1, cam_base, kCamBlock),
               st, [&](CompiledModule& m) {
                 for (const auto& [dport, out] : routes)
                   m.AddEntry("t", {{"dport", dport}}, std::nullopt, "go",
                              {out});
               });
}

Tenant Calc(u16 vid, std::size_t cam_base, u16 reply_port, SetupTimes& st) {
  return Build(apps::CalcDsl(),
               UniformAllocation(ModuleId(vid), 0, 1, cam_base, kCamBlock),
               st, [&](CompiledModule& m) {
                 apps::InstallCalcEntries(m, reply_port);
               });
}

Tenant NetChain(u16 vid, u8 first_stage, u16 out_port, SetupTimes& st) {
  return Build(apps::NetChainDsl(),
               UniformAllocation(ModuleId(vid), first_stage, 1, 0, kCamBlock,
                                 0, 8),
               st, [&](CompiledModule& m) {
                 apps::InstallNetChainEntries(m, out_port);
               });
}

Tenant LoadBalance(u16 vid, std::size_t cam_base,
                   const std::vector<apps::LbFlow>& flows, SetupTimes& st) {
  return Build(apps::LoadBalanceDsl(),
               UniformAllocation(ModuleId(vid), 0, 1, cam_base, kCamBlock),
               st, [&](CompiledModule& m) {
                 apps::InstallLoadBalanceEntries(m, flows);
               });
}

void Admit(ModuleManager& mgr, const Tenant& t, SetupTimes& st) {
  const u64 t0 = NowNs();
  const AdmissionResult check = mgr.CheckAdmission(t.alloc);
  if (!check.admitted)
    Fail("tenant " + std::to_string(t.alloc.id.value()) +
         " refused admission: " + check.reason);
  const ModuleManager::LoadResult r = mgr.Load(t.module, t.alloc);
  if (!r.admission.admitted)
    Fail("tenant " + std::to_string(t.alloc.id.value()) +
         " refused at load: " + r.admission.reason);
  st.load_ms += MsSince(t0);
}

void Trace::Add(const menshen::Packet& p, bool is_chained) {
  const std::span<const u8> b = p.bytes().bytes();
  if (b.size() < kDueOffset + 8)
    Fail("frame too short for the harness bytes");
  off.push_back(static_cast<u32>(in.size()));
  len.push_back(static_cast<u16>(b.size()));
  in.insert(in.end(), b.begin(), b.end());
  port.push_back(0);
  drop.push_back(0);
  chained.push_back(is_chained ? 1 : 0);
  bytes += b.size();
}

menshen::Packet Trace::Stamped(std::size_t i, u64 seq) const {
  const std::span<const u8> f = Frame(i);
  menshen::Packet p(ByteBuffer(std::vector<u8>(f.begin(), f.end())));
  StampU64(p.bytes().bytes().data(), kSeqOffset, seq);
  return p;
}

void Trace::SetOut(std::size_t i, const menshen::Packet& p) {
  if (p.size() != len[i]) Fail("reference changed a frame's length");
  if (out.size() != in.size()) out.resize(in.size());
  std::memcpy(out.data() + off[i], p.bytes().bytes().data(), len[i]);
  port[i] = p.egress_port;
  drop[i] = p.disposition == Disposition::kDrop ? 1 : 0;
}

void StampU64(u8* frame, std::size_t offset, u64 v) {
  std::memcpy(frame + offset, &v, sizeof v);
}

u64 ReadU64(const u8* frame, std::size_t offset) {
  u64 v = 0;
  std::memcpy(&v, frame + offset, sizeof v);
  return v;
}

void ExpectFrom(Pipeline& ref, Trace& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    PipelineResult r = ref.ProcessUnplanned(t.Stamped(i, i));
    if (r.filter_verdict != FilterVerdict::kData || !r.output)
      Fail("reference filtered a workload frame; every frame must be data");
    t.SetOut(i, *r.output);
  }
}

void Checker::Check(const u8* frame, std::size_t len, u16 port) {
  ++checked;
  if (len < kDueOffset + 8) return Mismatch("runt frame", 0, 0);
  const u16 vid = static_cast<u16>(
      ((frame[offsets::kVlanTci] << 8) | frame[offsets::kVlanTci + 1]) & 0xFFF);
  const Trace* t = trace_of_[vid];
  const u64 seq = ReadU64(frame, kSeqOffset);
  if (t == nullptr) return Mismatch("output of an unknown tenant", vid, seq);
  const std::size_t idx = seq % t->size();

  if (seq < next_seq_[vid]) {
    ++reordered;
    if (reordered <= 5)
      std::fprintf(stderr, "bench_e2e: tenant %u reordered at seq %llu\n", vid,
                   static_cast<unsigned long long>(seq));
  } else {
    next_seq_[vid] = seq + 1;
  }
  if (t->drop[idx]) return Mismatch("dropped frame came out", vid, seq);
  if (len != t->len[idx]) return Mismatch("length differs", vid, seq);
  if (port != t->port[idx]) return Mismatch("egress port differs", vid, seq);

  const u8* ref = t->Out(idx);
  const bool first_pass = seq == idx;
  if (t->chained[idx]) {
    const u32 cs = (u32{frame[kChainSeqOffset]} << 24) |
                   (u32{frame[kChainSeqOffset + 1]} << 16) |
                   (u32{frame[kChainSeqOffset + 2]} << 8) |
                   u32{frame[kChainSeqOffset + 3]};
    if (chain_seen_ && cs <= last_chain_seq_)
      return Mismatch("NetChain sequence number did not increase", vid, seq);
    chain_seen_ = true;
    last_chain_seq_ = cs;
    if (first_pass ? std::memcmp(frame, ref, len) != 0
                   : std::memcmp(frame, ref, kChainSeqOffset) != 0 ||
                         std::memcmp(frame + kChainSeqOffset + 4,
                                     ref + kChainSeqOffset + 4,
                                     kCheckBytes - kChainSeqOffset - 4) != 0)
      Mismatch("bytes differ from the reference", vid, seq);
    return;
  }
  if (std::memcmp(frame, ref, first_pass ? len : kCheckBytes) != 0)
    Mismatch("bytes differ from the reference", vid, seq);
}

void Checker::Mismatch(const char* what, u16 vid, u64 seq) {
  ++mismatched;
  if (mismatched <= 5)
    std::fprintf(stderr, "bench_e2e: tenant %u seq %llu: %s\n", vid,
                 static_cast<unsigned long long>(seq), what);
}

}  // namespace e2e
