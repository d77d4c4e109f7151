// Tenant modules, input traces and reference expectations of the
// end-to-end workloads.  Everything goes through the library's public
// API: Compile/CompileDsl for modules, ModuleManager for admission and
// load, and Pipeline::ProcessUnplanned as the semantic reference every
// output is checked against.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "compiler/compiler.hpp"
#include "harness.hpp"
#include "packet/packet.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/module_manager.hpp"

namespace e2e {

/// Harness-owned frame bytes.  No module of these workloads reads or
/// writes past byte 60, so the producer's sequence number and the open
/// loop's due time ride in the payload tail untouched, and the first
/// kCheckBytes hold every byte a module can change.
inline constexpr std::size_t kSeqOffset = 64;
inline constexpr std::size_t kDueOffset = 72;
inline constexpr std::size_t kCheckBytes = 64;
/// NetChain's sequence number field (ch_seq, 4 bytes big-endian).
inline constexpr std::size_t kChainSeqOffset = 48;

/// Aborts the run (exit code 2, no result): the workload cannot be set
/// up as specified, so nothing it measured would mean anything.
[[noreturn]] void Fail(const std::string& what);

/// Wall time one set-up spent compiling and loading tenants.
struct SetupTimes {
  double compile_ms = 0;
  double load_ms = 0;
};

/// A compiled tenant and the allocation it is admitted under.
struct Tenant {
  menshen::CompiledModule module;
  menshen::ModuleAllocation alloc;
};

// Tenant builders.  Each occupies one 4-entry CAM block at `cam_base` of
// the stages it is given, and aborts unless the module compiles and every
// entry installs.

/// Keyed on a 2-byte tag at byte 46: tags 0-2 forward to port
/// `port_base + tag`, tag 3 is dropped; other tags miss and pass.
Tenant Router(u16 vid, std::size_t cam_base, u16 port_base, SetupTimes& st);
/// Keyed on the UDP destination port: `routes` maps ports to egress ports.
Tenant Forwarder(u16 vid, std::size_t cam_base,
                 const std::vector<std::pair<u16, u16>>& routes,
                 SetupTimes& st);
/// The CALC app (add/sub/echo) replying through `reply_port`.
Tenant Calc(u16 vid, std::size_t cam_base, u16 reply_port, SetupTimes& st);
/// The NetChain sequencer, placed from stage `first_stage` on.
Tenant NetChain(u16 vid, u8 first_stage, u16 out_port, SetupTimes& st);
/// The load-balance app with its 4-tuple key.
Tenant LoadBalance(u16 vid, std::size_t cam_base,
                   const std::vector<menshen::apps::LbFlow>& flows,
                   SetupTimes& st);

/// Admission check plus load through the secure reconfiguration protocol
/// onto the control plane's pipeline; aborts if the tenant is refused.
void Admit(menshen::ModuleManager& mgr, const Tenant& t, SetupTimes& st);

/// A producer's input frames and, once the reference ran, what each
/// frame becomes.  Producers cycle through the trace; the harness
/// sequence number (pass * size + index) tells the checker which frame an
/// output came from.
struct Trace {
  std::vector<u8> in;    // input frames back to back, harness bytes zero
  std::vector<u8> out;   // reference output frames, same layout
  std::vector<u32> off;
  std::vector<u16> len;
  std::vector<u16> port;     // reference egress port
  std::vector<u8> drop;      // reference module drop
  std::vector<u8> chained;   // output carries a NetChain sequence number
  u64 bytes = 0;             // total input bytes

  void Add(const menshen::Packet& p, bool is_chained);
  [[nodiscard]] std::size_t size() const { return len.size(); }
  [[nodiscard]] std::span<const u8> Frame(std::size_t i) const {
    return {in.data() + off[i], len[i]};
  }
  [[nodiscard]] const u8* Out(std::size_t i) const { return out.data() + off[i]; }
  /// Frame `i` stamped with harness sequence number `seq`.
  [[nodiscard]] menshen::Packet Stamped(std::size_t i, u64 seq) const;
  /// Records frame `i`'s reference output.
  void SetOut(std::size_t i, const menshen::Packet& p);
};

void StampU64(u8* frame, std::size_t offset, u64 v);
[[nodiscard]] u64 ReadU64(const u8* frame, std::size_t offset);

/// Runs every frame (sequence number = index) through
/// `ref.ProcessUnplanned` in trace order and records the outputs.
void ExpectFrom(menshen::Pipeline& ref, Trace& t);

/// Checks dataplane outputs against the reference.  On the first pass
/// over a trace (sequence number == index) whole frames are compared
/// byte for byte; afterwards the bytes a module may write, the egress
/// port, per-tenant order by sequence number, and strictly increasing
/// NetChain sequence numbers.
class Checker {
 public:
  Checker() : next_seq_(4096, 0) {}
  /// Outputs carrying VLAN `vid` come from `t`.
  void Register(u16 vid, const Trace* t) { trace_of_[vid] = t; }
  void Check(const u8* frame, std::size_t len, u16 port);
  /// Counts an output that is wrong for a reason found outside Check.
  void Mismatch(const char* what, u16 vid, u64 seq);

  u64 checked = 0;
  u64 mismatched = 0;
  u64 reordered = 0;

 private:

  std::array<const Trace*, 4096> trace_of_{};
  std::vector<u64> next_seq_;  // per VLAN: lowest sequence number still valid
  u32 last_chain_seq_ = 0;
  bool chain_seen_ = false;
};

}  // namespace e2e
