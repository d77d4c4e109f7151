// Shared helpers for the Menshen test suite.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "apps/apps.hpp"
#include "compiler/compiler.hpp"
#include "packet/packet.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/module_manager.hpp"

namespace menshen::test {

/// A standard standalone allocation: all five stages, a contiguous CAM
/// block and a stateful segment in each.
inline ModuleAllocation StandardAlloc(u16 id, std::size_t cam_base = 0,
                                      std::size_t cam_count = 8,
                                      u8 seg_offset = 0, u8 seg_range = 32) {
  return UniformAllocation(ModuleId(id), 0, params::kNumStages, cam_base,
                           cam_count, seg_offset, seg_range);
}

/// Compiles a spec and fails the test (with diagnostics) if it does not
/// compile cleanly.
inline CompiledModule MustCompile(const ModuleSpec& spec,
                                  const ModuleAllocation& alloc) {
  CompiledModule m = Compile(spec, alloc);
  EXPECT_TRUE(m.ok()) << m.diags().ToString();
  return m;
}

/// Loads a compiled module through the full control-plane path and fails
/// the test on any refusal.
inline void MustLoad(ModuleManager& mgr, const CompiledModule& m,
                     const ModuleAllocation& alloc) {
  const auto result = mgr.Load(m, alloc);
  ASSERT_TRUE(result.admission.admitted) << result.admission.reason;
}

// --- Payload builders for the app protocols -----------------------------------

/// CALC request: opcode + operands at payload bytes 0-13.
inline Packet CalcPacket(u16 vid, u16 op, u32 a, u32 b) {
  Packet p = PacketBuilder{}
                 .vid(ModuleId(vid))
                 .udp(10000, 20000)
                 .frame_size(96)
                 .Build();
  p.bytes().set_u16(46, op);
  p.bytes().set_u32(48, a);
  p.bytes().set_u32(52, b);
  return p;
}
inline u32 CalcResult(const Packet& p) { return p.bytes().u32_at(56); }

/// NetCache request.
inline Packet NetCachePacket(u16 vid, u16 op, u32 key, u32 value = 0) {
  Packet p = PacketBuilder{}
                 .vid(ModuleId(vid))
                 .udp(10000, 30000)
                 .frame_size(96)
                 .Build();
  p.bytes().set_u16(46, op);
  p.bytes().set_u32(48, key);
  p.bytes().set_u32(52, value);
  return p;
}
inline u32 NetCacheValue(const Packet& p) { return p.bytes().u32_at(52); }

/// NetChain request.
inline Packet NetChainPacket(u16 vid, u16 op) {
  Packet p = PacketBuilder{}
                 .vid(ModuleId(vid))
                 .udp(10000, 40000)
                 .frame_size(96)
                 .Build();
  p.bytes().set_u16(46, op);
  return p;
}
inline u32 NetChainSeq(const Packet& p) { return p.bytes().u32_at(48); }

/// Source-routing request: tag + hop count at payload bytes 0-3.
inline Packet SourceRoutePacket(u16 vid, u16 tag, u16 hops) {
  Packet p = PacketBuilder{}
                 .vid(ModuleId(vid))
                 .udp(10000, 50000)
                 .frame_size(96)
                 .Build();
  p.bytes().set_u16(46, tag);
  p.bytes().set_u16(48, hops);
  return p;
}

// --- A flow-cacheable tenant -------------------------------------------------

/// One-word-key router with constant port/drop actions, so its row is
/// flow-cacheable (the flow-cache tier serves it).
inline const ModuleSpec& TagRouterSpec() {
  static const ModuleSpec spec = [] {
    Diagnostics d;
    ModuleSpec s = ParseModuleDsl(R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 4; }
}
)",
                                  d);
    if (!d.ok()) throw std::logic_error(d.ToString());
    return s;
  }();
  return spec;
}

/// The router with routes tag t -> port port_base + t for t < n_routes,
/// and tag n_routes dropped.
inline CompiledModule MakeTagRouter(const ModuleAllocation& alloc,
                                    u16 port_base, u16 n_routes) {
  CompiledModule m = MustCompile(TagRouterSpec(), alloc);
  for (u16 t = 0; t < n_routes; ++t)
    m.AddEntry("routes", {{"tag", t}}, std::nullopt, "fwd",
               {static_cast<u64>(port_base + t)});
  m.AddEntry("routes", {{"tag", n_routes}}, std::nullopt, "sink", {});
  EXPECT_TRUE(m.ok()) << m.diags().ToString();
  return m;
}

/// A 96-byte router request carrying `tag`.
inline Packet TagRouterPacket(u16 vid, u16 tag) {
  Packet p = PacketBuilder{}.vid(ModuleId(vid)).frame_size(96).Build();
  p.bytes().set_u16(46, tag);
  return p;
}

}  // namespace menshen::test
