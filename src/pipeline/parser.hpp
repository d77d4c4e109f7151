// Programmable parser and deparser (sections 3.1, 4.1).
//
// The parser extracts the module ID from the VLAN ID, looks up that
// module's parsing actions in the parser overlay table, and pulls header
// bytes from the first 128 bytes of the packet into PHV containers.  The
// PHV is zeroed first so nothing leaks between packets of different
// modules.  The deparser performs the inverse using an identically
// formatted table: it writes container bytes back into the packet at the
// configured offsets.
#pragma once

#include "packet/packet.hpp"
#include "phv/phv.hpp"
#include "pipeline/entries.hpp"
#include "pipeline/exec_plan.hpp"
#include "pipeline/overlay_table.hpp"

namespace menshen {

class Parser {
 public:
  /// Parses `pkt` into a fresh PHV under the packet's module configuration.
  [[nodiscard]] Phv Parse(const Packet& pkt) const;

  /// Batched hot path: parses `pkt` into the caller-owned `phv`, clearing
  /// it first so buffer reuse across packets preserves the zero-PHV
  /// isolation guarantee.  This is the linear full parse — every valid
  /// action of the module's entry runs — retained as the differential
  /// reference for the planned variant below.
  void ParseInto(const Packet& pkt, Phv& phv) const;

  /// Compiled-plan variant: runs only the plan's live actions (the
  /// pipeline's liveness analysis pruned the rest), no per-action valid
  /// checks, no overlay-table read — the caller resolved the plan per
  /// module run.  Containers whose parse was pruned stay zero; they are
  /// provably unobservable in the packet the pipeline emits
  /// (tests/test_exec_plan.cpp pins this against ParseInto).
  void ParseIntoPlanned(const Packet& pkt, Phv& phv,
                        const ParsePlan& plan) const;

  [[nodiscard]] OverlayTable<ParserEntry>& table() { return table_; }
  [[nodiscard]] const OverlayTable<ParserEntry>& table() const {
    return table_;
  }

 private:
  OverlayTable<ParserEntry> table_;
};

class Deparser {
 public:
  /// Writes the PHV containers named by the module's deparser entry back
  /// into the packet header bytes, then applies the PHV's disposition
  /// metadata (egress port / discard flag) to the packet.  Linear full
  /// deparse — the differential reference for the planned deparse
  /// (pipeline/plan_exec.hpp PlannedDeparseFrom).
  void Deparse(const Phv& phv, Packet& pkt) const;

  [[nodiscard]] OverlayTable<DeparserEntry>& table() { return table_; }
  [[nodiscard]] const OverlayTable<DeparserEntry>& table() const {
    return table_;
  }

 private:
  OverlayTable<DeparserEntry> table_;
};

}  // namespace menshen
