// Compiled per-module execution plans: liveness-pruned parse/deparse.
//
// A tenant's module binding fully determines which PHV containers any
// stage can read — the key-extractor selections, the predicate operands
// and the VLIW actions reachable through the module's match entries name
// every container that can influence processing.  Everything else the
// parser would extract is provably dead, and a deparse action that
// writes an unmodified container back to the very bytes it was parsed
// from is provably a no-op.  CompileModuleExecPlan walks one overlay
// row's configuration across every stage and compiles a ParsePlan /
// DeparsePlan holding only the actions that can matter, so the batched
// hot path skips the dead byte movement.  The linear full parse/deparse
// (Parser::ParseInto, Deparser::Deparse) survives unchanged as the
// differential reference; tests/test_exec_plan.cpp pins the two
// byte-identical on every tenant-observable output.
//
// Plans are compiled per overlay row but conservatively: reachable match
// entries are collected for every module ID aliasing the row, so an
// aliased module (IDs beyond the table depth, rejected by admission but
// exercised by tests) only ever makes *more* containers live — never
// less, which is the safe direction.
#pragma once

#include <array>
#include <cstddef>

#include "common/types.hpp"
#include "pipeline/entries.hpp"
#include "pipeline/params.hpp"

namespace menshen {

class Stage;

/// One surviving parse/deparse action compiled to raw byte movement:
/// the PHV container resolved to its byte offset at plan-compile time,
/// so the hot path is a bounds check and one fixed-width 2-, 4- or
/// 6-byte move (MoveContainerBytes, pipeline/plan_exec.hpp).
struct PlannedMove {
  u8 phv_off = 0;  // container byte offset within the PHV
  u8 width = 0;    // container width in bytes: 2, 4 or 6
  u8 pkt_off = 0;  // byte offset within the parser window
};

/// The surviving subset of one module's parser actions (valid and live),
/// in original table order.
struct ParsePlan {
  std::array<PlannedMove, params::kParserActionsPerEntry> moves{};
  u8 count = 0;        // live actions compiled into `moves`
  u8 pruned = 0;       // valid actions dropped as dead
};

/// The surviving subset of one module's deparser actions (valid and not
/// provably identity), in original table order.
struct DeparsePlan {
  std::array<PlannedMove, params::kParserActionsPerEntry> moves{};
  u8 count = 0;
  u8 pruned = 0;       // valid actions dropped as identity writes
};

/// Why an overlay row is excluded from flow-verdict caching
/// (pipeline/flow_cache): the first disqualifying fact the provability
/// scan finds, or kNone when the row's end-to-end verdict is provably a
/// pure function of its per-stage one-word masked keys.
enum class FlowCacheBlocker : u8 {
  kNone = 0,          // cacheable: constant actions, one-word keys
  kStatefulOp,        // a reachable action touches stateful memory
  kVariableOperand,   // a reachable action reads a PHV container
  kWideKey,           // a stage's key mask keeps bits above key word 0
  kPredicateWritten,  // a predicate operand container is action-written
};
[[nodiscard]] const char* FlowCacheBlockerName(FlowCacheBlocker b);

/// One overlay row's compiled execution plan, cached by Pipeline and
/// invalidated off the overlay/config version counters.
struct ModuleExecPlan {
  ParsePlan parse;
  DeparsePlan deparse;
  /// Flat-container bitmask (bit f = flat container f, 0-23) of the
  /// containers some stage can read under this row's configuration —
  /// key-extractor slots surviving the mask, predicate operands, and
  /// operands of VLIW actions reachable through the row's match entries.
  u32 read_live = 0;
  /// Flat-container bitmask of the containers a reachable VLIW action
  /// may overwrite.
  u32 written = 0;
  /// Flow-verdict cacheability (pipeline/flow_cache.hpp).  kNone iff (1)
  /// every stage's masked key fits key word 0, (2) every VLIW action
  /// reachable through any module aliasing the row uses only constant
  /// ops (set/port/discard/mcast — no stateful memory, no container
  /// operands), and (3) no active predicate reads a container a
  /// reachable action may write.  Under those three facts the whole
  /// match-action chain's outcome — and hence the recorded effect list —
  /// is a pure function of the per-stage key words extracted from the
  /// freshly parsed PHV, which is what makes memoizing it sound.
  FlowCacheBlocker flow_blocker = FlowCacheBlocker::kNone;
  [[nodiscard]] bool flow_cacheable() const {
    return flow_blocker == FlowCacheBlocker::kNone;
  }

  /// Key-gather plan for the flow-cache pass (Pipeline::RunSpanCached):
  /// the probing stages — nonzero key masks, same condition as
  /// FlowStageKey::skip, derived from the same configuration at the same
  /// version stamp — in stage order.  The pass extracts and hashes only
  /// these words, so a row with one probing stage pays one extraction
  /// and one multiply per packet (skip stages keep the constant 0 the
  /// key array is pre-zeroed to and stay out of the hash).
  struct KeyGather {
    u8 count = 0;
    std::array<u8, params::kNumStages> stages{};
  };
  KeyGather gather;

  /// Plan-level kernel-shape facts (pipeline/kernels): conservative
  /// properties of every VLIW action reachable through the row's match
  /// entries, computed with the same per-address reachability rule as
  /// the liveness scan.  The specialized straight-line kernels are
  /// selected per module run from these bits plus the run-resolved step
  /// count; `wide_or_ternary` rows route to the interpreted plan path
  /// (the one shape class with no registered kernel).
  struct KernelShape {
    /// Some stage with a nonzero key mask is ternary or keeps mask bits
    /// above key word 0 — its probe needs the BitVec/TCAM machinery the
    /// kernels do not inline.  (An all-zero-mask ternary stage is fine:
    /// its constant lookup resolves in Stage::BeginRun.)
    bool wide_or_ternary = false;
    /// Some reachable action touches stateful memory.
    bool stateful = false;
    /// Some reachable VLIW plan has more than one active slot or needs
    /// the incoming-PHV snapshot; single-slot rows execute with neither.
    bool multi_slot = false;
    /// Upper bound on the stages that can contribute a kernel step: a
    /// probing stage always can, an all-zero-mask stage only if some
    /// valid match entry aliases the row (a constant hit is possible).
    u8 potential_steps = 0;
  };
  KernelShape kernel;
};

/// Compiles the execution plan for overlay row `row`: computes container
/// liveness across `num_stages` stages and prunes the row's parser /
/// deparser entries accordingly.
[[nodiscard]] ModuleExecPlan CompileModuleExecPlan(
    const ParserEntry& parse_entry, const DeparserEntry& deparse_entry,
    const Stage* stages, std::size_t num_stages, std::size_t row);

}  // namespace menshen
