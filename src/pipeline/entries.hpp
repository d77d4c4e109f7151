// Configuration-table entry formats (paper Figure 7 and Table 5).
//
// Every per-module configuration that the overlay mechanism stores — parser
// actions, key-extractor selections, key masks, CAM entries, VLIW actions
// and segment-table entries — has an exact bit-level format here, with
// encode/decode to the byte payloads carried by reconfiguration packets.
// The simulator, the compiler backend and the software-to-hardware
// interface all share these definitions, so a mismatch is impossible by
// construction.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "phv/phv.hpp"
#include "pipeline/params.hpp"

namespace menshen {

// ---------------------------------------------------------------------------
// Parser / deparser actions (16 bits each, 10 per table entry).
//
// Bit layout (LSB first):  [0] valid, [3:1] container index, [5:4] container
// type, [12:6] bytes-from-head (0-127), [15:13] reserved.  This matches the
// field widths in section 4.1: 3 reserved + 7 offset + 2 type + 3 index + 1
// valid = 16 bits.
// ---------------------------------------------------------------------------
struct ParserAction {
  bool valid = false;
  ContainerRef container;
  u8 bytes_from_head = 0;  // 7 bits: extraction offset within first 128B

  [[nodiscard]] u16 Encode() const;
  static ParserAction Decode(u16 bits);
  bool operator==(const ParserAction&) const = default;
};

struct ParserEntry {
  std::array<ParserAction, params::kParserActionsPerEntry> actions{};

  [[nodiscard]] ByteBuffer Encode() const;  // 20 bytes (160 bits)
  static ParserEntry Decode(const ByteBuffer& bytes);
  [[nodiscard]] std::size_t valid_count() const;
  bool operator==(const ParserEntry&) const = default;
};

// The deparser table has the identical format (section 3.1).
using DeparserEntry = ParserEntry;

// ---------------------------------------------------------------------------
// Key extractor (38-bit entries) and key mask (193-bit entries).
//
// The 193-bit key layout, from LSB: [0] predicate bit, [16:1] 2nd 2B
// container, [32:17] 1st 2B, [64:33] 2nd 4B, [96:65] 1st 4B, [144:97]
// 2nd 6B, [192:145] 1st 6B (Figure 7 orders the key as 1st6B 2nd6B 1st4B
// 2nd4B 1st2B 2nd2B with the flag appended).
// ---------------------------------------------------------------------------

/// Comparison opcodes for the per-stage predicate (section 4.1).
enum class CmpOp : u8 {
  kNone = 0,  // no predicate: bit evaluates to 0
  kEq = 1,
  kNeq = 2,
  kGt = 3,
  kLt = 4,
  kGe = 5,
  kLe = 6,
};

/// An 8-bit predicate operand: either a small immediate (0-127) or a PHV
/// container reference.  Encoding: bit7 = 1 -> container (bits [6:5] type,
/// bits [2:0] index); bit7 = 0 -> immediate in bits [6:0].
struct Operand8 {
  static Operand8 Immediate(u8 value);
  static Operand8 Container(ContainerRef c);

  [[nodiscard]] bool is_container() const { return (bits & 0x80) != 0; }
  [[nodiscard]] u8 immediate() const { return bits & 0x7F; }
  [[nodiscard]] ContainerRef container() const;

  [[nodiscard]] u64 Eval(const Phv& phv) const;

  u8 bits = 0;
  bool operator==(const Operand8&) const = default;
};

struct KeyExtractorEntry {
  // Which container index (0-7) feeds each of the six key slots.
  // Order: {1st6B, 2nd6B, 1st4B, 2nd4B, 1st2B, 2nd2B}.
  std::array<u8, 6> selectors{};
  CmpOp cmp_op = CmpOp::kNone;
  Operand8 cmp_a;
  Operand8 cmp_b;
  /// Appendix B: the stage matches this module's key in the ternary CAM
  /// instead of the exact-match CAM.  Stored in one of the two spare bits
  /// of the 5-byte entry encoding.
  bool ternary = false;

  [[nodiscard]] ByteBuffer Encode() const;  // 5 bytes (38 bits used)
  static KeyExtractorEntry Decode(const ByteBuffer& bytes);

  /// Builds the 193-bit lookup key from a PHV per this configuration.
  [[nodiscard]] BitVec ExtractKey(const Phv& phv) const;

  /// Allocation-free variant: rebuilds the key into `key`, reusing its
  /// storage (the batched dataplane's scratch-buffer hot path).
  void ExtractKeyInto(const Phv& phv, BitVec& key) const;

  /// Key-layout-cache variant: only fills the slots named in
  /// `active_slots` (bit i = slot i) and evaluates the predicate only if
  /// `pred_active`.  Callers pass the slots that survive the module's key
  /// mask — the masked key is then identical to
  /// `ExtractKeyInto(...).masked(mask)` while skipping the PHV reads and
  /// field writes the mask would zero anyway.
  void ExtractKeyPartialInto(const Phv& phv, u8 active_slots,
                             bool pred_active, BitVec& key) const;

  /// One-word fast path: builds word 0 of the raw key (bits [0,64)) as a
  /// plain u64 — no BitVec storage, no field bounds checks.  Only slots
  /// whose bit range touches word 0 contribute; bits a slot would place
  /// at position >= 64 fall off, exactly as the mask that qualified the
  /// module for this path (no set bit above 63) would zero them.  The
  /// caller ANDs the result with word 0 of that mask.
  [[nodiscard]] u64 ExtractKeyWord0(const Phv& phv, u8 active_slots,
                                    bool pred_active) const;

  /// One precompiled word-0 contribution: read `width` bytes (2 or 4,
  /// big-endian) at PHV byte offset `phv_off`, shift left by `lsb`.
  struct Word0Part {
    u16 phv_off = 0;
    u8 width = 0;
    u8 lsb = 0;
  };
  /// Compiles the word-0 extraction into raw (offset, width, shift)
  /// parts so a per-packet loop needs no container resolution — the
  /// kernels run this form.  Returns the part count (<= 3), or -1 when
  /// the predicate machinery is active and the caller must keep calling
  /// ExtractKeyWord0.
  [[nodiscard]] int CompileWord0(u8 active_slots, bool pred_active,
                                 std::array<Word0Part, 3>& parts) const;
  /// Runs a CompileWord0 result against raw PHV bytes (unmasked).  The
  /// word-0 key slots hold 4- and 2-byte containers, so a part is one of
  /// two fixed-width loads (no 6-byte case inlined into every kernel
  /// step).
  [[nodiscard]] static u64 LoadWord0(const u8* phv,
                                     const std::array<Word0Part, 3>& parts,
                                     int nparts) {
    u64 w = 0;
    for (int j = 0; j < nparts; ++j) {
      const Word0Part& p = parts[static_cast<std::size_t>(j)];
      const u8* const field = phv + p.phv_off;
      w |= (p.width == 4 ? Phv::LoadField(field, 4) : Phv::LoadField(field, 2))
           << p.lsb;
    }
    return w;
  }

  bool operator==(const KeyExtractorEntry&) const = default;
};

struct KeyMaskEntry {
  BitVec mask{params::kKeyBits};  // 1 = key bit participates in the match

  [[nodiscard]] ByteBuffer Encode() const;  // 25 bytes
  static KeyMaskEntry Decode(const ByteBuffer& bytes);
  bool operator==(const KeyMaskEntry&) const = default;
};

// Bit positions of the six key slots within the 193-bit key.
struct KeySlot {
  std::size_t lsb;
  std::size_t bits;
};
[[nodiscard]] std::array<KeySlot, 6> KeySlots();

/// Container type each key slot draws from, in `selectors` order
/// ({1st6B, 2nd6B, 1st4B, 2nd4B, 1st2B, 2nd2B}) — combined with a
/// selector index this names the PHV container a slot reads, which the
/// execution-plan liveness analysis needs.
[[nodiscard]] std::array<ContainerType, 6> KeySlotTypes();

// ---------------------------------------------------------------------------
// Exact-match CAM entries: 193-bit key + 12-bit module ID = 205 bits.
// ---------------------------------------------------------------------------
struct CamEntry {
  bool valid = false;
  BitVec key{params::kKeyBits};
  ModuleId module;
  // Cached one-word form, filled in by ExactMatchCam::Write (not part of
  // the wire format): the low 64 key bits, and whether every key bit
  // above them is zero — i.e. whether this entry is reachable from the
  // one-word lookup fast path.
  u64 key_w0 = 0;
  bool key_hi_zero = false;

  [[nodiscard]] ByteBuffer Encode() const;  // 1 valid byte + 26 key bytes
  static CamEntry Decode(const ByteBuffer& bytes);
  /// Recomputes the cached one-word form from `key`.
  void RefreshWordCache();
  /// Compares the stored configuration (valid/key/module); the derived
  /// word cache is excluded.
  bool operator==(const CamEntry& other) const {
    return valid == other.valid && key == other.key &&
           module == other.module;
  }
};

// ---------------------------------------------------------------------------
// VLIW ALU actions (25 bits per slot, 25 slots = 625 bits per entry).
//
// Two formats (Figure 7):
//   A: opcode(4) | container1(5) | container2(5) | reserved(11)
//   B: opcode(4) | container1(5) | immediate(16)
// The opcode determines the format.  Container fields hold the flat
// container number (0-23; 24 = metadata slot).
// ---------------------------------------------------------------------------
enum class AluOp : u8 {
  kNop = 0,
  kAdd = 1,     // A: out = phv[c1] + phv[c2]
  kSub = 2,     // A: out = phv[c1] - phv[c2]
  kAddi = 3,    // B: out = phv[c1] + imm
  kSubi = 4,    // B: out = phv[c1] - imm
  kSet = 5,     // B: out = imm
  kLoad = 6,    // B: out = state[imm]
  kStore = 7,   // B: state[imm] = phv[c1]
  kLoadd = 8,   // B: out = state[imm] + 1; state[imm] = out (sequencer)
  kPort = 9,    // B: egress port = imm (metadata slot only)
  kDiscard = 10,// B: set discard flag (metadata slot only)
  kCopy = 11,   // A: out = phv[c1]
  kLoadc = 12,  // A: out = state[phv[c2]] (address from PHV)
  kStorec = 13, // A: state[phv[c2]] = phv[c1]
  kLoaddc = 14, // A: out = state[phv[c2]] + 1, stored back
  kMcast = 15,  // B: multicast group = imm (metadata slot only)
};

[[nodiscard]] bool OpUsesImmediate(AluOp op);
[[nodiscard]] bool OpTouchesState(AluOp op);
// Which operands an opcode consumes and whether its result lands in the
// slot's container — the dataflow facts the VLIW plan compiler
// (pipeline/action_engine) and the execution-plan liveness analysis
// (pipeline/exec_plan) share.  The engine reads both operand registers
// unconditionally, but only these influence the result or state.
[[nodiscard]] bool OpReadsContainer1(AluOp op);
[[nodiscard]] bool OpReadsContainer2(AluOp op);
[[nodiscard]] bool OpWritesSlotContainer(AluOp op);
[[nodiscard]] const char* AluOpName(AluOp op);

struct AluAction {
  AluOp op = AluOp::kNop;
  u8 container1 = 0;  // flat container number, 5 bits
  u8 container2 = 0;  // flat container number, 5 bits (format A)
  u16 immediate = 0;  // format B

  [[nodiscard]] u32 Encode() const;  // 25 bits
  static AluAction Decode(u32 bits);
  [[nodiscard]] std::string ToString() const;
  bool operator==(const AluAction&) const = default;
};

struct VliwEntry {
  std::array<AluAction, kNumAluContainers> slots{};  // slot i writes container i

  [[nodiscard]] ByteBuffer Encode() const;  // 79 bytes (625 bits)
  static VliwEntry Decode(const ByteBuffer& bytes);
  [[nodiscard]] std::size_t active_count() const;
  bool operator==(const VliwEntry&) const = default;
};

// ---------------------------------------------------------------------------
// Segment-table entries: first byte = offset, second byte = range
// (section 4.1).  Both are in stateful-memory words.
// ---------------------------------------------------------------------------
struct SegmentEntry {
  u8 offset = 0;
  u8 range = 0;  // number of words this module may address; 0 = no access

  [[nodiscard]] ByteBuffer Encode() const;  // 2 bytes
  static SegmentEntry Decode(const ByteBuffer& bytes);
  bool operator==(const SegmentEntry&) const = default;
};

/// Converts a flat container number (0-24) to a ContainerRef; flat 24 is
/// the metadata pseudo-container and has no ContainerRef.  Inline: this
/// sits on the per-slot ALU hot path (operand reads and result writes).
inline constexpr u8 kMetadataSlot = 24;
[[nodiscard]] inline std::optional<ContainerRef> FlatToContainer(u8 flat) {
  if (flat >= kMetadataSlot) return std::nullopt;
  return ContainerRef{static_cast<ContainerType>(flat / kContainersPerType),
                      static_cast<u8>(flat % kContainersPerType)};
}

}  // namespace menshen
