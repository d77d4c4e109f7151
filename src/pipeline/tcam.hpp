// Ternary CAM with isolation (paper Appendix B).
//
// The Xilinx CAM IP resolves multiple ternary matches by entry address:
// the lowest address wins.  Isolation on top of that block requires (1)
// appending the module ID to every entry — a module's packets never match
// another module's rules — and (2) allocating a *contiguous* block of
// addresses to each module so that rule updates for one module never move
// another module's rules (and hence never change their priorities).
//
// TernaryCam implements the CAM itself; TcamAllocator manages contiguous
// per-module address regions and rejects out-of-region writes.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitvec.hpp"
#include "common/bytes.hpp"
#include "common/counters.hpp"
#include "pipeline/entries.hpp"

namespace menshen {

struct TcamEntry {
  bool valid = false;
  BitVec key{params::kKeyBits};
  BitVec mask{params::kKeyBits};  // 1 = bit must match
  ModuleId module;

  [[nodiscard]] ByteBuffer Encode() const;  // 53 bytes
  static TcamEntry Decode(const ByteBuffer& bytes);
  bool operator==(const TcamEntry&) const = default;
};

class TernaryCam {
 public:
  explicit TernaryCam(std::size_t depth = params::kCamDepth)
      : entries_(depth) {}

  [[nodiscard]] std::size_t depth() const { return entries_.size(); }

  /// Lowest-address match wins (Xilinx CAM priority mode).  The scan is
  /// restricted to the address span holding the caller module's valid
  /// entries (maintained by Write) — a packet's lookup never walks the
  /// regions other modules own — and each candidate is compared with one
  /// fused word-level masked compare (BitVec::EqualsMasked).
  [[nodiscard]] std::optional<std::size_t> Lookup(const BitVec& key,
                                                  ModuleId module) const;

  /// Counter-free Lookup for the flow-verdict cache's fill path: same
  /// result and same narrowed scan, but the entries examined land in
  /// `scanned` for later bulk accounting instead of the live counters
  /// (the fill packet's probe is accounted when its verdict is applied,
  /// exactly once, like every other packet of the run).
  [[nodiscard]] std::optional<std::size_t> LookupQuiet(const BitVec& key,
                                                       ModuleId module,
                                                       u64& scanned) const;

  void Write(std::size_t address, TcamEntry entry);
  [[nodiscard]] const TcamEntry& At(std::size_t address) const;

  // Relaxed counters: safe to read while shard workers are mid-batch.
  [[nodiscard]] u64 lookups() const { return lookups_.load(); }
  [[nodiscard]] u64 hits() const { return hits_.load(); }
  /// Entries examined by Lookup since construction — the region-narrowing
  /// invariant tests pin this (a module's lookups cost at most the size
  /// of its own span, not the CAM depth).
  [[nodiscard]] u64 entries_scanned() const {
    return entries_scanned_.load();
  }

  /// Accounts `n` lookups whose result a run context resolved once,
  /// quietly (an all-zero-mask module probes the same key every packet),
  /// with `scanned_per_op` entries examined per probe: the counters
  /// advance exactly as if each packet had probed.
  void NoteConstantLookups(u64 n, bool hit, u64 scanned_per_op) const {
    lookups_.Add(n);
    if (hit) hits_.Add(n);
    entries_scanned_.Add(n * scanned_per_op);
  }

  /// Bulk accounting for lookups whose outcome the flow-verdict cache
  /// replayed without probing: `lookups` probes, `hits` matches and
  /// `scanned` total entries examined, accumulated over one module run
  /// and flushed here in one step.
  void NoteCachedLookups(u64 lookups, u64 hits, u64 scanned) const {
    lookups_.Add(lookups);
    hits_.Add(hits);
    entries_scanned_.Add(scanned);
  }

  /// Bumped on every Write — lets derived caches (the pipeline's
  /// execution plans) detect entry changes without being wired into the
  /// configuration path.
  [[nodiscard]] u64 version() const { return version_; }

 private:
  /// Inclusive address span [lo, hi] of one module's valid entries.
  struct Span {
    u32 lo = 0;
    u32 hi = 0;
  };
  void RebuildSpans();

  std::vector<TcamEntry> entries_;
  std::unordered_map<u16, Span> spans_;
  mutable RelaxedCounter lookups_;
  mutable RelaxedCounter hits_;
  mutable RelaxedCounter entries_scanned_;
  u64 version_ = 0;
};

/// Contiguous address-region allocator for per-module TCAM isolation.
class TcamAllocator {
 public:
  explicit TcamAllocator(std::size_t depth) : depth_(depth) {}

  /// Reserves `count` contiguous addresses for `module`.  Returns the base
  /// address, or nullopt if no contiguous region is free.
  std::optional<std::size_t> Allocate(ModuleId module, std::size_t count);

  /// Releases a module's region.
  void Release(ModuleId module);

  /// True iff `address` lies inside `module`'s region — the guard the
  /// control plane applies before any TCAM write.
  [[nodiscard]] bool Owns(ModuleId module, std::size_t address) const;

  struct Region {
    std::size_t base = 0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::optional<Region> RegionOf(ModuleId module) const;

 private:
  std::size_t depth_;
  std::map<ModuleId, Region> regions_;
};

}  // namespace menshen
