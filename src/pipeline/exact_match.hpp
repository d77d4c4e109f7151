// Exact-match CAM (sections 3.1, 4.1).
//
// A 205-bit-wide, 16-entry-deep content-addressable memory per stage.  To
// enforce isolation, the packet's 12-bit module ID is appended to the
// 193-bit key; each stored entry carries the module ID of its owner, so a
// module's packets can never match another module's entries even if the
// key bits collide.  The lookup result (the matching address) indexes the
// VLIW action table.
//
// The data path never scans the stored entries: Write keeps two
// per-module shadows coherent with them, and Lookup probes a shadow —
//
//   * a per-module BitVec-keyed hash index for full 193-bit keys, and
//   * a per-module word index over the entries whose key fits word 0
//     (every bit above 63 zero): a key array and an address array in
//     address order, scanned linearly (at most kCamDepth entries, all in
//     two or three cache lines).  It serves the one-word fast path the
//     stage's key plan compiles when a module's masked key layout fits a
//     single 64-bit word.
//
// Where a module stores the same key at several addresses the hash index
// holds the lowest one and the word scan meets it first, matching the
// priority of the hardware scan.  The linear scan over the stored entries
// lives in the test tree (tests/linear_scan.hpp), the differential
// reference the randomized match-index test pins the shadows against.
#pragma once

#include <array>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitvec.hpp"
#include "common/counters.hpp"
#include "pipeline/entries.hpp"

namespace menshen {

class ExactMatchCam {
 public:
  [[nodiscard]] std::size_t depth() const { return entries_.size(); }

  /// Looks up `key` (already masked by the module's key mask) augmented
  /// with `module`.  Returns the matching address, or nullopt on miss.
  /// Hash probe against the Write-maintained shadow index.
  [[nodiscard]] std::optional<std::size_t> Lookup(const BitVec& key,
                                                  ModuleId module) const;

  /// One-word fast path: looks up a masked key whose set bits all lie in
  /// word 0, passed as a plain u64.  Behaviourally identical to Lookup
  /// with the zero-extended 193-bit key — a linear integer compare over
  /// the module's word index.
  [[nodiscard]] std::optional<std::size_t> LookupWord(u64 key_w0,
                                                      ModuleId module) const;

  /// One module's one-word shadow: the word-0 keys of its valid entries
  /// with no key bit above 63, and their addresses, in address order.
  /// Duplicates are kept; the scan returns the first, lowest address.
  struct WordIndex {
    u32 count = 0;
    std::array<u64, params::kCamDepth> keys{};
    std::array<u8, params::kCamDepth> addrs{};

    /// Quiet probe (no counters): the lowest address storing `key`.
    [[nodiscard]] std::optional<std::size_t> Find(u64 key) const {
      for (u32 i = 0; i < count; ++i)
        if (keys[i] == key) return addrs[i];
      return std::nullopt;
    }
  };

  // Per-module shadow-index handles, resolved once per module run so
  // the per-packet probe skips the outer module-map hop.  A handle is
  // invalidated by any Write (the indexes rebuild); run contexts never
  // span a configuration change, so they re-resolve in time.  A null
  // handle is valid and always misses (module owns no indexed entries).
  using WordIndexHandle = const WordIndex*;
  using KeyIndexHandle = const std::unordered_map<BitVec, u32>*;
  [[nodiscard]] WordIndexHandle WordIndexFor(ModuleId module) const {
    const auto mit = word_index_.find(module.value());
    return mit == word_index_.end() ? nullptr : &mit->second;
  }
  [[nodiscard]] KeyIndexHandle KeyIndexFor(ModuleId module) const {
    const auto mit = index_.find(module.value());
    return mit == index_.end() ? nullptr : &mit->second;
  }
  /// LookupWord against a pre-resolved handle: same result, same
  /// counters, no module-map hop.
  [[nodiscard]] std::optional<std::size_t> LookupWordWith(WordIndexHandle h,
                                                          u64 key_w0) const {
    lookups_.Add();
    if (h == nullptr) return std::nullopt;
    const auto address = h->Find(key_w0);
    if (address) hits_.Add();
    return address;
  }
  /// Lookup against a pre-resolved handle (wide-key path).
  [[nodiscard]] std::optional<std::size_t> LookupWith(KeyIndexHandle h,
                                                      const BitVec& key) const {
    lookups_.Add();
    CheckKeyWidth(key);
    if (h != nullptr) {
      const auto kit = h->find(key);
      if (kit != h->end()) {
        hits_.Add();
        return kit->second;
      }
    }
    return std::nullopt;
  }

  void Write(std::size_t address, CamEntry entry);
  [[nodiscard]] const CamEntry& At(std::size_t address) const;

  /// Number of valid entries currently owned by `module`.
  [[nodiscard]] std::size_t CountForModule(ModuleId module) const;

  // Relaxed counters: safe to read while shard workers are mid-batch.
  [[nodiscard]] u64 lookups() const { return lookups_.load(); }
  [[nodiscard]] u64 hits() const { return hits_.load(); }

  /// Accounts `n` lookups whose result a run context resolved once,
  /// quietly (an all-zero-mask module probes the same key every packet):
  /// the counters advance exactly as if each packet had probed.
  void NoteConstantLookups(u64 n, bool hit) const {
    lookups_.Add(n);
    if (hit) hits_.Add(n);
  }

  /// Bulk accounting for lookups whose outcome the flow-verdict cache
  /// replayed without probing: `lookups` probes of which `hits` matched,
  /// accumulated over one module run and flushed here in one step.
  void NoteCachedLookups(u64 lookups, u64 hits) const {
    lookups_.Add(lookups);
    hits_.Add(hits);
  }

  /// Bumped on every Write — lets derived caches (the pipeline's
  /// execution plans) detect entry changes without being wired into the
  /// configuration path.
  [[nodiscard]] u64 version() const { return version_; }

 private:
  void CheckKeyWidth(const BitVec& key) const;
  /// Rebuilds both shadow indexes from the stored entries (config path
  /// only; the array is 16 entries deep).
  void RebuildIndex();

  // kCamDepth entries: the capacity of a word index.
  std::vector<CamEntry> entries_ = std::vector<CamEntry>(params::kCamDepth);
  // module -> (stored key -> lowest matching address).
  std::unordered_map<u16, std::unordered_map<BitVec, u32>> index_;
  // module -> word index over its entries with key_hi_zero — the
  // reachable set of the one-word fast path.
  std::unordered_map<u16, WordIndex> word_index_;
  mutable RelaxedCounter lookups_;
  mutable RelaxedCounter hits_;
  u64 version_ = 0;
};

}  // namespace menshen
