// The hardware's linear CAM/TCAM scan: the differential reference for
// the indexed exact-match probes and the region-narrowed ternary scan.
//
// It walks every address through At(i), lowest address first, and
// compares the module ID as part of the match (the stored entry is
// key ++ module, and so is the search word).  Ternary entries compare
// with per-entry masked temporaries, as the unoptimized hardware model
// would.  It touches no counters, so a differential can interleave it
// with the live lookups without disturbing their accounting.
#pragma once

#include <cstddef>
#include <optional>

#include "common/bitvec.hpp"
#include "pipeline/exact_match.hpp"
#include "pipeline/tcam.hpp"

namespace menshen::test {

inline bool EntryMatches(const CamEntry& e, const BitVec& key) {
  return e.key == key;
}

inline bool EntryMatches(const TcamEntry& e, const BitVec& key) {
  return key.masked(e.mask) == e.key.masked(e.mask);
}

/// Lowest matching address of `module`'s valid entries, if any.
template <typename Cam>
std::optional<std::size_t> LookupLinear(const Cam& cam, const BitVec& key,
                                        ModuleId module) {
  for (std::size_t i = 0; i < cam.depth(); ++i) {
    const auto& e = cam.At(i);
    if (e.valid && e.module == module && EntryMatches(e, key)) return i;
  }
  return std::nullopt;
}

}  // namespace menshen::test
