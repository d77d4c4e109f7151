#include "pipeline/exact_match.hpp"

#include <stdexcept>

namespace menshen {

void ExactMatchCam::CheckKeyWidth(const BitVec& key) const {
  if (key.width() != params::kKeyBits)
    throw std::invalid_argument("CAM key must be 193 bits");
}

std::optional<std::size_t> ExactMatchCam::Lookup(const BitVec& key,
                                                 ModuleId module) const {
  lookups_.Add();
  CheckKeyWidth(key);
  const auto mit = index_.find(module.value());
  if (mit == index_.end()) return std::nullopt;
  const auto kit = mit->second.find(key);
  if (kit == mit->second.end()) return std::nullopt;
  hits_.Add();
  return kit->second;
}

std::optional<std::size_t> ExactMatchCam::LookupWord(u64 key_w0,
                                                     ModuleId module) const {
  return LookupWordWith(WordIndexFor(module), key_w0);
}

void ExactMatchCam::Write(std::size_t address, CamEntry entry) {
  if (address >= entries_.size())
    throw std::out_of_range("CAM address out of range");
  entry.RefreshWordCache();
  entries_[address] = std::move(entry);
  RebuildIndex();
  ++version_;
}

void ExactMatchCam::RebuildIndex() {
  index_.clear();
  word_index_.clear();
  // Ascending address order keeps the lowest address for duplicate
  // (key, module) pairs — the priority the linear scan implements: the
  // hash index's emplace lets the first insertion win, and the word
  // index's scan meets the first appended entry first.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const CamEntry& e = entries_[i];
    if (!e.valid) continue;
    index_[e.module.value()].emplace(e.key, static_cast<u32>(i));
    if (e.key_hi_zero) {
      WordIndex& w = word_index_[e.module.value()];
      w.keys[w.count] = e.key_w0;
      w.addrs[w.count] = static_cast<u8>(i);
      ++w.count;
    }
  }
}

const CamEntry& ExactMatchCam::At(std::size_t address) const {
  if (address >= entries_.size())
    throw std::out_of_range("CAM address out of range");
  return entries_[address];
}

std::size_t ExactMatchCam::CountForModule(ModuleId module) const {
  std::size_t n = 0;
  for (const auto& e : entries_)
    if (e.valid && e.module == module) ++n;
  return n;
}

}  // namespace menshen
