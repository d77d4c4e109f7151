#include "pipeline/tcam.hpp"

#include <algorithm>
#include <stdexcept>

namespace menshen {

namespace {

void Append193(ByteBuffer& out, const BitVec& v) {
  for (std::size_t i = 0; i < 25; ++i) {
    const std::size_t lsb = i * 8;
    const std::size_t w = std::min<std::size_t>(8, params::kKeyBits - lsb);
    out.append_u8(static_cast<u8>(v.field(lsb, w)));
  }
}

void Read193(BitVec& v, const ByteBuffer& bytes, std::size_t off) {
  for (std::size_t i = 0; i < 25; ++i) {
    const std::size_t lsb = i * 8;
    const std::size_t w = std::min<std::size_t>(8, params::kKeyBits - lsb);
    v.set_field(lsb, w,
                bytes.u8_at(off + i) & ((w == 8) ? 0xFF : ((1u << w) - 1)));
  }
}

}  // namespace

ByteBuffer TcamEntry::Encode() const {
  ByteBuffer out;
  out.append_u8(valid ? 1 : 0);
  out.append_u16(module.value());
  Append193(out, key);
  Append193(out, mask);
  return out;
}

TcamEntry TcamEntry::Decode(const ByteBuffer& bytes) {
  if (bytes.size() != 53)
    throw std::invalid_argument("TCAM entry must be 53 bytes");
  TcamEntry e;
  e.valid = bytes.u8_at(0) != 0;
  e.module = ModuleId(bytes.u16_at(1) & 0x0FFF);
  Read193(e.key, bytes, 3);
  Read193(e.mask, bytes, 28);
  return e;
}

std::optional<std::size_t> TernaryCam::Lookup(const BitVec& key,
                                              ModuleId module) const {
  lookups_.Add();
  if (key.width() != params::kKeyBits)
    throw std::invalid_argument("TCAM key must be 193 bits");
  const auto sit = spans_.find(module.value());
  if (sit == spans_.end()) return std::nullopt;  // module owns no entries
  const Span span = sit->second;
  for (std::size_t i = span.lo; i <= span.hi; ++i) {
    const TcamEntry& e = entries_[i];
    entries_scanned_.Add();
    if (!e.valid || e.module != module) continue;
    if (key.EqualsMasked(e.key, e.mask)) {
      hits_.Add();
      return i;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> TernaryCam::LookupQuiet(const BitVec& key,
                                                   ModuleId module,
                                                   u64& scanned) const {
  // Mirrors Lookup exactly — same span narrowing, same early exit — but
  // touches no counters; the caller (flow-cache fill) accounts the probe
  // through NoteCachedLookups when the verdict is applied.
  if (key.width() != params::kKeyBits)
    throw std::invalid_argument("TCAM key must be 193 bits");
  const auto sit = spans_.find(module.value());
  if (sit == spans_.end()) return std::nullopt;  // module owns no entries
  const Span span = sit->second;
  for (std::size_t i = span.lo; i <= span.hi; ++i) {
    const TcamEntry& e = entries_[i];
    ++scanned;
    if (!e.valid || e.module != module) continue;
    if (key.EqualsMasked(e.key, e.mask)) return i;
  }
  return std::nullopt;
}

void TernaryCam::Write(std::size_t address, TcamEntry entry) {
  if (address >= entries_.size())
    throw std::out_of_range("TCAM address out of range");
  entries_[address] = std::move(entry);
  RebuildSpans();
  ++version_;
}

void TernaryCam::RebuildSpans() {
  // Config path only: rederives each module's valid-entry span from the
  // stored entries.  With the allocator's contiguous per-module regions
  // the span IS the allocated region's occupied part; entries written
  // outside a contiguous block simply widen that module's span.
  spans_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const TcamEntry& e = entries_[i];
    if (!e.valid) continue;
    const auto [it, inserted] =
        spans_.try_emplace(e.module.value(),
                           Span{static_cast<u32>(i), static_cast<u32>(i)});
    if (!inserted) it->second.hi = static_cast<u32>(i);
  }
}

const TcamEntry& TernaryCam::At(std::size_t address) const {
  if (address >= entries_.size())
    throw std::out_of_range("TCAM address out of range");
  return entries_[address];
}

std::optional<std::size_t> TcamAllocator::Allocate(ModuleId module,
                                                   std::size_t count) {
  if (count == 0 || count > depth_) return std::nullopt;
  if (regions_.contains(module)) return std::nullopt;  // one region each

  // First-fit scan over the gaps between existing regions.
  std::vector<Region> taken;
  taken.reserve(regions_.size());
  for (const auto& [id, r] : regions_) taken.push_back(r);
  std::sort(taken.begin(), taken.end(),
            [](const Region& a, const Region& b) { return a.base < b.base; });

  std::size_t cursor = 0;
  for (const Region& r : taken) {
    if (r.base >= cursor + count) break;
    cursor = std::max(cursor, r.base + r.count);
  }
  if (cursor + count > depth_) return std::nullopt;
  regions_[module] = Region{cursor, count};
  return cursor;
}

void TcamAllocator::Release(ModuleId module) { regions_.erase(module); }

bool TcamAllocator::Owns(ModuleId module, std::size_t address) const {
  const auto it = regions_.find(module);
  if (it == regions_.end()) return false;
  return address >= it->second.base &&
         address < it->second.base + it->second.count;
}

std::optional<TcamAllocator::Region> TcamAllocator::RegionOf(
    ModuleId module) const {
  const auto it = regions_.find(module);
  if (it == regions_.end()) return std::nullopt;
  return it->second;
}

}  // namespace menshen
