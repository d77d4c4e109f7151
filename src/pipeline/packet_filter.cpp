#include "pipeline/packet_filter.hpp"

#include <stdexcept>

namespace menshen {

void PacketFilter::MarkUnderReconfig(ModuleId module, bool under) {
  if (module.value() >= 32)
    throw std::out_of_range("bitmap covers module IDs 0-31");
  const u32 bit = u32{1} << module.value();
  if (under)
    bitmap_ |= bit;
  else
    bitmap_ &= ~bit;
}

}  // namespace menshen
