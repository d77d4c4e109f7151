#include "pipeline/parser.hpp"

#include <algorithm>
#include <cstring>

#include "pipeline/plan_exec.hpp"

namespace menshen {

namespace {

/// Shared data-movement core of the full and planned parse paths: pulls
/// one action's bytes from the parser window into its PHV container.
/// Bytes beyond the window or the packet read as zero (the PHV is
/// already zeroed).  The common case — the whole span inside both the
/// window and the packet — is a single memcpy.
inline void ExtractAction(const ParserAction& a, const Packet& pkt, Phv& phv) {
  auto dst = phv.ContainerBytes(a.container);
  const std::size_t start = a.bytes_from_head;
  const std::size_t limit =
      std::min<std::size_t>(kParserWindowBytes, pkt.size());
  if (start + dst.size() <= limit) {
    std::memcpy(dst.data(), pkt.bytes().bytes().data() + start, dst.size());
    return;
  }
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const std::size_t off = start + i;
    if (off < limit) dst[i] = pkt.bytes().u8_at(off);
  }
}

/// Inverse movement for the deparser: writes one action's container
/// bytes back into the packet at the configured offset.
inline void DepositAction(const ParserAction& a, const Phv& phv, Packet& pkt) {
  const auto src = phv.ContainerBytes(a.container);
  const std::size_t start = a.bytes_from_head;
  const std::size_t limit =
      std::min<std::size_t>(kParserWindowBytes, pkt.size());
  if (start + src.size() <= limit) {
    std::memcpy(pkt.bytes().bytes().data() + start, src.data(), src.size());
    return;
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::size_t off = start + i;
    if (off < limit) pkt.bytes().set_u8(off, src[i]);
  }
}

}  // namespace

Phv Parser::Parse(const Packet& pkt) const {
  Phv phv;  // constructor zeroes every byte (isolation, section 4.1)
  ParseInto(pkt, phv);
  return phv;
}

void Parser::ParseInto(const Packet& pkt, Phv& phv) const {
  phv.Clear();  // reused buffers must start all-zero (isolation, section 4.1)
  phv.module_id = pkt.vid();
  FillPipelineMetadata(pkt, phv);

  const ParserEntry& entry = table_.Lookup(phv.module_id);
  for (const ParserAction& a : entry.actions) {
    if (!a.valid) continue;
    ExtractAction(a, pkt, phv);
  }
}

void Parser::ParseIntoPlanned(const Packet& pkt, Phv& phv,
                              const ParsePlan& plan) const {
  phv.Clear();  // pruned containers must read as zero, like any dead one
  PlannedParseInto(pkt, phv, plan);
}

void Deparser::Deparse(const Phv& phv, Packet& pkt) const {
  const DeparserEntry& entry = table_.Lookup(phv.module_id);
  for (const ParserAction& a : entry.actions) {
    if (!a.valid) continue;
    DepositAction(a, phv, pkt);
  }
  ApplyDisposition(phv, pkt);
}

}  // namespace menshen
