#include "intsched/serve/wire.hpp"

#include <bit>
#include <type_traits>

namespace intsched::serve {

namespace {

// Explicit little-endian byte moves: portable (no host-endianness
// assumptions), branch-free, and fully unrolled by the compiler at
// these fixed widths.
template <typename T>
void put_le(std::byte* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

template <typename T>
[[nodiscard]] T get_le(const std::byte* p) {
  static_assert(std::is_unsigned_v<T>);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= std::uint64_t{std::to_integer<std::uint8_t>(p[i])} << (8 * i);
  }
  return static_cast<T>(v);
}

void put_header(std::byte* p, MessageType type, std::size_t payload_len) {
  put_le<std::uint16_t>(p, kWireMagic);
  p[2] = static_cast<std::byte>(kWireVersion);
  p[3] = static_cast<std::byte>(type);
  put_le<std::uint32_t>(p + 4, static_cast<std::uint32_t>(payload_len));
}

/// Validates the header and the exact-framing rule (payload_len ==
/// len - kHeaderSize); on success the payload length is in *payload.
[[nodiscard]] WireError check_header(const std::byte* buf, std::size_t len,
                                     MessageType expected,
                                     std::size_t* payload) {
  if (len < kHeaderSize) return WireError::kTruncated;
  if (get_le<std::uint16_t>(buf) != kWireMagic) return WireError::kBadMagic;
  if (std::to_integer<std::uint8_t>(buf[2]) != kWireVersion) {
    return WireError::kBadVersion;
  }
  if (std::to_integer<std::uint8_t>(buf[3]) !=
      static_cast<std::uint8_t>(expected)) {
    return WireError::kBadType;
  }
  *payload = get_le<std::uint32_t>(buf + 4);
  if (*payload != len - kHeaderSize) return WireError::kBadLength;
  return WireError::kOk;
}

}  // namespace

const char* to_string(WireError e) {
  switch (e) {
    case WireError::kOk: return "ok";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadType: return "bad-type";
    case WireError::kBadLength: return "bad-length";
    case WireError::kBadField: return "bad-field";
  }
  return "unknown";
}

std::size_t encode_rank_request(const RankRequest& req, std::byte* buf,
                                std::size_t cap) {
  if (req.candidate_count > kMaxRequestCandidates) return 0;
  if (req.max_results == 0 || req.max_results > kMaxResponseEntries) return 0;
  const std::size_t need = encoded_request_size(req.candidate_count);
  if (cap < need) return 0;
  put_header(buf, MessageType::kRankRequest, need - kHeaderSize);
  std::byte* p = buf + kHeaderSize;
  put_le<std::uint64_t>(p, req.query_id);
  put_le<std::uint32_t>(p + 8,
                        static_cast<std::uint32_t>(req.origin.value()));
  p[12] = static_cast<std::byte>(req.metric);
  p[13] = static_cast<std::byte>(req.max_results);
  put_le<std::uint16_t>(p + 14, req.candidate_count);
  p += 16;
  for (std::size_t i = 0; i < req.candidate_count; ++i) {
    put_le<std::uint32_t>(
        p + 4 * i, static_cast<std::uint32_t>(req.candidates[i].value()));
  }
  return need;
}

WireError decode_rank_request(const std::byte* buf, std::size_t len,
                              RankRequest& out) {
  std::size_t payload = 0;
  const WireError h =
      check_header(buf, len, MessageType::kRankRequest, &payload);
  if (h != WireError::kOk) return h;
  if (payload < 16) return WireError::kTruncated;
  const std::byte* p = buf + kHeaderSize;
  out.query_id = get_le<std::uint64_t>(p);
  out.origin = core::NodeId{
      static_cast<std::int32_t>(get_le<std::uint32_t>(p + 8))};
  const auto metric = std::to_integer<std::uint8_t>(p[12]);
  if (metric > static_cast<std::uint8_t>(core::RankingMetric::kBandwidth)) {
    return WireError::kBadField;
  }
  out.metric = static_cast<core::RankingMetric>(metric);
  out.max_results = std::to_integer<std::uint8_t>(p[13]);
  if (out.max_results == 0 || out.max_results > kMaxResponseEntries) {
    return WireError::kBadField;
  }
  out.candidate_count = get_le<std::uint16_t>(p + 14);
  if (out.candidate_count > kMaxRequestCandidates) return WireError::kBadField;
  if (payload != 16 + 4 * std::size_t{out.candidate_count}) {
    return WireError::kBadLength;
  }
  p += 16;
  for (std::size_t i = 0; i < out.candidate_count; ++i) {
    out.candidates[i] = core::NodeId{
        static_cast<std::int32_t>(get_le<std::uint32_t>(p + 4 * i))};
  }
  return WireError::kOk;
}

std::size_t encode_rank_response(const RankResponse& resp, std::byte* buf,
                                 std::size_t cap) {
  if (resp.entry_count > kMaxResponseEntries) return 0;
  const std::size_t need = encoded_response_size(resp.entry_count);
  if (cap < need) return 0;
  put_header(buf, MessageType::kRankResponse, need - kHeaderSize);
  std::byte* p = buf + kHeaderSize;
  put_le<std::uint64_t>(p, resp.query_id);
  put_le<std::uint64_t>(p + 8,
                        static_cast<std::uint64_t>(resp.epoch.value()));
  p[16] = static_cast<std::byte>(resp.status);
  p[17] = static_cast<std::byte>(resp.entry_count);
  put_le<std::uint16_t>(p + 18, 0);  // reserved
  p += 20;
  for (std::size_t i = 0; i < resp.entry_count; ++i, p += 32) {
    const RankResponseEntry& e = resp.entries[i];
    put_le<std::uint32_t>(p, static_cast<std::uint32_t>(e.server.value()));
    p[4] = static_cast<std::byte>(e.stale ? 1 : 0);
    p[5] = std::byte{0};
    p[6] = std::byte{0};
    p[7] = std::byte{0};
    put_le<std::uint64_t>(
        p + 8, static_cast<std::uint64_t>(e.delay_estimate.ns()));
    put_le<std::uint64_t>(
        p + 16, static_cast<std::uint64_t>(e.baseline_delay.ns()));
    put_le<std::uint64_t>(
        p + 24, std::bit_cast<std::uint64_t>(e.bandwidth_estimate.bps()));
  }
  return need;
}

WireError decode_rank_response(const std::byte* buf, std::size_t len,
                               RankResponse& out) {
  std::size_t payload = 0;
  const WireError h =
      check_header(buf, len, MessageType::kRankResponse, &payload);
  if (h != WireError::kOk) return h;
  if (payload < 20) return WireError::kTruncated;
  const std::byte* p = buf + kHeaderSize;
  out.query_id = get_le<std::uint64_t>(p);
  out.epoch = core::Epoch{
      static_cast<std::int64_t>(get_le<std::uint64_t>(p + 8))};
  const auto status = std::to_integer<std::uint8_t>(p[16]);
  if (status > static_cast<std::uint8_t>(ServeStatus::kNoCandidates)) {
    return WireError::kBadField;
  }
  out.status = static_cast<ServeStatus>(status);
  out.entry_count = std::to_integer<std::uint8_t>(p[17]);
  if (out.entry_count > kMaxResponseEntries) return WireError::kBadField;
  if (get_le<std::uint16_t>(p + 18) != 0) return WireError::kBadField;
  if (payload != 20 + 32 * std::size_t{out.entry_count}) {
    return WireError::kBadLength;
  }
  p += 20;
  for (std::size_t i = 0; i < out.entry_count; ++i, p += 32) {
    RankResponseEntry& e = out.entries[i];
    e.server = core::NodeId{
        static_cast<std::int32_t>(get_le<std::uint32_t>(p))};
    const auto flags = std::to_integer<std::uint8_t>(p[4]);
    if (flags > 1) return WireError::kBadField;
    if (std::to_integer<std::uint8_t>(p[5]) != 0 ||
        std::to_integer<std::uint8_t>(p[6]) != 0 ||
        std::to_integer<std::uint8_t>(p[7]) != 0) {
      return WireError::kBadField;
    }
    e.stale = flags != 0;
    e.delay_estimate = sim::SimDuration::nanos(
        static_cast<std::int64_t>(get_le<std::uint64_t>(p + 8)));
    e.baseline_delay = sim::SimDuration::nanos(
        static_cast<std::int64_t>(get_le<std::uint64_t>(p + 16)));
    e.bandwidth_estimate = sim::DataRate::bits_per_second(
        std::bit_cast<double>(get_le<std::uint64_t>(p + 24)));
  }
  return WireError::kOk;
}

}  // namespace intsched::serve
