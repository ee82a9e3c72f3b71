#include "ndn/tlv.hpp"

#include <cstring>

namespace ndnp::ndn {

namespace {

[[nodiscard]] std::span<const std::uint8_t> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

void require(bool condition, const char* message) {
  if (!condition) throw TlvError(message);
}

/// One decoded TLV block view into the input buffer.
struct Block {
  std::uint64_t type = 0;
  std::span<const std::uint8_t> value;
};

[[nodiscard]] Block read_block(std::span<const std::uint8_t> in, std::size_t& offset) {
  Block block;
  block.type = read_varnum(in, offset);
  const std::uint64_t length = read_varnum(in, offset);
  require(offset + length <= in.size(), "TLV value truncated");
  block.value = in.subspan(offset, length);
  offset += length;
  return block;
}

}  // namespace

void append_varnum(Buffer& out, std::uint64_t value) {
  if (value < 253) {
    out.push_back(static_cast<std::uint8_t>(value));
  } else if (value <= 0xffff) {
    out.push_back(253);
    out.push_back(static_cast<std::uint8_t>(value >> 8));
    out.push_back(static_cast<std::uint8_t>(value));
  } else if (value <= 0xffffffff) {
    out.push_back(254);
    for (int shift = 24; shift >= 0; shift -= 8)
      out.push_back(static_cast<std::uint8_t>(value >> shift));
  } else {
    out.push_back(255);
    for (int shift = 56; shift >= 0; shift -= 8)
      out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

std::uint64_t read_varnum(std::span<const std::uint8_t> in, std::size_t& offset) {
  require(offset < in.size(), "TLV number truncated");
  const std::uint8_t first = in[offset++];
  int extra = 0;
  if (first < 253) return first;
  if (first == 253)
    extra = 2;
  else if (first == 254)
    extra = 4;
  else
    extra = 8;
  require(offset + static_cast<std::size_t>(extra) <= in.size(), "TLV number truncated");
  std::uint64_t value = 0;
  for (int i = 0; i < extra; ++i) value = (value << 8) | in[offset++];
  return value;
}

void append_tlv(Buffer& out, TlvType type, std::span<const std::uint8_t> value) {
  append_varnum(out, static_cast<std::uint64_t>(type));
  append_varnum(out, value.size());
  out.insert(out.end(), value.begin(), value.end());
}

void append_tlv_number(Buffer& out, TlvType type, std::uint64_t value) {
  Buffer payload;
  int bytes = 1;
  if (value > 0xffffffff)
    bytes = 8;
  else if (value > 0xffff)
    bytes = 4;
  else if (value > 0xff)
    bytes = 2;
  for (int i = bytes - 1; i >= 0; --i)
    payload.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  append_tlv(out, type, payload);
}

std::uint64_t decode_number(std::span<const std::uint8_t> value) {
  require(value.size() == 1 || value.size() == 2 || value.size() == 4 || value.size() == 8,
          "bad integer TLV width");
  std::uint64_t out = 0;
  for (const std::uint8_t byte : value) out = (out << 8) | byte;
  return out;
}

Buffer encode(const Name& name) {
  Buffer inner;
  for (const std::string_view component : name.components())
    append_tlv(inner, TlvType::kNameComponent, as_bytes(component));
  Buffer out;
  append_tlv(out, TlvType::kName, inner);
  return out;
}

Name decode_name(std::span<const std::uint8_t> wire) {
  std::size_t offset = 0;
  const Block name_block = read_block(wire, offset);
  require(name_block.type == static_cast<std::uint64_t>(TlvType::kName), "expected Name TLV");
  std::vector<std::string> components;
  std::size_t inner = 0;
  while (inner < name_block.value.size()) {
    const Block component = read_block(name_block.value, inner);
    require(component.type == static_cast<std::uint64_t>(TlvType::kNameComponent),
            "expected NameComponent TLV");
    components.emplace_back(component.value.begin(), component.value.end());
  }
  try {
    return Name(std::move(components));
  } catch (const std::invalid_argument&) {
    // Wire carried a component violating Name invariants (empty, or a '/'
    // byte). Per the header contract, malformed input throws TlvError.
    throw TlvError("Name TLV with invalid component");
  }
}

Buffer encode(const Interest& interest) {
  Buffer inner = encode(interest.name);
  append_tlv_number(inner, TlvType::kNonce, interest.nonce);
  if (interest.scope)
    append_tlv_number(inner, TlvType::kScope, static_cast<std::uint64_t>(*interest.scope));
  if (interest.lifetime)
    append_tlv_number(inner, TlvType::kInterestLifetime,
                      static_cast<std::uint64_t>(*interest.lifetime));
  if (interest.must_be_fresh) append_tlv(inner, TlvType::kMustBeFresh, {});
  if (interest.private_req) append_tlv(inner, TlvType::kPrivateRequest, {});
  Buffer out;
  append_tlv(out, TlvType::kInterest, inner);
  return out;
}

Interest decode_interest(std::span<const std::uint8_t> wire) {
  std::size_t offset = 0;
  const Block packet = read_block(wire, offset);
  require(packet.type == static_cast<std::uint64_t>(TlvType::kInterest),
          "expected Interest TLV");
  Interest interest;
  std::size_t inner = 0;
  bool saw_name = false;
  while (inner < packet.value.size()) {
    const std::size_t block_start = inner;
    const Block field = read_block(packet.value, inner);
    switch (static_cast<TlvType>(field.type)) {
      case TlvType::kName:
        interest.name =
            decode_name(packet.value.subspan(block_start, inner - block_start));
        saw_name = true;
        break;
      case TlvType::kNonce:
        interest.nonce = decode_number(field.value);
        break;
      case TlvType::kScope:
        interest.scope = static_cast<int>(decode_number(field.value));
        break;
      case TlvType::kInterestLifetime:
        interest.lifetime = static_cast<std::int64_t>(decode_number(field.value));
        break;
      case TlvType::kMustBeFresh:
        interest.must_be_fresh = true;
        break;
      case TlvType::kPrivateRequest:
        interest.private_req = true;
        break;
      default:
        break;  // unknown field: skip (forward compatibility)
    }
  }
  require(saw_name, "Interest without Name");
  return interest;
}

Buffer encode(const Data& data) {
  Buffer inner = encode(data.name);
  append_tlv(inner, TlvType::kContent, as_bytes(data.payload.view()));
  append_tlv(inner, TlvType::kProducer, as_bytes(data.producer));
  append_tlv(inner, TlvType::kSignatureValue, data.signature.value());
  if (data.producer_private) append_tlv(inner, TlvType::kProducerPrivate, {});
  if (data.exact_match_only) append_tlv(inner, TlvType::kExactMatchOnly, {});
  if (!data.group_id.empty()) append_tlv(inner, TlvType::kGroupId, as_bytes(data.group_id));
  if (data.freshness_period)
    append_tlv_number(inner, TlvType::kFreshnessPeriod,
                      static_cast<std::uint64_t>(*data.freshness_period));
  Buffer out;
  append_tlv(out, TlvType::kData, inner);
  return out;
}

Data decode_data(std::span<const std::uint8_t> wire) {
  std::size_t offset = 0;
  const Block packet = read_block(wire, offset);
  require(packet.type == static_cast<std::uint64_t>(TlvType::kData), "expected Data TLV");
  Data data;
  std::size_t inner = 0;
  bool saw_name = false;
  while (inner < packet.value.size()) {
    const std::size_t block_start = inner;
    const Block field = read_block(packet.value, inner);
    switch (static_cast<TlvType>(field.type)) {
      case TlvType::kName:
        data.name = decode_name(packet.value.subspan(block_start, inner - block_start));
        saw_name = true;
        break;
      case TlvType::kContent:
        data.payload = std::string(field.value.begin(), field.value.end());
        break;
      case TlvType::kProducer:
        data.producer.assign(field.value.begin(), field.value.end());
        break;
      case TlvType::kSignatureValue: {
        require(field.value.size() == Signature::size(), "bad signature length");
        crypto::Sha256Digest bytes;
        std::memcpy(bytes.data(), field.value.data(), field.value.size());
        data.signature = Signature(bytes);
        break;
      }
      case TlvType::kProducerPrivate:
        data.producer_private = true;
        break;
      case TlvType::kExactMatchOnly:
        data.exact_match_only = true;
        break;
      case TlvType::kGroupId:
        data.group_id.assign(field.value.begin(), field.value.end());
        break;
      case TlvType::kFreshnessPeriod:
        data.freshness_period = static_cast<std::int64_t>(decode_number(field.value));
        break;
      default:
        break;  // unknown field: skip
    }
  }
  require(saw_name, "Data without Name");
  return data;
}

}  // namespace ndnp::ndn
