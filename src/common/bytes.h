// Byte-string utilities: the lingua franca between crypto, serialization
// and the simulated network.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace coincidence {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Lowercase hex encoding ("" for empty input).
std::string to_hex(BytesView data);

/// Strict decoder: throws CodecError on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Copies the raw characters of `s` (no terminator) into a byte string.
Bytes bytes_of(std::string_view s);

/// The raw characters of `s` as bytes, without a copy.
inline BytesView view_of(std::string_view s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// Big-endian encoding of a 64-bit integer (8 bytes).
Bytes bytes_of_u64(std::uint64_t v);

/// Reads a big-endian u64 from the first 8 bytes of `data`.
std::uint64_t u64_of_bytes(BytesView data);

/// Concatenates any number of byte strings.
Bytes concat(std::initializer_list<BytesView> parts);

/// Appends `suffix` to `dst` in place.
void append(Bytes& dst, BytesView suffix);

/// Constant-time equality (length leaks, contents do not).
bool ct_equal(BytesView a, BytesView b);

}  // namespace coincidence
