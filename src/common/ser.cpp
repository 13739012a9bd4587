#include "common/ser.h"

#include "common/errors.h"

namespace coincidence {

Writer& Writer::blob(BytesView data) {
  COIN_REQUIRE(data.size() <= 0xffffffffULL, "blob too large");
  room(blob_size(data.size()));
  u32(static_cast<std::uint32_t>(data.size()));
  out_.insert(out_.end(), data.begin(), data.end());
  return *this;
}

Bytes Reader::blob() {
  const BytesView v = blob_view();
  return Bytes(v.begin(), v.end());
}

std::string Reader::str() {
  const BytesView v = blob_view();
  return std::string(v.begin(), v.end());
}

void Reader::throw_truncated() { throw CodecError("Reader: truncated input"); }

void Reader::throw_trailing() { throw CodecError("Reader: trailing bytes"); }

}  // namespace coincidence
