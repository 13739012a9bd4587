// Minimal binary serialization for protocol messages.
//
// Messages on the simulated network are carried as byte strings; each
// protocol defines an encode/decode pair with these helpers. The format is
// length-prefixed and self-delimiting, so decoders can reject truncated or
// trailing data — Byzantine senders exercise those paths in the tests.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace coincidence {

/// Appends typed fields to an output byte string.
class Writer {
 public:
  Writer& u8(std::uint8_t v);
  Writer& u32(std::uint32_t v);
  Writer& u64(std::uint64_t v);
  /// Length-prefixed byte string (u32 length + raw bytes).
  Writer& blob(BytesView data);
  /// Length-prefixed UTF-8 string.
  Writer& str(std::string_view s);

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// Reads typed fields back; throws CodecError on truncation. Call done()
/// at the end of a decode to reject trailing garbage.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes blob();
  /// Like blob(), but returns a view into the underlying buffer instead
  /// of copying. Valid only while that buffer outlives the view — hot
  /// paths decode, verify, and drop the view before the message goes
  /// away.
  BytesView blob_view();
  std::string str();

  bool empty() const { return pos_ == data_.size(); }
  /// The input read so far, and the input not yet read.
  BytesView consumed() const { return data_.first(pos_); }
  BytesView rest() const { return data_.subspan(pos_); }
  /// Throws CodecError unless the whole input was consumed.
  void done() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace coincidence
