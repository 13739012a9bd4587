// Minimal binary serialization for protocol messages.
//
// Messages on the simulated network are carried as byte strings; each
// protocol defines an encode/decode pair with these helpers. The format is
// length-prefixed and self-delimiting, so decoders can reject truncated or
// trailing data — Byzantine senders exercise those paths in the tests.
//
// Both directions sit on every delivery, so the field codecs are inline:
// a Writer appends each field with one size check (reserve() sizes a
// message once), and a Reader's only out-of-line path is the cold throw
// on truncated input.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace coincidence {

/// Appends typed fields to an output byte string.
class Writer {
 public:
  Writer() = default;
  /// Writes into `buf`, emptied first: a caller that keeps one buffer
  /// and takes it back reuses its capacity.
  explicit Writer(Bytes&& buf) : out_(std::move(buf)) { out_.clear(); }

  /// Room for `n` more bytes, so a caller that knows a message's size
  /// allocates its buffer once.
  Writer& reserve(std::size_t n) {
    out_.reserve(out_.size() + n);
    return *this;
  }

  Writer& u8(std::uint8_t v) {
    out_.push_back(v);
    return *this;
  }
  Writer& u32(std::uint32_t v) { return be(v, 4); }
  Writer& u64(std::uint64_t v) { return be(v, 8); }
  /// Length-prefixed byte string (u32 length + raw bytes).
  Writer& blob(BytesView data);
  /// Length-prefixed UTF-8 string.
  Writer& str(std::string_view s) { return blob(view_of(s)); }

  /// Encoded size of a blob or str field carrying `n` bytes.
  static constexpr std::size_t blob_size(std::size_t n) { return 4 + n; }

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  /// Room for `n` more bytes, growing geometrically like push_back.
  void room(std::size_t n) {
    if (out_.capacity() - out_.size() < n)
      out_.reserve(std::max(out_.size() + n, 2 * out_.capacity()));
  }
  /// The low `width` bytes of `v`, big-endian.
  Writer& be(std::uint64_t v, int width) {
    const std::size_t at = out_.size();
    out_.resize(at + static_cast<std::size_t>(width));
    for (int i = width - 1; i >= 0; --i, v >>= 8)
      out_[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v & 0xff);
    return *this;
  }

  Bytes out_;
};

/// Reads typed fields back; throws CodecError on truncation. Call done()
/// at the end of a decode to reject trailing garbage.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(be(4)); }
  std::uint64_t u64() { return be(8); }
  Bytes blob();
  /// Like blob(), but returns a view into the underlying buffer instead
  /// of copying. Valid only while that buffer outlives the view — hot
  /// paths decode, verify, and drop the view before the message goes
  /// away.
  BytesView blob_view() {
    const std::uint32_t len = u32();
    need(len);
    const BytesView out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }
  std::string str();

  bool empty() const { return pos_ == data_.size(); }
  /// The input read so far, and the input not yet read.
  BytesView consumed() const { return data_.first(pos_); }
  BytesView rest() const { return data_.subspan(pos_); }
  /// Throws CodecError unless the whole input was consumed.
  void done() const {
    if (pos_ != data_.size()) throw_trailing();
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw_truncated();
  }
  std::uint64_t be(int width) {
    need(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v = (v << 8) | data_[pos_++];
    return v;
  }
  [[noreturn, gnu::cold]] static void throw_truncated();
  [[noreturn, gnu::cold]] static void throw_trailing();

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace coincidence
