// Refcounted immutable payload buffer (ISSUE 3 tentpole).
//
// Message payloads are write-once: a protocol encodes a buffer, the
// network fans it out, receivers only read. SharedBytes makes that
// explicit — the buffer is held behind shared_ptr<const Bytes>, so a
// broadcast to n processes enqueues n refcount bumps instead of n deep
// copies, and replay/duplicate/history entries alias the original
// allocation. Copy-on-write is by construction: the bytes are const, so
// a receiver wanting a mutable copy must take one via to_bytes(), which
// can never affect other holders of the same buffer.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.h"

namespace coincidence {

class SharedBytes {
 public:
  SharedBytes() = default;  // empty payload, no allocation

  /// Implicit from Bytes so `ctx.send(to, tag, writer.take(), w)` keeps
  /// compiling: moves the buffer behind one shared allocation.
  SharedBytes(Bytes b)
      : data_(b.empty() ? nullptr
                        : std::make_shared<const Bytes>(std::move(b))) {}

  /// Deep copy of a view (the view's storage is not adopted). The buffer
  /// is built inside make_shared: building a temporary Bytes first trips
  /// a GCC 12 -Wfree-nonheap-object false positive once inlined.
  static SharedBytes copy_of(BytesView v) {
    SharedBytes out;
    if (!v.empty())
      out.data_ = std::make_shared<const Bytes>(v.begin(), v.end());
    return out;
  }

  const Bytes& bytes() const { return data_ ? *data_ : empty_bytes(); }
  BytesView view() const { return BytesView(bytes()); }
  operator BytesView() const { return view(); }

  const std::uint8_t* data() const { return bytes().data(); }
  std::size_t size() const { return data_ ? data_->size() : 0; }
  bool empty() const { return size() == 0; }

  /// Mutable deep copy — the copy-on-write escape hatch.
  Bytes to_bytes() const { return bytes(); }

  /// Aliasing introspection for tests: two SharedBytes share storage iff
  /// their buffer ids are equal (and non-null).
  const void* buffer_id() const { return data_.get(); }
  long use_count() const { return data_.use_count(); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.bytes() == b.bytes();
  }

 private:
  static const Bytes& empty_bytes() {
    static const Bytes kEmpty;
    return kEmpty;
  }

  std::shared_ptr<const Bytes> data_;
};

}  // namespace coincidence
