// Versioned state snapshots for kCrashRecover persistence.
//
// Context::persist / Process::on_recover move raw bytes; this header
// gives protocols a tiny framing convention on top of the existing ser
// layer so a recovering process can reject snapshots written by a
// different protocol (or an older wire version) instead of misparsing
// them — stable storage is just another untrusted decoder input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::sim {

struct StateSnapshot {
  /// Frames `state` as a snapshot of kind `kind` (a protocol-chosen
  /// name, e.g. "chaos-counter") at the given schema version.
  static Bytes pack(std::string_view kind, std::uint32_t version,
                    BytesView state) {
    Writer w;
    w.reserve(Writer::blob_size(kind.size()) + 4 +
              Writer::blob_size(state.size()));
    w.str(kind).u32(version).blob(state);
    return w.take();
  }

  /// Unpacks `blob` into `state` iff it is a well-formed snapshot of the
  /// expected kind and version; returns false (leaving `state` alone)
  /// otherwise. Empty blobs — a process that never persisted — are the
  /// common "no snapshot" case and simply return false.
  static bool unpack(BytesView blob, std::string_view kind,
                     std::uint32_t version, Bytes& state) {
    try {
      Reader r(blob);
      if (r.str() != kind) return false;
      if (r.u32() != version) return false;
      Bytes decoded = r.blob();
      r.done();
      state = std::move(decoded);
      return true;
    } catch (const CodecError&) {
      return false;
    }
  }
};

}  // namespace coincidence::sim
