// Interned message tags (ISSUE 3 tentpole).
//
// Tags are the simulator's routing keys ("ba/3/coin/first"). The legacy
// substrate carried them as std::string in every Message — one heap
// allocation per enqueued copy, plus re-concatenation on every receive-
// side match. A TagTable interns each distinct tag string exactly once
// and hands out a dense TagId; a Tag is that integer, so tag equality is
// an integer compare, Message copies allocate nothing for the tag, and
// Metrics can bucket words into a flat vector indexed by TagId.
//
// Determinism: TagId values depend on interning order, which may differ
// across runs and threads — so ids must never leak into observable
// output. Nothing here lets them: every externally visible surface
// (traces, words_by_tag views, adversary matching) resolves back to the
// string. See docs/SIM_FAST_PATH.md for the full argument.
//
// Thread-safety: core::run_agreements_parallel runs whole simulations on
// worker threads, and protocols intern at construction time — so
// intern() takes a shared lock for the (overwhelmingly common)
// lookup-hit path and only upgrades to an exclusive lock to insert a
// genuinely new tag, while str() is lock-free (chunked storage with
// stable addresses; an acquire on the published size pairs with the
// release in intern(), so any id obtained from a Tag resolves safely).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace coincidence::sim {

using TagId = std::uint32_t;

class TagTable {
 public:
  /// The process-global table. Tag sets are small (a bounded grammar of
  /// instance/round/step components), so one shared table never grows
  /// past a few thousand entries even across chaos sweeps.
  static TagTable& instance();

  /// Returns the id for `s`, interning it on first sight. Thread-safe.
  TagId intern(std::string_view s);

  /// Resolves an id to its string. Lock-free; the reference is stable
  /// for the lifetime of the process.
  const std::string& str(TagId id) const;

  std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }

 private:
  TagTable();

  // Chunked storage: chunk pointers are published once and never moved,
  // so resolved references stay valid without any locking.
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMaxChunks = 1024;  // 1M distinct tags
  using Chunk = std::array<std::string, kChunkSize>;

  std::atomic<std::uint32_t> size_{0};
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  mutable std::shared_mutex mu_;
  // Keys are views into chunk storage (stable addresses).
  std::unordered_map<std::string_view, TagId> index_;
};

/// A message tag: an interned id with string interop. Implicit
/// construction from strings keeps every legacy call site compiling
/// (`ctx.broadcast("ping", ...)`, `msg.tag == "ping"`); hot paths cache
/// Tag values at protocol construction so the intern cost is paid once.
class Tag {
 public:
  Tag() = default;  // the empty tag (id 0)
  Tag(std::string_view s) : id_(TagTable::instance().intern(s)) {}
  Tag(const std::string& s) : Tag(std::string_view(s)) {}
  Tag(const char* s) : Tag(std::string_view(s)) {}

  static Tag from_id(TagId id) {
    Tag t;
    t.id_ = id;
    return t;
  }

  TagId id() const { return id_; }
  const std::string& str() const { return TagTable::instance().str(id_); }
  bool empty() const { return id_ == 0; }

  friend bool operator==(const Tag& a, const Tag& b) {
    return a.id_ == b.id_;
  }
  friend bool operator!=(const Tag& a, const Tag& b) {
    return a.id_ != b.id_;
  }

 private:
  TagId id_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Tag& tag);

/// The one tag grammar of nested instances: reads `k` out of
/// "<prefix><k>" or "<prefix><k>/<rest>" — a BA's round under
/// "<tag>/", a multivalued BA's candidate under "<tag>/c", a log's slot
/// under "slot". `k` must be a canonical decimal (no sign, no leading
/// zero, no u64 overflow) ending the tag or followed by '/'. On success
/// `*rest` (if given) views what follows that '/', empty at the tag's
/// end; anything else is nullopt, and each caller applies its own
/// policy for a tag naming no index.
std::optional<std::uint64_t> tag_index(std::string_view tag,
                                       std::string_view prefix,
                                       std::string_view* rest = nullptr);

}  // namespace coincidence::sim
