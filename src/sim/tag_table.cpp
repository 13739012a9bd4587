#include "sim/tag_table.h"

#include <charconv>
#include <mutex>
#include <ostream>

#include "common/errors.h"

namespace coincidence::sim {

TagTable& TagTable::instance() {
  static TagTable table;
  return table;
}

TagTable::TagTable() {
  // Id 0 is the empty tag, so a default Tag resolves without interning.
  intern(std::string_view{});
}

TagId TagTable::intern(std::string_view s) {
  // Fast path: parallel drivers intern the same bounded tag grammar over
  // and over, so nearly every call is a lookup hit — readers share mu_.
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(s);
    if (it != index_.end()) return it->second;
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-check: another thread may have interned `s` between the locks.
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;

  const std::uint32_t id = size_.load(std::memory_order_relaxed);
  const std::size_t chunk_idx = id >> kChunkShift;
  COIN_REQUIRE(chunk_idx < kMaxChunks, "TagTable: tag universe exhausted");
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[chunk_idx].store(chunk, std::memory_order_relaxed);
  }
  std::string& stored = (*chunk)[id & (kChunkSize - 1)];
  stored.assign(s);
  index_.emplace(std::string_view(stored), id);
  // Publish: readers that acquire size_ >= id+1 see the chunk pointer
  // and the stored string.
  size_.store(id + 1, std::memory_order_release);
  return id;
}

const std::string& TagTable::str(TagId id) const {
  COIN_REQUIRE(id < size_.load(std::memory_order_acquire),
               "TagTable: unknown tag id");
  const Chunk* chunk =
      chunks_[id >> kChunkShift].load(std::memory_order_relaxed);
  return (*chunk)[id & (kChunkSize - 1)];
}

std::ostream& operator<<(std::ostream& os, const Tag& tag) {
  return os << tag.str();
}

std::optional<std::uint64_t> tag_index(std::string_view tag,
                                       std::string_view prefix,
                                       std::string_view* rest) {
  if (!tag.starts_with(prefix)) return std::nullopt;
  const char* first = tag.data() + prefix.size();
  const char* last = tag.data() + tag.size();
  std::uint64_t k = 0;
  // from_chars takes no sign and fails on overflow; a leading zero is
  // the one non-canonical form it would accept.
  const auto [end, ec] = std::from_chars(first, last, k);
  if (ec != std::errc{} || (*first == '0' && end - first > 1))
    return std::nullopt;
  if (end != last && *end != '/') return std::nullopt;
  if (rest != nullptr)
    *rest = end == last ? std::string_view{}
                        : std::string_view(end + 1, last - end - 1);
  return k;
}

}  // namespace coincidence::sim
