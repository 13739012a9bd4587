#include "crypto/merkle.h"

#include "common/errors.h"

namespace coincidence::crypto {

namespace {

Digest node_hash(BytesView left, BytesView right) {
  Sha256 h;
  const std::uint8_t prefix = 0x01;
  h.update(BytesView(&prefix, 1));
  h.update(left);
  h.update(right);
  return h.finish();
}

// Replays the promotion schedule from (index, leaf_count), hashing in
// sibling(i) for the i-th level that has one; nullopt unless exactly
// `branch_len` siblings are used.
template <typename SiblingFn>
std::optional<Digest> implied_root(std::size_t leaf_count, std::size_t index,
                                   BytesView leaf, std::size_t branch_len,
                                   SiblingFn sibling_at) {
  if (leaf_count == 0 || index >= leaf_count) return std::nullopt;
  Digest acc = merkle_leaf(leaf);
  std::size_t used = 0;
  std::size_t width = leaf_count;
  while (width > 1) {
    const std::size_t sibling = index ^ 1;
    if (sibling < width) {
      if (used >= branch_len) return std::nullopt;
      const BytesView sib = sibling_at(used++);
      acc = (index & 1) ? node_hash(sib, acc) : node_hash(acc, sib);
    }
    index >>= 1;
    width = (width + 1) / 2;
  }
  if (used != branch_len) return std::nullopt;
  return acc;
}

}  // namespace

Digest merkle_leaf(BytesView data) {
  Sha256 h;
  const std::uint8_t prefix = 0x00;
  h.update(BytesView(&prefix, 1));
  h.update(data);
  return h.finish();
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaves)
    : leaf_count_(leaves.size()) {
  COIN_REQUIRE(!leaves.empty(), "MerkleTree: needs at least one leaf");
  std::vector<Digest> level;
  level.reserve(leaves.size());
  for (const Bytes& leaf : leaves) level.push_back(merkle_leaf(leaf));
  levels_.push_back(std::move(level));
  while (levels_.back().size() > 1) {
    const std::vector<Digest>& below = levels_.back();
    std::vector<Digest> above;
    above.reserve((below.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < below.size(); i += 2)
      above.push_back(node_hash(below[i], below[i + 1]));
    if (below.size() % 2 == 1) above.push_back(below.back());
    levels_.push_back(std::move(above));
  }
}

std::vector<Digest> MerkleTree::branch(std::size_t index) const {
  COIN_REQUIRE(index < leaf_count_, "MerkleTree::branch: index out of range");
  std::vector<Digest> path;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const std::vector<Digest>& row = levels_[level];
    const std::size_t sibling = index ^ 1;
    if (sibling < row.size()) path.push_back(row[sibling]);
    index >>= 1;
  }
  return path;
}

std::optional<Digest> merkle_implied_root(std::size_t leaf_count,
                                          std::size_t index, BytesView leaf,
                                          const std::vector<Digest>& branch) {
  return implied_root(leaf_count, index, leaf, branch.size(),
                      [&](std::size_t i) { return BytesView(branch[i]); });
}

std::optional<Digest> merkle_implied_root(std::size_t leaf_count,
                                          std::size_t index, BytesView leaf,
                                          BytesView branch) {
  if (branch.size() % kSha256DigestSize != 0) return std::nullopt;
  return implied_root(leaf_count, index, leaf,
                      branch.size() / kSha256DigestSize, [&](std::size_t i) {
                        return branch.subspan(i * kSha256DigestSize,
                                              kSha256DigestSize);
                      });
}

bool MerkleTree::verify(const Digest& root, std::size_t leaf_count,
                        std::size_t index, BytesView leaf,
                        const std::vector<Digest>& branch) {
  const auto implied = merkle_implied_root(leaf_count, index, leaf, branch);
  return implied.has_value() && *implied == root;
}

}  // namespace coincidence::crypto
