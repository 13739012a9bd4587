// SHA-256 Merkle tree with branch proofs (ISSUE 10 tentpole).
//
// Commits the erasure-coded broadcast's n fragments to one λ-word root:
// the source ships each process its fragment plus the sibling path, and
// receivers verify membership against the recomputed root without seeing
// the other fragments. Domain separation (0x00-prefixed leaves,
// 0x01-prefixed interior nodes) blocks leaf/node confusion; an odd node
// at any level is promoted unchanged, so the branch for index i holds
// exactly one digest per level where a sibling exists — verification
// replays the same promotion schedule from (index, leaf_count) alone.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {

/// Hash of one leaf payload: sha256(0x00 || data).
Digest merkle_leaf(BytesView data);

/// The root implied by placing `leaf` at `index` of a `leaf_count`-leaf
/// tree with sibling path `branch` — nullopt when the branch length does
/// not match the promotion schedule. Receivers that only know the
/// claimed root compare against this (MerkleTree::verify is the
/// equality wrapper).
std::optional<Digest> merkle_implied_root(std::size_t leaf_count,
                                          std::size_t index, BytesView leaf,
                                          const std::vector<Digest>& branch);

/// The same, with the branch as its digests concatenated on the wire:
/// nullopt also when `branch` is not a whole number of digests.
std::optional<Digest> merkle_implied_root(std::size_t leaf_count,
                                          std::size_t index, BytesView leaf,
                                          BytesView branch);

class MerkleTree {
 public:
  /// Builds the tree over `leaves` (at least one), hashing each payload.
  explicit MerkleTree(const std::vector<Bytes>& leaves);

  std::size_t leaf_count() const { return leaf_count_; }
  const Digest& root() const { return levels_.back().front(); }

  /// Sibling path for leaf `index`, bottom-up. Empty for a 1-leaf tree.
  std::vector<Digest> branch(std::size_t index) const;

  /// Recomputes the root implied by (`index`, `leaf`, `branch`) in a
  /// `leaf_count`-leaf tree and compares it to `root`. False on any
  /// mismatch, including a branch of the wrong length.
  static bool verify(const Digest& root, std::size_t leaf_count,
                     std::size_t index, BytesView leaf,
                     const std::vector<Digest>& branch);

 private:
  std::size_t leaf_count_;
  // levels_[0] = leaf hashes, levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
};

}  // namespace coincidence::crypto
