// Erasure-coded reliable broadcast, AVID-M style (ISSUE 10 tentpole).
//
// Bracha's protocol re-ships the full value in every echo: O(f·n·|v|)
// words per broadcast. Following AVID (Cachin–Tessaro 2005) and its
// hash-based AVID-M refinement, the source instead Reed–Solomon-encodes
// the value into m = min(n, 3f + 1) fragments, one per member of its
// echo set E (broadcast.h, EchoSet; k = f+1 data + m−k parity, crypto/
// reed_solomon.h), commits them to an m-leaf Merkle root (crypto/
// merkle.h), and sends the member at position j of E only fragment j
// plus its branch:
//
//   source:   send <initial, |v|, frag_j, branch_j> to E's j-th member
//   member, on initial (branch valid at own position):
//             broadcast <echo, src, |v|, root, frag_self, branch_self>
//                                                       (once per source)
//
// and from there the quorum core of broadcast.h (QuorumBroadcast) over
// flows (src, H(root ‖ |v|)), counting only echoes whose branch is valid
// at the sender's position: readies at the echo quorum and at f + 1, and
// at 2f + 1 member readies AND ≥ k branch-valid member fragments:
//
//             decode; re-encode; recompute root; deliver iff it matches
//
// The re-encode check makes deliver/no-deliver a deterministic function
// of the root: if any k root-consistent fragments decode to a value
// whose re-encoding reproduces the root, collision resistance forces
// *every* root-consistent fragment onto that codeword, so every k-subset
// decodes identically — correct processes can never split on the value.
// A root whose check fails is poisoned forever (an inconsistently-
// encoded Byzantine dispersal; nobody delivers it). Binding |v| into the
// ready digest blocks size equivocation: one root with two claimed
// sizes forms two independent flows, and fragment lengths are validated
// against ⌈|v|/k⌉ before counting.
//
// Quorum math (m ≥ 3f + 1, at most f faulty members): an echo quorum
// > (m+f)/2 contains > (m−f)/2 ≥ f+1 = k correct members, each
// broadcasting its branch-valid fragment to everyone — so whenever any
// correct process delivers, every correct process eventually holds ≥ k
// fragments and the 2f+1 member readies totality needs. Word ledger,
// exact: with L = ⌈⌈|v|/k⌉/8⌉ fragment words and B = λ·(branch digests
// of an m-leaf tree), initial = 1+L+B to each member, and echo =
// 1+λ+L+B, sent by the m members to all n. The m·n term carries
// fragments of |v|/(f+1) and hashes — O(n·|v| + f·n·λ·log f) total, the
// sub-quadratic dissemination bill the paper's multivalued extension
// assumes.
//
// Verify once, store once. Both checks are pure functions of bytes every
// correct receiver sees identically, so their verdicts go through a
// crypto::VerdictMemo (Config::memo; shared by every process of a log
// run via coin::BatchVerifier::rbc_memo(), private per instance when
// null):
//   - echo branch: key (m, echoer position, claimed root, |v|, fragment,
//     branch), verdict "implied root == claimed root". The echoer's own
//     initial check already decided its echo, so it stores the verdict
//     before broadcasting and no receiver recomputes an honest echo.
//     The fingerprint comes from the root, index and size only: fragments
//     of one value share prefixes and fingerprint poorly.
//   - consistency: key (m, k, source, root, decoded value), verdict
//     "re-encoding reproduces the root". Decoding stays per receiver; a
//     hit skips the re-encode and the tree build (kRbcEncodes counts
//     only real encodes). The source is in the key although the verdict
//     does not depend on it: one process checks each source once, so a
//     private memo never hits here and its encode count is the
//     memo-less one, even when two sources send equal values (binary BA).
// Hits need an exact byte match, so a Byzantine variant one byte away
// from an honest key is checked in full and cannot borrow its verdict.
// H(root ‖ |v|) is computed once per (source, root, |v|) an instance
// sees, and fragments are kept as views into the echo payloads.
//
// Cost ledger per broadcast, with a shared memo: one branch check per
// echoer (the m·n receiver checks hit), one encode and tree build at the
// source, one decode and one composite hash per receiver, and one
// re-encode and tree build per distinct decoded value. With private
// memos each receiver instead pays m branch checks and its own re-encode.
//
// GF(2^8) caps the code at 255 fragments, so m = 3f + 1 ≤ 255 (f ≤ 84);
// n itself is uncapped.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ba/broadcast.h"
#include "common/bytes.h"
#include "common/shared_bytes.h"
#include "crypto/reed_solomon.h"
#include "crypto/sha256.h"
#include "crypto/verdict_memo.h"
#include "sim/process.h"

namespace coincidence::ba {

/// What a coded flow holds besides its tallies; its digest is
/// H(root ‖ |v|), the ready-quorum identity.
struct CodedFlow {
  // A branch-valid fragment: a view into the echo that carried it, kept
  // alive by holding that echo's payload (never empty for a parsed echo).
  struct Fragment {
    SharedBytes payload;
    BytesView bytes;
  };

  crypto::Digest root{};  // learned with the first valid echo
  std::uint64_t value_size = 0;
  // Branch-valid fragments by echoer position in E (m slots once the
  // first arrives); dropped once the source is delivered or the flow
  // poisoned (nothing decodes them again).
  std::vector<Fragment> fragments;
  std::size_t fragment_count = 0;
  bool poisoned = false;  // failed the re-encode consistency check
};

class EcBroadcast final : public QuorumBroadcast<CodedFlow> {
 public:
  EcBroadcast(Config cfg, DeliverFn on_deliver);

  void broadcast(sim::Context& ctx, Bytes payload) override;
  bool handle(sim::Context& ctx, const sim::Message& msg) override;

 private:
  // A (root, |v|) some echo for a source named, with its composite key.
  struct Held {
    crypto::Digest root{};
    std::uint64_t value_size = 0;
    crypto::Digest key{};
  };

  static crypto::Digest composite_key(BytesView root,
                                      std::uint64_t value_size);
  /// H(root ‖ |v|), hashed only the first time `source` pairs them.
  crypto::Digest held_key(sim::ProcessId source, BytesView root,
                          std::uint64_t value_size);

  /// Memoised echo check: `branch` places `fragment` at leaf `index` (the
  /// echoer's position in E) under `root`.
  bool branch_valid(std::size_t index, BytesView root,
                    std::uint64_t value_size, BytesView fragment,
                    BytesView branch);
  /// Memoised consistency check: re-encoding `value`, decoded from
  /// `flow`, reproduces the flow's root.
  bool reencodes_to(sim::Context& ctx, const Flow& flow, BytesView value);

  void handle_initial(sim::Context& ctx, const sim::Message& msg);
  void handle_echo(sim::Context& ctx, const sim::Message& msg);
  void maybe_deliver(sim::Context& ctx, Flow& flow);

  /// Branch words: λ per digest on the sibling path of an m-leaf tree.
  std::size_t branch_words(std::size_t branch_len) const {
    return kDigestWords * branch_len;
  }

  std::unique_ptr<crypto::VerdictMemo> own_memo_;  // when cfg_.memo is null
  crypto::VerdictMemo* memo_;
  crypto::ReedSolomon rs_;  // m = |E| fragments, k = f+1
  std::vector<std::vector<Held>> held_;  // per source
};

}  // namespace coincidence::ba
