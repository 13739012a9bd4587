// Erasure-coded reliable broadcast, AVID-M style (ISSUE 10 tentpole).
//
// Bracha's protocol re-ships the full value in every echo: O(n²·|v|)
// words per broadcast. Following AVID (Cachin–Tessaro 2005) and its
// hash-based AVID-M refinement, the source instead Reed–Solomon-encodes
// the value into n fragments (k = f+1 data + n−k parity, crypto/
// reed_solomon.h), commits them to a Merkle root (crypto/merkle.h), and
// sends process i only fragment i plus its branch:
//
//   source:   send <initial, |v|, frag_i, branch_i> to each i
//   on initial (branch valid at own index):
//             broadcast <echo, src, |v|, root, frag_self, branch_self>
//                                                       (once per source)
//   on echo   (branch valid at sender's index) from > (n+f)/2 distinct:
//             broadcast <ready, src, H(root ‖ |v|)>
//   on ready  from f+1 distinct:  broadcast <ready, src, H(root ‖ |v|)>
//   on ready  from 2f+1 distinct AND ≥ k branch-valid fragments:
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
// Quorum math (n > 3f): an echo quorum > (n+f)/2 contains > (n−f)/2 ≥
// f+1 = k correct processes, each broadcasting its branch-valid fragment
// to everyone — so whenever any correct process delivers, every correct
// process eventually holds ≥ k fragments and the 2f+1 readies totality
// needs. Word ledger, exact: with L = ⌈⌈|v|/k⌉/8⌉ fragment words and
// B = λ·(branch digests), initial = 1+L+B per process, echo = 1+λ+L+B,
// ready = 1+λ. The n² term carries hashes only — O(n·|v| + n²·λ·log n)
// total, the sub-quadratic dissemination bill the paper's multivalued
// extension assumes.
//
// Verify once, store once. Both checks are pure functions of bytes every
// correct receiver sees identically, so their verdicts go through a
// crypto::VerdictMemo (Config::memo; shared by every process of a log
// run via coin::BatchVerifier::rbc_memo(), private per instance when
// null):
//   - echo branch: key (n, echoer index, claimed root, |v|, fragment,
//     branch), verdict "implied root == claimed root". The echoer's own
//     initial check already decided its echo, so it stores the verdict
//     before broadcasting and no receiver recomputes an honest echo.
//     The fingerprint comes from the root, index and size only: fragments
//     of one value share prefixes and fingerprint poorly.
//   - consistency: key (n, k, source, root, decoded value), verdict
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
// echoer (the n² receiver checks hit), one encode and tree build at the
// source, one decode and one composite hash per receiver, and one
// re-encode and tree build per distinct decoded value. With private
// memos each receiver instead pays n branch checks and its own re-encode.
//
// GF(2^8) caps n at 255; larger cohorts must use the Bracha backend.
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
#include "sim/flat_map64.h"
#include "sim/process.h"

namespace coincidence::ba {

class EcBroadcast final : public Broadcast {
 public:
  using Config = Broadcast::Config;

  EcBroadcast(Config cfg, DeliverFn on_deliver);

  void broadcast(sim::Context& ctx, Bytes payload) override;
  bool handle(sim::Context& ctx, const sim::Message& msg) override;

  bool delivered(sim::ProcessId source) const override {
    return source < delivered_.size() && delivered_[source];
  }
  std::size_t delivered_count() const override { return delivered_count_; }

 private:
  // A branch-valid fragment: a view into the echo that carried it, kept
  // alive by holding that echo's payload (never empty for a parsed echo).
  struct Fragment {
    SharedBytes payload;
    BytesView bytes;
  };

  // One flow per (source, H(root ‖ |v|)): fragment store + echo/ready
  // tallies. Buckets under a 64-bit key fold; the full composite digest
  // disambiguates fold collisions.
  struct Flow {
    sim::ProcessId source = 0;
    crypto::Digest key{};   // H(root ‖ |v|): the ready-quorum identity
    crypto::Digest root{};  // learned with the first valid echo
    std::uint64_t value_size = 0;
    bool have_root = false;
    // Branch-valid fragments by echoer index (n slots once the first
    // arrives); dropped once the source is delivered or the flow
    // poisoned (nothing decodes them again).
    std::vector<Fragment> fragments;
    std::size_t fragment_count = 0;
    SenderSet echoes;
    SenderSet readies;
    bool ready_sent = false;
    bool poisoned = false;  // failed the re-encode consistency check
  };

  // A (root, |v|) some echo for a source named, with its composite key.
  struct Held {
    crypto::Digest root{};
    std::uint64_t value_size = 0;
    crypto::Digest key{};
  };

  static crypto::Digest composite_key(BytesView root,
                                      std::uint64_t value_size);
  static std::uint64_t flow_fold(sim::ProcessId source,
                                 const crypto::Digest& key);
  Flow& flow_of(sim::ProcessId source, const crypto::Digest& key);
  /// H(root ‖ |v|), hashed only the first time `source` pairs them.
  crypto::Digest held_key(sim::ProcessId source, BytesView root,
                          std::uint64_t value_size);

  /// Memoised echo check: `branch` places `fragment` at leaf `index`
  /// under `root`.
  bool branch_valid(std::size_t index, BytesView root,
                    std::uint64_t value_size, BytesView fragment,
                    BytesView branch);
  /// Memoised consistency check: re-encoding `value`, decoded from
  /// `flow`, reproduces the flow's root.
  bool reencodes_to(sim::Context& ctx, const Flow& flow, BytesView value);

  void handle_initial(sim::Context& ctx, const sim::Message& msg);
  void handle_echo(sim::Context& ctx, const sim::Message& msg);
  void handle_ready(sim::Context& ctx, const sim::Message& msg);
  void maybe_send_ready(sim::Context& ctx, Flow& flow);
  void maybe_deliver(sim::Context& ctx, Flow& flow);

  /// Branch words: λ per digest on the sibling path of an n-leaf tree.
  std::size_t branch_words(std::size_t branch_len) const {
    return kDigestWords * branch_len;
  }

  Config cfg_;
  DeliverFn on_deliver_;
  std::unique_ptr<crypto::VerdictMemo> own_memo_;  // when cfg_.memo is null
  crypto::VerdictMemo* memo_;
  crypto::ReedSolomon rs_;  // k = f+1
  sim::Tag tag_initial_;
  sim::Tag tag_echo_;
  sim::Tag tag_ready_;

  sim::FlatMap64<std::vector<Flow>> flows_;
  std::vector<std::vector<Held>> held_;  // per source
  SenderSet echoed_sources_;  // echo once per source
  std::vector<bool> delivered_;
  std::size_t delivered_count_ = 0;
};

}  // namespace coincidence::ba
