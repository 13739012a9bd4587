#include "ba/rbc_ec.h"

#include <algorithm>
#include <utility>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/merkle.h"

namespace coincidence::ba {

namespace {

constexpr std::size_t kDigestSize = crypto::kSha256DigestSize;

Bytes concat_branch(const std::vector<crypto::Digest>& branch) {
  Bytes out;
  out.reserve(branch.size() * kDigestSize);
  for (const crypto::Digest& d : branch)
    out.insert(out.end(), d.begin(), d.end());
  return out;
}

std::size_t fragment_word_count(std::size_t fragment_bytes) {
  return (fragment_bytes + 7) / 8;
}

/// Memo fingerprint of a check under `root` for process `index` (echoer
/// or source) and a `size`-byte value. The fragment and value bytes are
/// left out: fragments of one value share prefixes and would collide.
std::uint64_t memo_fp(BytesView root, std::uint64_t index,
                      std::uint64_t size) {
  std::uint64_t bits = 0;  // the root's leading 64 bits: already uniform
  for (std::size_t i = 0; i < 8; ++i) bits = (bits << 8) | root[i];
  return bits ^ (index * 0x9e3779b97f4a7c15ULL) ^
         (size * 0xc2b2ae3d27d4eb4fULL);
}

}  // namespace

EcBroadcast::EcBroadcast(Config cfg, DeliverFn on_deliver)
    : QuorumBroadcast(std::move(cfg), std::move(on_deliver)),
      own_memo_(cfg_.memo ? nullptr : std::make_unique<crypto::VerdictMemo>()),
      memo_(cfg_.memo ? cfg_.memo : own_memo_.get()),
      rs_(echo_set_.size(), cfg_.f + 1),
      held_(cfg_.n) {}

crypto::Digest EcBroadcast::composite_key(BytesView root,
                                          std::uint64_t value_size) {
  crypto::Sha256 h;
  h.update(root);
  const Bytes size_bytes = bytes_of_u64(value_size);
  h.update(size_bytes);
  return h.finish();
}

crypto::Digest EcBroadcast::held_key(sim::ProcessId source, BytesView root,
                                     std::uint64_t value_size) {
  std::vector<Held>& held = held_[source];
  for (const Held& h : held)
    if (h.value_size == value_size &&
        std::equal(root.begin(), root.end(), h.root.begin()))
      return h.key;
  Held& h = held.emplace_back();
  std::copy(root.begin(), root.end(), h.root.begin());
  h.value_size = value_size;
  h.key = composite_key(root, value_size);
  return h.key;
}

bool EcBroadcast::branch_valid(std::size_t index, BytesView root,
                               std::uint64_t value_size, BytesView fragment,
                               BytesView branch) {
  using Int = crypto::VerdictMemo::IntField;
  return memo_->verdict(
      memo_fp(root, index, value_size),
      {Int(rs_.n()), Int(index), root, Int(value_size), fragment, branch},
      [&] {
        const auto implied =
            crypto::merkle_implied_root(rs_.n(), index, fragment, branch);
        return implied &&
               std::equal(root.begin(), root.end(), implied->begin());
      });
}

bool EcBroadcast::reencodes_to(sim::Context& ctx, const Flow& flow,
                               BytesView value) {
  using Int = crypto::VerdictMemo::IntField;
  return memo_->verdict(
      memo_fp(flow.root, flow.source, value.size()),
      {Int(rs_.n()), Int(rs_.k()), Int(flow.source), flow.root, value}, [&] {
        const std::vector<Bytes> reencoded = rs_.encode(value);
        ctx.count(sim::Counter::kRbcEncodes, 1);
        ctx.count(sim::Counter::kRbcFragmentsEncoded, reencoded.size());
        return crypto::MerkleTree(reencoded).root() == flow.root;
      });
}

void EcBroadcast::broadcast(sim::Context& ctx, Bytes payload) {
  const std::uint64_t size = payload.size();
  const std::vector<Bytes> fragments = rs_.encode(payload);
  ctx.count(sim::Counter::kRbcEncodes, 1);
  ctx.count(sim::Counter::kRbcFragmentsEncoded, fragments.size());
  const crypto::MerkleTree tree(fragments);
  const std::size_t frag_words =
      fragment_word_count(rs_.fragment_size(size));
  for (std::size_t j = 0; j < fragments.size(); ++j) {
    const std::vector<crypto::Digest> branch = tree.branch(j);
    Writer w;
    w.u64(size).blob(fragments[j]).blob(concat_branch(branch));
    ctx.send(echo_set_.member(ctx.self(), j), tag_initial_, w.take(),
             1 + frag_words + branch_words(branch.size()));
  }
}

bool EcBroadcast::handle(sim::Context& ctx, const sim::Message& msg) {
  if (msg.tag == tag_initial_) {
    handle_initial(ctx, msg);
    return true;
  }
  if (msg.tag == tag_echo_) {
    handle_echo(ctx, msg);
    return true;
  }
  if (msg.tag == tag_ready_) {
    if (Flow* flow = count_ready(ctx, msg)) maybe_deliver(ctx, *flow);
    return true;
  }
  return false;
}

void EcBroadcast::handle_initial(sim::Context& ctx, const sim::Message& msg) {
  // Members echo once per source: the first branch-valid initial wins;
  // an equivocating source splits its echo power across roots and
  // gathers a quorum for at most one.
  if (!may_echo(ctx, msg.from)) return;

  std::uint64_t size = 0;
  BytesView fragment;
  BytesView branch;
  try {
    Reader r(msg.payload);
    size = r.u64();
    fragment = r.blob_view();
    branch = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return;
  }
  // fragment_size(size) cannot wrap, so a claimed |v| near 2^64 fails
  // here and is never echoed (nor counted, in handle_echo).
  if (fragment.size() != rs_.fragment_size(size)) return;
  const std::size_t leaf = echo_set_.index(msg.from, ctx.self());
  const auto root =
      crypto::merkle_implied_root(rs_.n(), leaf, fragment, branch);
  if (!root) return;

  // The echo below is exactly the branch-valid (leaf, root, |v|,
  // fragment, branch): record its verdict so no receiver recomputes it.
  using Int = crypto::VerdictMemo::IntField;
  const BytesView root_view(*root);
  memo_->store(
      memo_fp(root_view, leaf, size),
      {Int(rs_.n()), Int(leaf), root_view, Int(size), fragment, branch},
      true);

  Writer w;
  w.u32(msg.from).u64(size);
  w.blob(root_view);
  w.blob(fragment).blob(branch);
  send_echo(ctx, msg.from, w.take(),
            1 + kDigestWords + fragment_word_count(fragment.size()) +
                branch_words(branch.size() / kDigestSize));
}

void EcBroadcast::handle_echo(sim::Context& ctx, const sim::Message& msg) {
  sim::ProcessId source = 0;
  std::uint64_t size = 0;
  BytesView root;  // all three view msg.payload
  BytesView fragment;
  BytesView branch;
  try {
    Reader r(msg.payload);
    source = r.u32();
    size = r.u64();
    root = r.blob_view();
    fragment = r.blob_view();
    branch = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return;
  }
  // Only E(source)'s echoes count, and each member vouches for its *own*
  // leaf: the branch must place the fragment at the sender's index in
  // E(source) under the claimed root.
  if (!echo_set_.contains(source, msg.from) || root.size() != kDigestSize)
    return;
  if (fragment.size() != rs_.fragment_size(size)) return;
  const std::size_t leaf = echo_set_.index(source, msg.from);
  if (!branch_valid(leaf, root, size, fragment, branch)) return;

  Flow& flow = flow_of(source, held_key(source, root, size));
  if (!count_echo(ctx, flow, msg.from)) return;
  if (flow.echoes == 1) {  // the first echo names the flow's root
    std::copy(root.begin(), root.end(), flow.root.begin());
    flow.value_size = size;
  }
  // Same-index duplicates are byte-identical (same root, same leaf slot,
  // collision-resistant hash), so first-wins is safe. Once the source is
  // delivered or the flow poisoned, no decode reads fragments again.
  if (!delivered(source) && !flow.poisoned) {
    if (flow.fragments.empty()) flow.fragments.resize(rs_.n());
    flow.fragments[leaf] = Flow::Fragment{msg.payload, fragment};
    ++flow.fragment_count;
  }
  maybe_deliver(ctx, flow);  // a ready quorum may be waiting on fragments
}

void EcBroadcast::maybe_deliver(sim::Context& ctx, Flow& flow) {
  const std::size_t k = cfg_.f + 1;
  if (!ready_quorum(flow) || flow.poisoned || flow.fragment_count < k)
    return;

  // Decode from the k lowest-indexed fragments. The re-encode check
  // below makes the outcome independent of this choice: if it passes,
  // collision resistance pins every branch-valid fragment to the decoded
  // value's codeword; if it fails, no k-subset can pass (a passing
  // subset would pin *all* fragments — including ours — to its value).
  std::vector<std::pair<std::size_t, BytesView>> subset;
  subset.reserve(k);
  for (std::size_t i = 0; subset.size() < k; ++i)
    if (!flow.fragments[i].payload.empty())
      subset.emplace_back(i, flow.fragments[i].bytes);
  Bytes value;
  bool consistent = true;
  try {
    value = rs_.decode(subset, flow.value_size);
  } catch (const CodecError&) {
    consistent = false;
  }
  if (consistent) consistent = reencodes_to(ctx, flow, value);
  ctx.count(sim::Counter::kRbcDecodes, 1);
  ctx.count(sim::Counter::kRbcFragmentsDecoded, k);
  flow.fragments = {};  // either outcome below ends decoding for the flow
  if (!consistent) {
    // Inconsistently-encoded dispersal: deterministic for every correct
    // process, so nobody ever delivers under this root.
    ctx.count(sim::Counter::kRbcDecodeFailures, 1);
    flow.poisoned = true;
    return;
  }

  deliver(ctx, flow.source, value);
}

}  // namespace coincidence::ba
