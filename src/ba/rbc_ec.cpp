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

/// The leading 64 bits of a sha256 digest: already uniform.
std::uint64_t digest_bits(BytesView digest) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < 8; ++i) bits = (bits << 8) | digest[i];
  return bits;
}

constexpr std::uint64_t kIndexMix = 0x9e3779b97f4a7c15ULL;

/// Memo fingerprint of a check under `root` for process `index` (echoer
/// or source) and a `size`-byte value. The fragment and value bytes are
/// left out: fragments of one value share prefixes and would collide.
std::uint64_t memo_fp(BytesView root, std::uint64_t index,
                      std::uint64_t size) {
  return digest_bits(root) ^ (index * kIndexMix) ^
         (size * 0xc2b2ae3d27d4eb4fULL);
}

}  // namespace

EcBroadcast::EcBroadcast(Config cfg, DeliverFn on_deliver)
    : cfg_(std::move(cfg)),
      on_deliver_(std::move(on_deliver)),
      own_memo_(cfg_.memo ? nullptr : std::make_unique<crypto::VerdictMemo>()),
      memo_(cfg_.memo ? cfg_.memo : own_memo_.get()),
      rs_(cfg_.n, cfg_.f + 1),
      tag_initial_(cfg_.tag + "/initial"),
      tag_echo_(cfg_.tag + "/echo"),
      tag_ready_(cfg_.tag + "/ready"),
      held_(cfg_.n),
      echoed_sources_(cfg_.n),
      delivered_(cfg_.n, false) {
  COIN_REQUIRE(cfg_.n > 3 * cfg_.f, "EcBroadcast: requires n > 3f");
}

crypto::Digest EcBroadcast::composite_key(BytesView root,
                                          std::uint64_t value_size) {
  crypto::Sha256 h;
  h.update(root);
  const Bytes size_bytes = bytes_of_u64(value_size);
  h.update(size_bytes);
  return h.finish();
}

std::uint64_t EcBroadcast::flow_fold(sim::ProcessId source,
                                     const crypto::Digest& key) {
  return digest_bits(key) ^
         (static_cast<std::uint64_t>(source) * kIndexMix);
}

EcBroadcast::Flow& EcBroadcast::flow_of(sim::ProcessId source,
                                        const crypto::Digest& key) {
  std::vector<Flow>& bucket = flows_[flow_fold(source, key)];
  for (Flow& flow : bucket)
    if (flow.source == source && flow.key == key) return flow;
  Flow& flow = bucket.emplace_back();
  flow.source = source;
  flow.key = key;
  flow.echoes = SenderSet(cfg_.n);
  flow.readies = SenderSet(cfg_.n);
  return flow;
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
      {Int(cfg_.n), Int(index), root, Int(value_size), fragment, branch}, [&] {
        const auto implied =
            crypto::merkle_implied_root(cfg_.n, index, fragment, branch);
        return implied &&
               std::equal(root.begin(), root.end(), implied->begin());
      });
}

bool EcBroadcast::reencodes_to(sim::Context& ctx, const Flow& flow,
                               BytesView value) {
  using Int = crypto::VerdictMemo::IntField;
  return memo_->verdict(
      memo_fp(flow.root, flow.source, value.size()),
      {Int(cfg_.n), Int(rs_.k()), Int(flow.source), flow.root, value}, [&] {
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
  for (sim::ProcessId i = 0; i < cfg_.n; ++i) {
    const std::vector<crypto::Digest> branch = tree.branch(i);
    Writer w;
    w.u64(size).blob(fragments[i]).blob(concat_branch(branch));
    ctx.send(i, tag_initial_, w.take(),
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
    handle_ready(ctx, msg);
    return true;
  }
  return false;
}

void EcBroadcast::handle_initial(sim::Context& ctx, const sim::Message& msg) {
  // Echo once per source: the first branch-valid initial wins; an
  // equivocating source splits its echo power across roots and gathers a
  // quorum for at most one.
  if (echoed_sources_.contains(msg.from)) return;

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
  const auto root =
      crypto::merkle_implied_root(cfg_.n, ctx.self(), fragment, branch);
  if (!root) return;

  // The echo below is exactly the branch-valid (self, root, |v|,
  // fragment, branch): record its verdict so no receiver recomputes it.
  using Int = crypto::VerdictMemo::IntField;
  const BytesView root_view(*root);
  memo_->store(memo_fp(root_view, ctx.self(), size),
               {Int(cfg_.n), Int(ctx.self()), root_view, Int(size), fragment,
                branch},
               true);

  echoed_sources_.insert(msg.from);
  Writer w;
  w.u32(msg.from).u64(size);
  w.blob(root_view);
  w.blob(fragment).blob(branch);
  ctx.broadcast(tag_echo_, w.take(),
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
  if (source >= cfg_.n || root.size() != kDigestSize) return;
  if (fragment.size() != rs_.fragment_size(size)) return;
  // The echoer vouches for its *own* leaf: the branch must place the
  // fragment at the sender's index under the claimed root.
  if (!branch_valid(msg.from, root, size, fragment, branch)) return;

  Flow& flow = flow_of(source, held_key(source, root, size));
  if (!flow.echoes.insert(msg.from)) return;
  if (!flow.have_root) {
    flow.have_root = true;
    std::copy(root.begin(), root.end(), flow.root.begin());
    flow.value_size = size;
  }
  // Same-index duplicates are byte-identical (same root, same leaf slot,
  // collision-resistant hash), so first-wins is safe. Once the source is
  // delivered or the flow poisoned, no decode reads fragments again.
  if (!delivered_[source] && !flow.poisoned) {
    if (flow.fragments.empty()) flow.fragments.resize(cfg_.n);
    flow.fragments[msg.from] = Fragment{msg.payload, fragment};
    ++flow.fragment_count;
  }
  if (2 * flow.echoes.size() > cfg_.n + cfg_.f) maybe_send_ready(ctx, flow);
  maybe_deliver(ctx, flow);  // a ready quorum may be waiting on fragments
}

void EcBroadcast::handle_ready(sim::Context& ctx, const sim::Message& msg) {
  sim::ProcessId source = 0;
  crypto::Digest key{};
  try {
    Reader r(msg.payload);
    source = r.u32();
    const BytesView key_bytes = r.blob_view();
    if (key_bytes.size() != kDigestSize) return;
    std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
    r.done();
  } catch (const CodecError&) {
    return;
  }
  if (source >= cfg_.n) return;

  Flow& flow = flow_of(source, key);
  if (!flow.readies.insert(msg.from)) return;
  if (flow.readies.size() >= cfg_.f + 1) maybe_send_ready(ctx, flow);
  maybe_deliver(ctx, flow);
}

void EcBroadcast::maybe_send_ready(sim::Context& ctx, Flow& flow) {
  if (flow.ready_sent) return;
  flow.ready_sent = true;
  Writer w;
  w.u32(flow.source);
  w.blob(BytesView(flow.key.data(), flow.key.size()));
  ctx.broadcast(tag_ready_, w.take(), 1 + kDigestWords);
}

void EcBroadcast::maybe_deliver(sim::Context& ctx, Flow& flow) {
  if (delivered_[flow.source] || flow.poisoned) return;
  if (flow.readies.size() < 2 * cfg_.f + 1) return;
  const std::size_t k = cfg_.f + 1;
  if (!flow.have_root || flow.fragment_count < k) return;

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

  delivered_[flow.source] = true;
  ++delivered_count_;
  ctx.note_decide(cfg_.tag, static_cast<int>(flow.source), 0);
  if (on_deliver_) on_deliver_(flow.source, value);
}

}  // namespace coincidence::ba
