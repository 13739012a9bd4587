#include "ba/rbc_ec.h"

#include <algorithm>
#include <utility>

#include "common/errors.h"
#include "common/ser.h"

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

std::optional<std::vector<crypto::Digest>> split_branch(BytesView raw) {
  if (raw.size() % kDigestSize != 0) return std::nullopt;
  std::vector<crypto::Digest> branch(raw.size() / kDigestSize);
  for (std::size_t i = 0; i < branch.size(); ++i)
    std::copy_n(raw.begin() + static_cast<std::ptrdiff_t>(i * kDigestSize),
                kDigestSize, branch[i].begin());
  return branch;
}

std::size_t fragment_word_count(std::size_t fragment_bytes) {
  return (fragment_bytes + 7) / 8;
}

}  // namespace

EcBroadcast::EcBroadcast(Config cfg, DeliverFn on_deliver)
    : cfg_(std::move(cfg)),
      on_deliver_(std::move(on_deliver)),
      rs_(cfg_.n, cfg_.f + 1),
      tag_initial_(cfg_.tag + "/initial"),
      tag_echo_(cfg_.tag + "/echo"),
      tag_ready_(cfg_.tag + "/ready"),
      delivered_(cfg_.n, false) {
  COIN_REQUIRE(cfg_.n > 3 * cfg_.f, "EcBroadcast: requires n > 3f");
}

crypto::Digest EcBroadcast::composite_key(const crypto::Digest& root,
                                          std::uint64_t value_size) {
  crypto::Sha256 h;
  h.update(BytesView(root.data(), root.size()));
  const Bytes size_bytes = bytes_of_u64(value_size);
  h.update(size_bytes);
  return h.finish();
}

std::uint64_t EcBroadcast::flow_fold(sim::ProcessId source,
                                     const crypto::Digest& key) {
  std::uint64_t fold = 0;
  for (std::size_t i = 0; i < 8; ++i) fold = (fold << 8) | key[i];
  return fold ^ (static_cast<std::uint64_t>(source) * 0x9e3779b97f4a7c15ull);
}

EcBroadcast::Flow& EcBroadcast::flow_of(sim::ProcessId source,
                                        const crypto::Digest& key) {
  std::vector<Flow>& bucket = flows_[flow_fold(source, key)];
  for (Flow& flow : bucket)
    if (flow.source == source && flow.key == key) return flow;
  Flow& flow = bucket.emplace_back();
  flow.source = source;
  flow.key = key;
  return flow;
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
  if (echoed_sources_.count(msg.from)) return;

  std::uint64_t size = 0;
  Bytes fragment;
  std::vector<crypto::Digest> branch;
  try {
    Reader r(msg.payload);
    size = r.u64();
    fragment = r.blob();
    const auto parsed = split_branch(r.blob_view());
    r.done();
    if (!parsed) return;
    branch = *parsed;
  } catch (const CodecError&) {
    return;
  }
  if (fragment.size() != rs_.fragment_size(size)) return;
  const auto root = crypto::merkle_implied_root(cfg_.n, ctx.self(),
                                                fragment, branch);
  if (!root) return;

  echoed_sources_.insert(msg.from);
  Writer w;
  w.u32(msg.from).u64(size);
  w.blob(BytesView(root->data(), root->size()));
  w.blob(fragment).blob(concat_branch(branch));
  ctx.broadcast(tag_echo_, w.take(),
                1 + kDigestWords + fragment_word_count(fragment.size()) +
                    branch_words(branch.size()));
}

void EcBroadcast::handle_echo(sim::Context& ctx, const sim::Message& msg) {
  sim::ProcessId source = 0;
  std::uint64_t size = 0;
  crypto::Digest claimed_root{};
  Bytes fragment;
  std::vector<crypto::Digest> branch;
  try {
    Reader r(msg.payload);
    source = r.u32();
    size = r.u64();
    const Bytes root_bytes = r.blob();
    if (root_bytes.size() != kDigestSize) return;
    std::copy(root_bytes.begin(), root_bytes.end(), claimed_root.begin());
    fragment = r.blob();
    const auto parsed = split_branch(r.blob_view());
    r.done();
    if (!parsed) return;
    branch = *parsed;
  } catch (const CodecError&) {
    return;
  }
  if (source >= cfg_.n) return;
  if (fragment.size() != rs_.fragment_size(size)) return;
  // The echoer vouches for its *own* leaf: the branch must place the
  // fragment at the sender's index under the claimed root.
  const auto implied =
      crypto::merkle_implied_root(cfg_.n, msg.from, fragment, branch);
  if (!implied || *implied != claimed_root) return;

  Flow& flow = flow_of(source, composite_key(claimed_root, size));
  if (!flow.echoes.insert(msg.from).second) return;
  if (!flow.have_root) {
    flow.have_root = true;
    flow.root = claimed_root;
    flow.value_size = size;
  }
  // Same-index duplicates are byte-identical (same root, same leaf slot,
  // collision-resistant hash), so first-wins is safe.
  flow.fragments.emplace(msg.from, std::move(fragment));
  if (2 * flow.echoes.size() > cfg_.n + cfg_.f) maybe_send_ready(ctx, flow);
  maybe_deliver(ctx, flow);  // a ready quorum may be waiting on fragments
}

void EcBroadcast::handle_ready(sim::Context& ctx, const sim::Message& msg) {
  sim::ProcessId source = 0;
  crypto::Digest key{};
  try {
    Reader r(msg.payload);
    source = r.u32();
    const Bytes key_bytes = r.blob();
    if (key_bytes.size() != kDigestSize) return;
    std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
    r.done();
  } catch (const CodecError&) {
    return;
  }
  if (source >= cfg_.n) return;

  Flow& flow = flow_of(source, key);
  if (!flow.readies.insert(msg.from).second) return;
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
  if (!flow.have_root || flow.fragments.size() < k) return;

  // Decode from the k lowest-indexed fragments. The re-encode check
  // below makes the outcome independent of this choice: if it passes,
  // collision resistance pins every branch-valid fragment to the decoded
  // value's codeword; if it fails, no k-subset can pass (a passing
  // subset would pin *all* fragments — including ours — to its value).
  std::vector<std::pair<std::size_t, Bytes>> subset;
  subset.reserve(k);
  for (const auto& [index, frag] : flow.fragments) {
    subset.emplace_back(index, frag);
    if (subset.size() == k) break;
  }
  Bytes value;
  bool consistent = true;
  try {
    value = rs_.decode(subset, flow.value_size);
  } catch (const CodecError&) {
    consistent = false;
  }
  if (consistent) {
    const std::vector<Bytes> reencoded = rs_.encode(value);
    ctx.count(sim::Counter::kRbcEncodes, 1);
    ctx.count(sim::Counter::kRbcFragmentsEncoded, reencoded.size());
    consistent = crypto::MerkleTree(reencoded).root() == flow.root;
  }
  ctx.count(sim::Counter::kRbcDecodes, 1);
  ctx.count(sim::Counter::kRbcFragmentsDecoded, k);
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
