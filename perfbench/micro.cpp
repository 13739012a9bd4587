#include "micro.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "committee/params.h"
#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/reed_solomon.h"
#include "crypto/sha256.h"
#include "session/replicated_log.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

/// Median seconds per call of `op`, timed in rounds of `per_round` calls
/// until `budget_s` is spent (at least three rounds).
template <typename Op>
double seconds_per_call(double budget_s, std::size_t per_round, Op&& op) {
  std::vector<double> rounds;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(budget_s);
  while (rounds.size() < 3 || Clock::now() < deadline) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_round; ++i) op();
    rounds.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                     static_cast<double>(per_round));
  }
  std::nth_element(rounds.begin(), rounds.begin() + rounds.size() / 2,
                   rounds.end());
  return rounds[rounds.size() / 2];
}

Bytes random_bytes(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

}  // namespace

MicroCosts measure_micro(const core::Env& env, double budget_s) {
  const double share = budget_s / 7.0;
  MicroCosts m;

  // SHA-256: a 16 KiB message is 256 data blocks plus one padding block.
  const Bytes blob = random_bytes(16384, 1);
  m.sha256_ns_per_block =
      seconds_per_call(share, 16, [&] {
        g_sink = g_sink + crypto::sha256(blob)[0];
      }) * 1e9 / 257.0;

  // HMAC signature check on a one-word message (the approver's ok proofs).
  const Bytes msg = random_bytes(32, 2);
  const Bytes sig = env.signer->sign(0, msg);
  m.sig_verify_ns = seconds_per_call(share, 256, [&] {
                      g_sink = g_sink + env.signer->verify(0, msg, sig);
                    }) * 1e9;

  // VRF: one verify, and a 64-entry batch verify (committee seeds).
  const std::size_t k = 64;
  std::vector<Bytes> inputs, pks;
  std::vector<crypto::VrfOutput> outs;
  for (std::size_t i = 0; i < k; ++i) {
    const auto id = static_cast<crypto::ProcessId>(i % env.n());
    inputs.push_back(bytes_of("perfbench/vrf/" + std::to_string(i)));
    pks.push_back(env.registry->pk_of(id));
    outs.push_back(env.vrf->eval(env.registry->sk_of(id), inputs.back()));
  }
  m.vrf_verify_us = seconds_per_call(share, 4, [&] {
                      g_sink = g_sink + env.vrf->verify(pks[0], inputs[0],
                                                        outs[0]);
                    }) * 1e6;
  std::vector<crypto::VrfBatchEntry> entries;
  for (std::size_t i = 0; i < k; ++i)
    entries.push_back({pks[i], inputs[i], outs[i].value, outs[i].proof});
  std::vector<char> verdicts;
  m.vrf_batch_verify_us_per_entry =
      seconds_per_call(share, 1, [&] {
        env.vrf->batch_verify(entries, verdicts);
        g_sink = g_sink + static_cast<std::uint64_t>(verdicts[0]);
      }) * 1e6 / static_cast<double>(k);

  // Codec at the log's dissemination shape: n = 48, k = f + 1, one real
  // 64-request proposal.
  const std::size_t n = 48;
  const std::size_t data = committee::Params::derive(n, 0.25, 0.02,
                                                     /*strict=*/false).f + 1;
  session::LogConfig lcfg;
  lcfg.batch_size = 64;
  const Bytes value = session::LogProcess(lcfg).batch_for(0, 0);
  const crypto::ReedSolomon rs(n, data);
  const std::vector<Bytes> fragments = rs.encode(value);
  std::vector<std::pair<std::size_t, Bytes>> parity;
  for (std::size_t i = n - data; i < n; ++i)
    parity.emplace_back(i, fragments[i]);  // worst case: no systematic rows
  m.rs_encode_us = seconds_per_call(share, 16, [&] {
                     g_sink = g_sink + rs.encode(value)[n - 1].size();
                   }) * 1e6;
  m.rs_decode_us = seconds_per_call(share, 16, [&] {
                     g_sink = g_sink + rs.decode(parity, value.size()).size();
                   }) * 1e6;
  m.merkle_build_us =
      seconds_per_call(share, 16, [&] {
        g_sink = g_sink + crypto::MerkleTree(fragments).root()[0];
      }) * 1e6;
  const crypto::MerkleTree tree(fragments);
  const std::vector<crypto::Digest> branch = tree.branch(n / 2);
  m.merkle_verify_us =
      seconds_per_call(share, 64, [&] {
        g_sink = g_sink + crypto::MerkleTree::verify(tree.root(), n, n / 2,
                                                     fragments[n / 2], branch);
      }) * 1e6;
  return m;
}

}  // namespace perfbench
