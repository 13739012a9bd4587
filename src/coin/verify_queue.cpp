#include "coin/verify_queue.h"

#include <cstring>
#include <unordered_map>

#include "common/errors.h"

namespace coincidence::coin {

BatchVerifier::BatchVerifier(Config cfg) : cfg_(std::move(cfg)) {
  COIN_REQUIRE(cfg_.vrf != nullptr, "BatchVerifier: vrf is required");
}

BatchVerifier::FlushStats BatchVerifier::verify_shares(
    std::span<const crypto::VrfBatchEntry> entries, std::vector<char>& out) {
  out.assign(entries.size(), 0);
  FlushStats stats;
  if (entries.empty()) return stats;

  // Memo pass (serial): duplicate and replayed tuples — common under
  // lossy links, and guaranteed across the n receivers of one broadcast
  // — resolve without touching the crypto.
  std::vector<std::size_t> miss_of;
  miss_of.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (std::optional<bool> hit = memo_.lookup(entries[i])) {
      out[i] = *hit ? 1 : 0;
      ++stats.memo_hits;
    } else {
      miss_of.push_back(i);
    }
  }

  if (!miss_of.empty()) {
    std::vector<crypto::VrfBatchEntry> misses;
    misses.reserve(miss_of.size());
    for (std::size_t i : miss_of) misses.push_back(entries[i]);

    std::vector<char> verdicts;
    cfg_.vrf->batch_verify(misses, verdicts);

    // Fill memo + results serially, in order.
    for (std::size_t j = 0; j < misses.size(); ++j) {
      out[miss_of[j]] = verdicts[j];
      memo_.store(misses[j], verdicts[j] != 0);
    }
  }

  for (char v : out)
    if (!v) ++stats.rejects;
  return stats;
}

void BatchVerifier::verify_elections(
    std::span<const committee::Sampler::ValCheck> checks,
    std::vector<char>& out) {
  COIN_REQUIRE(cfg_.sampler != nullptr,
               "BatchVerifier: election checks need a sampler");
  cfg_.sampler->committee_val_batch(checks, out);
}

namespace {

bool same_entry(const crypto::SigBatchEntry& a,
                const crypto::SigBatchEntry& b) {
  return a.signer == b.signer && a.message.size() == b.message.size() &&
         a.sig.size() == b.sig.size() &&
         std::memcmp(a.message.data(), b.message.data(),
                     a.message.size()) == 0 &&
         std::memcmp(a.sig.data(), b.sig.data(), a.sig.size()) == 0;
}

}  // namespace

BatchVerifier::FlushStats BatchVerifier::verify_signatures(
    std::span<const crypto::SigBatchEntry> entries, std::vector<char>& out) {
  COIN_REQUIRE(cfg_.signer != nullptr,
               "BatchVerifier: signature checks need a signer");
  out.assign(entries.size(), 0);
  FlushStats stats;
  if (entries.empty()) return stats;
  ++sig_batches_;
  sig_checks_ += entries.size();

  // Memo pass (cross-flush dedup), then an intra-flush dedup of the
  // misses: the W echo-proof entries repeat verbatim across every ok
  // message of one flush, and memo lookups all precede stores, so
  // without this collapse each repeat would reach the HMAC.
  std::vector<std::size_t> miss_of;          // entry index of each miss
  std::vector<std::size_t> unique_of_miss;   // miss -> unique index
  std::vector<crypto::SigBatchEntry> unique;
  std::unordered_multimap<std::uint64_t, std::size_t> unique_by_fp;
  miss_of.reserve(entries.size());
  unique_of_miss.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (std::optional<bool> hit = sig_memo_.lookup(entries[i])) {
      out[i] = *hit ? 1 : 0;
      ++stats.memo_hits;
      continue;
    }
    const std::uint64_t fp = crypto::SigMemo::fingerprint(entries[i]);
    std::size_t u = unique.size();
    auto [lo, hi] = unique_by_fp.equal_range(fp);
    for (auto it = lo; it != hi; ++it)
      if (same_entry(unique[it->second], entries[i])) {
        u = it->second;
        break;
      }
    if (u == unique.size()) {
      unique.push_back(entries[i]);
      unique_by_fp.emplace(fp, u);
    }
    miss_of.push_back(i);
    unique_of_miss.push_back(u);
  }

  if (!unique.empty()) {
    std::vector<char> verdicts;
    cfg_.signer->batch_verify(unique, verdicts);
    for (std::size_t j = 0; j < miss_of.size(); ++j)
      out[miss_of[j]] = verdicts[unique_of_miss[j]];
    for (std::size_t u = 0; u < unique.size(); ++u)
      sig_memo_.store(unique[u], verdicts[u] != 0);
  }

  for (char v : out)
    if (!v) ++stats.rejects;
  sig_rejects_ += stats.rejects;
  return stats;
}

bool BatchVerifier::check_signature(const crypto::SigBatchEntry& entry,
                                    bool* memo_hit) {
  COIN_REQUIRE(cfg_.signer != nullptr,
               "BatchVerifier: signature checks need a signer");
  ++sig_checks_;
  if (std::optional<bool> hit = sig_memo_.lookup(entry)) {
    if (memo_hit) *memo_hit = true;
    if (!*hit) ++sig_rejects_;
    return *hit;
  }
  if (memo_hit) *memo_hit = false;
  const bool ok = cfg_.signer->verify(entry.signer, entry.message, entry.sig);
  sig_memo_.store(entry, ok);
  if (!ok) ++sig_rejects_;
  return ok;
}

}  // namespace coincidence::coin
