#include "committee/sampler.h"

#include <algorithm>
#include <optional>

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::committee {

Sampler::Sampler(std::shared_ptr<const crypto::Vrf> vrf,
                 std::shared_ptr<const crypto::KeyRegistry> registry,
                 double lambda_over_n)
    : vrf_(std::move(vrf)),
      registry_(std::move(registry)),
      lambda_over_n_(lambda_over_n) {
  COIN_REQUIRE(vrf_ != nullptr && registry_ != nullptr,
               "Sampler needs vrf and registry");
  COIN_REQUIRE(lambda_over_n_ > 0.0 && lambda_over_n_ <= 1.0,
               "Sampler: lambda/n must be in (0, 1]");
}

void Sampler::vrf_input(std::string_view seed, Bytes& out) {
  Writer w(std::move(out));
  w.str("cmte").str(seed);
  out = w.take();
}

Sampler::Election Sampler::sample(ProcessId i, const std::string& seed) const {
  // Per-thread buffers: an evaluation allocates only the returned proof.
  thread_local Bytes input;
  thread_local crypto::VrfOutput out;
  vrf_input(seed, input);
  vrf_->eval_into(registry_->sk_of(i), input, out);
  bool sampled = crypto::vrf_value_as_unit_double(out.value) < lambda_over_n_;
  Writer w;
  w.reserve(Writer::blob_size(out.value.size()) +
            Writer::blob_size(out.proof.size()));
  w.blob(out.value).blob(out.proof);
  return {sampled, w.take()};
}

namespace {

/// The (VRF value, VRF proof) views of a serialized election proof, or
/// nothing when it is malformed or its value is too short to threshold.
std::optional<std::pair<BytesView, BytesView>> split_proof(BytesView proof) {
  try {
    Reader r(proof);
    const BytesView value = r.blob_view();
    const BytesView vrf_proof = r.blob_view();
    r.done();
    if (value.size() < 8) return std::nullopt;
    return std::make_pair(value, vrf_proof);
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

/// Calls use(fingerprint, fields) with the val-memo key of one
/// committee-val check, (id, seed, proof). VRF proofs are pseudorandom,
/// so the FNV fingerprint of the fields spreads well.
template <typename Use>
auto with_val_key(ProcessId id, const std::string& seed, BytesView proof,
                  Use use) {
  const crypto::VerdictMemo::IntField id_field(id);
  const crypto::VerdictMemo::Fields key = {
      id_field, view_of(seed), proof};
  return use(crypto::VerdictMemo::fingerprint(key), key);
}

}  // namespace

bool Sampler::committee_val(const std::string& seed, ProcessId i,
                            BytesView proof) const {
  if (!registry_->has(i)) return false;
  const auto parts = split_proof(proof);
  if (!parts) return false;
  const auto [value, vrf_proof] = *parts;
  thread_local Bytes input;
  vrf_input(seed, input);
  return vrf_->verify(registry_->pk_of(i), input, value, vrf_proof) &&
         crypto::vrf_value_as_unit_double(value) < lambda_over_n_;
}

void Sampler::committee_val_batch(std::span<const ValCheck> checks,
                                  std::vector<char>& out) const {
  out.assign(checks.size(), 0);
  // Per-thread buffers, kept across calls. A batch names two or three
  // seeds (an <ok> flush: the ok seed and one echo seed per value), so
  // each distinct seed pointer's VRF input is built once. Entries view
  // those inputs' heap buffers, which stay put when `inputs` grows.
  thread_local std::vector<std::pair<const std::string*, Bytes>> inputs;
  thread_local std::vector<crypto::VrfBatchEntry> entries;
  // entries[j] is checks[entry_of[j]]
  thread_local std::vector<std::size_t> entry_of;
  thread_local std::vector<char> verdicts;
  std::size_t seeds = 0;
  auto input_of = [&](const std::string* seed) -> BytesView {
    for (std::size_t k = 0; k < seeds; ++k)
      if (inputs[k].first == seed) return inputs[k].second;
    if (seeds == inputs.size()) inputs.emplace_back();
    inputs[seeds].first = seed;
    vrf_input(*seed, inputs[seeds].second);
    return inputs[seeds++].second;
  };
  entries.clear();
  entry_of.clear();
  // Structural pass, mirroring committee_val: checks that fail registry
  // lookup / decoding are rejected without entering the VRF batch.
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const ValCheck& c = checks[i];
    if (!registry_->has(c.id)) continue;
    const auto parts = split_proof(c.proof);
    if (!parts) continue;
    entries.push_back(crypto::VrfBatchEntry{registry_->pk_of(c.id),
                                            input_of(c.seed), parts->first,
                                            parts->second});
    entry_of.push_back(i);
  }
  vrf_->batch_verify(entries, verdicts);
  for (std::size_t j = 0; j < entries.size(); ++j)
    out[entry_of[j]] =
        verdicts[j] &&
        crypto::vrf_value_as_unit_double(entries[j].value) < lambda_over_n_;
}

CachingSampler::CachingSampler(
    std::shared_ptr<const crypto::Vrf> vrf,
    std::shared_ptr<const crypto::KeyRegistry> registry, double lambda_over_n)
    : Sampler(std::move(vrf), std::move(registry), lambda_over_n) {}

namespace {

std::uint64_t election_fp(ProcessId i, std::string_view seed) {
  return crypto::VerdictMemo::fingerprint(
      {crypto::VerdictMemo::IntField(i), view_of(seed)});
}

}  // namespace

std::size_t CachingSampler::find_election(std::uint64_t fp, ProcessId i,
                                          std::string_view seed) const {
  const std::size_t mask = election_slots_.size() - 1;
  for (std::size_t s = fp & mask;; s = (s + 1) & mask) {
    if (election_slots_[s] == 0) return s;
    const CachedElection& e = elections_[election_slots_[s] - 1];
    if (e.fp == fp && e.id == i && e.seed_len == seed.size() &&
        std::equal(seed.begin(), seed.end(),
                   election_bytes_.begin() +
                       static_cast<std::ptrdiff_t>(e.at)))
      return s;
  }
}

void CachingSampler::store_election(std::uint64_t fp, ProcessId i,
                                    std::string_view seed,
                                    const Election& e) const {
  if (2 * (elections_.size() + 1) > election_slots_.size()) {
    // Double the slots and re-place every entry (no two share a key).
    election_slots_.assign(
        std::max<std::size_t>(16, 2 * election_slots_.size()), 0);
    const std::size_t mask = election_slots_.size() - 1;
    for (std::size_t k = 0; k < elections_.size(); ++k) {
      std::size_t s = elections_[k].fp & mask;
      while (election_slots_[s] != 0) s = (s + 1) & mask;
      election_slots_[s] = k + 1;
    }
  }
  const std::size_t slot = find_election(fp, i, seed);
  if (election_slots_[slot] != 0) return;  // an earlier write won
  elections_.push_back(CachedElection{fp, i, e.sampled, election_bytes_.size(),
                                      seed.size(), e.proof.size()});
  election_bytes_.insert(election_bytes_.end(), seed.begin(), seed.end());
  election_bytes_.insert(election_bytes_.end(), e.proof.begin(),
                         e.proof.end());
  election_slots_[slot] = elections_.size();
}

Sampler::Election CachingSampler::sample(ProcessId i,
                                         const std::string& seed) const {
  const std::uint64_t fp = election_fp(i, seed);
  if (!election_slots_.empty()) {
    if (const std::size_t k = election_slots_[find_election(fp, i, seed)]) {
      const CachedElection& c = elections_[k - 1];
      const auto proof = election_bytes_.begin() +
                         static_cast<std::ptrdiff_t>(c.at + c.seed_len);
      return {c.sampled,
              Bytes(proof, proof + static_cast<std::ptrdiff_t>(c.proof_len))};
    }
  }
  Election e = Sampler::sample(i, seed);
  defer_write([&] { store_election(fp, i, seed, e); },
              [&] {
                return [this, fp, i, seed = seed, e] {
                  store_election(fp, i, seed, e);
                };
              });
  return e;
}

bool CachingSampler::committee_val(const std::string& seed, ProcessId i,
                                   BytesView proof) const {
  return with_val_key(i, seed, proof, [&](std::uint64_t fp, auto key) {
    return val_memo_.verdict(
        fp, key, [&] { return Sampler::committee_val(seed, i, proof); });
  });
}

void CachingSampler::committee_val_batch(std::span<const ValCheck> checks,
                                         std::vector<char>& out) const {
  out.assign(checks.size(), 0);
  thread_local std::vector<ValCheck> misses;
  // misses[j] is checks[miss_of[j]]
  thread_local std::vector<std::size_t> miss_of;
  thread_local std::vector<char> verdicts;
  misses.clear();
  miss_of.clear();
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const std::optional<bool> hit = with_val_key(
        checks[i].id, *checks[i].seed, checks[i].proof,
        [&](std::uint64_t fp, auto key) { return val_memo_.lookup(fp, key); });
    if (hit) {
      out[i] = *hit ? 1 : 0;
    } else {
      misses.push_back(checks[i]);
      miss_of.push_back(i);
    }
  }
  if (misses.empty()) return;
  Sampler::committee_val_batch(misses, verdicts);
  for (std::size_t j = 0; j < misses.size(); ++j) {
    const ValCheck& c = misses[j];
    out[miss_of[j]] = verdicts[j];
    with_val_key(c.id, *c.seed, c.proof, [&](std::uint64_t fp, auto key) {
      val_memo_.store(fp, key, verdicts[j] != 0);
    });
  }
}

}  // namespace coincidence::committee
