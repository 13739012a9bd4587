#include "committee/sampler.h"

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

Bytes Sampler::vrf_input(const std::string& seed) const {
  Writer w;
  w.str("cmte").str(seed);
  return w.take();
}

Sampler::Election Sampler::sample(ProcessId i, const std::string& seed) const {
  crypto::VrfOutput out = vrf_->eval(registry_->sk_of(i), vrf_input(seed));
  bool sampled = crypto::vrf_value_as_unit_double(out.value) < lambda_over_n_;
  Writer w;
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
      id_field,
      BytesView(reinterpret_cast<const std::uint8_t*>(seed.data()),
                seed.size()),
      proof};
  return use(crypto::VerdictMemo::fingerprint(key), key);
}

}  // namespace

bool Sampler::committee_val(const std::string& seed, ProcessId i,
                            BytesView proof) const {
  if (!registry_->has(i)) return false;
  const auto parts = split_proof(proof);
  if (!parts) return false;
  const auto [value, vrf_proof] = *parts;
  return vrf_->verify(registry_->pk_of(i), vrf_input(seed), value,
                      vrf_proof) &&
         crypto::vrf_value_as_unit_double(value) < lambda_over_n_;
}

void Sampler::committee_val_batch(std::span<const ValCheck> checks,
                                  std::vector<char>& out) const {
  out.assign(checks.size(), 0);
  // Structural pass, mirroring committee_val: checks that fail registry
  // lookup / decoding are rejected without entering the VRF batch.
  std::vector<Bytes> inputs(checks.size());  // owns the VRF input bytes
  std::vector<crypto::VrfBatchEntry> entries;
  std::vector<std::size_t> entry_of;  // entries[j] came from checks[entry_of[j]]
  entries.reserve(checks.size());
  entry_of.reserve(checks.size());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const ValCheck& c = checks[i];
    if (!registry_->has(c.id)) continue;
    const auto parts = split_proof(c.proof);
    if (!parts) continue;
    inputs[i] = vrf_input(*c.seed);
    entries.push_back(crypto::VrfBatchEntry{registry_->pk_of(c.id), inputs[i],
                                            parts->first, parts->second});
    entry_of.push_back(i);
  }
  std::vector<char> verdicts;
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

Sampler::Election CachingSampler::sample(ProcessId i,
                                         const std::string& seed) const {
  auto key = std::make_pair(i, seed);
  auto it = sample_cache_.find(key);
  if (it != sample_cache_.end()) return it->second;
  Election e = Sampler::sample(i, seed);
  defer_write([this, key = std::move(key), e] {
    sample_cache_.emplace(key, e);
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
  std::vector<ValCheck> misses;
  std::vector<std::size_t> miss_of;  // misses[j] is checks[miss_of[j]]
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
  std::vector<char> verdicts;
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
