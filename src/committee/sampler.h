// Validated committee sampling (§5.1).
//
// sample_i(s, λ) is a *local* computation: process i evaluates its VRF on
// the committee seed and is elected iff the output, mapped to [0,1), is
// below λ/n. The returned proof is the VRF output+proof; committee-val
// verifies it against i's public key and recomputes the threshold test —
// so (a) election needs no communication, (b) nobody can predict another
// process's membership (VRF pseudorandomness), and (c) membership claims
// are unforgeable (VRF uniqueness).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/key_registry.h"
#include "crypto/verdict_memo.h"
#include "crypto/vrf.h"

namespace coincidence::committee {

using crypto::ProcessId;

class Sampler {
 public:
  /// `lambda_over_n` is the per-process election probability λ/n.
  Sampler(std::shared_ptr<const crypto::Vrf> vrf,
          std::shared_ptr<const crypto::KeyRegistry> registry,
          double lambda_over_n);
  virtual ~Sampler() = default;

  struct Election {
    bool sampled = false;
    Bytes proof;  // serialized VRF output; 1 word on the wire
  };

  /// sample_i(s, λ): process i's private election for committee seed `s`.
  virtual Election sample(ProcessId i, const std::string& seed) const;

  /// committee-val(s, λ, i, σ): public verification. True iff `proof` is
  /// i's valid election proof for `seed` AND it proves membership.
  virtual bool committee_val(const std::string& seed, ProcessId i,
                             BytesView proof) const;

  /// One committee-val check of a batch. `seed` is non-owning and must
  /// outlive the committee_val_batch call.
  struct ValCheck {
    const std::string* seed = nullptr;
    ProcessId id = 0;
    BytesView proof;
  };

  /// Batched committee-val: on return out[i] == committee_val(
  /// *checks[i].seed, checks[i].id, checks[i].proof), out sized to match.
  /// All underlying VRF verifications fold into ONE Vrf::batch_verify
  /// call — a near-k-fold multi-exp amortization on the DDH backend.
  virtual void committee_val_batch(std::span<const ValCheck> checks,
                                   std::vector<char>& out) const;

  double threshold() const { return lambda_over_n_; }

 private:
  Bytes vrf_input(const std::string& seed) const;

  std::shared_ptr<const crypto::Vrf> vrf_;
  std::shared_ptr<const crypto::KeyRegistry> registry_;
  double lambda_over_n_;
};

/// Memoizing decorator. VRF evaluation and proof verification are pure
/// functions, so both directions cache perfectly; the approver's ok-proof
/// validation (§6.1) re-verifies the same W elections for every one of
/// the ~λ ok messages a process receives, which this collapses to one
/// verification each — the standard verify-once optimization a real node
/// would ship. One instance serves every process of a run on both
/// simulator engines: cache writes go through defer_write
/// (common/write_sink.h), so sharded handlers only read the caches.
class CachingSampler final : public Sampler {
 public:
  CachingSampler(std::shared_ptr<const crypto::Vrf> vrf,
                 std::shared_ptr<const crypto::KeyRegistry> registry,
                 double lambda_over_n);

  Election sample(ProcessId i, const std::string& seed) const override;
  bool committee_val(const std::string& seed, ProcessId i,
                     BytesView proof) const override;
  /// Probes the verdict cache per check and batches only the misses
  /// (then caches their verdicts), so the approver's repeated ok-proof
  /// validations still collapse to one verification each.
  void committee_val_batch(std::span<const ValCheck> checks,
                           std::vector<char>& out) const override;

  std::size_t sample_cache_size() const { return sample_cache_.size(); }
  std::size_t val_cache_size() const { return val_memo_.size(); }

 private:
  // Touched about once per (process, committee), so a plain map will do.
  mutable std::map<std::pair<ProcessId, std::string>, Election> sample_cache_;
  // key: (id, seed, proof bytes) -> committee-val verdict.
  mutable crypto::VerdictMemo val_memo_;
};

}  // namespace coincidence::committee
