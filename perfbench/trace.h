// Benchmark-side tracing: spans around the calls into each layer's public
// functions, kept entirely outside the library.
//
//  * ProcessShim wraps a sim::Process and times on_start/on_message/
//    on_wakeup per message-tag family (the handler layer).
//  * TimedVrf decorates a crypto::Vrf (the crypto layer).
//  * CountingSampler decorates the committee::CachingSampler (the
//    committee layer).
//
// Spans nest: a sampler call inside a handler, a VRF call inside a
// sampler call. Each layer is charged its *self* time — its span minus
// the child spans inside it — so the self times of all layers add up to
// the outer handler spans exactly. Every thread keeps its own ledger (the
// sharded engine runs handlers on several threads); ledgers are summed
// once the simulation is idle. All decorators forward every call
// unchanged, so a traced run is delivery-for-delivery the untraced one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "committee/sampler.h"
#include "crypto/vrf.h"
#include "sim/process.h"

namespace perfbench {

using namespace coincidence;

/// Message-tag families of the protocol stack. Tags follow
/// "<instance>/<round>/<sub-protocol>/<step>" (sim/metrics.h).
enum class Family : std::uint8_t {
  kRbcInitial,
  kRbcEcho,
  kRbcReady,
  kApprover,  // a1/a2 init, echo, ok
  kCoin,      // whp_coin first/second
  kSkip,      // round-skip requests and skip timers
  kMv,        // everything else: start-up, decision certificates
};
inline constexpr std::size_t kFamilies = 7;

Family family_of_tag(std::string_view tag);

/// One thread's share of the traced run.
struct Ledger {
  std::array<double, kFamilies> family_self_s{};  // handler self time
  double handler_total_s = 0;  // outer handler spans, children included
  double committee_self_s = 0;
  double vrf_self_s = 0;
  std::uint64_t handler_calls = 0;
  std::uint64_t sample_calls = 0;
  std::uint64_t val_checks = 0;
  std::uint64_t vrf_evals = 0;
  std::uint64_t vrf_verifies = 0;
  std::uint64_t vrf_batch_entries = 0;

  void add(const Ledger& o);
};

/// Zeroes every thread's ledger. Call only while no simulation runs.
void reset_ledgers();
/// Sum over every thread's ledger. Call only while no simulation runs
/// (the engine's barrier orders the workers' writes before this read).
Ledger summed_ledgers();

class ProcessShim final : public sim::Process {
 public:
  explicit ProcessShim(std::unique_ptr<sim::Process> inner);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;
  void on_corrupt(sim::Context& ctx) override;
  void on_wakeup(sim::Context& ctx) override;
  void on_recover(sim::Context& ctx, const Bytes& snapshot) override;

 private:
  Family family_of(const sim::Tag& tag);

  std::unique_ptr<sim::Process> inner_;
  // TagId -> family + 1 (0 = not classified yet). Per process, so the
  // sharded engine never touches one cache from two threads at once.
  std::vector<std::uint8_t> family_cache_;
};

class TimedVrf final : public crypto::Vrf {
 public:
  explicit TimedVrf(std::shared_ptr<const crypto::Vrf> inner);

  crypto::VrfKeyPair keygen(Rng& rng) const override;
  crypto::VrfOutput eval(BytesView sk, BytesView input) const override;
  bool verify(BytesView pk, BytesView input,
              const crypto::VrfOutput& out) const override;
  bool verify(BytesView pk, BytesView input, BytesView value,
              BytesView proof) const override;
  void batch_verify(std::span<const crypto::VrfBatchEntry> entries,
                    std::vector<char>& out) const override;
  std::size_t value_size() const override;
  const char* name() const override;

 private:
  std::shared_ptr<const crypto::Vrf> inner_;
};

class CountingSampler final : public committee::Sampler {
 public:
  CountingSampler(std::shared_ptr<const crypto::Vrf> vrf,
                  std::shared_ptr<const crypto::KeyRegistry> registry,
                  double lambda_over_n);

  Election sample(committee::ProcessId i,
                  const std::string& seed) const override;
  bool committee_val(const std::string& seed, committee::ProcessId i,
                     BytesView proof) const override;
  void committee_val_batch(std::span<const ValCheck> checks,
                           std::vector<char>& out) const override;

  /// Cache misses of the wrapped sampler: one VRF evaluation each.
  std::size_t sample_misses() const { return inner_.sample_cache_size(); }

 private:
  committee::CachingSampler inner_;
};

}  // namespace perfbench
