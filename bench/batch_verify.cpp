// E12 — batch VRF proof verification amortization (google-benchmark).
//
// The deferred-verification pipeline's whole premise in one sweep:
// verifying k coin shares as ONE Bellare–Garay–Rabin random linear
// combination (DdhVrf::batch_verify — two short-exponent Pippenger
// multi-exps + one comb + one exponentiation per distinct input) versus
// k independent verify() calls (per proof two comb powers and two
// 128-bit ladders).
//
//   BM_SeqVerify/<bits>/<k>    — the inline-verification baseline
//   BM_BatchVerify/<bits>/<k>  — one folded batch of the same k entries
//   BM_BatchVerifyOneBad/...   — worst-honest-case: one forged entry, so
//                                the fold fails and binary-split
//                                attribution pays its O(log k) subsets
//
// k sweeps {1, 4, 16, 64, 256} over the two production-shaped groups
// (RFC 2409 768-bit, RFC 3526 1536-bit). All k entries share one input
// — the coin-share shape: every signer evaluates the same round nonce —
// which is exactly where the Π H1(x)^(Σwᵢsᵢ) term amortizes hardest.
//
// The committed BENCH_crypto.json merges this binary's JSON report with
// micro_crypto's; CI gates on BatchVerify/1536/64 regressions.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/ddh_vrf.h"
#include "crypto/prime_group.h"
#include "crypto/vrf.h"

using namespace coincidence;
using namespace coincidence::crypto;

namespace {

struct BatchFixture {
  std::unique_ptr<DdhVrf> vrf;
  Bytes input;               // one shared round nonce, coin-share style
  std::vector<Bytes> pks;    // stable storage behind the entry views
  std::vector<VrfOutput> outs;
  std::vector<VrfBatchEntry> entries;
};

/// Builds (and caches — google-benchmark re-enters the function body
/// while calibrating iteration counts) k honest proofs over one input.
const BatchFixture& fixture(std::size_t bits, std::size_t k) {
  static std::map<std::pair<std::size_t, std::size_t>, BatchFixture> cache;
  auto key = std::make_pair(bits, k);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  BatchFixture& f = cache[key];
  f.vrf = std::make_unique<DdhVrf>(bits == 768 ? PrimeGroup::rfc2409_768()
                                               : PrimeGroup::rfc3526_1536());
  f.vrf->set_batch_seed(0x5eed);
  f.input = bytes_of("coin-round-7");
  Rng rng(bits * 1000 + k);
  f.pks.reserve(k);
  f.outs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    VrfKeyPair kp = f.vrf->keygen(rng);
    f.outs.push_back(f.vrf->eval(kp.sk, f.input));
    f.pks.push_back(std::move(kp.pk));
  }
  for (std::size_t i = 0; i < k; ++i)
    f.entries.push_back({f.pks[i], f.input, f.outs[i].value, f.outs[i].proof});
  return f;
}

void BM_SeqVerify(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const BatchFixture& f = fixture(bits, k);
  for (auto _ : state) {
    bool all = true;
    for (const VrfBatchEntry& e : f.entries)
      all &= f.vrf->verify(e.pk, e.input, e.value, e.proof);
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}

void BM_BatchVerify(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const BatchFixture& f = fixture(bits, k);
  std::vector<char> out;
  for (auto _ : state) {
    f.vrf->batch_verify(f.entries, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}

// One forged value in the batch: the fold fails and attribution runs —
// the adversarial overhead the queue's discard counters pay for.
void BM_BatchVerifyOneBad(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const BatchFixture& honest = fixture(bits, k);
  std::vector<VrfBatchEntry> entries = honest.entries;
  // Corrupt the response scalar s (the proof's last blob): the entry
  // still parses and passes the subgroup checks, so the fold fails and
  // attribution must run. (A forged *value* would be rejected during the
  // structural pass and never reach the combination.)
  Bytes forged = honest.outs[k / 2].proof;
  forged.back() ^= 0x01;
  entries[k / 2].proof = forged;
  std::vector<char> out;
  for (auto _ : state) {
    honest.vrf->batch_verify(entries, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}

void sweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t bits : {768, 1536})
    for (std::int64_t k : {1, 4, 16, 64, 256}) b->Args({bits, k});
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_SeqVerify)->Apply(sweep);
BENCHMARK(BM_BatchVerify)->Apply(sweep);
BENCHMARK(BM_BatchVerifyOneBad)
    ->Args({768, 16})
    ->Args({768, 64})
    ->Args({1536, 64})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Same two convenience flags as micro_crypto, so the CI quick-bench job
// and the BENCH_crypto.json regeneration recipe drive both binaries
// identically:
//   --quick            cap min_time so the sweep finishes in seconds
//   --bench_json=FILE  emit the google-benchmark JSON report to FILE
int main(int argc, char** argv) {
  std::vector<std::string> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc) + 2);
  passthrough.emplace_back(argv[0]);
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--bench_json=", 0) == 0) {
      json_path = arg.substr(std::string("--bench_json=").size());
    } else {
      passthrough.push_back(std::move(arg));
    }
  }
  if (quick) passthrough.emplace_back("--benchmark_min_time=0.02");
  if (!json_path.empty()) {
    passthrough.emplace_back("--benchmark_out=" + json_path);
    passthrough.emplace_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(passthrough.size());
  for (std::string& s : passthrough) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
