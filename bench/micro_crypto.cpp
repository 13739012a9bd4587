// E7 — crypto substrate microbenchmarks (google-benchmark).
//
// Quantifies the per-word costs behind §2's accounting and the DESIGN.md
// substitution table: SHA-256 / HMAC throughput (and the scalar versus
// dispatched compression and GF(2^8) kernels, with a Reed–Solomon
// encode at the log's shape), bignum modular
// exponentiation at several group sizes, the real DDH-VRF (eval+verify)
// and its Jacobi subgroup test vs the simulation-grade FastVrf,
// committee sampling, and Shamir
// share/reconstruct for the dealer-coin baseline.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "committee/sampler.h"
#include "common/rng.h"
#include "crypto/ddh_vrf.h"
#include "crypto/fast_vrf.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/prime_group.h"
#include "crypto/reed_solomon.h"
#include "crypto/shamir.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"

using namespace coincidence;
using namespace coincidence::crypto;

namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  Bytes key = rng.next_bytes(32);
  Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

// The compression kernel alone over range(0) bytes of whole blocks:
// the portable code versus the one Sha256 dispatches to on this host
// (labelled, so a gate can tell a SHA-NI run from a scalar fallback).
void run_sha256_blocks(benchmark::State& state,
                       crypto::detail::Sha256BlocksFn compress) {
  Rng rng(6);
  const Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  std::uint32_t h[8] = {};
  for (auto _ : state) {
    compress(h, data.data(), data.size() / kSha256BlockSize);
    benchmark::DoNotOptimize(h);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Sha256BlocksScalar(benchmark::State& state) {
  run_sha256_blocks(state, &crypto::detail::sha256_blocks_scalar);
}
BENCHMARK(BM_Sha256BlocksScalar)->Arg(16384);

void BM_Sha256BlocksDispatched(benchmark::State& state) {
  const bool fast = crypto::detail::sha256_blocks_shani() != nullptr;
  state.SetLabel(fast ? "sha-ni" : "scalar");
  run_sha256_blocks(state, crypto::detail::sha256_blocks());
}
BENCHMARK(BM_Sha256BlocksDispatched)->Arg(16384);

// dst ^= w·src over range(0) bytes: the split-nibble scalar kernel
// versus the dispatched one (AVX2 where present).
void run_gf256_mul_acc(benchmark::State& state,
                       crypto::detail::Gf256MulAccFn mul_acc) {
  Rng rng(7);
  const auto len = static_cast<std::size_t>(state.range(0));
  const Bytes src = rng.next_bytes(len);
  Bytes dst = rng.next_bytes(len);
  for (auto _ : state) {
    mul_acc(dst.data(), src.data(), len, 0x8e);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Gf256MulAccScalar(benchmark::State& state) {
  run_gf256_mul_acc(state, &crypto::detail::gf256_mul_acc_scalar);
}
BENCHMARK(BM_Gf256MulAccScalar)->Arg(2048);

void BM_Gf256MulAccDispatched(benchmark::State& state) {
  const bool fast = crypto::detail::gf256_mul_acc_avx2() != nullptr;
  state.SetLabel(fast ? "avx2" : "scalar");
  run_gf256_mul_acc(state, crypto::detail::gf256_mul_acc());
}
BENCHMARK(BM_Gf256MulAccDispatched)->Arg(2048);

// One dispersal at the replicated log's shape: n=48, k=16, a 2 KiB value.
void BM_ReedSolomonEncode(benchmark::State& state) {
  const ReedSolomon rs(48, 16);
  Rng rng(8);
  const Bytes value = rng.next_bytes(2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(value));
  }
}
BENCHMARK(BM_ReedSolomonEncode);

void BM_BignumModExp(benchmark::State& state) {
  auto bits = static_cast<std::size_t>(state.range(0));
  PrimeGroup group = bits <= 256 ? PrimeGroup::generate(bits, 7)
                                 : PrimeGroup::rfc3526_1536();
  Rng rng(3);
  Bignum base = group.hash_to_group(rng.next_bytes(32));
  Bignum exp = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
               group.q();
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.exp(base, exp));
  }
}
BENCHMARK(BM_BignumModExp)->Arg(128)->Arg(256)->Arg(1536)
    ->Unit(benchmark::kMicrosecond);

PrimeGroup group_of_bits(std::size_t bits) {
  return bits <= 256 ? PrimeGroup::generate(bits, 9)
                     : PrimeGroup::rfc3526_1536();
}

void BM_DdhVrfEval(benchmark::State& state) {
  DdhVrf vrf(group_of_bits(static_cast<std::size_t>(state.range(0))));
  Rng rng(4);
  VrfKeyPair kp = vrf.keygen(rng);
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.eval(kp.sk, bytes_of_u64(round++)));
  }
}
BENCHMARK(BM_DdhVrfEval)->Arg(128)->Arg(256)->Arg(1536)
    ->Unit(benchmark::kMicrosecond);

// Committee sampling's shape: 32 keys evaluate one input, so after the
// first eval the input's h and its comb table come from the instance's
// cache. BM_DdhVrfEval above is the other extreme, a fresh input per
// eval (hash-to-group and a table build every time).
void BM_DdhVrfEvalSameInput(benchmark::State& state) {
  DdhVrf vrf(group_of_bits(static_cast<std::size_t>(state.range(0))));
  Rng rng(6);
  std::vector<VrfKeyPair> keys;
  for (int i = 0; i < 32; ++i) keys.push_back(vrf.keygen(rng));
  const Bytes input = bytes_of("slot-3/round-1");
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.eval(keys[next].sk, input));
    next = (next + 1) % keys.size();
  }
}
BENCHMARK(BM_DdhVrfEvalSameInput)->Arg(128)->Arg(256)->Arg(1536)
    ->Unit(benchmark::kMicrosecond);

void BM_DdhVrfVerify(benchmark::State& state) {
  DdhVrf vrf(group_of_bits(static_cast<std::size_t>(state.range(0))));
  Rng rng(5);
  VrfKeyPair kp = vrf.keygen(rng);
  VrfOutput out = vrf.eval(kp.sk, bytes_of("round"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.verify(kp.pk, bytes_of("round"), out));
  }
}
BENCHMARK(BM_DdhVrfVerify)->Arg(128)->Arg(256)->Arg(1536)
    ->Unit(benchmark::kMicrosecond);

// Committee-val's shape: 32 members' proofs over one input, checked
// round-robin, so after the first pass every key's state (membership,
// pk^c table) and the input's table come from the instance's caches.
void BM_DdhVrfVerifyManyKeys(benchmark::State& state) {
  DdhVrf vrf(group_of_bits(static_cast<std::size_t>(state.range(0))));
  Rng rng(7);
  const Bytes input = bytes_of("slot-3/round-1");
  std::vector<Bytes> pks;
  std::vector<VrfOutput> outs;
  for (int i = 0; i < 32; ++i) {
    VrfKeyPair kp = vrf.keygen(rng);
    outs.push_back(vrf.eval(kp.sk, input));
    pks.push_back(std::move(kp.pk));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.verify(pks[next], input, outs[next]));
    next = (next + 1) % pks.size();
  }
}
BENCHMARK(BM_DdhVrfVerifyManyKeys)->Arg(256)->Unit(benchmark::kMicrosecond);

// The subgroup test a verify runs on Γ, a and b: one Jacobi symbol of a
// group element modulo p.
void BM_Jacobi(benchmark::State& state) {
  const PrimeGroup group =
      group_of_bits(static_cast<std::size_t>(state.range(0)));
  Rng rng(8);
  std::vector<Bignum> xs;
  for (int i = 0; i < 64; ++i)
    xs.push_back(group.hash_to_group(rng.next_bytes(32)));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bignum::jacobi(xs[next], group.p()));
    next = (next + 1) % xs.size();
  }
}
BENCHMARK(BM_Jacobi)->Arg(256)->Arg(1536);

// The Montgomery substrate behind the 1536-bit numbers above: one REDC
// multiply/square, the reference divmod multiply for contrast, the
// Straus dual ladder and the generator's comb.
void BM_MontMul(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  const MontgomeryCtx& ctx = group.mont();
  Rng rng(21);
  Bignum a = ctx.to_mont(group.hash_to_group(rng.next_bytes(32)));
  Bignum b = ctx.to_mont(group.hash_to_group(rng.next_bytes(32)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mont_mul(a, b));
  }
}
BENCHMARK(BM_MontMul);

void BM_MontSqr(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  const MontgomeryCtx& ctx = group.mont();
  Rng rng(22);
  Bignum a = ctx.to_mont(group.hash_to_group(rng.next_bytes(32)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mont_sqr(a));
  }
}
BENCHMARK(BM_MontSqr);

void BM_MulModRef(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(23);
  Bignum a = group.hash_to_group(rng.next_bytes(32));
  Bignum b = group.hash_to_group(rng.next_bytes(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bignum::mul_mod(a, b, group.p()));
  }
}
BENCHMARK(BM_MulModRef);

void BM_BignumModExpRef(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(3);
  Bignum base = group.hash_to_group(rng.next_bytes(32));
  Bignum exp = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
               group.q();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bignum::mod_exp_ref(base, exp, group.p()));
  }
}
BENCHMARK(BM_BignumModExpRef)->Unit(benchmark::kMicrosecond);

void BM_DualExp(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(24);
  Bignum a = group.hash_to_group(rng.next_bytes(32));
  Bignum b = group.hash_to_group(rng.next_bytes(32));
  Bignum ea = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
              group.q();
  Bignum eb = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
              group.q();
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.dual_exp(a, ea, b, eb));
  }
}
BENCHMARK(BM_DualExp)->Unit(benchmark::kMicrosecond);

// The batch-verification engine: Π bᵢ^eᵢ with 128-bit exponents (the
// BGR combiner width), against which k chained dual ladders would pay
// full-width squaring chains per pair. Below 8 terms multi_exp itself
// falls back to the chained Straus ladder, so Arg(4) prices the
// crossover's cheap side.
void BM_MultiExp(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(26);
  auto k = static_cast<std::size_t>(state.range(0));
  std::vector<MultiExpTerm> terms(k);
  for (std::size_t i = 0; i < k; ++i) {
    terms[i].base = group.hash_to_group(rng.next_bytes(32));
    terms[i].exp = Bignum::from_bytes_be(rng.next_bytes(16));  // 128-bit
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.multi_exp(terms));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_MultiExp)->Arg(4)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_ExpGComb(benchmark::State& state) {
  PrimeGroup group = PrimeGroup::rfc3526_1536();
  Rng rng(25);
  Bignum e = Bignum::from_bytes_be(rng.next_bytes(group.byte_len())) %
             group.q();
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.exp_g(e));
  }
}
BENCHMARK(BM_ExpGComb)->Unit(benchmark::kMicrosecond);

void BM_FastVrfEval(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(8, 11);
  FastVrf vrf(registry);
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.eval(registry->sk_of(0), bytes_of_u64(round++)));
  }
}
BENCHMARK(BM_FastVrfEval);

void BM_FastVrfVerify(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(8, 11);
  FastVrf vrf(registry);
  VrfOutput out = vrf.eval(registry->sk_of(0), bytes_of("round"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf.verify(registry->pk_of(0), bytes_of("round"), out));
  }
}
BENCHMARK(BM_FastVrfVerify);

void BM_CommitteeSample(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(64, 13);
  auto vrf = std::make_shared<FastVrf>(registry);
  committee::Sampler sampler(vrf, registry, 0.3);
  std::uint64_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.sample(0, "seed-" + std::to_string(c++)));
  }
}
BENCHMARK(BM_CommitteeSample);

void BM_CommitteeVal(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(64, 13);
  auto vrf = std::make_shared<FastVrf>(registry);
  committee::Sampler sampler(vrf, registry, 0.3);
  auto election = sampler.sample(0, "seed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.committee_val("seed", 0, election.proof));
  }
}
BENCHMARK(BM_CommitteeVal);

void BM_SignVerify(benchmark::State& state) {
  auto registry = KeyRegistry::create_for(8, 15);
  Signer signer(registry);
  Bytes sig = signer.sign(0, bytes_of("echo,1"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.verify(0, bytes_of("echo,1"), sig));
  }
}
BENCHMARK(BM_SignVerify);

void BM_ShamirShare(benchmark::State& state) {
  Rng rng(17);
  auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_share(12345, n, n / 3, rng));
  }
}
BENCHMARK(BM_ShamirShare)->Arg(16)->Arg(64)->Arg(256);

void BM_ShamirReconstruct(benchmark::State& state) {
  Rng rng(19);
  auto n = static_cast<std::size_t>(state.range(0));
  auto shares = shamir_share(12345, n, n / 3, rng);
  shares.resize(n / 3 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_reconstruct(shares));
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): translates two repo-level
// convenience flags into google-benchmark's own before initialization.
//   --quick            cap min_time so the full suite finishes in seconds
//                      (the CI quick-bench smoke job)
//   --bench_json=FILE  emit the JSON report to FILE (the committed
//                      BENCH_crypto.json snapshot)
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
