// Simulator message-plane throughput (ISSUE 3).
//
// Measures deliveries/sec and heap traffic (allocations + bytes per
// delivery) for whp_coin and ba_whp runs under *null* crypto — VRF and
// committee sampling replaced by O(1) hash stubs — so the numbers are
// the message substrate's, not the crypto's. The committed BENCH_sim.json
// carries a `baseline_pre_zero_copy` block with the same workloads
// measured on the pre-refactor tree; CI re-runs `--quick` and fails if
// deliveries/sec regresses >30% against the committed snapshot.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "ba/ba_whp.h"
#include "ba/broadcast.h"
#include "bench_json.h"
#include "coin/coin_protocol.h"
#include "coin/setup.h"
#include "coin/verify_queue.h"
#include "coin/whp_coin.h"
#include "committee/params.h"
#include "committee/sampler.h"
#include "common/args.h"
#include "common/table.h"
#include "crypto/key_registry.h"
#include "crypto/signer.h"
#include "crypto/verdict_memo.h"
#include "crypto/vrf.h"
#include "sim/simulation.h"

// ---------------------------------------------------------------------------
// Global allocation counters. Every operator new in the process is
// counted; the measured region is bracketed by snapshots, so setup cost
// (key generation, process construction) never pollutes the per-delivery
// numbers.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace coincidence;

namespace {

// ---------------------------------------------------------------------------
// Null crypto: deterministic O(1) hash stubs with zero heap traffic on
// the verify path. Secure against nobody — these exist purely to take
// crypto off the profile so the bench isolates the message plane.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* data,
                    std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// Expands a 64-bit hash into a 32-byte "VRF value" (splitmix64 stream).
void expand32(std::uint64_t h, std::uint8_t out[32]) {
  for (int block = 0; block < 4; ++block) {
    std::uint64_t z = h + 0x9e3779b97f4a7c15ull * (block + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::memcpy(out + 8 * block, &z, 8);
  }
}

/// VRF stub: value = expand32(H(sk || input)), proof = sk. Verification
/// recomputes into a stack buffer — no allocations, no registry lookups.
class NullVrf final : public crypto::Vrf {
 public:
  crypto::VrfKeyPair keygen(Rng& rng) const override {
    crypto::VrfKeyPair kp;
    kp.sk = rng.next_bytes(32);
    kp.pk = kp.sk;
    return kp;
  }

  crypto::VrfOutput eval(BytesView sk, BytesView input) const override {
    std::uint8_t value[32];
    eval_into(sk, input, value);
    crypto::VrfOutput out;
    out.value.assign(value, value + 32);
    out.proof.assign(sk.begin(), sk.end());
    return out;
  }

  bool verify(BytesView pk, BytesView input,
              const crypto::VrfOutput& out) const override {
    return verify(pk, input, out.value, out.proof);
  }

  /// View-based verify (the protocols' hot path): recompute into a stack
  /// buffer and memcmp — zero heap traffic.
  bool verify(BytesView pk, BytesView input, BytesView value,
              BytesView proof) const override {
    (void)pk;
    if (value.size() != 32) return false;
    std::uint8_t expect[32];
    eval_into(proof, input, expect);
    return std::memcmp(expect, value.data(), 32) == 0;
  }

  std::size_t value_size() const override { return 32; }
  const char* name() const override { return "null"; }

 private:
  static void eval_into(BytesView sk, BytesView input, std::uint8_t out[32]) {
    std::uint64_t h = fnv1a(kFnvOffset, sk.data(), sk.size());
    h = fnv1a(h, input.data(), input.size());
    expand32(h, out);
  }
};

/// Sampler stub: election decided by H(id, seed) mapped to [0,1); the
/// proof is the 32-byte expansion of the same hash, so committee_val is a
/// recompute + memcmp with zero allocations.
class NullSampler final : public committee::Sampler {
 public:
  NullSampler(std::shared_ptr<const crypto::Vrf> vrf,
              std::shared_ptr<const crypto::KeyRegistry> registry,
              double lambda_over_n)
      : Sampler(std::move(vrf), std::move(registry), lambda_over_n) {}

  Election sample(crypto::ProcessId i,
                  const std::string& seed) const override {
    std::uint8_t proof[32];
    bool sampled = elect(i, seed, proof);
    Election e;
    e.sampled = sampled;
    e.proof.assign(proof, proof + 32);
    return e;
  }

  bool committee_val(const std::string& seed, crypto::ProcessId i,
                     BytesView proof) const override {
    if (proof.size() != 32) return false;
    std::uint8_t expect[32];
    if (!elect(i, seed, expect)) return false;
    return std::memcmp(expect, proof.data(), 32) == 0;
  }

  /// Batch contract: out[i] == committee_val(checks[i]). The base-class
  /// batch decodes real VRF proof wire format, which would reject every
  /// null proof — a stub sampler must loop its own committee_val.
  void committee_val_batch(std::span<const committee::Sampler::ValCheck> checks,
                           std::vector<char>& out) const override {
    out.assign(checks.size(), 0);
    for (std::size_t i = 0; i < checks.size(); ++i)
      out[i] =
          committee_val(*checks[i].seed, checks[i].id, checks[i].proof) ? 1
                                                                        : 0;
  }

 private:
  bool elect(crypto::ProcessId i, const std::string& seed,
             std::uint8_t proof[32]) const {
    std::uint64_t id64 = i;
    std::uint64_t h = fnv1a(kFnvOffset,
                            reinterpret_cast<const std::uint8_t*>("nsmp"), 4);
    h = fnv1a(h, reinterpret_cast<const std::uint8_t*>(&id64), 8);
    h = fnv1a(h, reinterpret_cast<const std::uint8_t*>(seed.data()),
              seed.size());
    expand32(h, proof);
    // Big-endian first 8 bytes -> [0,1), mirroring vrf_value_as_unit_double.
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v = (v << 8) | proof[b];
    double unit = static_cast<double>(v >> 11) * 0x1.0p-53;
    return unit < threshold();
  }
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// The §3 setup over the null stubs, with one run-wide BatchVerifier
/// shared by every process on both engines, as core::Env has.
coin::Setup make_null_env(std::size_t n, std::uint64_t seed) {
  coin::Setup env;
  env.params = committee::Params::derive(n, 0.25, 0.02, /*strict=*/false);
  env.registry = crypto::KeyRegistry::create_for(n, seed);
  auto vrf = std::make_shared<NullVrf>();
  env.vrf = vrf;
  env.sampler = std::make_shared<NullSampler>(vrf, env.registry,
                                              env.params.sample_prob());
  env.signer = std::make_shared<crypto::Signer>(env.registry);
  env.batcher = std::make_shared<coin::BatchVerifier>(
      coin::BatchVerifier::Config{env.vrf, env.sampler, env.signer});
  return env;
}

/// Sharded superstep engine (ISSUE 8): 0 = legacy loop. The sharded
/// schedule is deterministic per (seed, n) but is a *different* valid
/// schedule from the legacy one, so sharded rows carry a `/s<shards>`
/// name suffix and never collide with the frozen `benchmarks` names the
/// CI gate compares against.
std::size_t g_shards = 0;
std::size_t g_threads = 0;

struct RunStats {
  std::uint64_t deliveries = 0;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  std::uint64_t sig_checks = 0;
  std::uint64_t sig_memo_hits = 0;

  void operator+=(const RunStats& o) {
    deliveries += o.deliveries;
    allocs += o.allocs;
    bytes += o.bytes;
    seconds += o.seconds;
    sig_checks += o.sig_checks;
    sig_memo_hits += o.sig_memo_hits;
  }
};

template <typename Run>
RunStats measure(Run&& run) {
  const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t deliveries = run();
  const auto t1 = std::chrono::steady_clock::now();
  RunStats s;
  s.deliveries = deliveries;
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - a0;
  s.bytes = g_alloc_bytes.load(std::memory_order_relaxed) - b0;
  s.seconds = std::chrono::duration<double>(t1 - t0).count();
  return s;
}

/// One standalone whp_coin flip across n CoinHosts, reliable network.
RunStats run_whp_coin(std::size_t n, std::uint64_t seed) {
  const coin::Setup env = make_null_env(n, seed);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 0;
  cfg.seed = seed;
  cfg.shards = g_shards;
  cfg.threads = g_threads;
  sim::Simulation sim(cfg);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    coin::WhpCoin::Config ccfg{env};
    ccfg.tag = "coin";
    ccfg.round = 1;
    sim.add_process(std::make_unique<coin::CoinHost>(
        std::make_unique<coin::WhpCoin>(std::move(ccfg))));
  }
  return measure([&] {
    sim.start();
    sim.run();
    return sim.metrics().deliveries();
  });
}

/// One full BA-WHP agreement (split inputs) across n processes. The HMAC
/// Signer here is REAL (only VRF + sampling are stubbed), so the W-sig
/// ok-proof sweep dominates — exactly the hot path the shared
/// BatchVerifier's SigMemo is built to collapse.
RunStats run_ba_whp(std::size_t n, std::uint64_t seed) {
  const coin::Setup env = make_null_env(n, seed);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 0;
  cfg.seed = seed;
  cfg.shards = g_shards;
  cfg.threads = g_threads;
  sim::Simulation sim(cfg);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    ba::BaWhp::Config bcfg{env};
    bcfg.tag = "ba";
    bcfg.max_rounds = 32;
    sim.add_process(std::make_unique<ba::BaWhp>(
        std::move(bcfg), static_cast<ba::Value>(i % 2)));
  }
  RunStats s = measure([&] {
    sim.start();
    sim.run_until([&] {
      for (sim::ProcessId i = 0; i < n; ++i)
        if (!dynamic_cast<ba::BaWhp&>(sim.process(i)).decided()) return false;
      return true;
    });
    return sim.metrics().deliveries();
  });
  s.sig_checks = env.batcher->sig_checks();
  s.sig_memo_hits = env.batcher->sig_memo().hits();
  return s;
}

// ---------------------------------------------------------------------------
// RBC dissemination workload (ISSUE 10): a fixed set of sources reliable-
// broadcasts 1KB payloads to n processes, once per --rbc backend. Bracha
// re-ships the full value in every echo ((3f + 1)·n payload copies per
// source, with f = ⌊(n − 1)/3⌋ here, so nearly n²);
// the erasure-coded backend ships ⌈|v|/k⌉-byte fragments plus Merkle
// branches — the alloc/bytes-per-delivery columns are the message-plane
// cost of that difference, with no BA or crypto on the profile (sha256
// is the only hashing either backend does). Every process shares one
// run-wide verdict memo, as a log run's processes do, so each distinct
// echo branch and dispersal is checked once.
// ---------------------------------------------------------------------------

class RbcHost final : public sim::Process {
 public:
  RbcHost(ba::RbcBackend backend, ba::Broadcast::Config cfg,
          Bytes to_send)
      : rbc_(ba::make_broadcast(backend, std::move(cfg),
                                [](sim::ProcessId, const Bytes&) {})),
        to_send_(std::move(to_send)) {}

  void on_start(sim::Context& ctx) override {
    if (!to_send_.empty()) rbc_->broadcast(ctx, to_send_);
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    rbc_->handle(ctx, msg);
  }
  std::size_t delivered_count() const { return rbc_->delivered_count(); }

 private:
  std::unique_ptr<ba::Broadcast> rbc_;
  Bytes to_send_;
};

ba::RbcBackend g_rbc_backend = ba::RbcBackend::kBracha;

RunStats run_rbc(std::size_t n, std::uint64_t seed) {
  const std::size_t sources = std::min<std::size_t>(n, 8);
  const std::size_t f = (n - 1) / 3;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 0;
  cfg.seed = seed;
  cfg.shards = g_shards;
  cfg.threads = g_threads;
  crypto::VerdictMemo memo;  // outlives the simulation's processes
  sim::Simulation sim(cfg);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    ba::Broadcast::Config bcfg;
    bcfg.tag = "rbc";
    bcfg.n = n;
    bcfg.f = f;
    bcfg.memo = &memo;
    Bytes payload;
    if (i < sources) {
      payload.resize(1024);
      for (std::size_t b = 0; b < payload.size(); ++b)
        payload[b] = static_cast<std::uint8_t>((i * 131 + b) & 0xff);
    }
    sim.add_process(std::make_unique<RbcHost>(g_rbc_backend, std::move(bcfg),
                                              std::move(payload)));
  }
  return measure([&] {
    sim.start();
    sim.run_until([&] {
      for (sim::ProcessId i = 0; i < n; ++i)
        if (dynamic_cast<RbcHost&>(sim.process(i)).delivered_count() <
            sources)
          return false;
      return true;
    });
    return sim.metrics().deliveries();
  });
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::size_t reps =
      static_cast<std::size_t>(args.get_int("reps", quick ? 1 : 5));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  g_shards = static_cast<std::size_t>(args.get_int("shards", 0));
  g_threads = static_cast<std::size_t>(args.get_int("threads", 0));
  // Large-n rows (ISSUE 8): the default grid stops at 128 so the frozen
  // `benchmarks` names the CI gate reads never change; `--max_n` extends
  // it through {256, 512, 1024, 2048, 4096}.
  const std::size_t max_n =
      static_cast<std::size_t>(args.get_int("max_n", 128));
  const std::string json_path =
      args.get("bench_json", args.get("json", ""));
  // --rbc bracha|ec restricts the dissemination workload to one backend;
  // the default measures both (rows "rbc_bracha/..." and "rbc_ec/...").
  std::vector<ba::RbcBackend> rbc_backends = {ba::RbcBackend::kBracha,
                                              ba::RbcBackend::kEc};
  if (const std::string rbc = args.get("rbc", ""); !rbc.empty()) {
    auto parsed = ba::parse_rbc_backend(rbc);
    if (!parsed) {
      std::cerr << "unknown --rbc backend: " << rbc << "\n";
      return 2;
    }
    rbc_backends = {*parsed};
  }

  bench::BenchJson json;
  json.context("bench", "sim_throughput");
  json.context("crypto", "null");
  json.context("reps", static_cast<double>(reps));
  json.context("seed", static_cast<double>(seed));
  json.context("shards", static_cast<double>(g_shards));
  json.context("threads", static_cast<double>(g_threads));
  json.machine_context();

  std::cout << "== simulator message-plane throughput (null crypto), reps="
            << reps;
  if (g_shards > 0)
    std::cout << ", shards=" << g_shards << ", threads="
              << (g_threads ? std::to_string(g_threads) : "auto");
  std::cout << " ==\n\n";

  Table t({"workload", "n", "deliveries", "deliv/sec", "allocs/deliv",
           "bytes/deliv"});

  struct Workload {
    const char* name;
    RunStats (*run)(std::size_t, std::uint64_t);
  };
  const Workload workloads[] = {{"whp_coin", run_whp_coin},
                                {"ba_whp", run_ba_whp}};

  std::vector<std::size_t> grid = {32, 64, 128};
  for (std::size_t n : {256, 512, 1024, 2048, 4096})
    if (n <= max_n) grid.push_back(n);
  // Sharded rows get a name suffix so they never shadow the frozen
  // legacy-loop rows in a committed snapshot.
  const std::string suffix =
      g_shards > 0 ? "/s" + std::to_string(g_shards) : "";

  for (const Workload& w : workloads) {
    for (std::size_t n : grid) {
      RunStats total;
      for (std::size_t rep = 0; rep < reps; ++rep)
        total += w.run(n, seed + rep);
      const double dps =
          total.seconds > 0 ? total.deliveries / total.seconds : 0;
      const double apd =
          total.deliveries ? static_cast<double>(total.allocs) /
                                 static_cast<double>(total.deliveries)
                           : 0;
      const double bpd =
          total.deliveries ? static_cast<double>(total.bytes) /
                                 static_cast<double>(total.deliveries)
                           : 0;
      bench::BenchJson::Row& row =
          json.row(std::string(w.name) + "/n" + std::to_string(n) + suffix);
      bench::BenchJson::field(row, "n", static_cast<double>(n));
      bench::BenchJson::field(row, "deliveries",
                              static_cast<double>(total.deliveries));
      bench::BenchJson::field(row, "seconds", total.seconds);
      bench::BenchJson::field(row, "deliveries_per_sec", dps);
      bench::BenchJson::field(row, "allocs_per_delivery", apd);
      bench::BenchJson::field(row, "bytes_per_delivery", bpd);
      bench::BenchJson::field(row, "sig_checks",
                              static_cast<double>(total.sig_checks));
      bench::BenchJson::field(row, "sig_memo_hits",
                              static_cast<double>(total.sig_memo_hits));
      t.add_row({w.name + suffix, std::to_string(n),
                 std::to_string(total.deliveries),
                 Table::count(static_cast<std::uint64_t>(dps)),
                 std::to_string(apd).substr(0, 6),
                 std::to_string(bpd).substr(0, 8)});
    }
  }

  // Dissemination rows: 8 sources × 1KB payloads per run. Quadratic in n
  // per source (echo/ready fan-out), so the grid is capped at 128.
  for (ba::RbcBackend backend : rbc_backends) {
    g_rbc_backend = backend;
    const std::string wname =
        std::string("rbc_") + ba::to_string(backend);
    for (std::size_t n : grid) {
      if (n > 128) continue;
      RunStats total;
      for (std::size_t rep = 0; rep < reps; ++rep)
        total += run_rbc(n, seed + rep);
      const double dps =
          total.seconds > 0 ? total.deliveries / total.seconds : 0;
      const double apd =
          total.deliveries ? static_cast<double>(total.allocs) /
                                 static_cast<double>(total.deliveries)
                           : 0;
      const double bpd =
          total.deliveries ? static_cast<double>(total.bytes) /
                                 static_cast<double>(total.deliveries)
                           : 0;
      bench::BenchJson::Row& row =
          json.row(wname + "/n" + std::to_string(n) + suffix);
      bench::BenchJson::field(row, "n", static_cast<double>(n));
      bench::BenchJson::field(row, "deliveries",
                              static_cast<double>(total.deliveries));
      bench::BenchJson::field(row, "seconds", total.seconds);
      bench::BenchJson::field(row, "deliveries_per_sec", dps);
      bench::BenchJson::field(row, "allocs_per_delivery", apd);
      bench::BenchJson::field(row, "bytes_per_delivery", bpd);
      t.add_row({wname + suffix, std::to_string(n),
                 std::to_string(total.deliveries),
                 Table::count(static_cast<std::uint64_t>(dps)),
                 std::to_string(apd).substr(0, 6),
                 std::to_string(bpd).substr(0, 8)});
    }
  }

  t.print(std::cout);
  std::cout << "\nnull crypto: VRF + committee election are O(1) hash "
               "stubs (stack buffers, memcmp\nverification), so every "
               "allocation above is the simulator's message plane —\n"
               "tag strings, payload copies, queue bookkeeping — plus "
               "protocol-state churn.\n";

  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
