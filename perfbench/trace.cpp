#include "trace.h"

#include <chrono>
#include <mutex>

#include "sim/tag_table.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Ledgers outlive the threads that wrote them (the engine's worker pool
// dies with its Simulation), so the registry owns them.
std::mutex g_ledgers_mu;
std::vector<std::unique_ptr<Ledger>> g_ledgers;

Ledger& thread_ledger() {
  thread_local Ledger* ledger = [] {
    std::lock_guard<std::mutex> lock(g_ledgers_mu);
    g_ledgers.push_back(std::make_unique<Ledger>());
    return g_ledgers.back().get();
  }();
  return *ledger;
}

// Child time accumulated by the innermost open span on this thread.
thread_local double* t_child_s = nullptr;

/// One span: measures its wall time, reports the part not covered by
/// spans opened inside it, and charges its full length to its parent.
class Span {
 public:
  Span() : parent_(t_child_s), start_(Clock::now()) { t_child_s = &child_s_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span; returns {total, self} seconds.
  std::pair<double, double> close() {
    const double total =
        std::chrono::duration<double>(Clock::now() - start_).count();
    t_child_s = parent_;
    if (parent_) *parent_ += total;
    return {total, total - child_s_};
  }

 private:
  double* parent_;
  Clock::time_point start_;
  double child_s_ = 0;
};

bool has_component(std::string_view tag, std::string_view part) {
  for (std::size_t pos = tag.find(part); pos != std::string_view::npos;
       pos = tag.find(part, pos + 1)) {
    const bool starts = pos == 0 || tag[pos - 1] == '/';
    const std::size_t end = pos + part.size();
    if (starts && (end == tag.size() || tag[end] == '/')) return true;
  }
  return false;
}

std::string_view last_component(std::string_view tag) {
  const std::size_t slash = tag.rfind('/');
  return slash == std::string_view::npos ? tag : tag.substr(slash + 1);
}

template <typename F>
void timed_handler(Family family, F&& call) {
  Span span;
  call();
  const auto [total, self] = span.close();
  Ledger& l = thread_ledger();
  l.family_self_s[static_cast<std::size_t>(family)] += self;
  l.handler_total_s += total;
  ++l.handler_calls;
}

}  // namespace

Family family_of_tag(std::string_view tag) {
  const std::string_view step = last_component(tag);
  if (step == "skip") return Family::kSkip;
  if (has_component(tag, "rbc")) {
    if (step == "initial") return Family::kRbcInitial;
    if (step == "echo") return Family::kRbcEcho;
    if (step == "ready") return Family::kRbcReady;
  }
  if (has_component(tag, "a1") || has_component(tag, "a2"))
    return Family::kApprover;
  if (has_component(tag, "coin")) return Family::kCoin;
  return Family::kMv;
}

void Ledger::add(const Ledger& o) {
  for (std::size_t i = 0; i < kFamilies; ++i)
    family_self_s[i] += o.family_self_s[i];
  handler_total_s += o.handler_total_s;
  committee_self_s += o.committee_self_s;
  vrf_self_s += o.vrf_self_s;
  handler_calls += o.handler_calls;
  sample_calls += o.sample_calls;
  val_checks += o.val_checks;
  vrf_evals += o.vrf_evals;
  vrf_verifies += o.vrf_verifies;
  vrf_batch_entries += o.vrf_batch_entries;
}

void reset_ledgers() {
  std::lock_guard<std::mutex> lock(g_ledgers_mu);
  for (auto& l : g_ledgers) *l = Ledger{};
}

Ledger summed_ledgers() {
  std::lock_guard<std::mutex> lock(g_ledgers_mu);
  Ledger sum;
  for (const auto& l : g_ledgers) sum.add(*l);
  return sum;
}

// --- ProcessShim ---------------------------------------------------------

ProcessShim::ProcessShim(std::unique_ptr<sim::Process> inner)
    : inner_(std::move(inner)) {}

Family ProcessShim::family_of(const sim::Tag& tag) {
  const sim::TagId id = tag.id();
  if (id >= family_cache_.size()) family_cache_.resize(id + 1, 0);
  if (family_cache_[id] == 0)
    family_cache_[id] =
        static_cast<std::uint8_t>(family_of_tag(tag.str())) + 1;
  return static_cast<Family>(family_cache_[id] - 1);
}

void ProcessShim::on_start(sim::Context& ctx) {
  timed_handler(Family::kMv, [&] { inner_->on_start(ctx); });
}

void ProcessShim::on_message(sim::Context& ctx, const sim::Message& msg) {
  timed_handler(family_of(msg.tag), [&] { inner_->on_message(ctx, msg); });
}

void ProcessShim::on_corrupt(sim::Context& ctx) { inner_->on_corrupt(ctx); }

void ProcessShim::on_wakeup(sim::Context& ctx) {
  // Wakeups only arm the round-skip fallback's silence timers.
  timed_handler(Family::kSkip, [&] { inner_->on_wakeup(ctx); });
}

void ProcessShim::on_recover(sim::Context& ctx, const Bytes& snapshot) {
  inner_->on_recover(ctx, snapshot);
}

// --- TimedVrf ------------------------------------------------------------

TimedVrf::TimedVrf(std::shared_ptr<const crypto::Vrf> inner)
    : inner_(std::move(inner)) {}

crypto::VrfKeyPair TimedVrf::keygen(Rng& rng) const {
  return inner_->keygen(rng);
}

crypto::VrfOutput TimedVrf::eval(BytesView sk, BytesView input) const {
  Span span;
  crypto::VrfOutput out = inner_->eval(sk, input);
  Ledger& l = thread_ledger();
  l.vrf_self_s += span.close().second;
  ++l.vrf_evals;
  return out;
}

bool TimedVrf::verify(BytesView pk, BytesView input,
                      const crypto::VrfOutput& out) const {
  Span span;
  const bool ok = inner_->verify(pk, input, out);
  Ledger& l = thread_ledger();
  l.vrf_self_s += span.close().second;
  ++l.vrf_verifies;
  return ok;
}

bool TimedVrf::verify(BytesView pk, BytesView input, BytesView value,
                      BytesView proof) const {
  Span span;
  const bool ok = inner_->verify(pk, input, value, proof);
  Ledger& l = thread_ledger();
  l.vrf_self_s += span.close().second;
  ++l.vrf_verifies;
  return ok;
}

void TimedVrf::batch_verify(std::span<const crypto::VrfBatchEntry> entries,
                            std::vector<char>& out) const {
  Span span;
  inner_->batch_verify(entries, out);
  Ledger& l = thread_ledger();
  l.vrf_self_s += span.close().second;
  l.vrf_batch_entries += entries.size();
}

std::size_t TimedVrf::value_size() const { return inner_->value_size(); }

const char* TimedVrf::name() const { return inner_->name(); }

// --- CountingSampler -----------------------------------------------------

CountingSampler::CountingSampler(
    std::shared_ptr<const crypto::Vrf> vrf,
    std::shared_ptr<const crypto::KeyRegistry> registry, double lambda_over_n)
    : Sampler(vrf, registry, lambda_over_n),
      inner_(std::move(vrf), std::move(registry), lambda_over_n) {}

committee::Sampler::Election CountingSampler::sample(
    committee::ProcessId i, const std::string& seed) const {
  Span span;
  Election e = inner_.sample(i, seed);
  Ledger& l = thread_ledger();
  l.committee_self_s += span.close().second;
  ++l.sample_calls;
  return e;
}

bool CountingSampler::committee_val(const std::string& seed,
                                    committee::ProcessId i,
                                    BytesView proof) const {
  Span span;
  const bool ok = inner_.committee_val(seed, i, proof);
  Ledger& l = thread_ledger();
  l.committee_self_s += span.close().second;
  ++l.val_checks;
  return ok;
}

void CountingSampler::committee_val_batch(std::span<const ValCheck> checks,
                                          std::vector<char>& out) const {
  Span span;
  inner_.committee_val_batch(checks, out);
  Ledger& l = thread_ledger();
  l.committee_self_s += span.close().second;
  l.val_checks += checks.size();
}

}  // namespace perfbench
