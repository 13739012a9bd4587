#include "session/replicated_log.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/errors.h"
#include "common/rng.h"

namespace coincidence::session {

LogProcess::LogProcess(LogConfig cfg)
    : cfg_(std::move(cfg)), slots_(cfg_.slot_prefix, cfg_.total_slots) {
  COIN_REQUIRE(cfg_.total_slots > 0, "LogProcess: need at least one slot");
  COIN_REQUIRE(cfg_.pipeline_depth > 0, "LogProcess: depth must be >= 1");
  COIN_REQUIRE(cfg_.batch_size > 0, "LogProcess: batch must be >= 1");
}

Bytes LogProcess::batch_for(sim::ProcessId proposer,
                            std::size_t slot) const {
  // Simulated clients: every process can regenerate any proposer's
  // stream (the seed is shared config), which is what lets tests check
  // that a committed batch is exactly some proposer's honest proposal.
  std::string batch;
  for (std::size_t j = 0; j < cfg_.batch_size; ++j) {
    const std::uint64_t idx = slot * cfg_.batch_size + j;
    std::uint64_t state = cfg_.client_seed ^
                          (static_cast<std::uint64_t>(proposer) *
                           0x9E3779B97F4A7C15ULL) ^
                          (idx * 0xD1B54A32D192ED03ULL);
    char token[64];
    std::snprintf(token, sizeof token, "c%u-%llu:%016llx",
                  static_cast<unsigned>(proposer),
                  static_cast<unsigned long long>(idx),
                  static_cast<unsigned long long>(splitmix64(state)));
    if (!batch.empty()) batch.push_back('\n');
    batch += token;
  }
  return bytes_of(batch);
}

void LogProcess::on_start(sim::Context& ctx) {
  self_ = ctx.self();
  pump(ctx);  // opens the first pipeline_depth slots
}

void LogProcess::on_message(sim::Context& ctx, const sim::Message& msg) {
  if (slots_.deliver(ctx, msg)) pump(ctx);
}

void LogProcess::on_wakeup(sim::Context& ctx) {
  for (const auto& slot : slots_.children()) slot->on_wakeup(ctx);
  pump(ctx);
}

void LogProcess::pump(sim::Context& ctx) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Latch fresh local decisions (any order across the pipeline).
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      if (slot_done_[k] || !slots_[k].decided()) continue;
      slot_done_[k] = true;
      ++decided_count_;
      decided_at_[k] = ctx.now();
      progress = true;
    }
    // Open the next slot while the pipeline has room.
    if (slots_.size() < cfg_.total_slots &&
        slots_.size() - decided_count_ < cfg_.pipeline_depth) {
      activate_slot(ctx);
      progress = true;
    }
    // Extend the contiguous committed prefix.
    while (log_.size() < slots_.size() && slot_done_[log_.size()]) {
      const std::size_t s = log_.size();
      const Bytes& value = slots_[s].decided_value();
      log_.push_back(value);
      committed_at_[s] = ctx.now();
      if (!value.empty()) {
        // Batches are newline-joined request tokens.
        requests_committed_ +=
            1 + static_cast<std::uint64_t>(
                    std::count(value.begin(), value.end(), '\n'));
      }
      progress = true;
    }
  }
}

void LogProcess::activate_slot(sim::Context& ctx) {
  const std::size_t k = slots_.size();
  ba::MultiValuedBa::Config mcfg{cfg_};
  mcfg.tag = cfg_.slot_prefix + std::to_string(k);
  mcfg.max_rounds = cfg_.max_rounds;
  mcfg.extra_rounds = cfg_.extra_rounds;
  mcfg.skip_timeout = cfg_.skip_timeout;
  mcfg.max_candidates = cfg_.max_candidates;
  mcfg.rbc = cfg_.rbc;
  slot_done_.push_back(false);
  activated_at_.push_back(ctx.now());
  decided_at_.push_back(0);
  committed_at_.push_back(0);
  slots_.activate(ctx, std::make_unique<ba::MultiValuedBa>(
                           std::move(mcfg), batch_for(self_, k)));
}

crypto::Digest LogProcess::log_fingerprint() const {
  Bytes buf;
  for (const Bytes& entry : log_) {
    append(buf, bytes_of_u64(entry.size()));
    append(buf, entry);
  }
  return crypto::sha256(buf);
}

std::uint64_t LogProcess::decide_latency(std::size_t slot) const {
  COIN_REQUIRE(slot < slots_.size() && slot_done_[slot],
               "LogProcess: slot not decided");
  return decided_at_[slot] - activated_at_[slot];
}

std::uint64_t LogProcess::commit_latency(std::size_t slot) const {
  COIN_REQUIRE(slot < log_.size(), "LogProcess: slot not committed");
  return committed_at_[slot] - activated_at_[slot];
}

std::uint64_t LogProcess::rounds_skipped() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_.children()) total += slot->rounds_skipped();
  return total;
}

std::uint64_t LogProcess::max_decided_round() const {
  std::uint64_t max_round = 0;
  for (std::size_t k = 0; k < slots_.size(); ++k)
    if (slot_done_[k])
      max_round = std::max(max_round, slots_[k].decided_round());
  return max_round;
}

}  // namespace coincidence::session
