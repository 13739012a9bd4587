// Direct calls into the crypto and codec layers at the workloads' shapes:
// the per-operation costs the traced run's counts multiply against.
#pragma once

#include <cstdint>

#include "core/env.h"

namespace perfbench {

using namespace coincidence;

struct MicroCosts {
  double sha256_ns_per_block = 0;
  double sig_verify_ns = 0;
  double vrf_verify_us = 0;
  double vrf_batch_verify_us_per_entry = 0;  // k = 64
  double rs_encode_us = 0;
  double rs_decode_us = 0;
  double merkle_build_us = 0;
  double merkle_verify_us = 0;
};

/// Times each primitive for about `budget_s` seconds in total. The VRF
/// and signer are `env`'s (the workload's own backend); the codec runs at
/// the proposal-dissemination shape n = 48, k = f + 1 on a real 64-request
/// (~2 KB) batch.
MicroCosts measure_micro(const core::Env& env, double budget_s);

}  // namespace perfbench
