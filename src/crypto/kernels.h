// Compute kernels behind SHA-256 and the Reed–Solomon codec (detail).
//
// Each kernel has a portable scalar version and, on x86, an accelerated
// one built with a per-function target attribute (the rest of the build
// stays baseline x86-64). The dispatched kernel is chosen once, on first
// use, by CPUID: SHA-NI for the SHA-256 compression, AVX2 for the
// GF(2^8) multiply-accumulate; hosts without the instructions, and
// non-x86 builds, take the scalar code. Both versions of a kernel
// compute the same bytes, so the choice never reaches a word, a decision
// or a trace byte.
//
// The library calls only the dispatched entry points. The scalar and
// accelerated ones are exposed so tests can hold each fast path against
// its scalar oracle and benches can price both on one host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace coincidence::crypto::detail {

/// Runs the SHA-256 compression over `blocks` consecutive 64-byte
/// blocks at `data` (any alignment), updating the eight-word state.
using Sha256BlocksFn = void (*)(std::uint32_t state[8],
                                const std::uint8_t* data, std::size_t blocks);

void sha256_blocks_scalar(std::uint32_t state[8], const std::uint8_t* data,
                          std::size_t blocks);

/// The SHA-NI compression, or nullptr when the build or the CPU lacks it.
Sha256BlocksFn sha256_blocks_shani();

/// The compression Sha256 uses: SHA-NI when present, else scalar.
Sha256BlocksFn sha256_blocks();

/// dst[j] ^= w · src[j] in GF(2^8) (modulus 0x11d) for j < len. `dst`
/// and `src` must not overlap.
using Gf256MulAccFn = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                               std::size_t len, std::uint8_t w);

/// Split-nibble table lookups, one byte at a time.
void gf256_mul_acc_scalar(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t len, std::uint8_t w);

/// The AVX2 `pshufb` kernel over the same tables, or nullptr when the
/// build or the CPU lacks AVX2.
Gf256MulAccFn gf256_mul_acc_avx2();

/// The multiply-accumulate ReedSolomon uses: AVX2 when present, else
/// scalar.
Gf256MulAccFn gf256_mul_acc();

}  // namespace coincidence::crypto::detail
