// Runtime-selected multi-backend SIMD dispatch for the segmented path's
// tile kernels.
//
// The portability layer has three parts:
//  * compile-time backend inventory — each explicit-intrinsic variant of
//    the bulk tile kernel lives in its own translation unit compiled with
//    exactly the ISA flags it needs (src/lbm/simd_*.cpp, wired up in
//    src/lbm/CMakeLists.txt under the HEMO_SIMD cache variable), so the
//    rest of the tree stays at the portable baseline architecture;
//  * CPUID runtime detection — detected_backends() intersects the
//    compiled-in set with what the running CPU reports, so a binary built
//    with AVX-512 kernels still runs (on the widest supported backend) on
//    a host without them;
//  * resolution — resolve_backend() turns a KernelConfig request into the
//    backend Solver<T>::bind_kernels() actually binds: an explicit request
//    must be compiled in and CPU-supported (hard error otherwise, never a
//    silent fallback), kAuto honours the HEMO_SIMD environment variable
//    and otherwise picks the widest detected backend.
//
// Bit-identity contract: every backend performs the identical per-point
// IEEE-754 operation sequence of lbm/point_update.hpp — vector lanes are
// independent, no reassociation, no FMA contraction (all kernel TUs are
// compiled with the same -ffp-contract=off flag) — so switching backends
// or thread counts never changes a single bit of solver state. Enforced
// exhaustively by tests/test_simd_backends.cpp.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lbm/kernel_config.hpp"
#include "lbm/lattice.hpp"
#include "util/common.hpp"

namespace hemo::lbm::simd {

/// Signature of a tile kernel: per-direction source/destination stream
/// pointers, each contiguous over the w points (an RLE span of the SoA
/// array, or a staged stack tile; src may equal dst), BGK omega, the
/// forcing velocity shift, and the squared Smagorinsky constant (used
/// only by the LES instantiations).
template <typename T>
using TileFn = void (*)(const T* const* src, T* const* dst, index_t w,
                        T omega, const std::array<T, 3>& force_shift, T cs2);

/// Backends compiled into this binary, widest first. Always contains
/// Backend::kScalar.
[[nodiscard]] std::vector<Backend> compiled_backends();

/// True when the running CPU can execute backend `b` (CPUID on x86;
/// compile-time fact on AArch64). kScalar is always supported.
[[nodiscard]] bool cpu_supports(Backend b);

/// Compiled-in backends the running CPU supports, widest first.
[[nodiscard]] std::vector<Backend> detected_backends();

/// Parses a backend name ("auto", "scalar", "sse2", "avx2", "avx512",
/// "neon", case-insensitive); nullopt for anything else.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

/// Resolves a KernelConfig backend request to the backend to bind.
/// Precedence: an explicit (non-kAuto) request wins and must be compiled
/// in and CPU-supported (hard error otherwise — tests and benchmarks that
/// pin a backend must never be silently redirected); kAuto defers to the
/// HEMO_SIMD environment variable when set (same validation), and
/// otherwise selects the widest detected backend.
[[nodiscard]] Backend resolve_backend(Backend requested);

/// Tile kernel for (backend, LES mode, non-temporal stores). Returns
/// nullptr when the backend is not compiled into this binary. `nt_stores`
/// selects a variant that uses streaming stores for full-width aligned
/// destination vectors (AB back-array only — callers must issue
/// store_fence() before any cross-thread hand-off of the written data).
template <typename T>
[[nodiscard]] TileFn<T> tile_kernel(Backend b, bool with_les, bool nt_stores);

/// Orders non-temporal stores issued by the calling thread ahead of its
/// later normal stores (x86 sfence). Required between an NT-store kernel
/// and the barrier/flag that publishes the data to other threads; no-op
/// for backends without streaming stores.
void store_fence(Backend b) noexcept;

/// Vector lanes backend `b` processes per operation for a value of
/// `bytes` (4 or 8). 1 for kScalar (the portable tile autovectorizes at
/// whatever width the baseline ISA offers, but its contract is lane-1).
[[nodiscard]] index_t lanes(Backend b, index_t bytes) noexcept;

}  // namespace hemo::lbm::simd
