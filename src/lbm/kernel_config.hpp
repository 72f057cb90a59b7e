// Kernel taxonomy of the paper's two codes.
//
// lbm-proxy-app exposes AA/AB propagation patterns, AoS/SoA data layouts and
// (for SoA) unrolled or plain inner loops; HARVEY uses the fused AB kernel
// with AoS. Each combination has distinct memory traffic (Eq. 9) and
// per-point loop overhead, which drive both the virtual-cluster "measured"
// time and the performance-model predictions.
#pragma once

#include <string>

#include "util/common.hpp"

namespace hemo::lbm {

/// Memory layout of the distribution array.
enum class Layout {
  kAoS,  ///< f[point][direction] — contiguous per point (CPU-friendly)
  kSoA,  ///< f[direction][point] — contiguous per direction (GPU-friendly)
};

/// Propagation (streaming) pattern.
enum class Propagation {
  kAB,  ///< two arrays: read A, write B, swap each step
  kAA,  ///< one array: direction-swapped writes, even/odd step pair
};

/// Inner-loop code generation of the kernel.
enum class Unroll {
  kNo,   ///< runtime loop over the 19 directions
  kYes,  ///< fully unrolled at compile time
};

/// Floating-point precision of the distribution array.
enum class Precision {
  kSingle,  ///< 4-byte float
  kDouble,  ///< 8-byte double
};

/// Hot-path implementation of the serial solver.
enum class KernelPath {
  kReference,  ///< one fused loop, per-point neighbor gather + type branch
  kSegmented,  ///< segment-reordered mesh, SIMD tile kernels
};

/// SIMD backend of the segmented path's tile kernels (lbm/simd.hpp). Every
/// backend executes the identical per-point IEEE operation sequence, so
/// all of them produce bit-identical state (asserted by
/// tests/test_simd_backends.cpp); the choice only moves throughput.
enum class Backend {
  kAuto,    ///< resolve at bind time: HEMO_SIMD env, else best detected
  kScalar,  ///< portable autovectorized tile (always compiled)
  kSSE2,    ///< 128-bit x86 vectors (baseline on x86-64)
  kAVX2,    ///< 256-bit x86 vectors, masked tails
  kAVX512,  ///< 512-bit x86 vectors, native masked tails
  kNEON,    ///< 128-bit AArch64 vectors
};

/// Full kernel configuration.
struct KernelConfig {
  Layout layout = Layout::kAoS;
  Propagation propagation = Propagation::kAB;
  Unroll unroll = Unroll::kYes;
  Precision precision = Precision::kDouble;
  /// Both paths produce bit-identical distribution state (asserted by
  /// tests/test_kernel_paths.cpp); kSegmented is the production default,
  /// kReference is retained as the differential oracle and model anchor.
  KernelPath path = KernelPath::kSegmented;
  /// SIMD backend request; the segmented path dispatches on it, either
  /// layout (the reference path always runs the portable code). An
  /// explicit value must name a compiled-in, CPU-supported backend.
  Backend backend = Backend::kAuto;

  friend bool operator==(const KernelConfig&, const KernelConfig&) = default;
};

/// Bytes per distribution value for a precision (d_size in Eq. 9).
[[nodiscard]] constexpr index_t data_size(Precision p) noexcept {
  return p == Precision::kSingle ? 4 : 8;
}

[[nodiscard]] std::string to_string(Layout l);
[[nodiscard]] std::string to_string(Propagation p);
[[nodiscard]] std::string to_string(Unroll u);
[[nodiscard]] std::string to_string(Precision p);
[[nodiscard]] std::string to_string(KernelPath p);
[[nodiscard]] std::string to_string(Backend b);

/// Short display name, e.g. "AA-SoA-unrolled". The default (segmented)
/// path is unsuffixed so model tables and golden files keep their names;
/// the reference path reads "AB-AoS-unrolled-ref".
[[nodiscard]] std::string kernel_name(const KernelConfig& config);

}  // namespace hemo::lbm
