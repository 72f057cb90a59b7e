// Bit-identity and dispatch contract of the multi-backend SIMD layer.
//
// Every compiled-in, CPU-supported backend must produce *bit-identical*
// solver state to the scalar backend at one thread, for every kernel
// variant and physics toggle: the vector kernels execute the identical
// per-point IEEE-754 operation sequence (lbm/simd_tile.hpp), thread
// partitions only change which thread processes which point, and within a
// step no point reads a location another point writes. These tests assert
// that exhaustively — backends x threads {1, 2, 8} x {AB, AA} x
// {AoS, SoA} x {float, double} x {plain, LES, pulsatile} — and, on a
// short-span cerebral tree, against the reference path itself; plus the
// resolution rules (explicit > HEMO_SIMD env > widest detected) and
// checkpoint portability across backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "geometry/generators.hpp"
#include "lbm/mesh.hpp"
#include "lbm/simd.hpp"
#include "lbm/solver.hpp"

namespace hemo::lbm {
namespace {

TEST(SimdDispatch, CompiledBackendsAlwaysContainScalar) {
  const auto compiled = simd::compiled_backends();
  ASSERT_FALSE(compiled.empty());
  EXPECT_NE(std::find(compiled.begin(), compiled.end(), Backend::kScalar),
            compiled.end());
  // Widest-first order ends at the scalar fallback.
  EXPECT_EQ(compiled.back(), Backend::kScalar);
}

TEST(SimdDispatch, DetectedIsSubsetOfCompiledAndCpuSupported) {
  const auto compiled = simd::compiled_backends();
  for (const Backend b : simd::detected_backends()) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), b), compiled.end())
        << to_string(b);
    EXPECT_TRUE(simd::cpu_supports(b)) << to_string(b);
  }
}

TEST(SimdDispatch, ParseRoundTripsEveryName) {
  for (const Backend b :
       {Backend::kAuto, Backend::kScalar, Backend::kSSE2, Backend::kAVX2,
        Backend::kAVX512, Backend::kNEON}) {
    const auto parsed = simd::parse_backend(to_string(b));
    ASSERT_TRUE(parsed.has_value()) << to_string(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(simd::parse_backend("AVX2"), Backend::kAVX2);  // case-blind
  EXPECT_FALSE(simd::parse_backend("avx9000").has_value());
  EXPECT_FALSE(simd::parse_backend("").has_value());
}

TEST(SimdDispatch, ResolutionPrecedence) {
  // Explicit request wins (scalar is always available).
  EXPECT_EQ(simd::resolve_backend(Backend::kScalar), Backend::kScalar);
  // kAuto with the environment variable set follows the environment.
  ::setenv("HEMO_SIMD", "scalar", 1);
  EXPECT_EQ(simd::resolve_backend(Backend::kAuto), Backend::kScalar);
  ::setenv("HEMO_SIMD", "bogus", 1);
  EXPECT_THROW((void)simd::resolve_backend(Backend::kAuto), PreconditionError);
  ::unsetenv("HEMO_SIMD");
  // kAuto without the environment variable takes the widest detected
  // backend (never silently something unsupported).
  const auto detected = simd::detected_backends();
  EXPECT_EQ(simd::resolve_backend(Backend::kAuto), detected.front());
}

TEST(SimdDispatch, TileKernelExistsForEveryCompiledBackend) {
  for (const Backend b : simd::compiled_backends()) {
    for (const bool les : {false, true}) {
      for (const bool nt : {false, true}) {
        EXPECT_NE(simd::tile_kernel<float>(b, les, nt), nullptr)
            << to_string(b);
        EXPECT_NE(simd::tile_kernel<double>(b, les, nt), nullptr)
            << to_string(b);
      }
    }
  }
}

TEST(SimdDispatch, LanesMatchVectorWidths) {
  EXPECT_EQ(simd::lanes(Backend::kScalar, 4), 1);
  EXPECT_EQ(simd::lanes(Backend::kScalar, 8), 1);
  EXPECT_EQ(simd::lanes(Backend::kSSE2, 4), 4);
  EXPECT_EQ(simd::lanes(Backend::kAVX2, 8), 4);
  EXPECT_EQ(simd::lanes(Backend::kAVX512, 4), 16);
  EXPECT_EQ(simd::lanes(Backend::kNEON, 8), 2);
}

// ---- Solver-level bit identity ------------------------------------------

enum class Variant { kPlain, kLes, kPulsatile };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kLes: return "les";
    case Variant::kPulsatile: return "pulsatile";
  }
  return "?";
}

geometry::Geometry make_geometry(Variant v) {
  auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  if (v == Variant::kPulsatile) {
    for (auto& inlet : geo.inlets) {
      inlet.pulse_amplitude = 0.4;
      inlet.pulse_period = 10.0;
    }
  }
  return geo;
}

/// One shared mesh: the grid is identical for every variant (only inlet
/// parameters differ), and the solver never mutates it.
const FluidMesh& shared_mesh() {
  static const FluidMesh mesh =
      FluidMesh::build(make_geometry(Variant::kPlain).grid);
  return mesh;
}

SolverParams make_params(Variant v, Layout layout, Propagation prop,
                         Backend backend, index_t threads) {
  SolverParams params;
  params.kernel.layout = layout;
  params.kernel.propagation = prop;
  params.kernel.path = KernelPath::kSegmented;
  params.kernel.backend = backend;
  params.num_threads = threads;
  if (v == Variant::kLes) params.smagorinsky_cs = 0.14;
  return params;
}

/// Canonical state after `steps` (odd, AA mid-parity) plus 4 more (even).
template <typename T>
std::pair<std::vector<T>, std::vector<T>> run_states(
    Variant v, Layout layout, Propagation prop, Backend backend,
    index_t threads) {
  const auto geo = make_geometry(v);
  Solver<T> solver(shared_mesh(),
                   make_params(v, layout, prop, backend, threads),
                   std::span(geo.inlets));
  solver.run(5);
  std::vector<T> odd = solver.export_state();
  solver.run(4);
  return {std::move(odd), solver.export_state()};
}

/// Scalar one-thread baseline, computed once per variant tuple.
template <typename T>
const std::pair<std::vector<T>, std::vector<T>>& baseline(
    Variant v, Layout layout, Propagation prop) {
  using Key = std::tuple<Variant, Layout, Propagation>;
  static std::map<Key, std::pair<std::vector<T>, std::vector<T>>> cache;
  auto [it, fresh] = cache.try_emplace(Key{v, layout, prop});
  if (fresh) {
    it->second = run_states<T>(v, layout, prop, Backend::kScalar, 1);
  }
  return it->second;
}

template <typename T>
std::size_t count_bit_mismatches(const std::vector<T>& a,
                                 const std::vector<T>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    // Bit comparison, not ==: distinguishes -0.0 / NaN patterns.
    if (std::memcmp(&a[k], &b[k], sizeof(T)) != 0) ++mismatches;
  }
  return mismatches;
}

template <typename T>
void expect_matches_scalar(Variant v, Layout layout, Propagation prop,
                           Backend backend, index_t threads) {
  const auto& ref = baseline<T>(v, layout, prop);
  const auto got = run_states<T>(v, layout, prop, backend, threads);
  EXPECT_EQ(count_bit_mismatches(ref.first, got.first), 0u)
      << variant_name(v) << " " << to_string(prop) << " "
      << to_string(layout) << " " << to_string(backend) << " threads="
      << threads << " diverged at the odd checkpoint";
  EXPECT_EQ(count_bit_mismatches(ref.second, got.second), 0u)
      << variant_name(v) << " " << to_string(prop) << " "
      << to_string(layout) << " " << to_string(backend) << " threads="
      << threads << " diverged at the even checkpoint";
}

class SimdBackendBitIdentity
    : public ::testing::TestWithParam<std::tuple<Backend, index_t>> {};

TEST_P(SimdBackendBitIdentity, MatchesScalarSingleThreadEverywhere) {
  const auto [backend, threads] = GetParam();
  if (!simd::cpu_supports(backend) ||
      simd::tile_kernel<float>(backend, false, false) == nullptr) {
    GTEST_SKIP() << to_string(backend) << " not available on this host";
  }
  for (const Variant v :
       {Variant::kPlain, Variant::kLes, Variant::kPulsatile}) {
    for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
      for (const Propagation prop : {Propagation::kAB, Propagation::kAA}) {
        expect_matches_scalar<float>(v, layout, prop, backend, threads);
        expect_matches_scalar<double>(v, layout, prop, backend, threads);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SimdBackendBitIdentity,
    ::testing::Combine(::testing::Values(Backend::kSSE2, Backend::kAVX2,
                                         Backend::kAVX512, Backend::kNEON),
                       ::testing::Values(index_t{1}, index_t{2}, index_t{8})),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SimdBackends, EffectiveBackendIsResolvedOnTheSegmentedPath) {
  const auto geo = make_geometry(Variant::kPlain);
  // Segmented path, either layout: the request is resolved for real (AoS
  // stages its points through the same tile kernels).
  for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
    SolverParams params = make_params(Variant::kPlain, layout,
                                      Propagation::kAB, Backend::kAuto, 1);
    Solver<double> solver(shared_mesh(), params, std::span(geo.inlets));
    EXPECT_EQ(solver.backend(), simd::detected_backends().front())
        << to_string(layout);
    EXPECT_EQ(solver.threads(), 1);
  }
  // Reference path: the scalar oracle, whatever was requested.
  SolverParams ref = make_params(Variant::kPlain, Layout::kAoS,
                                 Propagation::kAB, Backend::kAuto, 1);
  ref.kernel.path = KernelPath::kReference;
  Solver<double> ref_solver(shared_mesh(), ref, std::span(geo.inlets));
  EXPECT_EQ(ref_solver.backend(), Backend::kScalar);
}

// ---- Short spans against the reference path ------------------------------
//
// A small cerebral tree: its bulk spans average about 1.4 points and most
// of its points are walls, so nearly every staged tile and vector group
// takes points from several spans or wall rows. Every detected backend,
// on both layouts and at 1 and 3 threads, must match the scalar reference
// path bit for bit.

const geometry::Geometry& cerebral_geometry(Variant v) {
  static const std::map<Variant, geometry::Geometry> geos = [] {
    std::map<Variant, geometry::Geometry> out;
    for (const Variant variant :
         {Variant::kPlain, Variant::kLes, Variant::kPulsatile}) {
      auto geo = geometry::make_cerebral(
          {.root_radius = 4.0, .depth = 3, .segment_length = 14.0});
      if (variant == Variant::kPulsatile) {
        for (auto& inlet : geo.inlets) {
          inlet.pulse_amplitude = 0.4;
          inlet.pulse_period = 10.0;
        }
      }
      out.emplace(variant, std::move(geo));
    }
    return out;
  }();
  return geos.at(v);
}

/// The cerebral mesh, plain or periodic along every axis (the body-force
/// case: wrapped links give spans and walls offsets of their own).
const FluidMesh& cerebral_mesh(bool periodic) {
  static const FluidMesh plain =
      FluidMesh::build(cerebral_geometry(Variant::kPlain).grid);
  static const FluidMesh wrapped = FluidMesh::build(
      cerebral_geometry(Variant::kPlain).grid,
      MeshOptions{.periodic_x = true, .periodic_y = true, .periodic_z = true});
  return periodic ? wrapped : plain;
}

template <typename T>
void expect_cerebral_matches_reference(Variant v, bool periodic,
                                       Layout layout, Propagation prop) {
  const auto& geo = cerebral_geometry(v);
  const auto run = [&](KernelPath path, Backend backend, index_t threads) {
    SolverParams params = make_params(v, layout, prop, backend, threads);
    params.kernel.path = path;
    if (periodic) params.body_force = {2e-5, -1e-5, 3e-5};
    Solver<T> solver(cerebral_mesh(periodic), params, std::span(geo.inlets));
    solver.run(5);
    std::vector<T> odd = solver.export_state();
    solver.run(4);
    return std::pair{std::move(odd), solver.export_state()};
  };
  const auto ref = run(KernelPath::kReference, Backend::kScalar, 1);
  for (const Backend b : simd::detected_backends()) {
    for (const index_t threads : {index_t{1}, index_t{3}}) {
      const auto got = run(KernelPath::kSegmented, b, threads);
      const std::string where =
          std::string(variant_name(v)) + (periodic ? " periodic " : " ") +
          to_string(prop) + " " + to_string(layout) + " " + to_string(b) +
          " threads=" + std::to_string(threads) +
          (sizeof(T) == 4 ? " float" : " double");
      EXPECT_EQ(count_bit_mismatches(ref.first, got.first), 0u)
          << where << " diverged at the odd checkpoint";
      EXPECT_EQ(count_bit_mismatches(ref.second, got.second), 0u)
          << where << " diverged at the even checkpoint";
    }
  }
}

TEST(SimdBackends, CerebralMatchesReferencePathOnEveryBackend) {
  for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
    for (const Propagation prop : {Propagation::kAB, Propagation::kAA}) {
      for (const Variant v :
           {Variant::kPlain, Variant::kLes, Variant::kPulsatile}) {
        expect_cerebral_matches_reference<double>(v, false, layout, prop);
        expect_cerebral_matches_reference<float>(v, false, layout, prop);
      }
      expect_cerebral_matches_reference<double>(Variant::kPlain, true,
                                                layout, prop);
      expect_cerebral_matches_reference<float>(Variant::kPlain, true,
                                               layout, prop);
    }
  }
}

TEST(SimdBackends, CheckpointsArePortableAcrossBackends) {
  // A state exported under one backend must restore and continue under
  // any other backend to the bit — checkpoints carry no backend imprint.
  const auto geo = make_geometry(Variant::kPlain);
  for (const Propagation prop : {Propagation::kAB, Propagation::kAA}) {
    SolverParams scalar_params = make_params(
        Variant::kPlain, Layout::kSoA, prop, Backend::kScalar, 1);
    Solver<double> scalar(shared_mesh(), scalar_params,
                          std::span(geo.inlets));
    scalar.run(6);
    const std::vector<double> snapshot = scalar.export_state();
    scalar.run(4);
    const std::vector<double> expected = scalar.export_state();

    for (const Backend b : simd::detected_backends()) {
      SolverParams params =
          make_params(Variant::kPlain, Layout::kSoA, prop, b, 1);
      Solver<double> other(shared_mesh(), params, std::span(geo.inlets));
      other.restore_state(snapshot, 6);
      other.run(4);
      EXPECT_EQ(count_bit_mismatches(expected, other.export_state()), 0u)
          << to_string(prop) << " restored into " << to_string(b);
    }
  }
}

}  // namespace
}  // namespace hemo::lbm
