#include "lbm/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "lbm/point_update.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef HEMO_OBS_DETAIL
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#endif

namespace hemo::lbm {

namespace {

/// Calling thread's (id, team size); (0, 1) outside a parallel region or
/// in a build without OpenMP.
[[nodiscard]] inline std::pair<int, int> omp_ids() noexcept {
#ifdef _OPENMP
  return {omp_get_thread_num(), omp_get_num_threads()};
#else
  return {0, 1};
#endif
}

/// Contiguous range of [0, n) owned by thread tid of nt — the same
/// partition OpenMP's schedule(static) produces, shared by the first-touch
/// initialization and the step kernels so pages stay local to the thread
/// that streams them.
[[nodiscard]] inline std::pair<index_t, index_t> static_chunk(
    index_t n, int tid, int nt) noexcept {
  const index_t threads = static_cast<index_t>(nt);
  const index_t chunk = (n + threads - 1) / threads;
  const index_t lo = std::min(n, chunk * static_cast<index_t>(tid));
  return {lo, std::min(n, lo + chunk)};
}

}  // namespace

template <typename T>
Solver<T>::Solver(const FluidMesh& mesh, const SolverParams& params,
                  std::span<const geometry::InletSpec> inlets)
    : mesh_(&mesh), params_(params), n_(mesh.num_points()) {
  HEMO_REQUIRE(n_ > 0, "empty mesh");
  if (params_.kernel.path == KernelPath::kSegmented) {
    seg_ = std::make_unique<SegmentedMesh>(SegmentedMesh::build(mesh));
  }
  setup(inlets, {});
}

template <typename T>
Solver<T>::Solver(const FluidMesh& mesh, const SolverParams& params,
                  std::span<const geometry::InletSpec> inlets,
                  std::span<const index_t> owned,
                  std::span<const index_t> ghosts)
    : mesh_(&mesh),
      params_(params),
      n_(static_cast<index_t>(owned.size() + ghosts.size())) {
  HEMO_REQUIRE(params_.kernel.path == KernelPath::kSegmented,
               "a rank-local solver needs the segmented kernel path");
  seg_ = std::make_unique<SegmentedMesh>(
      SegmentedMesh::build(mesh, owned, ghosts));
  setup(inlets, owned);
}

template <typename T>
void Solver<T>::setup(std::span<const geometry::InletSpec> inlets,
                      std::span<const index_t> owned) {
  HEMO_REQUIRE(params_.tau > 0.5, "tau must exceed 0.5 for stability");
  omega_ = static_cast<T>(1.0 / params_.tau);
  cs2_ = static_cast<T>(params_.smagorinsky_cs * params_.smagorinsky_cs);

  f_.resize(static_cast<std::size_t>(n_ * kQ));
  if (params_.kernel.propagation == Propagation::kAB) {
    f2_.resize(static_cast<std::size_t>(n_ * kQ));
  }

  // Inlet velocity targets from the Poiseuille profiles: a row per point
  // on the reference path, per open position (in position order) on the
  // segmented path.
  const auto add_bc_row = [&](index_t s) {
    const index_t p = owned.empty() ? s : owned[static_cast<std::size_t>(s)];
    bc_velocity_.push_back(inlet_velocity<T>(*mesh_, p, inlets));
    bc_pulse_.push_back(inlet_pulse_params<T>(*mesh_, p, inlets));
  };
  if (seg_) {
    for (const SegmentPass& r : {seg_->interior(), seg_->frontier()}) {
      for (index_t i = r.wall_end; i < r.end; ++i) {
        add_bc_row(seg_->point_at(i));
      }
    }
  } else {
    for (index_t p = 0; p < n_; ++p) add_bc_row(p);
  }
  for (std::size_t d = 0; d < 3; ++d) {
    force_shift_[d] = static_cast<T>(params_.tau * params_.body_force[d]);
  }
  HEMO_REQUIRE(params_.num_threads >= 0, "negative num_threads");
#ifdef _OPENMP
  threads_ = params_.num_threads > 0
                 ? params_.num_threads
                 : static_cast<index_t>(omp_get_max_threads());
#else
  threads_ = 1;
#endif
  bind_kernels();
  initialize();
}

template <typename T>
void Solver<T>::initialize() {
  const Layout layout = params_.kernel.layout;
  // Rest equilibrium is point-independent, so the only thing the loop
  // structure decides is which thread first-touches which pages; mirror
  // the step kernels' partition (each pass's thread_share() on the
  // segmented path, then the ghost rows; one static loop on the reference
  // path).
  std::array<T, kQ> rest;
  for (index_t q = 0; q < kQ; ++q) {
    rest[static_cast<std::size_t>(q)] =
        equilibrium<T>(q, T{1}, T{0}, T{0}, T{0});
  }
  const auto init_position = [&](index_t i) {
    for (index_t q = 0; q < kQ; ++q) {
      const T feq = rest[static_cast<std::size_t>(q)];
      const auto slot = static_cast<std::size_t>(state_index(layout, n_, i, q));
      f_[slot] = feq;
      if (!f2_.empty()) f2_[slot] = feq;
    }
  };
  if (seg_) {
#ifdef _OPENMP
#pragma omp parallel num_threads(static_cast<int>(threads_))
#endif
    {
      const auto [tid, nt] = omp_ids();
      const auto init_range = [&](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) init_position(i);
      };
      for (const Pass& pass : passes_) {
        thread_share(pass, tid, nt, init_range, init_range, init_range);
      }
      const index_t owned = seg_->num_owned();
      const auto [glo, ghi] = static_chunk(n_ - owned, tid, nt);
      for (index_t i = owned + glo; i < owned + ghi; ++i) init_position(i);
    }
  } else {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
    for (index_t i = 0; i < n_; ++i) init_position(i);
  }
  timestep_ = 0;
}

template <typename T>
void Solver<T>::update_point(PointType type, index_t bc_row, const T* g,
                             T* out) const {
  std::array<T, 3> bc = bc_velocity_[static_cast<std::size_t>(bc_row)];
  const auto& pulse = bc_pulse_[static_cast<std::size_t>(bc_row)];
  if (pulse[0] != T{0}) {
    const T scale = pulse_scale<T>(pulse[0], pulse[1], timestep_);
    for (auto& component : bc) component *= scale;
  }
  update_point_values<T>(type, g, out, omega_, bc, force_shift_, cs2_);
}

template <typename T>
index_t Solver<T>::open_row(index_t i) const noexcept {
  const SegmentPass& interior = seg_->interior();
  return i < interior.end
             ? i - interior.wall_end
             : interior.end - interior.wall_end + i - seg_->frontier().wall_end;
}

// Parallelization notes: in the AB pull kernel every point writes only its
// own row of the back buffer; in the AA even kernel every point reads and
// writes only its own row; in the AA odd kernel every array location is
// read and written by exactly one point (the reader is the writer — see
// the derivation in tests/test_solver.cpp and DESIGN.md), so all three
// loops are race-free under OpenMP with per-iteration locals — and, for
// the same reason, splitting a step into bulk and boundary ranges of an
// interior and a frontier pass (segmented path) cannot change the result:
// no point's gather reads a location another point writes within the same
// step.

template <typename T>
template <Layout L>
void Solver<T>::step_ab(const Pass& pass) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t p = pass.range.begin; p < pass.range.end; ++p) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = mesh_->neighbor(p, opposite(q));
      g[q] = nb != kSolidLink
                 ? f_[static_cast<std::size_t>(idx<L>(nb, q))]
                 : f_[static_cast<std::size_t>(idx<L>(p, opposite(q)))];
    }
    update_point(mesh_->type(p), p, g, out);
    for (index_t q = 0; q < kQ; ++q) {
      f2_[static_cast<std::size_t>(idx<L>(p, q))] = out[q];
    }
  }
}

template <typename T>
template <Layout L>
void Solver<T>::step_aa_even(const Pass& pass) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t p = pass.range.begin; p < pass.range.end; ++p) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      g[q] = f_[static_cast<std::size_t>(idx<L>(p, q))];
    }
    update_point(mesh_->type(p), p, g, out);
    for (index_t q = 0; q < kQ; ++q) {
      f_[static_cast<std::size_t>(idx<L>(p, opposite(q)))] = out[q];
    }
  }
}

template <typename T>
template <Layout L>
void Solver<T>::step_aa_odd(const Pass& pass) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t p = pass.range.begin; p < pass.range.end; ++p) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t m = mesh_->neighbor(p, opposite(q));
      g[q] = m != kSolidLink
                 ? f_[static_cast<std::size_t>(idx<L>(m, opposite(q)))]
                 : f_[static_cast<std::size_t>(idx<L>(p, q))];
    }
    update_point(mesh_->type(p), p, g, out);
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = mesh_->neighbor(p, q);
      if (nb != kSolidLink) {
        f_[static_cast<std::size_t>(idx<L>(nb, q))] = out[q];
      } else {
        f_[static_cast<std::size_t>(idx<L>(p, opposite(q)))] = out[q];
      }
    }
  }
}

// ---- Segmented path ------------------------------------------------------
//
// Every bulk-interior and wall point runs the interior arithmetic through
// the bound backend tile kernel (tile_fn_, lbm/simd.hpp). Inside an RLE
// span every neighbor is position + constant offset, so on SoA each
// direction of a span is one unit-stride stream and the tile kernel reads
// and writes the distribution array directly. Everything else — AoS bulk
// points, and wall points on either layout — is staged: kStage points are
// gathered into a direction-major stack tile, relaxed in place by the
// tile kernel, and scattered back. A tile may take points from several
// consecutive spans, each with its own offsets, so short spans still fill
// whole vectors. Wall points gather through the neighbor table with
// bounce-back substituted for the solid links. Only open points (inlets,
// outlets) take the per-point path with its boundary-type switch.

template <typename T>
template <typename Gather, typename Scatter>
void Solver<T>::staged(index_t lo, index_t hi, Gather&& gather,
                       Scatter&& scatter) {
  // In place: every vector group of the tile kernel loads all kQ
  // directions before it stores any, and a tile is gathered whole before
  // any of it is scattered. The AA sweeps stay safe in place for the same
  // reason their direct kernels are: each location's reader is its
  // writer.
  alignas(64) Tile tile;
  T* rows[kQ];
  for (index_t q = 0; q < kQ; ++q) rows[q] = tile[q];
  for (index_t t0 = lo; t0 < hi; t0 += kStage) {
    const index_t w = std::min(kStage, hi - t0);
    gather(t0, w, tile);
    tile_fn_(rows, rows, w, omega_, force_shift_, cs2_);
    scatter(t0, w, tile);
  }
}

template <typename T>
template <Layout L>
void Solver<T>::store_rows(T* f, index_t t0, index_t w,
                           const Tile& tile) const {
  for (index_t k = 0; k < w; ++k) {
    for (index_t q = 0; q < kQ; ++q) {
      f[static_cast<std::size_t>(idx<L>(t0 + k, q))] = tile[q][k];
    }
  }
}

template <typename T>
template <typename Fn>
void Solver<T>::for_span_pieces(index_t lo, index_t hi, Fn&& fn) const {
  const auto& spans = seg_->spans();
  auto it = std::upper_bound(
      spans.begin(), spans.end(), lo,
      [](index_t v, const SegmentSpan& s) { return v < s.begin + s.length; });
  for (; it != spans.end() && it->begin < hi; ++it) {
    fn(std::max(lo, it->begin), std::min(hi, it->begin + it->length),
       it->offsets);
  }
}

template <typename T>
template <Layout L>
void Solver<T>::seg_bulk_ab(index_t lo, index_t hi) {
  const T* const f = f_.data();
  T* const f2 = f2_.data();
  if constexpr (L == Layout::kSoA) {
    const simd::TileFn<T> fn = nt_stores_ ? tile_fn_nt_ : tile_fn_;
    for_span_pieces(lo, hi, [&](index_t s0, index_t s1, const auto& off) {
      const T* src[kQ];
      T* dst[kQ];
      for (index_t q = 0; q < kQ; ++q) {
        const index_t from =
            s0 + static_cast<index_t>(
                     off[static_cast<std::size_t>(opposite(q))]);
        src[q] = f + static_cast<std::size_t>(idx<L>(from, q));
        dst[q] = f2 + static_cast<std::size_t>(idx<L>(s0, q));
      }
      fn(src, dst, s1 - s0, omega_, force_shift_, cs2_);
    });
  } else {
    staged(
        lo, hi,
        [&](index_t t0, index_t w, Tile& tile) {
          for_span_pieces(t0, t0 + w, [&](index_t s0, index_t s1,
                                          const auto& off) {
            for (index_t q = 0; q < kQ; ++q) {
              const index_t from =
                  s0 + static_cast<index_t>(
                           off[static_cast<std::size_t>(opposite(q))]);
              T* row = tile[q] + (s0 - t0);
              for (index_t k = 0; k < s1 - s0; ++k) {
                row[k] = f[static_cast<std::size_t>(idx<L>(from + k, q))];
              }
            }
          });
        },
        [&](index_t t0, index_t w, const Tile& tile) {
          store_rows<L>(f2, t0, w, tile);
        });
  }
}

template <typename T>
template <Layout L>
void Solver<T>::seg_rows_aa_even(index_t lo, index_t hi) {
  // The even AA step touches only the point's own row (bounce-back folds
  // into the opposite-slot write), so bulk and wall points update alike
  // and spans are irrelevant here. Never NT — the data is re-read next
  // step.
  T* const f = f_.data();
  if constexpr (L == Layout::kSoA) {
    const T* src[kQ];
    T* dst[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      src[q] = f + static_cast<std::size_t>(idx<L>(lo, q));
      dst[q] = f + static_cast<std::size_t>(idx<L>(lo, opposite(q)));
    }
    tile_fn_(src, dst, hi - lo, omega_, force_shift_, cs2_);
  } else {
    staged(
        lo, hi,
        [&](index_t t0, index_t w, Tile& tile) {
          for (index_t k = 0; k < w; ++k) {
            for (index_t q = 0; q < kQ; ++q) {
              tile[q][k] = f[static_cast<std::size_t>(idx<L>(t0 + k, q))];
            }
          }
        },
        [&](index_t t0, index_t w, const Tile& tile) {
          for (index_t k = 0; k < w; ++k) {
            for (index_t q = 0; q < kQ; ++q) {
              f[static_cast<std::size_t>(idx<L>(t0 + k, opposite(q)))] =
                  tile[q][k];
            }
          }
        });
  }
}

template <typename T>
template <Layout L>
void Solver<T>::seg_bulk_aa_odd(index_t lo, index_t hi) {
  // In place; never NT.
  T* const f = f_.data();
  if constexpr (L == Layout::kSoA) {
    for_span_pieces(lo, hi, [&](index_t s0, index_t s1, const auto& off) {
      const T* src[kQ];
      T* dst[kQ];
      for (index_t q = 0; q < kQ; ++q) {
        const index_t opp = opposite(q);
        const index_t from =
            s0 + static_cast<index_t>(off[static_cast<std::size_t>(opp)]);
        const index_t to =
            s0 + static_cast<index_t>(off[static_cast<std::size_t>(q)]);
        src[q] = f + static_cast<std::size_t>(idx<L>(from, opp));
        dst[q] = f + static_cast<std::size_t>(idx<L>(to, q));
      }
      tile_fn_(src, dst, s1 - s0, omega_, force_shift_, cs2_);
    });
  } else {
    staged(
        lo, hi,
        [&](index_t t0, index_t w, Tile& tile) {
          for_span_pieces(t0, t0 + w, [&](index_t s0, index_t s1,
                                          const auto& off) {
            for (index_t q = 0; q < kQ; ++q) {
              const index_t opp = opposite(q);
              const index_t from =
                  s0 + static_cast<index_t>(off[static_cast<std::size_t>(opp)]);
              T* row = tile[q] + (s0 - t0);
              for (index_t k = 0; k < s1 - s0; ++k) {
                row[k] = f[static_cast<std::size_t>(idx<L>(from + k, opp))];
              }
            }
          });
        },
        [&](index_t t0, index_t w, const Tile& tile) {
          for_span_pieces(t0, t0 + w, [&](index_t s0, index_t s1,
                                          const auto& off) {
            for (index_t q = 0; q < kQ; ++q) {
              const index_t to =
                  s0 + static_cast<index_t>(off[static_cast<std::size_t>(q)]);
              const T* row = tile[q] + (s0 - t0);
              for (index_t k = 0; k < s1 - s0; ++k) {
                f[static_cast<std::size_t>(idx<L>(to + k, q))] = row[k];
              }
            }
          });
        });
  }
}

template <typename T>
template <Layout L>
void Solver<T>::seg_walls_ab(index_t lo, index_t hi) {
  const T* const f = f_.data();
  T* const f2 = f2_.data();
  staged(
      lo, hi,
      [&](index_t t0, index_t w, Tile& tile) {
        for (index_t k = 0; k < w; ++k) {
          const index_t i = t0 + k;
          for (index_t q = 0; q < kQ; ++q) {
            const std::int32_t nb = seg_->neighbor(i, opposite(q));
            tile[q][k] = nb != kSolidLink
                             ? f[static_cast<std::size_t>(idx<L>(nb, q))]
                             : f[static_cast<std::size_t>(
                                   idx<L>(i, opposite(q)))];
          }
        }
      },
      [&](index_t t0, index_t w, const Tile& tile) {
        store_rows<L>(f2, t0, w, tile);
      });
}

template <typename T>
template <Layout L>
void Solver<T>::seg_walls_aa_odd(index_t lo, index_t hi) {
  T* const f = f_.data();
  staged(
      lo, hi,
      [&](index_t t0, index_t w, Tile& tile) {
        for (index_t k = 0; k < w; ++k) {
          const index_t i = t0 + k;
          for (index_t q = 0; q < kQ; ++q) {
            const std::int32_t m = seg_->neighbor(i, opposite(q));
            tile[q][k] = m != kSolidLink
                             ? f[static_cast<std::size_t>(
                                   idx<L>(m, opposite(q)))]
                             : f[static_cast<std::size_t>(idx<L>(i, q))];
          }
        }
      },
      [&](index_t t0, index_t w, const Tile& tile) {
        for (index_t k = 0; k < w; ++k) {
          const index_t i = t0 + k;
          for (index_t q = 0; q < kQ; ++q) {
            const std::int32_t nb = seg_->neighbor(i, q);
            const index_t to = nb != kSolidLink ? idx<L>(nb, q)
                                                : idx<L>(i, opposite(q));
            f[static_cast<std::size_t>(to)] = tile[q][k];
          }
        }
      });
}

template <typename T>
template <Layout L>
void Solver<T>::seg_open_ab(index_t lo, index_t hi) {
  for (index_t i = lo; i < hi; ++i) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = seg_->neighbor(i, opposite(q));
      g[q] = nb != kSolidLink
                 ? f_[static_cast<std::size_t>(idx<L>(nb, q))]
                 : f_[static_cast<std::size_t>(idx<L>(i, opposite(q)))];
    }
    update_point(seg_->type(i), open_row(i), g, out);
    for (index_t q = 0; q < kQ; ++q) {
      f2_[static_cast<std::size_t>(idx<L>(i, q))] = out[q];
    }
  }
}

template <typename T>
template <Layout L>
void Solver<T>::seg_open_aa_even(index_t lo, index_t hi) {
  for (index_t i = lo; i < hi; ++i) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      g[q] = f_[static_cast<std::size_t>(idx<L>(i, q))];
    }
    update_point(seg_->type(i), open_row(i), g, out);
    for (index_t q = 0; q < kQ; ++q) {
      f_[static_cast<std::size_t>(idx<L>(i, opposite(q)))] = out[q];
    }
  }
}

template <typename T>
template <Layout L>
void Solver<T>::seg_open_aa_odd(index_t lo, index_t hi) {
  for (index_t i = lo; i < hi; ++i) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t m = seg_->neighbor(i, opposite(q));
      g[q] = m != kSolidLink
                 ? f_[static_cast<std::size_t>(idx<L>(m, opposite(q)))]
                 : f_[static_cast<std::size_t>(idx<L>(i, q))];
    }
    update_point(seg_->type(i), open_row(i), g, out);
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = seg_->neighbor(i, q);
      if (nb != kSolidLink) {
        f_[static_cast<std::size_t>(idx<L>(nb, q))] = out[q];
      } else {
        f_[static_cast<std::size_t>(idx<L>(i, opposite(q)))] = out[q];
      }
    }
  }
}

// Pass drivers: a pass's bulk range is walked block-by-block
// (span-aligned blocks, contiguous block ranges per thread — the exact
// partition initialize() first-touched), its wall and open ranges by
// static chunks. No barrier between them: within a step no point's
// gather reads a location another point writes (see the parallelization
// notes above).

template <typename T>
template <typename Bulk, typename Walls, typename Open>
void Solver<T>::thread_share(const Pass& pass, int tid, int nt, Bulk&& bulk,
                             Walls&& walls, Open&& open) const {
  const auto n_blocks = static_cast<index_t>(pass.blocks.size()) - 1;
  const auto [b0, b1] = static_chunk(n_blocks, tid, nt);
  for (index_t b = b0; b < b1; ++b) {
    bulk(pass.blocks[static_cast<std::size_t>(b)],
         pass.blocks[static_cast<std::size_t>(b + 1)]);
  }
  const SegmentPass& r = pass.range;
  const auto [w0, w1] = static_chunk(r.wall_end - r.bulk_end, tid, nt);
  walls(r.bulk_end + w0, r.bulk_end + w1);
  const auto [o0, o1] = static_chunk(r.end - r.wall_end, tid, nt);
  open(r.wall_end + o0, r.wall_end + o1);
}

template <typename T>
template <typename Bulk, typename Walls, typename Open>
void Solver<T>::sweep(const Pass& pass, Bulk bulk, Walls walls, Open open) {
#ifdef _OPENMP
#pragma omp parallel num_threads(static_cast<int>(threads_))
#endif
  {
    const auto [tid, nt] = omp_ids();
    thread_share(pass, tid, nt, bulk, walls, open);
    // Streaming stores are weakly ordered: each pass fences them (per
    // thread) ahead of the implicit barrier that ends it, so they are
    // visible before the back array is swapped in or a rank barrier
    // publishes it.
    if (nt_stores_) simd::store_fence(backend_);
  }
}

template <typename T>
template <Layout L>
void Solver<T>::seg_step_ab(const Pass& pass) {
  sweep(
      pass, [this](index_t lo, index_t hi) { seg_bulk_ab<L>(lo, hi); },
      [this](index_t lo, index_t hi) { seg_walls_ab<L>(lo, hi); },
      [this](index_t lo, index_t hi) { seg_open_ab<L>(lo, hi); });
}

template <typename T>
template <Layout L>
void Solver<T>::seg_step_aa_even(const Pass& pass) {
  const auto rows = [this](index_t lo, index_t hi) {
    seg_rows_aa_even<L>(lo, hi);
  };
  sweep(pass, rows, rows,
        [this](index_t lo, index_t hi) { seg_open_aa_even<L>(lo, hi); });
}

template <typename T>
template <Layout L>
void Solver<T>::seg_step_aa_odd(const Pass& pass) {
  sweep(
      pass, [this](index_t lo, index_t hi) { seg_bulk_aa_odd<L>(lo, hi); },
      [this](index_t lo, index_t hi) { seg_walls_aa_odd<L>(lo, hi); },
      [this](index_t lo, index_t hi) { seg_open_aa_odd<L>(lo, hi); });
}

template <typename T>
void Solver<T>::bind_kernels() {
  const bool aos = params_.kernel.layout == Layout::kAoS;
  const bool ab = params_.kernel.propagation == Propagation::kAB;
  if (params_.kernel.path == KernelPath::kReference) {
    passes_[0].range = {0, 0, 0, n_};
    passes_[1].range = {n_, n_, n_, n_};
    if (ab) {
      pass_even_fn_ = aos ? &Solver::step_ab<Layout::kAoS>
                          : &Solver::step_ab<Layout::kSoA>;
      pass_odd_fn_ = pass_even_fn_;
    } else {
      pass_even_fn_ = aos ? &Solver::step_aa_even<Layout::kAoS>
                          : &Solver::step_aa_even<Layout::kSoA>;
      pass_odd_fn_ = aos ? &Solver::step_aa_odd<Layout::kAoS>
                         : &Solver::step_aa_odd<Layout::kSoA>;
    }
    return;
  }
  if (ab) {
    pass_even_fn_ = aos ? &Solver::seg_step_ab<Layout::kAoS>
                        : &Solver::seg_step_ab<Layout::kSoA>;
    pass_odd_fn_ = pass_even_fn_;
  } else {
    pass_even_fn_ = aos ? &Solver::seg_step_aa_even<Layout::kAoS>
                        : &Solver::seg_step_aa_even<Layout::kSoA>;
    pass_odd_fn_ = aos ? &Solver::seg_step_aa_odd<Layout::kAoS>
                       : &Solver::seg_step_aa_odd<Layout::kSoA>;
  }

  // SIMD backend axis, both layouts; the LES mode is baked into the bound
  // tile function.
  const bool les = cs2_ > T{0};
  backend_ = simd::resolve_backend(params_.kernel.backend);
  tile_fn_ = simd::tile_kernel<T>(backend_, les, false);
  if (!aos) {
    tile_fn_nt_ = simd::tile_kernel<T>(backend_, les, true);
    // Streaming stores pay off only when the two distribution arrays
    // dwarf the cache (otherwise they evict lines the next step would
    // hit); SoA AB only — AoS stores through the staged tile's scatter,
    // and the AA sweeps re-read what they write in place.
    const bool big = static_cast<std::size_t>(n_) * kQ * sizeof(T) * 2 >
                     (std::size_t{64} << 20);
    bool want_nt = ab && backend_ != Backend::kScalar && big;
    if (const char* env = std::getenv("HEMO_NT_STORES")) {
      want_nt = ab && backend_ != Backend::kScalar && env[0] == '1';
    }
    nt_stores_ = want_nt && tile_fn_nt_ != nullptr;
  }

  // Span-aligned bulk blocks per pass: cut only at RLE span ends so the
  // SoA tile kernels always see whole spans (no masked tails at partition
  // seams), sized so a thread's per-block working set stays
  // cache-resident while still yielding several blocks per thread for an
  // even static split.
  passes_[0].range = seg_->interior();
  passes_[1].range = seg_->frontier();
  for (Pass& pass : passes_) {
    const SegmentPass& r = pass.range;
    const index_t target = std::clamp((r.bulk_end - r.begin) / (threads_ * 8),
                                      index_t{512}, index_t{4096});
    pass.blocks.assign(1, r.begin);
    index_t in_block = 0;
    for (const auto& s : seg_->spans()) {
      if (s.begin < r.begin || s.begin >= r.bulk_end) continue;
      in_block += s.length;
      if (in_block >= target) {
        pass.blocks.push_back(s.begin + s.length);
        in_block = 0;
      }
    }
    if (pass.blocks.back() != r.bulk_end) pass.blocks.push_back(r.bulk_end);
  }
}

template <typename T>
void Solver<T>::run_pass(const Pass& pass) {
  // The layout/propagation/path dispatch is bound once at construction;
  // a pass is one indirect call through the parity-selected kernel.
  if (pass.range.begin == pass.range.end) return;
  const bool even = params_.kernel.propagation == Propagation::kAB ||
                    timestep_ % 2 == 0;
  (this->*(even ? pass_even_fn_ : pass_odd_fn_))(pass);
}

template <typename T>
void Solver<T>::interior_pass() {
  run_pass(passes_[0]);
}

template <typename T>
void Solver<T>::frontier_pass() {
  run_pass(passes_[1]);
}

template <typename T>
void Solver<T>::end_step() {
  if (params_.kernel.propagation == Propagation::kAB) f_.swap(f2_);
  ++timestep_;
}

template <typename T>
void Solver<T>::step() {
#ifdef HEMO_OBS_DETAIL
  const bool aos = params_.kernel.layout == Layout::kAoS;
  const char* phase = params_.kernel.propagation == Propagation::kAB
                          ? "ab_pull"
                          : (timestep_ % 2 == 0 ? "aa_even" : "aa_odd");
  const auto t0 = std::chrono::steady_clock::now();
  // `phase` always points at one of the three literals above, so handing
  // it to the profiler's pointer-keeping scope is safe.
  const obs::PhaseScope profile_phase(phase);
#endif
  interior_pass();
  frontier_pass();
#ifdef HEMO_OBS_DETAIL
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled()) {
    const std::chrono::duration<real_t> dt =
        std::chrono::steady_clock::now() - t0;
    metrics.observe("lbm_step_seconds", dt.count(),
                    {{"phase", phase},
                     {"layout", aos ? "aos" : "soa"},
                     {"path", to_string(params_.kernel.path)},
                     {"precision",
                      params_.kernel.precision == Precision::kSingle
                          ? "f32"
                          : "f64"}});
  }
#endif
  end_step();
}

template <typename T>
void Solver<T>::run(index_t n) {
  HEMO_REQUIRE(n >= 0, "negative step count");
  for (index_t i = 0; i < n; ++i) step();
}

template <typename T>
Moments<real_t> Solver<T>::moments_at(index_t p) const {
  HEMO_REQUIRE(p >= 0 && p < n_, "point index out of range");
  HEMO_REQUIRE(natural_order(),
               "moments require natural distribution order (AA: even step)");
  std::array<T, kQ> g;
  read_row(p, g.data());
  const Moments<T> m = moments<T>(std::span<const T, kQ>(g));
  return Moments<real_t>{static_cast<real_t>(m.rho),
                         static_cast<real_t>(m.ux),
                         static_cast<real_t>(m.uy),
                         static_cast<real_t>(m.uz)};
}

template <typename T>
real_t Solver<T>::total_mass() const {
  HEMO_REQUIRE(natural_order(), "total_mass requires natural order");
  // Fixed-size blocks summed in parallel, combined serially in block
  // order: the association is a function of the array length only, so the
  // result is bit-stable across thread counts.
  constexpr index_t kBlock = 1 << 14;
  const auto total = static_cast<index_t>(f_.size());
  const index_t n_blocks = (total + kBlock - 1) / kBlock;
  std::vector<real_t> partial(static_cast<std::size_t>(n_blocks), 0.0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t b = 0; b < n_blocks; ++b) {
    const index_t lo = b * kBlock;
    const index_t hi = std::min(total, lo + kBlock);
    real_t acc = 0.0;
    for (index_t k = lo; k < hi; ++k) {
      acc += static_cast<real_t>(f_[static_cast<std::size_t>(k)]);
    }
    partial[static_cast<std::size_t>(b)] = acc;
  }
  real_t mass = 0.0;
  for (real_t v : partial) mass += v;
  return mass;
}

template <typename T>
real_t Solver<T>::mean_speed() const {
  HEMO_REQUIRE(natural_order(), "mean_speed requires natural order");
  // Same fixed-block ordered reduction as total_mass, over points.
  constexpr index_t kBlock = 1 << 12;
  const index_t n_blocks = (n_ + kBlock - 1) / kBlock;
  std::vector<real_t> partial(static_cast<std::size_t>(n_blocks), 0.0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t b = 0; b < n_blocks; ++b) {
    const index_t lo = b * kBlock;
    const index_t hi = std::min(n_, lo + kBlock);
    real_t acc = 0.0;
    for (index_t p = lo; p < hi; ++p) {
      const auto m = moments_at(p);
      acc += std::sqrt(m.ux * m.ux + m.uy * m.uy + m.uz * m.uz);
    }
    partial[static_cast<std::size_t>(b)] = acc;
  }
  real_t sum = 0.0;
  for (real_t v : partial) sum += v;
  return sum / static_cast<real_t>(n_);
}

template <typename T>
void Solver<T>::read_row(index_t p, T* row) const {
  const Layout layout = params_.kernel.layout;
  const index_t i = internal_pos(p);
  for (index_t q = 0; q < kQ; ++q) {
    row[q] = f_[static_cast<std::size_t>(state_index(layout, n_, i, q))];
  }
}

template <typename T>
void Solver<T>::write_row(index_t p, const T* row) {
  const Layout layout = params_.kernel.layout;
  const index_t i = internal_pos(p);
  for (index_t q = 0; q < kQ; ++q) {
    f_[static_cast<std::size_t>(state_index(layout, n_, i, q))] = row[q];
  }
}

template <typename T>
void Solver<T>::copy_rows_out(std::span<const std::int32_t> slots,
                              std::span<T> rows) const {
  HEMO_REQUIRE(rows.size() == slots.size() * kQ,
               "copy_rows_out: rows must hold kQ values per slot");
  for (std::size_t k = 0; k < slots.size(); ++k) {
    read_row(slots[k], rows.data() + k * static_cast<std::size_t>(kQ));
  }
}

template <typename T>
void Solver<T>::copy_rows_in(std::span<const std::int32_t> slots,
                             std::span<const T> rows) {
  HEMO_REQUIRE(rows.size() == slots.size() * kQ,
               "copy_rows_in: rows must hold kQ values per slot");
  for (std::size_t k = 0; k < slots.size(); ++k) {
    write_row(slots[k], rows.data() + k * static_cast<std::size_t>(kQ));
  }
}

template <typename T>
std::vector<T> Solver<T>::export_state() const {
  const Layout layout = params_.kernel.layout;
  std::vector<T> state(f_.size());
  T row[kQ];
  for (index_t p = 0; p < n_; ++p) {
    read_row(p, row);
    for (index_t q = 0; q < kQ; ++q) {
      state[static_cast<std::size_t>(state_index(layout, n_, p, q))] = row[q];
    }
  }
  return state;
}

template <typename T>
void Solver<T>::restore_state(std::span<const T> state, index_t timestep) {
  HEMO_REQUIRE(state.size() == f_.size(),
               "restore_state: state size mismatch");
  HEMO_REQUIRE(timestep >= 0, "restore_state: negative timestep");
  const Layout layout = params_.kernel.layout;
  T row[kQ];
  for (index_t p = 0; p < n_; ++p) {
    for (index_t q = 0; q < kQ; ++q) {
      row[q] = state[static_cast<std::size_t>(state_index(layout, n_, p, q))];
    }
    write_row(p, row);
  }
  timestep_ = timestep;
}

template <typename T>
real_t Solver<T>::f_value(index_t p, index_t q) const {
  HEMO_REQUIRE(p >= 0 && p < n_ && q >= 0 && q < kQ,
               "f_value index out of range");
  return static_cast<real_t>(f_[static_cast<std::size_t>(
      state_index(params_.kernel.layout, n_, internal_pos(p), q))]);
}

template class Solver<float>;
template class Solver<double>;

}  // namespace hemo::lbm
