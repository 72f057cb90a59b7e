// Sparse D3Q19 BGK solver over a FluidMesh.
//
// Supports both propagation patterns of the paper's codes:
//  * AB — two arrays, pull-scheme fused stream/collide: the array always
//    holds post-collision values; each step gathers arrivals from the
//    previous array, collides, and writes the new array.
//  * AA — single array (Bailey et al.): the even step collides in place
//    writing each value into its opposite-direction slot; the odd step
//    gathers from neighbors' swapped slots and scatters to neighbors so the
//    array returns to natural order. Bounce-back folds into both steps.
//
// Two hot-path implementations share every per-point arithmetic operation
// (lbm/point_update.hpp) and therefore produce bit-identical state:
//  * KernelPath::kReference — one fused loop per step: each point pays a
//    19-wide neighbor-table gather and a type/pulse/LES branch.
//  * KernelPath::kSegmented (default) — the distribution arrays are held
//    in SegmentedMesh order (bulk-interior points, then walls, then
//    inlets and outlets, each class ordered along the run axis). Every
//    bulk-interior and wall point runs through the backend tile kernel
//    (lbm/simd.hpp): SoA bulk spans hand it pointers straight into the
//    array, everything else is staged through a direction-major stack
//    tile. Only inlet and outlet points take the per-point type-switch
//    path. Public point indices remain the original mesh order — moments_at,
//    f_value, IO, observables, and the decomposition layer see no
//    difference.
// The layout/propagation/path dispatch is hoisted out of step() into
// kernel function pointers bound at construction.
//
// A step is two passes and an end: interior_pass(), frontier_pass(),
// end_step() (AB swap, ++timestep). Over a whole mesh the frontier pass
// is empty. A rank of a decomposed run (runtime::ParallelSolver) builds
// a rank-local solver over its owned points plus ghost rows and calls the
// same passes with halo traffic around them: pack (copy_rows_out) before
// the interior pass, unpack into the ghost rows (copy_rows_in) before the
// frontier pass. Ranks therefore run exactly the serial kernels.
//
// Boundary conditions follow HARVEY's setup in the paper: a Poiseuille
// velocity profile imposed at inlets (wet-node equilibrium with the locally
// arriving density) and a zero-pressure (rho = 1) equilibrium outlet.
// Walls are full bounce-back.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geometry/generators.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/kernel_config.hpp"
#include "lbm/lattice.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"
#include "lbm/simd.hpp"
#include "util/common.hpp"

namespace hemo::lbm {

/// Solver numerical parameters.
struct SolverParams {
  real_t tau = 0.8;  ///< BGK relaxation time (viscosity = (tau - 0.5) / 3)
  KernelConfig kernel;
  /// Uniform body force per fluid point (lattice units). Drives flow in
  /// periodic domains (validated against analytic Poiseuille flow).
  std::array<real_t, 3> body_force = {0.0, 0.0, 0.0};

  /// Smagorinsky constant for the LES eddy-viscosity model; 0 disables it
  /// (plain BGK). Typical values are 0.1 - 0.2 for high-Re hemodynamics.
  real_t smagorinsky_cs = 0.0;

  /// OpenMP threads for the step kernels and reductions; 0 takes the
  /// OpenMP default team size. runtime::ParallelSolver builds every
  /// rank's solver with 1: the rank threads are the parallelism there.
  /// All results are bit-stable across thread counts.
  index_t num_threads = 0;
};

/// The solver. T is the distribution storage type (float or double).
template <typename T>
class Solver {
 public:
  /// Builds the solver; `inlets` provide the Poiseuille profiles for
  /// kInlet points. The mesh must outlive the solver.
  Solver(const FluidMesh& mesh, const SolverParams& params,
         std::span<const geometry::InletSpec> inlets);

  /// Rank-local solver over `owned` points of `mesh` plus `ghosts`, the
  /// upstream neighbors other ranks own. Point index (local slot) s is
  /// owned[s], then ghosts[s - owned.size()]; the passes step the owned
  /// slots and only read the ghost rows, which the caller refreshes with
  /// copy_rows_in() before each frontier pass. Segmented path only; an
  /// empty `owned` gives an idle solver.
  Solver(const FluidMesh& mesh, const SolverParams& params,
         std::span<const geometry::InletSpec> inlets,
         std::span<const index_t> owned, std::span<const index_t> ghosts);

  /// Resets every point to rest equilibrium (rho = 1, u = 0). Pages of
  /// the distribution arrays are first-touched under the same static
  /// thread partition the step kernels use.
  void initialize();

  /// Advances one timestep: interior_pass(), frontier_pass(),
  /// end_step(). For AA the parity is tracked internally.
  void step();

  /// Updates the owned points that read no ghost row.
  void interior_pass();

  /// Updates the owned points that read a ghost row (none over a whole
  /// mesh).
  void frontier_pass();

  /// Ends the step after both passes: AB array swap, ++timestep.
  void end_step();

  /// Copies the rows (the kQ values of one point) of local slots `slots`
  /// into `rows`, slot after slot, whatever the layout — the halo message
  /// format.
  void copy_rows_out(std::span<const std::int32_t> slots,
                     std::span<T> rows) const;

  /// Writes rows in the copy_rows_out() format into local slots `slots`.
  void copy_rows_in(std::span<const std::int32_t> slots,
                    std::span<const T> rows);

  /// Advances n timesteps.
  void run(index_t n);

  [[nodiscard]] index_t timestep() const noexcept { return timestep_; }
  /// The whole mesh, also for a rank-local solver.
  [[nodiscard]] const FluidMesh& mesh() const noexcept { return *mesh_; }
  [[nodiscard]] const SolverParams& params() const noexcept { return params_; }

  /// The segment-reordered view driving the kernels; null on the
  /// reference path.
  [[nodiscard]] const SegmentedMesh* segments() const noexcept {
    return seg_.get();
  }

  /// The SIMD backend the tile kernels actually execute: the resolved
  /// request on the segmented path, either layout. The reference path is
  /// the scalar oracle and always reports kScalar (benchmark honesty: what
  /// is recorded is what ran, not what was requested).
  [[nodiscard]] Backend backend() const noexcept { return backend_; }

  /// The OpenMP team size the kernels run with (resolved from
  /// SolverParams::num_threads at construction; 1 in builds without
  /// OpenMP).
  [[nodiscard]] index_t threads() const noexcept { return threads_; }

  /// True when the distribution array is in natural (direction-aligned)
  /// order; moments are only meaningful then. AB is always natural; AA is
  /// natural at even timesteps.
  [[nodiscard]] bool natural_order() const noexcept {
    return params_.kernel.propagation == Propagation::kAB ||
           timestep_ % 2 == 0;
  }

  /// Macroscopic moments at point p. Requires natural_order().
  [[nodiscard]] Moments<real_t> moments_at(index_t p) const;

  /// Total mass over every point held (a rank-local solver counts its
  /// ghost rows too). Requires natural_order(). Parallel with a
  /// fixed-block ordered reduction: the result is bit-stable across
  /// thread counts.
  [[nodiscard]] real_t total_mass() const;

  /// Mean velocity magnitude over fluid points. Requires natural_order().
  /// Same fixed-block ordered reduction as total_mass().
  [[nodiscard]] real_t mean_speed() const;

  /// Direct read of one distribution value (tests only).
  [[nodiscard]] real_t f_value(index_t p, index_t q) const;

  /// Distribution state in canonical order — point indices under the
  /// active Layout (state_index()) — independent of the kernel path, so
  /// checkpoints written by one path restore bit-exactly into the other.
  [[nodiscard]] std::vector<T> export_state() const;

  /// Restores a state saved by export_state() (canonical order) and the
  /// timestep. The span length must equal num_points * kQ.
  void restore_state(std::span<const T> state, index_t timestep);

 private:
  template <Layout L>
  [[nodiscard]] index_t idx(index_t p, index_t q) const noexcept {
    if constexpr (L == Layout::kAoS) {
      return p * kQ + q;
    } else {
      return q * n_ + p;
    }
  }

  /// One pass of a step: its positions and, on the segmented path, the
  /// span-aligned bulk work blocks — block b covers positions
  /// [blocks[b], blocks[b+1]). Blocks are cut only at RLE span ends so the
  /// tile kernels always see whole spans (no artificial masked tails at
  /// partition seams), sized for L2 residency, and assigned to threads
  /// statically so the same thread streams the same pages every step
  /// (first-touch locality; initialize() mirrors the partition). The
  /// reference path runs one pass over every point and an empty one.
  struct Pass {
    SegmentPass range;
    std::vector<index_t> blocks;
  };

  /// Internal storage position of point p.
  [[nodiscard]] index_t internal_pos(index_t p) const noexcept {
    return seg_ ? seg_->position_of(p) : p;
  }

  /// Shared tail of both constructors: boundary tables (owned slot s is
  /// mesh point owned[s]; empty `owned` means slot = point), kernel
  /// binding, initialization.
  void setup(std::span<const geometry::InletSpec> inlets,
             std::span<const index_t> owned);

  /// Selects the kernel function pointers for the configured
  /// path/layout/propagation (and, on the segmented path, LES mode) and
  /// plans the passes.
  void bind_kernels();

  /// Runs one pass with the parity-selected kernel.
  void run_pass(const Pass& pass);

  /// The kQ values of point p, direction by direction, whatever the
  /// layout: the one place rows are copied in and out.
  void read_row(index_t p, T* row) const;
  void write_row(index_t p, const T* row);

  // Reference kernels: one fused loop over the pass's points.
  template <Layout L>
  void step_ab(const Pass& pass);
  template <Layout L>
  void step_aa_even(const Pass& pass);
  template <Layout L>
  void step_aa_odd(const Pass& pass);

  // Segmented kernels. A pass is one sweep over its bulk blocks, its wall
  // range and its open range, statically partitioned across threads; the
  // bulk and wall kernels run the bound tile kernel, the open kernels
  // (inlets, outlets) the per-point update.
  template <Layout L>
  void seg_step_ab(const Pass& pass);
  template <Layout L>
  void seg_step_aa_even(const Pass& pass);
  template <Layout L>
  void seg_step_aa_odd(const Pass& pass);

  /// Runs bulk(lo, hi), walls(lo, hi) and open(lo, hi) over one pass in
  /// a parallel region, each thread on its thread_share().
  template <typename Bulk, typename Walls, typename Open>
  void sweep(const Pass& pass, Bulk bulk, Walls walls, Open open);

  /// Thread tid of nt's share of a pass: a contiguous run of its bulk
  /// blocks, then a static chunk of its wall range and of its open range.
  /// initialize() first-touches through the same partition.
  template <typename Bulk, typename Walls, typename Open>
  void thread_share(const Pass& pass, int tid, int nt, Bulk&& bulk,
                    Walls&& walls, Open&& open) const;

  template <Layout L>
  void seg_bulk_ab(index_t lo, index_t hi);
  template <Layout L>
  void seg_bulk_aa_odd(index_t lo, index_t hi);
  template <Layout L>
  void seg_rows_aa_even(index_t lo, index_t hi);
  template <Layout L>
  void seg_walls_ab(index_t lo, index_t hi);
  template <Layout L>
  void seg_walls_aa_odd(index_t lo, index_t hi);
  template <Layout L>
  void seg_open_ab(index_t lo, index_t hi);
  template <Layout L>
  void seg_open_aa_even(index_t lo, index_t hi);
  template <Layout L>
  void seg_open_aa_odd(index_t lo, index_t hi);

  /// Points per staged tile.
  static constexpr index_t kStage = 32;
  /// A staged tile, direction-major: row q holds direction q of the
  /// tile's points, the unit-stride streams the tile kernel consumes.
  using Tile = T[kQ][kStage];

  /// The interior arithmetic over positions [lo, hi), kStage at a time:
  /// gather(t0, w, tile) fills the tile with the arrivals of positions
  /// [t0, t0 + w), the tile kernel relaxes it in place, scatter(t0, w,
  /// tile) stores the results.
  template <typename Gather, typename Scatter>
  void staged(index_t lo, index_t hi, Gather&& gather, Scatter&& scatter);

  /// Stores a relaxed tile as the rows of positions [t0, t0 + w) of f.
  template <Layout L>
  void store_rows(T* f, index_t t0, index_t w, const Tile& tile) const;

  /// Calls fn(a, b, offsets) for each piece [a, b) of bulk positions
  /// [lo, hi) that one RLE span covers, in order.
  template <typename Fn>
  void for_span_pieces(index_t lo, index_t hi, Fn&& fn) const;

  /// Computes the post-collision (or boundary) values of a point of type
  /// `type` from its gathered arrivals g; writes them to out[0..18].
  /// `bc_row` is the point's row of the boundary tables.
  void update_point(PointType type, index_t bc_row, const T* g,
                    T* out) const;

  /// Row of the boundary tables of open position i (segmented path).
  [[nodiscard]] index_t open_row(index_t i) const noexcept;

  const FluidMesh* mesh_;
  SolverParams params_;
  index_t n_ = 0;
  T omega_ = T{0};
  T cs2_ = T{0};  ///< smagorinsky_cs^2 in storage precision
  index_t timestep_ = 0;

  /// Segment-reordered view (segmented path only).
  std::unique_ptr<SegmentedMesh> seg_;

  using PassFn = void (Solver::*)(const Pass&);
  PassFn pass_even_fn_ = nullptr;  ///< AB kernel, or AA even-parity kernel
  PassFn pass_odd_fn_ = nullptr;   ///< AA odd-parity kernel (AB: == even)

  /// The interior pass, then the frontier pass.
  std::array<Pass, 2> passes_;

  /// Effective SIMD backend of the tile kernels (kScalar on the reference
  /// path) and the bound tile functions: the normal-store variant and,
  /// when profitable, the streaming-store variant for the SoA AB back
  /// array.
  Backend backend_ = Backend::kScalar;
  simd::TileFn<T> tile_fn_ = nullptr;
  simd::TileFn<T> tile_fn_nt_ = nullptr;
  bool nt_stores_ = false;

  /// Resolved OpenMP team size (>= 1).
  index_t threads_ = 1;

  std::vector<T> f_;   // main array (internal point order)
  std::vector<T> f2_;  // second array (AB only)

  // Boundary tables, one row per point that may need one: every point on
  // the reference path (row = point), only the open positions on the
  // segmented path (open_row()). For kInlet the imposed velocity; zero
  // otherwise.
  std::vector<std::array<T, 3>> bc_velocity_;
  // Pulsatile {amplitude, period}; zero for steady inlets.
  std::vector<std::array<T, 2>> bc_pulse_;
  // tau * body_force, the equilibrium velocity shift of the forcing term.
  std::array<T, 3> force_shift_ = {T{0}, T{0}, T{0}};
};

/// Position of direction q of point p in an n-point distribution array of
/// `layout` — the canonical order of Solver::export_state().
[[nodiscard]] constexpr index_t state_index(Layout layout, index_t n,
                                            index_t p, index_t q) noexcept {
  return layout == Layout::kAoS ? p * kQ + q : q * n + p;
}

/// Convenience: MFLUPS from points, steps, and elapsed seconds (Eq. 7).
[[nodiscard]] inline real_t mflups(index_t points, index_t steps,
                                   real_t seconds) {
  HEMO_REQUIRE(seconds > 0.0, "mflups needs positive elapsed time");
  return static_cast<real_t>(points) * static_cast<real_t>(steps) /
         (seconds * 1e6);
}

extern template class Solver<float>;
extern template class Solver<double>;

}  // namespace hemo::lbm
