// Immutable condensation of an elaborated strand DAG against a cache-size
// profile: the per-level σM-maximal decompositions, unit work, task→unit
// counts, the dependence-counter templates every simulation run starts
// from, and one precompiled fire program per atomic unit and per control
// vertex. Building one is the expensive part of simulating a policy (it
// walks the spawn tree once per level and every DAG edge once per level);
// running a policy on top of it is cheap. A sweep over 4 policies × N machines with
// the same cache sizes therefore builds the condensation once and shares it
// across all 4N runs (see src/exp/sweep.hpp), instead of rebuilding it
// inside every SimCore as the pre-split code did.
//
// A CondensedDag depends only on (graph, σ, level cache sizes) — never on
// processor counts, fan-outs or miss costs — so machines that differ only
// in those reuse the same object. SimCore validates compatibility when
// borrowing one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/decompose.hpp"
#include "nd/graph.hpp"

namespace ndf {

class Pmh;

/// The σMi cache-size profile a condensation is keyed by: machine cache
/// sizes from level 1 up.
std::vector<double> level_cache_sizes(const Pmh& machine);

class CondensedDag {
 public:
  /// Decomposes `g`'s spawn tree by σ·sizes[l-1] at every level and
  /// precomputes the run-state templates. `sizes` is ordered level 1 up.
  CondensedDag(const StrandGraph& g, std::vector<double> sizes, double sigma);

  const StrandGraph& graph() const { return *g_; }
  const SpawnTree& tree() const { return *tree_; }
  double sigma() const { return sigma_; }
  const std::vector<double>& sizes() const { return sizes_; }
  std::size_t num_levels() const { return sizes_.size(); }

  /// σM_level-maximal decomposition (level in 1..num_levels()).
  const Decomposition& decomposition(std::size_t level) const {
    return dec_[level - 1];
  }

  /// Atomic units are the σM1-maximal tasks, indexed in spawn-tree
  /// (depth-first, left-to-right) order.
  std::size_t num_units() const { return dec_[0].maximal.size(); }
  NodeId unit_root(int u) const { return dec_[0].maximal[u]; }
  double unit_work(int u) const { return unit_work_[u]; }
  double total_work() const { return total_work_; }

  // --- task nesting ---------------------------------------------------------
  //
  // Maximal tasks of every level and the atomic units are all indexed in
  // spawn-tree (depth-first, left-to-right) order, and cache sizes never
  // shrink going up, so each level-l task is the disjoint union of a
  // contiguous run of level-(l-1) tasks and of a contiguous run of units.
  // The construction checks this nesting; the accessors below read it off
  // the flat unit_task table and one first-unit offset per task.

  /// First atomic unit of level-`level` maximal task `t`.
  std::size_t task_first_unit(std::size_t level, int t) const {
    return first_unit_[ext_off_[level - 1] + std::size_t(t)];
  }
  /// Atomic units inside level-`level` maximal task `t`: the contiguous
  /// range [task_first_unit, task_first_unit + task_units).
  std::size_t task_units(std::size_t level, int t) const {
    const std::size_t next =
        std::size_t(t) + 1 < decomposition(level).maximal.size()
            ? task_first_unit(level, t + 1)
            : num_units();
    return next - task_first_unit(level, t);
  }
  /// Level-(level+1) maximal task containing level-`level` task `t`, or -1
  /// for a task of the top level.
  int task_parent(std::size_t level, int t) const {
    return level < num_levels()
               ? unit_task(level + 1, int(task_first_unit(level, t)))
               : -1;
  }
  /// Level-(level-1) maximal tasks inside level-`level` task `t` (level >=
  /// 2): the contiguous index range [first, second).
  std::pair<int, int> task_children(std::size_t level, int t) const {
    const std::size_t u = task_first_unit(level, t);
    return {unit_task(level - 1, int(u)),
            unit_task(level - 1, int(u + task_units(level, t) - 1)) + 1};
  }

  // --- flat run-state templates (contiguous arenas, memcpy-resettable) ----
  //
  // All per-(level, task) counters of a run live in ONE flat arena indexed
  // by ext_off(level) + task; a SimCore reset is a single vector assign
  // from initial_ext_flat() instead of L allocations. Control vertices
  // (those of glue nodes, outside every atomic unit) get dense indices in
  // vertex order and their own in-degree template; a unit's vertices need
  // no in-degree at all, because they fire together when the unit
  // completes.

  /// Offset of level `level`'s counters in the flat (level, task) arena.
  std::size_t ext_off(std::size_t level) const { return ext_off_[level - 1]; }
  /// Size of the flat arena (Σ_level num tasks at that level).
  std::size_t ext_arena_size() const { return ext0_flat_.size(); }
  /// Initial unsatisfied external dataflow arrows, flat arena layout — the
  /// template a run copies its mutable counters from.
  const std::vector<int>& initial_ext_flat() const { return ext0_flat_; }

  /// Control vertices, ascending: index c names vertex control_vertex(c).
  std::size_t num_controls() const { return controls_.size(); }
  VertexId control_vertex(std::size_t c) const { return controls_[c]; }
  /// Initial in-degree per control vertex — the run's in-degree template.
  const std::vector<std::uint32_t>& initial_control_in_degree() const {
    return ctrl_deg0_;
  }

  // --- fire programs -------------------------------------------------------
  //
  // Everything firing a vertex does to the run's counters, precompiled.
  // Unit u's program is the concatenation, over u's vertices in fire order
  // (unit_fire_order), of each vertex's successor edges in successor order;
  // an edge contributes one op per external arrow it is at some level
  // (for_each_external_arrow, innermost first), then one op if its head is
  // a control vertex. Edges inside a unit contribute nothing. A control
  // vertex's program is the same for its own out-edges. All programs share
  // one arena, so completing a unit is a linear scan of it.

  /// One precomputed decrement. level >= 1: --ext[target] on the flat
  /// arena, and at zero the level-`level` task `target - ext_off(level)`
  /// became ready. level == 0: --in_degree of control vertex `target`, and
  /// at zero that vertex fires.
  struct FireOp {
    std::uint32_t target;
    std::uint32_t level;
  };
  /// Unit u's fire program: what its completion does to the counters.
  std::span<const FireOp> unit_program(int u) const {
    return program(std::size_t(u));
  }
  /// Control vertex c's fire program.
  std::span<const FireOp> control_program(std::size_t c) const {
    return program(num_units() + c);
  }
  /// Appends unit u's vertices to `out` in the order its completion fires
  /// them: children before parents (so the unit root's exit comes last),
  /// enter before exit. The order unit u's program was compiled in.
  void unit_fire_order(int u, std::vector<VertexId>& out) const;

  /// Level-`level` maximal task containing unit `u` (flat table — the hot
  /// per-pick lookup of the ws cache model and the occupancy layer).
  int unit_task(std::size_t level, int u) const {
    return int(unit_task_[(level - 1) * num_units() + u]);
  }
  /// Footprint s(t) of level-`level` maximal task `t` (flat arena, same
  /// offsets as the ext counters).
  double task_size(std::size_t level, int t) const {
    return task_size_[ext_off_[level - 1] + t];
  }
  /// Σ_t s(t) over level-`level` maximal tasks — the schedule-independent
  /// per-level footprint total the distributed charge model bills once.
  double level_footprint(std::size_t level) const {
    return level_footprint_[level - 1];
  }

  /// True iff this condensation can drive a run on `machine` at `sigma`
  /// (same σ, same cache-size profile).
  bool compatible_with(const Pmh& machine, double sigma) const;

  /// Process-wide count of condensations ever built. Tests assert reuse by
  /// differencing it around a sweep ("built exactly once per workload×σ").
  static std::size_t total_builds();

 private:
  /// Invokes fn(level, task) for every level at which edge (v, w) is an
  /// external incoming arrow of w's maximal task — the boundary-crossing
  /// walk the fire programs are compiled from. The event loop never
  /// re-walks it.
  template <typename Fn>
  void for_each_external_arrow(VertexId v, VertexId w, Fn&& fn) const {
    const NodeId nu = g_->owner(v), nv = g_->owner(w);
    for (std::size_t l = 1; l <= dec_.size(); ++l) {
      const int tu = dec_[l - 1].owner[nu], tv = dec_[l - 1].owner[nv];
      if (tu == tv && tu >= 0) break;  // internal here and above
      if (tv >= 0) fn(l, tv);
    }
  }

  /// Program i of the arena (units first, then control vertices).
  std::span<const FireOp> program(std::size_t i) const {
    return {ops_.data() + prog_off_[i], ops_.data() + prog_off_[i + 1]};
  }

  /// unit_fire_order with a caller-owned scratch stack.
  void append_fire_order(int u, std::vector<VertexId>& out,
                         std::vector<NodeId>& stack) const;

  const StrandGraph* g_;
  const SpawnTree* tree_;
  double sigma_;
  std::vector<double> sizes_;

  std::vector<Decomposition> dec_;  // dec_[l-1] = σM_l
  std::vector<double> unit_work_;
  double total_work_ = 0.0;

  std::vector<std::size_t> ext_off_;   // [l-1] = arena offset of level l
  std::vector<int> ext0_flat_;         // flat (level, task) template
  std::vector<VertexId> controls_;     // [c] = control vertex, ascending
  std::vector<std::uint32_t> ctrl_deg0_;  // [c] = initial in-degree

  std::vector<std::uint32_t> prog_off_;  // units, then controls; [i..i+1)
  std::vector<FireOp> ops_;              // every program, one arena

  std::vector<std::uint32_t> unit_task_; // [(l-1)*units + u] = task at l
  std::vector<std::uint32_t> first_unit_; // flat arena: first unit per task
  std::vector<double> task_size_;        // flat arena: s(t) per (level, task)
  std::vector<double> level_footprint_;  // [l-1] = Σ_t s(t)
};

}  // namespace ndf
