#include "sched/condensed_dag.hpp"

#include <algorithm>
#include <atomic>

#include "pmh/machine.hpp"

namespace ndf {

namespace {
std::atomic<std::size_t> g_builds{0};
}  // namespace

std::vector<double> level_cache_sizes(const Pmh& machine) {
  std::vector<double> sizes;
  sizes.reserve(machine.num_cache_levels());
  for (std::size_t l = 1; l <= machine.num_cache_levels(); ++l)
    sizes.push_back(machine.cache_size(l));
  return sizes;
}

CondensedDag::CondensedDag(const StrandGraph& g, std::vector<double> sizes,
                           double sigma)
    : g_(&g), tree_(&g.tree()), sigma_(sigma), sizes_(std::move(sizes)) {
  NDF_CHECK(sigma_ > 0.0 && sigma_ < 1.0);
  NDF_CHECK_MSG(!sizes_.empty(), "condensation needs at least one cache level");
  ++g_builds;

  const std::size_t L = sizes_.size();
  dec_.reserve(L);
  for (std::size_t l = 1; l <= L; ++l)
    dec_.push_back(decompose(*tree_, sigma_ * sizes_[l - 1]));

  // Flat (level, task) arena layout: level l's counters start at
  // ext_off_[l-1]. All per-run counter state and the per-task size table
  // share these offsets.
  ext_off_.resize(L);
  std::size_t arena = 0;
  for (std::size_t l = 1; l <= L; ++l) {
    ext_off_[l - 1] = arena;
    arena += dec_[l - 1].maximal.size();
  }
  ext0_flat_.assign(arena, 0);

  // Unit → task at every level, and each task's first unit. Because
  // sizes never shrink going up, a unit's level-l task contains its
  // level-(l-1) task, and every level's tasks come out of the depth-first
  // unit walk in index order with no gaps — checked here, so the nesting
  // accessors in the header may rely on it.
  for (std::size_t l = 2; l <= L; ++l)
    NDF_CHECK_MSG(sizes_[l - 1] >= sizes_[l - 2],
                  "condensation cache sizes must not shrink going up");
  unit_task_.resize(L * num_units());
  first_unit_.assign(arena, 0);
  for (std::size_t l = 1; l <= L; ++l) {
    const Decomposition& d = dec_[l - 1];
    std::size_t seen = 0;  // tasks of this level met so far
    for (std::size_t u = 0; u < num_units(); ++u) {
      const int t = d.owner[dec_[0].maximal[u]];
      // Either the task of the previous unit or the next one in order.
      NDF_CHECK(t >= 0 && std::size_t(t) + 1 >= seen &&
                std::size_t(t) <= seen);
      if (std::size_t(t) == seen)
        first_unit_[ext_off_[l - 1] + seen++] = std::uint32_t(u);
      unit_task_[(l - 1) * num_units() + u] = std::uint32_t(t);
      // The unit's level-(l-1) task is rooted inside its level-l task.
      if (l > 1) {
        const NodeId below = dec_[l - 2].maximal[unit_task(l - 1, int(u))];
        NDF_CHECK(d.owner[below] == t);
      }
    }
    NDF_CHECK_MSG(seen == d.maximal.size(),
                  "a level-" << l << " maximal task holds no atomic unit");
  }

  task_size_.resize(arena);
  level_footprint_.assign(L, 0.0);
  for (std::size_t l = 1; l <= L; ++l)
    for (std::size_t t = 0; t < dec_[l - 1].maximal.size(); ++t) {
      const double s = tree_->size_of(dec_[l - 1].maximal[t]);
      task_size_[ext_off_[l - 1] + t] = s;
      level_footprint_[l - 1] += s;
    }

  unit_work_.resize(num_units());
  for (std::size_t u = 0; u < num_units(); ++u) {
    unit_work_[u] = tree_->work_of(dec_[0].maximal[u]);
    total_work_ += unit_work_[u];
  }

  // Control vertices get dense indices in vertex order; ctrl_of maps a
  // vertex to its index (kNotControl inside a unit) while compiling.
  constexpr std::uint32_t kNotControl = ~std::uint32_t(0);
  std::vector<std::uint32_t> ctrl_of(g_->num_vertices(), kNotControl);
  for (VertexId v = 0; v < g_->num_vertices(); ++v)
    if (dec_[0].owner[g_->owner(v)] < 0) {
      ctrl_of[v] = std::uint32_t(controls_.size());
      controls_.push_back(v);
      ctrl_deg0_.push_back(g_->in_degree(v));
    }

  // Fire programs, units first, then control vertices. The dependence
  // template is counted from the very ops the event loop will replay, so
  // the +1s and the -1s are the same data and can never diverge.
  auto compile_vertex = [&](VertexId v) {
    for (VertexId w : g_->successors(v)) {
      for_each_external_arrow(v, w, [&](std::size_t l, int t) {
        const std::size_t flat = ext_off_[l - 1] + std::size_t(t);
        ++ext0_flat_[flat];
        ops_.push_back({std::uint32_t(flat), std::uint32_t(l)});
      });
      if (ctrl_of[w] != kNotControl) ops_.push_back({ctrl_of[w], 0});
    }
  };
  prog_off_.reserve(num_units() + controls_.size() + 1);
  prog_off_.push_back(0);
  std::vector<VertexId> order;
  std::vector<NodeId> stack;
  for (std::size_t u = 0; u < num_units(); ++u) {
    order.clear();
    append_fire_order(int(u), order, stack);
    for (VertexId v : order) compile_vertex(v);
    prog_off_.push_back(std::uint32_t(ops_.size()));
  }
  for (VertexId v : controls_) {
    compile_vertex(v);
    prog_off_.push_back(std::uint32_t(ops_.size()));
  }
  NDF_CHECK_MSG(ops_.size() <= ~std::uint32_t(0),
                "fire-program arena overflows 32-bit offsets");
}

void CondensedDag::unit_fire_order(int u, std::vector<VertexId>& out) const {
  std::vector<NodeId> stack;
  append_fire_order(u, out, stack);
}

void CondensedDag::append_fire_order(int u, std::vector<VertexId>& out,
                                     std::vector<NodeId>& stack) const {
  // A pre-order walk that visits the last child first, then reversed:
  // every node after its descendants, the root last.
  const std::size_t mark = out.size();
  stack.assign(1, unit_root(u));
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    out.push_back(g_->exit(n));
    out.push_back(g_->enter(n));
    for (NodeId c : tree_->node(n).children) stack.push_back(c);
  }
  std::reverse(out.begin() + std::ptrdiff_t(mark), out.end());
}

bool CondensedDag::compatible_with(const Pmh& machine, double sigma) const {
  if (sigma != sigma_) return false;
  if (machine.num_cache_levels() != sizes_.size()) return false;
  for (std::size_t l = 1; l <= sizes_.size(); ++l)
    if (machine.cache_size(l) != sizes_[l - 1]) return false;
  return true;
}

std::size_t CondensedDag::total_builds() { return g_builds.load(); }

}  // namespace ndf
