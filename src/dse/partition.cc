#include "dse/partition.h"

#include "kir/analysis.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "support/error.h"

namespace s2fa::dse {

namespace {

using tuner::Factor;
using tuner::FactorKind;

// Position-table entry (value index -> position in a leaf's allowed list)
// of a value the leaf excludes.
constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

struct SplitChoice {
  bool valid = false;
  std::size_t factor = 0;
  std::size_t cut = 0;      // position within the leaf's allowed list
  double gain = 0;
};

// A growing tree leaf: the sub-space (value-index masks per factor), its
// samples (in draw order), its description, and its best split once scored.
// Only the two children of a split need scoring; every other leaf keeps its
// cached choice.
struct Leaf {
  // Allowed value indices (into the *original* factor value lists).
  std::vector<std::vector<std::size_t>> allowed;
  std::vector<const TrainingSample*> samples;
  std::string description = "full space";
  std::optional<SplitChoice> best;
};

// Buffers shared by every BestSplit call of one tree, so scoring a cut
// allocates nothing.
struct SplitScratch {
  std::vector<double> cost;        // the leaf's log costs, in sample order
  std::vector<std::size_t> table;  // value index -> position (or kAbsent)
  std::vector<std::size_t> pos;    // each sample's position in allowed
  std::vector<std::size_t> count;  // samples per position
};

void FillPositions(const Factor& factor,
                   const std::vector<std::size_t>& allowed,
                   std::vector<std::size_t>& table) {
  table.assign(factor.values.size(), kAbsent);
  for (std::size_t p = 0; p < allowed.size(); ++p) table[allowed[p]] = p;
}

double Variance(const std::vector<double>& cost) {
  if (cost.size() < 2) return 0.0;
  double mean = 0;
  for (double c : cost) mean += c;
  mean /= static_cast<double>(cost.size());
  double var = 0;
  for (double c : cost) var += (c - mean) * (c - mean);
  return var / static_cast<double>(cost.size());
}

// Variances of the samples left of `cut` and of the rest. Each side takes a
// mean pass and a squared-deviation pass in sample order, so both results
// are bit-identical to Variance() over that side's filtered samples (adding
// +0.0 for the other side's samples changes no partial sum).
void SideVariances(const SplitScratch& s, std::size_t cut,
                   std::size_t n_left, std::size_t n_right,
                   double& var_left, double& var_right) {
  const std::size_t n = s.cost.size();
  double sum_left = 0, sum_right = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool left = s.pos[i] < cut;
    sum_left += left ? s.cost[i] : 0.0;
    sum_right += left ? 0.0 : s.cost[i];
  }
  const double mean_left = sum_left / static_cast<double>(n_left);
  const double mean_right = sum_right / static_cast<double>(n_right);
  double sq_left = 0, sq_right = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool left = s.pos[i] < cut;
    const double d = s.cost[i] - (left ? mean_left : mean_right);
    sq_left += left ? d * d : 0.0;
    sq_right += left ? 0.0 : d * d;
  }
  var_left = n_left < 2 ? 0.0 : sq_left / static_cast<double>(n_left);
  var_right = n_right < 2 ? 0.0 : sq_right / static_cast<double>(n_right);
}

// Best variance-impurity split of `leaf` over the candidate factors
// (Eq. 1 of the paper).
SplitChoice BestSplit(const DesignSpace& space, const Leaf& leaf,
                      const std::vector<std::size_t>& candidates,
                      int min_samples, SplitScratch& s) {
  SplitChoice best;
  const std::size_t n = leaf.samples.size();
  const auto min = static_cast<std::size_t>(min_samples);
  if (n < 2 * min) return best;
  s.cost.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.cost[i] = leaf.samples[i]->log_cost;
  const double total_var = Variance(s.cost);
  const double nd = static_cast<double>(n);
  s.pos.resize(n);
  for (std::size_t f : candidates) {
    const auto& allowed = leaf.allowed[f];
    if (allowed.size() < 2) continue;
    FillPositions(space.factors[f], allowed, s.table);
    s.count.assign(allowed.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = s.table[leaf.samples[i]->point[f]];
      S2FA_CHECK(p != kAbsent, "sample escaped its leaf");
      s.pos[i] = p;
      ++s.count[p];
    }
    // Cut between allowed[cut-1] and allowed[cut].
    std::size_t n_left = 0;
    for (std::size_t cut = 1; cut < allowed.size(); ++cut) {
      n_left += s.count[cut - 1];
      const std::size_t n_right = n - n_left;
      if (n_left < min || n_right < min) continue;
      double var_left = 0, var_right = 0;
      SideVariances(s, cut, n_left, n_right, var_left, var_right);
      double gain = total_var -
                    (static_cast<double>(n_left) / nd) * var_left -
                    (static_cast<double>(n_right) / nd) * var_right;
      if (gain > best.gain + 1e-12) {
        best.valid = true;
        best.factor = f;
        best.cut = cut;
        best.gain = gain;
      }
    }
  }
  return best;
}

std::string RuleText(const DesignSpace& space, std::size_t factor,
                     const std::vector<std::size_t>& allowed,
                     std::size_t cut, bool left) {
  const Factor& f = space.factors[factor];
  if (left) {
    return f.name + " < " +
           std::to_string(f.values[allowed[cut]]);
  }
  return f.name + " >= " + std::to_string(f.values[allowed[cut]]);
}

}  // namespace

std::vector<std::size_t> RuleCandidateFactors(const DesignSpace& space,
                                              const kir::Kernel& kernel) {
  // Loop depth map from the kernel.
  std::map<int, int> depth;
  for (const kir::Stmt* loop : kernel.Loops()) depth[loop->loop_id()] = 0;
  {
    // Recompute depths from the loop tree.
    std::function<void(const kir::Stmt&, int)> walk = [&](const kir::Stmt& s,
                                                          int d) {
      if (s.kind() == kir::StmtKind::kFor) {
        depth[s.loop_id()] = d;
        walk(*s.body(), d + 1);
        return;
      }
      if (s.kind() == kir::StmtKind::kIf) {
        walk(*s.then_stmt(), d);
        if (s.else_stmt()) walk(*s.else_stmt(), d);
      } else if (s.kind() == kir::StmtKind::kBlock) {
        for (const auto& st : s.stmts()) walk(*st, d);
      }
    };
    walk(*kernel.body, 0);
  }

  struct Scored {
    std::size_t index;
    int priority;  // lower = earlier
  };
  std::vector<Scored> scored;
  for (std::size_t i = 0; i < space.factors.size(); ++i) {
    const Factor& f = space.factors[i];
    if (f.kind != FactorKind::kLoopPipeline &&
        f.kind != FactorKind::kLoopParallel) {
      continue;  // the rule methodologies only involve loop scheduling
    }
    int d = depth.count(f.loop_id) != 0 ? depth[f.loop_id] : 99;
    // Methodology 2: the template-inserted outermost loop comes first.
    int priority = (f.loop_id == kernel.task_loop_id ? 0 : 10) + d * 2 +
                   (f.kind == FactorKind::kLoopPipeline ? 0 : 1);
    scored.push_back({i, priority});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.priority < b.priority;
                   });
  std::vector<std::size_t> out;
  out.reserve(scored.size());
  for (const auto& s : scored) out.push_back(s.index);
  return out;
}

std::vector<TrainingSample> DrawTrainingSamples(
    const DesignSpace& space, int count,
    const std::function<double(const Point&)>& eval_log_cost, Rng& rng) {
  S2FA_REQUIRE(count > 0, "need at least one training sample");
  S2FA_REQUIRE(eval_log_cost != nullptr, "no training evaluator");
  std::vector<TrainingSample> samples;
  samples.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    TrainingSample s;
    s.point = space.RandomPoint(rng);
    s.log_cost = eval_log_cost(s.point);
    samples.push_back(std::move(s));
  }
  return samples;
}

std::vector<Partition> BuildPartitions(
    const DesignSpace& space, const std::vector<std::size_t>& candidates,
    const std::vector<TrainingSample>& samples,
    const PartitionOptions& options) {
  S2FA_REQUIRE(options.target_partitions >= 1, "need at least one partition");

  Leaf root;
  root.allowed.resize(space.num_factors());
  for (std::size_t i = 0; i < space.num_factors(); ++i) {
    for (std::size_t v = 0; v < space.factors[i].values.size(); ++v) {
      root.allowed[i].push_back(v);
    }
  }
  for (const auto& s : samples) {
    space.ValidatePoint(s.point);
    root.samples.push_back(&s);
  }

  std::vector<Leaf> leaves{std::move(root)};
  SplitScratch scratch;
  // Best-first growth until the target leaf count (or no useful split).
  while (static_cast<int>(leaves.size()) < options.target_partitions) {
    double best_gain = 0;
    std::size_t best_leaf = 0;
    SplitChoice best_choice;
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      Leaf& leaf = leaves[l];
      if (!leaf.best) {
        leaf.best = BestSplit(space, leaf, candidates,
                              options.min_samples_per_leaf, scratch);
      }
      const SplitChoice& choice = *leaf.best;
      if (choice.valid && choice.gain > best_gain) {
        best_gain = choice.gain;
        best_leaf = l;
        best_choice = choice;
      }
    }
    if (!best_choice.valid) {
      // No information-gain split left. The paper still needs at least as
      // many partitions as CPU cores ("some-for-all"), so fall back to
      // splitting the most-populated leaf at the median of the highest-
      // priority rule factor that still has multiple values.
      bool forced = false;
      std::size_t fallback_leaf = 0;
      std::size_t best_count = 0;
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        if (leaves[l].samples.size() > best_count) {
          best_count = leaves[l].samples.size();
          fallback_leaf = l;
        }
      }
      for (std::size_t f : candidates) {
        if (leaves[fallback_leaf].allowed[f].size() >= 2) {
          best_choice.valid = true;
          best_choice.factor = f;
          best_choice.cut = leaves[fallback_leaf].allowed[f].size() / 2;
          best_choice.gain = 0;
          best_leaf = fallback_leaf;
          forced = true;
          break;
        }
      }
      if (!forced) break;
      // Re-partition samples permissively (a forced split may be lopsided).
    }

    const Leaf& leaf = leaves[best_leaf];
    const std::size_t factor = best_choice.factor;
    const std::size_t cut = best_choice.cut;
    const auto& allowed = leaf.allowed[factor];
    const auto middle = allowed.begin() + static_cast<std::ptrdiff_t>(cut);
    Leaf left, right;
    left.allowed = leaf.allowed;
    right.allowed = leaf.allowed;
    left.allowed[factor].assign(allowed.begin(), middle);
    right.allowed[factor].assign(middle, allowed.end());
    FillPositions(space.factors[factor], allowed, scratch.table);
    for (const auto* s : leaf.samples) {
      (scratch.table[s->point[factor]] < cut ? left : right)
          .samples.push_back(s);
    }
    std::string base = leaf.description == "full space"
                           ? ""
                           : leaf.description + " && ";
    left.description =
        base + RuleText(space, factor, allowed, cut, /*left=*/true);
    right.description =
        base + RuleText(space, factor, allowed, cut, /*left=*/false);
    leaves[best_leaf] = std::move(left);
    leaves.push_back(std::move(right));
  }

  // Materialize leaves as sub-spaces.
  std::vector<Partition> partitions;
  partitions.reserve(leaves.size());
  for (const auto& leaf : leaves) {
    Partition p;
    p.description = leaf.description;
    p.space.factors.reserve(space.num_factors());
    for (std::size_t i = 0; i < space.num_factors(); ++i) {
      Factor f = space.factors[i];
      std::vector<std::int64_t> values;
      values.reserve(leaf.allowed[i].size());
      for (std::size_t v : leaf.allowed[i]) {
        values.push_back(space.factors[i].values[v]);
      }
      f.values = std::move(values);
      p.space.factors.push_back(std::move(f));
    }
    partitions.push_back(std::move(p));
  }
  return partitions;
}

bool PartitionsDisjointAndCovering(const DesignSpace& space,
                                   const std::vector<Partition>& partitions,
                                   int trials, Rng& rng) {
  for (int t = 0; t < trials; ++t) {
    Point p = space.RandomPoint(rng);
    int members = 0;
    for (const auto& partition : partitions) {
      bool inside = true;
      for (std::size_t i = 0; i < space.num_factors(); ++i) {
        std::int64_t value = space.factors[i].values[p[i]];
        const auto& vals = partition.space.factors[i].values;
        if (std::find(vals.begin(), vals.end(), value) == vals.end()) {
          inside = false;
          break;
        }
      }
      if (inside) ++members;
    }
    if (members != 1) return false;
  }
  return true;
}

}  // namespace s2fa::dse
