#include "tuner/driver.h"

#include <algorithm>

#include "obs/obs.h"
#include "support/error.h"
#include "support/logging.h"

namespace s2fa::tuner {

namespace {

// Evaluates one batch of configs in proposal order. The batch models
// `parallel` concurrent HLS jobs on the simulated clock; on the host its
// members run one after another, so an evaluator that keeps state across
// calls (the DSE's circuit breakers) sees the same sequence every run.
std::vector<EvalOutcome> EvaluateBatch(
    const EvalFn& evaluate, const std::vector<merlin::DesignConfig>& configs) {
  std::vector<EvalOutcome> outcomes;
  outcomes.reserve(configs.size());
  for (const merlin::DesignConfig& config : configs) {
    outcomes.push_back(evaluate(config));
  }
  return outcomes;
}

}  // namespace

TuneSession::TuneSession(const DesignSpace& space, EvalFn evaluate,
                         TuneOptions options)
    : space_(&space),
      evaluate_(std::move(evaluate)),
      options_(std::move(options)),
      rng_(options_.seed),
      bandit_(MakeTechniques(space_, options_.seed, options_.techniques)) {
  S2FA_REQUIRE(evaluate_ != nullptr, "no evaluation function");
  S2FA_REQUIRE(options_.parallel >= 1, "need at least one evaluator");
  S2FA_REQUIRE(options_.time_limit_minutes > 0,
               "time limit must be positive");
}

void TuneSession::EvaluateSeeds() {
  if (options_.seeds.empty()) return;
  std::vector<merlin::DesignConfig> configs;
  configs.reserve(options_.seeds.size());
  for (const auto& seed : options_.seeds) {
    space_->ValidatePoint(seed.point);
    configs.push_back(space_->ToConfig(seed.point));
  }
  std::vector<EvalOutcome> outcomes = EvaluateBatch(evaluate_, configs);
  double batch_minutes = 0;
  for (std::size_t s = 0; s < options_.seeds.size(); ++s) {
    const auto& seed = options_.seeds[s];
    const EvalOutcome& outcome = outcomes[s];
    batch_minutes = std::max(batch_minutes, outcome.eval_minutes);
    S2FA_COUNT("tuner.evaluations", 1);
    S2FA_COUNT("tuner.seed_evaluations", 1);
    S2FA_OBSERVE("tuner.eval_minutes", outcome.eval_minutes);
    // Seeds are externally chosen: no parent, no mutation to attribute.
    db_.Add(seed.point, outcome.cost, outcome.feasible,
            clock_ + outcome.eval_minutes, /*technique=*/0,
            /*parent=*/nullptr);
    // Every technique starts from the seed knowledge (attribution
    // included, for the landscape-aware arms).
    for (std::size_t t = 0; t < bandit_.num_techniques(); ++t) {
      bandit_.technique(t).SeedWith(seed.point, outcome.cost,
                                    outcome.feasible);
      bandit_.technique(t).ObserveEvaluation(seed.point, outcome.cost,
                                             outcome.feasible,
                                             outcome.bottleneck);
    }
    S2FA_LOG_DEBUG("seed '" << seed.label << "' cost=" << outcome.cost
                            << " feasible=" << outcome.feasible);
  }
  clock_ += batch_minutes;
}

bool TuneSession::Iterate() {
  S2FA_SPAN("tuner.iteration");
  // Propose one batch, remembering each proposal's parent point so the
  // database attributes mutated factors to the technique's own base,
  // not to whichever batch member happened to land before it.
  struct Pending {
    std::size_t technique;
    Point point;
    bool has_parent = false;
    Point parent;
  };
  std::vector<Pending> batch;
  batch.reserve(static_cast<std::size_t>(options_.parallel));
  std::size_t batch_technique = bandit_.Select(rng_);
  for (int i = 0; i < options_.parallel; ++i) {
    std::size_t t = options_.homogeneous_batches ? batch_technique
                                                 : bandit_.Select(rng_);
    Pending pending;
    pending.technique = t;
    pending.point = bandit_.technique(t).Propose(rng_);
    if (const Point* base = bandit_.technique(t).last_proposal_base()) {
      pending.has_parent = true;
      pending.parent = *base;
    }
    batch.push_back(std::move(pending));
  }
  // Evaluate the whole batch; the simulated clock advances by its slowest
  // member.
  std::vector<merlin::DesignConfig> configs;
  configs.reserve(batch.size());
  for (const auto& pending : batch) {
    configs.push_back(space_->ToConfig(pending.point));
  }
  std::vector<EvalOutcome> outcomes = EvaluateBatch(evaluate_, configs);
  double batch_minutes = 0;
  for (const EvalOutcome& outcome : outcomes) {
    batch_minutes = std::max(batch_minutes, outcome.eval_minutes);
  }
  // A batch that charges no time would leave RunFor's clock where it is.
  S2FA_REQUIRE(batch_minutes > 0,
               "evaluation batch charged " << batch_minutes << " minutes");
  // Commit in proposal order.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& pending = batch[i];
    const EvalOutcome& outcome = outcomes[i];
    bool new_best = db_.Add(pending.point, outcome.cost, outcome.feasible,
                            clock_ + outcome.eval_minutes, pending.technique,
                            pending.has_parent ? &pending.parent : nullptr);
    bandit_.technique(pending.technique)
        .Report(pending.point, outcome.cost, outcome.feasible);
    bandit_.ReportOutcome(pending.technique, new_best);
    // Commit-order broadcast: every arm sees every evaluation with its
    // bottleneck attribution, so the landscape-aware arms track the global
    // best regardless of which technique proposed it.
    for (std::size_t t = 0; t < bandit_.num_techniques(); ++t) {
      bandit_.technique(t).ObserveEvaluation(pending.point, outcome.cost,
                                             outcome.feasible,
                                             outcome.bottleneck);
    }
    if (obs::Enabled()) {
      const std::string arm = bandit_.technique(pending.technique).name();
      S2FA_COUNT("tuner.evaluations", 1);
      S2FA_COUNT("tuner.arm." + arm + ".selected", 1);
      S2FA_OBSERVE("tuner.eval_minutes", outcome.eval_minutes);
      if (new_best) {
        S2FA_COUNT("tuner.best_updates", 1);
        S2FA_COUNT("tuner.arm." + arm + ".best", 1);
        S2FA_GAUGE("tuner.best_cost", db_.best_cost());
      }
    }
  }
  clock_ += batch_minutes;

  return options_.should_stop && options_.should_stop(db_);
}

void TuneSession::FinishWith(const std::string& reason) {
  finished_ = true;
  stop_reason_ = reason;
  S2FA_COUNT("tuner.stop." + reason, 1);
}

double TuneSession::RunFor(double minutes) {
  S2FA_REQUIRE(minutes > 0, "slice must be positive");
  if (finished_) return 0;
  granted_ = std::min(granted_ + minutes, options_.time_limit_minutes);
  const double start_clock = clock_;
  // Seed evaluations first (one batch; they occupy the parallel
  // evaluators). They are charged even if they alone exceed the budget,
  // matching the uninterrupted loop.
  if (!seeded_) {
    seeded_ = true;
    EvaluateSeeds();
  }
  while (!finished_ && clock_ < granted_) {
    if (Iterate()) {
      FinishWith(options_.stop_reason_label);
    }
  }
  if (!finished_ && clock_ >= options_.time_limit_minutes) {
    FinishWith("time limit");
  }
  return clock_ - start_clock;
}

TuneResult TuneSession::Result() const {
  // The final batch may overshoot the budget; its evaluations stay in the
  // database (they were genuinely performed and the stop criterion saw
  // them), but the reported trace and best are clamped to the granted
  // budget so a run can never claim an improvement found after the budget
  // expired.
  const double limit = std::min(granted_, options_.time_limit_minutes);
  TuneResult result;
  for (const Record& rec : db_.records()) {
    result.eval_times_minutes.push_back(rec.time_minutes);
    if (rec.improved) {
      result.improvements.push_back(
          {rec.time_minutes, rec.cost, space_->ToConfig(rec.point)});
      if (rec.time_minutes <= limit) {
        result.found_feasible = true;
        result.best = rec.point;
        result.best_cost = rec.cost;
      }
    }
  }
  if (result.found_feasible) {
    result.best_config = space_->ToConfig(result.best);
  }
  result.elapsed_minutes = std::min(clock_, limit);
  result.evaluations = db_.size();
  result.stop_reason = finished_ ? stop_reason_ : "budget exhausted";
  std::vector<TracePoint> clipped;
  clipped.reserve(db_.trace().size());
  for (const TracePoint& tp : db_.trace()) {
    if (tp.time_minutes <= limit) clipped.push_back(tp);
  }
  result.trace = DedupTrace(std::move(clipped));
  return result;
}

TuneResult Tune(const DesignSpace& space, const EvalFn& evaluate,
                const TuneOptions& options) {
  S2FA_SPAN("tuner.tune");
  TuneSession session(space, evaluate, options);
  session.RunFor(options.time_limit_minutes);
  return session.Result();
}

}  // namespace s2fa::tuner
