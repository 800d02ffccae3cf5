#include "blaze/chaos.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "blaze/internal.h"
#include "resilience/fault.h"
#include "support/error.h"

namespace s2fa::blaze {

namespace {

using detail::StmtParser;

// Kill/restart schedules per shard must alternate kill, restart, kill, ...
// in strictly increasing time order or "dead at t" is ambiguous.
void ValidateLifecycle(const ChaosPlan& plan) {
  std::map<std::size_t, std::vector<std::pair<double, bool>>> events;
  for (const ChaosKill& kill : plan.kills) {
    events[kill.shard].emplace_back(kill.at_us, true);
  }
  for (const ChaosRestart& restart : plan.restarts) {
    events[restart.shard].emplace_back(restart.at_us, false);
  }
  for (auto& [shard, timeline] : events) {
    std::sort(timeline.begin(), timeline.end());
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      if (i > 0 && timeline[i].first == timeline[i - 1].first) {
        throw MalformedInput(
            "chaos plan: shard " + std::to_string(shard) +
            " has two lifecycle events at t=" +
            std::to_string(timeline[i].first) + "us");
      }
      const bool want_kill = i % 2 == 0;
      if (timeline[i].second != want_kill) {
        throw MalformedInput(
            "chaos plan: shard " + std::to_string(shard) +
            " lifecycle must alternate kill/restart in time order (event " +
            std::to_string(i) + " at t=" +
            std::to_string(timeline[i].first) + "us is a " +
            (timeline[i].second ? "kill" : "restart") + ")");
      }
    }
  }
}

void ValidateBursts(const ChaosPlan& plan) {
  // Per-target overlap: an unscoped burst applies to every shard, so it
  // conflicts with any scoped window it overlaps too.
  auto overlaps = [](const ChaosBurst& a, const ChaosBurst& b) {
    return a.start < b.start + b.length && b.start < a.start + a.length;
  };
  for (std::size_t i = 0; i < plan.bursts.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.bursts.size(); ++j) {
      const ChaosBurst& a = plan.bursts[i];
      const ChaosBurst& b = plan.bursts[j];
      const bool same_target =
          !a.shard || !b.shard || *a.shard == *b.shard;
      if (same_target && overlaps(a, b)) {
        throw MalformedInput(
            "chaos plan: fault bursts [" + std::to_string(a.start) + ":" +
            std::to_string(a.length) + ") and [" + std::to_string(b.start) +
            ":" + std::to_string(b.length) + ") overlap on the same target");
      }
    }
  }
}

void ValidateSpikes(const ChaosPlan& plan) {
  std::vector<std::pair<double, double>> windows;
  for (const ChaosSpike& spike : plan.spikes) {
    if (spike.factor <= 1.0 || !std::isfinite(spike.factor)) {
      throw MalformedInput("chaos plan: spike factor must be > 1 and finite");
    }
    if (spike.duration_us <= 0 || !std::isfinite(spike.duration_us)) {
      throw MalformedInput("chaos plan: spike duration must be > 0");
    }
    windows.emplace_back(spike.start_us, spike.start_us + spike.duration_us);
  }
  std::sort(windows.begin(), windows.end());
  for (std::size_t i = 1; i < windows.size(); ++i) {
    if (windows[i].first < windows[i - 1].second) {
      throw MalformedInput(
          "chaos plan: latency spikes overlap (their composition would be "
          "order-dependent)");
    }
  }
}

// The once-only directives seen so far in one plan.
struct SeenDirectives {
  bool poison_rate = false;
  bool fault_rate = false;
};

// `<what>-rate <rate> [/ <seed>]` after the verb: a hash-sampled rate that
// may appear once per plan, whatever its value.
void ParseRate(StmtParser& p, const std::string& what, bool& seen,
               double& rate, std::uint64_t& seed) {
  const double value = p.ParseNumber();
  if (value < 0 || value > 1.0) p.Fail(what + " rate must be in [0, 1]");
  if (seen) p.Fail("duplicate " + what + "-rate directive");
  seen = true;
  rate = value;
  if (p.Consume('/')) seed = static_cast<std::uint64_t>(p.ParseIndex());
  p.ExpectEnd();
}

void ParseDirective(const std::string& stmt, ChaosPlan& plan,
                    SeenDirectives& seen) {
  StmtParser p("chaos plan", stmt);
  // Longest verb first: "poison-rate" shares the "poison" prefix.
  if (p.ConsumePrefix("poison-rate")) {
    ParseRate(p, "poison", seen.poison_rate, plan.poison_rate,
              plan.poison_seed);
  } else if (p.ConsumePrefix("fault-rate")) {
    ParseRate(p, "fault", seen.fault_rate, plan.fault_rate, plan.fault_seed);
  } else if (p.ConsumePrefix("poison")) {
    do {
      plan.poison_ids.push_back(p.ParseIndex());
    } while (p.Consume(','));
    p.ExpectEnd();
  } else if (p.ConsumePrefix("kill")) {
    ChaosKill kill;
    kill.shard = p.ParseIndex();
    p.Expect('@');
    kill.at_us = p.ParseTimeUs();
    p.ExpectEnd();
    plan.kills.push_back(kill);
  } else if (p.ConsumePrefix("restart")) {
    ChaosRestart restart;
    restart.shard = p.ParseIndex();
    p.Expect('@');
    restart.at_us = p.ParseTimeUs();
    p.ExpectEnd();
    plan.restarts.push_back(restart);
  } else if (p.ConsumePrefix("burst")) {
    ChaosBurst burst;
    burst.start = p.ParseIndex();
    p.Expect(':');
    burst.length = p.ParseIndex();
    if (burst.length == 0) p.Fail("burst length must be >= 1");
    if (p.Consume('@')) burst.shard = p.ParseIndex();
    p.ExpectEnd();
    plan.bursts.push_back(burst);
  } else if (p.ConsumePrefix("spike")) {
    ChaosSpike spike;
    spike.factor = p.ParseNumber();
    if (spike.factor <= 1.0 || !std::isfinite(spike.factor)) {
      p.Fail("spike factor must be > 1");
    }
    p.Expect('@');
    spike.start_us = p.ParseTimeUs();
    p.Expect('+');
    spike.duration_us = p.ParseTimeUs();
    if (spike.duration_us <= 0) p.Fail("spike duration must be > 0");
    p.ExpectEnd();
    plan.spikes.push_back(spike);
  } else if (p.ConsumePrefix("flood")) {
    ChaosFlood flood;
    flood.tenant = p.ParseName();
    p.Expect('@');
    flood.start_us = p.ParseTimeUs();
    p.Expect('+');
    flood.duration_us = p.ParseTimeUs();
    p.Expect('x');
    flood.requests = p.ParseIndex();
    if (flood.requests == 0) p.Fail("flood request count must be >= 1");
    p.ExpectEnd();
    plan.floods.push_back(flood);
  } else {
    p.Fail("unknown directive");
  }
}

}  // namespace

ChaosPlan ParseChaosPlan(const std::string& text) {
  ChaosPlan plan;
  SeenDirectives seen;
  detail::ForEachStatement(text, [&plan, &seen](const std::string& stmt) {
    ParseDirective(stmt, plan, seen);
  });
  std::sort(plan.poison_ids.begin(), plan.poison_ids.end());
  ValidateChaosPlan(plan);
  return plan;
}

void ValidateChaosPlan(const ChaosPlan& plan) {
  if (!std::is_sorted(plan.poison_ids.begin(), plan.poison_ids.end())) {
    throw MalformedInput("chaos plan: poison ids must be sorted");
  }
  if (std::adjacent_find(plan.poison_ids.begin(), plan.poison_ids.end()) !=
      plan.poison_ids.end()) {
    throw MalformedInput("chaos plan: duplicate poison request id");
  }
  if (plan.poison_rate < 0 || plan.poison_rate > 1.0 ||
      !std::isfinite(plan.poison_rate)) {
    throw MalformedInput("chaos plan: poison rate must be in [0, 1]");
  }
  if (plan.fault_rate < 0 || plan.fault_rate > 1.0 ||
      !std::isfinite(plan.fault_rate)) {
    throw MalformedInput("chaos plan: fault rate must be in [0, 1]");
  }
  for (const ChaosBurst& burst : plan.bursts) {
    if (burst.length == 0) {
      throw MalformedInput("chaos plan: burst length must be >= 1");
    }
  }
  for (const ChaosFlood& flood : plan.floods) {
    if (flood.requests == 0) {
      throw MalformedInput("chaos plan: flood request count must be >= 1");
    }
  }
  ValidateLifecycle(plan);
  ValidateBursts(plan);
  ValidateSpikes(plan);
}

bool IsPoisoned(const ChaosPlan& plan, std::size_t request_id) {
  if (std::binary_search(plan.poison_ids.begin(), plan.poison_ids.end(),
                         request_id)) {
    return true;
  }
  if (plan.poison_rate <= 0) return false;
  return resilience::detail::HashRoll(plan.poison_seed,
                                      "poison#" + std::to_string(request_id),
                                      0) < plan.poison_rate;
}

double SpikeFactorAt(const ChaosPlan& plan, double t_us) {
  for (const ChaosSpike& spike : plan.spikes) {
    if (t_us >= spike.start_us && t_us < spike.start_us + spike.duration_us) {
      return spike.factor;
    }
  }
  return 1.0;
}

AccelFaultInjector MakeShardFaultInjector(const ChaosPlan& plan,
                                          std::size_t shard) {
  std::vector<ChaosBurst> windows;
  for (const ChaosBurst& burst : plan.bursts) {
    if (!burst.shard || *burst.shard == shard) windows.push_back(burst);
  }
  if (windows.empty() && plan.fault_rate <= 0) return nullptr;
  return [windows = std::move(windows), rate = plan.fault_rate,
          seed = plan.fault_seed](const std::string& accel_id,
                                  std::size_t invocation, int attempt) {
    for (const ChaosBurst& burst : windows) {
      if (invocation >= burst.start &&
          invocation < burst.start + burst.length) {
        return true;
      }
    }
    return rate > 0 &&
           resilience::detail::HashRoll(
               seed, "fault#" + accel_id + "#" + std::to_string(invocation),
               attempt) < rate;
  };
}

}  // namespace s2fa::blaze
