// `s2fa_benchmark compare A.json B.json`: the rule later changes are judged
// by. For each workload and end-to-end metric of two benchmark_result.json
// files it prints both medians and quartiles and a verdict against the
// metric's bound in BENCHMARK.json:
//
//   unresolved  A's interquartile spread, as a share of its median, exceeds
//               the bound, so no change within the bound can be told apart
//   regressed   B's median is worse than A's by more than the bound
//   improved    B's median is better than A's by more than the bound
//   within      otherwise
//
// When both files ran the same seeds, each workload's canonical outcome
// hash (every modeled result) must also be identical: modeled metrics are
// held to bit identity, not to a bound.
#pragma once

#include <string>

namespace s2fa::e2e {

// Returns the exit code: 1 when a metric regressed, a workload or metric is
// missing from either file, a run was incorrect, or the same seeds gave
// different outcome hashes; 0 otherwise.
int Compare(const std::string& a_path, const std::string& b_path,
            const std::string& spec_path);

}  // namespace s2fa::e2e
