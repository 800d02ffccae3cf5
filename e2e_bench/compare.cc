#include "compare.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "support/error.h"

namespace s2fa::e2e {
namespace {

using obs::json::JsonObject;
using obs::json::JsonValue;

JsonValue ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return obs::json::Parse(text.str());
}

// The member `key` of `object`, or nullptr when it has none.
const JsonValue* Find(const JsonValue& object, const std::string& key) {
  const JsonObject& members = object.object();
  const auto it = members.find(key);
  return it != members.end() ? &it->second : nullptr;
}

const JsonValue& At(const JsonValue& object, const std::string& key) {
  const JsonValue* value = Find(object, key);
  if (value == nullptr) throw MalformedInput("missing member " + key);
  return *value;
}

std::string Quartiles(const JsonValue& metric) {
  char text[96];
  std::snprintf(text, sizeof text, "%.5g [%.5g, %.5g] n=%.0f",
                At(metric, "median").number(), At(metric, "q1").number(),
                At(metric, "q3").number(), At(metric, "n").number());
  return text;
}

}  // namespace

int Compare(const std::string& a_path, const std::string& b_path,
            const std::string& spec_path) {
  const JsonValue spec = ReadJson(spec_path);
  const JsonValue a = ReadJson(a_path);
  const JsonValue b = ReadJson(b_path);
  const bool same_inputs =
      At(a, "seed").number() == At(b, "seed").number() &&
      At(a, "quick").number() == At(b, "quick").number();

  bool ok = true;
  std::printf("%-15s %-13s %-36s %-36s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "bound",
              "verdict");
  for (const JsonValue& workload : At(spec, "workloads").array()) {
    const std::string& name = At(workload, "name").string();
    const JsonValue* wa = Find(At(a, "workloads"), name);
    const JsonValue* wb = Find(At(b, "workloads"), name);
    if (wa == nullptr || wb == nullptr) {
      std::printf("%-15s missing from %s\n", name.c_str(),
                  wa == nullptr ? "A" : "B");
      ok = false;
      continue;
    }
    if (At(*wa, "correct").number() != 1 || At(*wb, "correct").number() != 1) {
      std::printf("%-15s a run failed its correctness checks\n", name.c_str());
      ok = false;
    }
    for (const JsonValue& spec_metric : At(spec, "end_to_end").array()) {
      const std::string& metric = At(spec_metric, "name").string();
      const JsonValue* ma = Find(At(*wa, "metrics"), metric);
      const JsonValue* mb = Find(At(*wb, "metrics"), metric);
      if (ma == nullptr || mb == nullptr) {
        std::printf("%-15s %-13s missing from %s\n", name.c_str(),
                    metric.c_str(), ma == nullptr ? "A" : "B");
        ok = false;
        continue;
      }
      const double bound = At(spec_metric, "bound").number();
      const double median = At(*ma, "median").number();
      const double spread =
          (At(*ma, "q3").number() - At(*ma, "q1").number()) /
          std::fabs(median);
      const double change =
          (At(*mb, "median").number() - median) / std::fabs(median);
      const double worse =
          At(spec_metric, "better").string() == "lower" ? change : -change;
      const std::string verdict = !(spread <= bound) ? "unresolved"
                                  : worse > bound    ? "regressed"
                                  : worse < -bound   ? "improved"
                                                     : "within";
      ok = ok && verdict != "regressed";
      std::printf("%-15s %-13s %-36s %-36s %+7.2f%% %5.0f%%  %s\n",
                  name.c_str(), metric.c_str(), Quartiles(*ma).c_str(),
                  Quartiles(*mb).c_str(), 100 * change, 100 * bound,
                  verdict.c_str());
    }
    if (same_inputs) {
      const bool identical =
          At(*wa, "hash").string() == At(*wb, "hash").string();
      ok = ok && identical;
      std::printf("%-15s %-13s %s\n", name.c_str(), "outcomes",
                  identical ? "identical (canonical hash)"
                            : "DIFFER (canonical hash)");
    }
  }
  return ok ? 0 : 1;
}

}  // namespace s2fa::e2e
