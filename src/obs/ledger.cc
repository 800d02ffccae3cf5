#include "obs/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"
#include "support/error.h"
#include "support/strings.h"
#include "support/table.h"

namespace s2fa::obs {

using json::JsonNumber;
using json::JsonObject;
using json::JsonString;
using json::JsonValue;

std::string RenderLedgerJson(const PerfLedger& ledger) {
  std::string out = "{\n";
  out += "  \"schema\": " + JsonString(kPerfLedgerSchema) + ",\n";
  out += "  \"version\": " + std::to_string(ledger.version) + ",\n";
  out += "  \"git_rev\": " + JsonString(ledger.git_rev) + ",\n";
  out += "  \"timestamp\": " + JsonString(ledger.timestamp) + ",\n";

  out += "  \"benchmarks\": {";
  bool first = true;
  for (const auto& [name, entry] : ledger.benchmarks) {
    out += first ? "\n" : ",\n";
    out += "    " + JsonString(name) +
           ": {\"ns_per_op\": " + JsonNumber(entry.ns_per_op) +
           ", \"ops\": " + JsonNumber(entry.ops) +
           ", \"wall_ms\": " + JsonNumber(entry.wall_ms) + "}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

PerfLedger ParseLedgerJson(const std::string& text) {
  JsonValue root = json::Parse(text);
  const JsonObject& object = root.object();

  const auto field = [&](const char* name) -> const JsonValue& {
    auto it = object.find(name);
    if (it == object.end()) {
      throw MalformedInput(std::string("perf ledger: missing field '") +
                           name + "'");
    }
    return it->second;
  };

  if (field("schema").string() != kPerfLedgerSchema) {
    throw MalformedInput("perf ledger: unknown schema '" +
                         field("schema").string() + "' (expected " +
                         kPerfLedgerSchema + ")");
  }
  PerfLedger ledger;
  ledger.version = static_cast<int>(field("version").number());
  if (ledger.version != kPerfLedgerVersion) {
    throw MalformedInput("perf ledger: unsupported version " +
                         std::to_string(ledger.version) + " (expected " +
                         std::to_string(kPerfLedgerVersion) + ")");
  }
  ledger.git_rev = field("git_rev").string();
  ledger.timestamp = field("timestamp").string();

  for (const auto& [name, value] : field("benchmarks").object()) {
    const JsonObject& e = value.object();
    LedgerEntry entry;
    entry.ns_per_op = e.at("ns_per_op").number();
    if (!std::isfinite(entry.ns_per_op) || entry.ns_per_op < 0) {
      throw MalformedInput("perf ledger: benchmark '" + name +
                           "' has a non-finite or negative ns_per_op");
    }
    if (auto it = e.find("ops"); it != e.end()) {
      entry.ops = it->second.number();
    }
    if (auto it = e.find("wall_ms"); it != e.end()) {
      entry.wall_ms = it->second.number();
    }
    ledger.benchmarks[name] = entry;
  }
  return ledger;
}

PerfLedger LoadLedgerFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("perf ledger: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return ParseLedgerJson(text.str());
  } catch (const MalformedInput& e) {
    throw MalformedInput(path + ": " + e.what());
  }
}

std::optional<PerfLedger> TryLoadLedgerFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return ParseLedgerJson(text.str());
  } catch (const MalformedInput& e) {
    throw MalformedInput(path + ": " + e.what());
  }
}

void WriteLedgerFile(const std::string& path, const PerfLedger& ledger) {
  std::ofstream file(path);
  if (!file) throw Error("perf ledger: cannot open " + path);
  file << RenderLedgerJson(ledger);
  if (!file.good()) throw Error("perf ledger: failed writing " + path);
}

PerfLedger MergeLedgers(PerfLedger base, const PerfLedger& update) {
  base.version = update.version;
  base.git_rev = update.git_rev;
  base.timestamp = update.timestamp;
  for (const auto& [name, entry] : update.benchmarks) {
    base.benchmarks[name] = entry;
  }
  return base;
}

void StampLedgerFromEnv(PerfLedger& ledger) {
  if (const char* rev = std::getenv("S2FA_GIT_REV")) ledger.git_rev = rev;
  if (const char* ts = std::getenv("S2FA_BENCH_TIMESTAMP")) {
    ledger.timestamp = ts;
  }
}

const char* LedgerDiffKindName(LedgerDiffKind kind) {
  switch (kind) {
    case LedgerDiffKind::kImproved: return "improved";
    case LedgerDiffKind::kFlat: return "flat";
    case LedgerDiffKind::kRegressed: return "regressed";
    case LedgerDiffKind::kAdded: return "added";
    case LedgerDiffKind::kRemoved: return "removed";
  }
  return "?";
}

LedgerDiff ComparePerfLedgers(const PerfLedger& prev, const PerfLedger& next,
                              double threshold) {
  LedgerDiff diff;
  diff.threshold = threshold;
  for (const auto& [name, old_entry] : prev.benchmarks) {
    LedgerDiffEntry entry;
    entry.name = name;
    entry.old_ns_per_op = old_entry.ns_per_op;
    auto it = next.benchmarks.find(name);
    if (it == next.benchmarks.end()) {
      entry.kind = LedgerDiffKind::kRemoved;
      ++diff.removed;
      diff.entries.push_back(std::move(entry));
      continue;
    }
    entry.new_ns_per_op = it->second.ns_per_op;
    if (old_entry.ns_per_op > 0) {
      entry.delta =
          (entry.new_ns_per_op - entry.old_ns_per_op) / entry.old_ns_per_op;
    } else if (entry.new_ns_per_op > 0) {
      entry.delta = std::numeric_limits<double>::infinity();
    }
    if (std::fabs(entry.delta) <= threshold) {
      entry.kind = LedgerDiffKind::kFlat;
      ++diff.flat;
    } else if (entry.delta < 0) {
      entry.kind = LedgerDiffKind::kImproved;
      ++diff.improved;
    } else {
      entry.kind = LedgerDiffKind::kRegressed;
      ++diff.regressed;
    }
    diff.entries.push_back(std::move(entry));
  }
  for (const auto& [name, new_entry] : next.benchmarks) {
    if (prev.benchmarks.count(name) != 0) continue;
    LedgerDiffEntry entry;
    entry.name = name;
    entry.kind = LedgerDiffKind::kAdded;
    entry.new_ns_per_op = new_entry.ns_per_op;
    ++diff.added;
    diff.entries.push_back(std::move(entry));
  }
  // Both loops walk std::maps, so the merged list only needs one sort to
  // be name-ordered.
  std::stable_sort(diff.entries.begin(), diff.entries.end(),
                   [](const LedgerDiffEntry& a, const LedgerDiffEntry& b) {
                     return a.name < b.name;
                   });
  return diff;
}

std::string RenderLedgerDiffTable(const LedgerDiff& diff) {
  TextTable table({"Benchmark", "Old ns/op", "New ns/op", "Delta", "Class"});
  for (const LedgerDiffEntry& entry : diff.entries) {
    const bool both = entry.kind != LedgerDiffKind::kAdded &&
                      entry.kind != LedgerDiffKind::kRemoved;
    table.AddRow(
        {entry.name,
         entry.kind == LedgerDiffKind::kAdded
             ? "--"
             : FormatDouble(entry.old_ns_per_op, 1),
         entry.kind == LedgerDiffKind::kRemoved
             ? "--"
             : FormatDouble(entry.new_ns_per_op, 1),
         both && std::isfinite(entry.delta)
             ? (entry.delta >= 0 ? "+" : "") + FormatPercent(entry.delta)
             : "--",
         LedgerDiffKindName(entry.kind)});
  }
  std::string out = table.Render();
  out += "threshold " + FormatPercent(diff.threshold) + ": " +
         std::to_string(diff.improved) + " improved, " +
         std::to_string(diff.flat) + " flat, " +
         std::to_string(diff.regressed) + " regressed, " +
         std::to_string(diff.added) + " added, " +
         std::to_string(diff.removed) + " removed\n";
  return out;
}

}  // namespace s2fa::obs
