// Persistent perf ledger: the repo's perf trajectory lives in versioned
// `BENCH_micro.json` snapshots (schema "s2fa-perf-ledger", version 1) that
// the component microbenchmarks emit every run — benchmark name -> host
// ns/op plus wall-clock context. Git revision and timestamp are passed in
// by the harness (S2FA_GIT_REV / S2FA_BENCH_TIMESTAMP environment,
// "unknown" otherwise) — the ledger itself never reaches for the clock so
// golden snapshots stay comparable. The parser ignores keys it does not
// know, so v1 files that still carry the retired `counters`/`histograms`
// sections load unchanged.
//
// The comparator diffs a current run against a previous snapshot and
// classifies each benchmark entry as improved / flat / regressed against a
// configurable relative threshold (plus added / removed for entries only
// one side has). `s2fa perf-diff` exits nonzero when anything regressed at
// or beyond the threshold — the regression gate every later perf PR is
// measured against.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace s2fa::obs {

inline constexpr const char* kPerfLedgerSchema = "s2fa-perf-ledger";
inline constexpr int kPerfLedgerVersion = 1;
// Relative ns/op change below which an entry counts as flat.
inline constexpr double kDefaultPerfThreshold = 0.10;

struct LedgerEntry {
  double ns_per_op = 0;
  double ops = 0;      // iterations/records measured (0 = unknown)
  double wall_ms = 0;  // wall clock of the measurement (0 = unknown)
};

struct PerfLedger {
  int version = kPerfLedgerVersion;
  std::string git_rev = "unknown";
  std::string timestamp = "unknown";
  std::map<std::string, LedgerEntry> benchmarks;
};

// Rendering / parsing. ParseLedgerJson validates the schema marker and
// version and throws MalformedInput on anything it can't read.
std::string RenderLedgerJson(const PerfLedger& ledger);
PerfLedger ParseLedgerJson(const std::string& text);

// File I/O. LoadLedgerFile throws Error when the file can't be read;
// TryLoadLedgerFile returns nullopt for a missing file (first run) but
// still throws on a present-but-malformed one — a corrupt trajectory
// should fail loudly, not silently restart.
PerfLedger LoadLedgerFile(const std::string& path);
std::optional<PerfLedger> TryLoadLedgerFile(const std::string& path);
void WriteLedgerFile(const std::string& path, const PerfLedger& ledger);

// Merge for incremental updates: `update`'s benchmarks overwrite
// same-named entries in `base`, everything else carries over, and
// the metadata (rev, timestamp) comes from `update`. This is how several
// bench binaries share one BENCH_micro.json.
PerfLedger MergeLedgers(PerfLedger base, const PerfLedger& update);

// Stamps git_rev/timestamp from S2FA_GIT_REV / S2FA_BENCH_TIMESTAMP when
// set (harness-provided); leaves the existing values otherwise.
void StampLedgerFromEnv(PerfLedger& ledger);

// ------------------------------------------------------------- comparator

enum class LedgerDiffKind { kImproved, kFlat, kRegressed, kAdded, kRemoved };
const char* LedgerDiffKindName(LedgerDiffKind kind);

struct LedgerDiffEntry {
  std::string name;
  LedgerDiffKind kind = LedgerDiffKind::kFlat;
  double old_ns_per_op = 0;
  double new_ns_per_op = 0;
  double delta = 0;  // (new - old) / old; 0 when old is unknown/zero
};

struct LedgerDiff {
  double threshold = kDefaultPerfThreshold;
  std::vector<LedgerDiffEntry> entries;  // ordered by name
  std::size_t improved = 0;
  std::size_t flat = 0;
  std::size_t regressed = 0;
  std::size_t added = 0;
  std::size_t removed = 0;

  bool HasRegression() const { return regressed > 0; }
};

// Classifies every benchmark entry of `next` against `prev`: |delta| <=
// threshold is flat, a faster entry improved, a slower one regressed;
// entries only one side has are added/removed (never a regression).
LedgerDiff ComparePerfLedgers(const PerfLedger& prev, const PerfLedger& next,
                              double threshold = kDefaultPerfThreshold);

std::string RenderLedgerDiffTable(const LedgerDiff& diff);

}  // namespace s2fa::obs
