#include "resilience/journal.h"

#include <cmath>

#include "obs/json.h"
#include "obs/obs.h"
#include "support/error.h"
#include "support/logging.h"

namespace s2fa::resilience {

namespace {

namespace json = obs::json;

// A number field; null reads as `null_value`.
double NumberOrNull(const json::JsonValue& value, double null_value) {
  if (!value.is_number()) throw MalformedInput("journal: expected number");
  return std::isnan(value.number()) ? null_value : value.number();
}

}  // namespace

std::string RenderJournalEntry(const JournalEntry& entry) {
  const tuner::EvalOutcome& outcome = entry.outcome;
  std::string line =
      "{\"key\":" + json::JsonString(entry.key) +
      ",\"feasible\":" + (outcome.feasible ? "true" : "false") +
      ",\"cost\":" + json::JsonNumber(outcome.cost) +
      ",\"eval_minutes\":" + json::JsonNumber(outcome.eval_minutes);
  if (outcome.bottleneck.kind != hls::BottleneckKind::kNone) {
    // kNone renders as the bare legacy line, so old and new journals
    // interleave and a no-attribution entry round-trips byte-identically.
    line += ",\"bottleneck\":" +
            json::JsonString(hls::BottleneckKindName(outcome.bottleneck.kind)) +
            ",\"bneck_quantity\":" +
            json::JsonNumber(outcome.bottleneck.quantity) +
            ",\"bneck_margin\":" + json::JsonNumber(outcome.bottleneck.margin);
  }
  return line + "}";
}

JournalEntry ParseJournalEntry(const std::string& line) {
  const json::JsonValue root = json::Parse(line);
  JournalEntry entry;
  int required = 0;  // key, feasible, cost and eval_minutes seen
  for (const auto& [field, value] : root.object()) {
    if (field == "key") {
      entry.key = value.string();
      ++required;
    } else if (field == "feasible") {
      entry.outcome.feasible = value.boolean();
      ++required;
    } else if (field == "cost") {
      entry.outcome.cost = NumberOrNull(value, tuner::kInfeasibleCost);
      ++required;
    } else if (field == "eval_minutes") {
      entry.outcome.eval_minutes = NumberOrNull(value, 0.0);
      ++required;
    } else if (field == "bottleneck") {
      // Optional (absent on pre-attribution journals and kNone results).
      auto kind = hls::BottleneckKindFromName(value.string());
      if (!kind) {
        throw MalformedInput("journal: unknown bottleneck '" +
                             value.string() + "'");
      }
      entry.outcome.bottleneck.kind = *kind;
    } else if (field == "bneck_quantity") {
      entry.outcome.bottleneck.quantity = NumberOrNull(value, 0.0);
    } else if (field == "bneck_margin") {
      entry.outcome.bottleneck.margin = NumberOrNull(value, 0.0);
    } else {
      throw MalformedInput("journal: unknown field '" + field + "'");
    }
  }
  if (required != 4) throw MalformedInput("journal: incomplete entry");
  return entry;
}

void EvalJournal::Open(const std::string& path) {
  S2FA_REQUIRE(!path.empty(), "journal path must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  S2FA_REQUIRE(!out_.is_open(), "journal already open");
  {
    std::ifstream in(path);
    std::string line;
    std::size_t skipped = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        JournalEntry entry = ParseJournalEntry(line);
        keys_.insert(entry.key);
        loaded_[entry.key] = entry.outcome;
      } catch (const MalformedInput&) {
        // A torn trailing line means the previous run died mid-append; the
        // evaluation it described simply gets re-done.
        ++skipped;
      }
    }
    if (skipped > 0) {
      S2FA_LOG_WARN("journal " << path << ": skipped " << skipped
                               << " corrupt line(s) on resume");
    }
  }
  // A kill mid-append can leave a torn final line with no newline. Sealing
  // it here keeps the next Record() on its own line; without this, the new
  // record glues onto the torn tail and both are lost on the next resume.
  bool seal_torn_tail = false;
  {
    std::ifstream tail(path, std::ios::binary);
    if (tail) {
      tail.seekg(0, std::ios::end);
      if (tail.tellg() > 0) {
        tail.seekg(-1, std::ios::end);
        char last = '\n';
        tail.get(last);
        seal_torn_tail = last != '\n';
      }
    }
  }
  out_.open(path, std::ios::app);
  if (!out_) {
    throw Error("cannot open journal " + path + " for appending");
  }
  if (seal_torn_tail) {
    out_ << '\n';
    out_.flush();
  }
  S2FA_LOG_INFO("journal " << path << ": resumed " << loaded_.size()
                           << " evaluation(s)");
}

std::optional<tuner::EvalOutcome> EvalJournal::Find(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = loaded_.find(key);
  if (it == loaded_.end()) return std::nullopt;
  return it->second;
}

void EvalJournal::Record(const std::string& key,
                         const tuner::EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A repeat proposal evaluates again, and threads that miss on one key at
  // the same time each evaluate it. Only the first outcome is written, so
  // the file holds one line per key and a resume loads exactly the entries
  // this run knew.
  if (!keys_.insert(key).second) return;
  if (out_.is_open()) {
    // One write() of the full line (newline included) per record: the
    // stream never holds a half-rendered entry in its buffer, so a crash
    // mid-record can tear at most the final line — which Open() already
    // skips as corrupt on resume — never interleave two records.
    const std::string line = RenderJournalEntry({key, outcome}) + '\n';
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
    out_.flush();  // each record survives a kill right after it
  }
}

std::size_t EvalJournal::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return keys_.size();
}

std::size_t EvalJournal::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t EvalJournal::resumed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loaded_.size();
}

tuner::EvalFn EvalJournal::Wrap(const std::string& scope,
                                tuner::EvalFn inner) {
  return [this, scope, inner = std::move(inner)](
             const merlin::DesignConfig& config) {
    const std::string key = scope + "|" + config.ToString();
    if (auto cached = Find(key)) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++hits_;
      }
      S2FA_COUNT("resilience.journal_hits", 1);
      return *cached;
    }
    tuner::EvalOutcome outcome = inner(config);
    Record(key, outcome);
    return outcome;
  };
}

}  // namespace s2fa::resilience
