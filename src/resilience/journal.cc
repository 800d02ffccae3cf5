#include "resilience/journal.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/obs.h"
#include "support/error.h"
#include "support/logging.h"

namespace s2fa::resilience {

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

// A pocket parser for exactly the lines RenderJournalEntry emits: one flat
// object of string / number / null / bool fields.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : text_(line) {}

  JournalEntry Parse() {
    JournalEntry entry;
    bool have_key = false, have_feasible = false, have_minutes = false;
    bool have_cost = false;
    Expect('{');
    while (true) {
      std::string field = ParseString();
      Expect(':');
      if (field == "key") {
        entry.key = ParseString();
        have_key = true;
      } else if (field == "feasible") {
        entry.outcome.feasible = ParseBool();
        have_feasible = true;
      } else if (field == "cost") {
        entry.outcome.cost = ParseNumberOrNull(tuner::kInfeasibleCost);
        have_cost = true;
      } else if (field == "eval_minutes") {
        entry.outcome.eval_minutes = ParseNumberOrNull(0.0);
        have_minutes = true;
      } else if (field == "bottleneck") {
        // Optional (absent on pre-attribution journals and kNone results).
        const std::string name = ParseString();
        auto kind = hls::BottleneckKindFromName(name);
        if (!kind) {
          throw MalformedInput("journal: unknown bottleneck '" + name + "'");
        }
        entry.outcome.bottleneck.kind = *kind;
      } else if (field == "bneck_quantity") {
        entry.outcome.bottleneck.quantity = ParseNumberOrNull(0.0);
      } else if (field == "bneck_margin") {
        entry.outcome.bottleneck.margin = ParseNumberOrNull(0.0);
      } else {
        throw MalformedInput("journal: unknown field '" + field + "'");
      }
      char c = Next();
      if (c == '}') break;
      if (c != ',') throw MalformedInput("journal: expected ',' or '}'");
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      throw MalformedInput("journal: trailing content");
    }
    if (!have_key || !have_feasible || !have_cost || !have_minutes) {
      throw MalformedInput("journal: incomplete entry");
    }
    return entry;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Next() {
    SkipSpace();
    if (pos_ >= text_.size()) throw MalformedInput("journal: truncated line");
    return text_[pos_++];
  }

  void Expect(char c) {
    if (Next() != c) {
      throw MalformedInput(std::string("journal: expected '") + c + "'");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              throw MalformedInput("journal: truncated \\u escape");
            }
            int code =
                std::stoi(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            out += static_cast<char>(code);
            break;
          }
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) {
      throw MalformedInput("journal: unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  bool ParseBool() {
    SkipSpace();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    throw MalformedInput("journal: expected boolean");
  }

  double ParseNumberOrNull(double null_value) {
    SkipSpace();
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return null_value;
    }
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) throw MalformedInput("journal: expected number");
    double value = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string JsonNumberOrNull(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string RenderJournalEntry(const JournalEntry& entry) {
  std::ostringstream oss;
  oss << "{\"key\":" << JsonString(entry.key)
      << ",\"feasible\":" << (entry.outcome.feasible ? "true" : "false")
      << ",\"cost\":" << JsonNumberOrNull(entry.outcome.cost)
      << ",\"eval_minutes\":" << JsonNumberOrNull(entry.outcome.eval_minutes);
  if (entry.outcome.bottleneck.kind != hls::BottleneckKind::kNone) {
    // kNone renders as the bare legacy line, so old and new journals
    // interleave and a no-attribution entry round-trips byte-identically.
    oss << ",\"bottleneck\":"
        << JsonString(hls::BottleneckKindName(entry.outcome.bottleneck.kind))
        << ",\"bneck_quantity\":"
        << JsonNumberOrNull(entry.outcome.bottleneck.quantity)
        << ",\"bneck_margin\":"
        << JsonNumberOrNull(entry.outcome.bottleneck.margin);
  }
  oss << "}";
  return oss.str();
}

JournalEntry ParseJournalEntry(const std::string& line) {
  return LineParser(line).Parse();
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
        entries_[entry.key] = entry.outcome;
        ++resumed_;
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
  S2FA_LOG_INFO("journal " << path << ": resumed " << resumed_
                           << " evaluation(s)");
}

std::optional<tuner::EvalOutcome> EvalJournal::Find(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void EvalJournal::Record(const std::string& key,
                         const tuner::EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Threads that miss on one key at the same time each evaluate it. Only
  // the first outcome is kept and written, so the file holds one line per
  // key and a resume loads exactly the entries this run knew.
  if (!entries_.emplace(key, outcome).second) return;
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
  return entries_.size();
}

std::size_t EvalJournal::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t EvalJournal::resumed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resumed_;
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
