// DSE evaluation journal: checkpoint/resume for expensive explorations.
//
// Every completed evaluation is appended as one JSONL line of
// (key, outcome), where the key is "<scope>|<config.ToString()>" — the
// scope isolates the training phase and each partition so that a resumed
// run replays exactly the stream the killed run produced, regardless of
// thread interleaving. On Open() an existing journal is loaded, and
// lookups for its keys are answered from memory without calling the black
// box: a killed exploration restarts without re-paying a single journaled
// synthesis job. Only loaded entries answer lookups. An evaluation
// recorded in this run is appended but never answers a later proposal of
// the same run, so a journaled run computes exactly what an unjournaled
// one does. A torn trailing line (the writer died mid-append) is skipped
// with a warning rather than failing the resume.
//
// Format (one object per line; cost null encodes an infinite/infeasible
// objective, since JSON has no Infinity):
//   {"key":"p0|{L0: tile=1 par=8 ...}","feasible":true,
//    "cost":123.45,"eval_minutes":5.5}
#pragma once

#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "tuner/driver.h"

namespace s2fa::resilience {

struct JournalEntry {
  std::string key;
  tuner::EvalOutcome outcome;
};

std::string RenderJournalEntry(const JournalEntry& entry);
// Throws MalformedInput on unparsable lines.
JournalEntry ParseJournalEntry(const std::string& line);

class EvalJournal {
 public:
  EvalJournal() = default;  // closed: nothing loaded, no file I/O

  // Loads `path` if it exists (skipping corrupt lines with a warning) and
  // opens it for appending. Throws Error when the path is not writable.
  void Open(const std::string& path);
  bool open() const { return out_.is_open(); }

  // The outcome loaded for `key` at Open(); never one recorded since.
  std::optional<tuner::EvalOutcome> Find(const std::string& key) const;
  // Appends the first outcome recorded for `key`; later ones for the same
  // key, or for a loaded key, are dropped.
  void Record(const std::string& key, const tuner::EvalOutcome& outcome);

  std::size_t entries() const;   // keys known (loaded + recorded)
  std::size_t hits() const;      // evaluations answered from the journal
  std::size_t resumed() const;   // entries loaded from disk at Open()

  // Wraps `inner` under `scope`: loaded keys short-circuit, every other
  // call evaluates and records. The journal must outlive the returned
  // function.
  tuner::EvalFn Wrap(const std::string& scope, tuner::EvalFn inner);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, tuner::EvalOutcome> loaded_;
  std::set<std::string> keys_;  // loaded + recorded, each written once
  std::ofstream out_;
  std::size_t hits_ = 0;
};

}  // namespace s2fa::resilience
