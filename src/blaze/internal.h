// Helpers shared by the blaze sources; not part of the layer's API.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace s2fa::blaze::detail {

// Nearest-rank quantile (the obs histogram convention); 0 when `samples`
// is empty. q in [0, 1].
double QuantileNearestRank(std::vector<double> samples, double q);

// Calls `parse` on each statement of `text`: statements end at ';' or a
// newline, whitespace is stripped, and empty statements are skipped.
void ForEachStatement(const std::string& text,
                      const std::function<void(const std::string&)>& parse);

// Cursor parser over one whitespace-stripped statement of a text grammar
// (the chaos plan, the arrival schedule). Every helper throws
// MalformedInput as "<grammar>: <why> in '<statement>'", so a typo fails
// the whole load instead of silently running a different schedule.
class StmtParser {
 public:
  StmtParser(const char* grammar, std::string stmt)
      : grammar_(grammar), stmt_(std::move(stmt)) {}

  bool ConsumePrefix(std::string_view prefix);
  bool Consume(char c);
  void Expect(char c);
  void ExpectEnd();
  std::size_t ParseIndex();
  double ParseNumber();
  // NUMBER ['us' | 'ms' | 's'] -> microseconds.
  double ParseTimeUs();
  // [A-Za-z0-9_-]+
  std::string ParseName();
  [[noreturn]] void Fail(const std::string& why) const;

 private:
  unsigned char Char(std::size_t i) const {
    return static_cast<unsigned char>(stmt_[i]);
  }

  const char* grammar_;
  std::string stmt_;
  std::size_t pos_ = 0;
};

}  // namespace s2fa::blaze::detail
