#include "blaze/internal.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "support/error.h"

namespace s2fa::blaze::detail {

double QuantileNearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size())) - 1;
  auto index = static_cast<std::size_t>(std::max(0.0, rank));
  return samples[std::min(index, samples.size() - 1)];
}

void ForEachStatement(const std::string& text,
                      const std::function<void(const std::string&)>& parse) {
  std::string stmt;
  auto flush = [&parse, &stmt] {
    if (!stmt.empty()) {
      parse(stmt);
      stmt.clear();
    }
  };
  for (char c : text) {
    if (c == ';' || c == '\n') {
      flush();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      stmt.push_back(c);
    }
  }
  flush();
}

bool StmtParser::ConsumePrefix(std::string_view prefix) {
  if (stmt_.compare(pos_, prefix.size(), prefix) != 0) return false;
  pos_ += prefix.size();
  return true;
}

bool StmtParser::Consume(char c) {
  if (pos_ < stmt_.size() && stmt_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

void StmtParser::Expect(char c) {
  if (!Consume(c)) Fail(std::string("expected '") + c + "'");
}

void StmtParser::ExpectEnd() {
  if (pos_ < stmt_.size()) Fail("trailing junk");
}

std::size_t StmtParser::ParseIndex() {
  const std::size_t begin = pos_;
  while (pos_ < stmt_.size() && std::isdigit(Char(pos_))) ++pos_;
  std::size_t value = 0;
  const char* first = stmt_.data() + begin;
  const char* last = stmt_.data() + pos_;
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || begin == pos_) {
    Fail("expected a non-negative integer");
  }
  return value;
}

double StmtParser::ParseNumber() {
  const std::size_t begin = pos_;
  while (pos_ < stmt_.size() &&
         (std::isdigit(Char(pos_)) || stmt_[pos_] == '.' ||
          stmt_[pos_] == 'e' || stmt_[pos_] == 'E' ||
          ((stmt_[pos_] == '+' || stmt_[pos_] == '-') && pos_ > begin &&
           (stmt_[pos_ - 1] == 'e' || stmt_[pos_ - 1] == 'E')))) {
    ++pos_;
  }
  if (begin == pos_) Fail("expected a number");
  const std::string digits = stmt_.substr(begin, pos_ - begin);
  try {
    std::size_t used = 0;
    const double value = std::stod(digits, &used);
    if (used != digits.size()) Fail("bad number '" + digits + "'");
    return value;
  } catch (const std::exception&) {
    Fail("bad number '" + digits + "'");
  }
  return 0;  // unreachable
}

double StmtParser::ParseTimeUs() {
  double value = ParseNumber();
  if (ConsumePrefix("us")) {
    // microseconds: the default
  } else if (ConsumePrefix("ms")) {
    value *= 1e3;
  } else if (Consume('s')) {
    value *= 1e6;
  }
  if (value < 0 || !std::isfinite(value)) Fail("time must be >= 0");
  return value;
}

std::string StmtParser::ParseName() {
  const std::size_t begin = pos_;
  while (pos_ < stmt_.size() &&
         (std::isalnum(Char(pos_)) || stmt_[pos_] == '_' ||
          stmt_[pos_] == '-')) {
    ++pos_;
  }
  if (begin == pos_) Fail("expected a name");
  return stmt_.substr(begin, pos_ - begin);
}

void StmtParser::Fail(const std::string& why) const {
  throw MalformedInput(std::string(grammar_) + ": " + why + " in '" + stmt_ +
                       "'");
}

}  // namespace s2fa::blaze::detail
