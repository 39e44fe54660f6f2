#include "util/parse.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mrl {

std::optional<long long> parse_i64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<unsigned long long> parse_u64(std::string_view s, int base) {
  if (s.empty() || s.front() == '-' || s.front() == '+' ||
      std::isspace(static_cast<unsigned char>(s.front()))) {
    return std::nullopt;
  }
  // strtoull handles the 0x/0 prefixes from_chars does not; strictness is
  // restored by requiring full consumption and checking ERANGE.
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, base);
  if (end != buf.c_str() + buf.size() || end == buf.c_str() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_f64(std::string_view s) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s.front()))) {
    return std::nullopt;
  }
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || end == buf.c_str() ||
      errno == ERANGE || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<long long> parse_cli_int(const char* s, long long min,
                                       const char* what) {
  const auto v = s != nullptr ? parse_i64(s) : std::nullopt;
  if (!v || *v < min || *v > INT_MAX) {
    std::fprintf(stderr, "invalid %s '%s' (need an integer N with %lld <= N "
                 "<= %d)\n", what, s != nullptr ? s : "", min, INT_MAX);
    return std::nullopt;
  }
  return v;
}

FlagValue FlagParser::convert(const FlagRow& row,
                              std::string_view text) const {
  FlagValue v;
  v.text = text;
  const std::string lo = std::to_string(row.min);
  const std::string hi =
      row.max == std::numeric_limits<long long>::max()
          ? ""
          : " <= " + std::to_string(row.max);
  std::string expected;  // what a valid value looks like; empty = valid
  switch (row.kind) {
    case FlagKind::kNone:
      break;
    case FlagKind::kInt: {
      const auto n = parse_i64(text);
      if (!n || *n < row.min || *n > row.max) {
        expected = "an integer N with " + lo + " <= N" + hi;
      }
      v.num = n.value_or(0);
      break;
    }
    case FlagKind::kRange: {
      const std::size_t dash = text.find('-');
      const auto a = parse_i64(text.substr(0, dash));
      const auto b = parse_i64(dash == std::string_view::npos
                                   ? std::string_view()
                                   : text.substr(dash + 1));
      if (!a || !b || *a < row.min || *a > *b || *b > row.max) {
        expected = "A-B with " + lo + " <= A <= B" + hi;
      }
      v.num = a.value_or(0);
      v.num_hi = b.value_or(0);
      break;
    }
    case FlagKind::kU64: {
      const auto n = parse_u64(text, 0);
      if (!n) expected = "an unsigned 64-bit integer";
      v.u64 = n.value_or(0);
      break;
    }
    case FlagKind::kF64: {
      const auto d = parse_f64(text);
      if (!d || *d < static_cast<double>(row.min)) {
        expected = "a finite number >= " + lo;
      }
      v.real = d.value_or(0);
      break;
    }
    case FlagKind::kPath:
      if (text.empty()) fail(row.name + " requires a non-empty path");
      break;
    case FlagKind::kWord:
      if (text.find('|') != std::string_view::npos ||
          ("|" + row.metavar + "|").find("|" + std::string(text) + "|") ==
              std::string::npos) {
        expected = "one of " + row.metavar;
      }
      break;
  }
  if (!expected.empty()) {
    fail("invalid " + row.name + " value '" + std::string(text) +
         "' (expected " + expected + ")");
  }
  return v;
}

std::vector<std::string> FlagParser::parse(int argc, char** argv,
                                           bool positionals) const {
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg.front() != '-') {
      if (!positionals) {
        fail("unrecognized argument '" + std::string(arg) + "'");
      }
      rest.emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const auto row =
        std::find_if(rows_.begin(), rows_.end(), [&](const FlagRow& r) {
          return r.name == arg.substr(0, eq);
        });
    if (row == rows_.end()) {
      fail("unrecognized argument '" + std::string(arg) + "'");
    }
    std::string_view text;
    if (row->kind == FlagKind::kNone) {
      if (eq != std::string_view::npos) fail(row->name + " takes no value");
    } else if (eq != std::string_view::npos) {
      text = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      text = argv[++i];
    } else {
      fail(row->name + (row->kind == FlagKind::kPath ? " requires a path"
                                                     : " requires a value"));
    }
    row->action(convert(*row, text));
  }
  return rest;
}

void FlagParser::usage(std::FILE* out) const {
  std::size_t width = 0;
  for (const FlagRow& r : rows_) {
    if (!r.help.empty()) {
      width = std::max(width, r.name.size() + 1 + r.metavar.size());
    }
  }
  std::fprintf(out, "usage: %s %s\n", prog_.c_str(), synopsis_.c_str());
  for (const FlagRow& r : rows_) {
    if (r.help.empty()) continue;
    const std::string lhs = r.name + " " + r.metavar;
    std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), lhs.c_str(),
                 r.help.c_str());
  }
}

void FlagParser::fail(const std::string& msg) const {
  std::fprintf(stderr, "%s: %s\n", prog_.c_str(), msg.c_str());
  usage(stderr);
  std::exit(2);
}

}  // namespace mrl
