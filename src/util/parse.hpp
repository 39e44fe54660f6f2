// Strict numeric parsing and the table-driven flag parser for CLI front-ends.
//
// std::atoi turns any garbage ("banana", "", "12x") into 0 without a word,
// which silently becomes a 0-rank or 0-iteration run. These parsers consume
// the ENTIRE string or fail, reject leading whitespace, and surface range
// errors, so every demo/CLI can reject bad arguments with a usage error.
//
// FlagParser is the one argv loop every front-end shares: each FlagRow
// names a flag, the kind and bounds of its value, one help line, and the
// action to run. Values are given as `--f v` or `--f=v`; any bad flag
// prints a diagnostic plus the usage built from the rows and exits 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mrl {

/// Base-10 signed integer: optional leading '-', digits, nothing else.
[[nodiscard]] std::optional<long long> parse_i64(std::string_view s);

/// Unsigned integer. base 0 accepts 0x/0 prefixes (like strtoull).
[[nodiscard]] std::optional<unsigned long long> parse_u64(std::string_view s,
                                                          int base = 10);

/// Finite floating-point number (rejects "nan"/"inf" and trailing junk).
[[nodiscard]] std::optional<double> parse_f64(std::string_view s);

/// CLI convenience: parses `s` as an integer in [min, INT_MAX] (callers
/// store it in an int), printing "invalid <what> '<s>' ..." to stderr on
/// failure. Callers just need `if (!v) usage();`.
[[nodiscard]] std::optional<long long> parse_cli_int(const char* s,
                                                     long long min,
                                                     const char* what);

/// Value kinds of a FlagRow. The parser validates a value before the row's
/// action runs, so an action never sees a malformed one.
enum class FlagKind {
  kNone,   ///< bare switch (`--check`); `--check=x` is an error
  kInt,    ///< base-10 integer in [min, max]
  kRange,  ///< `A-B`: base-10 integers with min <= A <= B <= max
  kU64,    ///< unsigned 64-bit seed; 0x/0 prefixes as strtoull
  kF64,    ///< finite number >= min
  kPath,   ///< non-empty string
  kWord,   ///< one of the '|'-separated words of the metavar
};

/// A validated flag value as a row's action receives it.
struct FlagValue {
  std::string_view text;  ///< as given ("" for kNone)
  long long num = 0;      ///< kInt; kRange's A
  long long num_hi = 0;   ///< kRange's B
  std::uint64_t u64 = 0;  ///< kU64
  double real = 0;        ///< kF64
};

/// One flag. The action runs once per occurrence, in argv order. Int rows
/// range-check against [min, max], so a row storing into an `int` passes
/// INT_MAX as `max`.
struct FlagRow {
  std::string name;     ///< "--jobs"
  FlagKind kind = FlagKind::kNone;
  std::string metavar;  ///< usage placeholder; kWord: the choices, "a|b"
  std::string help;     ///< one usage line; empty hides the row
  std::function<void(const FlagValue&)> action;
  long long min = 0;  ///< kInt/kRange bounds; kF64 uses min only
  long long max = std::numeric_limits<long long>::max();
};

class FlagParser {
 public:
  /// `synopsis` follows "usage: <prog> " in the usage text and may span
  /// several lines; the flag rows are listed after it.
  FlagParser(std::string prog, std::string synopsis)
      : prog_(std::move(prog)), synopsis_(std::move(synopsis)) {}

  void add(FlagRow row) { rows_.push_back(std::move(row)); }
  void add(std::vector<FlagRow> rows) {
    for (FlagRow& r : rows) add(std::move(r));
  }

  /// Runs each matched row's action in argv order and returns the non-flag
  /// arguments in order. Any argument starting with '-' must name a row.
  /// A bad flag, or a non-flag argument when `positionals` is false, ends
  /// the process through fail().
  std::vector<std::string> parse(int argc, char** argv,
                                 bool positionals = false) const;

  void usage(std::FILE* out) const;

  /// Prints "<prog>: <msg>" and the usage on stderr, then exits 2.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  [[nodiscard]] FlagValue convert(const FlagRow& row,
                                  std::string_view text) const;

  std::string prog_;
  std::string synopsis_;
  std::vector<FlagRow> rows_;
};

}  // namespace mrl
