// Minimal command-line argument parser for the tools.
//
// Supports --flag, --key value and --key=value forms plus positional
// arguments. A bare "--" ends flag parsing; everything after it is
// positional. A tool that calls reject_unknown() with the flags it takes
// gets every other flag reported through errors().
//
// Numeric accessors parse strictly (std::from_chars, full-token match).
// A malformed value returns the fallback and records a diagnostic
// retrievable via errors(); tools are expected to check errors() after
// parsing their flags and exit non-zero instead of running with a
// silently-wrong default.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rv::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  const std::string& program() const { return program_; }

  // --key value / --key=value lookup.
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback)
      const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  // --flag present (no value)?
  bool has(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Diagnostics accumulated by the numeric accessors (one human-readable
  // line per malformed value). Empty when every queried flag parsed.
  const std::vector<std::string>& errors() const { return errors_; }

  // Appends one "--key: unknown flag" line to errors() for every flag that
  // is not in `allowed` (names without the leading "--"). Positional
  // arguments, including everything after "--", are never checked.
  void reject_unknown(const std::vector<std::string_view>& allowed) const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  // Numeric accessors are const; diagnostics are a side channel.
  mutable std::vector<std::string> errors_;
};

// Strict full-token numeric parses, also used for the tools' positional
// arguments. Return std::nullopt unless the entire token is a valid number.
std::optional<std::int64_t> parse_int(std::string_view text);
std::optional<double> parse_double(std::string_view text);

}  // namespace rv::util
