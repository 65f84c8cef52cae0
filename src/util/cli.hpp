#pragma once

// Minimal flag parser shared by bench/example binaries.
// Accepts --name=value and bare --name (boolean true). Unknown flags abort
// with a usage message so typos in sweep scripts fail loudly.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace hp::util {

class Cli {
 public:
  // `spec` maps flag name -> help text; used for --help and typo detection.
  Cli(int argc, char** argv, std::map<std::string, std::string> spec);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& dflt) const;
  // Numeric accessors are strict: a present-but-malformed value (including
  // trailing junk, e.g. --pes=4x) is a usage error, not a silent 0.
  std::int64_t get_int(const std::string& name, std::int64_t dflt) const;
  double get_double(const std::string& name, double dflt) const;
  bool get_bool(const std::string& name, bool dflt) const;

  void print_help() const;
  // Print "<program>: <message>", then the help text, then exit(2). For
  // flag-value validation beyond what the accessors cover (e.g. --chaos
  // specs parsed by FaultPlan::parse).
  [[noreturn]] void usage_error(const std::string& message) const;

 private:
  std::string program_;
  std::map<std::string, std::string> spec_;
  std::map<std::string, std::string> values_;
};

// Value parsers shared by every key=value spec grammar (--gvt, --chaos,
// --migrate, --checkpoint, --watchdog, --fc). The integer parsers take plain
// decimal digits only — no sign, no whitespace, no trailing junk — and
// reject values outside the destination type instead of wrapping them.
// parse_double takes anything strtod consumes whole that is finite: nan,
// inf and out-of-range magnitudes are rejected, so a range check like
// `v < 1.0` on the result cannot be slipped past with NaN. All three leave
// `out` untouched on failure.
bool parse_u64(std::string_view s, std::uint64_t& out);
bool parse_u32(std::string_view s, std::uint32_t& out);
bool parse_double(std::string_view s, double& out);
// Strips leading and trailing spaces and tabs.
std::string_view trim(std::string_view s);

}  // namespace hp::util
