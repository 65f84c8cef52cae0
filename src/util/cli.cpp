#include "util/cli.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hp::util {

namespace {

template <typename T>
bool parse_unsigned(std::string_view s, T& out) {
  // A leading digit rules out signs and whitespace (strtoull would accept
  // both, and wrap "-1"); from_chars reports overflow of T as out of range.
  if (s.empty() || s.front() < '0' || s.front() > '9') return false;
  T v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  out = v;
  return true;
}

}  // namespace

bool parse_u64(std::string_view s, std::uint64_t& out) {
  return parse_unsigned(s, out);
}

bool parse_u32(std::string_view s, std::uint32_t& out) {
  return parse_unsigned(s, out);
}

bool parse_double(std::string_view s, double& out) {
  if (s.empty()) return false;
  const std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size() || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

Cli::Cli(int argc, char** argv, std::map<std::string, std::string> spec)
    : program_(argc > 0 ? argv[0] : "?"), spec_(std::move(spec)) {
  spec_.emplace("help", "print this help");
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", argv[i]);
      print_help();
      std::exit(2);
    }
    arg.remove_prefix(2);
    std::string name, value = "1";
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    if (!spec_.contains(name)) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      print_help();
      std::exit(2);
    }
    values_[name] = value;
  }
  if (values_.contains("help")) {
    print_help();
    std::exit(0);
  }
}

bool Cli::has(const std::string& name) const { return values_.contains(name); }

std::string Cli::get(const std::string& name, const std::string& dflt) const {
  auto it = values_.find(name);
  return it == values_.end() ? dflt : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  const char* s = it->second.c_str();
  char* end = nullptr;
  const std::int64_t v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') {
    usage_error("--" + name + " expects an integer, got \"" + it->second +
                "\"");
  }
  return v;
}

double Cli::get_double(const std::string& name, double dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  double v = 0.0;
  if (!parse_double(it->second, v)) {
    usage_error("--" + name + " expects a finite number, got \"" +
                it->second + "\"");
  }
  return v;
}

bool Cli::get_bool(const std::string& name, bool dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  return it->second != "0" && it->second != "false" && it->second != "no";
}

void Cli::usage_error(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
  print_help();
  std::exit(2);
}

void Cli::print_help() const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program_.c_str());
  for (const auto& [name, help] : spec_) {
    std::fprintf(stderr, "  --%-24s %s\n", name.c_str(), help.c_str());
  }
}

}  // namespace hp::util
