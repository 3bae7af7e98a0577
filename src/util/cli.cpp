#include "util/cli.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace saer {

namespace {

// Strict numeric parsing shared by every getter: the whole token must be
// consumed (so `--n 10x` is an error, not 10) and every failure names the
// flag and the offending value instead of leaking a bare std::stoll
// exception from deep inside a figure binary.

[[noreturn]] void throw_invalid_number(const std::string& name,
                                       const std::string& value) {
  throw std::invalid_argument("--" + name + ": invalid number '" + value +
                              "'");
}

[[noreturn]] void throw_out_of_range(const std::string& name,
                                     const std::string& value) {
  throw std::invalid_argument("--" + name + ": number out of range '" +
                              value + "'");
}

std::int64_t parse_int_token(const std::string& name,
                             const std::string& value) {
  std::size_t consumed = 0;
  std::int64_t parsed = 0;
  try {
    parsed = std::stoll(value, &consumed);
  } catch (const std::invalid_argument&) {
    throw_invalid_number(name, value);
  } catch (const std::out_of_range&) {
    throw_out_of_range(name, value);
  }
  if (consumed != value.size()) throw_invalid_number(name, value);
  return parsed;
}

std::uint64_t parse_uint_token(const std::string& name,
                               const std::string& value) {
  // std::stoull silently wraps negatives ("-1" -> UINT64_MAX), so reject a
  // leading '-' explicitly; going through stoll instead would lose the
  // upper half of the uint64 range (the old bug).
  std::size_t first = 0;
  while (first < value.size() &&
         std::isspace(static_cast<unsigned char>(value[first]))) {
    ++first;
  }
  if (first < value.size() && value[first] == '-') {
    throw std::invalid_argument("--" + name + " must be >= 0 (got '" +
                                value + "')");
  }
  std::size_t consumed = 0;
  std::uint64_t parsed = 0;
  try {
    parsed = std::stoull(value, &consumed);
  } catch (const std::invalid_argument&) {
    throw_invalid_number(name, value);
  } catch (const std::out_of_range&) {
    throw_out_of_range(name, value);
  }
  if (consumed != value.size()) throw_invalid_number(name, value);
  return parsed;
}

double parse_double_token(const std::string& name, const std::string& value) {
  std::size_t consumed = 0;
  double parsed = 0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::invalid_argument&) {
    throw_invalid_number(name, value);
  } catch (const std::out_of_range&) {
    throw_out_of_range(name, value);
  }
  if (consumed != value.size()) throw_invalid_number(name, value);
  return parsed;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

CliArgs::CliArgs(const std::vector<std::string>& args) { parse(args); }

void CliArgs::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      value = args[++i];
    } else {
      value = "true";
    }
    values_[name] = value;
  }
}

std::optional<std::string> CliArgs::raw(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool CliArgs::has(const std::string& name) const { return raw(name).has_value(); }

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return parse_int_token(name, *v);
}

std::uint64_t CliArgs::get_uint(const std::string& name, std::uint64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return parse_uint_token(name, *v);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return parse_double_token(name, *v);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("--" + name + ": invalid boolean '" + *v +
                              "' (expected true/false/1/0/yes/no/on/off)");
}

namespace {
std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}
}  // namespace

std::vector<std::uint64_t> CliArgs::get_uint_list(
    const std::string& name, const std::vector<std::uint64_t>& fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  std::vector<std::uint64_t> out;
  for (const auto& part : split_commas(*v)) {
    if (!part.empty()) out.push_back(parse_uint_token(name, part));
  }
  return out;
}

std::vector<double> CliArgs::get_double_list(
    const std::string& name, const std::vector<double>& fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  std::vector<double> out;
  for (const auto& part : split_commas(*v)) {
    if (!part.empty()) out.push_back(parse_double_token(name, part));
  }
  return out;
}

std::vector<std::string> CliArgs::get_list(
    const std::string& name, const std::vector<std::string>& fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  std::vector<std::string> out;
  for (auto& part : split_commas(*v)) {
    if (!part.empty()) out.push_back(std::move(part));
  }
  return out;
}

std::vector<std::string> CliArgs::unknown_flags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, _] : values_) {
    if (name.rfind("benchmark_", 0) == 0) continue;  // google-benchmark flags
    if (!queried_.contains(name)) unknown.push_back(name);
  }
  return unknown;
}

void CliArgs::reject_unknown() const {
  const auto unknown = unknown_flags();
  if (unknown.empty()) return;
  std::string msg = "unknown flag";
  if (unknown.size() > 1) msg += 's';
  for (const auto& name : unknown) msg += " --" + name;
  throw std::invalid_argument(msg);
}

std::uint32_t checked_node_id(const std::string& flag, std::uint64_t value) {
  if (value > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("--" + flag + " " + std::to_string(value) +
                                " does not fit 32 bits");
  return static_cast<std::uint32_t>(value);
}

}  // namespace saer
