#pragma once
// Tiny flag parser shared by the figure binaries and examples.
// Accepts `--name value` and `--name=value`; `--flag` alone is boolean true.
// Unrecognized flags are collected so binaries can reject typos, but
// google-benchmark's own `--benchmark_*` flags are passed through.
//
// Numeric getters are strict: the whole token must parse (`--n 10x` is an
// error, not 10), unsigned getters cover the full uint64 range and reject
// negatives, and get_bool accepts only true/false/1/0/yes/no/on/off.
// Every parse failure throws std::invalid_argument naming the flag and the
// offending value.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace saer {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);
  explicit CliArgs(const std::vector<std::string>& args);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. --sizes 1024,4096,16384.
  [[nodiscard]] std::vector<std::uint64_t> get_uint_list(
      const std::string& name, const std::vector<std::uint64_t>& fallback) const;
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name, const std::vector<double>& fallback) const;
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& name, const std::vector<std::string>& fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Flags seen but never queried through a getter (typo detection).
  [[nodiscard]] std::vector<std::string> unknown_flags() const;
  /// Throws std::invalid_argument listing unknown_flags(), if any.  Call
  /// after every getter has run (a flag queried later would be a false
  /// positive) -- each cmd_* does this right before doing real work.
  void reject_unknown() const;

 private:
  void parse(const std::vector<std::string>& args);
  std::optional<std::string> raw(const std::string& name) const;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

/// Narrows a size flag's value (--n, --sizes, --delta, --side) to a 32-bit
/// node id; a value a cast would wrap throws std::invalid_argument naming
/// the flag.
[[nodiscard]] std::uint32_t checked_node_id(const std::string& flag,
                                            std::uint64_t value);

}  // namespace saer
