// Tiny command-line flag parser for bench and example binaries.
//
// Supports "--name=value", "--name value", and boolean "--name". Parsing
// accepts any name: approxmem_cli, bench_figures and the five examples/
// programs call CheckListedIn with their usage text so a typo fails loudly
// instead of silently running the default experiment, while the other
// bench binaries stay permissive and ignore flags they do not read.
#ifndef APPROXMEM_COMMON_FLAGS_H_
#define APPROXMEM_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace approxmem {

/// Parses argv into name -> value pairs and serves typed lookups.
class Flags {
 public:
  /// Parses flags; returns InvalidArgument on malformed input. Positional
  /// arguments are rejected (bench binaries take flags only).
  static StatusOr<Flags> Parse(int argc, char** argv);

  bool Has(const std::string& name) const;
  /// Typed getters return `def` when the flag is absent.
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;
  std::string GetString(const std::string& name, const std::string& def) const;

  /// InvalidArgument naming the first parsed flag that `usage` does not
  /// mention as "--name".
  Status CheckListedIn(std::string_view usage) const;

  /// Environment override helper: returns env var as size_t if set and
  /// parseable, else `def`. Used for APPROX_BENCH_N.
  static size_t EnvSize(const char* var, size_t def);

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace approxmem

#endif  // APPROXMEM_COMMON_FLAGS_H_
