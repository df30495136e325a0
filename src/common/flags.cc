#include "common/flags.h"

#include <cctype>
#include <cstdlib>
#include <string_view>

namespace approxmem {

StatusOr<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      return Status::InvalidArgument("unexpected argument: " +
                                     std::string(arg));
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
      continue;
    }
    // "--name value" when the next token is not itself a flag; otherwise a
    // boolean "--name".
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      flags.values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags.values_[std::string(arg)] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

Status Flags::CheckListedIn(std::string_view usage) const {
  for (const auto& [name, value] : values_) {
    const std::string token = "--" + name;
    bool listed = false;
    for (size_t at = usage.find(token); at != std::string_view::npos;
         at = usage.find(token, at + 1)) {
      const size_t end = at + token.size();
      const char next = end < usage.size() ? usage[end] : ' ';
      if (!std::isalnum(static_cast<unsigned char>(next)) && next != '_') {
        listed = true;
        break;
      }
    }
    if (!listed) return Status::InvalidArgument("unknown flag --" + name);
  }
  return Status::Ok();
}

size_t Flags::EnvSize(const char* var, size_t def) {
  const char* v = std::getenv(var);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v) return def;
  return static_cast<size_t>(parsed);
}

}  // namespace approxmem
