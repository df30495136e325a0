#include "approx/memory_backend.h"

#include <algorithm>
#include <iterator>

namespace approxmem::approx {
namespace {

struct BuiltIn {
  std::string_view name;
  std::unique_ptr<MemoryBackend> (*make)(const BackendContext& context);
};

// Every memory technology, sorted by name so RegisteredBackendNames() is
// the table's own order. Immutable, so lookups need no lock.
constexpr BuiltIn kBuiltIns[] = {
    {kDramPreciseBackendName, &internal::MakeDramPreciseBackend},
    {kPcmBackendName, &internal::MakePcmBackend},
    {kBankedPcmBackendName, &internal::MakeBankedPcmBackend},
    {kSpintronicBackendName, &internal::MakeSpintronicBackend},
};
static_assert(std::is_sorted(std::begin(kBuiltIns), std::end(kBuiltIns),
                             [](const BuiltIn& a, const BuiltIn& b) {
                               return a.name < b.name;
                             }));

const BuiltIn* Find(std::string_view name) {
  for (const BuiltIn& built_in : kBuiltIns) {
    if (built_in.name == name) return &built_in;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> RegisteredBackendNames() {
  std::vector<std::string> names;
  for (const BuiltIn& built_in : kBuiltIns) {
    names.emplace_back(built_in.name);
  }
  return names;
}

bool IsRegisteredBackend(std::string_view name) {
  return Find(name) != nullptr;
}

Status CheckBackendName(std::string_view name) {
  if (Find(name) != nullptr) return Status::Ok();
  std::string known;
  for (const BuiltIn& built_in : kBuiltIns) {
    if (!known.empty()) known += ", ";
    known += built_in.name;
  }
  return Status::InvalidArgument("unknown memory backend '" +
                                 std::string(name) +
                                 "'; registered backends: " + known);
}

StatusOr<std::unique_ptr<MemoryBackend>> CreateMemoryBackend(
    std::string_view name, const BackendContext& context) {
  const BuiltIn* built_in = Find(name);
  if (built_in == nullptr) return CheckBackendName(name);
  return built_in->make(context);
}

}  // namespace approxmem::approx
