#include "src/workflow/module_table.h"

#include <functional>

#include "src/common/check.h"

namespace skl {

size_t ModuleTable::Slot(std::string_view name) const {
  const size_t mask = index_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(name) & mask;
  while (index_[slot] != kInvalidModule && names_[index_[slot]] != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

ModuleId ModuleTable::Intern(std::string_view name) {
  if (2 * (names_.size() + 1) > index_.size()) {
    index_.assign(index_.empty() ? 16 : 2 * index_.size(), kInvalidModule);
    for (ModuleId id = 0; id < names_.size(); ++id) {
      index_[Slot(names_[id])] = id;
    }
  }
  const size_t slot = Slot(name);
  if (index_[slot] == kInvalidModule) {
    index_[slot] = static_cast<ModuleId>(names_.size());
    names_.emplace_back(name);
  }
  return index_[slot];
}

ModuleId ModuleTable::Find(std::string_view name) const {
  return index_.empty() ? kInvalidModule : index_[Slot(name)];
}

const std::string& ModuleTable::Name(ModuleId id) const {
  SKL_DCHECK(id < names_.size());
  return names_[id];
}

}  // namespace skl
