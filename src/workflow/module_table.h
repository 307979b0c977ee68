// Interned module names. A specification assigns each vertex a unique module
// name; run vertices reference the same table (Definition 8: the origin of a
// run vertex is the specification vertex with the same module name).
#ifndef SKL_WORKFLOW_MODULE_TABLE_H_
#define SKL_WORKFLOW_MODULE_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace skl {

using ModuleId = uint32_t;
inline constexpr ModuleId kInvalidModule = UINT32_MAX;

class ModuleTable {
 public:
  /// Interns `name`, returning its id (existing id if already present).
  ModuleId Intern(std::string_view name);

  /// Id of `name`, or kInvalidModule if absent.
  ModuleId Find(std::string_view name) const;

  /// Name for an id. Precondition: id < size().
  const std::string& Name(ModuleId id) const;

  size_t size() const { return names_.size(); }

 private:
  /// The slot holding `name`'s id, or the empty slot where it would go.
  size_t Slot(std::string_view name) const;

  std::vector<std::string> names_;
  /// Open-addressed (linear probing) ids into names_, kInvalidModule where
  /// empty; a power of two at least twice size().
  std::vector<ModuleId> index_;
};

}  // namespace skl

#endif  // SKL_WORKFLOW_MODULE_TABLE_H_
