#include "src/workflow/specification.h"

#include <utility>

#include "src/workflow/validation.h"

namespace skl {

const std::string& Specification::ModuleName(VertexId v) const {
  return modules_->Name(static_cast<ModuleId>(v));
}

VertexId Specification::VertexOf(std::string_view module_name) const {
  ModuleId id = modules_->Find(module_name);
  return id == kInvalidModule ? kInvalidVertex : static_cast<VertexId>(id);
}

VertexId SpecificationBuilder::AddModule(std::string_view name) {
  names_.emplace_back(name);
  return static_cast<VertexId>(names_.size() - 1);
}

SpecificationBuilder& SpecificationBuilder::AddEdge(VertexId u, VertexId v) {
  edges_.emplace_back(u, v);
  return *this;
}

SpecificationBuilder& SpecificationBuilder::DeclareFork(
    std::vector<VertexId> vertices) {
  declared_.emplace_back(SubgraphKind::kFork, std::move(vertices));
  return *this;
}

SpecificationBuilder& SpecificationBuilder::DeclareLoop(
    std::vector<VertexId> vertices) {
  declared_.emplace_back(SubgraphKind::kLoop, std::move(vertices));
  return *this;
}

Result<Specification> SpecificationBuilder::Build() && {
  Specification spec;
  spec.modules_ = std::make_shared<ModuleTable>();
  for (const std::string& name : names_) {
    if (name.empty()) {
      return Status::InvalidSpecification("module name must be non-empty");
    }
    const size_t interned = spec.modules_->size();
    spec.modules_->Intern(name);
    if (spec.modules_->size() == interned) {
      return Status::InvalidSpecification("duplicate module name: " + name);
    }
  }
  DigraphBuilder gb(static_cast<VertexId>(names_.size()));
  for (const auto& [u, v] : edges_) {
    if (u >= names_.size() || v >= names_.size()) {
      return Status::InvalidSpecification("edge endpoint out of range");
    }
    if (u == v) {
      return Status::InvalidSpecification("self-loop edges are not allowed");
    }
    gb.AddEdge(u, v);
  }
  spec.graph_ = std::move(gb).Build();
  SKL_RETURN_NOT_OK(
      CheckAcyclicFlowNetwork(spec.graph_, &spec.source_, &spec.sink_));

  for (auto& [kind, vertices] : declared_) {
    SKL_ASSIGN_OR_RETURN(
        SubgraphInfo info,
        NormalizeSubgraph(spec.graph_, kind, std::move(vertices)));
    if (info.kind == SubgraphKind::kFork) {
      ++spec.num_forks_;
    } else {
      ++spec.num_loops_;
    }
    spec.subgraphs_.push_back(std::move(info));
  }
  SKL_RETURN_NOT_OK(CheckWellNested(spec.subgraphs_));
  SKL_ASSIGN_OR_RETURN(spec.hierarchy_,
                       BuildHierarchy(spec.graph_, spec.subgraphs_,
                                      spec.source_, spec.sink_));
  return spec;
}

}  // namespace skl
