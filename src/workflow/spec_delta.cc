#include "src/workflow/spec_delta.h"

#include <algorithm>

#include "src/common/bit_codec.h"

namespace skl {

namespace {

// Allocation bounds for deserialization: a module name or neighbor list
// larger than this is corruption, not a workflow.
constexpr uint64_t kMaxNameBytes = 4096;
constexpr uint64_t kMaxNeighborCount = 4096;

void WriteString(BitWriter& writer, const std::string& s) {
  writer.WriteVarint(s.size());
  writer.WriteBytes(
      {reinterpret_cast<const uint8_t*>(s.data()), s.size()});
}

Status ReadString(BitReader& reader, const char* what, std::string* out) {
  uint64_t len = 0;
  if (!reader.ReadVarint(&len).ok()) {
    return Status::ParseError(std::string("spec delta: truncated ") + what);
  }
  if (len == 0 || len > kMaxNameBytes) {
    return Status::ParseError(std::string("spec delta: ") + what +
                              " length " + std::to_string(len) +
                              " is outside [1, " +
                              std::to_string(kMaxNameBytes) + "]");
  }
  std::span<const uint8_t> bytes;
  if (!reader.ReadBytes(len, &bytes).ok()) {
    return Status::ParseError(std::string("spec delta: truncated ") + what);
  }
  out->assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return Status::OK();
}

Status ReadStringList(BitReader& reader, const char* what,
                      std::vector<std::string>* out) {
  uint64_t count = 0;
  if (!reader.ReadVarint(&count).ok()) {
    return Status::ParseError(std::string("spec delta: truncated ") + what +
                              " count");
  }
  if (count > kMaxNeighborCount) {
    return Status::ParseError(std::string("spec delta: ") + what +
                              " count " + std::to_string(count) +
                              " exceeds " +
                              std::to_string(kMaxNeighborCount));
  }
  out->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    SKL_RETURN_NOT_OK(ReadString(reader, what, &(*out)[i]));
  }
  return Status::OK();
}

/// Ancestors of `anchor` in `g` (vertices with a path *to* anchor),
/// including anchor itself, sorted ascending.
std::vector<VertexId> AncestorsOf(const Digraph& g, VertexId anchor) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> stack{anchor};
  seen[anchor] = true;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (VertexId u : g.InNeighbors(v)) {
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

Result<VertexId> ResolveModule(const Specification& base,
                               const std::string& name, const char* role) {
  if (name.empty()) {
    return Status::InvalidArgument(std::string("spec delta: empty ") + role +
                                   " module name");
  }
  const VertexId v = base.VertexOf(name);
  if (v == kInvalidVertex) {
    return Status::NotFound(std::string("spec delta: ") + role +
                            " module \"" + name +
                            "\" is not in the specification");
  }
  return v;
}

}  // namespace

const char* SpecDeltaKindName(SpecDelta::Kind kind) {
  switch (kind) {
    case SpecDelta::Kind::kAddModule:
      return "AddModule";
    case SpecDelta::Kind::kRemoveModule:
      return "RemoveModule";
    case SpecDelta::Kind::kAddEdge:
      return "AddEdge";
    case SpecDelta::Kind::kRemoveEdge:
      return "RemoveEdge";
  }
  return "Unknown";
}

std::vector<uint8_t> SerializeSpecDelta(const SpecDelta& delta) {
  BitWriter writer;
  writer.WriteVarint(static_cast<uint64_t>(delta.kind));
  switch (delta.kind) {
    case SpecDelta::Kind::kAddModule:
      WriteString(writer, delta.module);
      writer.WriteVarint(delta.from.size());
      for (const std::string& name : delta.from) WriteString(writer, name);
      writer.WriteVarint(delta.to.size());
      for (const std::string& name : delta.to) WriteString(writer, name);
      break;
    case SpecDelta::Kind::kRemoveModule:
      WriteString(writer, delta.module);
      break;
    case SpecDelta::Kind::kAddEdge:
    case SpecDelta::Kind::kRemoveEdge:
      WriteString(writer, delta.edge_from);
      WriteString(writer, delta.edge_to);
      break;
  }
  return writer.Finish();
}

Result<SpecDelta> DeserializeSpecDelta(std::span<const uint8_t> bytes) {
  BitReader reader(bytes.data(), bytes.size());
  uint64_t kind = 0;
  if (!reader.ReadVarint(&kind).ok()) {
    return Status::ParseError("spec delta: truncated kind");
  }
  if (kind < static_cast<uint64_t>(SpecDelta::Kind::kAddModule) ||
      kind > static_cast<uint64_t>(SpecDelta::Kind::kRemoveEdge)) {
    return Status::ParseError("spec delta: unknown kind " +
                              std::to_string(kind));
  }
  SpecDelta delta;
  delta.kind = static_cast<SpecDelta::Kind>(kind);
  switch (delta.kind) {
    case SpecDelta::Kind::kAddModule:
      SKL_RETURN_NOT_OK(ReadString(reader, "module name", &delta.module));
      SKL_RETURN_NOT_OK(ReadStringList(reader, "from list", &delta.from));
      SKL_RETURN_NOT_OK(ReadStringList(reader, "to list", &delta.to));
      break;
    case SpecDelta::Kind::kRemoveModule:
      SKL_RETURN_NOT_OK(ReadString(reader, "module name", &delta.module));
      break;
    case SpecDelta::Kind::kAddEdge:
    case SpecDelta::Kind::kRemoveEdge:
      SKL_RETURN_NOT_OK(ReadString(reader, "edge source", &delta.edge_from));
      SKL_RETURN_NOT_OK(ReadString(reader, "edge target", &delta.edge_to));
      break;
  }
  if (reader.bit_position() != bytes.size() * 8) {
    return Status::ParseError("spec delta: trailing bytes after the delta");
  }
  return delta;
}

Result<SpecDeltaApplication> ApplySpecDeltaToSpec(const Specification& base,
                                                  const SpecDelta& delta) {
  const Digraph& g = base.graph();
  const VertexId n = g.num_vertices();

  // -- Resolve the delta against the base and decide the vertex remap. ----
  VertexId removed = kInvalidVertex;       // kRemoveModule target
  VertexId edge_u = kInvalidVertex;        // kAddEdge/kRemoveEdge endpoints
  VertexId edge_v = kInvalidVertex;
  std::vector<VertexId> add_from;          // kAddModule neighbors (base ids)
  std::vector<VertexId> add_to;
  switch (delta.kind) {
    case SpecDelta::Kind::kAddModule: {
      if (delta.module.empty()) {
        return Status::InvalidArgument("spec delta: empty module name");
      }
      if (base.VertexOf(delta.module) != kInvalidVertex) {
        return Status::InvalidArgument("spec delta: module \"" +
                                       delta.module + "\" already exists");
      }
      if (delta.from.empty() && delta.to.empty()) {
        return Status::InvalidArgument(
            "spec delta: AddModule needs at least one from/to neighbor to "
            "join the flow network");
      }
      std::vector<bool> seen_from(n, false), seen_to(n, false);
      for (const std::string& name : delta.from) {
        SKL_ASSIGN_OR_RETURN(VertexId u, ResolveModule(base, name, "from"));
        if (seen_from[u]) {
          return Status::InvalidArgument(
              "spec delta: duplicate from neighbor \"" + name + "\"");
        }
        seen_from[u] = true;
        add_from.push_back(u);
      }
      for (const std::string& name : delta.to) {
        SKL_ASSIGN_OR_RETURN(VertexId v, ResolveModule(base, name, "to"));
        if (seen_to[v]) {
          return Status::InvalidArgument(
              "spec delta: duplicate to neighbor \"" + name + "\"");
        }
        seen_to[v] = true;
        add_to.push_back(v);
      }
      break;
    }
    case SpecDelta::Kind::kRemoveModule: {
      SKL_ASSIGN_OR_RETURN(removed,
                           ResolveModule(base, delta.module, "removed"));
      if (removed == base.source() || removed == base.sink()) {
        return Status::InvalidArgument(
            "spec delta: cannot remove the flow network's " +
            std::string(removed == base.source() ? "source" : "sink") +
            " module \"" + delta.module + "\"");
      }
      for (size_t i = 0; i < base.subgraphs().size(); ++i) {
        if (base.subgraphs()[i].vertex_set.Test(removed)) {
          return Status::InvalidArgument(
              "spec delta: module \"" + delta.module +
              "\" participates in a declared " +
              (base.subgraphs()[i].kind == SubgraphKind::kFork ? "fork"
                                                               : "loop") +
              " subgraph; remove the declaration first");
        }
      }
      break;
    }
    case SpecDelta::Kind::kAddEdge:
    case SpecDelta::Kind::kRemoveEdge: {
      SKL_ASSIGN_OR_RETURN(edge_u,
                           ResolveModule(base, delta.edge_from, "source"));
      SKL_ASSIGN_OR_RETURN(edge_v,
                           ResolveModule(base, delta.edge_to, "target"));
      if (edge_u == edge_v) {
        return Status::InvalidArgument(
            "spec delta: self-loop edge on module \"" + delta.edge_from +
            "\"");
      }
      const bool exists = g.HasEdge(edge_u, edge_v);
      if (delta.kind == SpecDelta::Kind::kAddEdge && exists) {
        return Status::InvalidArgument("spec delta: edge \"" +
                                       delta.edge_from + "\" -> \"" +
                                       delta.edge_to + "\" already exists");
      }
      if (delta.kind == SpecDelta::Kind::kRemoveEdge && !exists) {
        return Status::NotFound("spec delta: edge \"" + delta.edge_from +
                                "\" -> \"" + delta.edge_to +
                                "\" is not in the specification");
      }
      break;
    }
  }

  SpecDeltaApplication out;
  out.vertex_remap.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    out.vertex_remap[v] =
        v == removed ? kInvalidVertex : (removed != kInvalidVertex && v > removed ? v - 1 : v);
  }

  // -- Rebuild through the builder so Definitions 1-3 are re-validated. ---
  SpecificationBuilder builder;
  for (VertexId v = 0; v < n; ++v) {
    if (v == removed) continue;
    builder.AddModule(base.ModuleName(v));
  }
  VertexId added = kInvalidVertex;
  if (delta.kind == SpecDelta::Kind::kAddModule) {
    added = builder.AddModule(delta.module);
  }
  for (const auto& [u, v] : g.Edges()) {
    if (u == removed || v == removed) continue;
    if (delta.kind == SpecDelta::Kind::kRemoveEdge && u == edge_u &&
        v == edge_v) {
      continue;
    }
    builder.AddEdge(out.vertex_remap[u], out.vertex_remap[v]);
  }
  if (delta.kind == SpecDelta::Kind::kAddEdge) {
    builder.AddEdge(edge_u, edge_v);
  }
  for (VertexId u : add_from) builder.AddEdge(u, added);
  for (VertexId v : add_to) builder.AddEdge(added, v);
  for (const SubgraphInfo& sub : base.subgraphs()) {
    std::vector<VertexId> vertices;
    vertices.reserve(sub.vertices.size());
    for (VertexId v : sub.vertices) vertices.push_back(out.vertex_remap[v]);
    if (sub.kind == SubgraphKind::kFork) {
      builder.DeclareFork(std::move(vertices));
    } else {
      builder.DeclareLoop(std::move(vertices));
    }
  }
  Result<Specification> rebuilt = std::move(builder).Build();
  if (!rebuilt.ok()) {
    return Status(rebuilt.status().code(),
                  std::string("spec delta ") + SpecDeltaKindName(delta.kind) +
                      " rejected: " + rebuilt.status().message());
  }
  out.spec = std::move(rebuilt).value();

  // -- Dirty region: ancestors of the delta's anchor. Removing a module
  // anchors on the *base* graph (the vertex is gone from the new one);
  // everything else anchors on the new graph. In all four cases a vertex
  // outside the anchor's ancestor set keeps its reachable set: the edit
  // only creates or destroys paths that pass through the anchor.
  if (delta.kind == SpecDelta::Kind::kRemoveModule) {
    for (VertexId v : AncestorsOf(g, removed)) {
      if (v != removed) out.dirty.push_back(out.vertex_remap[v]);
    }
    std::sort(out.dirty.begin(), out.dirty.end());
  } else {
    const VertexId anchor =
        delta.kind == SpecDelta::Kind::kAddModule ? added : edge_u;
    out.dirty = AncestorsOf(out.spec.graph(), anchor);
  }
  return out;
}

}  // namespace skl
