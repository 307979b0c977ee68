#include "src/core/plan_builder.h"

#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/graph/multigraph.h"

namespace skl {

namespace {

/// A map from run vertex to a small index, emptied in O(1) by bumping a
/// stamp: the per-level fork/loop grouping tables.
class StampedIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Empties the map, sizing it for `n` run vertices on first use.
  void Clear(size_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      value_.resize(n);
    }
    ++current_;
  }
  uint32_t Find(VertexId v) const {
    return stamp_[v] == current_ ? value_[v] : kNone;
  }
  void Set(VertexId v, uint32_t value) {
    stamp_[v] = current_;
    value_[v] = value;
  }

 private:
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> value_;
  uint32_t current_ = 0;
};

/// Working state of the recovery algorithm.
class PlanRecovery {
 public:
  PlanRecovery(const Specification& spec, const Run& run,
               std::vector<VertexId> origin)
      : spec_(spec),
        hg_(spec.hierarchy()),
        origin_(std::move(origin)),
        mg_(run.graph()),
        plan_(run.num_vertices()),
        num_run_edges_(run.num_edges()) {}

  Result<RecoveredPlan> Build() {
    ResolveSpecEdges();
    vert_stamp_.assign(origin_.size(), 0);
    child_tally_.assign(hg_.size(), 0);
    for (int32_t depth = hg_.depth(); depth >= 2; --depth) {
      SKL_RETURN_NOT_OK(ProcessLevel(depth));
    }
    SKL_RETURN_NOT_OK(FinishRoot());
    SKL_RETURN_NOT_OK(ValidateRootLevel());
    return RecoveredPlan{std::move(plan_), std::move(origin_)};
  }

 private:
  /// One discovered fork/loop copy, pending grouping.
  struct CopyRec {
    PlanNodeId node = kInvalidPlanNode;
    VertexId source = kInvalidVertex;
    VertexId sink = kInvalidVertex;
    EdgeId copy_edge = kInvalidEdge;
  };

  /// Resolves each run edge's spec edge id once and seeds every leaf with
  /// the run edges that copy its leader edge.
  void ResolveSpecEdges() {
    const Digraph& g = spec_.graph();
    seeds_.assign(hg_.size(), {});
    spec_edge_.resize(num_run_edges_);
    spec_edge_stamp_.assign(g.num_edges(), 0);
    for (EdgeId e = 0; e < num_run_edges_; ++e) {
      const MultiEdge& me = mg_.edge(e);
      const size_t id = g.EdgeIndex(origin_[me.from], origin_[me.to]);
      spec_edge_[e] = static_cast<uint32_t>(id);
      if (id == g.num_edges()) continue;
      const HierNodeId leaf = hg_.LeafLedBy(id);
      if (leaf != kInvalidHierNode) seeds_[leaf].push_back(e);
    }
  }

  /// True if run edge `e` (tag -1) copies an own edge of `h` that no edge
  /// stamped `stamp_` copied before; stamps it.
  bool TakeOwnEdge(EdgeId e, HierNodeId h) {
    const uint32_t id = spec_edge_[e];
    if (id == spec_edge_stamp_.size() || hg_.EdgeOwner(id) != h ||
        spec_edge_stamp_[id] == stamp_) {
      return false;
    }
    spec_edge_stamp_[id] = stamp_;
    return true;
  }

  Status ProcessLevel(int32_t depth) {
    // Phase 1: discover all copies at this level; level[li]'s copies are
    // copies_[copies_begin_[li], copies_begin_[li + 1]).
    const auto& level = hg_.Level(depth);
    copies_.clear();
    copies_begin_.clear();
    for (size_t li = 0; li < level.size(); ++li) {
      copies_begin_.push_back(copies_.size());
      HierNodeId h = level[li];
      const HierNode& node = hg_.node(h);
      if (seeds_[h].empty()) {
        return Status::InvalidRun(
            "no copies of a specification subgraph appear in the run");
      }
      for (EdgeId seed : seeds_[h]) {
        if (!mg_.IsAlive(seed)) {
          return Status::InvalidRun(
              "two copy seeds landed in one subgraph copy (run does not "
              "conform to the specification)");
        }
        CopyRec rec;
        SKL_RETURN_NOT_OK(SearchCopy(h, node, seed, &rec));
        copies_.push_back(rec);
      }
      seeds_[h].clear();
    }
    copies_begin_.push_back(copies_.size());
    // Phase 2: group copies into F-/L- execution nodes.
    for (size_t li = 0; li < level.size(); ++li) {
      HierNodeId h = level[li];
      const HierNode& node = hg_.node(h);
      std::span<const CopyRec> copies(copies_.data() + copies_begin_[li],
                                      copies_.data() + copies_begin_[li + 1]);
      if (node.kind == HierKind::kFork) {
        GroupForkCopies(h, node, copies);
      } else {
        SKL_RETURN_NOT_OK(GroupLoopCopies(h, node, copies));
      }
    }
    return Status::OK();
  }

  /// Pruned undirected DFS (paper's SearchNodes) discovering one copy of H
  /// from a seed edge, assigning contexts and wiring child execution nodes,
  /// then collapsing the copy into a single special edge.
  Status SearchCopy(HierNodeId h, const HierNode& node, EdgeId seed,
                    CopyRec* out) {
    const bool is_fork = node.kind == HierKind::kFork;
    const VertexId spec_s = node.source;
    const VertexId spec_t = node.sink;
    const SubgraphInfo& sub = spec_.subgraphs()[node.subgraph_index];

    ++stamp_;
    if (edge_stamp_.size() < mg_.edge_capacity()) {
      edge_stamp_.resize(2 * mg_.edge_capacity(), 0);
    }
    copy_edges_.clear();
    copy_verts_.clear();
    dfs_stack_.clear();

    VertexId copy_s = kInvalidVertex;
    VertexId copy_t = kInvalidVertex;
    // The walk runs once per run edge, so its steps report a failure through
    // `error` rather than build a Status each.
    const char* error = nullptr;
    auto touch = [&](VertexId v) -> bool {
      if (vert_stamp_[v] == stamp_) return true;
      vert_stamp_[v] = stamp_;
      VertexId ov = origin_[v];
      if (!sub.vertex_set.Test(ov)) {
        error =
            "copy search left the subgraph's module set (run does not "
            "conform to the specification)";
        return false;
      }
      if (ov == spec_s) {
        if (copy_s != kInvalidVertex) {
          error = "copy has two source vertices";
          return false;
        }
        copy_s = v;
      } else if (ov == spec_t) {
        if (copy_t != kInvalidVertex) {
          error = "copy has two sink vertices";
          return false;
        }
        copy_t = v;
      }
      copy_verts_.push_back(v);
      dfs_stack_.push_back(v);
      return true;
    };

    auto take_edge = [&](EdgeId e) -> bool {
      if (edge_stamp_[e] == stamp_) return true;
      edge_stamp_[e] = stamp_;
      copy_edges_.push_back(e);
      return touch(mg_.edge(e).from) && touch(mg_.edge(e).to);
    };
    auto take_all = [&](auto edges) -> bool {
      for (EdgeId e : edges) {
        if (!take_edge(e)) return false;
      }
      return true;
    };

    if (!take_edge(seed)) return Status::InvalidRun(error);
    while (!dfs_stack_.empty()) {
      VertexId v = dfs_stack_.back();
      dfs_stack_.pop_back();
      VertexId ov = origin_[v];
      bool ok = true;
      if (ov == spec_s) {
        // Forks never expand through their terminals; loops own their source
        // and all of its outgoing edges (completeness).
        if (is_fork) continue;
        ok = take_all(mg_.OutEdges(v));
      } else if (ov == spec_t) {
        if (is_fork) continue;
        ok = take_all(mg_.InEdges(v));
      } else {
        // Internal vertices are fully self-contained: every incident alive
        // edge belongs to this copy.
        ok = take_all(mg_.OutEdges(v)) && take_all(mg_.InEdges(v));
      }
      if (!ok) return Status::InvalidRun(error);
    }
    if (copy_s == kInvalidVertex || copy_t == kInvalidVertex) {
      return Status::InvalidRun("copy search found no source or sink");
    }

    PlanNodeId x = plan_.AddNode(
        is_fork ? PlanNodeType::kFPlus : PlanNodeType::kLPlus, h);
    // Context (Definition 9): every vertex of the copy not yet claimed by a
    // deeper copy; a fork copy does not dominate its shared terminals.
    for (VertexId v : copy_verts_) {
      if (is_fork && (v == copy_s || v == copy_t)) continue;
      if (plan_.ContextOf(v) == kInvalidPlanNode) plan_.AssignContext(v, x);
    }
    // Wire child execution (-) nodes whose special edges lie in this copy.
    // A conforming copy contains exactly one execution per hierarchy child
    // and each of the subgraph's own edges exactly once.
    size_t own_edges_found = 0;
    bool edges_match = true;
    for (EdgeId e : copy_edges_) {
      int32_t tag = mg_.edge(e).tag;
      if (tag == -1) {
        if (TakeOwnEdge(e, h)) {
          ++own_edges_found;
        } else {
          edges_match = false;
        }
      } else if (tag == -2) {
        return Status::InvalidRun(
            "copy search crossed into a sibling copy (run does not conform "
            "to the specification)");
      }
      if (tag >= 0) {
        if (plan_.node(tag).parent != kInvalidPlanNode) {
          return Status::Internal("execution edge claimed by two copies");
        }
        plan_.SetParent(tag, x);
        HierNodeId child_hier = plan_.node(tag).hier;
        if (hg_.node(child_hier).parent != h) {
          return Status::InvalidRun(
              "execution of a subgraph surfaced inside a copy of an "
              "unrelated subgraph");
        }
        ++child_tally_[child_hier];
      }
      mg_.RemoveEdge(e);
    }
    for (HierNodeId c : node.children) {
      if (child_tally_[c] != 1) {
        return Status::InvalidRun(
            "copy does not contain exactly one execution of each nested "
            "fork/loop (run does not conform to the specification)");
      }
      child_tally_[c] = 0;
    }
    if (!edges_match || own_edges_found != node.own_edges.size()) {
      return Status::InvalidRun(
          "copy's edges do not match the subgraph (run does not conform to "
          "the specification)");
    }
    out->node = x;
    out->source = copy_s;
    out->sink = copy_t;
    out->copy_edge = mg_.AddEdge(copy_s, copy_t, /*tag=*/-2);
    return Status::OK();
  }

  /// Parallel copies sharing a source/sink pair become one F- node; groups
  /// are created, and their execution edges added, in first-copy order.
  void GroupForkCopies(HierNodeId h, const HierNode& node,
                       std::span<const CopyRec> copies) {
    fork_groups_.clear();
    group_by_source_.Clear(origin_.size());
    for (const CopyRec& rec : copies) {
      uint32_t g = group_by_source_.Find(rec.source);
      while (g != StampedIndex::kNone && fork_groups_[g].sink != rec.sink) {
        g = fork_groups_[g].next_same_source;
      }
      if (g == StampedIndex::kNone) {
        g = static_cast<uint32_t>(fork_groups_.size());
        fork_groups_.push_back(ForkGroup{
            rec.source, rec.sink, plan_.AddNode(PlanNodeType::kFMinus, h),
            group_by_source_.Find(rec.source)});
        group_by_source_.Set(rec.source, g);
      }
      plan_.SetParent(rec.node, fork_groups_[g].node);
      mg_.RemoveEdge(rec.copy_edge);
    }
    for (const ForkGroup& group : fork_groups_) {
      EdgeId ge = mg_.AddEdge(group.source, group.sink, /*tag=*/group.node);
      PropagateSeed(node, ge);
    }
  }

  Status GroupLoopCopies(HierNodeId h, const HierNode& node,
                         std::span<const CopyRec> copies) {
    const VertexId spec_s = node.source;
    const VertexId spec_t = node.sink;
    // The first copy with each source / sink vertex.
    by_source_.Clear(origin_.size());
    by_sink_.Clear(origin_.size());
    for (size_t i = 0; i < copies.size(); ++i) {
      if (by_source_.Find(copies[i].source) == StampedIndex::kNone) {
        by_source_.Set(copies[i].source, static_cast<uint32_t>(i));
      }
      if (by_sink_.Find(copies[i].sink) == StampedIndex::kNone) {
        by_sink_.Set(copies[i].sink, static_cast<uint32_t>(i));
      }
    }
    grouped_.assign(copies.size(), 0);

    // Returns the index of the serial predecessor/successor copy, or SIZE_MAX.
    auto serial_prev = [&](size_t i, EdgeId* edge) -> Result<size_t> {
      for (EdgeId e : mg_.InEdges(copies[i].source)) {
        if (origin_[mg_.edge(e).from] == spec_t) {
          const uint32_t prev = by_sink_.Find(mg_.edge(e).from);
          if (prev == StampedIndex::kNone) {
            return Status::InvalidRun("dangling serial loop edge");
          }
          *edge = e;
          return size_t{prev};
        }
      }
      return size_t{SIZE_MAX};
    };
    auto serial_next = [&](size_t i, EdgeId* edge) -> Result<size_t> {
      for (EdgeId e : mg_.OutEdges(copies[i].sink)) {
        if (origin_[mg_.edge(e).to] == spec_s) {
          const uint32_t next = by_source_.Find(mg_.edge(e).to);
          if (next == StampedIndex::kNone) {
            return Status::InvalidRun("dangling serial loop edge");
          }
          *edge = e;
          return size_t{next};
        }
      }
      return size_t{SIZE_MAX};
    };

    for (size_t i = 0; i < copies.size(); ++i) {
      if (grouped_[i]) continue;
      // Walk back to the first copy of this serial chain.
      size_t start = i;
      for (size_t steps = 0;; ++steps) {
        if (steps > copies.size()) {
          return Status::InvalidRun("serial loop chain contains a cycle");
        }
        EdgeId unused;
        SKL_ASSIGN_OR_RETURN(size_t prev, serial_prev(start, &unused));
        if (prev == SIZE_MAX) break;
        start = prev;
      }
      // Walk forward collecting the ordered chain.
      chain_.assign(1, start);
      serial_edges_.clear();
      for (size_t cur = start;;) {
        EdgeId e = kInvalidEdge;
        SKL_ASSIGN_OR_RETURN(size_t next, serial_next(cur, &e));
        if (next == SIZE_MAX) break;
        if (grouped_[next] || next == start) {
          return Status::InvalidRun("serial loop chain is inconsistent");
        }
        serial_edges_.push_back(e);
        chain_.push_back(next);
        cur = next;
        if (chain_.size() > copies.size()) {
          return Status::InvalidRun("serial loop chain contains a cycle");
        }
      }
      PlanNodeId g = plan_.AddNode(PlanNodeType::kLMinus, h);
      for (size_t idx : chain_) {
        grouped_[idx] = 1;
        plan_.SetParent(copies[idx].node, g);  // appends: keeps serial order
        mg_.RemoveEdge(copies[idx].copy_edge);
      }
      for (EdgeId e : serial_edges_) mg_.RemoveEdge(e);
      EdgeId ge = mg_.AddEdge(copies[chain_.front()].source,
                              copies[chain_.back()].sink, /*tag=*/g);
      PropagateSeed(node, ge);
    }
    return Status::OK();
  }

  /// Registers a freshly created execution edge as a copy seed for the parent
  /// subgraph if this node is the parent's designated child.
  void PropagateSeed(const HierNode& node, EdgeId group_edge) {
    HierNodeId parent = node.parent;
    if (parent == kHierRoot) return;  // the root is never searched
    HierNodeId self =
        static_cast<HierNodeId>(node.subgraph_index + 1);
    if (hg_.node(parent).designated_child == self) {
      seeds_[parent].push_back(group_edge);
    }
  }

  Status FinishRoot() {
    // Any still-unparented execution node must hang off the root; the root,
    // like every copy, contains exactly one execution per hierarchy child.
    std::vector<uint32_t> tally(hg_.size(), 0);
    for (size_t i = 1; i < plan_.num_nodes(); ++i) {
      const PlanNode& n = plan_.node(static_cast<PlanNodeId>(i));
      if (n.parent != kInvalidPlanNode) continue;
      if (IsPlusNode(n.type)) {
        return Status::Internal("ungrouped copy node");
      }
      if (hg_.node(n.hier).parent != kHierRoot) {
        return Status::InvalidRun(
            "nested execution never enclosed by a parent copy (run does not "
            "conform to the specification)");
      }
      ++tally[n.hier];
      plan_.SetParent(static_cast<PlanNodeId>(i), kPlanRoot);
    }
    for (HierNodeId c : hg_.node(kHierRoot).children) {
      if (tally[c] != 1) {
        return Status::InvalidRun(
            "top level does not contain exactly one execution of each "
            "fork/loop (run does not conform to the specification)");
      }
    }
    for (VertexId v = 0; v < plan_.num_run_vertices(); ++v) {
      if (plan_.ContextOf(v) == kInvalidPlanNode) {
        plan_.AssignContext(v, kPlanRoot);
      }
    }
    return Status::OK();
  }

  /// After all collapses the surviving graph must be exactly the
  /// specification's root with child executions contracted: every root-owned
  /// edge once, every root-owned module once.
  Status ValidateRootLevel() {
    const HierNode& root = hg_.node(kHierRoot);
    ++stamp_;
    size_t own_edges_found = 0;
    for (EdgeId e = 0; e < mg_.edge_capacity(); ++e) {
      if (!mg_.IsAlive(e)) continue;
      const MultiEdge& me = mg_.edge(e);
      if (me.tag == -2) return Status::Internal("left-over copy edge");
      if (me.tag >= 0) {
        if (plan_.node(me.tag).parent != kPlanRoot) {
          return Status::Internal("left-over nested execution edge");
        }
        continue;
      }
      if (!TakeOwnEdge(e, kHierRoot)) {
        return Status::InvalidRun(
            "run has an edge the specification's top level does not (run "
            "does not conform to the specification)");
      }
      ++own_edges_found;
    }
    if (own_edges_found != root.own_edges.size()) {
      return Status::InvalidRun(
          "run is missing a top-level specification edge");
    }
    // Root-context vertices must carry distinct root-owned modules, one each.
    std::vector<uint8_t> seen(spec_.graph().num_vertices(), 0);
    size_t root_ctx = 0;
    for (VertexId v = 0; v < plan_.num_run_vertices(); ++v) {
      if (plan_.ContextOf(v) != kPlanRoot) continue;
      ++root_ctx;
      VertexId ov = origin_[v];
      if (hg_.OwnerOf(ov) != kHierRoot) {
        return Status::InvalidRun(
            "vertex outside every fork/loop copy is not a top-level module");
      }
      if (seen[ov]++) {
        return Status::InvalidRun(
            "two top-level run vertices share a module name");
      }
    }
    if (root_ctx != hg_.OwnVertices(kHierRoot).size()) {
      return Status::InvalidRun("run is missing a top-level module");
    }
    SKL_RETURN_NOT_OK(plan_.Validate(num_run_edges_));
    return Status::OK();
  }

  const Specification& spec_;
  const Hierarchy& hg_;
  std::vector<VertexId> origin_;
  Multigraph mg_;
  ExecutionPlan plan_;
  size_t num_run_edges_;

  /// A fork execution being grouped: its F- node and the next group with
  /// the same source vertex.
  struct ForkGroup {
    VertexId source;
    VertexId sink;
    PlanNodeId node;
    uint32_t next_same_source;
  };

  std::vector<std::vector<EdgeId>> seeds_;
  // Spec edge id of each run edge (m_G if the spec has no such edge), and
  // per spec edge the stamp of the last copy that took it.
  std::vector<uint32_t> spec_edge_;
  std::vector<uint32_t> spec_edge_stamp_;
  std::vector<uint32_t> vert_stamp_;
  std::vector<uint32_t> edge_stamp_;
  uint32_t stamp_ = 0;
  // Scratch buffers reused across SearchCopy calls.
  std::vector<EdgeId> copy_edges_;
  std::vector<VertexId> copy_verts_;
  std::vector<VertexId> dfs_stack_;
  std::vector<uint32_t> child_tally_;  // by hierarchy node, zero between uses
  // Scratch reused across levels and groupings.
  std::vector<CopyRec> copies_;
  std::vector<size_t> copies_begin_;
  std::vector<ForkGroup> fork_groups_;
  StampedIndex group_by_source_;
  StampedIndex by_source_;
  StampedIndex by_sink_;
  std::vector<uint8_t> grouped_;
  std::vector<size_t> chain_;
  std::vector<EdgeId> serial_edges_;
};

}  // namespace

Result<RecoveredPlan> ConstructPlan(const Specification& spec,
                                    const Run& run) {
  SKL_ASSIGN_OR_RETURN(std::vector<VertexId> origin,
                       ComputeOrigin(spec, run));
  return ConstructPlanWithOrigin(spec, run, std::move(origin));
}

Result<RecoveredPlan> ConstructPlanWithOrigin(const Specification& spec,
                                              const Run& run,
                                              std::vector<VertexId> origin) {
  if (origin.size() != run.num_vertices()) {
    return Status::InvalidArgument("origin size mismatch");
  }
  for (VertexId o : origin) {
    if (o >= spec.graph().num_vertices()) {
      return Status::InvalidArgument(
          "origin names a vertex outside the specification");
    }
  }
  PlanRecovery recovery(spec, run, std::move(origin));
  return recovery.Build();
}

}  // namespace skl
