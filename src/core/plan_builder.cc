#include "src/core/plan_builder.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace skl {

namespace {

using EdgeId = uint32_t;
constexpr EdgeId kInvalidEdge = UINT32_MAX;

/// The run graph as the recovery contracts it (see plan_builder.h). Edge ids
/// [0, m) are the run's edges in out-CSR order, ids from m up the special
/// edges: a copy edge (tag -2) or an execution edge (tag = its plan node).
class ContractedRun {
 public:
  explicit ContractedRun(const Digraph& g)
      : out_begin_(g.num_vertices() + 1),
        in_begin_(g.num_vertices() + 1, 0),
        in_edge_(g.num_edges()),
        live_(g.num_edges(), 1),
        special_out_(g.num_vertices()),
        special_in_(g.num_vertices()) {
    const VertexId n = g.num_vertices();
    edges_.reserve(g.num_edges());
    for (VertexId u = 0; u < n; ++u) {
      out_begin_[u] = static_cast<EdgeId>(edges_.size());
      for (VertexId v : g.OutNeighbors(u)) edges_.push_back(Edge{u, v, -1});
      in_begin_[u + 1] = in_begin_[u] + static_cast<uint32_t>(g.InDegree(u));
    }
    out_begin_[n] = static_cast<EdgeId>(edges_.size());
    // Digraph's in-CSR follows edge insertion order; recovery walks in-edges
    // in id order, so sort the ids by head once (stable: ids ascend).
    std::vector<uint32_t> fill(in_begin_.begin(), in_begin_.end() - 1);
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      in_edge_[fill[edges_[e].to]++] = e;
    }
  }

  VertexId From(EdgeId e) const { return edges_[e].from; }
  VertexId To(EdgeId e) const { return edges_[e].to; }
  int32_t Tag(EdgeId e) const { return edges_[e].tag; }
  bool IsLive(EdgeId e) const { return live_[e] != 0; }
  /// Edge ids ever handed out: run edges, then special edges.
  size_t num_ids() const { return edges_.size(); }

  void Consume(EdgeId e) { live_[e] = 0; }

  /// Appends a special edge u -> v at the end of both endpoints' lists.
  EdgeId AddSpecial(VertexId u, VertexId v, int32_t tag) {
    const EdgeId e = static_cast<EdgeId>(edges_.size());
    edges_.push_back(Edge{u, v, tag});
    live_.push_back(1);
    links_.push_back(Links{});
    Append<true>(u, e);
    Append<false>(v, e);
    return e;
  }

  /// Calls `f(e)` on each live out-edge (kOut) or in-edge of `v`, in list
  /// order, until it returns false; returns false iff `f` did.
  template <bool kOut, typename F>
  bool ForEachLive(VertexId v, F&& f) const {
    const uint32_t begin = kOut ? out_begin_[v] : in_begin_[v];
    const uint32_t end = kOut ? out_begin_[v + 1] : in_begin_[v + 1];
    for (uint32_t i = begin; i < end; ++i) {
      const EdgeId e = kOut ? i : in_edge_[i];
      if (live_[e] && !f(e)) return false;
    }
    for (EdgeId e = (kOut ? special_out_ : special_in_)[v].first;
         e != kInvalidEdge; e = Next<kOut>(e)) {
      if (live_[e] && !f(e)) return false;
    }
    return true;
  }

 private:
  struct Edge {
    VertexId from;
    VertexId to;
    int32_t tag;
  };
  struct Links {
    EdgeId out = kInvalidEdge;
    EdgeId in = kInvalidEdge;
  };
  struct Ends {
    EdgeId first = kInvalidEdge;
    EdgeId last = kInvalidEdge;
  };

  /// The special edge after special edge `e` in its tail's (kOut) or
  /// head's list.
  template <bool kOut>
  EdgeId Next(EdgeId e) const {
    const Links& links = links_[e - out_begin_.back()];
    return kOut ? links.out : links.in;
  }
  template <bool kOut>
  void Append(VertexId v, EdgeId e) {
    Ends& list = kOut ? special_out_[v] : special_in_[v];
    if (list.last == kInvalidEdge) {
      list.first = e;
    } else {
      Links& prev = links_[list.last - out_begin_.back()];
      (kOut ? prev.out : prev.in) = e;
    }
    list.last = e;
  }

  std::vector<Edge> edges_;        // by id
  std::vector<EdgeId> out_begin_;  // first run edge id per vertex; then m
  std::vector<uint32_t> in_begin_;
  std::vector<EdgeId> in_edge_;  // run edge ids by head, ascending
  std::vector<uint8_t> live_;    // by id
  std::vector<Links> links_;     // by special edge id - m
  // First and last special edge of each vertex's out- and in-list.
  std::vector<Ends> special_out_;
  std::vector<Ends> special_in_;
};

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
        run_(run.graph()),
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
      const size_t id =
          g.EdgeIndex(origin_[run_.From(e)], origin_[run_.To(e)]);
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
        if (!run_.IsLive(seed)) {
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
    if (edge_stamp_.size() < run_.num_ids()) {
      edge_stamp_.resize(2 * run_.num_ids(), 0);
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
      return touch(run_.From(e)) && touch(run_.To(e));
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
        ok = run_.ForEachLive<true>(v, take_edge);
      } else if (ov == spec_t) {
        if (is_fork) continue;
        ok = run_.ForEachLive<false>(v, take_edge);
      } else {
        // Internal vertices are fully self-contained: every incident alive
        // edge belongs to this copy.
        ok = run_.ForEachLive<true>(v, take_edge) &&
             run_.ForEachLive<false>(v, take_edge);
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
      int32_t tag = run_.Tag(e);
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
      run_.Consume(e);
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
    out->copy_edge = run_.AddSpecial(copy_s, copy_t, /*tag=*/-2);
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
      run_.Consume(rec.copy_edge);
    }
    for (const ForkGroup& group : fork_groups_) {
      EdgeId ge =
          run_.AddSpecial(group.source, group.sink, /*tag=*/group.node);
      PropagateSeed(node, ge);
    }
  }

  /// The index of the copy serially before `copy` of loop `node` (kOut
  /// false: over the first in-edge of its source from a loop sink) or after
  /// it (over the first out-edge of its sink to a loop source), or SIZE_MAX;
  /// sets `*edge` to that serial edge.
  template <bool kOut>
  Result<size_t> SerialNeighbor(const HierNode& node, const CopyRec& copy,
                                EdgeId* edge) const {
    const VertexId far_module = kOut ? node.source : node.sink;
    const StampedIndex& copy_at = kOut ? by_source_ : by_sink_;
    size_t neighbor = SIZE_MAX;
    run_.ForEachLive<kOut>(kOut ? copy.sink : copy.source, [&](EdgeId e) {
      const VertexId w = kOut ? run_.To(e) : run_.From(e);
      if (origin_[w] != far_module) return true;
      neighbor = copy_at.Find(w);
      *edge = e;
      return false;
    });
    if (neighbor == StampedIndex::kNone) {
      return Status::InvalidRun("dangling serial loop edge");
    }
    return neighbor;
  }

  Status GroupLoopCopies(HierNodeId h, const HierNode& node,
                         std::span<const CopyRec> copies) {
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

    for (size_t i = 0; i < copies.size(); ++i) {
      if (grouped_[i]) continue;
      // Walk back to the first copy of this serial chain.
      size_t start = i;
      for (size_t steps = 0;; ++steps) {
        if (steps > copies.size()) {
          return Status::InvalidRun("serial loop chain contains a cycle");
        }
        EdgeId unused;
        SKL_ASSIGN_OR_RETURN(
            size_t prev, SerialNeighbor<false>(node, copies[start], &unused));
        if (prev == SIZE_MAX) break;
        start = prev;
      }
      if (grouped_[start]) {
        // Walking back left this copy's chain for one grouped before: the
        // chains overlap.
        return Status::InvalidRun("serial loop chain is inconsistent");
      }
      // Walk forward collecting the ordered chain.
      chain_.assign(1, start);
      serial_edges_.clear();
      for (size_t cur = start;;) {
        EdgeId e = kInvalidEdge;
        SKL_ASSIGN_OR_RETURN(size_t next,
                             SerialNeighbor<true>(node, copies[cur], &e));
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
        run_.Consume(copies[idx].copy_edge);
      }
      for (EdgeId e : serial_edges_) run_.Consume(e);
      EdgeId ge = run_.AddSpecial(copies[chain_.front()].source,
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
    for (EdgeId e = 0; e < run_.num_ids(); ++e) {
      if (!run_.IsLive(e)) continue;
      const int32_t tag = run_.Tag(e);
      if (tag == -2) return Status::Internal("left-over copy edge");
      if (tag >= 0) {
        if (plan_.node(tag).parent != kPlanRoot) {
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
  ContractedRun run_;
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
