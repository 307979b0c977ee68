// ProvenanceService: the service-level entry point of the library, built for
// the paper's amortization argument — label the specification skeleton once,
// then cheaply label, query and persist *many* runs against it.
//
// The service owns the specification and its built skeleton scheme, and keeps
// a registry of labeled runs behind opaque RunId handles. Three ingestion
// paths feed the registry:
//
//   skl::ProvenanceService svc = *ProvenanceService::Create(
//       std::move(spec), SpecSchemeKind::kTcm);
//   RunId a = *svc.AddRun(run);                       // raw run graph
//   RunId b = *svc.AddRunWithPlan(run, plan, origin); // engine-provided plan
//   RunSession s = svc.OpenSession();                 // live event stream
//   s.ExecuteModule("align"); ...
//   RunId c = *std::move(s).Seal();
//
// Bulk ingestion labels a whole batch of runs concurrently on an internal
// ThreadPool (sized by Options::num_threads) and publishes the RunIds in
// input order under one writer lock — the paper's "many runs" half of the
// amortization claim, parallelized:
//
//   auto svc = *ProvenanceService::Create(std::move(spec),
//                                         SpecSchemeKind::kTcm,
//                                         {.num_threads = 8});
//   std::vector<Result<RunId>> ids = svc.AddRunsParallel(runs);
//
// Queries are self-contained — no scheme parameter, unlike the lower-level
// facades — and take only the owning shard's read lock, so concurrent
// readers never block each other (and readers of different shards share
// nothing at all):
//
//   bool dep = *svc.Reaches(a, v, w);
//   auto answers = *svc.ReachesBatch(a, pairs);       // one lock, many pairs
//
// Persistence round-trips through the ProvenanceStore blob format; an
// imported blob is immediately queryable against the service's scheme:
//
//   std::vector<uint8_t> blob = *svc.ExportRun(a);
//   RunId restored = *svc.ImportRun(blob);
//
// Threading contract: every public method is safe to call concurrently.
// The registry behind the service is sharded and lock-striped
// (src/core/run_registry.h): a query locks only the one shard that owns
// its run — shared, so readers never block each other — and counts the
// query on that shard's own tally line, so no query writes service-wide
// state. Under a search-based scheme (BFS/DFS) each spec epoch's scheme is
// wrapped in a spec-pair memo (src/speclabel/memo.h) shared by every run of
// that epoch; run operations never invalidate it.
// Ingestion does the expensive labeling outside any lock and takes one
// shard's writer lock only to publish; queries on other shards proceed
// entirely undisturbed, and queries on the same shard keep answering while
// a bulk batch is being labeled. The service must not be moved while other
// threads use it or while sessions are open.
#ifndef SKL_CORE_PROVENANCE_SERVICE_H_
#define SKL_CORE_PROVENANCE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <tuple>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/data_provenance.h"
#include "src/core/execution_plan.h"
#include "src/core/online_labeler.h"
#include "src/core/run_labeling.h"
#include "src/core/run_registry.h"
#include "src/speclabel/memo.h"
#include "src/speclabel/scheme.h"
#include "src/workflow/run.h"
#include "src/workflow/spec_delta.h"
#include "src/workflow/specification.h"

namespace skl {

class OpLog;           // src/replication/oplog.h
struct LogOp;          // src/replication/oplog.h
class SnapshotWriter;  // src/io/snapshot.h
class SnapshotReader;

/// Opaque handle to a run registered with a ProvenanceService. Handles are
/// never reused, so a stale handle (e.g. after RemoveRun) fails cleanly with
/// NotFound instead of silently addressing another run.
class RunId {
 public:
  RunId() = default;

  uint64_t value() const { return value_; }
  bool valid() const { return value_ != 0; }

  friend bool operator==(RunId a, RunId b) { return a.value_ == b.value_; }
  friend bool operator!=(RunId a, RunId b) { return a.value_ != b.value_; }

  /// Reconstructs a handle from its numeric value (e.g. parsed from a CLI
  /// argument or a log line). Unknown values fail queries with NotFound.
  static RunId FromValue(uint64_t value) { return RunId(value); }

 private:
  friend class ProvenanceService;
  explicit RunId(uint64_t value) : value_(value) {}

  uint64_t value_ = 0;  // 0 = invalid
};

/// Pair types for the batch query variants.
using VertexPair = std::pair<VertexId, VertexId>;
using ItemPair = std::pair<DataItemId, DataItemId>;

// RunStats (per-run bookkeeping returned by ProvenanceService::Stats) and
// RunRecord live in src/core/run_registry.h, next to the sharded registry
// that stores them.

/// Service-wide cumulative counters since service creation (they are not
/// part of a snapshot: a restored service — including one swapped in by
/// the net server's kLoadSnapshot — starts counting afresh; see
/// docs/NETWORK.md). Query counters tally *answered* queries — a NotFound
/// or out-of-range request does not count as served. Batch calls count one
/// per answered pair, plus one batch_calls tick per invocation. The cache
/// fields count spec-memo lookups (src/speclabel/memo.h): one per skeleton
/// predicate a query consults, under a search scheme only (both stay 0 for
/// an indexed scheme). Query fields are sums of the registry's per-shard
/// tallies and memo fields sums of the memo's per-thread stripes, taken
/// when service_stats() is called.
struct ServiceStats {
  uint64_t num_runs = 0;             ///< currently registered (point in time)
  uint64_t reaches_queries = 0;      ///< Reaches + ReachesBatch pairs
  uint64_t depends_on_queries = 0;   ///< DependsOn + DependsOnBatch pairs
  uint64_t module_data_queries = 0;  ///< ModuleDependsOnData answers
  uint64_t data_module_queries = 0;  ///< DataDependsOnModule answers
  uint64_t batch_calls = 0;          ///< ReachesBatch + DependsOnBatch calls
  uint64_t runs_ingested = 0;        ///< successful registrations, all paths
  uint64_t runs_imported = 0;        ///< subset of runs_ingested via ImportRun
  uint64_t runs_removed = 0;
  uint64_t bulk_batches = 0;         ///< AddRuns*Parallel invocations
  uint64_t snapshot_saves = 0;       ///< successful SaveSnapshot calls
  uint64_t cache_hits = 0;           ///< spec-memo hits
  uint64_t cache_misses = 0;         ///< spec-memo misses (computed)
  /// Replication state (docs/REPLICATION.md): the op-log LSN this service
  /// has durably appended (primary) or applied (replica). 0 when no op-log
  /// is attached. Over the wire the server fills both fields; a replica's
  /// target lags behind the primary's last published LSN it has seen.
  uint64_t replication_lsn = 0;
  uint64_t replication_target_lsn = 0;
  /// Reactor counters (docs/NETWORK.md): filled by the net
  /// server when the stats travel over the wire, always 0 on a local
  /// service (there is no server underneath). Unlike the counters above,
  /// these describe the server *process* — they do NOT reset when a
  /// kLoadSnapshot swaps the service.
  uint64_t connections_open = 0;           ///< currently connected peers
  uint64_t connections_accepted = 0;       ///< cumulative accepts
  uint64_t connections_timed_out = 0;      ///< closed by the idle reaper
  uint64_t connections_backpressured = 0;  ///< write-buffer cap trips
  uint64_t epoll_wakeups = 0;              ///< reactor loop turns
  uint64_t accept_backoffs = 0;            ///< fd-exhaustion accept retries
  /// Current spec epoch (docs/UPDATES.md): 1 at creation,
  /// +1 per successful ApplySpecDelta. Unlike the cumulative counters this
  /// IS part of a snapshot — a restored service resumes at the saved epoch.
  uint64_t spec_epoch = 1;

  /// Every field, in declaration order: the kServiceStats reply's layout.
  auto Fields() {
    return std::tie(num_runs, reaches_queries, depends_on_queries,
                    module_data_queries, data_module_queries, batch_calls,
                    runs_ingested, runs_imported, runs_removed, bulk_batches,
                    snapshot_saves, cache_hits, cache_misses, replication_lsn,
                    replication_target_lsn, connections_open,
                    connections_accepted, connections_timed_out,
                    connections_backpressured, epoll_wakeups,
                    accept_backoffs, spec_epoch);
  }
  /// The names of Fields(), in the same order: the keys of
  /// `sklctl stats --json`.
  static constexpr const char* kFieldNames[] = {
      "num_runs", "reaches_queries", "depends_on_queries",
      "module_data_queries", "data_module_queries", "batch_calls",
      "runs_ingested", "runs_imported", "runs_removed", "bulk_batches",
      "snapshot_saves", "cache_hits", "cache_misses", "replication_lsn",
      "replication_target_lsn", "connections_open", "connections_accepted",
      "connections_timed_out", "connections_backpressured", "epoll_wakeups",
      "accept_backoffs", "spec_epoch"};
};
static_assert(std::size(ServiceStats::kFieldNames) ==
                  std::tuple_size_v<
                      decltype(std::declval<ServiceStats&>().Fields())>,
              "ServiceStats::kFieldNames must name every field of Fields()");

class RunSession;

/// One run for the bulk engine-log ingestion path
/// (ProvenanceService::AddRunsWithPlansParallel). All pointers are borrowed
/// and must stay valid for the duration of the call.
struct PlannedRun {
  const Run* run = nullptr;
  const ExecutionPlan* plan = nullptr;
  std::span<const VertexId> origin;
  const DataCatalog* catalog = nullptr;  ///< optional
};

/// Service-wide knobs, fixed at Create time. (Namespace-scope so it can be
/// brace-defaulted in Create's declaration; spelled
/// ProvenanceService::Options at call sites.)
struct ProvenanceServiceOptions {
  /// Worker threads for the bulk ingestion paths. 0 = one per hardware
  /// thread. The pool is started lazily on the first bulk call, so
  /// services that never bulk-ingest spawn no threads.
  unsigned num_threads = 0;
  /// Bulk ingestion semantics on failure. false: every run in the batch
  /// is attempted and gets its own Result; successes are published.
  /// true: all-or-nothing — the first failure cancels the rest of the
  /// batch and nothing is published.
  bool fail_fast = false;
  /// Registry shards (lock stripes); rounded up to a power of two and
  /// clamped to [1, 1024]. More shards = less reader/writer contention;
  /// 1 reproduces the old single-lock behavior.
  size_t num_shards = 8;
  /// Forces ApplySpecDelta to rebuild the new epoch's scheme from scratch
  /// instead of relabeling the dirty region incrementally. The two paths
  /// must be bit-identical — the differential update harness
  /// (tests/spec_update_differential_test.cc) runs a twin with this on and
  /// compares every answer; the knob exists for that harness and for the
  /// bench's before/after columns, not for production use.
  bool full_rebuild_on_delta = false;
};

/// Knobs for ProvenanceService::LoadSnapshot, separate from the service
/// Options because they describe how to *read the file*, not the restored
/// service. (Namespace-scope for the same brace-defaulting reason as
/// ProvenanceServiceOptions.)
struct SnapshotLoadOptions {
  /// Request the zero-copy path: mmap the snapshot read-only and let the
  /// restored runs view the label words in place. Falls back to the
  /// copying reader when the platform cannot map the file or `SKL_NO_MMAP`
  /// is set in the environment. See docs/PERSISTENCE.md for the mapping
  /// lifetime contract.
  bool use_mmap = false;
};

/// One specification + one built skeleton scheme + many labeled runs.
class ProvenanceService {
 public:
  using Options = ProvenanceServiceOptions;

  /// Builds the skeleton index once over `spec` (moved in). All runs later
  /// registered with the service are labeled and queried against it.
  static Result<ProvenanceService> Create(Specification spec,
                                          SpecSchemeKind scheme_kind,
                                          Options options = {});
  /// As above with a caller-constructed (not yet built) scheme.
  static Result<ProvenanceService> Create(
      Specification spec, std::unique_ptr<SpecLabelingScheme> scheme,
      Options options = {});

  ProvenanceService(ProvenanceService&&) = default;
  ProvenanceService& operator=(ProvenanceService&&) = default;

  // ------------------------------------------------------------ ingestion --

  /// Labels a raw run graph (recovers plan + context, Section 5) and
  /// registers it. The run graph can be discarded afterwards; only the
  /// bit-packed labels (and the catalog, if given) are retained.
  Result<RunId> AddRun(const Run& run, const DataCatalog* catalog = nullptr);

  /// Registers a run whose plan + context are already known (e.g. from the
  /// workflow engine's log, as Taverna provides).
  Result<RunId> AddRunWithPlan(const Run& run, const ExecutionPlan& plan,
                               std::vector<VertexId> origin,
                               const DataCatalog* catalog = nullptr);

  /// Bulk variant of AddRun: labels every run in the batch concurrently on
  /// the service's thread pool (Options::num_threads), then publishes the
  /// successes under one writer lock. results[i] corresponds to runs[i],
  /// and published ids are ascending in input order. Queries on already
  /// registered runs keep running while the batch is labeled.
  ///
  /// `catalogs`, if nonempty, must be runs.size() pointers (entries may be
  /// null). Under Options::fail_fast the batch is all-or-nothing: the first
  /// failing run keeps its error, every other entry reports Cancelled, and
  /// nothing is published.
  std::vector<Result<RunId>> AddRunsParallel(
      std::span<const Run> runs,
      std::span<const DataCatalog* const> catalogs = {});

  /// Bulk variant of AddRunWithPlan; same ordering, threading and fail-fast
  /// semantics as AddRunsParallel, minus the plan-recovery step.
  std::vector<Result<RunId>> AddRunsWithPlansParallel(
      std::span<const PlannedRun> runs);

  /// Opens a live labeling session for an in-flight run (Section 9): feed
  /// events as they happen, query intermediate results mid-run, then Seal()
  /// into a registered run. The session must not outlive the service.
  RunSession OpenSession();

  /// Removes a run. Its RunId is never reused.
  Status RemoveRun(RunId id);

  // -------------------------------------------------------------- queries --

  // Every query answers against the scheme of the epoch the run was
  // ingested under — NOT the current head epoch — so a spec delta never
  // changes an existing answer (docs/UPDATES.md). `at_epoch` pins the
  // query: 0 (the default) accepts whatever epoch the run is frozen to;
  // a nonzero value that differs from the run's epoch fails with
  // kEpochMismatch instead of answering against a scheme the caller did
  // not ask for.

  /// Module-level reachability (reflexive): is there a path v ~> w in the
  /// identified run?
  Result<bool> Reaches(RunId id, VertexId v, VertexId w,
                       uint64_t at_epoch = 0) const;

  /// Answers many reachability queries under one reader lock; answers[i]
  /// corresponds to pairs[i].
  Result<std::vector<bool>> ReachesBatch(RunId id,
                                         std::span<const VertexPair> pairs,
                                         uint64_t at_epoch = 0) const;

  /// Item-level dependency (Section 6): does item x depend on x_from?
  Result<bool> DependsOn(RunId id, DataItemId x, DataItemId x_from,
                         uint64_t at_epoch = 0) const;

  /// Batch variant of DependsOn; answers[i] corresponds to pairs[i].
  Result<std::vector<bool>> DependsOnBatch(RunId id,
                                           std::span<const ItemPair> pairs,
                                           uint64_t at_epoch = 0) const;

  /// Did module execution v read data derived from item x?
  Result<bool> ModuleDependsOnData(RunId id, VertexId v, DataItemId x,
                                   uint64_t at_epoch = 0) const;

  /// Is item x downstream of module execution v?
  Result<bool> DataDependsOnModule(RunId id, DataItemId x, VertexId v,
                                   uint64_t at_epoch = 0) const;

  // ------------------------------------------------------------ spec epochs --

  /// One entry of the append-only spec-epoch chain (docs/UPDATES.md).
  /// Entries are never destroyed or mutated once published, so the
  /// pointers handed out to run records and sessions stay valid for the
  /// service's lifetime. Under a search scheme `scheme` is the epoch's
  /// MemoizedScheme around the search.
  struct SpecEpoch {
    uint64_t number = 1;
    std::unique_ptr<const Specification> spec;
    std::unique_ptr<SpecLabelingScheme> scheme;
    /// The delta that created this epoch (meaningless for epoch 1).
    SpecDelta delta;
  };

  /// Applies one specification edit, opening a new spec epoch: the head
  /// specification is rebuilt through the delta (re-validating Definitions
  /// 1-3), the labeling scheme is relabeled over the delta's dirty region
  /// (or fully rebuilt under Options::full_rebuild_on_delta), and runs
  /// ingested from now on are labeled against the new epoch. Existing runs
  /// are untouched: they stay frozen to — and queryable against — their
  /// own epoch's scheme. Returns the new epoch number.
  ///
  /// Rejections (unknown module, duplicate edge, a rebuild that violates
  /// the workflow model, RemoveModule while live head-epoch runs reference
  /// the module, or a caller-constructed non-bundled scheme) leave the
  /// service entirely unchanged. With an op-log attached the delta is
  /// appended before this returns (append-before-ack), so replicas and
  /// RecoverPrimary replay it deterministically.
  Result<uint64_t> ApplySpecDelta(const SpecDelta& delta);

  /// Replica-side apply of a shipped kSpecDelta op (and the restore path
  /// of log recovery and snapshot loading): applies `delta`, expecting the
  /// chain to land on `target_epoch`, which is always >= 2 (both callers
  /// read it from bytes whose decoders refuse anything lower). Idempotent
  /// — a target at or below the current head is skipped silently
  /// (snapshot+stream overlap); a target past head + 1 is a chain gap
  /// (InvalidArgument). Never appended to an attached op-log and exempt
  /// from the live-dependent-run guard (the primary already enforced it).
  Status ApplySpecDeltaReplicated(const SpecDelta& delta,
                                  uint64_t target_epoch);

  /// Current spec epoch: 1 at creation, +1 per successful ApplySpecDelta.
  uint64_t spec_epoch() const {
    return head_epoch_entry().number;
  }

  /// The chain entry a given epoch number, or null when out of range.
  /// Entry addresses are stable for the service's lifetime.
  const SpecEpoch* FindEpoch(uint64_t number) const;

  // ---------------------------------------------------------- persistence --

  /// Serializes a registered run to the self-describing ProvenanceStore
  /// blob (labels + catalog; the paper's "what the provenance database
  /// stores").
  Result<std::vector<uint8_t>> ExportRun(RunId id) const;

  /// Registers a run from a blob previously produced by ExportRun (or by
  /// ProvenanceStore::Serialize). The blob must stem from a run of this
  /// service's specification; it is immediately queryable.
  Result<RunId> ImportRun(const std::vector<uint8_t>& blob);

  /// Serializes the whole service — specification, scheme identity, and
  /// every registered run with its labels, catalog and stats — to one
  /// versioned, checksummed snapshot file (src/io/snapshot.h; format in
  /// docs/PERSISTENCE.md). Composed shard by shard under each shard's read
  /// lock — no stop-the-world pass, so concurrent queries keep answering
  /// throughout; the view is per-shard consistent. Fails with
  /// InvalidArgument for services over caller-constructed schemes that are
  /// not one of the bundled SpecSchemeKinds.
  Status SaveSnapshot(const std::string& path) const;

  /// Restores a service saved by SaveSnapshot: same RunIds (including the
  /// id counter, so the next AddRun gets the same handle it would have on
  /// the saving service) and bit-identical query answers, with the skeleton
  /// scheme rebuilt deterministically from the restored specification.
  /// Runtime knobs (thread pool size, fail-fast) are not part of the
  /// snapshot; pass them here. Malformed input — truncated file, bad magic,
  /// unsupported version, corrupted section — fails with a descriptive
  /// ParseError.
  static Result<ProvenanceService> LoadSnapshot(
      const std::string& path, Options options = {},
      SnapshotLoadOptions load_options = {});

  /// True when this service was restored through the mmap path and its
  /// runs view the mapped snapshot (released when the last viewing run is
  /// destroyed). False for copying loads and non-snapshot services.
  bool loaded_via_mmap() const { return loaded_via_mmap_; }

  /// In-memory SaveSnapshot: the same container bytes WriteFile would
  /// persist, for shipping over the wire (kSnapshotFetch) instead of to
  /// disk. Does not count as a snapshot_saves tick.
  Result<std::vector<uint8_t>> SnapshotBytes() const;

  /// In-memory LoadSnapshot over bytes produced by SnapshotBytes (or read
  /// from a snapshot file).
  static Result<ProvenanceService> LoadSnapshotBytes(
      std::vector<uint8_t> bytes, Options options = {});

  // ---------------------------------------------------------- replication --

  /// Attaches a durable op-log (src/replication/oplog.h): from now on every
  /// successful mutation — AddRun/bulk/session ingestion, ImportRun,
  /// RemoveRun — is appended to the log *before* the call returns, so an
  /// acked op is always replayable (append-before-ack). The log must
  /// outlive the service; pass nullptr to detach. An append failure after
  /// the registry already published surfaces as Internal: the caller must
  /// treat the service as ahead of its log.
  void AttachOpLog(OpLog* oplog);

  /// Last LSN appended to the attached op-log; 0 when none is attached.
  uint64_t replication_lsn() const;

  /// Replica-side apply of a shipped AddRun/ImportRun op (and the restore
  /// path of log recovery): registers the record under the *primary's* run
  /// id, validating the blob against this service's specification exactly
  /// like ImportRun. Idempotent — an id that is already registered is
  /// skipped silently, which is what makes snapshot+stream bootstrap safe
  /// when the two overlap. Never appended to an attached op-log and not
  /// counted in the ingestion counters (the stats describe locally served
  /// ops, not replicated ones).
  Status RestoreRun(uint64_t id, const RunStats& stats,
                    std::span<const uint8_t> blob);

  // ------------------------------------------------------------- registry --

  bool Contains(RunId id) const;
  size_t num_runs() const;
  Result<RunStats> Stats(RunId id) const;
  /// Point-in-time copy of the service-wide cumulative counters.
  ServiceStats service_stats() const;
  /// Handles of all registered runs, in registration order.
  std::vector<RunId> ListRuns() const;

  /// The *head-epoch* specification and scheme — what new runs are labeled
  /// against. Old epochs stay reachable through FindEpoch / run records.
  const Specification& spec() const { return *head_epoch_entry().spec; }
  const SpecLabelingScheme& scheme() const {
    return *head_epoch_entry().scheme;
  }
  /// The epoch-1 specification the service was created with — the spec an
  /// op-log header or snapshot Spec section records; deltas are replayed
  /// on top of it (docs/UPDATES.md).
  const Specification& base_spec() const { return *epochs_->front().spec; }
  const Options& options() const { return options_; }

  /// The service-level metrics registry (docs/OBSERVABILITY.md): the
  /// labeling-time histogram and, under a search scheme, the memo tallies. The
  /// net server renders it into its kMetrics exposition. Like the
  /// ServiceStats counters, it describes this service object's lifetime —
  /// a snapshot load swaps in a fresh registry.
  const MetricsRegistry& metrics() const { return *metrics_; }

  /// Which registry shard owns `id` — the shard label the slow-query log
  /// records next to a run id.
  size_t shard_of(RunId id) const;

 private:
  friend class RunSession;

  /// The write-path half of ServiceStats; atomic because mutations hold
  /// different shard locks, or none. Query events (RunRegistry::TotalTally)
  /// and memo lookups (MemoTally) are counted per thread stripe, so no read
  /// writes a shared line.
  struct Counters {
    std::atomic<uint64_t> runs_ingested{0};
    std::atomic<uint64_t> runs_imported{0};
    std::atomic<uint64_t> runs_removed{0};
    std::atomic<uint64_t> bulk_batches{0};
    std::atomic<uint64_t> snapshot_saves{0};
  };

  ProvenanceService(std::unique_ptr<const Specification> spec,
                    std::unique_ptr<SpecLabelingScheme> scheme,
                    std::unique_ptr<MemoTally> memo_tally, Options options);

  /// The head of the epoch chain (acquire load; published with release by
  /// ApplySpecDelta, so a reader always sees a fully constructed entry).
  const SpecEpoch& head_epoch_entry() const {
    return *head_->load(std::memory_order_acquire);
  }

  /// Shared delta application behind ApplySpecDelta (logging, guarded) and
  /// ApplySpecDeltaReplicated / snapshot replay (non-logging, unguarded).
  Result<uint64_t> ApplyDeltaLocked(const SpecDelta& delta,
                                    bool check_dependents, bool append_log);

  /// Labels one run outside any lock: plan recovery (unless supplied, in
  /// which case `origin` is recovered too and the argument is ignored),
  /// run labeling, catalog validation and store capture. `at` is the epoch
  /// the run is labeled (and forever frozen) under.
  Result<RunRecord> BuildRecord(const Run& run, const ExecutionPlan* plan,
                                std::vector<VertexId> origin,
                                const DataCatalog* catalog,
                                const SpecEpoch* at) const;

  /// Packs a labeling (+ optional catalog, validated against it first)
  /// into the record format the registry stores. Lock-free; shared by
  /// every labeling ingestion path so the stats fields cannot diverge.
  static Result<RunRecord> CaptureRecord(const RunLabeling& labeling,
                                         const DataCatalog* catalog,
                                         const SpecEpoch* at);

  /// Publishes a record under a fresh id (takes one shard's writer lock),
  /// then appends the op to the attached op-log (if any) before returning
  /// — the append-before-ack half of the replication contract.
  Result<RunId> Publish(RunRecord record);

  /// Appends `op` to the attached op-log, if any, for a run change the
  /// registry has already made visible (`done`: "registered", "removed").
  /// The change cannot be taken back, so a failed append is reported as
  /// Internal: the service is ahead of its replication log.
  Status LogAfterPublish(LogOp op, std::string_view done);

  /// The one admission check on a stored run, shared by ImportRun,
  /// RestoreRun and the snapshot loader: a non-empty scheme tag must name
  /// the scheme of epoch `at`, whose scheme alone can interpret the labels,
  /// and every origin must be a vertex of that epoch's specification, or
  /// queries would index the scheme out of range, and fit the store's
  /// origin width, so every label field decodes as it was packed. Other
  /// bits of a label word are context fields, any value of which is a
  /// label. InvalidArgument naming
  /// `who` otherwise (the snapshot loader reports it as a ParseError).
  static Status AdmitStore(const ProvenanceStore& store, const SpecEpoch& at,
                           const std::string& who);

  /// Captures a labeling (+ optional catalog) and publishes it under a new
  /// id.
  Result<RunId> Register(const RunLabeling& labeling,
                         const DataCatalog* catalog, const SpecEpoch* at);

  /// Shared driver of the two bulk paths: `build(i)` produces record i on a
  /// pool worker; successes are published in input order.
  std::vector<Result<RunId>> BulkIngest(
      size_t count, const std::function<Result<RunRecord>(size_t)>& build);

  /// Returns the bulk-ingestion pool, starting it on first use.
  ThreadPool& Pool();

  /// Shared snapshot composition behind SaveSnapshot / SnapshotBytes.
  Result<SnapshotWriter> BuildSnapshotWriter() const;
  /// Shared restore behind LoadSnapshot / LoadSnapshotBytes.
  static Result<ProvenanceService> LoadFromSnapshotReader(
      SnapshotReader reader, Options options);
  /// Restores the columnar run sections into this service (snapshot.cc).
  Status LoadColumnarRuns(const SnapshotReader& reader);

  // The append-only spec-epoch chain. Behind a unique_ptr so entry (and
  // container) addresses survive service moves: schemes hold a pointer to
  // their epoch's spec.graph(), sessions and run records to both. Reads go
  // through head_ (atomic) or a record's cached pointers — never through
  // the deque itself, whose push_back is guarded by epoch_mu_.
  std::unique_ptr<std::deque<SpecEpoch>> epochs_;
  std::unique_ptr<std::atomic<const SpecEpoch*>> head_;
  std::unique_ptr<std::mutex> epoch_mu_;  // serializes ApplySpecDelta
  /// The bundled scheme kind deltas rebuild with; set iff the scheme's
  /// name round-trips through ParseSpecSchemeKind. A service over a
  /// caller-constructed scheme cannot apply deltas (nor snapshot).
  bool bundled_scheme_ = false;
  SpecSchemeKind scheme_kind_ = SpecSchemeKind::kTcm;
  Options options_;

  /// Registers the labeling histogram and, under a search scheme, the memo
  /// gauges on metrics_ (constructor only; the gauges capture addresses
  /// that unique_ptr keeps stable across service moves).
  void RegisterServiceMetrics();

  std::unique_ptr<Counters> counters_;  // see Counters for the contract
  /// Hit/miss tally shared by every epoch's memo (each memo borrows it).
  std::unique_ptr<MemoTally> memo_tally_;
  // The sharded, lock-striped run storage (internally synchronized);
  // behind a unique_ptr so the service stays movable while shard mutexes
  // and handed-out ReadHandles keep stable addresses.
  std::unique_ptr<RunRegistry> registry_;

  // Behind a unique_ptr for movability; the histogram pointers point into
  // metrics_ (stable addresses) and record lock-free.
  std::unique_ptr<MetricsRegistry> metrics_;
  LatencyHistogram* labeling_hist_ = nullptr;
  LatencyHistogram* relabel_hist_ = nullptr;  ///< skl_spec_relabel_us

  std::unique_ptr<std::mutex> pool_mu_;  // guards lazy pool_ creation
  std::unique_ptr<ThreadPool> pool_;     // created on first bulk call

  OpLog* oplog_ = nullptr;  ///< borrowed; see AttachOpLog

  bool loaded_via_mmap_ = false;  ///< see loaded_via_mmap()
};

/// Live labeling of one in-flight run, created by
/// ProvenanceService::OpenSession. Wraps OnlineLabeler event feeding: the
/// event stream must be well-parenthesized (depth-first), and mid-run
/// queries walk the partial plan in O(depth). Seal() freezes the run into
/// constant-time labels and registers it with the originating service.
class RunSession {
 public:
  RunSession(RunSession&&) = default;
  RunSession& operator=(RunSession&&) = default;

  /// Starts an execution of the given fork/loop (a child, in T_G, of the
  /// subgraph whose copy is currently open).
  Status BeginExecution(HierNodeId subgraph) {
    return labeler_.BeginExecution(subgraph);
  }
  /// Starts the next copy of the currently open execution.
  Status BeginCopy() { return labeler_.BeginCopy(); }
  Status EndCopy() { return labeler_.EndCopy(); }
  Status EndExecution() { return labeler_.EndExecution(); }

  /// Records one module execution inside the currently open copy. Returns
  /// the new run vertex id, usable in queries immediately.
  Result<VertexId> ExecuteModule(std::string_view module_name) {
    return labeler_.ExecuteModule(module_name);
  }

  /// Mid-run reachability (reflexive): O(plan depth).
  bool Reaches(VertexId v, VertexId w) const {
    return labeler_.Reaches(v, w);
  }

  /// Number of module executions so far.
  VertexId num_vertices() const { return labeler_.num_vertices(); }

  /// Completes the run and registers it with the service; the session is
  /// consumed. Every execution must be closed (same contract as
  /// OnlineLabeler::Finish).
  Result<RunId> Seal(const DataCatalog* catalog = nullptr) &&;

 private:
  friend class ProvenanceService;
  RunSession(ProvenanceService* service,
             const ProvenanceService::SpecEpoch* epoch)
      : service_(service),
        epoch_(epoch),
        labeler_(epoch->spec.get(), epoch->scheme.get()) {}

  ProvenanceService* service_;
  /// The epoch the session labels against, captured at OpenSession time;
  /// Seal registers the run frozen to it even if deltas landed meanwhile.
  const ProvenanceService::SpecEpoch* epoch_;
  OnlineLabeler labeler_;
};

}  // namespace skl

#endif  // SKL_CORE_PROVENANCE_SERVICE_H_
