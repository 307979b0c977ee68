#include "src/core/provenance_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <string>

#include "src/common/stopwatch.h"
#include "src/core/plan_builder.h"
#include "src/replication/oplog.h"

namespace skl {

namespace {

/// The catalog is captured verbatim into the store; reject out-of-range
/// vertices up front so store queries can index labels unchecked.
Status ValidateCatalog(const DataCatalog& catalog, VertexId num_vertices) {
  for (DataItemId x = 0; x < catalog.size(); ++x) {
    if (catalog.OutputOf(x) >= num_vertices) {
      return Status::InvalidArgument("catalog item " + std::to_string(x) +
                                     " written by unknown vertex");
    }
    for (VertexId r : catalog.InputsOf(x)) {
      if (r >= num_vertices) {
        return Status::InvalidArgument("catalog item " + std::to_string(x) +
                                       " read by unknown vertex");
      }
    }
  }
  return Status::OK();
}

// Query logic over a store's bit-packed labels (+ catalog), formerly the
// scheme-passing ProvenanceStore overloads. It lives here because the
// service is the only holder of the scheme a store's labels were built
// under; nothing outside can pair the two incorrectly anymore. Callers
// have range-checked every vertex and item id.

bool StoreReaches(const ProvenanceStore& store, VertexId v, VertexId w,
                  const SpecLabelingScheme& scheme) {
  return RunLabeling::Decide(store.label(v), store.label(w), scheme);
}

bool StoreDependsOn(const ProvenanceStore& store, DataItemId x,
                    DataItemId x_from, const SpecLabelingScheme& scheme) {
  // Paper Section 6: x depends on x_from iff some reader of x_from reaches
  // the execution that wrote x.
  const RunLabel out = store.label(store.item_writer(x));
  for (VertexId r : store.item_readers(x_from)) {
    if (RunLabeling::Decide(store.label(r), out, scheme)) return true;
  }
  return false;
}

bool StoreModuleDependsOnData(const ProvenanceStore& store, VertexId v,
                              DataItemId x,
                              const SpecLabelingScheme& scheme) {
  for (VertexId r : store.item_readers(x)) {
    if (RunLabeling::Decide(store.label(r), store.label(v), scheme)) {
      return true;
    }
  }
  return false;
}

bool StoreDataDependsOnModule(const ProvenanceStore& store, DataItemId x,
                              VertexId v, const SpecLabelingScheme& scheme) {
  return RunLabeling::Decide(store.label(v),
                             store.label(store.item_writer(x)), scheme);
}

/// Search schemes (BFS, DFS) serve through a spec-pair memo; an indexed
/// scheme's compare beats a probe, so it is served as is.
std::unique_ptr<SpecLabelingScheme> ForServing(
    std::unique_ptr<SpecLabelingScheme> scheme, MemoTally* tally) {
  if (!scheme->SearchesGraph()) return scheme;
  return std::make_unique<MemoizedScheme>(std::move(scheme), tally);
}

}  // namespace

ProvenanceService::ProvenanceService(
    std::unique_ptr<const Specification> spec,
    std::unique_ptr<SpecLabelingScheme> scheme,
    std::unique_ptr<MemoTally> memo_tally, Options options)
    : epochs_(std::make_unique<std::deque<SpecEpoch>>()),
      head_(std::make_unique<std::atomic<const SpecEpoch*>>(nullptr)),
      epoch_mu_(std::make_unique<std::mutex>()),
      options_(options),
      counters_(std::make_unique<Counters>()),
      memo_tally_(std::move(memo_tally)),
      registry_(std::make_unique<RunRegistry>(
          RunRegistry::Options{.num_shards = options.num_shards})),
      metrics_(std::make_unique<MetricsRegistry>()),
      pool_mu_(std::make_unique<std::mutex>()) {
  // Only a scheme whose name round-trips through the kind parser can be
  // rebuilt for a later epoch (and snapshotted); remember the verdict so
  // ApplySpecDelta can refuse caller-constructed schemes cleanly.
  Result<SpecSchemeKind> kind = ParseSpecSchemeKind(scheme->name());
  if (kind.ok()) {
    bundled_scheme_ = true;
    scheme_kind_ = *kind;
  }
  epochs_->push_back(
      SpecEpoch{1, std::move(spec), std::move(scheme), SpecDelta{}});
  head_->store(&epochs_->back(), std::memory_order_release);
  RegisterServiceMetrics();
}

void ProvenanceService::RegisterServiceMetrics() {
  labeling_hist_ = metrics_->AddHistogram(
      "skl_service_labeling_us",
      "Microseconds spent building a run's labeling (plan recovery, label "
      "assignment, catalog validation, record capture)");
  relabel_hist_ = metrics_->AddHistogram(
      "skl_spec_relabel_us",
      "Microseconds spent relabeling the skeleton for a spec delta "
      "(incremental over the dirty region, or a full rebuild under "
      "Options::full_rebuild_on_delta)");
  // The current spec epoch as a render-time gauge; head_ sits behind a
  // unique_ptr, so the captured address survives service moves.
  const std::atomic<const SpecEpoch*>* head = head_.get();
  metrics_->AddCallbackGauge(
      "skl_spec_epoch",
      "Current spec epoch (1 at creation, +1 per applied spec delta)", "",
      [head] {
        const SpecEpoch* entry = head->load(std::memory_order_acquire);
        return entry != nullptr ? entry->number : 0;
      });
  // The memo tally ServiceStats reads, only under a search scheme (every
  // epoch rebuilds the same kind): no always-zero series.
  if (!head_epoch_entry().scheme->SearchesGraph()) return;
  const MemoTally* tally = memo_tally_.get();
  metrics_->AddCallbackGauge(
      "skl_spec_memo_hits",
      "Skeleton predicates answered from the spec-pair memo", "",
      [tally] { return tally->hits(); });
  metrics_->AddCallbackGauge(
      "skl_spec_memo_misses",
      "Skeleton predicates computed by graph search and memoized", "",
      [tally] { return tally->misses(); });
}

size_t ProvenanceService::shard_of(RunId id) const {
  return registry_->ShardIndexFor(id.value());
}

Result<ProvenanceService> ProvenanceService::Create(
    Specification spec, SpecSchemeKind scheme_kind, Options options) {
  return Create(std::move(spec), CreateSpecScheme(scheme_kind), options);
}

Result<ProvenanceService> ProvenanceService::Create(
    Specification spec, std::unique_ptr<SpecLabelingScheme> scheme,
    Options options) {
  if (scheme == nullptr) {
    return Status::InvalidArgument("null labeling scheme");
  }
  auto owned_spec =
      std::make_unique<const Specification>(std::move(spec));
  auto memo_tally = std::make_unique<MemoTally>();
  scheme = ForServing(std::move(scheme), memo_tally.get());
  SKL_RETURN_NOT_OK(scheme->Build(owned_spec->graph()));
  return ProvenanceService(std::move(owned_spec), std::move(scheme),
                           std::move(memo_tally), options);
}

Result<RunId> ProvenanceService::AddRun(const Run& run,
                                        const DataCatalog* catalog) {
  // Capture the head epoch once: a delta landing mid-call must not split
  // the run between two schemes.
  const SpecEpoch* at = &head_epoch_entry();
  SKL_ASSIGN_OR_RETURN(RunRecord record,
                       BuildRecord(run, /*plan=*/nullptr, {}, catalog, at));
  return Publish(std::move(record));
}

Result<RunId> ProvenanceService::AddRunWithPlan(const Run& run,
                                                const ExecutionPlan& plan,
                                                std::vector<VertexId> origin,
                                                const DataCatalog* catalog) {
  const SpecEpoch* at = &head_epoch_entry();
  SKL_ASSIGN_OR_RETURN(
      RunRecord record,
      BuildRecord(run, &plan, std::move(origin), catalog, at));
  return Publish(std::move(record));
}

Result<RunRecord> ProvenanceService::BuildRecord(
    const Run& run, const ExecutionPlan* plan, std::vector<VertexId> origin,
    const DataCatalog* catalog, const SpecEpoch* at) const {
  // All of this runs outside any lock (and concurrently on pool workers for
  // the bulk paths): it only reads the immutable epoch spec and scheme.
  const auto labeling_start = std::chrono::steady_clock::now();
  RecoveredPlan recovered;
  if (plan == nullptr) {
    SKL_ASSIGN_OR_RETURN(recovered, ConstructPlan(*at->spec, run));
    plan = &recovered.plan;
    origin = std::move(recovered.origin);
  }
  if (origin.size() != run.num_vertices()) {
    return Status::InvalidArgument("origin size does not match run");
  }
  SKL_ASSIGN_OR_RETURN(RunLabeling labeling,
                       RunLabeling::FromPlan(*at->spec, at->scheme.get(),
                                             *plan, std::move(origin)));
  SKL_ASSIGN_OR_RETURN(RunRecord record,
                       CaptureRecord(labeling, catalog, at));
  labeling_hist_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - labeling_start)
          .count()));
  return record;
}

Result<RunRecord> ProvenanceService::CaptureRecord(const RunLabeling& labeling,
                                                   const DataCatalog* catalog,
                                                   const SpecEpoch* at) {
  if (catalog != nullptr) {
    SKL_RETURN_NOT_OK(ValidateCatalog(*catalog, labeling.num_vertices()));
  }
  RunRecord record;
  record.store =
      ProvenanceStore::Capture(labeling, catalog, at->scheme->name());
  record.stats.num_vertices = labeling.num_vertices();
  record.stats.num_items = record.store.num_items();
  record.stats.label_bits = labeling.label_bits();
  record.stats.context_bits = labeling.context_bits();
  record.stats.origin_bits = labeling.origin_bits();
  record.stats.num_nonempty_plus = labeling.num_nonempty_plus();
  record.stats.epoch = at->number;
  record.spec = at->spec.get();
  record.scheme = at->scheme.get();
  return record;
}

namespace {

/// The op-log entry of a run about to be published: the exact stats and
/// blob a replica restores bit-identically. Built before the registry takes
/// the record.
LogOp RunLogOp(const RunRecord& record) {
  LogOp op;
  op.kind = record.stats.imported ? LogOp::Kind::kImportRun
                                  : LogOp::Kind::kAddRun;
  op.stats = record.stats;
  op.blob = record.store.Serialize();
  return op;
}

}  // namespace

Result<RunId> ProvenanceService::Publish(RunRecord record) {
  LogOp op;
  if (oplog_ != nullptr) op = RunLogOp(record);
  RunId id(registry_->Publish(std::move(record)));
  counters_->runs_ingested.fetch_add(1, std::memory_order_relaxed);
  op.run_id = id.value();
  SKL_RETURN_NOT_OK(LogAfterPublish(std::move(op), "registered"));
  return id;
}

Status ProvenanceService::LogAfterPublish(LogOp op, std::string_view done) {
  if (oplog_ == nullptr) return Status::OK();
  const uint64_t run_id = op.run_id;
  Result<uint64_t> appended = oplog_->Append(std::move(op));
  if (appended.ok()) return Status::OK();
  // Acking success would break the append-before-ack contract, so surface
  // the divergence instead.
  return Status::Internal(
      "run " + std::to_string(run_id) + " was " + std::string(done) +
      " but its op-log append failed (" + appended.status().message() +
      "); the service is ahead of its replication log");
}

ThreadPool& ProvenanceService::Pool() {
  std::unique_lock lock(*pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        ThreadPool::Resolve(options_.num_threads));
  }
  return *pool_;
}

std::vector<Result<RunId>> ProvenanceService::BulkIngest(
    size_t count, const std::function<Result<RunRecord>(size_t)>& build) {
  if (count == 0) return {};  // keep empty batches from starting the pool
  counters_->bulk_batches.fetch_add(1, std::memory_order_relaxed);

  // Phase 1: label every run concurrently, no lock held. Each worker owns
  // slot i exclusively; the future handshake publishes it to this thread.
  // Unwind discipline: tasks queued on the long-lived member pool reference
  // this frame's records/abort/build, so this function must not unwind (or
  // rethrow from futures) until every task has finished — hence the Submit
  // guard below, wait() instead of get(), and slot normalization on this
  // thread where an allocation failure can no longer dangle anything.
  std::vector<std::optional<Result<RunRecord>>> records(count);
  std::atomic<bool> abort{false};
  const bool fail_fast = options_.fail_fast;
  ThreadPool& pool = Pool();
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  try {
    for (size_t i = 0; i < count; ++i) {
      futures.push_back(pool.Submit([&, i] {
        if (abort.load(std::memory_order_relaxed)) {
          records[i] = Status::Cancelled("batch aborted by earlier failure");
          return;
        }
        try {
          records[i] = build(i);
        } catch (const std::exception& e) {
          try {
            records[i] = Status::Internal(
                std::string("bulk ingestion task threw: ") + e.what());
          } catch (...) {
            // Message allocation failed too; the empty slot is normalized
            // to an Internal status after the batch drains.
          }
        } catch (...) {
        }
        if (fail_fast && (!records[i] || !(*records[i]).ok())) {
          abort.store(true, std::memory_order_relaxed);
        }
      }));
    }
  } catch (...) {
    // Submit itself failed (allocation): tell queued tasks to bail and
    // drain them before unwinding.
    abort.store(true, std::memory_order_relaxed);
    for (std::future<void>& f : futures) f.wait();
    throw;
  }
  // wait(), not get(): a stored exception (e.g. bad_alloc escaping the
  // Cancelled-status construction) must not rethrow while siblings run.
  for (std::future<void>& f : futures) f.wait();
  for (std::optional<Result<RunRecord>>& slot : records) {
    if (!slot) slot = Status::Internal("bulk ingestion task threw");
  }

  std::vector<Result<RunId>> results;
  results.reserve(count);
  if (fail_fast) {
    // All-or-nothing: any failure voids the whole batch, including runs
    // that were already labeled successfully.
    bool any_failed = false;
    for (const auto& r : records) any_failed |= !r->ok();
    if (any_failed) {
      for (const auto& r : records) {
        results.emplace_back(r->ok() ? Status::Cancelled(
                                           "batch aborted by earlier failure")
                                     : r->status());
      }
      return results;
    }
  }
  // Phase 2: publish the successes through the registry's batch path — a
  // contiguous ascending id block mirrors the caller's batch order, and
  // each shard's writer lock is taken once, so queries on other shards are
  // never blocked at all.
  std::vector<RunRecord> to_publish;
  std::vector<size_t> publish_index(count, count);  // count = "failed"
  for (size_t i = 0; i < count; ++i) {
    Result<RunRecord>& r = *records[i];
    if (!r.ok()) continue;
    publish_index[i] = to_publish.size();
    to_publish.push_back(std::move(r).value());
  }
  // Serialize the op-log payloads before PublishBatch consumes the records
  // (same before-the-move discipline as the single-run Publish path).
  std::vector<LogOp> ops;
  if (oplog_ != nullptr) {
    ops.reserve(to_publish.size());
    for (const RunRecord& r : to_publish) ops.push_back(RunLogOp(r));
  }
  const std::vector<uint64_t> ids =
      registry_->PublishBatch(std::move(to_publish));
  counters_->runs_ingested.fetch_add(ids.size(), std::memory_order_relaxed);
  // Append in ascending id order — the block is contiguous, so log order
  // matches id order and a replica replays the batch exactly as published.
  std::vector<Status> append_status(ids.size());
  for (size_t j = 0; j < ops.size(); ++j) {
    ops[j].run_id = ids[j];
    append_status[j] = LogAfterPublish(std::move(ops[j]), "registered");
  }
  for (size_t i = 0; i < count; ++i) {
    if (publish_index[i] == count) {
      results.emplace_back((*records[i]).status());
    } else if (!append_status[publish_index[i]].ok()) {
      results.emplace_back(append_status[publish_index[i]]);
    } else {
      results.emplace_back(RunId(ids[publish_index[i]]));
    }
  }
  return results;
}

std::vector<Result<RunId>> ProvenanceService::AddRunsParallel(
    std::span<const Run> runs, std::span<const DataCatalog* const> catalogs) {
  if (!catalogs.empty() && catalogs.size() != runs.size()) {
    std::vector<Result<RunId>> results;
    results.reserve(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      results.emplace_back(
          Status::InvalidArgument("catalogs size does not match runs"));
    }
    return results;
  }
  const SpecEpoch* at = &head_epoch_entry();
  return BulkIngest(runs.size(), [&, at](size_t i) {
    return BuildRecord(runs[i], /*plan=*/nullptr, {},
                       catalogs.empty() ? nullptr : catalogs[i], at);
  });
}

std::vector<Result<RunId>> ProvenanceService::AddRunsWithPlansParallel(
    std::span<const PlannedRun> runs) {
  const SpecEpoch* at = &head_epoch_entry();
  return BulkIngest(runs.size(), [&, at](size_t i) -> Result<RunRecord> {
    const PlannedRun& pr = runs[i];
    if (pr.run == nullptr || pr.plan == nullptr) {
      return Status::InvalidArgument("PlannedRun with null run or plan");
    }
    return BuildRecord(*pr.run, pr.plan,
                       std::vector<VertexId>(pr.origin.begin(),
                                             pr.origin.end()),
                       pr.catalog, at);
  });
}

RunSession ProvenanceService::OpenSession() {
  return RunSession(this, &head_epoch_entry());
}

Status ProvenanceService::RemoveRun(RunId id) {
  if (!registry_->Remove(id.value())) {
    return Status::NotFound("unknown run id");
  }
  counters_->runs_removed.fetch_add(1, std::memory_order_relaxed);
  LogOp op;
  op.kind = LogOp::Kind::kRemoveRun;
  op.run_id = id.value();
  return LogAfterPublish(std::move(op), "removed");
}

Result<RunId> ProvenanceService::Register(const RunLabeling& labeling,
                                          const DataCatalog* catalog,
                                          const SpecEpoch* at) {
  SKL_ASSIGN_OR_RETURN(RunRecord record, CaptureRecord(labeling, catalog, at));
  return Publish(std::move(record));
}

namespace {

/// The cross-epoch query contract (docs/UPDATES.md): `at_epoch` 0 accepts
/// the run's own epoch; any other value must match it exactly.
Status CheckEpochPin(const RunRecord& record, uint64_t at_epoch) {
  if (at_epoch != 0 && at_epoch != record.stats.epoch) {
    return Status::EpochMismatch(
        "run is frozen to spec epoch " +
        std::to_string(record.stats.epoch) +
        " but the query is pinned to epoch " + std::to_string(at_epoch) +
        "; answers are only defined against the run's own epoch");
  }
  return Status::OK();
}

}  // namespace

Result<bool> ProvenanceService::Reaches(RunId id, VertexId v, VertexId w,
                                        uint64_t at_epoch) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  const RunRecord& record = handle.record();
  SKL_RETURN_NOT_OK(CheckEpochPin(record, at_epoch));
  if (v >= record.stats.num_vertices || w >= record.stats.num_vertices) {
    return Status::InvalidArgument("vertex out of range for run");
  }
  const SpecLabelingScheme& sch = *record.scheme;
  handle.Count(Tally::kReaches);
  return StoreReaches(record.store, v, w, sch);
}

Result<std::vector<bool>> ProvenanceService::ReachesBatch(
    RunId id, std::span<const VertexPair> pairs, uint64_t at_epoch) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  SKL_RETURN_NOT_OK(CheckEpochPin(handle.record(), at_epoch));
  const VertexId n = handle.record().stats.num_vertices;
  // Validate the whole span first: a failing batch answers nothing and
  // must touch no counter.
  for (const auto& [v, w] : pairs) {
    if (v >= n || w >= n) {
      return Status::InvalidArgument("vertex out of range for run");
    }
  }
  const SpecLabelingScheme& sch = *handle.record().scheme;
  std::vector<bool> answers;
  answers.reserve(pairs.size());
  for (const auto& [v, w] : pairs) {
    answers.push_back(StoreReaches(handle.record().store, v, w, sch));
  }
  handle.Count(Tally::kBatchCalls);
  handle.Count(Tally::kReaches, pairs.size());
  return answers;
}

Result<bool> ProvenanceService::DependsOn(RunId id, DataItemId x,
                                          DataItemId x_from,
                                          uint64_t at_epoch) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  SKL_RETURN_NOT_OK(CheckEpochPin(handle.record(), at_epoch));
  const size_t items = handle.record().store.num_items();
  if (x >= items || x_from >= items) {
    return Status::InvalidArgument("unknown data item");
  }
  const SpecLabelingScheme& sch = *handle.record().scheme;
  handle.Count(Tally::kDependsOn);
  return StoreDependsOn(handle.record().store, x, x_from, sch);
}

Result<std::vector<bool>> ProvenanceService::DependsOnBatch(
    RunId id, std::span<const ItemPair> pairs, uint64_t at_epoch) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  SKL_RETURN_NOT_OK(CheckEpochPin(handle.record(), at_epoch));
  const size_t items = handle.record().store.num_items();
  // Same discipline as ReachesBatch: all-or-nothing validation before any
  // counter traffic.
  for (const auto& [x, x_from] : pairs) {
    if (x >= items || x_from >= items) {
      return Status::InvalidArgument("unknown data item");
    }
  }
  const SpecLabelingScheme& sch = *handle.record().scheme;
  std::vector<bool> answers;
  answers.reserve(pairs.size());
  for (const auto& [x, x_from] : pairs) {
    answers.push_back(StoreDependsOn(handle.record().store, x, x_from, sch));
  }
  handle.Count(Tally::kBatchCalls);
  handle.Count(Tally::kDependsOn, pairs.size());
  return answers;
}

Result<bool> ProvenanceService::ModuleDependsOnData(RunId id, VertexId v,
                                                    DataItemId x,
                                                    uint64_t at_epoch) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  const RunRecord& record = handle.record();
  SKL_RETURN_NOT_OK(CheckEpochPin(record, at_epoch));
  if (x >= record.store.num_items()) {
    return Status::InvalidArgument("unknown data item");
  }
  if (v >= record.store.num_vertices()) {
    return Status::InvalidArgument("unknown vertex");
  }
  const SpecLabelingScheme& sch = *record.scheme;
  handle.Count(Tally::kModuleData);
  return StoreModuleDependsOnData(record.store, v, x, sch);
}

Result<bool> ProvenanceService::DataDependsOnModule(RunId id, DataItemId x,
                                                    VertexId v,
                                                    uint64_t at_epoch) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  const RunRecord& record = handle.record();
  SKL_RETURN_NOT_OK(CheckEpochPin(record, at_epoch));
  if (x >= record.store.num_items()) {
    return Status::InvalidArgument("unknown data item");
  }
  if (v >= record.store.num_vertices()) {
    return Status::InvalidArgument("unknown vertex");
  }
  const SpecLabelingScheme& sch = *record.scheme;
  handle.Count(Tally::kDataModule);
  return StoreDataDependsOnModule(record.store, x, v, sch);
}

Result<std::vector<uint8_t>> ProvenanceService::ExportRun(RunId id) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  return handle.record().store.Serialize();
}

Result<RunId> ProvenanceService::ImportRun(
    const std::vector<uint8_t>& blob) {
  SKL_ASSIGN_OR_RETURN(ProvenanceStore store,
                       ProvenanceStore::Deserialize(blob));
  // Imports land in the head epoch: the blob's labels must be valid
  // against the spec/scheme that is current right now.
  const SpecEpoch& at = head_epoch_entry();
  SKL_RETURN_NOT_OK(AdmitStore(store, at, "blob"));
  RunRecord record;
  record.stats.num_vertices = store.num_vertices();
  record.stats.num_items = store.num_items();
  record.stats.imported = true;
  record.stats.epoch = at.number;
  record.spec = at.spec.get();
  record.scheme = at.scheme.get();
  record.store = std::move(store);
  counters_->runs_imported.fetch_add(1, std::memory_order_relaxed);
  return Publish(std::move(record));
}

bool ProvenanceService::Contains(RunId id) const {
  return registry_->Contains(id.value());
}

size_t ProvenanceService::num_runs() const { return registry_->size(); }

Result<RunStats> ProvenanceService::Stats(RunId id) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  return handle.record().stats;
}

ServiceStats ProvenanceService::service_stats() const {
  ServiceStats stats;
  stats.num_runs = registry_->size();
  const auto get = [](const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  stats.reaches_queries = registry_->TotalTally(Tally::kReaches);
  stats.depends_on_queries = registry_->TotalTally(Tally::kDependsOn);
  stats.module_data_queries = registry_->TotalTally(Tally::kModuleData);
  stats.data_module_queries = registry_->TotalTally(Tally::kDataModule);
  stats.batch_calls = registry_->TotalTally(Tally::kBatchCalls);
  stats.cache_hits = memo_tally_->hits();
  stats.cache_misses = memo_tally_->misses();
  stats.runs_ingested = get(counters_->runs_ingested);
  stats.runs_imported = get(counters_->runs_imported);
  stats.runs_removed = get(counters_->runs_removed);
  stats.bulk_batches = get(counters_->bulk_batches);
  stats.snapshot_saves = get(counters_->snapshot_saves);
  // Locally both fields report the attached log's head; the net server
  // substitutes a replica's applied/target pair before encoding.
  stats.replication_lsn = replication_lsn();
  stats.replication_target_lsn = stats.replication_lsn;
  stats.spec_epoch = spec_epoch();
  return stats;
}

void ProvenanceService::AttachOpLog(OpLog* oplog) { oplog_ = oplog; }

uint64_t ProvenanceService::replication_lsn() const {
  return oplog_ != nullptr ? oplog_->last_lsn() : 0;
}

Status ProvenanceService::RestoreRun(uint64_t id, const RunStats& stats,
                                     std::span<const uint8_t> blob) {
  if (id == 0) {
    return Status::InvalidArgument("run id 0 is not a valid id");
  }
  if (registry_->Contains(id)) {
    // Already applied — the snapshot/stream overlap of a replica bootstrap,
    // or a retried batch. Idempotence makes both safe.
    return Status::OK();
  }
  SKL_ASSIGN_OR_RETURN(ProvenanceStore store,
                       ProvenanceStore::Deserialize(blob));
  // Replicated/restored stats carry the epoch the run was ingested under on
  // the source service.
  const SpecEpoch* at = FindEpoch(stats.epoch);
  if (at == nullptr) {
    return Status::InvalidArgument(
        "replicated run " + std::to_string(id) + " was ingested under spec "
        "epoch " + std::to_string(stats.epoch) +
        ", but this service's epoch chain only reaches epoch " +
        std::to_string(spec_epoch()) +
        " — apply the missing spec deltas first");
  }
  SKL_RETURN_NOT_OK(
      AdmitStore(store, *at, "replicated run " + std::to_string(id)));
  if (store.num_vertices() != stats.num_vertices ||
      store.num_items() != stats.num_items) {
    return Status::InvalidArgument(
        "replicated run " + std::to_string(id) +
        ": stats disagree with the stored labels/catalog");
  }
  RunRecord record;
  record.stats = stats;
  record.spec = at->spec.get();
  record.scheme = at->scheme.get();
  record.store = std::move(store);
  // Nothing goes in when another apply raced this id in; idempotence again.
  registry_->Restore({&id, 1}, {&record, 1});
  registry_->EnsureNextIdAtLeast(id + 1);
  return Status::OK();
}

Status ProvenanceService::AdmitStore(const ProvenanceStore& store,
                                     const SpecEpoch& at,
                                     const std::string& who) {
  const std::string_view scheme = at.scheme->name();
  if (!store.scheme_tag().empty() && store.scheme_tag() != scheme) {
    return Status::InvalidArgument(
        who + " was labeled under scheme '" + store.scheme_tag() +
        "', but this service answers under scheme '" + std::string(scheme) +
        "'");
  }
  const VertexId n_g = at.spec->graph().num_vertices();
  // A max reduction vectorizes; an early-exit scan swung 2x with layout.
  uint32_t max_origin = 0;
  for (uint32_t origin : store.origin_column()) {
    max_origin = std::max(max_origin, origin);
  }
  if (max_origin < n_g) return Status::OK();
  for (uint32_t origin : store.origin_column()) {
    if (origin >= n_g) {
      return Status::InvalidArgument(
          who + " references spec vertex " + std::to_string(origin) +
          " unknown to the specification of epoch " +
          std::to_string(at.number));
    }
  }
  return Status::OK();
}

std::vector<RunId> ProvenanceService::ListRuns() const {
  const std::vector<uint64_t> raw = registry_->ListIds();
  std::vector<RunId> ids;
  ids.reserve(raw.size());
  for (uint64_t id : raw) ids.push_back(RunId(id));
  return ids;
}

Result<RunId> RunSession::Seal(const DataCatalog* catalog) && {
  SKL_ASSIGN_OR_RETURN(RunLabeling labeling, std::move(labeler_).Finish());
  return service_->Register(labeling, catalog, epoch_);
}

const ProvenanceService::SpecEpoch* ProvenanceService::FindEpoch(
    uint64_t number) const {
  std::lock_guard<std::mutex> lock(*epoch_mu_);
  if (number == 0 || number > epochs_->size()) return nullptr;
  return &(*epochs_)[number - 1];
}

Result<uint64_t> ProvenanceService::ApplySpecDelta(const SpecDelta& delta) {
  std::lock_guard<std::mutex> lock(*epoch_mu_);
  return ApplyDeltaLocked(delta, /*check_dependents=*/true,
                          /*append_log=*/true);
}

Status ProvenanceService::ApplySpecDeltaReplicated(const SpecDelta& delta,
                                                   uint64_t target_epoch) {
  std::lock_guard<std::mutex> lock(*epoch_mu_);
  const uint64_t head = epochs_->back().number;
  if (target_epoch <= head) {
    // Already applied — the snapshot/stream overlap of a replica
    // bootstrap, or a retried batch. Idempotence makes both safe.
    return Status::OK();
  }
  if (target_epoch != head + 1) {
    return Status::InvalidArgument(
        "gap in the delta chain: replica is at spec epoch " +
        std::to_string(head) + " but the op targets epoch " +
        std::to_string(target_epoch));
  }
  // No dependent check and no op-log append: the primary already ran the
  // check, and a replica never writes its own log from applied ops.
  Result<uint64_t> applied = ApplyDeltaLocked(delta, /*check_dependents=*/false,
                                              /*append_log=*/false);
  if (!applied.ok()) return applied.status();
  return Status::OK();
}

Result<uint64_t> ProvenanceService::ApplyDeltaLocked(const SpecDelta& delta,
                                                     bool check_dependents,
                                                     bool append_log) {
  const SpecEpoch& head = epochs_->back();
  if (!bundled_scheme_) {
    return Status::InvalidArgument(
        "spec deltas require a bundled labeling scheme (the service was "
        "created with a custom SpecLabelingScheme it cannot re-instantiate "
        "for the new epoch)");
  }
  if (check_dependents && delta.kind == SpecDelta::Kind::kRemoveModule) {
    // RemoveModule must not orphan live runs: a head-epoch run whose
    // labels reference the victim vertex would keep answering (it is
    // frozen to its epoch), but the operator almost certainly meant to
    // retire those runs first. The scan is best-effort under concurrent
    // ingestion — a run ingested after the scan freezes to the *old*
    // epoch and stays correct, so correctness never depends on the check.
    const VertexId victim = head.spec->VertexOf(delta.module);
    if (victim != kInvalidVertex) {
      size_t dependents = 0;
      registry_->ForEach([&](uint64_t, const RunRecord& record) {
        if (record.stats.epoch != head.number) return;
        const ProvenanceStore& store = record.store;
        for (VertexId v = 0; v < store.num_vertices(); ++v) {
          if (store.label(v).origin == victim) {
            ++dependents;
            return;
          }
        }
      });
      if (dependents > 0) {
        return Status::InvalidArgument(
            "RemoveModule '" + delta.module + "' rejected: " +
            std::to_string(dependents) + " live run(s) of the current "
            "epoch execute that module; remove those runs first");
      }
    }
  }
  SKL_ASSIGN_OR_RETURN(SpecDeltaApplication applied,
                       ApplySpecDeltaToSpec(*head.spec, delta));
  std::unique_ptr<SpecLabelingScheme> scheme =
      ForServing(CreateSpecScheme(scheme_kind_), memo_tally_.get());
  {
    Stopwatch relabel_timer;
    Status built =
        options_.full_rebuild_on_delta
            ? scheme->Build(applied.spec.graph())
            : scheme->BuildIncremental(applied.spec.graph(), *head.scheme,
                                       applied.vertex_remap, applied.dirty);
    if (relabel_hist_ != nullptr) {
      relabel_hist_->Record(
          static_cast<uint64_t>(relabel_timer.ElapsedMicros()));
    }
    SKL_RETURN_NOT_OK(built);
  }
  SpecEpoch next;
  next.number = head.number + 1;
  next.spec = std::make_unique<Specification>(std::move(applied.spec));
  next.scheme = std::move(scheme);
  next.delta = delta;
  // Log-before-install: a delta needs no allocated id, so an append
  // failure simply rejects the delta with the service unchanged — the
  // opposite order would let a replica miss an epoch the primary serves.
  if (append_log && oplog_ != nullptr) {
    LogOp op;
    op.kind = LogOp::Kind::kSpecDelta;
    op.run_id = 0;
    op.stats.epoch = next.number;
    op.blob = SerializeSpecDelta(delta);
    Result<uint64_t> appended = oplog_->Append(std::move(op));
    if (!appended.ok()) return appended.status();
  }
  epochs_->push_back(std::move(next));
  head_->store(&epochs_->back(), std::memory_order_release);
  return epochs_->back().number;
}

}  // namespace skl
