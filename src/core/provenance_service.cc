#include "src/core/provenance_service.h"

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

/// The one memoize shape behind every boolean query: probe the shard's
/// cache under the read lock the caller already holds, recompute via
/// `compute` on a miss, publish the answer stamped with the generation the
/// caller saw. Stale stamps (a Remove/Import/swap bumped the shard since)
/// can never hit, so a cached answer is always exactly what the recompute
/// would produce — the property tests/query_cache_test.cc proves
/// differentially. Preconditions (record found, ids in range) are the
/// caller's; `compute` must not fail.
template <typename Compute>
bool Memoized(const RunRegistry::ReadHandle& handle, uint64_t run,
              uint32_t src, uint32_t dst, QueryKind kind,
              const Compute& compute) {
  QueryCache* cache = handle.cache();
  if (cache == nullptr) return compute();
  bool answer = false;
  if (cache->Lookup(handle.generation(), run, src, dst, kind, &answer)) {
    handle.Count(Tally::kCacheHits);
    return answer;
  }
  handle.Count(Tally::kCacheMisses);
  answer = compute();
  cache->Insert(handle.generation(), run, src, dst, kind, answer);
  return answer;
}

}  // namespace

ProvenanceService::ProvenanceService(
    std::unique_ptr<const Specification> spec,
    std::unique_ptr<SpecLabelingScheme> scheme, Options options)
    : epochs_(std::make_unique<std::deque<SpecEpoch>>()),
      head_(std::make_unique<std::atomic<const SpecEpoch*>>(nullptr)),
      epoch_mu_(std::make_unique<std::mutex>()),
      options_(options),
      counters_(std::make_unique<Counters>()),
      // Cache placement: only search schemes (BFS/DFS), whose compare is a
      // graph search, get shard caches. Every epoch rebuilds the same kind,
      // so this holds for the service's lifetime.
      registry_(std::make_unique<RunRegistry>(RunRegistry::Options{
          .num_shards = options.num_shards,
          .cache_slots = scheme->SearchesGraph() ? options.cache_slots : 0})),
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
  // Per-shard cache tallies (the blocks ServiceStats sums), only when the
  // shards keep caches: no always-zero series. The captured registry
  // address is stable behind its unique_ptr.
  const RunRegistry* reg = registry_.get();
  if (reg->cache_slots_per_shard() == 0) return;
  const auto add_family = [&](Tally t, const char* name, const char* help) {
    for (size_t s = 0; s < reg->num_shards(); ++s) {
      metrics_->AddCallbackGauge(
          name, help, "shard=\"" + std::to_string(s) + "\"",
          [reg, s, t] { return reg->ShardTally(s, t); });
    }
  };
  add_family(Tally::kCacheHits, "skl_cache_shard_hits",
             "Query-cache hits served by this shard");
  add_family(Tally::kCacheMisses, "skl_cache_shard_misses",
             "Query-cache misses taken by this shard");
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
  SKL_RETURN_NOT_OK(scheme->Build(owned_spec->graph()));
  return ProvenanceService(std::move(owned_spec), std::move(scheme),
                           options);
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
  if (catalog != nullptr) {
    SKL_RETURN_NOT_OK(ValidateCatalog(*catalog, labeling.num_vertices()));
  }
  RunRecord record = CaptureRecord(labeling, catalog, /*imported=*/false, at);
  labeling_hist_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - labeling_start)
          .count()));
  return record;
}

RunRecord ProvenanceService::CaptureRecord(const RunLabeling& labeling,
                                           const DataCatalog* catalog,
                                           bool imported,
                                           const SpecEpoch* at) const {
  RunRecord record;
  record.store =
      ProvenanceStore::Capture(labeling, catalog, at->scheme->name());
  record.stats.num_vertices = labeling.num_vertices();
  record.stats.num_items = record.store.num_items();
  record.stats.label_bits = labeling.label_bits();
  record.stats.context_bits = labeling.context_bits();
  record.stats.origin_bits = labeling.origin_bits();
  record.stats.num_nonempty_plus = labeling.num_nonempty_plus();
  record.stats.imported = imported;
  record.stats.epoch = at->number;
  record.spec = at->spec.get();
  record.scheme = at->scheme.get();
  return record;
}

Result<RunId> ProvenanceService::Publish(RunRecord record, bool invalidate) {
  LogOp op;
  if (oplog_ != nullptr) {
    // Serialize before the registry takes ownership of the record; the op
    // carries the exact stats and blob a replica restores bit-identically.
    op.kind = record.stats.imported ? LogOp::Kind::kImportRun
                                    : LogOp::Kind::kAddRun;
    op.stats = record.stats;
    op.blob = record.store.Serialize();
  }
  RunId id(registry_->Publish(std::move(record), invalidate));
  counters_->runs_ingested.fetch_add(1, std::memory_order_relaxed);
  if (oplog_ != nullptr) {
    op.run_id = id.value();
    Result<uint64_t> appended = oplog_->Append(std::move(op));
    if (!appended.ok()) {
      // Published locally but not logged: acking success would break the
      // append-before-ack contract, so surface the divergence instead.
      return Status::Internal(
          "run " + std::to_string(id.value()) +
          " was registered but its op-log append failed (" +
          appended.status().message() +
          "); the service is ahead of its replication log");
    }
  }
  return id;
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
  struct PendingOp {
    RunStats stats;
    std::vector<uint8_t> blob;
  };
  std::vector<PendingOp> pending;
  if (oplog_ != nullptr) {
    pending.reserve(to_publish.size());
    for (const RunRecord& r : to_publish) {
      pending.push_back({r.stats, r.store.Serialize()});
    }
  }
  const std::vector<uint64_t> ids =
      registry_->PublishBatch(std::move(to_publish));
  counters_->runs_ingested.fetch_add(ids.size(), std::memory_order_relaxed);
  // Append in ascending id order — the block is contiguous, so log order
  // matches id order and a replica replays the batch exactly as published.
  std::vector<Status> append_status(ids.size());
  if (oplog_ != nullptr) {
    for (size_t j = 0; j < ids.size(); ++j) {
      LogOp op;
      op.kind = pending[j].stats.imported ? LogOp::Kind::kImportRun
                                          : LogOp::Kind::kAddRun;
      op.run_id = ids[j];
      op.stats = pending[j].stats;
      op.blob = std::move(pending[j].blob);
      Result<uint64_t> appended = oplog_->Append(std::move(op));
      if (!appended.ok()) {
        append_status[j] = Status::Internal(
            "run " + std::to_string(ids[j]) +
            " was registered but its op-log append failed (" +
            appended.status().message() +
            "); the service is ahead of its replication log");
      }
    }
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
  if (oplog_ != nullptr) {
    LogOp op;
    op.kind = LogOp::Kind::kRemoveRun;
    op.run_id = id.value();
    Result<uint64_t> appended = oplog_->Append(std::move(op));
    if (!appended.ok()) {
      return Status::Internal(
          "run " + std::to_string(id.value()) +
          " was removed but its op-log append failed (" +
          appended.status().message() +
          "); the service is ahead of its replication log");
    }
  }
  return Status::OK();
}

Result<RunId> ProvenanceService::Register(const RunLabeling& labeling,
                                          const DataCatalog* catalog,
                                          bool imported,
                                          const SpecEpoch* at) {
  if (catalog != nullptr) {
    SKL_RETURN_NOT_OK(ValidateCatalog(*catalog, labeling.num_vertices()));
  }
  return Publish(CaptureRecord(labeling, catalog, imported, at));
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

/// The scheme a record's labels answer under: its ingest epoch's scheme.
/// `fallback` (the head scheme) covers records built without a service —
/// registry unit tests; the service always sets the pointer.
const SpecLabelingScheme& SchemeFor(const RunRecord& record,
                                    const SpecLabelingScheme& fallback) {
  return record.scheme != nullptr ? *record.scheme : fallback;
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
  const SpecLabelingScheme& sch = SchemeFor(record, scheme());
  handle.Count(Tally::kReaches);
  return Memoized(handle, id.value(), v, w, QueryKind::kReaches, [&] {
    return StoreReaches(record.store, v, w, sch);
  });
}

Result<std::vector<bool>> ProvenanceService::ReachesBatch(
    RunId id, std::span<const VertexPair> pairs, uint64_t at_epoch) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  SKL_RETURN_NOT_OK(CheckEpochPin(handle.record(), at_epoch));
  const VertexId n = handle.record().stats.num_vertices;
  // Validate the whole span first: a failing batch answers nothing and
  // must touch no counter — including the cache lookup counters, which by
  // contract only tally answered queries.
  for (const auto& [v, w] : pairs) {
    if (v >= n || w >= n) {
      return Status::InvalidArgument("vertex out of range for run");
    }
  }
  const SpecLabelingScheme& sch = SchemeFor(handle.record(), scheme());
  std::vector<bool> answers;
  answers.reserve(pairs.size());
  for (const auto& [v, w] : pairs) {
    answers.push_back(Memoized(
        handle, id.value(), v, w, QueryKind::kReaches,
        [&] { return StoreReaches(handle.record().store, v, w, sch); }));
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
  const SpecLabelingScheme& sch = SchemeFor(handle.record(), scheme());
  handle.Count(Tally::kDependsOn);
  return Memoized(handle, id.value(), x, x_from, QueryKind::kDependsOn, [&] {
    return StoreDependsOn(handle.record().store, x, x_from, sch);
  });
}

Result<std::vector<bool>> ProvenanceService::DependsOnBatch(
    RunId id, std::span<const ItemPair> pairs, uint64_t at_epoch) const {
  RunRegistry::ReadHandle handle = registry_->AcquireRead(id.value());
  if (!handle) return Status::NotFound("unknown run id");
  SKL_RETURN_NOT_OK(CheckEpochPin(handle.record(), at_epoch));
  const size_t items = handle.record().store.num_items();
  // Same discipline as ReachesBatch: all-or-nothing validation before any
  // counter or cache traffic.
  for (const auto& [x, x_from] : pairs) {
    if (x >= items || x_from >= items) {
      return Status::InvalidArgument("unknown data item");
    }
  }
  const SpecLabelingScheme& sch = SchemeFor(handle.record(), scheme());
  std::vector<bool> answers;
  answers.reserve(pairs.size());
  for (const auto& [x, x_from] : pairs) {
    answers.push_back(
        Memoized(handle, id.value(), x, x_from, QueryKind::kDependsOn, [&] {
          return StoreDependsOn(handle.record().store, x, x_from, sch);
        }));
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
  const SpecLabelingScheme& sch = SchemeFor(record, scheme());
  handle.Count(Tally::kModuleData);
  return Memoized(handle, id.value(), v, x, QueryKind::kModuleData, [&] {
    return StoreModuleDependsOnData(record.store, v, x, sch);
  });
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
  const SpecLabelingScheme& sch = SchemeFor(record, scheme());
  handle.Count(Tally::kDataModule);
  return Memoized(handle, id.value(), x, v, QueryKind::kDataModule, [&] {
    return StoreDataDependsOnModule(record.store, x, v, sch);
  });
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
  // Tagged blobs must name this service's scheme — labels only answer
  // correctly under the scheme that produced them. Untagged (v1) blobs
  // predate the tag and are accepted as before.
  if (!store.scheme_tag().empty() &&
      store.scheme_tag() != at.scheme->name()) {
    return Status::InvalidArgument(
        "blob was labeled under scheme '" + store.scheme_tag() +
        "', but this service answers under scheme '" +
        std::string(at.scheme->name()) + "'");
  }
  // The blob must stem from a run of this service's specification: every
  // origin must name a spec vertex, or queries would index the scheme out
  // of range.
  const VertexId n_g = at.spec->graph().num_vertices();
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    if (store.label(v).origin >= n_g) {
      return Status::InvalidArgument(
          "blob references spec vertex " +
          std::to_string(store.label(v).origin) +
          " unknown to this service's specification");
    }
  }
  RunRecord record;
  record.stats.num_vertices = store.num_vertices();
  record.stats.num_items = store.num_items();
  record.stats.imported = true;
  record.stats.epoch = at.number;
  record.spec = at.spec.get();
  record.scheme = at.scheme.get();
  record.store = std::move(store);
  counters_->runs_imported.fetch_add(1, std::memory_order_relaxed);
  // Invalidate the target shard's cache: an import changes what the shard
  // can answer, and generation-stamping makes that O(1).
  return Publish(std::move(record), /*invalidate=*/true);
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
  stats.cache_hits = registry_->TotalTally(Tally::kCacheHits);
  stats.cache_misses = registry_->TotalTally(Tally::kCacheMisses);
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
  // Resolve the run's epoch: replicated/restored stats carry the epoch the
  // run was ingested under on the source service. Epoch 0 is the pre-epoch
  // wire/snapshot encoding and normalizes to 1 (the creation spec).
  RunStats normalized = stats;
  if (normalized.epoch == 0) normalized.epoch = 1;
  const SpecEpoch* at = FindEpoch(normalized.epoch);
  if (at == nullptr) {
    return Status::InvalidArgument(
        "replicated run " + std::to_string(id) + " was ingested under spec "
        "epoch " + std::to_string(normalized.epoch) +
        ", but this service's epoch chain only reaches epoch " +
        std::to_string(spec_epoch()) +
        " — apply the missing spec deltas first");
  }
  if (!store.scheme_tag().empty() &&
      store.scheme_tag() != at->scheme->name()) {
    return Status::InvalidArgument(
        "replicated run " + std::to_string(id) +
        " was labeled under scheme '" + store.scheme_tag() +
        "', but this service answers under scheme '" +
        std::string(at->scheme->name()) + "'");
  }
  if (store.num_vertices() != stats.num_vertices ||
      store.num_items() != stats.num_items) {
    return Status::InvalidArgument(
        "replicated run " + std::to_string(id) +
        ": stats disagree with the stored labels/catalog");
  }
  // Same guard as ImportRun: every origin must name a spec vertex of the
  // run's epoch, or queries would index the scheme out of range.
  const VertexId n_g = at->spec->graph().num_vertices();
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    if (store.label(v).origin >= n_g) {
      return Status::InvalidArgument(
          "replicated run " + std::to_string(id) +
          " references spec vertex " + std::to_string(store.label(v).origin) +
          " unknown to this service's specification");
    }
  }
  RunRecord record;
  record.stats = normalized;
  record.spec = at->spec.get();
  record.scheme = at->scheme.get();
  record.store = std::move(store);
  // A false return means another apply raced this id in; idempotence again.
  (void)registry_->Restore(id, std::move(record));
  registry_->EnsureNextIdAtLeast(id + 1);
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
  return service_->Register(labeling, catalog, /*imported=*/false, epoch_);
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
  if (target_epoch != 0 && target_epoch <= head) {
    // Already applied — the snapshot/stream overlap of a replica
    // bootstrap, or a retried batch. Idempotence makes both safe.
    return Status::OK();
  }
  if (target_epoch != 0 && target_epoch != head + 1) {
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
      CreateSpecScheme(scheme_kind_);
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
