// Sharded run registry: the storage layer under ProvenanceService. Runs are
// partitioned over N shards by a mixed hash of their RunId; each shard owns
// its runs' ProvenanceStores and stats behind its own reader/writer lock,
// whose reader counts live, with the query tallies, on per-thread stripes
// (32, handed out round-robin; threads beyond share). A point query writes
// only its own stripe, no line another reader writes, which is what lets
// multi-reader throughput scale with threads (bench/bench_query_cache.cc).
//
//   shard  = shards_[mix(id) & mask]          (mask = num_shards - 1)
//   Shard (64-byte aligned): writer_mu, writing, runs: id -> RunRecord
//   stripe (whole lines):    tallies[Tally::kCount], readers[num_shards]
//
// A reader bumps its stripe's count for the shard, then checks `writing`; a
// writer sets `writing`, then waits for every stripe's count to drain. All
// four steps are seq_cst, so one side always sees the other. An exclusive
// acquisition scans every stripe: batch writers take each shard once.
//
// Records are immutable once published, and the registry memoizes nothing
// about them: the only memo on the query path is the per-epoch spec-pair
// memo of the search schemes (src/speclabel/memo.h), which no run operation
// can make stale.
//
// Cross-registry operations (ListIds, size, ForEach — the substrate of
// ListRuns / ServiceStats / SaveSnapshot) compose per-shard snapshots by
// reading one shard at a time; there is no stop-the-world lock over all
// shards, so they never stall queries on other shards. The composed
// view is per-shard consistent, not a single global instant — the id
// allocator below is what keeps such views sound (every visible id is
// below the allocator value read *after* the sweep).
//
// Ids are allocated from one atomic counter, monotonic and never reused:
// ascending id order doubles as registration order across all shards, and
// a stale id fails lookups with "not found" forever.
#ifndef SKL_CORE_RUN_REGISTRY_H_
#define SKL_CORE_RUN_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "src/common/bit_codec.h"
#include "src/common/status.h"
#include "src/core/provenance_store.h"

namespace skl {

class Specification;
class SpecLabelingScheme;

/// Per-run bookkeeping returned by ProvenanceService::Stats.
struct RunStats {
  VertexId num_vertices = 0;
  size_t num_items = 0;        ///< data items in the catalog (0 if none)
  uint32_t label_bits = 0;     ///< per-label bits; 0 for imported runs
  uint32_t context_bits = 0;   ///< 3 * ceil(log2 n_T^+); 0 for imported runs
  uint32_t origin_bits = 0;    ///< ceil(log2 n_G); 0 for imported runs
  uint32_t num_nonempty_plus = 0;  ///< nonempty + nodes; 0 for imported runs
  bool imported = false;       ///< true when ingested via ImportRun
  /// Spec epoch the run was ingested under (docs/UPDATES.md). Runs are
  /// frozen to their epoch: queries answer against that epoch's scheme
  /// forever, so later spec deltas never change an existing answer.
  uint64_t epoch = 1;

  /// The fields of a kRunStats reply, in wire order; the epoch stays home.
  auto Fields() {
    return std::tie(num_vertices, num_items, label_bits, context_bits,
                    origin_bits, num_nonempty_plus, imported);
  }
};

/// The durable encoding of RunStats, shared by the op-log's run entries and
/// the snapshot's run index: eight varints in field order (num_vertices,
/// num_items, label_bits, context_bits, origin_bits, num_nonempty_plus,
/// imported as 0/1, epoch).
void WriteRunStats(BitWriter& writer, const RunStats& stats);

/// Reads WriteRunStats' varints into `*stats`. ParseError when the bytes
/// run out, the imported flag is not 0 or 1, the epoch is 0 or a field
/// does not fit 32 bits; the message carries no context, callers prefix
/// their own.
Status ReadRunStats(BitReader& reader, RunStats* stats);

/// What a shard stores per run: the immutable bit-packed labels (+ catalog)
/// and the stats snapshot taken at ingestion.
struct RunRecord {
  ProvenanceStore store;
  RunStats stats;
  /// The ingest epoch's specification and labeling scheme, borrowed from
  /// the service's epoch chain (epoch entries are never destroyed, so the
  /// pointers stay valid for the service's lifetime). Null in contexts
  /// without a service (registry unit tests); the service always sets them.
  const Specification* spec = nullptr;
  const SpecLabelingScheme* scheme = nullptr;
};

/// The query events the registry tallies (RunRegistry::TotalTally).
enum class Tally : uint8_t {
  kReaches,      ///< Reaches + ReachesBatch pairs
  kDependsOn,    ///< DependsOn + DependsOnBatch pairs
  kModuleData,   ///< ModuleDependsOnData answers
  kDataModule,   ///< DataDependsOnModule answers
  kBatchCalls,   ///< ReachesBatch + DependsOnBatch calls
  kCount,
};

class RunRegistry {
  /// Drops the reader count a pin took; notifies a writer waiting on it.
  struct Unpin {
    const std::atomic<uint32_t>* writing;  // the pinned shard's flag
    void operator()(std::atomic<uint64_t>* readers) const;
  };
  using ReadPin = std::unique_ptr<std::atomic<uint64_t>, Unpin>;
  class WriteLock;

 public:
  /// Upper clamp on Options::num_shards (also the CLI's --shards bound).
  static constexpr size_t kMaxShards = 1024;

  struct Options {
    /// Shard count; rounded up to a power of two, clamped to
    /// [1, kMaxShards].
    size_t num_shards = 8;
  };

  explicit RunRegistry(const Options& options);

  // Shards hold mutexes and atomics: the registry lives behind a
  // unique_ptr in the (movable) service and never moves itself.
  RunRegistry(const RunRegistry&) = delete;
  RunRegistry& operator=(const RunRegistry&) = delete;

  /// A shard read pin + the record a query needs. Falsy when the id is
  /// unknown (the pin is released immediately in that case). Movable: the
  /// pin is released once, by whichever handle holds it last.
  class ReadHandle {
   public:
    explicit operator bool() const { return record_ != nullptr; }
    const RunRecord& record() const { return *record_; }
    /// Counts `n` events of kind `t` on the acquiring thread's stripe, a
    /// query's only other registry write. Handle must be truthy.
    void Count(Tally t, uint64_t n = 1) const {
      tallies_[static_cast<size_t>(t)].fetch_add(n,
                                                 std::memory_order_relaxed);
    }

   private:
    friend class RunRegistry;
    ReadHandle() = default;
    ReadPin pin_;
    const RunRecord* record_ = nullptr;
    std::atomic<uint64_t>* tallies_ = nullptr;
  };

  /// Pins the owning shard for reading and resolves the id. The handle
  /// keeps the shard readable (other readers proceed; writers wait) until
  /// it is destroyed — keep its scope as tight as the query it serves.
  ReadHandle AcquireRead(uint64_t id) const;

  /// Allocates the next id and inserts the record under its shard's writer
  /// lock.
  uint64_t Publish(RunRecord record);

  /// Bulk publish: allocates a contiguous ascending id block (so ids
  /// mirror batch order), then inserts as Restore does.
  std::vector<uint64_t> PublishBatch(std::vector<RunRecord> records);

  /// Removes a run. False if unknown.
  bool Remove(uint64_t id);

  bool Contains(uint64_t id) const;

  /// Total runs, composed shard by shard (per-shard consistent).
  size_t size() const;

  /// All registered ids in ascending (= registration) order, composed
  /// shard by shard and merged.
  std::vector<uint64_t> ListIds() const;

  /// Visits every run under a read pin of its owning shard, one shard at a
  /// time; cross-shard visit order is by shard, not by id. The substrate
  /// of SaveSnapshot: callers collect and sort by id afterwards.
  void ForEach(
      const std::function<void(uint64_t, const RunRecord&)>& fn) const;

  /// The id the next Publish would hand out. For snapshot composition,
  /// read it *after* a ForEach sweep: ids are allocated before records
  /// become visible, so every id the sweep saw is strictly below it.
  uint64_t next_id() const {
    return next_id_.load(std::memory_order_acquire);
  }

  /// Snapshot restore and replica apply: moves records[i] in under ids[i],
  /// allocator untouched (pair with SetNextId), taking each shard's writer
  /// side once. An id already present keeps its record.
  void Restore(std::span<const uint64_t> ids, std::span<RunRecord> records);

  /// Snapshot restore: seeds the allocator so the next Publish hands out
  /// the same id it would have on the saving service.
  void SetNextId(uint64_t next_id) {
    next_id_.store(next_id, std::memory_order_release);
  }

  /// Monotonic SetNextId (CAS-max) for replica apply, where Restore()d ids
  /// arrive one op at a time: after applying an op for id X the allocator
  /// must be at least X+1, but must never move backwards.
  void EnsureNextIdAtLeast(uint64_t next_id) {
    uint64_t current = next_id_.load(std::memory_order_acquire);
    while (current < next_id &&
           !next_id_.compare_exchange_weak(current, next_id,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    }
  }

  size_t num_shards() const { return shard_mask_ + 1; }

  /// Which shard owns `id` — the label the observability layer stamps on
  /// per-shard series and slow-query entries.
  size_t ShardIndexFor(uint64_t id) const;

  /// The service-wide count of `t`: every stripe's tally summed, read
  /// relaxed at scrape time.
  uint64_t TotalTally(Tally t) const;

 private:
  static constexpr size_t kTallies = static_cast<size_t>(Tally::kCount);

  struct alignas(64) Line {
    std::atomic<uint64_t> word[8] = {};
  };
  struct alignas(64) Shard {
    std::mutex writer_mu;               // serializes this shard's writers
    std::atomic<uint32_t> writing{0};    // 1 while a writer holds the shard
    std::map<uint64_t, RunRecord> runs;  // written only under `writing`
  };

  /// Word `i` of a thread stripe: words [0, kTallies) are its query
  /// tallies, word kTallies + s its reader count on shard s.
  std::atomic<uint64_t>& StripeWord(size_t stripe, size_t i) const {
    return stripes_[stripe * stripe_lines_ + i / 8].word[i % 8];
  }
  /// Takes `stripe`'s reader count on shard `s`, waiting out a writer.
  ReadPin Pin(size_t s, size_t stripe) const;

  size_t shard_mask_;
  std::atomic<uint64_t> next_id_{1};
  std::unique_ptr<Shard[]> shards_;
  size_t stripe_lines_;            // cache lines per thread stripe
  std::unique_ptr<Line[]> stripes_;  // the stripes, back to back
};

}  // namespace skl

#endif  // SKL_CORE_RUN_REGISTRY_H_
