#include "src/core/run_registry.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include "src/common/random.h"

namespace skl {

RunRegistry::RunRegistry(const Options& options)
    : shard_mask_(std::bit_ceil(std::clamp<size_t>(options.num_shards, 1,
                                                   kMaxShards)) -
                  1),
      cache_slots_(options.cache_slots),
      shards_(std::make_unique<Shard[]>(shard_mask_ + 1)) {
  if (cache_slots_ > 0) {
    for (size_t s = 0; s <= shard_mask_; ++s) {
      shards_[s].cache = std::make_unique<QueryCache>(cache_slots_);
    }
  }
}

size_t RunRegistry::ShardIndexOf(uint64_t id) const {
  // Mix64: ids are allocated sequentially, so without mixing a
  // power-of-two mask would stripe consecutive runs over shards in
  // lockstep — fine — but any id-structure correlation in a workload
  // (e.g. querying every 8th run) would then hammer one shard.
  return static_cast<size_t>(Mix64(id)) & shard_mask_;
}

RunRegistry::ReadHandle RunRegistry::AcquireRead(uint64_t id) const {
  const Shard& shard = ShardOf(id);
  ReadHandle handle;
  handle.lock_ = std::shared_lock(shard.mu);
  auto it = shard.runs.find(id);
  if (it == shard.runs.end()) {
    handle.lock_.unlock();
    return handle;
  }
  handle.record_ = &it->second;
  handle.cache_ = shard.cache.get();
  handle.generation_ = shard.generation;
  handle.tallies_ = &shard.tallies;
  return handle;
}

uint64_t RunRegistry::TotalTally(Tally t) const {
  uint64_t total = 0;
  for (size_t s = 0; s <= shard_mask_; ++s) total += ShardTally(s, t);
  return total;
}

uint64_t RunRegistry::Publish(RunRecord record, bool invalidate) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  Shard& shard = ShardOf(id);
  std::unique_lock lock(shard.mu);
  shard.runs.emplace(id, std::move(record));
  if (invalidate) ++shard.generation;
  return id;
}

std::vector<uint64_t> RunRegistry::PublishBatch(
    std::vector<RunRecord> records) {
  const size_t count = records.size();
  std::vector<uint64_t> ids;
  ids.reserve(count);
  if (count == 0) return ids;
  // One contiguous block keeps published ids ascending in batch order, the
  // contract callers (and the snapshot format) rely on.
  const uint64_t base = next_id_.fetch_add(count, std::memory_order_acq_rel);
  for (size_t i = 0; i < count; ++i) ids.push_back(base + i);
  // Group by shard so each writer lock is taken once per batch, not once
  // per run; queries on other shards are never blocked at all.
  std::vector<std::vector<size_t>> by_shard(shard_mask_ + 1);
  for (size_t i = 0; i < count; ++i) {
    by_shard[ShardIndexOf(ids[i])].push_back(i);
  }
  for (size_t s = 0; s <= shard_mask_; ++s) {
    if (by_shard[s].empty()) continue;
    std::unique_lock lock(shards_[s].mu);
    for (size_t i : by_shard[s]) {
      shards_[s].runs.emplace(ids[i], std::move(records[i]));
    }
  }
  return ids;
}

bool RunRegistry::Remove(uint64_t id) {
  Shard& shard = ShardOf(id);
  std::unique_lock lock(shard.mu);
  if (shard.runs.erase(id) == 0) return false;
  // O(1) invalidation: every cached answer in this shard is stamped with an
  // older generation and can no longer hit. No scan, no per-entry work.
  ++shard.generation;
  return true;
}

bool RunRegistry::Contains(uint64_t id) const {
  const Shard& shard = ShardOf(id);
  std::shared_lock lock(shard.mu);
  return shard.runs.find(id) != shard.runs.end();
}

size_t RunRegistry::size() const {
  size_t total = 0;
  for (size_t s = 0; s <= shard_mask_; ++s) {
    std::shared_lock lock(shards_[s].mu);
    total += shards_[s].runs.size();
  }
  return total;
}

std::vector<uint64_t> RunRegistry::ListIds() const {
  std::vector<uint64_t> ids;
  for (size_t s = 0; s <= shard_mask_; ++s) {
    std::shared_lock lock(shards_[s].mu);
    for (const auto& kv : shards_[s].runs) ids.push_back(kv.first);
  }
  // Shards partition ids by hash, so the concatenation interleaves; one
  // sort restores ascending (= registration) order.
  std::sort(ids.begin(), ids.end());
  return ids;
}

void RunRegistry::ForEach(
    const std::function<void(uint64_t, const RunRecord&)>& fn) const {
  for (size_t s = 0; s <= shard_mask_; ++s) {
    std::shared_lock lock(shards_[s].mu);
    for (const auto& kv : shards_[s].runs) fn(kv.first, kv.second);
  }
}

bool RunRegistry::Restore(uint64_t id, RunRecord record) {
  Shard& shard = ShardOf(id);
  std::unique_lock lock(shard.mu);
  return shard.runs.emplace(id, std::move(record)).second;
}

}  // namespace skl
