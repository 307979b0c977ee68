#include "src/core/run_registry.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include "src/common/random.h"

namespace skl {

void WriteRunStats(BitWriter& writer, const RunStats& stats) {
  writer.WriteVarint(stats.num_vertices);
  writer.WriteVarint(stats.num_items);
  writer.WriteVarint(stats.label_bits);
  writer.WriteVarint(stats.context_bits);
  writer.WriteVarint(stats.origin_bits);
  writer.WriteVarint(stats.num_nonempty_plus);
  writer.WriteVarint(stats.imported ? 1 : 0);
  writer.WriteVarint(stats.epoch);
}

Status ReadRunStats(BitReader& reader, RunStats* stats) {
  uint64_t fields[8];
  for (uint64_t& field : fields) {
    if (!reader.ReadVarint(&field).ok()) {
      return Status::ParseError("truncated run stats");
    }
  }
  const auto [num_vertices, num_items, label_bits, context_bits, origin_bits,
              num_nonempty_plus, imported, epoch] = fields;
  if (imported > 1) return Status::ParseError("bad imported flag");
  if (epoch == 0) {
    return Status::ParseError("spec epoch 0 (epochs start at 1)");
  }
  // The fields before `imported` restore into 32-bit members: a corrupted
  // varint must not silently truncate.
  for (int i = 0; i < 6; ++i) {
    if (fields[i] > UINT32_MAX) {
      return Status::ParseError("stats field out of range");
    }
  }
  stats->num_vertices = static_cast<VertexId>(num_vertices);
  stats->num_items = static_cast<size_t>(num_items);
  stats->label_bits = static_cast<uint32_t>(label_bits);
  stats->context_bits = static_cast<uint32_t>(context_bits);
  stats->origin_bits = static_cast<uint32_t>(origin_bits);
  stats->num_nonempty_plus = static_cast<uint32_t>(num_nonempty_plus);
  stats->imported = imported != 0;
  stats->epoch = epoch;
  return Status::OK();
}

RunRegistry::RunRegistry(const Options& options)
    : shard_mask_(std::bit_ceil(std::clamp<size_t>(options.num_shards, 1,
                                                   kMaxShards)) -
                  1),
      shards_(std::make_unique<Shard[]>(shard_mask_ + 1)) {}

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
  handle.tallies_ = &shard.tallies;
  return handle;
}

uint64_t RunRegistry::TotalTally(Tally t) const {
  uint64_t total = 0;
  for (size_t s = 0; s <= shard_mask_; ++s) total += ShardTally(s, t);
  return total;
}

uint64_t RunRegistry::Publish(RunRecord record) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  Shard& shard = ShardOf(id);
  std::unique_lock lock(shard.mu);
  shard.runs.emplace(id, std::move(record));
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
  return shard.runs.erase(id) != 0;
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
