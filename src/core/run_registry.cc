#include "src/core/run_registry.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <numeric>
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

namespace {

constexpr size_t kStripes = 32;

/// This thread's stripe, handed out round-robin on first use.
size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

}  // namespace

/// A shard's writer side, held for the guard's scope.
class RunRegistry::WriteLock {
 public:
  WriteLock(const RunRegistry& registry, size_t s)
      : shard_(registry.shards_[s]), lock_(shard_.writer_mu) {
    shard_.writing.store(1);
    for (size_t stripe = 0; stripe < kStripes; ++stripe) {
      std::atomic<uint64_t>& readers =
          registry.StripeWord(stripe, kTallies + s);
      for (uint64_t n; (n = readers.load()) != 0;) readers.wait(n);
    }
  }
  ~WriteLock() {
    shard_.writing.store(0);
    shard_.writing.notify_all();
  }

 private:
  Shard& shard_;
  std::lock_guard<std::mutex> lock_;
};

void RunRegistry::Unpin::operator()(std::atomic<uint64_t>* readers) const {
  readers->fetch_sub(1);
  // A writer that set `writing` before this decrement may be waiting on it.
  if (writing->load() != 0) readers->notify_all();
}

RunRegistry::RunRegistry(const Options& options)
    : shard_mask_(std::bit_ceil(std::clamp<size_t>(options.num_shards, 1,
                                                   kMaxShards)) -
                  1),
      shards_(std::make_unique<Shard[]>(shard_mask_ + 1)),
      stripe_lines_((kTallies + shard_mask_ + 1 + 7) / 8),
      stripes_(std::make_unique<Line[]>(kStripes * stripe_lines_)) {}

size_t RunRegistry::ShardIndexFor(uint64_t id) const {
  // Mix64: ids are allocated sequentially, so without mixing a
  // power-of-two mask would stripe consecutive runs over shards in
  // lockstep — fine — but any id-structure correlation in a workload
  // (e.g. querying every 8th run) would then hammer one shard.
  return static_cast<size_t>(Mix64(id)) & shard_mask_;
}

RunRegistry::ReadPin RunRegistry::Pin(size_t s, size_t stripe) const {
  const std::atomic<uint32_t>& writing = shards_[s].writing;
  std::atomic<uint64_t>& readers = StripeWord(stripe, kTallies + s);
  for (;;) {
    readers.fetch_add(1);
    if (writing.load() == 0) return ReadPin(&readers, Unpin{&writing});
    Unpin{&writing}(&readers);
    writing.wait(1);
  }
}

RunRegistry::ReadHandle RunRegistry::AcquireRead(uint64_t id) const {
  const size_t s = ShardIndexFor(id);
  const size_t stripe = ThreadStripe();
  ReadHandle handle;
  handle.pin_ = Pin(s, stripe);
  auto it = shards_[s].runs.find(id);
  if (it == shards_[s].runs.end()) return ReadHandle();
  handle.record_ = &it->second;
  handle.tallies_ = &StripeWord(stripe, 0);
  return handle;
}

uint64_t RunRegistry::TotalTally(Tally t) const {
  uint64_t total = 0;
  for (size_t stripe = 0; stripe < kStripes; ++stripe) {
    total += StripeWord(stripe, static_cast<size_t>(t))
                 .load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t RunRegistry::Publish(RunRecord record) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  const size_t s = ShardIndexFor(id);
  WriteLock lock(*this, s);
  shards_[s].runs.emplace(id, std::move(record));
  return id;
}

std::vector<uint64_t> RunRegistry::PublishBatch(
    std::vector<RunRecord> records) {
  // One contiguous block keeps published ids ascending in batch order, the
  // contract callers (and the snapshot format) rely on.
  std::vector<uint64_t> ids(records.size());
  std::iota(ids.begin(), ids.end(),
            next_id_.fetch_add(ids.size(), std::memory_order_acq_rel));
  Restore(ids, records);
  return ids;
}

void RunRegistry::Restore(std::span<const uint64_t> ids,
                          std::span<RunRecord> records) {
  // Group by shard so each writer side (one stripe scan) is taken once per
  // call, not once per run; queries on other shards are never blocked.
  std::vector<std::vector<size_t>> by_shard(shard_mask_ + 1);
  for (size_t i = 0; i < ids.size(); ++i) {
    by_shard[ShardIndexFor(ids[i])].push_back(i);
  }
  for (size_t s = 0; s <= shard_mask_; ++s) {
    if (by_shard[s].empty()) continue;
    WriteLock lock(*this, s);
    for (size_t i : by_shard[s]) {
      shards_[s].runs.emplace(ids[i], std::move(records[i]));
    }
  }
}

bool RunRegistry::Remove(uint64_t id) {
  const size_t s = ShardIndexFor(id);
  WriteLock lock(*this, s);
  return shards_[s].runs.erase(id) != 0;
}

bool RunRegistry::Contains(uint64_t id) const {
  return static_cast<bool>(AcquireRead(id));
}

size_t RunRegistry::size() const {
  size_t total = 0;
  for (size_t s = 0; s <= shard_mask_; ++s) {
    const ReadPin pin = Pin(s, ThreadStripe());
    total += shards_[s].runs.size();
  }
  return total;
}

std::vector<uint64_t> RunRegistry::ListIds() const {
  std::vector<uint64_t> ids;
  for (size_t s = 0; s <= shard_mask_; ++s) {
    const ReadPin pin = Pin(s, ThreadStripe());
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
    const ReadPin pin = Pin(s, ThreadStripe());
    for (const auto& kv : shards_[s].runs) fn(kv.first, kv.second);
  }
}

}  // namespace skl
