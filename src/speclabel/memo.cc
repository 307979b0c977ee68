#include "src/speclabel/memo.h"

#include <algorithm>
#include <bit>

namespace skl {

namespace {

constexpr uint64_t kMaxSlots = uint64_t{1} << 16;

/// This thread's stripe, handed out round-robin on first use.
size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

uint64_t KeyOf(VertexId u, VertexId v) {
  return (static_cast<uint64_t>(u) + 1) << 32 | static_cast<uint64_t>(v) << 1;
}

}  // namespace

void MemoTally::Count(bool hit) {
  Stripe& stripe = stripes_[ThreadStripe() % kStripes];
  (hit ? stripe.hits : stripe.misses).fetch_add(1, std::memory_order_relaxed);
}

uint64_t MemoTally::hits() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.hits.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t MemoTally::misses() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.misses.load(std::memory_order_relaxed);
  }
  return total;
}

MemoizedScheme::MemoizedScheme(std::unique_ptr<SpecLabelingScheme> inner,
                               MemoTally* tally)
    : inner_(std::move(inner)), tally_(tally) {
  Reset(0);
}

void MemoizedScheme::Reset(VertexId n) {
  const uint64_t pairs = static_cast<uint64_t>(n) * n;
  mask_ = std::bit_ceil(std::clamp<uint64_t>(pairs, 1, kMaxSlots)) - 1;
  slots_ = std::make_unique<std::atomic<uint64_t>[]>(mask_ + 1);
}

Status MemoizedScheme::Build(const Digraph& g) {
  SKL_RETURN_NOT_OK(inner_->Build(g));
  build_seconds_ = inner_->BuildSeconds();
  Reset(g.num_vertices());
  return Status::OK();
}

Status MemoizedScheme::BuildIncremental(const Digraph& new_graph,
                                        const SpecLabelingScheme& previous,
                                        std::span<const VertexId> vertex_remap,
                                        std::span<const VertexId> dirty) {
  const auto* memo = dynamic_cast<const MemoizedScheme*>(&previous);
  SKL_RETURN_NOT_OK(inner_->BuildIncremental(
      new_graph, memo != nullptr ? *memo->inner_ : previous, vertex_remap,
      dirty));
  build_seconds_ = inner_->BuildSeconds();
  Reset(new_graph.num_vertices());
  return Status::OK();
}

bool MemoizedScheme::Reaches(VertexId u, VertexId v) const {
  const uint64_t key = KeyOf(u, v);
  // Fibonacci hashing: the product's top bits mix every bit of the key.
  std::atomic<uint64_t>& slot =
      slots_[((key * 0x9E3779B97F4A7C15ull) >> 48) & mask_];
  const uint64_t word = slot.load(std::memory_order_relaxed);
  const bool hit = (word & ~uint64_t{1}) == key;
  tally_->Count(hit);
  if (hit) return (word & 1) != 0;
  const bool answer = inner_->Reaches(u, v);
  slot.store(key | (answer ? 1 : 0), std::memory_order_relaxed);
  return answer;
}

}  // namespace skl
