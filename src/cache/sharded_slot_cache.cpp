#include "cache/sharded_slot_cache.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace rocket::cache {

namespace {

/// Statistic bump kept off the lock-prefixed path: a plain load+store on
/// the atomic (no RMW). Concurrent bumps of the same slot's counter can
/// drop an increment — fast-hit counts are throughput telemetry, not
/// correctness state, and the hot path must not pay a second interlocked
/// instruction per pin. (shards = 1 exactness is unaffected: the fast
/// path is disabled there.)
inline void bump_relaxed(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

// Word layout: [ item:32 | status:2 | inner:15 | excess:15 ].
constexpr std::uint64_t kExcessMask = (1ULL << 15) - 1;
constexpr std::uint64_t kInnerShift = 15;
constexpr std::uint64_t kInnerMask = ((1ULL << 15) - 1) << kInnerShift;
constexpr std::uint64_t kStatusShift = 30;
constexpr std::uint64_t kItemShift = 32;
constexpr std::uint32_t kCounterMax = (1u << 15) - 1;

constexpr std::uint64_t pack_word(ItemId item, SlotCache::Status status,
                                  std::uint32_t inner) {
  return (static_cast<std::uint64_t>(item) << kItemShift) |
         (static_cast<std::uint64_t>(status) << kStatusShift) |
         (static_cast<std::uint64_t>(inner) << kInnerShift);
}

constexpr ItemId word_item(std::uint64_t w) {
  return static_cast<ItemId>(w >> kItemShift);
}
constexpr SlotCache::Status word_status(std::uint64_t w) {
  return static_cast<SlotCache::Status>((w >> kStatusShift) & 0x3);
}
constexpr std::uint32_t word_inner(std::uint64_t w) {
  return static_cast<std::uint32_t>((w & kInnerMask) >> kInnerShift);
}
constexpr std::uint32_t word_excess(std::uint64_t w) {
  return static_cast<std::uint32_t>(w & kExcessMask);
}

}  // namespace

ShardedSlotCache::ShardedSlotCache(Config config)
    : config_(std::move(config)) {
  // Every shard needs at least two slots (a tile pins at least two items,
  // and both may hash into one shard); shards beyond that would own empty
  // caches.
  const std::uint32_t max_shards =
      std::max(1u, config_.num_slots / 2);
  const std::uint32_t n_shards =
      std::max(1u, std::min(config_.shards, max_shards));
  config_.shards = n_shards;
  fast_path_ = n_shards > 1 && config_.max_items > 0;

  num_slots_ = config_.num_slots;
  const std::uint32_t per_shard = config_.num_slots / n_shards;
  std::uint32_t remainder = config_.num_slots % n_shards;
  min_shard_slots_ = per_shard;

  words_ = std::vector<std::atomic<std::uint64_t>>(num_slots_);
  for (auto& w : words_) {
    w.store(pack_word(kNoItem, SlotCache::Status::kEmpty, 0),
            std::memory_order_relaxed);
  }
  fast_hits_by_slot_ = std::vector<std::atomic<std::uint64_t>>(num_slots_);
  for (auto& c : fast_hits_by_slot_) c.store(0, std::memory_order_relaxed);
  if (fast_path_) {
    hints_ = std::vector<std::atomic<SlotId>>(config_.max_items);
    for (auto& h : hints_) h.store(kInvalidSlot, std::memory_order_relaxed);
  }

  std::uint32_t base = 0;
  for (std::uint32_t s = 0; s < n_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    const std::uint32_t slots = per_shard + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    shard->base = base;
    shard->slots = slots;
    shard->cache = std::make_unique<SlotCache>(SlotCache::Config{
        slots, config_.slot_size,
        n_shards == 1 ? config_.name
                      : config_.name + "/s" + std::to_string(s)});
    Shard* raw = shard.get();
    shard->cache->set_slot_observer(
        [this, raw](SlotId local) { sync_word(*raw, local); });
    base += slots;
    shards_.push_back(std::move(shard));
  }
}

std::uint32_t ShardedSlotCache::shard_index_of_slot(SlotId slot) const {
  // Shards differ in size by at most one slot; a short reverse scan over
  // the base offsets resolves the owner (≤ shards comparisons, shards is
  // small and the array is hot).
  for (std::size_t s = shards_.size(); s-- > 0;) {
    if (slot >= shards_[s]->base) return static_cast<std::uint32_t>(s);
  }
  ROCKET_CHECK(false, "slot id out of range");
  return 0;
}

ShardedSlotCache::Shard& ShardedSlotCache::shard_for_slot(SlotId slot) {
  return *shards_[shard_index_of_slot(slot)];
}

const ShardedSlotCache::Shard& ShardedSlotCache::shard_for_slot(
    SlotId slot) const {
  return const_cast<ShardedSlotCache*>(this)->shard_for_slot(slot);
}

void ShardedSlotCache::sync_word(Shard& shard, SlotId local) {
  const SlotId gslot = shard.base + local;
  const ItemId item = shard.cache->item_of(local);
  const auto status = shard.cache->status_of(local);
  const std::uint32_t readers = shard.cache->readers_of(local);
  ROCKET_CHECK(readers <= kCounterMax, "reader count overflows the word");
  const std::uint64_t base = pack_word(item, status, readers);
  auto& word = words_[gslot];
  std::uint64_t cur = word.load(std::memory_order_relaxed);
  // Preserve concurrent fast-path excess pins (they only exist while the
  // policy already counts a reader, so eviction cannot race this store).
  while (!word.compare_exchange_weak(cur, base | (cur & kExcessMask),
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
  if (fast_path_ && item != kNoItem && status == SlotCache::Status::kRead &&
      item < hints_.size()) {
    hints_[item].store(gslot, std::memory_order_release);
  }
}

std::optional<SlotId> ShardedSlotCache::fast_pin(ItemId item) {
  if (!fast_path_ || item >= hints_.size()) return std::nullopt;
  const SlotId gslot = hints_[item].load(std::memory_order_acquire);
  if (gslot == kInvalidSlot || gslot >= words_.size()) return std::nullopt;
  auto& word = words_[gslot];
  std::uint64_t cur = word.load(std::memory_order_acquire);
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (word_item(cur) != item ||
        word_status(cur) != SlotCache::Status::kRead ||
        word_inner(cur) == 0 || word_excess(cur) >= kCounterMax) {
      return std::nullopt;  // miss / unpinned / full: take the shard lock
    }
    if (word.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return gslot;
    }
  }
  return std::nullopt;  // contended: fall back to the shard lock
}

bool ShardedSlotCache::fast_release(SlotId gslot) {
  if (!fast_path_) return false;
  auto& word = words_[gslot];
  std::uint64_t cur = word.load(std::memory_order_acquire);
  while (word_excess(cur) > 0) {
    if (word.compare_exchange_weak(cur, cur - 1, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

void ShardedSlotCache::reconcile_excess(Shard& shard, SlotId gslot) {
  auto& word = words_[gslot];
  std::uint64_t cur = word.load(std::memory_order_acquire);
  while (word_excess(cur) > 0) {
    const std::uint32_t excess = word_excess(cur);
    if (word.compare_exchange_weak(cur, cur - excess,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      shard.cache->pin_existing(gslot - shard.base, excess);
      return;
    }
  }
}

void ShardedSlotCache::locked_release(Shard& shard, SlotId gslot) {
  const SlotId local = gslot - shard.base;
  auto& word = words_[gslot];
  for (;;) {
    reconcile_excess(shard, gslot);
    // More pins remain after this release: the slot cannot become
    // evictable, so lock-free pins may keep landing — nothing to fence.
    if (shard.cache->readers_of(local) > 1) break;
    // Final pin. The policy release below will make the slot evictable,
    // but the word still advertises inner >= 1 until the slot observer
    // rewrites it — a lock-free pin could sneak into that window and end
    // up pinning an eviction victim. Close the window first: publish
    // inner = 0 while atomically asserting excess == 0. A CAS failure
    // means a fast pin just landed; loop to fold it into the policy
    // (after which readers > 1 and the fence is unnecessary).
    std::uint64_t cur = word.load(std::memory_order_acquire);
    if (word_excess(cur) > 0) continue;
    const std::uint64_t fenced =
        pack_word(word_item(cur), word_status(cur), 0);
    if (word.compare_exchange_strong(cur, fenced, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      break;
    }
  }
  shard.cache->release(local);
}

SlotCache::Callback ShardedSlotCache::wrap_callback(Callback cb,
                                                    std::uint32_t base) {
  if (!cb) return {};
  return [cb = std::move(cb), base](Grant g) {
    if (g.slot != kInvalidSlot) g.slot += base;
    cb(g);
  };
}

ShardedSlotCache::Grant ShardedSlotCache::acquire(ItemId item, Callback cb) {
  if (const auto pinned = fast_pin(item)) {
    bump_relaxed(fast_hits_by_slot_[*pinned]);
    return Grant{Outcome::kHit, *pinned};
  }
  Shard& shard = shard_for_item(item);
  std::scoped_lock lock(shard.mutex);
  Grant g =
      shard.cache->acquire(item, wrap_callback(std::move(cb), shard.base));
  if (g.slot != kInvalidSlot) g.slot += shard.base;
  return g;
}

std::vector<ShardedSlotCache::Grant> ShardedSlotCache::acquire_batch(
    const std::vector<ItemId>& items, BatchCallback cb) {
  std::vector<Grant> grants(items.size(),
                            Grant{Outcome::kQueued, kInvalidSlot});
  auto shared_cb =
      cb ? std::make_shared<BatchCallback>(std::move(cb)) : nullptr;

  // Pass 1: lock-free pins for the already-hot part of the working set.
  // Pass 2: group the rest by shard, ascending, one lock per shard.
  const std::uint32_t n_shards = num_shards();
  std::vector<std::vector<std::size_t>> by_shard(n_shards);
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (const auto pinned = fast_pin(items[k])) {
      grants[k] = Grant{Outcome::kHit, *pinned};
      bump_relaxed(fast_hits_by_slot_[*pinned]);
      continue;
    }
    by_shard[shard_of(items[k])].push_back(k);
  }

  for (std::uint32_t s = 0; s < n_shards; ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    // Queued sub-batch entries resolve after this call returns: share the
    // index mapping with the callback wrapper.
    auto indices = std::make_shared<std::vector<std::size_t>>(
        std::move(by_shard[s]));
    std::vector<ItemId> sub;
    sub.reserve(indices->size());
    for (const auto k : *indices) sub.push_back(items[k]);
    BatchCallback sub_cb;
    if (shared_cb) {
      sub_cb = [shared_cb, indices, base = shard.base](std::size_t j,
                                                       Grant g) {
        if (g.slot != kInvalidSlot) g.slot += base;
        (*shared_cb)((*indices)[j], g);
      };
    }
    std::scoped_lock lock(shard.mutex);
    auto sub_grants = shard.cache->acquire_batch(sub, std::move(sub_cb));
    for (std::size_t j = 0; j < sub_grants.size(); ++j) {
      Grant g = sub_grants[j];
      if (g.slot != kInvalidSlot) g.slot += shard.base;
      grants[(*indices)[j]] = g;
    }
  }
  return grants;
}

void ShardedSlotCache::publish(SlotId slot) {
  Shard& shard = shard_for_slot(slot);
  std::scoped_lock lock(shard.mutex);
  shard.cache->publish(slot - shard.base);
}

void ShardedSlotCache::abort(SlotId slot) {
  Shard& shard = shard_for_slot(slot);
  std::scoped_lock lock(shard.mutex);
  shard.cache->abort(slot - shard.base);
}

void ShardedSlotCache::release(SlotId slot) {
  if (fast_release(slot)) return;
  Shard& shard = shard_for_slot(slot);
  std::scoped_lock lock(shard.mutex);
  locked_release(shard, slot);
}

void ShardedSlotCache::release_batch(const std::vector<SlotId>& slots) {
  const std::uint32_t n_shards = num_shards();
  std::vector<std::vector<SlotId>> by_shard(n_shards);
  for (const SlotId slot : slots) {
    if (fast_release(slot)) continue;
    by_shard[shard_index_of_slot(slot)].push_back(slot);
  }
  for (std::uint32_t s = 0; s < n_shards; ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::scoped_lock lock(shard.mutex);
    for (const SlotId slot : by_shard[s]) {
      locked_release(shard, slot);
    }
  }
}

std::optional<SlotId> ShardedSlotCache::try_pin(ItemId item) {
  if (const auto pinned = fast_pin(item)) {
    bump_relaxed(shard_for_item(item).fast_probe_hits);
    return pinned;
  }
  Shard& shard = shard_for_item(item);
  std::scoped_lock lock(shard.mutex);
  const auto pin = shard.cache->try_pin(item);
  if (!pin) return std::nullopt;
  return *pin + shard.base;
}

bool ShardedSlotCache::contains(ItemId item) const {
  const Shard& shard = *shards_[shard_of(item)];
  std::scoped_lock lock(shard.mutex);
  return shard.cache->contains(item);
}

bool ShardedSlotCache::readable(ItemId item) const {
  const Shard& shard = *shards_[shard_of(item)];
  std::scoped_lock lock(shard.mutex);
  return shard.cache->readable(item);
}

CacheStats ShardedSlotCache::stats() const {
  CacheStats total;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    total += shard_stats(s);
  }
  return total;
}

CacheStats ShardedSlotCache::shard_stats(std::uint32_t s) const {
  const Shard& shard = *shards_[s];
  std::scoped_lock lock(shard.mutex);
  CacheStats out = shard.cache->stats();
  for (SlotId g = shard.base; g < shard.base + shard.slots; ++g) {
    out.hits += fast_hits_by_slot_[g].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t ShardedSlotCache::probe_hits() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    total += shard->cache->probe_hits() +
             shard->fast_probe_hits.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t ShardedSlotCache::probe_misses() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    total += shard->cache->probe_misses();
  }
  return total;
}

std::uint64_t ShardedSlotCache::fast_hits() const {
  std::uint64_t total = 0;
  for (const auto& c : fast_hits_by_slot_) {
    total += c.load(std::memory_order_relaxed);
  }
  for (const auto& shard : shards_) {
    total += shard->fast_probe_hits.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint32_t ShardedSlotCache::resident_items() const {
  std::uint32_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    total += shard->cache->resident_items();
  }
  return total;
}

void ShardedSlotCache::check_invariants() const {
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    shard->cache->check_invariants();
    for (SlotId local = 0; local < shard->cache->num_slots(); ++local) {
      const std::uint64_t w =
          words_[shard->base + local].load(std::memory_order_acquire);
      ROCKET_CHECK(word_excess(w) == 0,
                   "fast-path excess pins outstanding at quiescence");
      ROCKET_CHECK(word_item(w) == shard->cache->item_of(local),
                   "fast-path word item out of sync");
      ROCKET_CHECK(word_status(w) == shard->cache->status_of(local),
                   "fast-path word status out of sync");
      ROCKET_CHECK(word_inner(w) == shard->cache->readers_of(local),
                   "fast-path word reader count out of sync");
    }
  }
}

}  // namespace rocket::cache
