#pragma once

// Sharded, concurrency-first software cache: N independent SlotCache
// shards selected by item hash, each with its own mutex, LRU list and
// stats, plus a lock-free read fast path (see DESIGN.md §10).
//
// The single-threaded SlotCache policy stays the source of truth for
// replacement and write/read synchronisation inside every shard; this
// class owns the locking that the live runtime previously did itself with
// one global `host_mutex` (and one mutex per device cache). Sharding
// turns that single serialization point into per-shard critical sections,
// and the fast path removes the mutex from the hottest operation
// entirely: a read pin on an item that is already READ **and already
// pinned** is granted by one CAS on a per-slot atomic word.
//
// Fast-path protocol (per global slot, one 64-bit word):
//
//   [ item:32 | status:2 | inner:15 | excess:15 ]
//
// `inner` mirrors the shard policy's reader count and is rewritten, under
// the shard mutex, by a SlotCache slot observer after every mutation.
// `excess` counts lock-free pins the policy does not know about yet. A
// fast pin CASes excess+1, but only while `inner >= 1`: a slot the policy
// counts as pinned can never be chosen as an eviction victim, so the CAS
// can never race a concurrent eviction. A fast release CASes excess-1
// while excess >= 1; the final release of a slot therefore always reaches
// the slow path, which first folds any remaining excess pins into the
// policy (pin_existing) and then runs the ordinary release — LRU
// stamping, pending-allocation draining and waiter callbacks are executed
// by exactly the same code as the unsharded cache.
//
// shards = 1 disables the fast path and degenerates to "SlotCache behind
// one mutex", byte-for-byte compatible with the pre-sharding runtime (the
// escape hatch for exact paper replay and the simulator-equivalence
// tests).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/slot_cache.hpp"

namespace rocket::cache {

class ShardedSlotCache {
 public:
  using Grant = SlotCache::Grant;
  using Outcome = SlotCache::Outcome;
  using Callback = SlotCache::Callback;
  using BatchCallback = SlotCache::BatchCallback;

  struct Config {
    std::uint32_t num_slots = 0;  // total, distributed over the shards
    Bytes slot_size = 0;
    std::string name = "cache";
    /// Shard count; clamped so every shard owns at least two slots.
    /// 1 = single-lock mode, fast path off (bit-compatible with SlotCache).
    std::uint32_t shards = 1;
    /// Upper bound on ItemId values (items are dense [0, n) everywhere in
    /// Rocket); sizes the lock-free item→slot hint table. 0 disables the
    /// fast path.
    std::uint32_t max_items = 0;
  };

  explicit ShardedSlotCache(Config config);

  ShardedSlotCache(const ShardedSlotCache&) = delete;
  ShardedSlotCache& operator=(const ShardedSlotCache&) = delete;

  /// SlotCache::acquire semantics with global slot ids. Queued grants fire
  /// `cb` from inside a later publish/abort/release **with that shard's
  /// mutex held** — defer before re-entering the cache, exactly as with
  /// the externally-locked SlotCache.
  Grant acquire(ItemId item, Callback cb);

  /// Batched acquire of a tile's working set: the lock-free fast path is
  /// tried per item first, then the remaining items are grouped by shard
  /// and each shard is visited once, in ascending shard order, under its
  /// own mutex (one lock acquisition per shard touched, never holding two
  /// shard locks at once — trivially deadlock-free). Grants are
  /// index-aligned with `items`.
  std::vector<Grant> acquire_batch(const std::vector<ItemId>& items,
                                   BatchCallback cb);

  void publish(SlotId slot);
  void abort(SlotId slot);

  /// Drop one read pin; one CAS when the slot keeps other lock-free pins,
  /// otherwise the shard-locked policy release.
  void release(SlotId slot);

  /// Batched release of a tile's pins: fast-path drops first, then one
  /// pass per shard (ascending) for the rest.
  void release_batch(const std::vector<SlotId>& slots);

  /// Non-disruptive probe (§4.1.3 semantics), fast path included.
  std::optional<SlotId> try_pin(ItemId item);

  bool contains(ItemId item) const;
  bool readable(ItemId item) const;

  /// Per-shard stats merged into one table; includes fast-path hits.
  CacheStats stats() const;
  CacheStats shard_stats(std::uint32_t shard) const;
  std::uint64_t probe_hits() const;
  std::uint64_t probe_misses() const;
  /// Read pins granted by the lock-free fast path (subset of stats().hits).
  std::uint64_t fast_hits() const;

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t num_slots() const { return num_slots_; }
  Bytes capacity() const {
    return static_cast<Bytes>(num_slots_) * config_.slot_size;
  }
  std::uint32_t resident_items() const;
  const Config& config() const { return config_; }

  /// Shard an item hashes to (stable for the cache's lifetime). Rocket's
  /// ItemIds are dense [0, n), so the identity hash (mod shards) both
  /// spreads consecutive working sets across all shards and keeps the
  /// per-shard item population balanced — an ample cache still loads each
  /// item exactly once, which a scrambling hash cannot guarantee once the
  /// slot count is clamped to n.
  std::uint32_t shard_of(ItemId item) const {
    return item % static_cast<std::uint32_t>(shards_.size());
  }

  /// Smallest shard slot count — the capacity bound concurrent pin demand
  /// must respect for batched pinning to stay deadlock-free (DESIGN.md
  /// §10).
  std::uint32_t min_shard_slots() const { return min_shard_slots_; }

  /// Audit every shard's policy invariants plus the fast-path mirror:
  /// each word matches its slot's (item, status, readers) and carries no
  /// excess pins. Call only at quiescence.
  void check_invariants() const;

 private:
  /// One shard: policy + mutex + fast-path probe counter,
  /// cacheline-separated so shard-local traffic never false-shares.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unique_ptr<SlotCache> cache;
    std::uint32_t base = 0;   // first global slot id of this shard
    std::uint32_t slots = 0;  // slot count of this shard
    std::atomic<std::uint64_t> fast_probe_hits{0};
  };

  Shard& shard_for_item(ItemId item) { return *shards_[shard_of(item)]; }
  std::uint32_t shard_index_of_slot(SlotId slot) const;
  Shard& shard_for_slot(SlotId slot);
  const Shard& shard_for_slot(SlotId slot) const;

  /// Rewrite `slot`'s word from the shard policy's current state,
  /// preserving the excess field (callers hold the shard mutex).
  void sync_word(Shard& shard, SlotId local);

  /// CAS a lock-free pin onto `item`'s hinted slot; nullopt on miss,
  /// contention, or a slot with no policy-visible pin.
  std::optional<SlotId> fast_pin(ItemId item);

  /// CAS one excess pin off `slot`; false if none remain.
  bool fast_release(SlotId slot);

  /// Fold `slot`'s outstanding excess pins into the shard policy (callers
  /// hold the shard mutex).
  void reconcile_excess(Shard& shard, SlotId slot);

  /// Slow-path release under the shard mutex: folds excess pins and, when
  /// dropping the final pin, fences the word (inner = 0, excess asserted
  /// 0) before the policy release so no lock-free pin can land on a slot
  /// that is about to become evictable.
  void locked_release(Shard& shard, SlotId slot);

  Callback wrap_callback(Callback cb, std::uint32_t base);

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint32_t num_slots_ = 0;
  std::uint32_t min_shard_slots_ = 0;
  bool fast_path_ = false;
  /// Per-slot fast-path words (layout in the file header).
  std::vector<std::atomic<std::uint64_t>> words_;
  /// Per-slot fast-hit counters: the acquire fast path must not pay a
  /// shard lookup (an integer division) or a shared shard counter; slots
  /// are contiguous per shard, so stats() attributes them by range.
  std::vector<std::atomic<std::uint64_t>> fast_hits_by_slot_;
  /// item → last global slot it was published in (kInvalidSlot when
  /// unknown; stale hints are harmless — the word check rejects them).
  std::vector<std::atomic<SlotId>> hints_;
};

}  // namespace rocket::cache
