#include "isolated.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <vector>

#include "cache/sharded_slot_cache.hpp"
#include "common/compress.hpp"
#include "common/crc32.hpp"
#include "mesh/checkpoint.hpp"
#include "mesh/result_ledger.hpp"
#include "mesh/transport.hpp"
#include "spans.hpp"
#include "storage/object_store.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 5;
constexpr double kBatchSeconds = 0.01;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over kBatches of the seconds per call of `op`, each batch
/// calling it until kBatchSeconds have passed.
double seconds_per_call(const std::function<void()>& op) {
  op();  // warm caches and allocators
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    do {
      op();
      ++calls;
    } while (seconds_since(t0) < kBatchSeconds);
    per_call.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

/// Median over kBatches of the seconds per operation of `timed`, which
/// runs one batch of operations (its own untimed set-up excluded) and
/// returns {seconds, operations}.
double seconds_per_op(
    const std::function<std::pair<double, std::uint64_t>()>& timed) {
  timed();
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto [seconds, ops] = timed();
    per_op.push_back(seconds / static_cast<double>(std::max<std::uint64_t>(
                                   ops, 1)));
  }
  return median(per_op);
}

const rocket::cache::ShardedSlotCache::Callback kNoCallback =
    [](rocket::cache::ShardedSlotCache::Grant) {};

void time_cache(const IsolatedSizing& s, std::map<std::string, double>& out) {
  using rocket::cache::ShardedSlotCache;
  using Outcome = ShardedSlotCache::Outcome;
  const std::uint32_t slots = std::max(4u, s.cache_slots);
  const std::uint32_t shards = std::max(1u, s.cache_shards);

  // Hits: half the slots hold published, unpinned items; one batch pins
  // each of them once.
  ShardedSlotCache hit_cache(
      {slots, s.slot_size, "isolated-hit", shards, slots});
  const std::uint32_t resident = slots / 2;
  for (std::uint32_t i = 0; i < resident; ++i) {
    const auto g = hit_cache.acquire(i, kNoCallback);
    if (g.outcome == Outcome::kFill) hit_cache.publish(g.slot);
    hit_cache.release(g.slot);
  }
  std::vector<rocket::cache::SlotId> pins(resident);
  out["cache.acquire_hit_ns"] = 1e9 * seconds_per_op([&] {
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < resident; ++i) {
      const auto g = hit_cache.acquire(i, kNoCallback);
      if (g.outcome != Outcome::kHit) {
        throw std::runtime_error("isolated cache hit was not a hit");
      }
      pins[i] = g.slot;
    }
    const double seconds = seconds_since(t0);
    for (const auto slot : pins) hit_cache.release(slot);
    return std::make_pair(seconds, std::uint64_t{resident});
  });

  // Misses: cycling over twice as many items as slots makes every acquire
  // a fill that evicts the least recently used item.
  const std::uint32_t universe = 2 * slots;
  ShardedSlotCache miss_cache(
      {slots, s.slot_size, "isolated-miss", shards, universe});
  std::uint32_t cursor = 0;
  std::vector<rocket::cache::SlotId> fills(resident);
  out["cache.acquire_miss_ns"] = 1e9 * seconds_per_op([&] {
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < resident; ++i) {
      const auto g = miss_cache.acquire(cursor++ % universe, kNoCallback);
      if (g.outcome != Outcome::kFill) {
        throw std::runtime_error("isolated cache miss was not a fill");
      }
      fills[i] = g.slot;
    }
    const double seconds = seconds_since(t0);
    for (const auto slot : fills) {
      miss_cache.publish(slot);
      miss_cache.release(slot);
    }
    return std::make_pair(seconds, std::uint64_t{resident});
  });
}

void time_transport(const IsolatedSizing& s,
                    std::map<std::string, double>& out) {
  using namespace rocket::mesh;
  InProcessTransport::Config tc;
  tc.compress_threshold = s.compress_threshold;
  InProcessTransport transport(2, tc);
  constexpr std::uint64_t kHops = 32;
  const double hop_s = seconds_per_op([&] {
    std::vector<MessageBody> bodies;
    bodies.reserve(kHops);
    for (std::uint64_t i = 0; i < kHops; ++i) {
      bodies.emplace_back(
          CacheData{static_cast<ItemId>(i), 0, false, s.slot, {}});
    }
    const auto t0 = Clock::now();
    for (auto& body : bodies) {
      transport.send(0, 1, rocket::net::Tag::kCacheData, std::move(body),
                     s.slot.size());
      if (!transport.recv(1)) throw std::runtime_error("transport closed");
    }
    return std::make_pair(seconds_since(t0), kHops);
  });
  out["mesh.hop_us"] = 1e6 * hop_s;
  out["mesh.hop_us_per_kib"] =
      1e6 * hop_s / (static_cast<double>(s.slot.size()) / 1024.0);
  out["mesh.result_hop_us"] = 1e6 * seconds_per_call([&] {
    transport.send(0, 1, rocket::net::Tag::kResult,
                   ResultMsg{rocket::runtime::PairResult{1, 2, 0.5}, {}});
    if (!transport.recv(1)) throw std::runtime_error("transport closed");
  });
  transport.close();
}

void time_ledger(const IsolatedSizing& s, std::map<std::string, double>& out) {
  out["mesh.ledger.record_ns"] = 1e9 * seconds_per_op([&] {
    rocket::mesh::ResultLedger ledger(s.items, s.nodes);
    std::uint64_t records = 0;
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < s.items; ++i) {
      for (std::uint32_t j = i + 1; j < s.items; ++j) {
        records += ledger.record(i, j) ? 1 : 0;
      }
    }
    return std::make_pair(seconds_since(t0), records);
  });
}

void time_journal(const IsolatedSizing& s,
                  std::map<std::string, double>& out) {
  namespace ck = rocket::mesh::checkpoint;
  const std::string dir = s.scratch_dir + "/isolated-journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    rocket::storage::DirectoryStore store(dir);
    ck::Journal journal(store, "isolated.journal");
    ck::Manifest manifest;
    manifest.items = s.items;
    manifest.num_nodes = s.nodes;
    journal.start_fresh(manifest);
    std::vector<rocket::runtime::PairResult> batch;
    for (std::uint32_t k = 0; k < std::max(1u, s.journal_batch_pairs); ++k) {
      batch.push_back({k, k + 1, 0.25 * k});
    }
    out["mesh.journal.append_us"] =
        1e6 * seconds_per_call([&] { journal.append_results(batch); });
  }
  std::filesystem::remove_all(dir);
}

void time_common(const IsolatedSizing& s, std::map<std::string, double>& out) {
  const double gib = static_cast<double>(s.slot.size()) / (1u << 30);
  volatile std::uint32_t sink = 0;
  out["common.crc32.gib_per_s"] = gib / seconds_per_call([&] {
    sink = sink + rocket::crc32(s.slot.data(), s.slot.size());
  });
  const rocket::ByteBuffer packed = rocket::lz_compress(s.slot);
  out["common.lz_compress.gib_per_s"] = gib / seconds_per_call([&] {
    sink = sink + static_cast<std::uint32_t>(rocket::lz_compress(s.slot).size());
  });
  out["common.lz_decompress.gib_per_s"] = gib / seconds_per_call([&] {
    sink = sink +
           static_cast<std::uint32_t>(rocket::lz_decompress(packed).size());
  });
}

}  // namespace

std::map<std::string, double> isolated_timings(const IsolatedSizing& sizing) {
  std::map<std::string, double> out;
  time_cache(sizing, out);
  time_transport(sizing, out);
  time_ledger(sizing, out);
  time_journal(sizing, out);
  time_common(sizing, out);
  return out;
}

}  // namespace perfbench
