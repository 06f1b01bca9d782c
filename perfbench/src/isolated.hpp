#pragma once

// Isolated layer timings: public functions of `common`, `cache` and
// `mesh` timed on their own, outside any run, each sized from the
// workload's parameters so that the per-KiB split of a transport hop or a
// cache acquire can be set beside what the live run spends there.

#include <cstdint>
#include <map>
#include <string>

#include "runtime/application.hpp"

namespace perfbench {

struct IsolatedSizing {
  /// A real parsed item of the workload: what a host-cache slot holds and
  /// what a peer fetch puts on the wire.
  rocket::runtime::HostBuffer slot;
  rocket::Bytes slot_size = 0;      // the application's cache slot size
  std::uint32_t cache_slots = 0;    // slots of one node's host cache
  std::uint32_t cache_shards = 1;   // the runtime's shard count
  std::uint32_t items = 0;          // n
  std::uint32_t nodes = 1;
  std::uint32_t journal_batch_pairs = 64;
  rocket::Bytes compress_threshold = 0;  // transport's lz threshold
  std::string scratch_dir;          // for the journal's DirectoryStore
};

/// name → value; units are fixed per name (see BENCHMARK.json).
std::map<std::string, double> isolated_timings(const IsolatedSizing& sizing);

}  // namespace perfbench
