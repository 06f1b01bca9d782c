#pragma once

// The correctness gate of every live run. The master callback marks each
// delivered pair in a C(n,2) table; after the run the gate counts a pair
// as failed when it is missing, delivered twice or non-finite, and
// recomputes a seeded sample of pairs serially — the application's own
// parse / preprocess / compare / postprocess called directly, outside the
// runtime — requiring each delivered score to match bit for bit.

#include <cstdint>
#include <map>
#include <vector>

#include "gpu/virtual_device.hpp"
#include "runtime/application.hpp"
#include "storage/object_store.hpp"

namespace perfbench {

/// Serial reference scores; prepared items are kept across calls.
class SerialReference {
 public:
  SerialReference(const rocket::runtime::Application& app,
                  rocket::storage::ObjectStore& store);

  double score(std::uint32_t left, std::uint32_t right);

 private:
  const rocket::gpu::DeviceBuffer& prepared(std::uint32_t item);

  const rocket::runtime::Application* app_;
  rocket::storage::ObjectStore* store_;
  rocket::gpu::VirtualDevice device_;
  std::map<std::uint32_t, rocket::gpu::DeviceBuffer> prepared_;
};

class PairGate {
 public:
  explicit PairGate(std::uint32_t n);

  /// Master callback body (called serially by the runtime).
  void deliver(const rocket::runtime::PairResult& result);

  std::uint64_t pairs() const { return scores_.size(); }
  std::uint64_t delivered() const { return delivered_; }

  /// Failed pairs of this run: every missing, duplicate, non-finite or
  /// out-of-range pair, plus every sampled pair whose score differs from
  /// `reference`. The sample holds `sample_pairs` pairs drawn with
  /// `sample_seed` (all pairs when that covers C(n,2)).
  std::uint64_t failed_pairs(SerialReference& reference,
                             std::uint32_t sample_pairs,
                             std::uint64_t sample_seed) const;

 private:
  std::uint64_t index_of(std::uint32_t i, std::uint32_t j) const;

  std::uint32_t n_;
  std::uint64_t delivered_ = 0;
  std::uint64_t stray_ = 0;           // delivered pairs outside C(n,2)
  std::vector<std::uint8_t> counts_;  // deliveries per pair, saturating
  std::vector<double> scores_;        // last delivered score per pair
};

}  // namespace perfbench
