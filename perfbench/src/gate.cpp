#include "gate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "gpu/device_spec.hpp"

namespace perfbench {

SerialReference::SerialReference(const rocket::runtime::Application& app,
                                 rocket::storage::ObjectStore& store)
    : app_(&app), store_(&store), device_(0, rocket::gpu::titanx_maxwell()) {}

const rocket::gpu::DeviceBuffer& SerialReference::prepared(
    std::uint32_t item) {
  auto it = prepared_.find(item);
  if (it != prepared_.end()) return it->second;
  rocket::runtime::HostBuffer parsed;
  app_->parse(item, store_->read(app_->file_name(item)), parsed);
  // Same upload as the runtime's H2D stage: a full slot, zero tail.
  const std::size_t size = std::max<std::size_t>(
      {parsed.size(), static_cast<std::size_t>(app_->slot_size()), 1});
  rocket::gpu::DeviceBuffer buffer = device_.allocate(size);
  std::fill(buffer.bytes().begin(), buffer.bytes().end(), std::uint8_t{0});
  std::copy(parsed.begin(), parsed.end(), buffer.data());
  app_->preprocess(item, buffer);
  return prepared_.emplace(item, std::move(buffer)).first->second;
}

double SerialReference::score(std::uint32_t left, std::uint32_t right) {
  const auto& a = prepared(left);
  const auto& b = prepared(right);
  return app_->postprocess(left, right, app_->compare(left, a, right, b));
}

PairGate::PairGate(std::uint32_t n)
    : n_(n),
      counts_(static_cast<std::size_t>(n) * (n - 1) / 2, 0),
      scores_(counts_.size(), 0.0) {}

std::uint64_t PairGate::index_of(std::uint32_t i, std::uint32_t j) const {
  const std::uint64_t row_start = static_cast<std::uint64_t>(i) * n_ -
                                  static_cast<std::uint64_t>(i) * (i + 1) / 2;
  return row_start + (j - i - 1);
}

void PairGate::deliver(const rocket::runtime::PairResult& result) {
  ++delivered_;
  std::uint32_t i = std::min(result.left, result.right);
  std::uint32_t j = std::max(result.left, result.right);
  if (i == j || j >= n_) {
    ++stray_;
    return;
  }
  const auto idx = index_of(i, j);
  if (counts_[idx] < 255) ++counts_[idx];
  scores_[idx] = result.score;
}

std::uint64_t PairGate::failed_pairs(SerialReference& reference,
                                     std::uint32_t sample_pairs,
                                     std::uint64_t sample_seed) const {
  std::vector<bool> bad(counts_.size(), false);
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    bad[k] = counts_[k] != 1 || !std::isfinite(scores_[k]);
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> sample;
  if (sample_pairs >= counts_.size()) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      for (std::uint32_t j = i + 1; j < n_; ++j) sample.emplace(i, j);
    }
  } else {
    rocket::Rng rng(sample_seed);
    while (sample.size() < sample_pairs) {
      const auto a = static_cast<std::uint32_t>(rng() % n_);
      const auto b = static_cast<std::uint32_t>(rng() % n_);
      if (a != b) sample.emplace(std::min(a, b), std::max(a, b));
    }
  }
  for (const auto& [i, j] : sample) {
    const auto idx = index_of(i, j);
    if (bad[idx]) continue;
    bad[idx] = std::bit_cast<std::uint64_t>(reference.score(i, j)) !=
               std::bit_cast<std::uint64_t>(scores_[idx]);
  }
  return stray_ +
         static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true));
}

}  // namespace perfbench
