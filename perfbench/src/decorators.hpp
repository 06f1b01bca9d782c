#pragma once

// Decorators that sit between the runtime and the program's `apps` and
// `storage` layers. The store decorator always counts reads and appends
// (its read count is the end-to-end reuse factor). Both read the clock
// around each call and record a span into a SpanLog only in the traced
// run, so an untraced run pays a clock read and a branch per call.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/application.hpp"
#include "spans.hpp"
#include "storage/object_store.hpp"

namespace perfbench {

class TimedStore final : public rocket::storage::ObjectStore {
 public:
  /// `ids` maps object names to item ids for the read spans (may be empty,
  /// e.g. for the journal store). `log` may be null (untraced).
  TimedStore(rocket::storage::ObjectStore& inner, SpanLog* log,
             const std::unordered_map<std::string, std::uint32_t>* ids)
      : inner_(&inner), log_(log), ids_(ids) {}

  rocket::ByteBuffer read(const std::string& name) override {
    const auto t0 = Clock::now();
    rocket::ByteBuffer bytes = inner_->read(name);
    if (log_ != nullptr) {
      log_->record(SpanKind::kRead, id_of(name), kNoId, t0, Clock::now());
    }
    reads_.fetch_add(1, std::memory_order_relaxed);
    read_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
    return bytes;
  }
  bool exists(const std::string& name) const override {
    return inner_->exists(name);
  }
  rocket::Bytes size_of(const std::string& name) const override {
    return inner_->size_of(name);
  }
  std::vector<std::string> list() const override { return inner_->list(); }

  bool supports_write() const override { return inner_->supports_write(); }
  void put(const std::string& name, const rocket::ByteBuffer& data) override {
    inner_->put(name, data);
  }
  void append(const std::string& name,
              const rocket::ByteBuffer& data) override {
    const auto t0 = Clock::now();
    inner_->append(name, data);
    const auto seq = appends_.fetch_add(1, std::memory_order_relaxed);
    if (log_ != nullptr) {
      log_->record(SpanKind::kAppend, static_cast<std::uint32_t>(seq), kNoId,
                   t0, Clock::now());
    }
    append_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  }

  std::uint64_t reads() const { return reads_.load(); }
  std::uint64_t read_bytes() const { return read_bytes_.load(); }
  std::uint64_t appends() const { return appends_.load(); }
  std::uint64_t append_bytes() const { return append_bytes_.load(); }

 private:
  std::uint32_t id_of(const std::string& name) const {
    if (ids_ == nullptr) return kNoId;
    const auto it = ids_->find(name);
    return it == ids_->end() ? kNoId : it->second;
  }

  rocket::storage::ObjectStore* inner_;
  SpanLog* log_;
  const std::unordered_map<std::string, std::uint32_t>* ids_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> read_bytes_{0};
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> append_bytes_{0};
};

/// One pair whose compare result the decorator nudges by one ulp: the
/// correctness gate's self-test.
struct Perturbation {
  std::uint32_t left = 0;
  std::uint32_t right = 0;
};

class TimedApp final : public rocket::runtime::Application {
 public:
  TimedApp(const rocket::runtime::Application& inner, SpanLog* log,
           std::optional<Perturbation> perturb)
      : inner_(&inner), log_(log), perturb_(perturb) {}

  std::string name() const override { return inner_->name(); }
  std::uint32_t item_count() const override { return inner_->item_count(); }
  std::string file_name(rocket::runtime::ItemId item) const override {
    return inner_->file_name(item);
  }
  rocket::Bytes slot_size() const override { return inner_->slot_size(); }

  void parse(rocket::runtime::ItemId item, const rocket::ByteBuffer& file,
             rocket::runtime::HostBuffer& out) const override {
    const auto t0 = Clock::now();
    inner_->parse(item, file, out);
    if (log_ != nullptr) {
      log_->record(SpanKind::kParse, item, kNoId, t0, Clock::now());
    }
  }
  void preprocess(rocket::runtime::ItemId item,
                  rocket::gpu::DeviceBuffer& data) const override {
    const auto t0 = Clock::now();
    inner_->preprocess(item, data);
    if (log_ != nullptr) {
      log_->record(SpanKind::kPreprocess, item, kNoId, t0, Clock::now());
    }
  }
  double compare(rocket::runtime::ItemId left,
                 const rocket::gpu::DeviceBuffer& left_data,
                 rocket::runtime::ItemId right,
                 const rocket::gpu::DeviceBuffer& right_data) const override {
    const auto t0 = Clock::now();
    double score = inner_->compare(left, left_data, right, right_data);
    if (log_ != nullptr) {
      log_->record(SpanKind::kCompare, left, right, t0, Clock::now());
    }
    if (perturb_ && perturb_->left == left && perturb_->right == right) {
      score = std::nextafter(score, HUGE_VAL);
    }
    return score;
  }
  double postprocess(rocket::runtime::ItemId left,
                     rocket::runtime::ItemId right,
                     double score) const override {
    return inner_->postprocess(left, right, score);
  }

 private:
  const rocket::runtime::Application* inner_;
  SpanLog* log_;
  std::optional<Perturbation> perturb_;
};

}  // namespace perfbench
