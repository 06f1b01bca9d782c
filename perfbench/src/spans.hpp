#pragma once

// Benchmark-side spans for the traced run. The decorators in
// decorators.hpp record one span around every call the runtime makes into
// the object store and the application, and the master callback records
// one per delivered pair. Spans are kept in per-thread buffers (no lock on
// the hot path) and read out once the run has quiesced.
//
// Times are on the program's own trace timeline (telemetry::process_epoch),
// so the Chrome trace written here loads in Perfetto beside the program's
// traces.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class SpanKind : std::uint8_t {
  kRead,        // ObjectStore::read of an input file
  kAppend,      // ObjectStore::append of a journal record
  kParse,       // Application::parse
  kPreprocess,  // Application::preprocess
  kCompare,     // Application::compare
  kDeliver,     // master callback for one pair
  kCount
};

const char* span_name(SpanKind kind);

inline constexpr std::uint32_t kNoId = ~std::uint32_t{0};

struct Span {
  std::int64_t start_ns = 0;  // since telemetry::process_epoch()
  std::int64_t end_ns = 0;
  std::uint32_t left = kNoId;   // item id, pair left, or append sequence
  std::uint32_t right = kNoId;  // pair right (compare, deliver)
  std::uint16_t thread = 0;     // benchmark-assigned thread index
  SpanKind kind = SpanKind::kRead;
};

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Thread-safe; each thread appends to its own buffer.
  void record(SpanKind kind, std::uint32_t left, std::uint32_t right,
              Clock::time_point start, Clock::time_point end);

  /// Every span, grouped by thread. Call only once recording has stopped.
  std::vector<Span> spans() const;

  /// Chrome trace_event JSON ("X" events, pid 0, tid = thread index).
  bool write_chrome(const std::string& path) const;

 private:
  struct Buffer {
    std::uint16_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  const std::uint64_t id_;  // keys the thread-local buffer cache
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

/// Latency summary of one layer: the median plus the highest of the
/// percentiles {99.9, 99, 95, 90, 75} that has at least ten samples
/// beyond it (the median when none has).
struct LatencySummary {
  std::uint64_t count = 0;
  double busy_s = 0.0;
  double p50_us = 0.0;
  double tail_us = 0.0;
  double tail_pct = 0.0;
  std::uint64_t beyond_tail = 0;  // samples above the tail percentile
};

LatencySummary summarize_us(std::vector<double> durations_us);

}  // namespace perfbench
