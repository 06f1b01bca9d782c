#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

constexpr int kPid = 1000;

std::atomic<std::uint64_t> next_log_id{1};

struct LocalBuffer {
  std::uint64_t log_id = 0;
  void* buffer = nullptr;
};
thread_local LocalBuffer tls_buffer;

std::int64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRead: return "store.read";
    case SpanKind::kAppend: return "store.append";
    case SpanKind::kParse: return "app.parse";
    case SpanKind::kPreprocess: return "app.preprocess";
    case SpanKind::kCompare: return "app.compare";
    case SpanKind::kDeliver: return "master.deliver";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog()
    : id_(next_log_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(rocket::telemetry::process_epoch()) {}

SpanLog::Buffer& SpanLog::local() {
  if (tls_buffer.log_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint16_t>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(4096);
    tls_buffer = {id_, buffers_.back().get()};
  }
  return *static_cast<Buffer*>(tls_buffer.buffer);
}

void SpanLog::record(SpanKind kind, std::uint32_t left, std::uint32_t right,
                     Clock::time_point start, Clock::time_point end) {
  Buffer& buffer = local();
  buffer.spans.push_back(Span{ns_since(epoch_, start), ns_since(epoch_, end),
                              left, right, buffer.thread, kind});
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  // pid kPid keeps the decorator lanes apart from the program's own
  // traces, whose pids are node ids.
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
               "\"args\":{\"name\":\"perfbench decorators\"}}",
               kPid);
  for (const Span& s : spans()) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                 span_name(s.kind), kPid,
                 static_cast<unsigned>(s.thread), s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3);
    if (s.right != kNoId) {
      std::fprintf(out, ",\"args\":{\"left\":%u,\"right\":%u}}", s.left,
                   s.right);
    } else if (s.left != kNoId) {
      std::fprintf(out, ",\"args\":{\"item\":%u}}", s.left);
    } else {
      std::fputs("}", out);
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

LatencySummary summarize_us(std::vector<double> durations_us) {
  LatencySummary s;
  s.count = durations_us.size();
  if (durations_us.empty()) return s;
  std::sort(durations_us.begin(), durations_us.end());
  for (const double d : durations_us) s.busy_s += d * 1e-6;
  const auto at = [&](double pct) {
    const auto idx = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(durations_us.size())));
    return std::min(durations_us.size() - 1, idx == 0 ? 0 : idx - 1);
  };
  s.p50_us = durations_us[at(50.0)];
  s.tail_pct = 50.0;
  s.tail_us = s.p50_us;
  s.beyond_tail = durations_us.size() - 1 - at(50.0);
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const std::size_t beyond = durations_us.size() - 1 - at(pct);
    if (beyond >= 10) {
      s.tail_pct = pct;
      s.tail_us = durations_us[at(pct)];
      s.beyond_tail = beyond;
      break;
    }
  }
  return s;
}

}  // namespace perfbench
