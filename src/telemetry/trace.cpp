#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/json_writer.hpp"

namespace rocket::telemetry {

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRemoteSteal: return "remote_steal";
    case EventKind::kNodeDeath: return "node_death";
    case EventKind::kRegionRegrant: return "region_regrant";
    case EventKind::kRegionAdopt: return "region_adopt";
    case EventKind::kFetchRetry: return "fetch_retry";
    case EventKind::kMasterFailover: return "master_failover";
    case EventKind::kNodeSuspected: return "node_suspected";
    case EventKind::kNodeDegraded: return "node_degraded";
    case EventKind::kNodeRecovered: return "node_recovered";
    case EventKind::kRegionSpeculated: return "region_speculated";
  }
  return "unknown";
}

void EventLog::record(EventKind kind, std::uint32_t a, std::uint32_t b) {
  const double t = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - process_epoch())
                       .count();
  std::scoped_lock lock(mutex_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(TraceEvent{kind, t, a, b});
}

std::vector<TraceEvent> EventLog::events() const {
  std::scoped_lock lock(mutex_);
  return events_;
}

void TraceExporter::add_node(std::uint32_t node, NodeTrace trace) {
  nodes_.emplace_back(node, std::move(trace));
}

std::string TraceExporter::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const auto& [node, trace] : nodes_) {
    const std::string process = "node " + std::to_string(node);
    w.begin_object();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", node);
    w.key("args");
    w.begin_object();
    w.field("name", process);
    w.end_object();
    w.end_object();

    for (std::size_t lane = 0; lane < trace.lanes.size(); ++lane) {
      w.begin_object();
      w.field("name", "thread_name");
      w.field("ph", "M");
      w.field("pid", node);
      w.field("tid", static_cast<std::uint64_t>(lane));
      w.key("args");
      w.begin_object();
      w.field("name", trace.lanes[lane].name);
      w.end_object();
      w.end_object();
    }

    for (std::size_t lane = 0; lane < trace.lanes.size(); ++lane) {
      for (const auto& span : trace.lanes[lane].spans) {
        const double ts_us = (trace.epoch_offset_s + span.start) * 1e6;
        const double dur_us = std::max(span.end - span.start, 0.0) * 1e6;
        w.begin_object();
        w.field("name", runtime::task_kind_name(span.kind));
        w.field("ph", "X");
        w.field("pid", node);
        w.field("tid", static_cast<std::uint64_t>(lane));
        w.field("ts", ts_us);
        w.field("dur", dur_us);
        w.end_object();
      }
    }

    // Events already carry process-epoch time; park them on a tid past the
    // lane range so they render as their own row.
    const auto event_tid = static_cast<std::uint64_t>(trace.lanes.size());
    for (const auto& ev : trace.events) {
      w.begin_object();
      w.field("name", event_kind_name(ev.kind));
      w.field("ph", "i");
      w.field("s", "p");
      w.field("pid", node);
      w.field("tid", event_tid);
      w.field("ts", ev.t * 1e6);
      w.key("args");
      w.begin_object();
      w.field("a", ev.a);
      w.field("b", ev.b);
      w.end_object();
      w.end_object();
    }

    // Sampled causal spans (§16) on their own lane past the events row.
    // Times are already process-epoch relative; zero-width spans get a
    // 1 us floor so Perfetto keeps them clickable as flow endpoints.
    if (!trace.causal_spans.empty()) {
      const auto causal_tid = event_tid + 1;
      w.begin_object();
      w.field("name", "thread_name");
      w.field("ph", "M");
      w.field("pid", node);
      w.field("tid", causal_tid);
      w.key("args");
      w.begin_object();
      w.field("name", "causal");
      w.end_object();
      w.end_object();
      for (const auto& span : trace.causal_spans) {
        w.begin_object();
        w.field("name", span_phase_name(span.phase));
        w.field("cat", "causal");
        w.field("ph", "X");
        w.field("pid", node);
        w.field("tid", causal_tid);
        w.field("ts", span.start * 1e6);
        w.field("dur", std::max((span.end - span.start) * 1e6, 1.0));
        w.key("args");
        w.begin_object();
        w.field("trace", hex_id(span.ctx.trace_id));
        w.field("span", hex_id(span.ctx.span_id));
        w.field("parent", hex_id(span.ctx.parent_id));
        w.field("aborted", span.aborted);
        w.end_object();
        w.end_object();
      }
    }
  }

  // Flow arrows: a span whose parent closed on a DIFFERENT node is a
  // causal edge across the wire. The "s" step attaches inside the parent
  // slice, the "f" step (bp:"e") inside the child slice; Perfetto matches
  // them by (cat, id).
  struct FlowEnd {
    std::uint32_t node;
    std::uint64_t tid;
    double start;
    double end;
  };
  std::unordered_map<std::uint64_t, FlowEnd> by_span;
  for (const auto& [node, trace] : nodes_) {
    const auto causal_tid = static_cast<std::uint64_t>(trace.lanes.size()) + 1;
    for (const auto& span : trace.causal_spans) {
      by_span[span.ctx.span_id] =
          FlowEnd{node, causal_tid, span.start, span.end};
    }
  }
  for (const auto& [node, trace] : nodes_) {
    const auto causal_tid = static_cast<std::uint64_t>(trace.lanes.size()) + 1;
    for (const auto& span : trace.causal_spans) {
      if (span.ctx.parent_id == 0) continue;
      const auto parent = by_span.find(span.ctx.parent_id);
      if (parent == by_span.end() || parent->second.node == node) continue;
      const double step_ts =
          std::clamp(span.start, parent->second.start, parent->second.end);
      w.begin_object();
      w.field("name", "causal");
      w.field("cat", "causal");
      w.field("ph", "s");
      w.field("id", hex_id(span.ctx.span_id));
      w.field("pid", parent->second.node);
      w.field("tid", parent->second.tid);
      w.field("ts", step_ts * 1e6);
      w.end_object();
      w.begin_object();
      w.field("name", "causal");
      w.field("cat", "causal");
      w.field("ph", "f");
      w.field("bp", "e");
      w.field("id", hex_id(span.ctx.span_id));
      w.field("pid", node);
      w.field("tid", causal_tid);
      w.field("ts", span.start * 1e6);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool TraceExporter::write_file(const std::string& path) const {
  return JsonWriter::write_string_to_file(path, to_json());
}

}  // namespace rocket::telemetry
