#pragma once

// Cluster-wide trace export (DESIGN.md §13): every node's Profiler lanes
// plus the discrete scheduling/failover events of a run, serialised into
// one Chrome trace_event JSON that Perfetto / chrome://tracing loads
// directly — the live, multi-node rendering of the paper's Fig 6.
//
// Alignment: each Profiler stamps spans relative to its own construction
// epoch, and every node of an in-process cluster shares one steady clock.
// process_epoch() pins a single process-wide origin (first call wins;
// LiveCluster pins it before any node starts), NodeTrace carries the
// node's profiler-epoch offset from that origin, and the exporter emits
// ts = (offset + span.start) so all nodes land on one timeline.
//
// Mapping: trace pid = node id (one "process" per node), tid = lane index
// within the node; lanes become "X" complete events, EventLog entries
// become "i" instant events on a dedicated events lane.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/profiler.hpp"
#include "telemetry/span.hpp"

namespace rocket::telemetry {

/// Process-wide trace origin (steady clock). The first caller pins it.
std::chrono::steady_clock::time_point process_epoch();

/// Discrete events worth seeing on a timeline: scheduling decisions and
/// failover verdicts that have no duration of their own.
enum class EventKind : std::uint8_t {
  kRemoteSteal,   // a: worker, b: 1 = got a region
  kNodeDeath,     // a: dead node (recorded by the master's detector)
  kRegionRegrant, // a: survivor granted to, b: pair count (saturated)
  kRegionAdopt,   // a: adopting node
  kFetchRetry,    // a: item id (peer fetch retransmitted)
  kMasterFailover,  // a: adopting node, b: failover epoch (DESIGN.md §14)
  kNodeSuspected,   // a: node below the health rate threshold (§15)
  kNodeDegraded,    // a: node confirmed as a straggler
  kNodeRecovered,   // a: node back above the recovery threshold
  kRegionSpeculated,  // a: healthy node granted to, b: pairs (saturated)
};

const char* event_kind_name(EventKind kind);

struct TraceEvent {
  EventKind kind = EventKind::kRemoteSteal;
  double t = 0.0;  // seconds since process_epoch()
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Bounded, thread-safe event sink; one per node. Events are rare (steals,
/// deaths, verdicts — not per-pair), so a mutex is fine; the cap guards
/// against a pathological run flooding the trace.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 1u << 16)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(EventKind kind, std::uint32_t a = 0, std::uint32_t b = 0);

  std::vector<TraceEvent> events() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// One node's contribution to the cluster trace (rides in the node's
/// Report).
struct NodeTrace {
  /// This node's profiler epoch minus process_epoch(), in seconds — what
  /// shifts its spans onto the shared timeline.
  double epoch_offset_s = 0.0;
  std::vector<runtime::Profiler::LaneView> lanes;
  std::vector<TraceEvent> events;
  /// Sampled causal spans (DESIGN.md §16). Already on the process
  /// timeline — no epoch offset applies. Rendered on a dedicated
  /// "causal" lane, with "s"/"f" flow arrows between nodes wherever a
  /// span's parent lives on a different node.
  std::vector<SpanRecord> causal_spans;
  std::uint64_t spans_dropped = 0;
};

/// Folds NodeTraces into one Chrome trace_event JSON document.
class TraceExporter {
 public:
  void add_node(std::uint32_t node, NodeTrace trace);

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — ts/dur in
  /// microseconds since process_epoch(), pid = node, tid = lane.
  std::string to_json() const;

  bool write_file(const std::string& path) const;

 private:
  std::vector<std::pair<std::uint32_t, NodeTrace>> nodes_;
};

}  // namespace rocket::telemetry
