#include "telemetry/run_summary.hpp"

#include <cstddef>
#include <utility>

#include "common/json_writer.hpp"
#include "net/tag.hpp"

namespace rocket::telemetry {

namespace {

void write_cache_stats(JsonWriter& w, const cache::CacheStats& s) {
  w.begin_object()
      .field("hits", s.hits)
      .field("write_waits", s.write_waits)
      .field("fills", s.fills)
      .field("evictions", s.evictions)
      .field("alloc_stalls", s.alloc_stalls)
      .field("failures", s.failures)
      .end_object();
}

void write_traffic(JsonWriter& w, const net::TrafficCounters& traffic) {
  w.begin_object();
  w.field("messages", traffic.total_messages())
      .field("bytes", traffic.total_bytes())
      .field("raw_bytes", traffic.total_raw_bytes());
  w.key("per_tag").begin_array();
  for (std::size_t i = 0; i < static_cast<std::size_t>(net::Tag::kCount);
       ++i) {
    const auto& t = traffic.per_tag[i];
    if (t.messages == 0) continue;
    w.begin_object()
        .field("tag", net::tag_name(static_cast<net::Tag>(i)))
        .field("messages", t.messages)
        .field("bytes", t.bytes)
        .field("raw_bytes", t.raw_bytes)
        .end_object();
  }
  w.end_array();
  w.end_object();
}

void write_metrics(JsonWriter& w, const MetricsSnapshot& m) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : m.counters) w.field(name, value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : m.gauges) w.field(name, value);
  w.end_object();
  w.key("histograms").begin_array();
  for (const auto& h : m.histograms) {
    w.begin_object()
        .field("name", h.name)
        .field("count", h.count)
        .field("mean_s", h.mean_seconds())
        .field("p50_s", h.quantile_seconds(0.50))
        .field("p99_s", h.quantile_seconds(0.99))
        .field("min_s", h.count == 0 ? 0.0 : static_cast<double>(h.min_ns) *
                                                 1e-9)
        .field("max_s", static_cast<double>(h.max_ns) * 1e-9)
        .end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

RunSummary RunSummary::from_node(
    std::string app, const runtime::NodeRuntime::Report& report) {
  RunSummary s;
  s.app = std::move(app);
  s.mode = "single_node";
  s.num_nodes = 1;
  s.report.pairs = report.pairs;
  s.report.wall_seconds = report.wall_seconds;
  s.report.loads = report.loads;
  s.report.peer_loads = report.peer_loads;
  s.report.remote_steals = report.steal.remote_steals;
  s.report.host_cache = report.host_cache;
  s.report.cache_fast_hits = report.cache_fast_hits;
  s.report.stall_seconds = report.stall_seconds;
  s.report.load_retries = report.load_retries;
  s.report.failed_loads = report.failed_loads;
  s.report.metrics = report.metrics;
  s.report.nodes.push_back(report);
  return s;
}

RunSummary RunSummary::from_cluster(std::string app, std::uint32_t num_nodes,
                                    mesh::LiveClusterReport report) {
  RunSummary s;
  s.app = std::move(app);
  s.mode = "live_cluster";
  s.num_nodes = num_nodes;
  s.report = std::move(report);
  return s;
}

std::string RunSummary::to_json() const {
  const auto& r = report;
  JsonWriter w;
  w.begin_object();
  w.field("schema", kSchema)
      .field("app", app)
      .field("mode", mode)
      .field("num_nodes", num_nodes)
      .field("pairs", r.pairs)
      .field("wall_seconds", r.wall_seconds)
      .field("pairs_per_sec",
             r.wall_seconds > 0.0
                 ? static_cast<double>(r.pairs) / r.wall_seconds
                 : 0.0)
      .field("loads", r.loads)
      .field("peer_loads", r.peer_loads)
      .field("remote_steals", r.remote_steals)
      .field("cache_fast_hits", r.cache_fast_hits)
      .field("stall_seconds", r.stall_seconds);

  w.key("host_cache");
  write_cache_stats(w, r.host_cache);

  w.key("directory")
      .begin_object()
      .field("requests", r.directory.requests)
      .field("empty_responses", r.directory.empty_responses)
      .field("chain_hits", r.directory.chain_hits)
      .field("chain_misses", r.directory.chain_misses)
      .field("hops", r.directory.hops)
      .field("chain_aborts", r.directory.chain_aborts)
      .end_object();

  w.key("peer_cache")
      .begin_object()
      .field("requests", r.peer_cache.requests)
      .field("chain_hits", r.peer_cache.chain_hits)
      .field("chain_misses", r.peer_cache.chain_misses)
      .field("retries", r.peer_cache.retries)
      .field("timeouts", r.peer_cache.timeouts);
  w.key("hits_at_hop").begin_array();
  for (const auto h : r.peer_cache.hits_at_hop) w.value(h);
  w.end_array();
  w.end_object();

  w.key("failover")
      .begin_object()
      .field("node_deaths", r.failover.node_deaths)
      .field("regions_reexecuted", r.failover.regions_reexecuted)
      .field("duplicate_results_dropped",
             r.failover.duplicate_results_dropped)
      .field("results_received", r.failover.results_received)
      .field("regions_adopted", r.failover.regions_adopted)
      .field("master_failovers", r.failover.master_failovers)
      .field("corrupted_frames", r.corrupted_frames)
      .end_object();

  w.key("health")
      .begin_object()
      .field("nodes_suspected", r.failover.nodes_suspected)
      .field("nodes_degraded", r.nodes_degraded)
      .field("nodes_recovered", r.nodes_recovered)
      .field("steals_avoided_degraded", r.steals_avoided_degraded)
      .field("load_retries", r.load_retries)
      .field("failed_loads", r.failed_loads)
      .end_object();

  w.key("speculation")
      .begin_object()
      .field("regions", r.regions_speculated)
      .field("pairs", r.failover.pairs_speculated)
      .field("duplicate_results_dropped", r.duplicate_results_dropped)
      .end_object();

  w.key("checkpoint")
      .begin_object()
      .field("enabled", r.checkpoint.enabled)
      .field("resumed", r.checkpoint.resumed)
      .field("torn_tail", r.checkpoint.torn_tail)
      .field("pairs_recovered", r.checkpoint.pairs_recovered)
      .field("records_replayed", r.checkpoint.records_replayed)
      .field("records_appended", r.checkpoint.records_appended)
      .end_object();

  w.key("traffic");
  write_traffic(w, r.traffic);

  w.key("node_traffic").begin_array();
  for (const auto& t : r.node_traffic) write_traffic(w, t);
  w.end_array();

  w.key("metrics");
  write_metrics(w, r.metrics);

  // Critical-path attribution (DESIGN.md §16). Always present so the
  // schema check is unconditional; with tracing off the window is 100%
  // idle and slowest_tiles is empty. Percentages sum to 100 by
  // construction (idle is the uncovered remainder).
  w.key("critical_path").begin_object();
  w.field("wall_seconds", r.critical_path.window_seconds)
      .field("spans_analyzed",
             static_cast<std::uint64_t>(r.critical_path.spans_analyzed))
      .field("spans_aborted", r.spans_aborted)
      .field("flight_dumps", r.flight_dumps);
  w.key("phases").begin_array();
  for (std::size_t i = 0; i < kPathPhases; ++i) {
    const auto phase = static_cast<PathPhase>(i);
    w.begin_object()
        .field("phase", path_phase_name(phase))
        .field("seconds", r.critical_path.phases[i].seconds)
        .field("percent", r.critical_path.phases[i].percent)
        .end_object();
  }
  w.end_array();
  w.key("slowest_tiles").begin_array();
  for (const auto& tile : r.critical_path.slowest) {
    w.begin_object()
        .field("trace", tile.trace_id)
        .field("node", tile.node)
        .field("seconds", tile.seconds);
    w.key("chain").begin_array();
    for (const auto& span : tile.chain) {
      w.begin_object()
          .field("phase", span_phase_name(span.phase))
          .field("node", span.node)
          .field("start", span.start)
          .field("end", span.end)
          .field("aborted", span.aborted)
          .end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("nodes").begin_array();
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    const auto& node = r.nodes[i];
    w.begin_object()
        .field("node", static_cast<std::uint64_t>(i))
        .field("pairs", node.pairs)
        .field("tiles", node.tiles)
        .field("loads", node.loads)
        .field("peer_loads", node.peer_loads)
        .field("wall_seconds", node.wall_seconds)
        .field("stall_seconds", node.stall_seconds)
        .field("acquire_retries", node.acquire_retries)
        .field("load_retries", node.load_retries)
        .field("failed_loads", node.failed_loads)
        .field("spans_dropped", node.spans_dropped);
    w.key("host_cache");
    write_cache_stats(w, node.host_cache);
    w.key("steal")
        .begin_object()
        .field("leaves", node.steal.leaves)
        .field("steals", node.steal.steals)
        .field("remote_steals", node.steal.remote_steals)
        .field("failed_steal_sweeps", node.steal.failed_steal_sweeps)
        .end_object();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

bool RunSummary::write_file(const std::string& path) const {
  return JsonWriter::write_string_to_file(path, to_json());
}

}  // namespace rocket::telemetry
