// Live multi-node mesh demo: the forensics workload (paper §5.1) on an
// in-process cluster of N node runtimes, with the §4.1.3 distributed
// cache, cross-node work stealing and master-side result aggregation.
//
// Prints the per-tag traffic table (same net::Tag taxonomy as the
// simulated fabric, so rows are comparable with cluster_sim_demo), the
// mediator-directory hit rate, and per-node execution detail, then
// verifies the mesh result multiset against a single-node run.
//
//   $ ./live_mesh_demo [--nodes 4] [--cameras 4] [--images 8]
//                      [--cache-shards 0]   (0 = auto: min(16, hw threads))
//                      [--kill-node N]      (chaos: kill node N mid-run;
//                                            N >= 1, or 0 == --kill-master)
//                      [--kill-master]      (chaos: kill node 0 mid-run; the
//                                            lowest live node adopts the
//                                            master role, DESIGN.md §14)
//                      [--kill-after T]     (seconds until the kill, 0.02;
//                                            must land inside the run — a
//                                            mid-run kill stretches the run
//                                            until recovery completes)
//                      [--kill-all-after T] (chaos: kill EVERY node, staggered
//                                            from T; pair with
//                                            --checkpoint-dir, then rerun with
//                                            --resume to finish the job)
//                      [--checkpoint-dir D] (crash-safe run journal under D,
//                                            DESIGN.md §14)
//                      [--resume]           (replay the journal first; only
//                                            the remaining frontier runs)
//                      [--corrupt-rate R]   (chaos: deliver this fraction of
//                                            frames corrupted first — the CRC
//                                            check drops them)
//                      [--slow-node N]      (grey failure: node N stays alive
//                                            but runs --slow-factor x slower;
//                                            the health machine marks it
//                                            degraded and speculates its
//                                            backlog, DESIGN.md §15)
//                      [--slow-factor F]    (kernel stretch for --slow-node,
//                                            10.0)
//                      [--no-speculation]   (keep the binary alive/dead model:
//                                            no health verdicts, no straggler
//                                            speculation — baseline for the
//                                            --slow-node comparison)
//                      [--flaky-rate R]     (grey failure: this fraction of
//                                            object-store reads throws a
//                                            transient error; the load
//                                            pipeline retries with backoff)
//                      [--live-stats]       (stream per-node cluster
//                                            snapshots mid-run, DESIGN §13)
//                      [--snapshot-interval T]  (seconds, 0.2)
//                      [--trace-out F]      (Chrome trace_event JSON of all
//                                            nodes on one aligned timeline;
//                                            load in Perfetto/about:tracing)
//                      [--summary-out F]    (rocket.run_summary/1 JSON)
//                      [--trace-sample N]   (causal tracing, DESIGN.md §16:
//                                            every Nth tile/item/steal gets a
//                                            full cross-node span DAG; with
//                                            --trace-out the spans render as
//                                            Perfetto flow arrows; 1 = all)
//                      [--critical-path]    (print the critical-path
//                                            attribution table and the
//                                            slowest sampled tiles' causal
//                                            chains; defaults --trace-sample
//                                            to 1 when unset)
//                      [--metrics-out F]    (Prometheus text exposition 0.0.4
//                                            of the cluster-merged metrics
//                                            registry)

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json_writer.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "apps/forensics.hpp"
#include "rocket/rocket.hpp"
#include "telemetry/run_summary.hpp"
#include "telemetry/trace.hpp"

namespace {

// Mid-run snapshot printer (--live-stats): one block per ClusterSnapshot,
// rewritten in place on a tty (cursor-up), appended otherwise. Runs on the
// master's service thread, so printing needs no extra serialisation.
class LiveStatsPrinter {
 public:
  void print(const rocket::telemetry::ClusterSnapshot& snap) {
    tty_ = isatty(fileno(stdout)) != 0;
    if (tty_ && lines_ > 0) std::printf("\x1b[%zuA", lines_);
    lines_ = 0;
    emit("[snapshot %llu @ %.1fs] %llu pairs done, %.0f pairs/s cluster-wide",
         static_cast<unsigned long long>(snap.seq), snap.uptime_seconds,
         static_cast<unsigned long long>(snap.total_pairs),
         snap.cluster_pairs_per_sec);
    for (const auto& node : snap.nodes) {
      // Health column: A(live) / S(uspected) / D(egraded) / X (dead),
      // DESIGN.md §15.
      emit("  node %u %-5s %c %8.0f pairs/s  busy %5.1f%%  cache hit %5.1f%%  "
           "in-flight %lld  queue %lld  steals %llu",
           node.node, node.alive ? "alive" : "DEAD",
           rocket::telemetry::health_letter(node.health), node.pairs_per_sec,
           100.0 * node.busy_fraction, 100.0 * node.cache_hit_rate,
           static_cast<long long>(node.stats.in_flight_tiles),
           static_cast<long long>(node.stats.result_queue_depth),
           static_cast<unsigned long long>(node.stats.remote_steals));
    }
    std::fflush(stdout);
  }

 private:
  template <typename... Args>
  void emit(const char* fmt, Args... args) {
    if (tty_) std::printf("\x1b[K");  // clear stale tail when rewriting
    std::printf(fmt, args...);
    std::printf("\n");
    ++lines_;
  }

  bool tty_ = false;
  std::size_t lines_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const rocket::Options opts(argc, argv);
  const auto nodes = static_cast<std::uint32_t>(opts.get_int("nodes", 4));
  rocket::apps::ForensicsConfig fc;
  fc.cameras = static_cast<std::uint32_t>(opts.get_int("cameras", 4));
  fc.images_per_camera = static_cast<std::uint32_t>(opts.get_int("images", 8));
  fc.width = 128;
  fc.height = 96;
  fc.seed = static_cast<std::uint64_t>(opts.get_int("seed", 17));

  std::printf("generating %u photos from %u cameras...\n",
              fc.cameras * fc.images_per_camera, fc.cameras);
  rocket::storage::MemoryStore store;
  rocket::apps::ForensicsDataset dataset(fc, store);
  rocket::apps::ForensicsApplication app(dataset);

  using ResultMap = std::map<std::pair<rocket::ItemId, rocket::ItemId>, double>;

  // Single-node reference over the same store.
  rocket::Rocket::Config single_cfg;
  single_cfg.host_cache_capacity = rocket::megabytes(64);
  single_cfg.cpu_threads = 2;
  rocket::Rocket single(single_cfg);
  ResultMap reference;
  std::mutex mutex;
  const auto single_report =
      single.run_all_pairs(app, store, [&](const rocket::PairResult& r) {
        std::scoped_lock lock(mutex);
        reference[{r.left, r.right}] = r.score;
      });

  // The live mesh: same workload, N nodes in this process.
  rocket::LiveCluster::Config mesh_cfg;
  mesh_cfg.num_nodes = nodes;
  mesh_cfg.node.host_cache_capacity = rocket::megabytes(64);
  mesh_cfg.node.cpu_threads = 2;
  mesh_cfg.node.cache_shards =
      static_cast<std::uint32_t>(opts.get_int("cache-shards", 0));

  // Telemetry surfaces (DESIGN.md §13).
  const bool live_stats = opts.get_bool("live-stats", false);
  const std::string trace_out = opts.get("trace-out", "");
  const std::string summary_out = opts.get("summary-out", "");
  LiveStatsPrinter stats_printer;
  if (live_stats) {
    mesh_cfg.snapshot_interval_s = opts.get_double("snapshot-interval", 0.2);
    mesh_cfg.on_cluster_snapshot =
        [&stats_printer](const rocket::telemetry::ClusterSnapshot& snap) {
          stats_printer.print(snap);
        };
  }
  if (!trace_out.empty()) mesh_cfg.node.trace = true;

  // Causal tracing (DESIGN.md §16). --critical-path without an explicit
  // sampling rate traces everything — an attribution table over zero
  // spans would be 100% idle and useless.
  const bool print_critical_path = opts.get_bool("critical-path", false);
  const std::string metrics_out = opts.get("metrics-out", "");
  mesh_cfg.trace_sample_n =
      static_cast<std::uint32_t>(opts.get_int("trace-sample", 0));
  if (print_critical_path && mesh_cfg.trace_sample_n == 0) {
    mesh_cfg.trace_sample_n = 1;
  }
  if (mesh_cfg.trace_sample_n > 0) {
    std::printf("tracing: every %s tile gets a causal span DAG\n",
                mesh_cfg.trace_sample_n == 1
                    ? "single"
                    : (std::to_string(mesh_cfg.trace_sample_n) + "th")
                          .c_str());
  }

  // Durability (DESIGN.md §14): a write-ahead journal under
  // --checkpoint-dir; --resume replays it and runs only the remainder.
  const std::string checkpoint_dir = opts.get("checkpoint-dir", "");
  std::unique_ptr<rocket::storage::DirectoryStore> checkpoint_store;
  if (!checkpoint_dir.empty()) {
    checkpoint_store =
        std::make_unique<rocket::storage::DirectoryStore>(checkpoint_dir);
    mesh_cfg.checkpoint_store = checkpoint_store.get();
    mesh_cfg.resume = opts.get_bool("resume", false);
    std::printf("journal: %s/%s%s\n", checkpoint_dir.c_str(),
                mesh_cfg.checkpoint_name.c_str(),
                mesh_cfg.resume ? " (resuming)" : "");
  } else if (opts.get_bool("resume", false)) {
    std::printf("--resume needs --checkpoint-dir\n");
    return 1;
  }
  mesh_cfg.frame_corrupt_rate = opts.get_double("corrupt-rate", 0.0);

  // Grey failure (DESIGN.md §15): a straggler that stays alive but slow,
  // and/or an object store with transient read errors. The health machine
  // rides on the telemetry snapshot stream, so --slow-node turns it on.
  const auto slow_node = opts.get_int("slow-node", -1);
  const double slow_factor = opts.get_double("slow-factor", 10.0);
  const bool no_speculation = opts.get_bool("no-speculation", false);
  const double flaky_rate = opts.get_double("flaky-rate", 0.0);
  if (slow_node >= 0) {
    if (slow_node >= static_cast<std::int64_t>(nodes)) {
      std::printf("--slow-node must name a node (0..%u)\n", nodes - 1);
      return 1;
    }
    mesh_cfg.slow_node = static_cast<rocket::mesh::NodeId>(slow_node);
    mesh_cfg.slow_factor = slow_factor;
    mesh_cfg.slow_store_latency_us = 200;
    if (!no_speculation) {
      mesh_cfg.degraded_rate_fraction = 0.35;
      mesh_cfg.suspect_intervals = 2;
      // Aggressive drain: undelivered backlog coalesces into row runs, so
      // a straggler owes many small regions — peel a wide slice each
      // interval or the rescue trickles behind the blocked steal path.
      mesh_cfg.speculation_regions_per_interval = 8;
      if (mesh_cfg.snapshot_interval_s <= 0.0) {
        mesh_cfg.snapshot_interval_s = 0.02;  // health needs the rate stream
      }
    }
    std::printf("chaos: node %lld runs %.0fx slow (speculation %s)\n",
                static_cast<long long>(slow_node), slow_factor,
                no_speculation ? "OFF" : "on");
  }
  rocket::storage::ObjectStore* mesh_store = &store;
  std::unique_ptr<rocket::storage::FlakyStore> flaky_store;
  if (flaky_rate > 0.0) {
    rocket::storage::FlakyStore::Config flaky_cfg;
    flaky_cfg.error_rate = flaky_rate;
    flaky_cfg.spike_rate = flaky_rate;
    flaky_cfg.spike_us = 200;
    flaky_cfg.seed = fc.seed;
    flaky_store = std::make_unique<rocket::storage::FlakyStore>(store,
                                                                flaky_cfg);
    mesh_store = flaky_store.get();
    std::printf("chaos: object store injects transient errors at rate %.2f\n",
                flaky_rate);
  }

  // Chaos: kill nodes mid-run (DESIGN.md §12/§14). A worker kill is
  // re-granted by the master; a master kill triggers failover (the lowest
  // live node adopts the role); killing everyone ends the run early — the
  // journal then carries a --resume rerun to the exact result.
  auto kill_node = opts.get_int("kill-node", -1);
  if (opts.get_bool("kill-master", false)) kill_node = 0;
  const double kill_after = opts.get_double("kill-after", 0.02);
  const double kill_all_after = opts.get_double("kill-all-after", -1.0);
  const bool kill_all = kill_all_after >= 0.0;
  bool aggressive_clock = false;
  if (kill_node >= 0 && !kill_all) {
    if (kill_node >= static_cast<std::int64_t>(nodes)) {
      std::printf("--kill-node must name a node (0..%u)\n", nodes - 1);
      return 1;
    }
    rocket::mesh::Fault fault;
    fault.node = static_cast<rocket::mesh::NodeId>(kill_node);
    fault.after_seconds = kill_after;
    mesh_cfg.faults.faults.push_back(fault);
    aggressive_clock = true;
    std::printf("chaos: killing %s %lld after %.2fs\n",
                kill_node == 0 ? "master node" : "node",
                static_cast<long long>(kill_node), kill_after);
  }
  if (kill_all) {
    // Staggered whole-cluster death, master last so it journals the most.
    for (std::uint32_t id = 1; id < nodes; ++id) {
      rocket::mesh::Fault fault;
      fault.node = id;
      fault.after_seconds = kill_all_after + 0.03 * (id - 1);
      mesh_cfg.faults.faults.push_back(fault);
    }
    rocket::mesh::Fault master_fault;
    master_fault.node = 0;
    master_fault.after_seconds =
        kill_all_after + 0.03 * static_cast<double>(nodes);
    mesh_cfg.faults.faults.push_back(master_fault);
    aggressive_clock = true;
    std::printf("chaos: killing ALL %u nodes, staggered from %.2fs\n", nodes,
                kill_all_after);
  }
  if (aggressive_clock) {
    // An aggressive failover clock so the demo shows the recovery, not a
    // five-second detection wait.
    mesh_cfg.lease_timeout_s = 0.1;
    mesh_cfg.heartbeat_interval_s = 0.01;
  }
  rocket::LiveCluster mesh(mesh_cfg);
  ResultMap results;
  const auto report = mesh.run_all_pairs(
      app, *mesh_store, [&](const rocket::PairResult& r) {
        // With failover the delivering master can change mid-run, so the
        // callback hops service threads — serialise the map ourselves.
        std::scoped_lock lock(mutex);
        results[{r.left, r.right}] = r.score;
      });

  std::printf("\n%llu pairs on %u nodes in %.2fs (single node: %.2fs)\n",
              static_cast<unsigned long long>(report.pairs), nodes,
              report.wall_seconds, single_report.wall_seconds);

  rocket::TableWriter node_table("per-node execution");
  node_table.set_header({"node", "pairs", "loads", "peer_loads",
                         "remote_steals", "busy%", "stall_s"});
  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    const auto& nr = report.nodes[i];
    // Transfer/compute overlap detail (§4.3): GPU busy share of the wall
    // clock and the load-stall remainder.
    double busy = 0.0, stall = 0.0;
    for (const double b : nr.device_busy_seconds) busy += b;
    for (const double s : nr.device_stall_seconds) stall += s;
    const double denominator =
        nr.wall_seconds * static_cast<double>(
                              std::max<std::size_t>(
                                  1, nr.device_busy_seconds.size()));
    const double busy_pct =
        denominator > 0.0 ? 100.0 * busy / denominator : 0.0;
    node_table.add_row({rocket::TableWriter::integer(static_cast<long long>(i)),
                        rocket::TableWriter::integer(static_cast<long long>(nr.pairs)),
                        rocket::TableWriter::integer(static_cast<long long>(nr.loads)),
                        rocket::TableWriter::integer(static_cast<long long>(nr.peer_loads)),
                        rocket::TableWriter::integer(
                            static_cast<long long>(nr.steal.remote_steals)),
                        rocket::TableWriter::num(busy_pct, 1),
                        rocket::TableWriter::num(stall, 3)});
  }
  std::printf("\n%s\n", node_table.render().c_str());

  rocket::TableWriter traffic("network traffic by tag");
  traffic.set_header({"tag", "messages", "wire_bytes", "raw_bytes"});
  for (std::size_t t = 0;
       t < static_cast<std::size_t>(rocket::net::Tag::kCount); ++t) {
    const auto& per_tag = report.traffic.per_tag[t];
    if (per_tag.messages == 0) continue;
    traffic.add_row({rocket::net::tag_name(static_cast<rocket::net::Tag>(t)),
                     rocket::TableWriter::integer(
                         static_cast<long long>(per_tag.messages)),
                     rocket::TableWriter::integer(
                         static_cast<long long>(per_tag.bytes)),
                     rocket::TableWriter::integer(
                         static_cast<long long>(per_tag.raw_bytes))});
  }
  std::printf("%s\n", traffic.render().c_str());
  if (report.traffic.total_raw_bytes() > report.traffic.total_bytes()) {
    std::printf("compression: %llu raw bytes -> %llu on the wire (%.1f%% "
                "saved)\n",
                static_cast<unsigned long long>(
                    report.traffic.total_raw_bytes()),
                static_cast<unsigned long long>(report.traffic.total_bytes()),
                100.0 *
                    (1.0 - static_cast<double>(report.traffic.total_bytes()) /
                               static_cast<double>(
                                   report.traffic.total_raw_bytes())));
  }

  const auto& dir = report.directory;
  const double hit_rate =
      dir.requests > 0
          ? static_cast<double>(dir.chain_hits) /
                static_cast<double>(dir.requests)
          : 0.0;
  std::printf("directory: %llu requests, %llu chain hits (%.1f%% hit rate), "
              "%llu misses, %llu hops walked\n",
              static_cast<unsigned long long>(dir.requests),
              static_cast<unsigned long long>(dir.chain_hits),
              100.0 * hit_rate,
              static_cast<unsigned long long>(dir.chain_misses),
              static_cast<unsigned long long>(dir.hops));
  std::printf("loads: %llu from storage, %llu from peers "
              "(single node: %llu loads)\n",
              static_cast<unsigned long long>(report.loads),
              static_cast<unsigned long long>(report.peer_loads),
              static_cast<unsigned long long>(single_report.loads));
  std::printf("host caches: %llu hits, %llu fills, %llu evictions; "
              "lock-free fast-path pins (host+device): %llu\n",
              static_cast<unsigned long long>(report.host_cache.hits),
              static_cast<unsigned long long>(report.host_cache.fills),
              static_cast<unsigned long long>(report.host_cache.evictions),
              static_cast<unsigned long long>(report.cache_fast_hits));
  std::printf("overlap: %.3fs device load-stall across the cluster\n",
              report.stall_seconds);
  if (report.node_deaths > 0) {
    std::printf("failover: %llu node death(s), %llu regions re-executed, "
                "%llu duplicate results dropped, %llu fetch retries\n",
                static_cast<unsigned long long>(report.node_deaths),
                static_cast<unsigned long long>(report.regions_reexecuted),
                static_cast<unsigned long long>(
                    report.duplicate_results_dropped),
                static_cast<unsigned long long>(report.peer_retries));
  }
  if (report.master_failovers > 0) {
    std::printf("failover: master role adopted %llu time(s) — the lowest "
                "live node completed the aggregation\n",
                static_cast<unsigned long long>(report.master_failovers));
  }
  if (report.nodes_degraded > 0 || report.nodes_recovered > 0 ||
      report.regions_speculated > 0) {
    std::printf("health: %llu degradation verdict(s), %llu recovery(ies), "
                "%llu steal draw(s) skipped stragglers\n",
                static_cast<unsigned long long>(report.nodes_degraded),
                static_cast<unsigned long long>(report.nodes_recovered),
                static_cast<unsigned long long>(
                    report.steals_avoided_degraded));
    std::printf("speculation: %llu region(s) of straggler backlog re-granted "
                "to healthy nodes (first result wins; %llu duplicate(s) "
                "dropped)\n",
                static_cast<unsigned long long>(report.regions_speculated),
                static_cast<unsigned long long>(
                    report.duplicate_results_dropped));
  }
  if (flaky_store != nullptr) {
    std::printf("flaky store: %llu transient error(s) injected, %llu latency "
                "spike(s); %llu load retry(ies), %llu load(s) failed for "
                "good\n",
                static_cast<unsigned long long>(
                    flaky_store->injected_errors()),
                static_cast<unsigned long long>(
                    flaky_store->injected_spikes()),
                static_cast<unsigned long long>(report.load_retries),
                static_cast<unsigned long long>(report.failed_loads));
  }
  if (report.corrupted_frames > 0) {
    std::printf("transport: %llu corrupted frame(s) injected; CRC checks "
                "dropped every one before delivery\n",
                static_cast<unsigned long long>(report.corrupted_frames));
  }
  if (report.checkpoint.enabled) {
    std::printf("journal: %llu record(s) appended, %llu replayed, %llu "
                "pair(s) recovered%s%s\n",
                static_cast<unsigned long long>(
                    report.checkpoint.records_appended),
                static_cast<unsigned long long>(
                    report.checkpoint.records_replayed),
                static_cast<unsigned long long>(
                    report.checkpoint.pairs_recovered),
                report.checkpoint.resumed ? " (resumed)" : "",
                report.checkpoint.torn_tail ? ", torn tail truncated" : "");
  }

  if (mesh_cfg.trace_sample_n > 0 && report.spans_aborted > 0) {
    std::printf("tracing: %llu span(s) closed forcibly at teardown "
                "(aborted flag set — expected after a kill)\n",
                static_cast<unsigned long long>(report.spans_aborted));
  }
  if (report.flight_dumps > 0) {
    std::printf("flight recorder: %llu black-box ring(s) dumped to %s as "
                "rocket.flightrec.node<i>\n",
                static_cast<unsigned long long>(report.flight_dumps),
                checkpoint_dir.c_str());
  }
  if (print_critical_path) {
    // Offline critical-path attribution (DESIGN.md §16): at each instant
    // the highest-priority phase active anywhere in the cluster wins, so
    // the percentages sum to 100 and "idle" is genuinely uncovered time.
    const auto& cp = report.critical_path;
    std::printf("\ncritical path: %zu sampled span(s) over a %.2fs window\n",
                cp.spans_analyzed, cp.window_seconds);
    rocket::TableWriter cp_table("critical-path attribution");
    cp_table.set_header({"phase", "seconds", "percent"});
    for (std::size_t i = 0; i < rocket::telemetry::kPathPhases; ++i) {
      const auto phase = static_cast<rocket::telemetry::PathPhase>(i);
      cp_table.add_row({rocket::telemetry::path_phase_name(phase),
                        rocket::TableWriter::num(cp.phases[i].seconds, 4),
                        rocket::TableWriter::num(cp.phases[i].percent, 1)});
    }
    std::printf("%s\n", cp_table.render().c_str());
    for (std::size_t k = 0; k < cp.slowest.size(); ++k) {
      const auto& tile = cp.slowest[k];
      std::printf("slow tile #%zu: trace %016llx on node %u, %.4fs\n",
                  k + 1,
                  static_cast<unsigned long long>(tile.trace_id), tile.node,
                  tile.seconds);
      for (const auto& span : tile.chain) {
        std::printf("    %-17s node %u  %.4fs -> %.4fs (%.4fs)%s\n",
                    rocket::telemetry::span_phase_name(span.phase),
                    span.node, span.start, span.end, span.end - span.start,
                    span.aborted ? "  [aborted]" : "");
      }
    }
  }
  if (!metrics_out.empty()) {
    // Prometheus text exposition 0.0.4 of the cluster-merged registry.
    if (rocket::JsonWriter::write_string_to_file(
            metrics_out, report.metrics.expose_text())) {
      std::printf("metrics: wrote %s (Prometheus text exposition)\n",
                  metrics_out.c_str());
    } else {
      std::printf("metrics: FAILED to write %s\n", metrics_out.c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    rocket::telemetry::TraceExporter exporter;
    for (std::size_t i = 0; i < report.nodes.size(); ++i) {
      exporter.add_node(static_cast<std::uint32_t>(i),
                        report.nodes[i].trace);
    }
    if (exporter.write_file(trace_out)) {
      std::printf("trace: wrote %s (load in Perfetto or about:tracing)\n",
                  trace_out.c_str());
    } else {
      std::printf("trace: FAILED to write %s\n", trace_out.c_str());
      return 1;
    }
  }
  if (!summary_out.empty()) {
    const auto summary = rocket::telemetry::RunSummary::from_cluster(
        "forensics", nodes, report);
    if (summary.write_file(summary_out)) {
      std::printf("summary: wrote %s (%s)\n", summary_out.c_str(),
                  rocket::telemetry::RunSummary::kSchema);
    } else {
      std::printf("summary: FAILED to write %s\n", summary_out.c_str());
      return 1;
    }
  }

  // Everything this run delivered must match the single-node reference;
  // a wrong or invented pair is a failure in every mode.
  std::size_t wrong = 0;
  for (const auto& [pair, score] : results) {
    const auto it = reference.find(pair);
    if (it == reference.end() || it->second != score) ++wrong;
  }
  if (wrong > 0) {
    std::printf("\nresult check vs single node: %zu wrong pair(s) — "
                "MISMATCH\n", wrong);
    return 1;
  }

  if (kill_all) {
    // The whole cluster died: the run is legitimately incomplete. What
    // was delivered is exact, and the journal holds it for --resume.
    std::printf("\nresult check vs single node: %zu/%zu pairs delivered "
                "before the cluster died, all exact; resume with "
                "--checkpoint-dir %s --resume\n",
                results.size(), reference.size(), checkpoint_dir.c_str());
    return 0;
  }

  // Complete modes (including --resume, where journal-recovered pairs
  // count toward the total without being re-delivered): the full
  // single-node multiset, exactly once.
  const std::uint64_t covered =
      report.checkpoint.pairs_recovered + results.size();
  const bool complete = covered == reference.size() &&
                        report.pairs == reference.size();
  std::printf("\nresult check vs single node: %llu/%zu pairs match "
              "(%llu recovered from the journal)%s\n",
              static_cast<unsigned long long>(covered), reference.size(),
              static_cast<unsigned long long>(
                  report.checkpoint.pairs_recovered),
              complete ? " (exact)" : " — MISMATCH");
  return complete ? 0 : 1;
}
