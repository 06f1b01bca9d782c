// Grey-failure resilience tests (DESIGN.md §15): the FlakyStore fault
// injector, the load pipeline's transient-error retry loop and run-level
// error budget, the master's node health state machine driven by
// fabricated telemetry snapshots (alive → suspected → degraded →
// recovered), straggler backlog speculation, health-aware steal-victim
// selection, and the hysteresis guarantee that a recovered node becomes
// grantable again.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "apps/forensics.hpp"
#include "dnc/pair_space.hpp"
#include "mesh/mesh_node.hpp"
#include "mesh/result_ledger.hpp"
#include "mesh/transport.hpp"
#include "runtime/node_runtime.hpp"
#include "storage/object_store.hpp"
#include "telemetry/snapshot.hpp"

namespace rocket::mesh {
namespace {

using runtime::ItemId;
using runtime::PairResult;
using ResultMap = std::map<std::pair<ItemId, ItemId>, double>;

// --- FlakyStore fault injector --------------------------------------------

TEST(FlakyStore, InjectsBoundedConsecutiveTransientErrors) {
  storage::MemoryStore inner;
  inner.put("item", ByteBuffer{42});

  storage::FlakyStore::Config cfg;
  cfg.error_rate = 1.0;  // every draw fails...
  cfg.max_consecutive_failures = 2;  // ...but never 3+ times in a row
  storage::FlakyStore store(inner, cfg);

  // Two throws, then the consecutive-failure cap forces a success.
  EXPECT_THROW(store.read("item"), storage::TransientStoreError);
  EXPECT_THROW(store.read("item"), storage::TransientStoreError);
  const auto bytes = store.read("item");
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 42u);
  EXPECT_EQ(store.injected_errors(), 2u);

  // The success reset the streak: the pattern repeats.
  EXPECT_THROW(store.read("item"), storage::TransientStoreError);
  EXPECT_THROW(store.read("item"), storage::TransientStoreError);
  EXPECT_NO_THROW(store.read("item"));
  EXPECT_EQ(store.injected_errors(), 4u);
}

TEST(FlakyStore, ZeroRatePassesThroughAndSpikesCount) {
  storage::MemoryStore inner;
  inner.put("a", ByteBuffer{1, 2});

  storage::FlakyStore::Config cfg;
  cfg.error_rate = 0.0;
  cfg.spike_rate = 1.0;
  cfg.spike_us = 1;  // keep the test fast; the count is what matters
  storage::FlakyStore store(inner, cfg);

  EXPECT_EQ(store.read("a").size(), 2u);
  EXPECT_EQ(store.read("a").size(), 2u);
  EXPECT_EQ(store.injected_errors(), 0u);
  EXPECT_EQ(store.injected_spikes(), 2u);
  EXPECT_TRUE(store.exists("a"));
  EXPECT_EQ(store.size_of("a"), 2u);
}

// --- load-pipeline retry loop ---------------------------------------------

ResultMap run_single_node(const runtime::Application& app,
                          storage::ObjectStore& store,
                          runtime::NodeRuntime::Config cfg,
                          runtime::NodeRuntime::Report* report_out) {
  runtime::NodeRuntime rt(std::move(cfg));
  ResultMap results;
  std::mutex mutex;
  const auto report = rt.run(app, store, [&](const PairResult& r) {
    std::scoped_lock lock(mutex);
    results[{r.left, r.right}] = r.score;
  });
  if (report_out != nullptr) *report_out = report;
  return results;
}

runtime::NodeRuntime::Config small_node_config() {
  runtime::NodeRuntime::Config cfg;
  cfg.devices = {gpu::titanx_maxwell()};
  cfg.host_cache_capacity = 64_MiB;
  cfg.cpu_threads = 2;
  return cfg;
}

TEST(NodeRuntime, TransientLoadErrorsRetryToTheExactResult) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 3;
  fc.images_per_camera = 4;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 11;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected =
      run_single_node(app, store, small_node_config(), nullptr);
  ASSERT_EQ(expected.size(), 12ull * 11 / 2);

  // Half of all reads throw, but never more than twice in a row — the
  // default per-load retry allowance absorbs every streak, so the result
  // multiset is bit-identical to the clean run.
  storage::FlakyStore::Config flaky_cfg;
  flaky_cfg.error_rate = 0.5;
  flaky_cfg.max_consecutive_failures = 2;
  flaky_cfg.seed = 7;
  storage::FlakyStore flaky(store, flaky_cfg);

  runtime::NodeRuntime::Report report;
  const ResultMap results =
      run_single_node(app, flaky, small_node_config(), &report);

  EXPECT_EQ(results, expected);
  EXPECT_GT(report.load_retries, 0u) << "the injector must have fired";
  EXPECT_EQ(report.failed_loads, 0u)
      << "no load may exhaust its retries under the consecutive cap";
  EXPECT_GT(flaky.injected_errors(), 0u);
}

TEST(NodeRuntime, ExhaustedErrorBudgetFailsLoadsWithoutHanging) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 4;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 13;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const std::uint64_t total = 8ull * 7 / 2;

  // Every read fails and streaks are effectively unbounded; a tiny
  // run-level error budget guarantees the retry loop gives up instead of
  // spinning forever. Failed items flow through the failed-pair path:
  // every pair is still delivered, with a NaN score.
  storage::FlakyStore::Config flaky_cfg;
  flaky_cfg.error_rate = 1.0;
  flaky_cfg.max_consecutive_failures = 1000000;
  storage::FlakyStore flaky(store, flaky_cfg);

  auto cfg = small_node_config();
  cfg.max_load_retries = 1000;   // per-load allowance is NOT the limiter
  cfg.load_error_budget = 16;    // ...the run-level budget is
  runtime::NodeRuntime::Report report;
  const ResultMap results = run_single_node(app, flaky, std::move(cfg),
                                            &report);

  ASSERT_EQ(results.size(), total) << "every pair must still be delivered";
  EXPECT_GT(report.failed_loads, 0u);
  std::size_t nan_pairs = 0;
  for (const auto& [pair, score] : results) {
    if (std::isnan(score)) ++nan_pairs;
  }
  EXPECT_EQ(nan_pairs, total)
      << "all items failed to load, so every pair must carry NaN";
}

// --- ResultLedger owed-work accounting ------------------------------------

TEST(ResultLedger, PairsOwedTracksGrantsTransfersAndDeliveries) {
  ResultLedger ledger(6, 3);
  EXPECT_EQ(ledger.pairs_owed(0), 0u);

  // Rows 0-1 (5 + 4 pairs) to node 0, rows 2-4 (3 + 2 + 1) to node 1.
  ledger.grant(0, dnc::Region{0, 2, 1, 6, 0}, false);
  ledger.grant(1, dnc::Region{2, 5, 3, 6, 0}, false);
  EXPECT_EQ(ledger.pairs_owed(0), 9u);
  EXPECT_EQ(ledger.pairs_owed(1), 6u);

  // Delivery shrinks the owner's debt; a duplicate changes nothing.
  EXPECT_TRUE(ledger.record(0, 1));
  EXPECT_FALSE(ledger.record(0, 1));
  EXPECT_EQ(ledger.pairs_owed(0), 8u);

  // A steal notice (a plain grant) moves the undelivered remainder of
  // the region.
  ledger.grant(2, dnc::Region{0, 1, 1, 6, 0}, /*reexecution=*/false);
  EXPECT_EQ(ledger.pairs_owed(0), 4u);
  EXPECT_EQ(ledger.pairs_owed(2), 4u);

  // Re-granting (speculation / failover) moves debt the same way: row 1's
  // four undelivered pairs leave node 0 and join node 1's six.
  ledger.grant(1, dnc::Region{1, 2, 2, 6, 0}, true);
  EXPECT_EQ(ledger.pairs_owed(0), 0u);
  EXPECT_EQ(ledger.pairs_owed(1), 10u);
}

// --- node health state machine --------------------------------------------

/// Three MeshNodes with the health detector live on the master and NO
/// runtimes or tickers: telemetry snapshots are fabricated by the test,
/// so every rate — and therefore every verdict — is scripted, counters
/// and uptime clock alike. The master holds a real ledger (grants pin
/// the owed-work guard open).
struct HealthHarness {
  static constexpr std::uint32_t kNodes = 3;
  static constexpr dnc::ItemIndex kItems = 30;
  static constexpr double kInterval = 0.01;  // scripted uptime per round
  using Stats = std::array<telemetry::NodeStats, kNodes>;

  InProcessTransport transport{kNodes};
  std::shared_ptr<std::atomic<bool>> done =
      std::make_shared<std::atomic<bool>>(false);
  std::vector<std::unique_ptr<MeshNode>> nodes;
  Stats cumulative{};
  std::vector<std::uint64_t> seq = std::vector<std::uint64_t>(kNodes, 0);
  bool joined = false;

  // Evaluation barrier: the master's on_snapshot hook fires right after
  // evaluate_health, once per master sample.
  std::mutex eval_mutex;
  std::condition_variable eval_cv;
  std::uint64_t evaluations = 0;              // guarded by eval_mutex
  telemetry::ClusterSnapshot last_snapshot;  // guarded by eval_mutex
  std::uint64_t published = 0;               // master samples sent

  HealthHarness() {
    for (NodeId id = 0; id < kNodes; ++id) {
      MeshNode::Config mc;
      mc.id = id;
      if (id == MeshNode::kMaster) {
        mc.ledger_items = kItems;
        mc.initial_grants = dnc::partition_root(kItems, kNodes, 2);
        mc.degraded_rate_fraction = 0.5;
        mc.suspect_intervals = 2;
        mc.recover_rate_fraction = 0.7;
        mc.recover_intervals = 2;
        mc.health_ewma_alpha = 1.0;  // rate == last delta: fully scripted
        mc.speculation_regions_per_interval = 2;
        mc.on_snapshot = [this](const telemetry::ClusterSnapshot& snap) {
          {
            std::scoped_lock lock(eval_mutex);
            ++evaluations;
            last_snapshot = snap;
          }
          eval_cv.notify_all();
        };
      }
      nodes.push_back(std::make_unique<MeshNode>(mc, transport, done));
    }
    for (auto& node : nodes) node->start();
  }

  ~HealthHarness() { shutdown(); }

  void shutdown() {
    if (joined) return;
    joined = true;
    transport.close();
    for (auto& node : nodes) node->join();
  }

  /// The next interval's samples: each node's cumulative pair counter
  /// grows by the given delta and its uptime by kInterval.
  Stats advance(std::uint64_t d0, std::uint64_t d1, std::uint64_t d2) {
    const std::uint64_t deltas[kNodes] = {d0, d1, d2};
    for (NodeId id = 0; id < kNodes; ++id) {
      cumulative[id].pairs += deltas[id];
      cumulative[id].uptime_seconds += kInterval;
    }
    return cumulative;
  }

  /// Publish one sample per node, the master's own LAST (its arrival is
  /// the evaluation metronome), and return once the master has evaluated
  /// them.
  void publish(const Stats& stats) {
    for (NodeId id = kNodes; id-- > 0;) {  // 2, 1, then master 0 last
      TelemetrySnapshot snap;
      snap.node = id;
      snap.seq = ++seq[id];
      snap.stats = stats[id];
      transport.send(id, MeshNode::kMaster, net::Tag::kTelemetry, snap);
    }
    const std::uint64_t target = ++published;
    std::unique_lock lock(eval_mutex);
    ASSERT_TRUE(eval_cv.wait_for(lock, std::chrono::seconds(30),
                                 [&] { return evaluations >= target; }))
        << "the master never evaluated round " << target;
  }

  /// One telemetry interval with the given per-node pair deltas.
  void round(std::uint64_t d0, std::uint64_t d1, std::uint64_t d2) {
    publish(advance(d0, d1, d2));
  }

  telemetry::ClusterSnapshot snapshot() {
    std::scoped_lock lock(eval_mutex);
    return last_snapshot;
  }

  /// Spin until `observer` sees `node` in `state` (gossip is async).
  bool await_health(NodeId observer, NodeId node,
                    telemetry::NodeHealth state, double timeout_s = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (nodes[observer]->health_of(node) == state) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Spin until `node` adopts a region (a speculated grant reached it).
  bool await_adoption(NodeId node, double timeout_s = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (nodes[node]->remote_steal(0).has_value()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }
};

TEST(NodeHealth, StragglerIsSuspectedDegradedSpeculatedAndRecovers) {
  using telemetry::NodeHealth;
  HealthHarness mesh;

  // Round 1 is the baseline sample (no rate yet); rounds 2-3 show node 2
  // far below the cluster median.
  mesh.round(0, 0, 0);
  mesh.round(1000, 1000, 10);
  EXPECT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kSuspected);
  EXPECT_EQ(mesh.nodes[0]->health_of(1), NodeHealth::kAlive);
  mesh.round(1000, 1000, 10);
  EXPECT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kDegraded);

  // The verdict is gossiped: every peer's steal-victim selection sees it.
  EXPECT_TRUE(mesh.await_health(1, 2, NodeHealth::kDegraded));
  EXPECT_TRUE(mesh.await_health(2, 2, NodeHealth::kDegraded));

  // Degradation fired speculation: a slice of node 2's backlog was
  // re-granted to the healthy nodes, and node 1 adopts its share.
  EXPECT_TRUE(mesh.await_adoption(1))
      << "a speculated region must reach a healthy node";

  // While the straggler is degraded, node 1's victim sweeps skip it.
  (void)mesh.nodes[1]->remote_steal(0);
  EXPECT_GT(mesh.nodes[1]->failover_stats().steals_avoided_degraded, 0u);

  // Recovery hysteresis: two consecutive healthy intervals above the
  // recover threshold flip node 2 back to alive.
  mesh.round(1000, 1000, 1000);
  EXPECT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kDegraded)
      << "one good interval must not recover (hysteresis)";
  mesh.round(1000, 1000, 1000);
  EXPECT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kAlive);
  EXPECT_TRUE(mesh.await_health(1, 2, NodeHealth::kAlive));

  const FailoverStats stats = mesh.nodes[0]->failover_stats();
  EXPECT_GE(stats.nodes_suspected, 1u);
  EXPECT_EQ(stats.nodes_degraded, 1u);
  EXPECT_EQ(stats.nodes_recovered, 1u);
  EXPECT_GT(stats.regions_speculated, 0u);
  EXPECT_GT(stats.pairs_speculated, 0u);
}

TEST(NodeHealth, RecoveredNodeReceivesSpeculatedGrantsAgain) {
  using telemetry::NodeHealth;
  HealthHarness mesh;

  // Degrade node 2, then recover it (as above, compressed).
  mesh.round(0, 0, 0);
  mesh.round(1000, 1000, 10);
  mesh.round(1000, 1000, 10);
  ASSERT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kDegraded);
  mesh.round(1000, 1000, 1000);
  mesh.round(1000, 1000, 1000);
  ASSERT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kAlive);

  // Now node 1 degrades. The healthy set is {0, 2}: the RECOVERED node
  // must be grantable again — hysteresis ends its exclusion.
  mesh.round(1000, 10, 1000);
  mesh.round(1000, 10, 1000);
  ASSERT_EQ(mesh.nodes[0]->health_of(1), NodeHealth::kDegraded);
  bool adopted = false;
  for (int i = 0; i < 50 && !adopted; ++i) {
    mesh.round(1000, 10, 1000);  // each interval drains another slice
    adopted = mesh.nodes[2]->remote_steal(0).has_value();
  }
  EXPECT_TRUE(adopted)
      << "a recovered node must receive speculated grants again";

  // A one-interval dip must clear a suspicion without degrading.
  mesh.round(1000, 1000, 10);
  EXPECT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kSuspected);
  mesh.round(1000, 1000, 1000);
  EXPECT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kAlive);
}

TEST(NodeHealth, CounterResetGivesNoRateAndMovesNoVerdict) {
  using telemetry::NodeHealth;
  HealthHarness mesh;

  mesh.round(0, 0, 0);
  mesh.round(1000, 1000, 10);
  ASSERT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kSuspected);
  const auto before = mesh.snapshot();
  ASSERT_EQ(before.nodes.size(), 3u);
  constexpr double kBusyRate = 1000 / HealthHarness::kInterval;
  EXPECT_DOUBLE_EQ(before.nodes[1].pairs_per_sec, kBusyRate);

  // Engine teardown: node 2's sampler is unregistered and its snapshots
  // carry NodeStats{} — pairs and uptime back to 0. The drop must give no
  // rate (not a wrapped uint64 delta) and so no verdict change either way.
  auto stats = mesh.advance(1000, 1000, 10);
  stats[2] = telemetry::NodeStats{};
  mesh.publish(stats);

  const auto after = mesh.snapshot();
  ASSERT_EQ(after.nodes.size(), 3u);
  EXPECT_TRUE(std::isfinite(after.nodes[2].pairs_per_sec));
  EXPECT_EQ(after.nodes[2].pairs_per_sec, 0.0);
  EXPECT_EQ(after.nodes[2].busy_fraction, 0.0);
  EXPECT_DOUBLE_EQ(after.cluster_pairs_per_sec, 2 * kBusyRate);
  EXPECT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kSuspected);
  EXPECT_EQ(mesh.nodes[0]->health_of(1), NodeHealth::kAlive);
  const FailoverStats failover = mesh.nodes[0]->failover_stats();
  EXPECT_EQ(failover.nodes_degraded, 0u);
  EXPECT_EQ(failover.nodes_recovered, 0u);
}

TEST(NodeHealth, DeathVerdictOutranksGossipAndFreezesState) {
  using telemetry::NodeHealth;
  HealthHarness mesh;

  mesh.round(0, 0, 0);
  mesh.round(1000, 1000, 10);
  mesh.round(1000, 1000, 10);
  ASSERT_EQ(mesh.nodes[0]->health_of(2), NodeHealth::kDegraded);

  // Node 1 learns of node 2's death (e.g. a lease verdict broadcast).
  // Late health gossip about the corpse must not resurrect it.
  mesh.transport.send(0, 1, net::Tag::kFailover, NodeDown{2, 0});
  EXPECT_TRUE(mesh.await_health(1, 2, NodeHealth::kDead));

  mesh.transport.send(
      0, 1, net::Tag::kFailover,
      HealthUpdate{2, static_cast<std::uint8_t>(NodeHealth::kAlive), 1000});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(mesh.nodes[1]->health_of(2), NodeHealth::kDead)
      << "dead outranks any health gossip";
}

}  // namespace
}  // namespace rocket::mesh
