// Failure-model tests (DESIGN.md §12): scripted fault schedules and link
// partitions at the transport, the master's exactly-once ResultLedger, the
// mediator chain-walk cap, the heartbeat/lease failure detector, orphaned
// steal regions re-adopted under a racing node death (TSAN target), a
// steal notice naming a dead thief, the bounded kFailed retry path, and
// the chaos acceptance matrix — LiveCluster runs that kill nodes
// mid-computation and must still produce the exact single-node result
// multiset.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "apps/forensics.hpp"
#include "apps/microscopy.hpp"
#include "cache/distributed_directory.hpp"
#include "common/backoff.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "dnc/pair_space.hpp"
#include "mesh/checkpoint.hpp"
#include "mesh/live_cluster.hpp"
#include "mesh/mesh_node.hpp"
#include "mesh/result_ledger.hpp"
#include "mesh/transport.hpp"
#include "runtime/node_runtime.hpp"
#include "steal/executor.hpp"

namespace rocket::mesh {
namespace {

using runtime::ItemId;
using runtime::PairResult;
using ResultMap = std::map<std::pair<ItemId, ItemId>, double>;
using PairSet = std::set<std::pair<dnc::ItemIndex, dnc::ItemIndex>>;

/// Expand regions into their pair set, asserting the regions are disjoint.
PairSet pair_set(const std::vector<dnc::Region>& regions) {
  PairSet out;
  for (const auto& region : regions) {
    dnc::for_each_pair(region, [&](const dnc::Pair& p) {
      EXPECT_TRUE(out.insert({p.left, p.right}).second)
          << "regions overlap at (" << p.left << "," << p.right << ")";
    });
  }
  return out;
}

// --- scripted fault schedules at the transport ----------------------------

TEST(FaultSchedule, SingleKillIsDeterministicAndSparesTheMaster) {
  std::set<NodeId> victims;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto schedule = FaultSchedule::single_kill(seed, 4, 200);
    ASSERT_EQ(schedule.faults.size(), 1u);
    const Fault& fault = schedule.faults[0];
    EXPECT_GE(fault.node, 1u) << "the master must never be scheduled";
    EXPECT_LE(fault.node, 3u);
    EXPECT_GE(fault.after_messages, 1u);
    EXPECT_LE(fault.after_messages, 200u);
    EXPECT_EQ(fault.after_seconds, 0.0);
    victims.insert(fault.node);

    // Replayable: the same seed derives the same schedule.
    const auto again = FaultSchedule::single_kill(seed, 4, 200);
    EXPECT_EQ(again.faults[0].node, fault.node);
    EXPECT_EQ(again.faults[0].after_messages, fault.after_messages);
  }
  // 64 seeds over 3 victims: every non-master node gets its turn.
  EXPECT_EQ(victims.size(), 3u);

  // Degenerate inputs produce no faults instead of killing the master.
  EXPECT_TRUE(FaultSchedule::single_kill(7, 1, 100).empty());
  EXPECT_TRUE(FaultSchedule::single_kill(7, 4, 0).empty());
}

TEST(InProcessTransport, MessageTriggeredFaultKillsTheNode) {
  InProcessTransport::Config tc;
  tc.faults.faults.push_back(Fault{2, /*after_messages=*/2, 0.0});
  InProcessTransport transport(3, tc);

  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{1, 0}));
  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{2, 0}));
  EXPECT_FALSE(transport.is_down(2)) << "faults fire on send, not eagerly";

  // Two messages delivered: the next send evaluates the schedule and the
  // fault fires before delivery — node 2 is dead in both directions.
  EXPECT_FALSE(transport.send(0, 2, net::Tag::kCacheRequest,
                              CacheRequest{3, 0}));
  EXPECT_TRUE(transport.is_down(2));
  EXPECT_FALSE(transport.send(2, 1, net::Tag::kCacheRequest,
                              CacheRequest{4, 2}));
  // Survivor links keep working, and rejected sends are not recorded.
  EXPECT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{5, 0}));
  EXPECT_EQ(transport.counters().total_messages(), 3u);
  EXPECT_EQ(transport.delivered_messages(), 3u);
  transport.close();
}

TEST(InProcessTransport, TimeTriggeredFaultKillsTheNode) {
  InProcessTransport::Config tc;
  tc.faults.faults.push_back(Fault{1, 0, /*after_seconds=*/0.001});
  InProcessTransport transport(2, tc);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(transport.send(0, 1, net::Tag::kCacheRequest,
                              CacheRequest{1, 0}));
  EXPECT_TRUE(transport.is_down(1));
  transport.close();
}

TEST(InProcessTransport, LinkDownIsAsymmetric) {
  InProcessTransport transport(2);
  transport.set_link_down(0, 1);
  // The one-way partition: 0 cannot reach 1, but 1 still reaches 0 — the
  // shape that fools failure detectors without killing anybody.
  EXPECT_FALSE(transport.send(0, 1, net::Tag::kCacheRequest,
                              CacheRequest{1, 0}));
  EXPECT_TRUE(transport.send(1, 0, net::Tag::kCacheRequest,
                             CacheRequest{1, 1}));
  EXPECT_FALSE(transport.is_down(0));
  EXPECT_FALSE(transport.is_down(1));
  transport.set_link_down(0, 1, false);
  EXPECT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{2, 0}));
  transport.close();
}

// --- exactly-once result ledger -------------------------------------------

TEST(ResultLedger, FirstResultWinsLaterOnesDrop) {
  ResultLedger ledger(4, 2);
  ledger.grant(1, dnc::root_region(4), /*reexecution=*/false);

  EXPECT_TRUE(ledger.record(0, 1));
  EXPECT_FALSE(ledger.record(0, 1)) << "duplicates are dropped";
  EXPECT_FALSE(ledger.record(0, 1));
  EXPECT_TRUE(ledger.record(0, 2));
  EXPECT_EQ(ledger.delivered(), 2u);
  EXPECT_EQ(ledger.duplicates(), 2u);
  EXPECT_EQ(ledger.max_epoch(), 0u);
}

TEST(ResultLedger, UndeliveredRegionsCoalesceIntoRowRuns) {
  const dnc::ItemIndex n = 8;
  ResultLedger ledger(n, 3);
  ledger.grant(1, dnc::root_region(n), false);

  // Deliver a prefix of row 0 and a mid-row pair of row 3: the remainder
  // must come back as exact row runs — no over- or under-coverage.
  ASSERT_TRUE(ledger.record(0, 1));
  ASSERT_TRUE(ledger.record(0, 2));
  ASSERT_TRUE(ledger.record(0, 3));
  ASSERT_TRUE(ledger.record(3, 5));

  const auto regions = ledger.undelivered_of(1);
  PairSet expected;
  dnc::for_each_pair(dnc::root_region(n), [&](const dnc::Pair& p) {
    expected.insert({p.left, p.right});
  });
  expected.erase({0, 1});
  expected.erase({0, 2});
  expected.erase({0, 3});
  expected.erase({3, 5});
  EXPECT_EQ(pair_set(regions), expected);
  for (const auto& region : regions) {
    EXPECT_EQ(region.row_end, region.row_begin + 1) << "row runs only";
  }
  // Row 3 splits around the delivered pair: (3,4) and (3,6..7).
  EXPECT_TRUE(std::find(regions.begin(), regions.end(),
                        dnc::Region{3, 4, 4, 5, 0}) != regions.end());
  EXPECT_TRUE(std::find(regions.begin(), regions.end(),
                        dnc::Region{3, 4, 6, 8, 0}) != regions.end());

  // An unknown owner holds nothing.
  EXPECT_TRUE(ledger.undelivered_of(2).empty());
}

TEST(ResultLedger, TransferMovesOnlyUndeliveredPairs) {
  const dnc::ItemIndex n = 6;
  ResultLedger ledger(n, 3);
  const auto root = dnc::root_region(n);
  ledger.grant(1, root, false);
  ASSERT_TRUE(ledger.record(0, 1));

  // Steal notice (a plain grant): everything undelivered now belongs to
  // node 2; the delivered pair's race is already over and stays put.
  ledger.grant(2, root, /*reexecution=*/false);
  EXPECT_TRUE(ledger.undelivered_of(1).empty());
  PairSet expected;
  dnc::for_each_pair(root, [&](const dnc::Pair& p) {
    expected.insert({p.left, p.right});
  });
  expected.erase({0, 1});
  EXPECT_EQ(pair_set(ledger.undelivered_of(2)), expected);

  // A survivor re-grant bumps the re-execution epoch of live pairs only.
  ledger.grant(0, dnc::Region{0, 1, 1, 6, 0}, /*reexecution=*/true);
  EXPECT_EQ(ledger.regions_regranted(), 1u);
  EXPECT_EQ(ledger.max_epoch(), 1u);
}

// --- mediator chain-walk cap and prune ------------------------------------

TEST(DistributedDirectory, ChainWalkCapTruncatesAndCounts) {
  cache::DistributedDirectory directory(/*max_candidates=*/4,
                                        /*max_chain_hops=*/1);
  const cache::ItemId item = 9;
  EXPECT_TRUE(directory.on_request(item, 1).empty());
  EXPECT_EQ(directory.on_request(item, 2), (std::vector<cache::NodeId>{1}));
  EXPECT_EQ(directory.stats().chain_aborts, 0u);

  // Three candidates known; the hand-out is capped at one hop and the
  // truncation is counted.
  EXPECT_EQ(directory.on_request(item, 3), (std::vector<cache::NodeId>{2}));
  EXPECT_EQ(directory.on_request(item, 4), (std::vector<cache::NodeId>{3}));
  EXPECT_EQ(directory.stats().chain_aborts, 2u);
}

TEST(DistributedDirectory, RemoveNodePrunesCandidates) {
  cache::DistributedDirectory directory(4);
  const cache::ItemId item = 9;
  directory.on_request(item, 1);
  directory.on_request(item, 2);
  directory.on_request(item, 3);
  ASSERT_EQ(directory.candidates(item),
            (std::vector<cache::NodeId>{3, 2, 1}));

  // The failure detector's prune: a dead node must never be handed out
  // as a candidate again.
  directory.remove_node(2);
  EXPECT_EQ(directory.candidates(item), (std::vector<cache::NodeId>{3, 1}));
  EXPECT_EQ(directory.on_request(item, 4),
            (std::vector<cache::NodeId>{3, 1}));
}

// --- heartbeat / lease failure detector -----------------------------------

/// p MeshNodes with the failure model live: the master runs the lease
/// detector over a small ledger, non-masters heartbeat. No runtimes.
struct DetectorHarness {
  static constexpr std::uint32_t kNodes = 3;
  static constexpr dnc::ItemIndex kItems = 8;

  InProcessTransport transport{kNodes};
  std::shared_ptr<std::atomic<bool>> done =
      std::make_shared<std::atomic<bool>>(false);
  std::vector<std::unique_ptr<MeshNode>> nodes;
  bool joined = false;

  DetectorHarness() {
    for (NodeId id = 0; id < kNodes; ++id) {
      MeshNode::Config mc;
      mc.id = id;
      if (id == MeshNode::kMaster) {
        // Generous lease vs heartbeat period: a healthy node missing a
        // verdict here would be a detector bug, not scheduling jitter.
        mc.lease_timeout_s = 0.25;
        mc.ledger_items = kItems;
        mc.initial_grants = dnc::partition_root(kItems, kNodes, 2);
      } else {
        mc.heartbeat_interval_s = 0.02;
      }
      nodes.push_back(std::make_unique<MeshNode>(mc, transport, done));
    }
    for (auto& node : nodes) node->start();
  }

  ~DetectorHarness() { shutdown(); }

  void shutdown() {
    if (joined) return;
    joined = true;
    transport.close();
    for (auto& node : nodes) node->join();
  }

  /// Spin until `node` is declared dead at every live observer.
  bool await_verdict(NodeId node, std::vector<NodeId> observers,
                     double timeout_s = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      bool all = true;
      for (const NodeId observer : observers) {
        all = all && nodes[observer]->is_dead(node);
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }
};

TEST(FailureDetector, MissedLeasesTriggerClusterWideVerdict) {
  DetectorHarness mesh;

  // Healthy cluster: heartbeats renew every lease, nobody is declared.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(mesh.nodes[0]->is_dead(1));
  EXPECT_FALSE(mesh.nodes[0]->is_dead(2));

  // Kill node 2: its silence exceeds the lease and the master's verdict
  // is broadcast — the surviving peer learns it too.
  mesh.transport.set_down(2);
  EXPECT_TRUE(mesh.await_verdict(2, {0, 1}));
  EXPECT_FALSE(mesh.nodes[0]->is_dead(1)) << "healthy node unaffected";

  mesh.shutdown();
  FailoverStats failover = mesh.nodes[0]->failover_stats();
  for (NodeId id = 1; id < DetectorHarness::kNodes; ++id) {
    failover += mesh.nodes[id]->failover_stats();
  }
  EXPECT_GE(failover.node_deaths, 1u);
  // Node 2's initial grant had no delivered results: every one of its
  // pairs was re-granted to a survivor, and a survivor adopted them.
  EXPECT_GE(failover.regions_reexecuted, 1u);
  EXPECT_GE(failover.regions_adopted, 1u);
}

TEST(FailureDetector, OneWayPartitionStillDrawsVerdict) {
  DetectorHarness mesh;

  // Node 1 can receive but not send: its heartbeats vanish, so the master
  // must declare it — a false positive from the node's point of view,
  // which the ledger's dedup makes correctness-safe (DESIGN.md §12).
  mesh.transport.set_link_down(1, 0);
  EXPECT_TRUE(mesh.await_verdict(1, {0, 2}));
  EXPECT_FALSE(mesh.transport.is_down(1)) << "the node itself is alive";

  mesh.shutdown();
  FailoverStats failover = mesh.nodes[0]->failover_stats();
  EXPECT_GE(failover.node_deaths, 1u);
  EXPECT_GE(failover.regions_reexecuted, 1u);
}

// --- orphaned steal regions under a racing death (TSAN target) -------------

TEST(StealFailover, OrphanedRegionsExecuteExactlyOnce) {
  // Two mesh nodes, real executors, no failure detector: node 0 owns the
  // whole pair space and exports work, node 1 owns nothing and lives off
  // stealing. Node 1 is killed mid-run, so in-flight steal replies race
  // the kill three ways: delivered-and-executed on the thief, queued on
  // the wire (still drained — it was sent before the crash), or rejected
  // at send, in which case the victim adopts the region into its own
  // adoption queue and runs it through its steal hook. Every pair must
  // execute exactly once across both nodes — no loss, no re-execution.
  const dnc::ItemIndex n = 48;
  const auto root = dnc::root_region(n);
  const std::uint64_t total = dnc::count_pairs(root);

  InProcessTransport transport(2);
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::vector<std::unique_ptr<MeshNode>> nodes;
  for (NodeId id = 0; id < 2; ++id) {
    MeshNode::Config mc;
    mc.id = id;
    mc.num_workers = 2;
    mc.seed = 17 + id;
    nodes.push_back(std::make_unique<MeshNode>(mc, transport, done));
  }
  for (auto& node : nodes) node->start();

  std::mutex mutex;
  std::map<std::pair<dnc::ItemIndex, dnc::ItemIndex>, int> counts;
  std::atomic<std::uint64_t> executed{0};
  const auto leaf = [&](const dnc::Region& region, std::uint32_t) {
    std::uint64_t batch = 0;
    {
      std::scoped_lock lock(mutex);
      dnc::for_each_pair(region, [&](const dnc::Pair& p) {
        ++counts[{p.left, p.right}];
        ++batch;
      });
    }
    if (executed.fetch_add(batch, std::memory_order_acq_rel) + batch ==
        total) {
      done->store(true, std::memory_order_release);
      for (auto& node : nodes) node->wake();
    }
  };

  // Kill the thief once a quarter of the work has run — deep inside the
  // steal traffic, not before it starts or after it drains.
  std::thread killer([&] {
    while (!done->load(std::memory_order_acquire) &&
           executed.load(std::memory_order_acquire) < total / 4) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    transport.set_down(1);
  });

  steal::StealExporter exporter;
  nodes[0]->register_exporter(&exporter);
  std::thread victim([&] {
    steal::StealExecutor::Config ec;
    ec.num_workers = 2;
    ec.max_leaf_pairs = 4;  // many leaves => many steals
    ec.seed = 5;
    steal::StealExecutor ex(ec);
    steal::StealExecutor::RemoteHooks hooks;
    hooks.steal = [&](std::uint32_t w) { return nodes[0]->remote_steal(w); };
    hooks.done = [&] { return nodes[0]->global_done(); };
    ex.run_partition({root}, leaf, hooks, &exporter);
  });
  std::thread thief([&] {
    steal::StealExecutor::Config ec;
    ec.num_workers = 2;
    ec.max_leaf_pairs = 4;
    ec.seed = 6;
    steal::StealExecutor ex(ec);
    steal::StealExecutor::RemoteHooks hooks;
    hooks.steal = [&](std::uint32_t w) { return nodes[1]->remote_steal(w); };
    hooks.done = [&] { return nodes[1]->global_done(); };
    ex.run_partition({}, leaf, hooks, nullptr);
  });

  victim.join();
  thief.join();
  killer.join();
  nodes[0]->register_exporter(nullptr);
  transport.close();
  for (auto& node : nodes) node->join();

  EXPECT_EQ(executed.load(), total);
  ASSERT_EQ(counts.size(), total);
  for (const auto& [pair, count] : counts) {
    EXPECT_EQ(count, 1) << "pair (" << pair.first << "," << pair.second
                        << ") executed " << count << " times";
  }
}

TEST(StealFailover, NoticeNamingADeadThiefRegrantsToSurvivors) {
  // A steal notice that lands after its thief's death verdict: the master
  // must not lease the region to the corpse. Only the master runs; nodes
  // 1 and 2 are inboxes the test reads directly. Node 1 (the victim) owns
  // the whole pair space; node 2 (the thief) is killed and declared dead
  // before two steal notices naming it arrive. Everything is ordered by
  // the master's FIFO inbox, so no step waits on the clock.
  const dnc::ItemIndex n = 8;
  const auto root = dnc::root_region(n);
  const dnc::Region a{0, 4, 4, 8, 1};
  const dnc::Region b{4, 8, 4, 8, 1};
  InProcessTransport transport(3);
  auto done = std::make_shared<std::atomic<bool>>(false);
  telemetry::EventLog events;
  MeshNode::Config mc;
  mc.id = MeshNode::kMaster;
  mc.ledger_items = n;
  mc.initial_grants = {{}, {root}, {}};
  mc.events = &events;
  MeshNode master(mc, transport, done);
  master.start();

  transport.set_down(2);
  ASSERT_TRUE(transport.send(0, 0, net::Tag::kFailover, NodeDown{2, 0}));
  for (const dnc::Region& region : {a, b}) {
    ASSERT_TRUE(transport.send(1, 0, net::Tag::kFailover,
                               StealExport{region, 2, {}}));
  }
  // A steal request last: its reply reaching node 1 proves the master has
  // handled everything posted before it.
  ASSERT_TRUE(transport.send(1, 0, net::Tag::kStealRequest,
                             StealRequest{1, 0, {}}));
  std::vector<dnc::Region> granted;
  while (true) {
    auto msg = transport.recv(1);
    ASSERT_TRUE(msg.has_value());
    if (const auto* grant = std::get_if<RegionGrant>(&msg->body)) {
      granted.push_back(grant->region);
    }
    if (std::holds_alternative<StealReply>(msg->body)) break;
  }
  transport.close();
  master.join();

  // Every pair of both regions is leased to a live node: granted to
  // node 1, or adopted by the master itself (its queue is drained here
  // with the service thread joined, so no steal request can succeed).
  std::vector<dnc::Region> leased = granted;
  while (auto region = master.remote_steal(0)) leased.push_back(*region);
  EXPECT_EQ(pair_set(leased), pair_set({a, b}));
  const FailoverStats stats = master.failover_stats();
  EXPECT_EQ(stats.regions_adopted + granted.size(), 2u);
  EXPECT_EQ(stats.node_deaths, 1u);
  EXPECT_EQ(stats.regions_reexecuted, 2u)
      << "a notice naming a dead thief is a re-execution";
  // One instant per counted event, self-adoption included.
  const auto count = [&](telemetry::EventKind kind) {
    const auto all = events.events();
    return static_cast<std::uint64_t>(
        std::count_if(all.begin(), all.end(),
                      [&](const auto& e) { return e.kind == kind; }));
  };
  EXPECT_EQ(count(telemetry::EventKind::kRegionRegrant), 2u);
  EXPECT_EQ(count(telemetry::EventKind::kRegionAdopt), stats.regions_adopted);
}

// --- chaos acceptance matrix ----------------------------------------------

ResultMap single_node_reference(const runtime::Application& app,
                                storage::ObjectStore& store) {
  runtime::NodeRuntime::Config cfg;
  cfg.devices = {gpu::titanx_maxwell()};
  cfg.host_cache_capacity = 64_MiB;
  cfg.cpu_threads = 2;
  runtime::NodeRuntime rt(cfg);
  ResultMap results;
  std::mutex mutex;
  rt.run(app, store, [&](const PairResult& r) {
    std::scoped_lock lock(mutex);
    results[{r.left, r.right}] = r.score;
  });
  return results;
}

struct ChaosOutcome {
  ResultMap results;
  LiveClusterReport report;
};

/// A 4-node cluster with an aggressive failover clock (millisecond leases
/// and fetch deadlines) and the given kill schedule.
ChaosOutcome run_chaos(const runtime::Application& app,
                       storage::ObjectStore& store, FaultSchedule faults) {
  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  cfg.hop_limit = 2;
  cfg.max_chain_hops = 1;  // exercise the chain-walk cap under churn
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  cfg.max_fetch_retries = 2;
  cfg.faults = std::move(faults);
  LiveCluster cluster(cfg);

  ChaosOutcome outcome;
  outcome.report = cluster.run_all_pairs(
      app, store, [&](const PairResult& r) {
        outcome.results[{r.left, r.right}] = r.score;
      });
  return outcome;
}

void expect_survived_exactly(const ChaosOutcome& outcome,
                             const ResultMap& expected,
                             std::uint64_t min_deaths) {
  // The tentpole guarantee: the exact single-node result multiset, with
  // every re-executed duplicate dropped at the master — never
  // double-counted, never lost.
  EXPECT_EQ(outcome.results, expected);
  EXPECT_EQ(outcome.report.pairs, expected.size());
  EXPECT_GE(outcome.report.node_deaths, min_deaths);
  EXPECT_GT(outcome.report.regions_reexecuted, 0u)
      << "a mid-run death must orphan work";
  EXPECT_EQ(outcome.report.failover.results_received,
            outcome.report.pairs + outcome.report.duplicate_results_dropped)
      << "every received result is either delivered once or dropped";
}

TEST(ChaosMatrix, SingleKillsPreserveExactResults) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 17;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);
  ASSERT_EQ(expected.size(), 20ull * 19 / 2);

  // Kill each non-master node at an early, mid and late point of the
  // message stream. Message triggers make the schedules replayable
  // independent of wall-clock speed.
  for (const NodeId victim : {1u, 2u, 3u}) {
    for (const std::uint64_t after : {5ull, 35ull, 90ull}) {
      SCOPED_TRACE("kill node " + std::to_string(victim) + " after " +
                   std::to_string(after) + " messages");
      FaultSchedule schedule;
      schedule.faults.push_back(Fault{victim, after, 0.0});
      const auto outcome = run_chaos(app, store, std::move(schedule));
      expect_survived_exactly(outcome, expected, 1);
    }
  }
}

TEST(ChaosMatrix, TwoNodeDeathsSurvived) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 29;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // Two of the three workers die at different points; the master and one
  // survivor absorb the whole pair space.
  FaultSchedule schedule;
  schedule.faults.push_back(Fault{1, 20, 0.0});
  schedule.faults.push_back(Fault{2, 70, 0.0});
  const auto outcome = run_chaos(app, store, std::move(schedule));
  expect_survived_exactly(outcome, expected, 2);
}

TEST(ChaosMatrix, SeededSingleKillScheduleReplays) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 31;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // The randomized-sweep entry point: a seed fully determines the kill.
  const auto schedule = FaultSchedule::single_kill(99, 4, 120);
  ASSERT_EQ(schedule.faults.size(), 1u);
  const auto outcome = run_chaos(app, store, schedule);
  expect_survived_exactly(outcome, expected, 1);
}

TEST(ChaosMatrix, GreyFailureStragglerFlakyStoreAndKillSurvived) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 16;  // enough work that the verdict lands mid-run
  fc.width = 48;
  fc.height = 40;
  fc.seed = 41;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // All three failure modes at once (DESIGN.md §15): node 1 is a grey
  // straggler (50x slower kernels, half a millisecond of extra store
  // latency per read), every node's store reads are flaky, and node 3
  // dies outright mid-run. The consecutive-failure cap keeps every
  // transient streak inside the default per-load retry allowance, so the
  // result multiset must still be exact.
  storage::FlakyStore::Config flaky_cfg;
  flaky_cfg.error_rate = 0.2;
  flaky_cfg.spike_rate = 0.1;
  flaky_cfg.spike_us = 100;
  flaky_cfg.max_consecutive_failures = 2;
  flaky_cfg.seed = 41;
  storage::FlakyStore flaky(store, flaky_cfg);

  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  cfg.hop_limit = 2;
  cfg.max_chain_hops = 1;
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  cfg.max_fetch_retries = 2;
  cfg.snapshot_interval_s = 0.005;
  cfg.degraded_rate_fraction = 0.35;
  cfg.suspect_intervals = 2;
  cfg.speculation_regions_per_interval = 8;
  cfg.slow_node = 1;
  cfg.slow_factor = 50.0;
  cfg.slow_store_latency_us = 500;
  cfg.faults.faults.push_back(Fault{3, 40, 0.0});
  LiveCluster cluster(cfg);

  ChaosOutcome outcome;
  outcome.report = cluster.run_all_pairs(
      app, flaky, [&](const PairResult& r) {
        outcome.results[{r.left, r.right}] = r.score;
      });

  expect_survived_exactly(outcome, expected, 1);
  EXPECT_EQ(outcome.report.node_deaths, 1u)
      << "the straggler is slow, not dead: its heartbeats still flow and "
         "its lease must never expire";
  EXPECT_GT(outcome.report.nodes_degraded, 0u)
      << "the health machine must notice the straggler";
  EXPECT_GT(outcome.report.regions_speculated, 0u)
      << "a slice of the straggler's backlog must migrate";
  EXPECT_GT(outcome.report.load_retries, 0u)
      << "the flaky store must have fired";
  EXPECT_EQ(outcome.report.failed_loads, 0u)
      << "bounded streaks must never exhaust a load's retries";
}

// --- durability primitives: CRC32 and shared backoff (DESIGN.md §14) -------

TEST(Crc32, MatchesKnownAnswerAndChains) {
  // The IEEE/zlib check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);

  // Incremental updates compose to the one-shot answer.
  std::uint32_t crc = crc32_update(0, "1234", 4);
  crc = crc32_update(crc, "56789", 5);
  EXPECT_EQ(crc, 0xCBF43926u);

  // The sliced implementation against a bit-at-a-time reference: every
  // length 0..64 at every start offset 0..7 (so the 8-byte blocks straddle
  // every alignment), each also split at a random point and chained.
  auto reference = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  Rng rng(0xC3C32);
  std::vector<std::uint8_t> bytes(64 + 8);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = bytes.data() + offset;
      const std::uint32_t want = reference(p, len);
      EXPECT_EQ(crc32(p, len), want) << "offset " << offset << " len " << len;
      const std::size_t split = rng.uniform_index(len + 1);
      EXPECT_EQ(crc32_update(crc32(p, split), p + split, len - split), want)
          << "offset " << offset << " len " << len << " split " << split;
    }
  }
}

TEST(BackoffPolicy, DoublesCapsAndJittersDeterministically) {
  const BackoffPolicy policy{1e-4, 1e-3, 0.25, 10};
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(0), 1e-4);
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(1), 2e-4);
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(2), 4e-4);
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(3), 8e-4);
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(4), 1e-3) << "cap binds";
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(1000), 1e-3)
      << "huge attempts must not overflow the shift";

  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      const double raw = policy.raw_delay_seconds(attempt);
      const double jittered = policy.delay_seconds(attempt, salt);
      EXPECT_GE(jittered, raw * 0.75);
      EXPECT_LT(jittered, raw * 1.25);
      // The deterministic-for-test hook: same (attempt, salt), same delay.
      EXPECT_DOUBLE_EQ(jittered, policy.delay_seconds(attempt, salt));
    }
  }
  // Distinct salts decorrelate concurrent retriers.
  EXPECT_NE(policy.delay_seconds(3, 1), policy.delay_seconds(3, 2));

  const BackoffPolicy no_jitter{1e-4, 1e-3, 0.0, 10};
  EXPECT_DOUBLE_EQ(no_jitter.delay_seconds(2, 99),
                   no_jitter.raw_delay_seconds(2));
}

// --- transport frame CRC and the corrupt-frame injector --------------------

TEST(InProcessTransport, CorruptInjectorDeliversMangledThenCleanFrame) {
  InProcessTransport::Config tc;
  tc.corrupt_rate = 1.0;  // every frame gets a mangled twin
  InProcessTransport transport(2, tc);
  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{7, 0}));

  // The mangled copy is delivered first and fails CRC verification...
  const auto mangled = transport.recv(1);
  ASSERT_TRUE(mangled.has_value());
  EXPECT_NE(frame_crc(mangled->body), mangled->crc);

  // ...and the clean retransmit always follows, intact.
  const auto clean = transport.recv(1);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(frame_crc(clean->body), clean->crc);
  ASSERT_TRUE(std::holds_alternative<CacheRequest>(clean->body));
  EXPECT_EQ(std::get<CacheRequest>(clean->body).item, 7u);

  EXPECT_EQ(transport.corrupted_frames(), 1u);
  transport.close();
}

TEST(InProcessTransport, FrameCrcCoversEveryBodyAlternative) {
  // Two bodies of the same alternative but different content must hash
  // differently; the same content under a different alternative too.
  const MessageBody a = CacheRequest{1, 0};
  const MessageBody b = CacheRequest{2, 0};
  EXPECT_NE(frame_crc(a), frame_crc(b));
  EXPECT_EQ(frame_crc(a), frame_crc(MessageBody{CacheRequest{1, 0}}));
  EXPECT_NE(frame_crc(MessageBody{Heartbeat{1, 0}}),
            frame_crc(MessageBody{NodeDown{1, 0}}));
}

// --- checkpoint journal: round trip and torn-tail fuzz ---------------------

TEST(Checkpoint, JournalRoundTripsThroughReplay) {
  storage::MemoryStore store;
  checkpoint::Manifest manifest;
  manifest.items = 10;
  manifest.num_nodes = 2;
  manifest.granularity = 2;
  manifest.seed = 7;
  manifest.expected_pairs = 45;
  manifest.fingerprint = checkpoint::Journal::fingerprint(10, 2, 2, 7);

  checkpoint::Journal journal(store, "run.journal");
  journal.start_fresh(manifest);
  journal.append_results({{0, 1, 0.5}, {0, 2, 1.5}, {1, 2, -3.0}});
  journal.append_results({{2, 3, 0.25}});
  journal.append_region_complete(dnc::Region{0, 1, 1, 10, 0});
  EXPECT_EQ(journal.records_appended(), 4u);

  const auto replay = checkpoint::Journal::replay(store, "run.journal");
  ASSERT_TRUE(replay.found);
  ASSERT_TRUE(replay.has_manifest);
  EXPECT_EQ(replay.manifest, manifest);
  EXPECT_FALSE(replay.torn);
  EXPECT_EQ(replay.records, 4u);
  ASSERT_EQ(replay.results.size(), 4u);
  EXPECT_EQ(replay.results[0].left, 0u);
  EXPECT_EQ(replay.results[0].right, 1u);
  EXPECT_DOUBLE_EQ(replay.results[0].score, 0.5);
  EXPECT_DOUBLE_EQ(replay.results[3].score, 0.25);
  ASSERT_EQ(replay.completed_regions.size(), 1u);
  EXPECT_EQ(replay.completed_regions[0], (dnc::Region{0, 1, 1, 10, 0}));

  // A journal for a different run shape is a different fingerprint.
  EXPECT_NE(checkpoint::Journal::fingerprint(10, 2, 2, 7),
            checkpoint::Journal::fingerprint(10, 3, 2, 7));
  EXPECT_NE(checkpoint::Journal::fingerprint(10, 2, 2, 7),
            checkpoint::Journal::fingerprint(11, 2, 2, 7));

  // Replay of a missing object reports found=false, nothing recovered.
  const auto missing = checkpoint::Journal::replay(store, "nope");
  EXPECT_FALSE(missing.found);
  EXPECT_FALSE(missing.has_manifest);
  EXPECT_TRUE(missing.results.empty());
}

/// `candidate` recovered no more than `full` did, and everything it did
/// recover is an exact prefix — corruption may cost the tail, never
/// invent or reorder results.
void expect_replay_prefix(const checkpoint::Replay& candidate,
                          const checkpoint::Replay& full) {
  ASSERT_LE(candidate.results.size(), full.results.size());
  for (std::size_t i = 0; i < candidate.results.size(); ++i) {
    EXPECT_EQ(candidate.results[i].left, full.results[i].left);
    EXPECT_EQ(candidate.results[i].right, full.results[i].right);
    EXPECT_EQ(candidate.results[i].score, full.results[i].score);
  }
  ASSERT_LE(candidate.completed_regions.size(),
            full.completed_regions.size());
  for (std::size_t i = 0; i < candidate.completed_regions.size(); ++i) {
    EXPECT_EQ(candidate.completed_regions[i], full.completed_regions[i]);
  }
}

TEST(Checkpoint, TornJournalFuzzDetectsEveryCorruption) {
  storage::MemoryStore store;
  checkpoint::Manifest manifest;
  manifest.items = 8;
  manifest.num_nodes = 2;
  manifest.granularity = 2;
  manifest.seed = 3;
  manifest.expected_pairs = 28;
  manifest.fingerprint = checkpoint::Journal::fingerprint(8, 2, 2, 3);

  checkpoint::Journal journal(store, "j");
  journal.start_fresh(manifest);
  journal.append_results({{0, 1, 0.5}, {0, 2, 1.5}, {1, 2, -3.0}});
  journal.append_region_complete(dnc::Region{0, 1, 1, 8, 0});
  journal.append_results({{2, 3, 0.25}});
  const auto full = checkpoint::Journal::replay(store, "j");
  ASSERT_TRUE(full.found && full.has_manifest && !full.torn);
  ASSERT_EQ(full.records, 4u);
  const ByteBuffer bytes = store.read("j");
  ASSERT_EQ(full.valid_bytes, bytes.size());

  // Truncate at EVERY byte offset: the crash-mid-append shapes. Replay
  // must keep the valid prefix, flag the tear iff the cut is mid-record,
  // and truncate_to_valid must leave a clean journal behind.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    storage::MemoryStore cut;
    cut.put("j", ByteBuffer(bytes.begin(),
                            bytes.begin() + static_cast<std::ptrdiff_t>(len)));
    const auto replay = checkpoint::Journal::replay(cut, "j");
    ASSERT_TRUE(replay.found);
    expect_replay_prefix(replay, full);
    EXPECT_LE(replay.valid_bytes, len);
    EXPECT_EQ(replay.torn, replay.valid_bytes != len)
        << "every mid-record cut must be detected as a tear";

    checkpoint::Journal::truncate_to_valid(cut, "j", replay);
    const auto again = checkpoint::Journal::replay(cut, "j");
    EXPECT_FALSE(again.torn);
    EXPECT_EQ(again.records, replay.records);
    EXPECT_EQ(again.valid_bytes, replay.valid_bytes);
  }

  // Flip EVERY byte (one at a time): bit rot anywhere in a record must be
  // caught by the frame CRC (or framing bounds) — 100% detection, and the
  // records before the flipped one survive untouched.
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    SCOPED_TRACE("flipped byte " + std::to_string(offset));
    ByteBuffer mangled = bytes;
    mangled[offset] ^= 0xFF;
    storage::MemoryStore bad;
    bad.put("j", mangled);
    const auto replay = checkpoint::Journal::replay(bad, "j");
    ASSERT_TRUE(replay.found);
    EXPECT_TRUE(replay.torn);
    EXPECT_LT(replay.records, full.records);
    expect_replay_prefix(replay, full);
  }
}

// --- bounded kFailed retry: the terminal paths -----------------------------

TEST(NodeRuntime, ExhaustedAcquireRetriesFailPairsAndTerminate) {
  // A missing input makes every fill of that item abort, so queued
  // waiters see kFailed grants. With a zero retry budget each kFailed
  // goes straight to its terminal path (host-level load bypass, failed
  // tile item whose pairs are NaN) — the run must still terminate with
  // every other pair exact.
  storage::MemoryStore store;
  apps::MicroscopyConfig mc;
  mc.particles = 5;
  mc.binding_sites = 8;
  mc.localizations_per_site_min = 3;
  mc.localizations_per_site_max = 5;
  apps::MicroscopyDataset dataset(mc, store);
  apps::MicroscopyApplication app(dataset);

  const ResultMap expected = single_node_reference(app, store);

  storage::MemoryStore broken;
  for (ItemId i = 0; i < 5; ++i) {
    if (i == 2) continue;
    broken.put(app.file_name(i), store.read(app.file_name(i)));
  }

  runtime::NodeRuntime::Config rt;
  rt.cpu_threads = 2;
  rt.host_cache_capacity = 1_MiB;
  rt.max_acquire_retries = 0;  // first kFailed is terminal
  runtime::NodeRuntime runtime(rt);
  ResultMap actual;
  std::mutex mutex;
  const auto report = runtime.run(app, broken, [&](const PairResult& r) {
    std::scoped_lock lock(mutex);
    actual[{r.left, r.right}] = r.score;
  });

  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [pair, score] : actual) {
    if (pair.first == 2 || pair.second == 2) {
      EXPECT_TRUE(std::isnan(score));
    } else {
      EXPECT_NEAR(score, expected.at(pair), 1e-9);
    }
  }
  EXPECT_EQ(report.pairs, expected.size());
}

// --- master failover and checkpoint/resume chaos (DESIGN.md §14) -----------

struct DurableOutcome {
  ResultMap results;
  std::map<std::pair<ItemId, ItemId>, int> counts;  // delivery multiplicity
  LiveClusterReport report;
};

/// The run_chaos cluster with the durability layer fully engaged: small
/// flush batches (so crashes land between flushes), an optional journal,
/// and a callback safe against the master role moving across service
/// threads mid-run.
DurableOutcome run_durable(const runtime::Application& app,
                           storage::ObjectStore& store, FaultSchedule faults,
                           storage::ObjectStore* checkpoint = nullptr,
                           bool resume = false, bool master_failover = true) {
  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  cfg.hop_limit = 2;
  cfg.max_chain_hops = 1;
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  cfg.max_fetch_retries = 2;
  cfg.journal_batch_pairs = 8;
  cfg.checkpoint_store = checkpoint;
  cfg.resume = resume;
  cfg.master_failover = master_failover;
  cfg.faults = std::move(faults);
  LiveCluster cluster(cfg);

  DurableOutcome outcome;
  std::mutex mutex;
  outcome.report =
      cluster.run_all_pairs(app, store, [&](const PairResult& r) {
        std::scoped_lock lock(mutex);
        outcome.results[{r.left, r.right}] = r.score;
        ++outcome.counts[{r.left, r.right}];
      });
  return outcome;
}

TEST(MasterFailover, KillMasterMatrixPreservesExactResults) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 41;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);
  ASSERT_EQ(expected.size(), 20ull * 19 / 2);

  // Kill node 0 — the initial master — early, mid and late in the message
  // stream. The lowest live node must adopt the role, dedup against its
  // mirrored ledger, and complete the aggregation: the exact single-node
  // multiset, every pair delivered exactly once across both masters.
  for (const std::uint64_t after : {5ull, 60ull, 150ull}) {
    SCOPED_TRACE("kill master after " + std::to_string(after) + " messages");
    FaultSchedule schedule;
    schedule.faults.push_back(Fault{0, after, 0.0});
    const auto outcome = run_durable(app, store, std::move(schedule));

    EXPECT_EQ(outcome.results, expected);
    EXPECT_EQ(outcome.report.pairs, expected.size());
    for (const auto& [pair, count] : outcome.counts) {
      EXPECT_EQ(count, 1) << "pair (" << pair.first << "," << pair.second
                          << ") delivered " << count << " times";
    }
    EXPECT_GE(outcome.report.master_failovers, 1u)
        << "somebody must have adopted the master role";
    EXPECT_GE(outcome.report.node_deaths, 1u);
    // A batch in flight at the old master when it died was received and
    // ledger-recorded but never delivered, so received may exceed
    // delivered + duplicates — but never the other way around.
    EXPECT_GE(outcome.report.failover.results_received,
              outcome.report.pairs +
                  outcome.report.duplicate_results_dropped);
  }
}

TEST(MasterFailover, FailoverOffBatchesAndDeliversExactlyOnce) {
  // Failover off and no journal: results still reach the user through the
  // master's batched flush, the one delivery path.
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 43;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // No kill, then a worker kill: the master's lease detector re-grants
  // the dead worker's share, and the run ends with the exact single-node
  // multiset, each pair delivered once.
  for (const bool kill_worker : {false, true}) {
    SCOPED_TRACE(kill_worker ? "worker killed" : "no kill");
    FaultSchedule schedule;
    if (kill_worker) schedule.faults.push_back(Fault{2, 35, 0.0});
    const auto outcome = run_durable(app, store, std::move(schedule), nullptr,
                                     false, /*master_failover=*/false);
    EXPECT_EQ(outcome.results, expected);
    EXPECT_EQ(outcome.report.pairs, expected.size());
    for (const auto& [pair, count] : outcome.counts) EXPECT_EQ(count, 1);
    EXPECT_EQ(outcome.report.master_failovers, 0u);
  }

  // A master kill ends the run early: the dead master's pending batch is
  // dropped, never delivered. What did reach the user (nothing, if the
  // kill lands before the first flush) is a subset of the single-node
  // multiset, bit for bit, each pair once.
  FaultSchedule schedule;
  schedule.faults.push_back(Fault{0, 150, 0.0});
  const auto outcome = run_durable(app, store, std::move(schedule), nullptr,
                                   false, /*master_failover=*/false);
  EXPECT_EQ(outcome.report.master_failovers, 0u);
  EXPECT_LT(outcome.results.size(), expected.size());
  for (const auto& [pair, score] : outcome.results) {
    const auto it = expected.find(pair);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(score, it->second);
    EXPECT_EQ(outcome.counts.at(pair), 1);
  }
}

TEST(MasterFailover, MasterAndWorkerDeathsSurvivedTogether) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 43;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // A worker dies, then the master: the adopter inherits a cluster that
  // already lost a node and still finishes exactly.
  FaultSchedule schedule;
  schedule.faults.push_back(Fault{2, 30, 0.0});
  schedule.faults.push_back(Fault{0, 90, 0.0});
  const auto outcome = run_durable(app, store, std::move(schedule));
  EXPECT_EQ(outcome.results, expected);
  EXPECT_EQ(outcome.report.pairs, expected.size());
  for (const auto& [pair, count] : outcome.counts) EXPECT_EQ(count, 1);
  EXPECT_GE(outcome.report.master_failovers, 1u);
  // At least the master's death draws a verdict; the worker's may be
  // absorbed silently if the master dies before its lease detector fires
  // (the adopter's conservative full re-grant covers the worker anyway).
  EXPECT_GE(outcome.report.node_deaths, 1u);
}

TEST(Checkpoint, KillAllThenResumeRoundTrip) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 47;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // Run 1: every node dies, the master last (so some result batches have
  // been journalled). The watchdog ends the run; the journal survives.
  storage::MemoryStore checkpoint_store;
  FaultSchedule schedule;
  schedule.faults.push_back(Fault{1, 30, 0.0});
  schedule.faults.push_back(Fault{2, 60, 0.0});
  schedule.faults.push_back(Fault{3, 90, 0.0});
  schedule.faults.push_back(Fault{0, 220, 0.0});
  const auto first =
      run_durable(app, store, std::move(schedule), &checkpoint_store);
  EXPECT_TRUE(first.report.checkpoint.enabled);
  EXPECT_FALSE(first.report.checkpoint.resumed);
  EXPECT_LT(first.results.size(), expected.size())
      << "the whole cluster died mid-run";
  for (const auto& [pair, count] : first.counts) EXPECT_EQ(count, 1);

  // Run 2: resume from the journal, no faults. Already-journalled pairs
  // are recovered (not re-delivered); only the remaining frontier runs.
  const auto second =
      run_durable(app, store, {}, &checkpoint_store, /*resume=*/true);
  EXPECT_TRUE(second.report.checkpoint.enabled);
  EXPECT_TRUE(second.report.checkpoint.resumed);
  EXPECT_EQ(second.report.checkpoint.pairs_recovered, first.results.size())
      << "the journal holds exactly what run 1 delivered (flush ordering)";
  EXPECT_EQ(second.report.pairs, expected.size())
      << "recovered + newly delivered covers the whole pair space";
  for (const auto& [pair, count] : second.counts) EXPECT_EQ(count, 1);

  // The union of the two runs' deliveries is the exact single-node
  // multiset: no pair lost, no pair delivered in both runs.
  ResultMap combined = first.results;
  for (const auto& [pair, score] : second.results) {
    EXPECT_TRUE(combined.emplace(pair, score).second)
        << "pair (" << pair.first << "," << pair.second
        << ") delivered by both runs";
  }
  EXPECT_EQ(combined, expected);
}

TEST(Checkpoint, MismatchedFingerprintStartsFresh) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 4;
  fc.width = 32;
  fc.height = 32;
  fc.seed = 53;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // Plant a journal for a DIFFERENT run shape: resume must reject it by
  // fingerprint and run everything from scratch.
  storage::MemoryStore checkpoint_store;
  checkpoint::Manifest foreign;
  foreign.items = 999;
  foreign.num_nodes = 2;
  foreign.granularity = 4;
  foreign.seed = 1;
  foreign.fingerprint = checkpoint::Journal::fingerprint(999, 2, 4, 1);
  checkpoint::Journal planted(checkpoint_store, "rocket.journal");
  planted.start_fresh(foreign);
  planted.append_results({{0, 1, 123.0}});

  const auto outcome =
      run_durable(app, store, {}, &checkpoint_store, /*resume=*/true);
  EXPECT_FALSE(outcome.report.checkpoint.resumed);
  EXPECT_EQ(outcome.report.checkpoint.pairs_recovered, 0u);
  EXPECT_EQ(outcome.results, expected);
  EXPECT_EQ(outcome.report.pairs, expected.size());
}

TEST(ChaosMatrix, FrameCorruptionIsDetectedAndHarmless) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 59;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  cfg.hop_limit = 2;
  cfg.frame_corrupt_rate = 0.05;
  cfg.frame_corrupt_seed = 61;
  LiveCluster cluster(cfg);

  ResultMap results;
  std::map<std::pair<ItemId, ItemId>, int> counts;
  std::mutex mutex;
  const auto report =
      cluster.run_all_pairs(app, store, [&](const PairResult& r) {
        std::scoped_lock lock(mutex);
        results[{r.left, r.right}] = r.score;
        ++counts[{r.left, r.right}];
      });

  // Corrupted frames were injected, detected at the receiver, and dropped
  // — the clean retransmits carried the run to the exact multiset.
  EXPECT_GT(report.corrupted_frames, 0u);
  EXPECT_EQ(results, expected);
  EXPECT_EQ(report.pairs, expected.size());
  for (const auto& [pair, count] : counts) EXPECT_EQ(count, 1);

  // Injected frames surface in the receiver-side drop counter. A mangled
  // frame still queued when the run completes is never drained, so the
  // drop count can trail the injection count — never exceed it.
  std::uint64_t dropped = 0;
  for (const auto& [name, value] : report.metrics.counters) {
    if (name == "net.frame_corrupt") dropped = value;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_LE(dropped, report.corrupted_frames);
}

}  // namespace
}  // namespace rocket::mesh
