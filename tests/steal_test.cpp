#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "steal/deque.hpp"
#include "steal/executor.hpp"
#include "steal/scheduler.hpp"

namespace rocket::steal {
namespace {

// --- Chase–Lev deque ---

TEST(ChaseLevDeque, OwnerLifoOrder) {
  ChaseLevDeque<int> deque;
  int a = 1, b = 2, c = 3;
  deque.push(&a);
  deque.push(&b);
  deque.push(&c);
  EXPECT_EQ(deque.pop(), &c);
  EXPECT_EQ(deque.pop(), &b);
  EXPECT_EQ(deque.pop(), &a);
  EXPECT_EQ(deque.pop(), nullptr);
}

TEST(ChaseLevDeque, ThiefTakesOldest) {
  ChaseLevDeque<int> deque;
  int a = 1, b = 2;
  deque.push(&a);
  deque.push(&b);
  EXPECT_EQ(deque.steal(), &a);  // FIFO from the top
  EXPECT_EQ(deque.pop(), &b);
  EXPECT_EQ(deque.steal(), nullptr);
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque<int> deque(64);
  std::vector<std::unique_ptr<int>> items;
  for (int i = 0; i < 1000; ++i) {
    items.push_back(std::make_unique<int>(i));
    deque.push(items.back().get());
  }
  EXPECT_EQ(deque.size_hint(), 1000u);
  for (int i = 999; i >= 0; --i) {
    int* got = deque.pop();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, i);
  }
}

TEST(ChaseLevDeque, ConcurrentOwnershipIsExclusive) {
  // Property: every pushed item is claimed exactly once across the owner
  // and several thieves.
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  ChaseLevDeque<int> deque;
  std::vector<std::unique_ptr<int>> storage;
  storage.reserve(kItems);
  for (int i = 0; i < kItems; ++i) storage.push_back(std::make_unique<int>(i));

  std::atomic<bool> done{false};
  std::atomic<long long> sum{0};
  std::atomic<int> claimed{0};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (int* item = deque.steal()) {
          sum += *item;
          claimed++;
        }
      }
      while (int* item = deque.steal()) {
        sum += *item;
        claimed++;
      }
    });
  }

  // Owner interleaves pushes and pops.
  for (int i = 0; i < kItems; ++i) {
    deque.push(storage[static_cast<std::size_t>(i)].get());
    if (i % 3 == 0) {
      if (int* item = deque.pop()) {
        sum += *item;
        claimed++;
      }
    }
  }
  while (int* item = deque.pop()) {
    sum += *item;
    claimed++;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(claimed.load(), kItems);
  EXPECT_EQ(sum.load(), static_cast<long long>(kItems) * (kItems - 1) / 2);
}

// --- RegionScheduler (policy) ---

RegionScheduler::Config single_node(std::uint32_t workers,
                                    std::uint64_t leaf_pairs = 1) {
  RegionScheduler::Config cfg;
  cfg.workers_per_node = {workers};
  cfg.max_leaf_pairs = leaf_pairs;
  cfg.seed = 7;
  return cfg;
}

TEST(RegionScheduler, SingleWorkerEnumeratesAllPairsOnce) {
  RegionScheduler sched(single_node(1));
  sched.seed_root(16);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  while (auto grant = sched.next_leaf(0)) {
    dnc::for_each_pair(grant->region, [&](dnc::Pair p) {
      EXPECT_TRUE(seen.insert({p.left, p.right}).second);
    });
    EXPECT_EQ(grant->origin, Origin::kLocal);
  }
  EXPECT_EQ(seen.size(), 16u * 15 / 2);
  EXPECT_TRUE(sched.all_empty());
}

TEST(RegionScheduler, WorkSpreadsAcrossWorkersViaStealing) {
  RegionScheduler sched(single_node(4));
  sched.seed_root(64);
  std::vector<std::uint64_t> processed(4, 0);
  bool any_left = true;
  // Round-robin polling: workers 1..3 can only obtain work by stealing.
  while (any_left) {
    any_left = false;
    for (WorkerId w = 0; w < 4; ++w) {
      if (auto grant = sched.next_leaf(w)) {
        processed[w] += dnc::count_pairs(grant->region);
        any_left = true;
      }
    }
  }
  std::uint64_t total = 0;
  for (const auto p : processed) {
    EXPECT_GT(p, 0u) << "every worker should obtain some work";
    total += p;
  }
  EXPECT_EQ(total, 64u * 63 / 2);
  EXPECT_GT(sched.stats().intra_node_steals, 0u);
  EXPECT_EQ(sched.stats().remote_steals, 0u);
}

TEST(RegionScheduler, HierarchicalStealingPrefersSameNode) {
  RegionScheduler::Config cfg;
  cfg.workers_per_node = {2, 2};
  cfg.seed = 3;
  RegionScheduler sched(cfg);
  sched.seed_root(64);

  // Worker 0 splits a few levels to populate its deque.
  auto first = sched.next_leaf(0);
  ASSERT_TRUE(first.has_value());

  // Worker 1 (same node) steals: must be intra-node.
  auto intra = sched.next_leaf(1);
  ASSERT_TRUE(intra.has_value());
  EXPECT_EQ(intra->origin, Origin::kIntraNode);
  EXPECT_EQ(sched.node_of(intra->victim), 0u);

  // Worker 2 (other node) steals: must be remote since its node is empty.
  auto remote = sched.next_leaf(2);
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->origin, Origin::kRemote);
}

TEST(RegionScheduler, LeafBudgetControlsGranularity) {
  RegionScheduler sched(single_node(1, 8));
  sched.seed_root(32);
  std::uint64_t total = 0;
  while (auto grant = sched.next_leaf(0)) {
    const auto pairs = dnc::count_pairs(grant->region);
    EXPECT_LE(pairs, 8u);
    EXPECT_GE(pairs, 1u);
    total += pairs;
  }
  EXPECT_EQ(total, 32u * 31 / 2);
}

TEST(RegionScheduler, StolenRegionIsLargest) {
  RegionScheduler sched(single_node(2));
  sched.seed_root(256);
  // Let worker 0 descend once: its deque now holds shallow siblings at the
  // front and deep ones at the back.
  auto local = sched.next_leaf(0);
  ASSERT_TRUE(local.has_value());
  ASSERT_GT(sched.deque_size(0), 0u);
  // The thief's grant originates from the shallowest stolen region; its
  // leaf is just the descent result, but stealing must have taken depth-1
  // work (the largest). We verify via the stats and remaining deque sizes.
  auto stolen = sched.next_leaf(1);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->origin, Origin::kIntraNode);
  // After descending, the thief pushed siblings onto its own deque.
  EXPECT_GT(sched.deque_size(1), 0u);
}

TEST(RegionScheduler, DeterministicGivenSeed) {
  auto run = [] {
    RegionScheduler sched(single_node(3));
    sched.seed_root(48);
    std::vector<std::uint64_t> counts(3, 0);
    bool any = true;
    while (any) {
      any = false;
      for (WorkerId w = 0; w < 3; ++w) {
        if (auto grant = sched.next_leaf(w)) {
          counts[w] += dnc::count_pairs(grant->region);
          any = true;
        }
      }
    }
    return counts;
  };
  EXPECT_EQ(run(), run());
}

// --- Live executor ---

TEST(StealExecutor, AllPairsProcessedExactlyOnce) {
  StealExecutor::Config cfg;
  cfg.num_workers = 4;
  cfg.max_leaf_pairs = 1;
  StealExecutor exec(cfg);

  std::mutex mutex;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::atomic<std::uint64_t> count{0};
  const auto stats = exec.run(40, [&](const dnc::Region& region, std::uint32_t) {
    std::scoped_lock lock(mutex);
    dnc::for_each_pair(region, [&](dnc::Pair p) {
      EXPECT_TRUE(seen.insert({p.left, p.right}).second)
          << "pair processed twice";
      count++;
    });
  });
  EXPECT_EQ(count.load(), 40u * 39 / 2);
  EXPECT_EQ(stats.leaves, 40u * 39 / 2);
}

TEST(StealExecutor, CoarseLeavesConserveWork) {
  StealExecutor::Config cfg;
  cfg.num_workers = 3;
  cfg.max_leaf_pairs = 16;
  StealExecutor exec(cfg);
  std::atomic<std::uint64_t> pairs{0};
  exec.run(128, [&](const dnc::Region& region, std::uint32_t) {
    pairs += dnc::count_pairs(region);
  });
  EXPECT_EQ(pairs.load(), 128u * 127 / 2);
}

TEST(StealExecutor, MultipleWorkersParticipate) {
  StealExecutor::Config cfg;
  cfg.num_workers = 4;
  cfg.max_leaf_pairs = 4;
  StealExecutor exec(cfg);
  std::array<std::atomic<std::uint64_t>, 4> per_worker{};
  exec.run(200, [&](const dnc::Region& region, std::uint32_t worker) {
    per_worker[worker] += dnc::count_pairs(region);
    // Block long enough for the OS to schedule the other workers even on a
    // single-core machine (a pure spin lets worker 0 drain everything
    // before anyone else runs, which made this test flaky in small CI
    // containers).
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  });
  int active = 0;
  for (const auto& p : per_worker) {
    if (p.load() > 0) ++active;
  }
  EXPECT_GE(active, 2) << "work stealing should engage more than one worker";
}

TEST(StealExecutor, EmptyAndTrivialProblems) {
  StealExecutor::Config cfg;
  cfg.num_workers = 2;
  StealExecutor exec(cfg);
  std::atomic<int> leaves{0};
  exec.run(0, [&](const dnc::Region&, std::uint32_t) { leaves++; });
  EXPECT_EQ(leaves.load(), 0);
  exec.run(1, [&](const dnc::Region&, std::uint32_t) { leaves++; });
  EXPECT_EQ(leaves.load(), 0);
  exec.run(2, [&](const dnc::Region&, std::uint32_t) { leaves++; });
  EXPECT_EQ(leaves.load(), 1);
}

TEST(StealExecutor, PartitionModeIntegratesRemoteWork) {
  // One node of a two-node mesh: it seeds its own half of the partition
  // and pulls the other half region-by-region through the remote-steal
  // hook; the run ends only on the (externally computed) global-done
  // signal, and every pair is executed exactly once.
  const dnc::ItemIndex n = 40;
  const auto total = dnc::count_pairs(dnc::root_region(n));
  auto partition = dnc::partition_root(n, 2);

  std::mutex remote_mutex;
  std::vector<dnc::Region> remote(partition[1]);
  std::atomic<std::uint64_t> executed{0};
  std::mutex seen_mutex;
  std::set<std::pair<dnc::ItemIndex, dnc::ItemIndex>> seen;

  StealExecutor::Config cfg;
  cfg.num_workers = 2;
  cfg.max_leaf_pairs = 8;
  StealExecutor exec(cfg);

  StealExecutor::RemoteHooks hooks;
  std::atomic<std::uint64_t> remote_served{0};
  hooks.steal = [&](std::uint32_t) -> std::optional<dnc::Region> {
    std::scoped_lock lock(remote_mutex);
    if (remote.empty()) return std::nullopt;
    const dnc::Region region = remote.back();
    remote.pop_back();
    remote_served.fetch_add(1);
    return region;
  };
  hooks.done = [&] { return executed.load() == total; };

  const auto stats = exec.run_partition(
      partition[0],
      [&](const dnc::Region& region, std::uint32_t) {
        {
          std::scoped_lock lock(seen_mutex);
          dnc::for_each_pair(region, [&](dnc::Pair p) {
            EXPECT_TRUE(seen.insert({p.left, p.right}).second);
          });
        }
        executed.fetch_add(dnc::count_pairs(region));
      },
      hooks, nullptr);

  EXPECT_EQ(executed.load(), total);
  EXPECT_EQ(seen.size(), total);
  EXPECT_EQ(stats.remote_steals, remote_served.load());
  EXPECT_GT(stats.remote_steals, 0u);
}

TEST(StealExporter, EmptyOutsideInstallWindow) {
  StealExporter exporter;
  EXPECT_FALSE(exporter.try_steal().has_value());
}

}  // namespace
}  // namespace rocket::steal
