#pragma once

// Per-node mesh service: the live counterpart of the cluster-layer
// protocols the simulator runs in virtual time.
//
// Each node of a LiveCluster owns one MeshNode. A dedicated service
// thread drains the node's transport inbox and serves four duties:
//   * mediator  — §4.1.3 directory lookups for the items this node
//                 mediates (item mod p), answered by forwarding a probe
//                 along the candidate chain;
//   * candidate — host-cache probes on behalf of remote requesters,
//                 through the HostCacheProbe the NodeRuntime registers
//                 while its engine is live;
//   * victim    — steal requests answered from the registered
//                 StealExporter, each hand-over followed by a StealExport
//                 notice to the master;
//   * adopter   — every region this node is handed (a steal reply, a
//                 RegionGrant, its own failed reply, a master self-grant)
//                 enters one adoption queue through adopt(), which
//                 remote_steal drains;
//   * master    — on the master node only: exactly-once per-pair result
//                 aggregation (ResultLedger dedup), the failure detector's
//                 death verdicts, the cluster-wide completion signal, and
//                 every lease move after the initial seeding, through
//                 move_lease().
//
// A second, low-rate ticker thread drives everything timeout-shaped
// (DESIGN.md §12): heartbeat leases to the master, the master's
// missed-lease failure detector, and pending-peer-fetch deadlines (retry
// with backoff, then complete as a miss so the load pipeline falls back
// to the object store — the mechanism that also unblocks a *killed*
// node's own in-flight fetches). The ticker never mutates protocol state
// directly: death verdicts travel through the master's own inbox, so the
// ledger stays single-threaded on the service thread.
//
// Requester-side flows never block a runtime thread unboundedly:
// PeerFetchClient::fetch is fully asynchronous (its callback fires when
// the data or a failure message arrives, a failed send completes the
// fetch as a miss immediately, and the ticker bounds how long a silent
// peer can stall it), and remote_steal waits on its reply with a timeout.
// Together with the rule that the service thread only ever blocks on its
// own inbox, this is the mesh's deadlock-freedom argument (DESIGN.md §9).

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/distributed_directory.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "mesh/checkpoint.hpp"
#include "mesh/result_ledger.hpp"
#include "mesh/transport.hpp"
#include "runtime/application.hpp"
#include "runtime/peer_fetch.hpp"
#include "steal/executor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/trace.hpp"

namespace rocket::mesh {

/// Requester-side chain-walk statistics (the live analogue of the
/// simulator's DistCacheMetrics).
struct PeerCacheStats {
  std::uint64_t requests = 0;      // peer fetches issued by this node
  std::uint64_t chain_hits = 0;    // served from a peer's host cache
  std::uint64_t chain_misses = 0;  // exhausted or failed chains
  std::uint64_t retries = 0;       // fetch retransmits after a deadline
  std::uint64_t timeouts = 0;      // fetches failed after the retry budget
  std::vector<std::uint64_t> hits_at_hop;  // index 0 = first hop

  std::uint64_t total_hits() const {
    std::uint64_t sum = 0;
    for (const auto h : hits_at_hop) sum += h;
    return sum;
  }
};

PeerCacheStats& operator+=(PeerCacheStats& a, const PeerCacheStats& b);

/// Failure-model observability (DESIGN.md §12). Master fields are zero on
/// non-master nodes; stable once the cluster has quiesced.
struct FailoverStats {
  std::uint64_t node_deaths = 0;        // master: death verdicts issued
  std::uint64_t regions_reexecuted = 0; // master: regions re-granted
  std::uint64_t duplicate_results_dropped = 0;  // master: dedup drops
  std::uint64_t results_received = 0;   // master: raw ResultMsg count
  std::uint64_t regions_adopted = 0;    // re-execution grants parked here
  std::uint64_t master_failovers = 0;   // this node adopted the master role

  // --- grey-failure health (DESIGN.md §15) ---
  std::uint64_t nodes_suspected = 0;    // master: alive → suspected
  std::uint64_t nodes_degraded = 0;     // master: suspected → degraded
  std::uint64_t nodes_recovered = 0;    // master: degraded → alive
  std::uint64_t regions_speculated = 0; // master: straggler re-grants
  std::uint64_t pairs_speculated = 0;   // pairs covered by those grants
  std::uint64_t steals_avoided_degraded = 0;  // victim draws that skipped
                                              // suspected/degraded nodes
};

FailoverStats& operator+=(FailoverStats& a, const FailoverStats& b);

class MeshNode final : public runtime::PeerFetchClient {
 public:
  using ResultFn = std::function<void(const runtime::PairResult&)>;

  /// The LiveCluster master (aggregator, failure detector, ledger).
  static constexpr NodeId kMaster = 0;

  struct Config {
    NodeId id = 0;
    std::uint32_t num_workers = 1;  // steal cells, one per executor worker
    std::uint32_t hop_limit = 1;    // the paper's h
    std::uint32_t max_chain_hops = 0;  // mediator hand-out cap (0 = h)
    std::uint64_t seed = 1;

    // --- failure model (DESIGN.md §12) ---

    /// Period of the liveness lease this node renews at the master.
    /// 0 disables heartbeats (single-node runs, protocol unit tests).
    double heartbeat_interval_s = 0.0;

    /// Master only: a non-master node silent for longer than this is
    /// declared dead. 0 disables the failure detector.
    double lease_timeout_s = 0.0;

    /// Pending peer fetches older than this are retransmitted with
    /// exponential backoff, then completed as a miss once
    /// `max_fetch_retries` is spent (the load pipeline falls back to the
    /// object store). 0 disables deadlines: a fetch then fails fast only
    /// when its send is rejected.
    double fetch_timeout_s = 0.0;
    std::uint32_t max_fetch_retries = 3;

    // --- telemetry (DESIGN.md §13) ---

    /// Period of this node's TelemetrySnapshot stream to the master
    /// (published on the ticker; the master publishes to itself so every
    /// node goes through the same path). 0 disables the stream.
    double snapshot_interval_s = 0.0;

    /// Optional sink for discrete trace events (steals, deaths, region
    /// re-grants); owned by the caller, may be null.
    telemetry::EventLog* events = nullptr;

    // --- causal tracing (DESIGN.md §16) ---

    /// Sampled-span sink shared with this node's runtime; null disables
    /// causal tracing at the mesh layer.
    telemetry::SpanLog* spans = nullptr;

    /// Black-box ring of recent span/transport events, dumped to the
    /// checkpoint store post-mortem. Null disables.
    telemetry::FlightRecorder* flight = nullptr;

    /// Deterministic message-level sampling for spans the mesh roots
    /// itself (steals, re-grants, result-delivery hops): every Nth by
    /// seeded hash. 0 disables mesh-rooted spans; propagated contexts on
    /// incoming messages are honoured regardless.
    std::uint32_t trace_sample_n = 0;

    /// Master only: fired on the service thread with each fresh
    /// ClusterSnapshot (once per master snapshot interval).
    std::function<void(const telemetry::ClusterSnapshot&)> on_snapshot;

    // --- grey-failure health (DESIGN.md §15) ---

    /// Master: a node whose EWMA delivered-pairs rate stays below this
    /// fraction of the cluster median for `suspect_intervals` consecutive
    /// telemetry intervals is marked degraded (a straggler — alive but
    /// slow). Rates come from the TelemetrySnapshot stream, so the state
    /// machine only engages while snapshots flow. 0 disables it entirely
    /// (the binary alive/dead model of DESIGN.md §12).
    double degraded_rate_fraction = 0.0;

    /// Consecutive below-threshold intervals before a suspected node is
    /// confirmed degraded (the first below-threshold interval moves it
    /// alive → suspected).
    std::uint32_t suspect_intervals = 2;

    /// Hysteresis: a degraded node must hold its EWMA rate above
    /// recover_rate_fraction × cluster median for recover_intervals
    /// consecutive intervals before it is healthy (and grantable) again.
    double recover_rate_fraction = 0.7;
    std::uint32_t recover_intervals = 2;

    /// EWMA smoothing factor for the per-node rate estimate (weight of
    /// the newest interval's instantaneous rate).
    double health_ewma_alpha = 0.4;

    /// Straggler speculation bound: up to this many of a degraded node's
    /// undelivered regions are re-granted to the fastest healthy node per
    /// telemetry interval (first result wins; the ledger drops the
    /// duplicates). The degraded node keeps its lease and its in-flight
    /// work — speculation only drains its backlog at this bounded rate.
    /// 0 disables speculation while keeping health tracking.
    std::uint32_t speculation_regions_per_interval = 2;

    // Master duties: set on the node that results are routed to (node 0 in
    // a LiveCluster); activated by a non-empty on_result/on_complete.
    std::uint64_t expected_pairs = 0;
    ResultFn on_result;                // user callback, invoked serially
    std::function<void()> on_complete; // fired once, on the service thread

    /// Master only: item count and initial partition (indexed by node) —
    /// seeds the exactly-once ResultLedger. Zero items / empty grants
    /// disable the ledger (no dedup, pre-failure-model aggregation).
    /// With `failover` these are set on EVERY node (any node may adopt
    /// the master role), but only the current master builds a ledger.
    std::uint32_t ledger_items = 0;
    std::vector<std::vector<dnc::Region>> initial_grants;

    // --- durability (DESIGN.md §14) ---

    /// Master failover: the master mirrors its aggregation state to a
    /// standby (kLedgerSync), every node heartbeat-watches the current
    /// master, and on master lease expiry the lowest live node adopts
    /// the role, dedups against its mirror, and re-grants the frontier.
    bool failover = false;

    /// Crash-safe run journal (shared across nodes; internally locked).
    /// The current master appends flushed result batches and completed
    /// regions. Null disables journalling.
    checkpoint::Journal* journal = nullptr;

    /// Pairs already delivered by a previous incarnation of this run
    /// (journal replay). The master pre-marks them in its ledger; they
    /// count toward expected_pairs but are NOT re-delivered.
    std::vector<dnc::Pair> recovered;

    /// Master: accepted results buffer until this many are pending (or
    /// the run completes, or a master tick fires), then flush as one
    /// unit: standby mirror (with failover) → journal append (with a
    /// journal) → user delivery.
    std::uint32_t result_batch_pairs = 64;
  };

  MeshNode(Config config, Transport& transport,
           std::shared_ptr<std::atomic<bool>> done);
  ~MeshNode();

  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  /// Launch the service thread (and the ticker when any timeout feature
  /// is enabled). Call join() only after Transport::close().
  void start();
  void join();

  // ---- NodeRuntime wiring (MeshPort hooks) ----

  /// PeerFetchClient: mediator lookup + candidate chain walk, §4.1.3.
  /// A sampled `ctx` opens a peer.fetch span closed by complete_fetch
  /// (aborted when the fetch failed), and rides the request across the
  /// wire so the serving candidate's span links back (DESIGN.md §16).
  void fetch(ItemId item, DoneFn done,
             telemetry::SpanContext ctx = {}) override;

  /// Take a region from the adoption queue, or send a steal request and
  /// wait a bounded time for something to arrive there; nullopt on
  /// timeout, empty-handed victim, or cluster completion. Nodes declared
  /// dead are skipped as victims.
  std::optional<dnc::Region> remote_steal(std::uint32_t worker);

  bool global_done() const {
    return done_->load(std::memory_order_acquire);
  }

  void register_probe(runtime::HostCacheProbe* probe);
  void register_exporter(steal::StealExporter* exporter);

  /// Runtime-stats sampler for the telemetry stream; install before the
  /// engine starts, clear (empty function) once it drains — same contract
  /// as register_probe.
  void register_stats(telemetry::NodeStatsFn fn);

  /// Wake blocked adoption-queue waiters (called cluster-wide on
  /// completion).
  void wake();

  // ---- metrics (stable once the cluster has quiesced) ----
  PeerCacheStats peer_stats() const;
  cache::DirectoryStats directory_stats() const;
  /// Master aggregation + this node's adoption counters. Unlocked master
  /// fields: call only after join() (reads are ordered by the thread
  /// join, like the report aggregation in LiveCluster).
  FailoverStats failover_stats() const;
  /// Mesh-side latency instruments (steal RTT, peer-fetch hit/miss, lease
  /// slack) — merged into the node's report next to the engine's metrics.
  telemetry::MetricsSnapshot metrics_snapshot() const {
    return metrics_.snapshot();
  }
  std::vector<NodeId> directory_candidates(ItemId item) const;  // testing
  bool is_dead(NodeId node) const {
    return dead_[node].load(std::memory_order_acquire);
  }

  /// This node's view of `node`'s health (DESIGN.md §15): the master's
  /// detector decides transitions and broadcasts them; every node reads
  /// the view in steal-victim and grant-target selection.
  telemetry::NodeHealth health_of(NodeId node) const {
    return static_cast<telemetry::NodeHealth>(
        health_[node].load(std::memory_order_acquire));
  }

  /// The node currently holding the master role, as this node knows it.
  /// Result routing reads this so post-failover results reach the
  /// adopter, not the corpse.
  NodeId current_master() const {
    return master_.load(std::memory_order_acquire);
  }

 private:
  /// One executor worker's steal-request state, guarded by adopt_mutex_.
  /// The regions themselves land in the node-wide adoption queue.
  struct StealCell {
    std::uint32_t outstanding = 0;  // unanswered requests (a throttle)
    telemetry::SpanContext span;    // in-flight steal's context (§16)
    Rng rng{1};
  };

  /// One in-flight peer fetch (requester side). `deadline`/`attempts`
  /// drive the ticker's retry sweep when fetch_timeout_s > 0.
  struct PendingFetch {
    DoneFn done;
    std::uint32_t attempts = 0;
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point t0{};  // issue time (latency)
    telemetry::SpanContext span;  // sampled peer.fetch span (§16)
  };

  /// Master-side telemetry fold state for one publisher (service thread
  /// only): the last two samples, for rate-from-delta computation, and
  /// whether the publisher owed work when each arrived.
  struct SnapState {
    std::uint64_t samples = 0;  // samples folded so far
    telemetry::NodeStats last{};
    telemetry::NodeStats prev{};
    std::chrono::steady_clock::time_point last_at{};  // arrival: staleness
    bool last_owed = false;
    bool prev_owed = false;

    /// Seconds between the last two samples on the publisher's own clock
    /// (NodeStats::uptime_seconds), or 0 when they give no rate: fewer
    /// than two samples, an uptime that did not advance, or a pair
    /// counter that went backwards (a torn-down engine reports zeros).
    double rate_seconds() const {
      if (samples < 2 || last.pairs < prev.pairs) return 0.0;
      const double dt = last.uptime_seconds - prev.uptime_seconds;
      return dt > 0.0 ? dt : 0.0;
    }
  };

  void serve_loop();
  void ticker_loop();
  void check_leases();
  void check_master_lease();
  void check_fetch_deadlines();
  void on_cache_request(const CacheRequest& req);
  void on_cache_probe(CacheProbe probe);
  void on_cache_data(CacheData data);
  void on_cache_failure(const CacheFailure& failure);
  void on_steal_request(const StealRequest& req);
  void on_steal_reply(const StealReply& reply);
  void on_result_msg(const ResultMsg& msg);
  void on_node_down(const NodeDown& down, NodeId from);
  void on_steal_export(const StealExport& exp);
  void on_region_grant(const RegionGrant& grant);
  void on_telemetry(const TelemetrySnapshot& snap);
  void on_ledger_sync(LedgerSync sync);
  void on_master_announce(const MasterAnnounce& ann);
  void on_master_tick();
  void on_health_update(const HealthUpdate& update);

  // --- grey-failure health (master, service thread; DESIGN.md §15) ---

  bool health_enabled() const { return cfg_.degraded_rate_fraction > 0.0; }

  /// Run the health state machine over the folded telemetry samples; the
  /// master's own sample arrival is the metronome, so this fires once per
  /// telemetry interval.
  void evaluate_health();
  bool owes_work(NodeId node) const;

  /// Record a transition locally and broadcast it to every live peer.
  void set_health(NodeId node, telemetry::NodeHealth state);

  /// Speculatively re-grant a bounded slice of a degraded node's
  /// undelivered backlog to the fastest healthy node.
  void speculate_for(NodeId node);
  NodeId pick_speculation_target(NodeId degraded);

  // --- durability (master, service thread; DESIGN.md §14) ---

  /// Flush the pending result batch: liveness check → standby mirror →
  /// journal append → user delivery, in that order. A failure at the
  /// mirror step means this node is dead: the batch is dropped whole (the
  /// adopter re-grants it), never partially delivered.
  void flush_results();

  /// Mirror the current aggregation state to the lowest live peer; full
  /// snapshot when the standby changed, delta (the pending batch)
  /// otherwise. Returns false only when this node itself is down.
  bool sync_to_standby();

  /// Adopt the master role after `dead_master`'s lease expired: rebuild
  /// the ledger from the mirror, announce, and re-grant the frontier.
  void adopt_master(NodeId dead_master);

  /// Rebuild the initial-grant completion watch (journal RegionComplete
  /// records) from the ledger's current delivered state.
  void init_region_watch();
  void note_region_progress(const runtime::PairResult& result);

  /// Ticker: sample this node's runtime and ship it to the master.
  void publish_snapshot();

  // --- ownership (DESIGN.md §12.3) ---

  /// Master, service thread: the only writer of ledger ownership after
  /// the initial seeding. A plain move (`reexecution` false) records that
  /// `to` already holds the region (a steal notice). A re-execution move
  /// also ships it to `to` as a RegionGrant. A dead `to` is redirected to
  /// pick_survivor() as a re-execution; an unreachable one leaves the
  /// region with the master, which adopts it.
  void move_lease(const dnc::Region& region, NodeId to, bool reexecution);

  /// Master: move every undelivered pair `dead` owned to survivors.
  void regrant_lease_of(NodeId dead);
  NodeId pick_survivor();

  /// Service thread: queue `region` for this node's executor — the one
  /// entry point for stolen regions, re-execution grants and regions
  /// this node failed to hand over. `grant_epoch` is set for a
  /// re-execution grant, which counts in regions_adopted.
  void adopt(const dnc::Region& region,
             std::optional<std::uint32_t> grant_epoch = std::nullopt);

  /// Pop the adoption queue's front; adopt_mutex_ held, queue non-empty.
  dnc::Region take_adopted(std::uint32_t worker);

  /// Forward the probe to chain[index], skipping unreachable candidates;
  /// an exhausted chain reports a miss to the requester. `span` is the
  /// requester's causal context, carried along the whole chain walk.
  void forward_probe(ItemId item, NodeId requester, std::vector<NodeId> chain,
                     std::uint32_t index, const telemetry::SpanContext& span);

  /// Resolve the pending fetch for `item` and record the chain outcome.
  void complete_fetch(ItemId item, runtime::PeerPayload payload,
                      std::uint32_t hops, bool hit);

  bool is_master() const {
    return cfg_.id == master_.load(std::memory_order_acquire);
  }

  // --- causal tracing helpers (DESIGN.md §16) ---

  bool tracing() const {
    return cfg_.spans != nullptr && cfg_.trace_sample_n > 0;
  }

  /// Seconds since the process trace epoch (the span timeline).
  static double trace_now();

  /// Root context for a mesh-originated trace (steal, grant, deliver),
  /// deterministically sampled by `key` under the node seed.
  telemetry::SpanContext mesh_trace(std::uint64_t key) const {
    return tracing() ? telemetry::make_trace(cfg_.seed, key,
                                             cfg_.trace_sample_n)
                     : telemetry::SpanContext{};
  }

  /// Record a closed child span of `parent` on this node's span log.
  void record_child_span(const telemetry::SpanContext& parent,
                         std::uint64_t salt, telemetry::SpanPhase phase,
                         double start, double end);

  static constexpr NodeId kNoNode = ~NodeId{0};

  Config cfg_;
  Transport& transport_;
  std::shared_ptr<std::atomic<bool>> done_;
  std::thread service_;

  mutable std::mutex mutex_;  // directory, exporter, pending, stats, stats_fn_
  cache::DistributedDirectory directory_;
  steal::StealExporter* exporter_ = nullptr;
  std::unordered_map<ItemId, PendingFetch> pending_;
  PeerCacheStats stats_;
  telemetry::NodeStatsFn stats_fn_;

  // --- telemetry instruments (lock-free recording) ---
  telemetry::MetricsRegistry metrics_;
  telemetry::LatencyHistogram* steal_rtt_ = nullptr;
  telemetry::LatencyHistogram* fetch_hit_ = nullptr;
  telemetry::LatencyHistogram* fetch_miss_ = nullptr;
  telemetry::LatencyHistogram* lease_slack_ = nullptr;
  telemetry::Counter* fetch_retries_ = nullptr;
  telemetry::Counter* frame_corrupt_ = nullptr;
  std::atomic<std::uint64_t> remote_steal_count_{0};
  std::atomic<std::uint64_t> trace_key_seq_{0};  // mesh-rooted trace keys

  /// Separate lock for the probe pointer: serving a probe copies a whole
  /// slot-sized buffer, which must not stall requester-side fetch
  /// bookkeeping or mediator lookups under mutex_.
  mutable std::mutex probe_mutex_;
  runtime::HostCacheProbe* probe_ = nullptr;

  /// The adoption queue: every region this node will execute beyond its
  /// initial partition. adopt_mutex_ also guards the steal cells.
  std::mutex adopt_mutex_;
  std::condition_variable adopt_cv_;
  std::deque<dnc::Region> adopted_;
  std::vector<StealCell> cells_;

  // --- master state (service thread only) ---
  std::uint64_t results_seen_ = 0;   // user-delivered results (incl. recovered)
  std::unique_ptr<ResultLedger> ledger_;
  FailoverStats failover_;
  std::uint32_t death_epoch_ = 0;
  NodeId next_regrant_ = 0;  // round-robin survivor cursor
  std::vector<SnapState> snap_states_;  // telemetry fold, by publisher
  std::uint64_t cluster_snapshot_seq_ = 0;

  // --- grey-failure health (DESIGN.md §15) ---
  /// Cluster-wide health view: written by the service thread (master
  /// verdicts, broadcast updates), read by steal-victim and grant-target
  /// selection on any thread.
  std::unique_ptr<std::atomic<std::uint8_t>[]> health_;
  /// Master-side detector state per node (service thread only).
  struct HealthState {
    double ewma = -1.0;       // busy delivered-pairs rate; <0 = unseeded
    std::uint32_t below = 0;  // consecutive below-threshold intervals
    std::uint32_t above = 0;  // consecutive above-recovery intervals
    bool fresh = false;       // ewma folded a new sample this evaluation
    std::uint64_t rated_sample = 0;  // SnapState::samples when folded
  };
  std::vector<HealthState> health_states_;  // service thread only
  std::uint32_t health_seq_ = 0;            // service thread only
  std::uint32_t spec_rr_ = 0;               // speculation round-robin cursor
  std::atomic<std::uint64_t> steals_avoided_degraded_{0};

  // --- durability state (service thread only; DESIGN.md §14) ---
  /// Which node holds the master role. Atomic because the ticker and the
  /// result-routing path read it from other threads; written only by the
  /// service thread (adoption, announce).
  std::atomic<NodeId> master_{kMaster};
  bool crashed_ = false;  // this node observed its own injected death
  bool completed_ = false;  // on_complete fired (guard across failover)
  std::vector<runtime::PairResult> batch_;  // accepted, awaiting flush
  NodeId standby_ = kNoNode;
  bool standby_needs_snapshot_ = true;
  std::uint64_t sync_seq_ = 0;
  std::uint32_t failover_epoch_ = 0;
  /// Standby side: the mirrored delivered set and count.
  std::vector<dnc::Pair> mirror_;
  std::uint64_t mirror_delivered_ = 0;
  std::uint64_t mirror_seq_ = 0;
  /// Initial-grant regions with undelivered-pair countdowns; a zeroed
  /// entry becomes a journal RegionComplete record at the next flush.
  struct RegionWatch {
    dnc::Region region;
    std::uint64_t remaining = 0;
  };
  std::vector<RegionWatch> region_watch_;
  std::vector<dnc::Region> regions_just_completed_;

  // --- liveness (shared between service thread and ticker) ---
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::unique_ptr<std::atomic<std::int64_t>[]> last_seen_ns_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t heartbeat_seq_ = 0;  // ticker thread only
  std::vector<bool> declared_;       // ticker thread only: verdicts sent
  std::uint64_t snapshot_seq_ = 0;   // ticker thread only
  std::chrono::steady_clock::time_point next_snapshot_{};  // ticker only

  std::thread ticker_;
  std::mutex ticker_mutex_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;  // guarded by ticker_mutex_
};

}  // namespace rocket::mesh
