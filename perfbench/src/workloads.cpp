#include "workloads.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/app_model.hpp"
#include "apps/bioinformatics.hpp"
#include "apps/forensics.hpp"
#include "apps/microscopy.hpp"
#include "cache/slot_cache.hpp"
#include "cluster/experiments.hpp"
#include "cluster/sim_cluster.hpp"
#include "gate.hpp"
#include "isolated.hpp"
#include "mesh/live_cluster.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using rocket::apps::JsonValue;

double param(const JsonValue& params, const std::string& key,
             double fallback) {
  const auto& object = params.as_object();
  const auto it = object.find(key);
  return it == object.end() ? fallback : it->second.as_number();
}

std::uint32_t param_u32(const JsonValue& params, const std::string& key,
                        std::uint32_t fallback) {
  const double v = param(params, key, fallback);
  if (!(v >= 0.0 && v <= 4e9)) {
    throw std::invalid_argument("parameter out of range: " + key);
  }
  return static_cast<std::uint32_t>(v);
}

std::string param_str(const JsonValue& params, const std::string& key) {
  return params.at(key).as_string();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// End-to-end metrics: medians over the untraced repeats.
constexpr const char* kEndToEnd[] = {"pairs_per_s", "setup_s", "reuse_factor",
                                     "peak_rss_mb"};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Starts a new peak-RSS window: writing 5 to clear_refs resets the
/// process's VmHWM to its current RSS. Where the kernel refuses, VmHWM
/// stays the peak of the whole process so far.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set (VmHWM) of this process since the last reset, in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Per-metric medians over the repeats' metric maps.
std::map<std::string, double> medians(
    const std::vector<std::map<std::string, double>>& repeats) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& r : repeats) {
    for (const auto& [name, value] : r) by_name[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : by_name) out[name] = median(std::move(values));
  return out;
}

/// Records the repeat count and each untraced repeat's end-to-end values,
/// so a reader can tell run-to-run noise from seed-to-seed change.
void note_repeats(const std::vector<std::map<std::string, double>>& plain,
                  std::size_t traced, RunResult& out) {
  out.info["repeats"] = std::to_string(plain.size() + traced);
  for (const char* name : kEndToEnd) {
    std::string values;
    for (const auto& r : plain) {
      char text[32];
      std::snprintf(text, sizeof(text), "%s%.6g", values.empty() ? "" : " ",
                    r.at(name));
      values += text;
    }
    out.info[std::string("per_repeat.") + name] = values;
  }
}

// --- live workloads -------------------------------------------------------

/// Generated inputs of a live workload. The application points into the
/// dataset, so the dataset is declared (and outlives) before it.
struct LiveInputs {
  rocket::storage::MemoryStore store;
  std::shared_ptr<const void> dataset;
  std::unique_ptr<rocket::runtime::Application> app;
  std::unordered_map<std::string, std::uint32_t> ids;  // file name → item
};

std::unique_ptr<LiveInputs> make_inputs(const JsonValue& p,
                                        std::uint64_t seed) {
  auto in = std::make_unique<LiveInputs>();
  const std::string app = param_str(p, "app");
  if (app == "forensics") {
    rocket::apps::ForensicsConfig c;
    c.cameras = param_u32(p, "cameras", c.cameras);
    c.images_per_camera = param_u32(p, "images_per_camera", c.images_per_camera);
    c.width = param_u32(p, "width", c.width);
    c.height = param_u32(p, "height", c.height);
    c.seed = seed;
    auto ds = std::make_shared<rocket::apps::ForensicsDataset>(c, in->store);
    in->app = std::make_unique<rocket::apps::ForensicsApplication>(*ds);
    in->dataset = ds;
  } else if (app == "microscopy") {
    rocket::apps::MicroscopyConfig c;
    c.particles = param_u32(p, "particles", c.particles);
    c.binding_sites = param_u32(p, "binding_sites", c.binding_sites);
    c.localizations_per_site_min = param_u32(
        p, "localizations_per_site_min", c.localizations_per_site_min);
    c.localizations_per_site_max = param_u32(
        p, "localizations_per_site_max", c.localizations_per_site_max);
    c.seed = seed;
    auto ds = std::make_shared<rocket::apps::MicroscopyDataset>(c, in->store);
    in->app = std::make_unique<rocket::apps::MicroscopyApplication>(*ds);
    in->dataset = ds;
  } else if (app == "bioinformatics") {
    rocket::apps::BioinformaticsConfig c;
    c.species = param_u32(p, "species", c.species);
    c.proteins = param_u32(p, "proteins", c.proteins);
    c.protein_len_min = param_u32(p, "protein_len_min", c.protein_len_min);
    c.protein_len_max = param_u32(p, "protein_len_max", c.protein_len_max);
    c.seed = seed;
    auto ds =
        std::make_shared<rocket::apps::BioinformaticsDataset>(c, in->store);
    in->app = std::make_unique<rocket::apps::BioinformaticsApplication>(*ds);
    in->dataset = ds;
  } else {
    throw std::invalid_argument("unknown app: " + app);
  }
  for (std::uint32_t i = 0; i < in->app->item_count(); ++i) {
    in->ids.emplace(in->app->file_name(i), i);
  }
  return in;
}

rocket::mesh::LiveClusterConfig live_config(const JsonValue& p) {
  rocket::mesh::LiveClusterConfig cfg;
  cfg.num_nodes = param_u32(p, "nodes", 4);
  cfg.node.cpu_threads = param_u32(p, "cpu_threads", 1);
  if (p.as_object().count("host_cache_mib")) {
    cfg.node.host_cache_capacity = static_cast<rocket::Bytes>(
        param(p, "host_cache_mib", 0) * (1u << 20));
  }
  if (p.as_object().count("device_cache_mib")) {
    cfg.node.device_cache_capacity = static_cast<rocket::Bytes>(
        param(p, "device_cache_mib", 0) * (1u << 20));
  }
  return cfg;
}

struct LiveRepeat {
  double wall_s = 0.0;
  std::uint64_t pairs = 0;      // C(n,2)
  std::uint64_t delivered = 0;  // master callbacks
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  // end-to-end and counters
};

/// The program's own counters, read from the report after a run.
void report_metrics(const rocket::mesh::LiveClusterReport& r, double wall_s,
                    std::map<std::string, double>& m) {
  rocket::cache::CacheStats device;
  double busy_s = 0.0;
  std::size_t devices = 0;
  std::uint64_t acquire_retries = 0, failed_sweeps = 0, max_node_pairs = 0,
                node_pairs = 0;
  for (const auto& node : r.nodes) {
    for (const auto& c : node.device_caches) device += c;
    for (const double b : node.device_busy_seconds) {
      busy_s += b;
      ++devices;
    }
    acquire_retries += node.acquire_retries;
    failed_sweeps += node.steal.failed_steal_sweeps;
    max_node_pairs = std::max(max_node_pairs, node.pairs);
    node_pairs += node.pairs;
  }
  const auto hit_ratio = [](const rocket::cache::CacheStats& c) {
    return ratio(static_cast<double>(c.hits),
                 static_cast<double>(c.hits + c.write_waits + c.fills));
  };
  m["cache.device.hit_ratio"] = hit_ratio(device);
  m["cache.device.evictions"] = static_cast<double>(device.evictions);
  m["cache.host.hit_ratio"] = hit_ratio(r.host_cache);
  m["cache.host.evictions"] = static_cast<double>(r.host_cache.evictions);
  m["cache.host.alloc_stalls"] =
      static_cast<double>(r.host_cache.alloc_stalls);
  m["cache.write_waits"] =
      static_cast<double>(r.host_cache.write_waits + device.write_waits);
  m["cache.fast_hits"] = static_cast<double>(r.cache_fast_hits);

  m["mesh.peer_loads"] = static_cast<double>(r.peer_loads);
  m["mesh.peer_load_share"] = ratio(static_cast<double>(r.peer_loads),
                                    static_cast<double>(r.loads + r.peer_loads));
  m["mesh.directory.hit_ratio"] =
      ratio(static_cast<double>(r.directory.chain_hits),
            static_cast<double>(r.directory.requests));
  m["mesh.directory.hops_per_request"] =
      ratio(static_cast<double>(r.directory.hops),
            static_cast<double>(r.directory.requests));
  m["mesh.peer_retries"] = static_cast<double>(r.peer_retries);
  m["mesh.wire_bytes_per_pair"] =
      ratio(static_cast<double>(r.traffic.total_bytes()),
            static_cast<double>(r.pairs));
  const auto& data = r.traffic.per_tag[static_cast<std::size_t>(
      rocket::net::Tag::kCacheData)];
  m["mesh.compressed_ratio"] =
      data.raw_bytes > 0 ? static_cast<double>(data.bytes) /
                               static_cast<double>(data.raw_bytes)
                         : 1.0;

  m["steal.remote_steals"] = static_cast<double>(r.remote_steals);
  m["steal.failed_sweeps"] = static_cast<double>(failed_sweeps);
  m["steal.node_pairs_imbalance"] =
      ratio(static_cast<double>(max_node_pairs) * r.nodes.size(),
            static_cast<double>(node_pairs));

  m["runtime.device_busy_fraction"] =
      ratio(busy_s, wall_s * static_cast<double>(devices));
  m["runtime.stall_s"] = r.stall_seconds;
  m["runtime.prefetch_hits"] = static_cast<double>(r.prefetch_hits);
  m["runtime.acquire_retries"] = static_cast<double>(acquire_retries);

  using rocket::telemetry::PathPhase;
  const std::pair<const char*, PathPhase> phases[] = {
      {"compute", PathPhase::kCompute}, {"peer_fetch", PathPhase::kPeerFetch},
      {"load", PathPhase::kLoad},       {"steal", PathPhase::kSteal},
      {"deliver", PathPhase::kDeliver}, {"idle", PathPhase::kIdle}};
  for (const auto& [name, phase] : phases) {
    m[std::string("critical_path.") + name + "_pct"] =
        r.critical_path.percent(phase);
  }
}

LiveRepeat run_live_repeat(const RunOptions& o, LiveInputs& in,
                           SpanLog* log, std::uint32_t index) {
  const JsonValue& p = o.params;
  const std::uint32_t n = in.app->item_count();
  TimedStore input(in.store, log, &in.ids);
  TimedApp app(*in.app, log, o.perturb);
  auto cfg = live_config(p);
  cfg.trace_sample_n = log != nullptr ? 1 : 0;

  // The durable workload journals into a fresh directory per repeat.
  const bool journal = param(p, "journal", 0) != 0;
  const std::string journal_dir =
      o.out_dir + "/journal-" + o.workload + "-" + std::to_string(index);
  std::optional<rocket::storage::DirectoryStore> journal_files;
  std::optional<TimedStore> journal_store;
  if (journal) {
    std::filesystem::remove_all(journal_dir);
    std::filesystem::create_directories(journal_dir);
    journal_files.emplace(journal_dir);
    journal_store.emplace(*journal_files, log, nullptr);
    cfg.checkpoint_store = &*journal_store;
  }

  PairGate gate(n);
  std::optional<Clock::time_point> first_result;
  reset_peak_rss();
  rocket::mesh::LiveCluster cluster(cfg);
  const auto t0 = Clock::now();
  const auto report = cluster.run_all_pairs(
      app, input, [&](const rocket::runtime::PairResult& result) {
        const auto d0 = Clock::now();
        if (!first_result) first_result = d0;
        gate.deliver(result);
        if (log != nullptr) {
          log->record(SpanKind::kDeliver, result.left, result.right, d0,
                      Clock::now());
        }
      });
  const auto t1 = Clock::now();
  const double peak_rss_mb = peak_rss_mib();

  LiveRepeat rep;
  rep.wall_s = seconds_between(t0, t1);
  rep.pairs = gate.pairs();
  rep.delivered = gate.delivered();
  auto& m = rep.metrics;
  m["pairs_per_s"] = static_cast<double>(gate.delivered()) / rep.wall_s;
  m["setup_s"] = first_result ? seconds_between(t0, *first_result) : rep.wall_s;
  m["reuse_factor"] = static_cast<double>(input.reads()) / n;
  m["peak_rss_mb"] = peak_rss_mb;
  m["storage.read.mib"] = static_cast<double>(input.read_bytes()) / (1 << 20);
  m["storage.append.kib"] =
      journal ? static_cast<double>(journal_store->append_bytes()) / 1024.0
              : 0.0;
  report_metrics(report, rep.wall_s, m);

  SerialReference reference(*in.app, in.store);
  rep.failed = gate.failed_pairs(reference, param_u32(p, "reference_pairs", 64),
                                 o.seed * 0x9E3779B97F4A7C15ULL + index);
  if (journal) std::filesystem::remove_all(journal_dir);
  return rep;
}

/// Span durations in microseconds, by span kind.
using Durations =
    std::array<std::vector<double>, static_cast<std::size_t>(SpanKind::kCount)>;

/// Per-layer numbers from the traced repeats' spans: counts and busy time
/// per repeat, latency percentiles over all of them.
void span_metrics(const Durations& durations_us, std::size_t repeats,
                  std::uint64_t delivered, RunResult& out) {
  const auto layer = [&](SpanKind kind, const std::string& prefix,
                         bool with_p50, bool with_tail) {
    const auto s =
        summarize_us(durations_us[static_cast<std::size_t>(kind)]);
    const double per = 1.0 / static_cast<double>(std::max<std::size_t>(1, repeats));
    out.metrics[prefix + ".count"] = static_cast<double>(s.count) * per;
    out.metrics[prefix + ".busy_s"] = s.busy_s * per;
    if (with_p50) out.metrics[prefix + ".p50_us"] = s.p50_us;
    if (with_tail) {
      out.metrics[prefix + ".tail_us"] = s.tail_us;
      char text[96];
      std::snprintf(text, sizeof(text), "p%g of %llu samples, %llu beyond",
                    s.tail_pct, static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.beyond_tail));
      out.info[prefix + ".tail_us"] = text;
    }
    return s;
  };
  layer(SpanKind::kRead, "storage.read", true, true);
  layer(SpanKind::kAppend, "storage.append", false, true);
  layer(SpanKind::kParse, "apps.parse", true, false);
  layer(SpanKind::kPreprocess, "apps.preprocess", true, false);
  const auto compare = layer(SpanKind::kCompare, "apps.compare", true, true);
  out.metrics["apps.compare.per_pair"] =
      ratio(static_cast<double>(compare.count), static_cast<double>(delivered));
}

/// Byte stream of one repeat's figures, sent from the child to the parent.
class Wire {
 public:
  template <typename T>
  void put(const T& value) {
    buffer_.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  void put_text(const std::string& text) {
    put(static_cast<std::uint32_t>(text.size()));
    buffer_ += text;
  }
  template <typename T>
  T take() {
    if (buffer_.size() - at_ < sizeof(T)) {
      throw std::runtime_error("repeat child sent a short record");
    }
    T value;
    std::memcpy(&value, buffer_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return value;
  }
  std::string take_text() {
    const auto size = take<std::uint32_t>();
    if (buffer_.size() - at_ < size) {
      throw std::runtime_error("repeat child sent a short record");
    }
    std::string text = buffer_.substr(at_, size);
    at_ += size;
    return text;
  }
  bool write_to(int fd) const {
    for (std::size_t done = 0; done < buffer_.size();) {
      const ssize_t n = ::write(fd, buffer_.data() + done, buffer_.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }
  void read_from(int fd) {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  std::string buffer_;
  std::size_t at_ = 0;
};

/// Runs one live repeat in a child process forked after input synthesis,
/// so every repeat starts from the same process image. In one process the
/// heap left by earlier repeats (glibc keeps each thread arena's top
/// resident) lifts every later repeat's peak RSS, and the median then
/// depends on how many repeats fit in the run. The child sends the
/// repeat's figures back over a pipe, with the span durations of a traced
/// repeat; it writes the Chrome trace to chrome_path when that is not
/// empty.
LiveRepeat run_forked_repeat(const RunOptions& o, LiveInputs& in, bool traced,
                             std::uint32_t index,
                             const std::string& chrome_path,
                             Durations& durations_us) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t child = ::fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    ::close(fds[0]);
    // The child ends with the harness, whichever way the harness ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    int code = 0;
    try {
      std::unique_ptr<SpanLog> log =
          traced ? std::make_unique<SpanLog>() : nullptr;
      const LiveRepeat rep = run_live_repeat(o, in, log.get(), index);
      Wire wire;
      wire.put(rep.wall_s);
      wire.put(rep.pairs);
      wire.put(rep.delivered);
      wire.put(rep.failed);
      wire.put(static_cast<std::uint32_t>(rep.metrics.size()));
      for (const auto& [name, value] : rep.metrics) {
        wire.put_text(name);
        wire.put(value);
      }
      if (log) {
        Durations own;
        for (const Span& span : log->spans()) {
          own[static_cast<std::size_t>(span.kind)].push_back(
              (span.end_ns - span.start_ns) / 1e3);
        }
        for (const auto& values : own) {
          wire.put(static_cast<std::uint64_t>(values.size()));
          for (double v : values) wire.put(v);
        }
        if (!chrome_path.empty() && !log->write_chrome(chrome_path)) {
          throw std::runtime_error("cannot write " + chrome_path);
        }
      }
      if (!wire.write_to(fds[1])) throw std::runtime_error("pipe write failed");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: repeat %u: %s\n", index, e.what());
      code = 1;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  Wire wire;
  wire.read_from(fds[0]);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("repeat " + std::to_string(index) + " failed");
  }
  LiveRepeat rep;
  rep.wall_s = wire.take<double>();
  rep.pairs = wire.take<std::uint64_t>();
  rep.delivered = wire.take<std::uint64_t>();
  rep.failed = wire.take<std::uint64_t>();
  for (auto count = wire.take<std::uint32_t>(); count > 0; --count) {
    std::string name = wire.take_text();
    rep.metrics[std::move(name)] = wire.take<double>();
  }
  if (traced) {
    for (auto& values : durations_us) {
      for (auto count = wire.take<std::uint64_t>(); count > 0; --count) {
        values.push_back(wire.take<double>());
      }
    }
  }
  return rep;
}

IsolatedSizing isolated_sizing(const RunOptions& o, LiveInputs& in) {
  const auto cfg = live_config(o.params);
  IsolatedSizing s;
  in.app->parse(0, in.store.read(in.app->file_name(0)), s.slot);
  s.slot_size = in.app->slot_size();
  s.items = in.app->item_count();
  s.cache_slots = rocket::cache::slots_for_capacity(
      cfg.node.host_cache_capacity, s.slot_size, s.items);
  s.cache_shards =
      cfg.node.cache_shards != 0
          ? cfg.node.cache_shards
          : std::min(16u, std::max(1u, std::thread::hardware_concurrency()));
  s.nodes = cfg.num_nodes;
  s.journal_batch_pairs = cfg.journal_batch_pairs;
  s.compress_threshold = cfg.peer_compress_threshold;
  s.scratch_dir = o.out_dir;
  return s;
}

RunResult run_live(const RunOptions& o) {
  auto inputs = make_inputs(o.params, o.seed);
  const std::uint32_t min_repeats = param_u32(o.params, "min_repeats", 3);
  const std::uint32_t warmup = param_u32(o.params, "warmup_repeats", 1);
  RunResult out;
  std::vector<std::map<std::string, double>> plain, traced;
  std::vector<double> plain_wall, traced_wall;
  std::uint64_t traced_delivered = 0;
  Durations durations_us;
  auto start = Clock::now();
  for (std::uint32_t k = 0;; ++k) {
    if (k == warmup) start = Clock::now();
    const bool trace_this = o.trace && k >= warmup && (k - warmup) % 2 == 1;
    // One span dump per workload, of the first traced repeat (the latest
    // run's): a bioinformatics dump is ~80 MB.
    std::string chrome_path;
    if (trace_this && traced.empty()) {
      chrome_path = o.out_dir + "/trace-" + o.workload + ".json";
      out.info["trace_file"] = chrome_path;
    }
    const LiveRepeat rep =
        run_forked_repeat(o, *inputs, trace_this, k, chrome_path, durations_us);
    out.attempted += rep.pairs;
    out.failed += rep.failed;
    if (k < warmup) continue;
    (trace_this ? traced : plain).push_back(rep.metrics);
    (trace_this ? traced_wall : plain_wall).push_back(rep.wall_s);
    if (trace_this) traced_delivered += rep.delivered;
    const bool enough = plain.size() >= min_repeats &&
                        (!o.trace || traced.size() >= min_repeats);
    if (enough && seconds_between(start, Clock::now()) >= o.seconds) break;
  }
  note_repeats(plain, traced.size(), out);

  if (!o.trace) {
    const auto m = medians(plain);
    for (const char* name : kEndToEnd) out.metrics[name] = m.at(name);
    return out;
  }
  const auto m = medians(traced);
  for (const auto& [name, value] : m) {
    if (std::find(std::begin(kEndToEnd), std::end(kEndToEnd), name) ==
        std::end(kEndToEnd)) {
      out.metrics[name] = value;
    }
  }
  out.metrics["telemetry.trace_overhead"] =
      median(traced_wall) / median(plain_wall);
  span_metrics(durations_us, traced.size(), traced_delivered, out);
  for (const auto& [name, value] : isolated_timings(isolated_sizing(o, *inputs))) {
    out.metrics[name] = value;
  }
  return out;
}

// --- simulator workload ---------------------------------------------------

/// Moves the calling (simulator) thread round-robin over the CPUs of the
/// process's affinity mask, one CPU every kCpuCarouselPeriod, from
/// construction to destruction. On a shared host a vCPU runs about 1.45x
/// slower while its hardware sibling is busy, and which vCPUs are slowed
/// changes from second to second. A thread left on one CPU makes every
/// repeat fast or slow, and the median of that two-peaked mix jumps from
/// run to run; a thread that visits every CPU in each repeat measures
/// their mean, as the live workloads do by running on all of them. The
/// thread's original mask is restored at the end.
constexpr auto kCpuCarouselPeriod = std::chrono::milliseconds(10);

class CpuCarousel {
 public:
  CpuCarousel() : tid_(::gettid()) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(tid_, sizeof(original_), &original_) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return;
    mover_ = std::thread([this, cpus] {
      std::unique_lock lock(mutex_);
      for (std::size_t k = 0; !stop_; ++k) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[k % cpus.size()], &one);
        sched_setaffinity(tid_, sizeof(one), &one);
        wake_.wait_for(lock, kCpuCarouselPeriod, [this] { return stop_; });
      }
    });
  }
  ~CpuCarousel() {
    if (!mover_.joinable()) return;
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    mover_.join();
    sched_setaffinity(tid_, sizeof(original_), &original_);
  }
  CpuCarousel(const CpuCarousel&) = delete;
  CpuCarousel& operator=(const CpuCarousel&) = delete;

 private:
  const pid_t tid_;
  cpu_set_t original_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread mover_;
};

RunResult run_sim(const RunOptions& o) {
  const JsonValue& p = o.params;
  const std::uint32_t nodes = param_u32(p, "nodes", 16);
  const std::uint32_t n = param_u32(p, "n", 800);
  const auto model = rocket::apps::model_by_name(param_str(p, "model"));
  const std::uint32_t min_repeats = param_u32(p, "min_repeats", 3);
  const std::uint32_t warmup = param_u32(p, "warmup_repeats", 1);
  // Construction takes well under a millisecond: time it this many times
  // per repeat and keep the median, then run the last one.
  constexpr std::uint32_t kSetupSamples = 51;
  RunResult out;
  std::vector<std::map<std::string, double>> repeats;
  std::optional<rocket::cluster::RunMetrics> first;
  auto start = Clock::now();
  for (std::uint32_t k = 0;; ++k) {
    if (k == warmup) start = Clock::now();
    // The simulator's input is the application model, the same for every
    // seed; the cluster keeps its default seed, so R and the makespan repeat
    // exactly from run to run and any change of behaviour shows.
    auto cfg = rocket::cluster::das5_cluster(nodes);
    const auto workload = rocket::cluster::scaled_workload(model, n, cfg);
    const std::uint64_t expected =
        static_cast<std::uint64_t>(workload.n) * (workload.n - 1) / 2;
    std::vector<double> setups;
    std::optional<rocket::cluster::SimCluster> sim;
    rocket::cluster::RunMetrics metrics;
    Clock::time_point t1, t2;
    reset_peak_rss();
    {
      CpuCarousel carousel;
      for (std::uint32_t s = 0; s < kSetupSamples; ++s) {
        sim.reset();
        const auto t0 = Clock::now();
        sim.emplace(cfg, workload);
        setups.push_back(seconds_between(t0, Clock::now()));
      }
      t1 = Clock::now();
      metrics = sim->run();
      t2 = Clock::now();
    }

    // The simulator is deterministic: every repeat must deliver every pair
    // and reproduce the first repeat's makespan and load count exactly.
    if (!first) first = metrics;
    const bool same = metrics.makespan == first->makespan &&
                      metrics.total_loads == first->total_loads;
    out.attempted += expected;
    out.failed += !same ? expected
                        : (metrics.pairs_done > expected
                               ? metrics.pairs_done - expected
                               : expected - metrics.pairs_done);

    if (k < warmup) continue;
    std::map<std::string, double> m;
    m["setup_s"] = median(setups);
    m["pairs_per_s"] =
        static_cast<double>(metrics.pairs_done) / seconds_between(t1, t2);
    m["reuse_factor"] = metrics.reuse_factor;
    m["peak_rss_mb"] = peak_rss_mib();
    m["sim.makespan_s"] = metrics.makespan;
    m["sim.efficiency"] = metrics.efficiency;
    m["sim.directory.hit_ratio"] =
        ratio(static_cast<double>(metrics.directory.chain_hits),
              static_cast<double>(metrics.directory.requests));
    m["sim.storage_mib"] = static_cast<double>(metrics.storage_bytes) / (1 << 20);
    repeats.push_back(m);
    if (repeats.size() >= min_repeats &&
        seconds_between(start, Clock::now()) >= o.seconds) {
      break;
    }
  }
  // Nothing in the simulator is traced, so --trace 1 reports the sim.*
  // medians of the same plain repeats.
  note_repeats(repeats, 0, out);
  const auto m = medians(repeats);
  if (!o.trace) {
    for (const char* name : kEndToEnd) out.metrics[name] = m.at(name);
    return out;
  }
  for (const char* name : {"sim.makespan_s", "sim.efficiency",
                           "sim.directory.hit_ratio", "sim.storage_mib"}) {
    out.metrics[name] = m.at(name);
  }
  return out;
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  std::filesystem::create_directories(options.out_dir);
  return options.params.as_object().count("model") ? run_sim(options)
                                                   : run_live(options);
}

}  // namespace perfbench
