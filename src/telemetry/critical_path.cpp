#include "telemetry/critical_path.hpp"

#include <algorithm>
#include <unordered_map>

namespace rocket::telemetry {

const char* path_phase_name(PathPhase phase) {
  switch (phase) {
    case PathPhase::kCompute: return "compute";
    case PathPhase::kPeerFetch: return "peer_fetch";
    case PathPhase::kSteal: return "steal";
    case PathPhase::kLoad: return "load";
    case PathPhase::kDeliver: return "deliver";
    case PathPhase::kIdle: return "idle";
    case PathPhase::kCount: break;
  }
  return "?";
}

PathPhase path_phase_of(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kCompute: return PathPhase::kCompute;
    case SpanPhase::kPeerFetch:
    case SpanPhase::kPeerServe: return PathPhase::kPeerFetch;
    case SpanPhase::kSteal:
    case SpanPhase::kStealServe:
    case SpanPhase::kGrant: return PathPhase::kSteal;
    case SpanPhase::kLoadWait: return PathPhase::kLoad;
    case SpanPhase::kDeliver: return PathPhase::kDeliver;
    case SpanPhase::kTile:
    case SpanPhase::kCount: break;
  }
  return PathPhase::kIdle;
}

CriticalPathReport analyze_critical_path(const std::vector<SpanRecord>& spans,
                                         double window_start,
                                         double window_end,
                                         std::size_t top_k) {
  CriticalPathReport report;
  const double window = window_end - window_start;
  report.window_seconds = window > 0.0 ? window : 0.0;
  report.spans_analyzed = spans.size();

  // Sweep: +1/-1 edges per attribution category, clamped to the window.
  // Between consecutive edges the active set is constant; the segment goes
  // to the highest-priority active category (the PathPhase enum order IS
  // the priority order).
  struct Edge {
    double t;
    std::size_t phase;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(spans.size() * 2);
  for (const SpanRecord& span : spans) {
    const PathPhase phase = path_phase_of(span.phase);
    if (phase == PathPhase::kIdle) continue;  // containers don't attribute
    const double start = std::max(span.start, window_start);
    const double end = std::min(span.end, window_end);
    if (end <= start) continue;
    edges.push_back({start, static_cast<std::size_t>(phase), +1});
    edges.push_back({end, static_cast<std::size_t>(phase), -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& x, const Edge& y) { return x.t < y.t; });

  std::array<int, kPathPhases> active{};
  std::array<double, kPathPhases> seconds{};
  double prev = window_start;
  std::size_t i = 0;
  while (i < edges.size()) {
    const double t = edges[i].t;
    if (t > prev) {
      std::size_t winner = static_cast<std::size_t>(PathPhase::kIdle);
      for (std::size_t p = 0; p < kPathPhases; ++p) {
        if (active[p] > 0) {
          winner = p;
          break;
        }
      }
      seconds[winner] += t - prev;
      prev = t;
    }
    // Apply every edge at this instant before attributing further.
    while (i < edges.size() && edges[i].t == t) {
      active[edges[i].phase] += edges[i].delta;
      ++i;
    }
  }
  if (report.window_seconds > 0.0 && window_end > prev) {
    std::size_t winner = static_cast<std::size_t>(PathPhase::kIdle);
    for (std::size_t p = 0; p < kPathPhases; ++p) {
      if (active[p] > 0) {
        winner = p;
        break;
      }
    }
    seconds[winner] += window_end - prev;
  }

  for (std::size_t p = 0; p < kPathPhases; ++p) {
    report.phases[p].seconds = seconds[p];
    report.phases[p].percent = report.window_seconds > 0.0
                                   ? 100.0 * seconds[p] / report.window_seconds
                                   : (p + 1 == kPathPhases ? 100.0 : 0.0);
  }
  if (report.window_seconds <= 0.0) {
    // Degenerate window: call it all idle so the block still sums to 100.
    report.phases[static_cast<std::size_t>(PathPhase::kIdle)].percent = 100.0;
  }

  // Top-k slowest sampled tiles with their causal chains.
  std::unordered_map<std::uint64_t, SlowTile> tiles;
  for (const SpanRecord& span : spans) {
    if (span.phase != SpanPhase::kTile) continue;
    SlowTile& tile = tiles[span.ctx.trace_id];
    tile.trace_id = span.ctx.trace_id;
    tile.node = span.node;
    tile.seconds = std::max(tile.seconds, span.end - span.start);
  }
  if (!tiles.empty()) {
    for (const SpanRecord& span : spans) {
      const auto it = tiles.find(span.ctx.trace_id);
      if (it != tiles.end()) it->second.chain.push_back(span);
    }
    std::vector<SlowTile> ranked;
    ranked.reserve(tiles.size());
    for (auto& [id, tile] : tiles) ranked.push_back(std::move(tile));
    std::sort(ranked.begin(), ranked.end(),
              [](const SlowTile& x, const SlowTile& y) {
                return x.seconds > y.seconds;
              });
    if (ranked.size() > top_k) ranked.resize(top_k);
    for (SlowTile& tile : ranked) {
      std::sort(tile.chain.begin(), tile.chain.end(),
                [](const SpanRecord& x, const SpanRecord& y) {
                  return x.start < y.start;
                });
    }
    report.slowest = std::move(ranked);
  }
  return report;
}

}  // namespace rocket::telemetry
