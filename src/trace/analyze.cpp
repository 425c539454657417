#include "trace/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_map>

#include "trace/recorder.hpp"

namespace ppm::trace {

namespace {

struct NodePhase {
  bool seen = false;
  bool global = false;
  std::string label;
  int64_t begin_ns = 0;
  int64_t compute_done_ns = 0;
  int64_t committed_ns = 0;
  uint64_t stall_ns = 0;
};

struct PhaseAcc {
  std::vector<NodePhase> per_node;
};

char* fmt(char* buf, size_t n, const char* f, auto... args) {
  std::snprintf(buf, n, f, args...);
  return buf;
}

}  // namespace

double PhaseCritical::imbalance() const {
  if (compute_max_ns <= 0) return 0.0;
  return static_cast<double>(compute_max_ns - compute_min_ns) /
         static_cast<double>(compute_max_ns);
}

double LabelRollup::stall_share() const {
  const double denom =
      static_cast<double>(compute_ns) + static_cast<double>(stall_ns);
  return denom <= 0.0 ? 0.0 : static_cast<double>(stall_ns) / denom;
}

double Summary::bundling_efficiency() const {
  const uint64_t total = cache_hits + cache_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(cache_hits) /
                          static_cast<double>(total);
}

double Summary::overlap_efficiency() const {
  if (fetch_latency_ns == 0) return 0.0;
  return 1.0 - static_cast<double>(fetch_exposed_ns) /
                   static_cast<double>(fetch_latency_ns);
}

Summary analyze(const Trace& trace) {
  Summary s;
  s.events = trace.total_recorded();
  s.dropped = trace.total_dropped();

  // phase_index -> per-node begin/compute/commit/stall. An ordered map
  // keeps the output sorted by phase index with no extra pass.
  std::map<uint64_t, PhaseAcc> phases;
  // Fetches per remote block, keyed (array, owner, first element).
  std::map<std::tuple<uint32_t, uint64_t, uint64_t>, uint64_t> blocks;

  const int nodes = trace.nodes();
  for (int n = 0; n < nodes; ++n) {
    const Recorder& rec = trace.node(n);
    // Per request id: issue time, counted response time, and the start
    // of the earliest stall parked on it, for fetch-latency matching.
    struct Fetch {
      int64_t issued = 0;
      int64_t done = 0;
      bool counted = false;
      int64_t first_park = std::numeric_limits<int64_t>::max();
    };
    std::unordered_map<uint64_t, Fetch> fetch_of;
    // The phase currently open on this node, for stall attribution.
    NodePhase* open = nullptr;
    for (const Event& e : rec.ordered()) {
      switch (e.kind) {
        case EventKind::kPhaseBegin: {
          PhaseAcc& acc = phases[e.a];
          acc.per_node.resize(static_cast<size_t>(nodes));
          NodePhase& np = acc.per_node[static_cast<size_t>(n)];
          np.seen = true;
          np.global = (e.flags & kFlagBit0) != 0;
          np.label = rec.label(static_cast<uint32_t>(e.c));
          np.begin_ns = e.t_ns;
          open = &np;
          break;
        }
        case EventKind::kPhaseComputeDone: {
          auto it = phases.find(e.a);
          if (it != phases.end() &&
              it->second.per_node[static_cast<size_t>(n)].seen) {
            it->second.per_node[static_cast<size_t>(n)].compute_done_ns =
                e.t_ns;
          }
          break;
        }
        case EventKind::kPhaseCommitted: {
          auto it = phases.find(e.a);
          if (it != phases.end() &&
              it->second.per_node[static_cast<size_t>(n)].seen) {
            it->second.per_node[static_cast<size_t>(n)].committed_ns = e.t_ns;
          }
          open = nullptr;
          break;
        }
        case EventKind::kCacheHit:
          ++s.cache_hits;
          break;
        case EventKind::kCacheMiss:
          ++s.cache_misses;
          break;
        case EventKind::kFetchIssued:
          ++s.fetches;
          fetch_of[e.c] = Fetch{.issued = e.t_ns};
          ++blocks[{static_cast<uint32_t>(e.a), e.aux, e.b}];
          break;
        case EventKind::kFetchDone: {
          const auto it = fetch_of.find(e.c);
          if (it != fetch_of.end() && (e.flags & kFlagBit0) == 0 &&
              e.t_ns > it->second.issued) {
            it->second.done = e.t_ns;
            it->second.counted = true;
            s.fetch_latency_ns +=
                static_cast<uint64_t>(e.t_ns - it->second.issued);
          }
          break;
        }
        case EventKind::kFetchStall: {
          const auto since = static_cast<int64_t>(e.c);  // stall start
          const uint64_t stalled =
              e.t_ns > since ? static_cast<uint64_t>(e.t_ns - since) : 0;
          s.stall_ns += stalled;
          if (open != nullptr) open->stall_ns += stalled;
          if (const auto it = fetch_of.find(e.a); it != fetch_of.end()) {
            it->second.first_park = std::min(it->second.first_park, since);
          }
          break;
        }
        case EventKind::kMsgSend:
          ++s.messages;
          s.fault_delay_ns += e.aux;
          break;
        default:
          break;
      }
    }
    // Exposed latency: from the earliest parked waiter to the response,
    // over the fetches the latency sum counts. Clamping the park into
    // [issue, response] keeps each fetch's share within its latency; a
    // fetch no waiter parked on clamps to its response and exposes 0.
    for (const auto& [req, f] : fetch_of) {
      if (!f.counted) continue;
      s.fetch_exposed_ns += static_cast<uint64_t>(
          f.done - std::clamp(f.first_park, f.issued, f.done));
    }
  }

  for (const auto& [index, acc] : phases) {
    PhaseCritical pc;
    pc.phase_index = index;
    int64_t compute_done_max_ns = 0;
    bool first = true;
    for (int n = 0; n < nodes; ++n) {
      const NodePhase& np = acc.per_node[static_cast<size_t>(n)];
      if (!np.seen) continue;
      ++pc.nodes_seen;
      pc.global = pc.global || np.global;
      if (pc.label.empty()) pc.label = np.label;
      const int64_t compute = np.compute_done_ns - np.begin_ns;
      if (first || np.begin_ns < pc.start_ns) pc.start_ns = np.begin_ns;
      if (first || np.committed_ns > pc.committed_ns) {
        pc.committed_ns = np.committed_ns;
      }
      if (first || np.compute_done_ns > compute_done_max_ns) {
        compute_done_max_ns = np.compute_done_ns;
      }
      if (first || compute > pc.compute_max_ns) {
        pc.compute_max_ns = compute;
        pc.critical_node = n;
      }
      if (first || compute < pc.compute_min_ns) pc.compute_min_ns = compute;
      pc.stall_ns += np.stall_ns;
      first = false;
    }
    if (pc.nodes_seen == 0) continue;
    pc.commit_round_ns = pc.committed_ns - compute_done_max_ns;
    const double imb = pc.imbalance();
    const size_t bucket = std::min<size_t>(
        s.imbalance_hist.size() - 1,
        static_cast<size_t>(imb * static_cast<double>(
                                      s.imbalance_hist.size())));
    ++s.imbalance_hist[bucket];
    s.phases.push_back(std::move(pc));
  }

  // Per-label rollup over the finished phase list, first-appearance order
  // (phases are already sorted by index, so this is run order).
  std::unordered_map<std::string, size_t> label_slot;
  for (const PhaseCritical& pc : s.phases) {
    const std::string& name = pc.label.empty() ? std::string("-") : pc.label;
    auto [it, inserted] = label_slot.try_emplace(name, s.labels.size());
    if (inserted) {
      s.labels.push_back(LabelRollup{.label = name});
    }
    LabelRollup& lr = s.labels[it->second];
    ++lr.phases;
    lr.compute_ns += pc.compute_max_ns;
    lr.commit_ns += pc.commit_round_ns;
    lr.stall_ns += pc.stall_ns;
  }

  // Top-k hot blocks: count desc, then (array, owner, element) asc — the
  // map iteration order supplies the ascending tie-break for stable_sort.
  std::vector<HotBlock> hot;
  hot.reserve(blocks.size());
  for (const auto& [key, fetches] : blocks) {
    const auto& [array, owner, first] = key;
    hot.push_back(HotBlock{.array = array,
                           .owner = owner,
                           .first_elem = first,
                           .fetches = fetches});
  }
  std::stable_sort(hot.begin(), hot.end(),
                   [](const HotBlock& x, const HotBlock& y) {
                     return x.fetches > y.fetches;
                   });
  if (hot.size() > Summary::kTopHotBlocks) {
    hot.resize(Summary::kTopHotBlocks);
  }
  s.hot_blocks = std::move(hot);
  return s;
}

std::string Summary::to_string() const {
  std::string out;
  char buf[256];
  out += fmt(buf, sizeof(buf),
             "ppm::trace summary: %llu events (%llu dropped)\n",
             static_cast<unsigned long long>(events),
             static_cast<unsigned long long>(dropped));
  out += "  phase scope  label        crit.node  compute max/min us  imbal"
         "  commit us  stall us\n";
  constexpr size_t kMaxRows = 48;
  for (size_t i = 0; i < phases.size() && i < kMaxRows; ++i) {
    const PhaseCritical& p = phases[i];
    out += fmt(buf, sizeof(buf),
               "  %5llu %-6s %-12s %9d %10.1f /%8.1f  %5.2f %10.1f %9.1f\n",
               static_cast<unsigned long long>(p.phase_index),
               p.global ? "global" : "node",
               p.label.empty() ? "-" : p.label.c_str(), p.critical_node,
               static_cast<double>(p.compute_max_ns) * 1e-3,
               static_cast<double>(p.compute_min_ns) * 1e-3, p.imbalance(),
               static_cast<double>(p.commit_round_ns) * 1e-3,
               static_cast<double>(p.stall_ns) * 1e-3);
  }
  if (phases.size() > kMaxRows) {
    out += fmt(buf, sizeof(buf), "  ... %zu more phases\n",
               phases.size() - kMaxRows);
  }
  if (!labels.empty()) {
    out += "  per-label rollup      phases  compute us  commit us  stall us"
           "  stall-share\n";
    for (const LabelRollup& lr : labels) {
      out += fmt(buf, sizeof(buf),
                 "    %-18s %7llu %11.1f %10.1f %9.1f %12.3f\n",
                 lr.label.c_str(), static_cast<unsigned long long>(lr.phases),
                 static_cast<double>(lr.compute_ns) * 1e-3,
                 static_cast<double>(lr.commit_ns) * 1e-3,
                 static_cast<double>(lr.stall_ns) * 1e-3, lr.stall_share());
    }
  }
  out += "  compute-imbalance histogram [0,1) in 1/8 buckets:";
  for (const uint64_t count : imbalance_hist) {
    out += fmt(buf, sizeof(buf), " %llu",
               static_cast<unsigned long long>(count));
  }
  out += "\n";
  if (!hot_blocks.empty()) {
    out += "  hot remote blocks:";
    for (const HotBlock& hb : hot_blocks) {
      out += fmt(buf, sizeof(buf), " arr%u[n%llu+%llu]x%llu", hb.array,
                 static_cast<unsigned long long>(hb.owner),
                 static_cast<unsigned long long>(hb.first_elem),
                 static_cast<unsigned long long>(hb.fetches));
    }
    out += "\n";
  }
  out += fmt(buf, sizeof(buf),
             "  bundling efficiency %.3f (%llu cache hits / %llu misses)\n",
             bundling_efficiency(),
             static_cast<unsigned long long>(cache_hits),
             static_cast<unsigned long long>(cache_misses));
  out += fmt(buf, sizeof(buf),
             "  overlap efficiency %.3f (exposed %.1f us / fetch latency "
             "%.1f us over %llu fetches; VP stall %.1f us)\n",
             overlap_efficiency(), static_cast<double>(fetch_exposed_ns) * 1e-3,
             static_cast<double>(fetch_latency_ns) * 1e-3,
             static_cast<unsigned long long>(fetches),
             static_cast<double>(stall_ns) * 1e-3);
  if (messages > 0 || fault_delay_ns > 0) {
    out += fmt(buf, sizeof(buf),
               "  fabric: %llu messages, fault-injected delay %.1f us\n",
               static_cast<unsigned long long>(messages),
               static_cast<double>(fault_delay_ns) * 1e-3);
  }
  return out;
}

}  // namespace ppm::trace
