#include "trace/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

#include "trace/recorder.hpp"

namespace ppm::trace {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

/// Virtual nanoseconds -> the format's microseconds, as a fixed-point
/// decimal string ("12.345"): deterministic, no floating-point formatting.
void append_ts_us(std::string& out, int64_t t_ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, t_ns / 1000,
                t_ns % 1000);
  out += buf;
}

class JsonEmitter {
 public:
  void span(uint32_t pid, uint64_t tid, int64_t start_ns, int64_t end_ns,
            const std::string& name, const std::string& args_json) {
    std::string& e = items_.emplace_back();
    e += "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"ts\":";
    append_ts_us(e, start_ns);
    e += ",\"dur\":";
    append_ts_us(e, end_ns > start_ns ? end_ns - start_ns : 0);
    e += ",\"name\":\"";
    append_escaped(e, name);
    e += "\"";
    if (!args_json.empty()) e += ",\"args\":{" + args_json + "}";
    e += "}";
    note_tid(pid, tid);
  }

  void instant(uint32_t pid, uint64_t tid, int64_t t_ns,
               const std::string& name, const std::string& args_json) {
    std::string& e = items_.emplace_back();
    e += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"ts\":";
    append_ts_us(e, t_ns);
    e += ",\"name\":\"";
    append_escaped(e, name);
    e += "\"";
    if (!args_json.empty()) e += ",\"args\":{" + args_json + "}";
    e += "}";
    note_tid(pid, tid);
  }

  std::string finish(const std::map<uint32_t, std::string>& process_names) {
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const std::string& item) {
      if (!first) out += ",\n";
      out += item;
      first = false;
    };
    for (const auto& [pid, name] : process_names) {
      std::string m =
          "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
          name + "\"}}";
      emit(m);
      std::string sort =
          "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":0,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":" +
          std::to_string(pid) + "}}";
      emit(sort);
    }
    for (const auto& [pid, tids] : tids_) {
      const bool node_pid = process_names.count(pid) != 0 &&
                            process_names.at(pid).rfind("node", 0) == 0;
      for (const uint64_t tid : tids) {
        const std::string tname =
            node_pid ? "core" + std::to_string(tid)
                     : "track" + std::to_string(tid);
        emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(tid) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + tname +
             "\"}}");
      }
    }
    for (const std::string& item : items_) emit(item);
    out += "]}\n";
    return out;
  }

 private:
  void note_tid(uint32_t pid, uint64_t tid) { tids_[pid].insert(tid); }

  std::vector<std::string> items_;
  std::map<uint32_t, std::set<uint64_t>> tids_;
};

std::string u64_arg(const char* key, uint64_t v) {
  return "\"" + std::string(key) + "\":" + std::to_string(v);
}

/// Block keys pack (owner << 40) | first (the runtime's encoding).
constexpr int kBlockOwnerShift = 40;

std::string block_args(uint64_t array, uint64_t key) {
  return u64_arg("array", array) + "," +
         u64_arg("owner", key >> kBlockOwnerShift) + "," +
         u64_arg("first", key & ((uint64_t{1} << kBlockOwnerShift) - 1));
}

void export_node(JsonEmitter& json, const Recorder& rec, uint32_t pid) {
  // Open-phase bookkeeping: (begin time, name) per phase index, so the
  // compute and commit spans can be emitted at their end points.
  struct OpenPhase {
    int64_t begin_ns = 0;
    int64_t compute_done_ns = 0;
    std::string name;
  };
  std::unordered_map<uint64_t, OpenPhase> open;
  for (const Event& e : rec.ordered()) {
    switch (e.kind) {
      case EventKind::kPhaseBegin: {
        OpenPhase& p = open[e.a];
        p.begin_ns = e.t_ns;
        p.name = "phase" + std::to_string(e.a);
        const std::string& label = rec.label(static_cast<uint32_t>(e.c));
        if (!label.empty()) p.name += " [" + label + "]";
        if ((e.flags & kFlagBit0) == 0) p.name += " (node)";
        break;
      }
      case EventKind::kPhaseComputeDone: {
        const auto it = open.find(e.a);
        if (it == open.end()) break;
        it->second.compute_done_ns = e.t_ns;
        json.span(pid, 0, it->second.begin_ns, e.t_ns,
                  it->second.name + " compute",
                  u64_arg("phase", e.a));
        break;
      }
      case EventKind::kPhaseCommitted: {
        const auto it = open.find(e.a);
        if (it == open.end()) break;
        json.span(pid, 0, it->second.compute_done_ns, e.t_ns,
                  it->second.name + " commit", u64_arg("phase", e.a));
        open.erase(it);
        break;
      }
      case EventKind::kVpBatch: {
        std::string name = "vp[" + std::to_string(e.a) + "," +
                           std::to_string(e.b) + ")";
        if ((e.flags & kFlagBit0) != 0) name += " nested";
        json.span(pid, e.core, static_cast<int64_t>(e.c), e.t_ns, name,
                  u64_arg("executed", e.aux));
        break;
      }
      case EventKind::kFetchStall:
        json.span(pid, e.core, static_cast<int64_t>(e.c), e.t_ns, "stall",
                  u64_arg("req", e.a));
        break;
      case EventKind::kCacheHit:
        json.instant(pid, e.core, e.t_ns,
                     (e.flags & kFlagBit0) != 0 ? "cache_hit (combined)"
                                                : "cache_hit",
                     block_args(e.a, e.b));
        break;
      case EventKind::kCacheMiss:
        json.instant(pid, e.core, e.t_ns, "cache_miss", block_args(e.a, e.b));
        break;
      case EventKind::kFetchIssued:
        json.instant(pid, e.core, e.t_ns,
                     (e.flags & kFlagBit0) != 0 ? "prefetch_issued"
                                                : "fetch_issued",
                     block_args(e.a, e.b) + "," + u64_arg("req", e.c));
        break;
      case EventKind::kFetchDone:
        json.instant(pid, e.core, e.t_ns,
                     (e.flags & kFlagBit0) != 0 ? "fetch_done (abandoned)"
                                                : "fetch_done",
                     u64_arg("req", e.c));
        break;
      case EventKind::kPrefetchHit:
        json.instant(pid, e.core, e.t_ns, "prefetch_hit",
                     block_args(e.a, e.b));
        break;
      case EventKind::kBundleFlush:
        json.instant(pid, e.core, e.t_ns,
                     (e.flags & kFlagBit0) != 0 ? "bundle_flush (last)"
                                                : "bundle_flush",
                     u64_arg("dest", e.a) + "," + u64_arg("bytes", e.b));
        break;
      case EventKind::kMigrationPlan:
        json.instant(pid, e.core, e.t_ns, "migration_plan",
                     u64_arg("arrays", e.a) + "," + u64_arg("moves", e.b) +
                         "," + u64_arg("hash", e.c));
        break;
      case EventKind::kMigrationMove:
        json.instant(pid, e.core, e.t_ns, "migration_move",
                     u64_arg("array", e.a) + "," + u64_arg("block", e.b) +
                         "," + u64_arg("from", e.c >> 32) + "," +
                         u64_arg("to", e.c & 0xffffffffULL));
        break;
      case EventKind::kMsgSend:
        break;  // drawn on the fabric process (export_msg)
      default:
        json.instant(pid, e.core, e.t_ns, kind_name(e.kind), "");
    }
  }
}

/// One message as a send -> delivery span on the fabric process, one
/// thread per source node.
void export_msg(JsonEmitter& json, const Event& e, uint32_t fabric_pid) {
  const uint64_t src = e.a >> 48;
  const uint64_t dst = (e.a >> 16) & 0xffff;
  const uint64_t kind_byte = e.b >> 56;
  const uint64_t bytes = e.b & ((uint64_t{1} << 56) - 1);
  std::string name = "msg " + std::to_string(src) + "->" +
                     std::to_string(dst) + " k" + std::to_string(kind_byte);
  if ((e.flags & kFlagBit0) != 0) name += " (intra)";
  std::string args = u64_arg("bytes", bytes) + "," +
                     u64_arg("sport", (e.a >> 32) & 0xffff) + "," +
                     u64_arg("dport", e.a & 0xffff);
  if (e.aux != 0) args += "," + u64_arg("fault_delay_ns", e.aux);
  json.span(fabric_pid, e.core, e.t_ns, static_cast<int64_t>(e.c), name,
            args);
}

}  // namespace

std::string to_chrome_json(const Trace& trace) {
  JsonEmitter json;
  const int nodes = trace.nodes();
  const uint32_t fabric_pid = static_cast<uint32_t>(nodes);

  std::map<uint32_t, std::string> process_names;
  for (int n = 0; n < nodes; ++n) {
    process_names[static_cast<uint32_t>(n)] = "node" + std::to_string(n);
  }
  process_names[fabric_pid] = "fabric";

  int64_t last_ns = 0;
  for (int n = 0; n < nodes; ++n) {
    export_node(json, trace.node(n), static_cast<uint32_t>(n));
    for (const Event& e : trace.node(n).ordered()) {
      last_ns = std::max(last_ns, e.t_ns);
      if (e.kind != EventKind::kMsgSend) continue;
      export_msg(json, e, fabric_pid);
      last_ns = std::max(last_ns, static_cast<int64_t>(e.c));
    }
  }
  // Surface ring-wrap data loss in the artifact itself.
  for (int n = 0; n < nodes; ++n) {
    if (trace.node(n).dropped() > 0) {
      json.instant(static_cast<uint32_t>(n), 0, last_ns, "events_dropped",
                   u64_arg("count", trace.node(n).dropped()));
    }
  }
  return json.finish(process_names);
}

namespace {

void put_track(ByteWriter& w, const Recorder& rec) {
  w.put(rec.track());
  w.put(rec.dropped());
  w.put(static_cast<uint32_t>(rec.labels().size()));
  for (const std::string& label : rec.labels()) w.put_string(label);
  const auto events = rec.ordered();
  w.put(static_cast<uint64_t>(events.size()));
  for (const Event& e : events) {
    w.put(e.t_ns);
    w.put(e.a);
    w.put(e.b);
    w.put(e.c);
    w.put(e.aux);
    w.put(e.core);
    w.put(static_cast<uint8_t>(e.kind));
    w.put(e.flags);
  }
}

}  // namespace

Bytes to_binary(const Trace& trace) {
  ByteWriter w;
  w.put(kBinaryMagic);
  w.put(kBinaryVersion);
  w.put(static_cast<uint32_t>(trace.nodes()));
  w.put(static_cast<uint32_t>(trace.nodes()));  // track count
  for (int n = 0; n < trace.nodes(); ++n) put_track(w, trace.node(n));
  return std::move(w).take();
}

}  // namespace ppm::trace
