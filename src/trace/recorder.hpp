// Per-track ring-buffer event recorder of ppm::trace.
//
// One Recorder per node, owned together by a Trace. The hot-path contract
// mirrors the validator's: subsystems hold a nullable Recorder* and guard
// every record with a single `if (tracer_) [[unlikely]]` branch, so a build
// with tracing off pays one never-taken branch per instrumentation point
// and nothing else. A node's track is written only by fibers and events of
// that node's engine, which runs on one host thread at a time, so the ring
// needs no synchronization — "lock-free" comes for free.
//
// The ring has fixed capacity and overwrites the OLDEST event on wrap,
// counting every overwrite in dropped(): a bounded-memory flight recorder
// that always keeps the most recent window.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hpp"

namespace ppm::trace {

class Recorder {
 public:
  /// `track` is the recorder's stable display id (the node id). Capacity is
  /// clamped to at least one event and preallocated up front.
  explicit Recorder(uint32_t track, size_t capacity_events);

  void record(const Event& e) {
    if (count_ < ring_.size()) {
      ring_[(head_ + count_) % ring_.size()] = e;
      ++count_;
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % ring_.size();
      ++dropped_;
    }
  }

  /// Intern a label, returning its 1-based id (0 means "no label").
  /// Repeated interning of the same string returns the same id.
  uint32_t intern(std::string_view label);
  /// Label text for a 1-based id from intern(); empty for id 0.
  const std::string& label(uint32_t id) const;

  uint32_t track() const { return track_; }
  size_t size() const { return count_; }
  size_t capacity() const { return ring_.size(); }
  /// Events overwritten because the ring was full.
  uint64_t dropped() const { return dropped_; }
  /// Total record() calls (== size() + dropped()).
  uint64_t recorded() const { return count_ + dropped_; }

  /// Retained events, oldest first.
  std::vector<Event> ordered() const;

  const std::vector<std::string>& labels() const { return labels_; }

 private:
  uint32_t track_;
  std::vector<Event> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  uint64_t dropped_ = 0;
  std::vector<std::string> labels_;  // labels_[id - 1] holds id's text
};

/// All recorders of one traced run, one per node. Message spans live on
/// the node tracks too (see net::Fabric::set_node_trace_recorders). Owned
/// by ppm::Runtime when RuntimeOptions::trace is set; the exporters and
/// analyzer consume it.
class Trace {
 public:
  Trace(int nodes, size_t capacity_per_track);

  int nodes() const { return static_cast<int>(node_tracks_.size()); }
  Recorder& node(int node_id) {
    return node_tracks_[static_cast<size_t>(node_id)];
  }
  const Recorder& node(int node_id) const {
    return node_tracks_[static_cast<size_t>(node_id)];
  }

  uint64_t total_recorded() const;
  uint64_t total_dropped() const;

 private:
  std::vector<Recorder> node_tracks_;
};

}  // namespace ppm::trace
