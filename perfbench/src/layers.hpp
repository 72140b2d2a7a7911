// Per-layer measurement for the traced run.
//
// The traced run turns on the program's span tracer and the benchmark's own
// span log, and brackets every timed window with snapshots of the program's
// counters and histograms, the transports' ConnectionsSnapshot(), and the
// workers' data-plane counters from QueryStatus.  LayerProbe folds the
// differences into the per-layer metrics named in README.md.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace pb {

/// Drains the program's span tracer in the background (so a long traced
/// run never holds millions of spans) and folds span durations by
/// "category/phase", for spans that start inside an open window.
class ProgramSpans {
 public:
  struct Total {
    double seconds = 0.0;
    std::uint64_t spans = 0;
  };
  ~ProgramSpans() { Stop(); }
  void Start();
  void Stop();
  /// Spans starting from now on count toward Window() (and are kept raw
  /// when `keep_raw`), until CloseWindow().
  void OpenWindow(bool keep_raw);
  void CloseWindow();
  std::map<std::string, Total> Window() const;
  std::map<std::string, Total> Whole() const;
  std::vector<vl::telemetry::SpanRecord> TakeRaw();

 private:
  void Fold();
  mutable std::mutex mu_;
  bool open_ = false;
  bool keep_raw_ = false;
  bool closed_ = false;  // a window has been opened and closed
  double window_start_ = 0.0;
  double window_end_ = 0.0;
  std::map<std::string, Total> window_;
  std::map<std::string, Total> whole_;
  std::vector<vl::telemetry::SpanRecord> raw_;
  std::atomic<bool> running_{false};
  std::thread drainer_;
};

/// Connection-level totals of one cluster at one instant.
struct NetTotals {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t p2p_bytes = 0;  // node -> node links
  std::uint64_t stalls = 0;
  std::uint64_t peak_queue_bytes = 0;
};

/// Worker data-plane counters summed over QueryStatus.
struct DataPlaneTotals {
  std::uint64_t p2p_fetch_bytes = 0;
  std::uint64_t relayed_result_bytes = 0;
};

class LayerProbe {
 public:
  LayerProbe();

  // --- timings of the benchmark's calls into Manager (seconds) ---
  Samples submit_s;
  Samples create_library_s;
  Samples broadcast_s;
  Samples coldstart_s;
  Samples release_ref_s;
  double declare_s = 0.0;
  double declared_mib = 0.0;

  /// Brackets one timed window on `cluster`; `calls` are the invocations
  /// and `ops` the workload's operations completed inside it.
  void BeginTimed(Cluster& cluster);
  void EndTimed(Cluster& cluster, std::uint64_t calls, std::uint64_t ops);

  /// Brackets the serial phase; `calls` are the benchmark's (start, end)
  /// spans of each serial call, used to split each round trip by phase.
  void BeginSerial();
  void EndSerial(const std::vector<std::pair<double, double>>& calls);

  /// Finishes tracing and appends every per-layer metric to `report`.
  void Emit(Report& report, double overhead_ratio);

 private:
  NetTotals Net(Cluster& cluster) const;
  DataPlaneTotals DataPlane(Cluster& cluster) const;

  ProgramSpans spans_;
  vl::telemetry::MetricsSnapshot window_start_;
  NetTotals net_start_;
  DataPlaneTotals data_start_;
  MetricsWindow timed_;
  NetTotals net_;  // summed over windows; peak is the max
  DataPlaneTotals data_;
  std::uint64_t calls_ = 0;
  std::uint64_t ops_ = 0;
  double retained_peak_bytes_ = 0.0;

  // Serial phase split (means per call, seconds).
  std::uint64_t serial_calls_ = 0;
  double serial_rtt_s_ = 0.0;
  std::map<std::string, double> serial_phase_s_;
};

}  // namespace pb
