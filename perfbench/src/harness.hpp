// Shared machinery of the end-to-end benchmark: options, the cluster it
// drives (manager + 4 workers over TCP loopback or the in-process bus),
// output checks, the closed-loop load generator, sample statistics, the
// benchmark's own span log, and the report printed as the last stdout line.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/manager.hpp"
#include "core/worker.hpp"
#include "net/network.hpp"
#include "net/tcp_transport.hpp"
#include "serde/function_registry.hpp"
#include "telemetry/telemetry.hpp"

namespace pb {

namespace vl = vinelet;
using vl::serde::Value;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shift every expected answer by one: each call's check must then fail,
  /// which shows the checks can trip.
  bool perturb = false;
};

/// Where traced runs write the benchmark's spans (relative to the cwd).
inline constexpr const char* kOutDir = ".bench_out";

/// The process-wide telemetry handle every cluster reports into; its clock
/// is also the benchmark's time base, so the benchmark's spans line up with
/// the program's.
vl::telemetry::Telemetry& Tel();
double NowS();

/// The function registry shared by the manager and every worker.
const vl::serde::FunctionRegistry& Registry();

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Latency samples.  With a capacity, a uniform reservoir of that many
/// samples is kept (replacement driven by a fixed hash of the sample count),
/// so memory does not grow with throughput: a faster run would otherwise
/// show a higher peak RSS.
class Samples {
 public:
  explicit Samples(std::size_t capacity = SIZE_MAX) : capacity_(capacity) {}
  void Add(double v);
  /// Reserves room up front, so filling never copies (or doubles) memory.
  void Reserve(std::size_t n) { values_.reserve(std::min(n, capacity_)); }
  void Append(const Samples& other);
  /// Samples offered (the reservoir may hold fewer).
  std::size_t size() const { return seen_; }
  double Quantile(double q) const;
  double Mean() const;
  /// "p50=... p99=... n=..." scaled by `scale`, with the highest of the
  /// usual percentiles that still has at least ten samples beyond it.
  std::string Describe(double scale, const std::string& unit) const;

 private:
  std::size_t capacity_;
  std::size_t seen_ = 0;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// CPU time (user + system) consumed by this process so far, seconds.
double ProcessCpuS();
/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMiB();

// ---------------------------------------------------------------------------
// Checks and the report.
// ---------------------------------------------------------------------------

class Checks {
 public:
  explicit Checks(bool perturb) : perturb_(perturb) {}

  /// The answer the benchmark expects, shifted by one under --perturb.
  std::int64_t Expect(std::int64_t reference) const {
    return perturb_ ? reference + 1 : reference;
  }

  /// One operation: counted as attempted, and as failed when the program
  /// returned an error or a wrong answer.  A wrong answer also clears
  /// `correct`; an error does not (it says nothing about outputs).
  void Op(bool returned_ok, bool matched, const std::string& what);
  /// A property the program must keep (quiescence, exactly-once resolution,
  /// cache contents).  Breaking it clears `correct`.
  void Invariant(bool held, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  void Note(const std::string& what);
  bool perturb_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  int notes_ = 0;
};

struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson(const Checks& checks) const;
};

/// Human-readable progress and figures (stdout, before the result line).
void Say(const std::string& line);

// ---------------------------------------------------------------------------
// The benchmark's own spans, around every call into a public function.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;      // this span
    std::uint64_t parent;  // 0 = root
    std::uint64_t op;      // spans of one operation share it
    double start_s;
    double end_s;
  };

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::uint64_t NextId() { return ++last_id_; }
  /// Records a span with a preallocated id (parents end after children).
  void Record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t op, double start_s, double end_s);
  /// Allocates an id and records; returns the id.
  std::uint64_t Add(const char* name, std::uint64_t parent, std::uint64_t op,
                    double start_s, double end_s);
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Writes every span as CSV (id,parent,op,name,start_s,end_s).
  bool WriteCsv(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 1u << 20;
  bool enabled_ = false;
  std::uint64_t last_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

SpanLog& Spans();

/// Times `fn`, records it as span `name` under (parent, op), and returns
/// its result.  The elapsed seconds land in `*elapsed_s` when given.
template <typename Fn>
auto Timed(const char* name, std::uint64_t parent, std::uint64_t op, Fn&& fn,
           double* elapsed_s = nullptr) {
  const double start = NowS();
  auto result = fn();
  const double end = NowS();
  Spans().Add(name, parent, op, start, end);
  if (elapsed_s != nullptr) *elapsed_s += end - start;
  return result;
}

/// Sums of counter and histogram differences over one or more windows.
class MetricsWindow {
 public:
  void Add(const vl::telemetry::MetricsSnapshot& before,
           const vl::telemetry::MetricsSnapshot& after);
  std::uint64_t Counter(const std::string& name) const;
  std::uint64_t Count(const std::string& histogram) const;
  double Sum(const std::string& histogram) const;
  double Quantile(const std::string& histogram, double q) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  /// histogram -> (bucket bound -> observations in that bucket)
  std::map<std::string, std::map<double, std::uint64_t>> buckets_;
  std::map<std::string, double> sums_;
};

/// Program metrics summed over every cluster this process has stopped.
/// Each cluster starts from a zeroed registry (the manager's gauges and
/// quiescence audit assume a registry of their own), so whole-run totals
/// are accumulated here as clusters stop.
MetricsWindow& RunMetrics();

// ---------------------------------------------------------------------------
// The cluster under test.
// ---------------------------------------------------------------------------

/// Every workload runs 4 workers (one per core of the reference machine).
inline constexpr std::size_t kWorkers = 4;

struct ClusterConfig {
  bool tcp = true;
  std::uint64_t ref_results_min_bytes = 0;
};

class Cluster {
 public:
  static vl::Result<std::unique_ptr<Cluster>> Start(const ClusterConfig& config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  vl::core::Manager& manager() { return *manager_; }
  std::size_t workers() const { return kWorkers; }
  /// ConnectionsSnapshot() of the hub and every node (empty on the bus).
  std::vector<vl::net::ConnectionStats> Connections() const;
  /// Bytes the nodes sent each other directly (worker <-> worker links).
  std::uint64_t PeerBytesSent() const;
  void Stop();

 private:
  explicit Cluster(const ClusterConfig& config) : config_(config) {}
  ClusterConfig config_;
  std::shared_ptr<vl::net::Transport> hub_;
  std::vector<std::shared_ptr<vl::net::TcpTransport>> nodes_;
  std::unique_ptr<vl::core::Manager> manager_;
  std::vector<std::unique_ptr<vl::core::Worker>> tcp_workers_;
  std::unique_ptr<vl::core::Factory> factory_;
  vl::telemetry::MetricsSnapshot start_metrics_;
  bool stopped_ = false;
};

/// Polls CheckQuiescent until the cluster settles (or `timeout_s`), and
/// records the verdict as an invariant.  Returns the last report.
vl::core::QuiescenceReport ExpectQuiescent(vl::core::Manager& manager,
                                           Checks& checks,
                                           double timeout_s = 10.0);

/// Libraries hosted per worker, from QueryStatus.
std::map<vl::core::WorkerId, std::vector<std::string>> HostedLibraries(
    vl::core::Manager& manager);

// ---------------------------------------------------------------------------
// Closed-loop load generation from one thread.
// ---------------------------------------------------------------------------

/// Resolution notices from the manager thread (future callbacks) to the
/// load-generating thread: (tag, resolution time) pairs.
class CompletionQueue {
 public:
  void Push(std::size_t tag, double at_s);
  /// Moves every pending notice into `out`; false when nothing arrived
  /// within `timeout_s` (a hung call).
  bool PopAll(std::vector<std::pair<std::size_t, double>>& out,
              double timeout_s);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::size_t, double>> ready_;
};

/// Registers `future` to push (tag, resolution time) onto `queue`.
void NotifyOn(const vl::core::FuturePtr& future,
              const std::shared_ptr<CompletionQueue>& queue, std::size_t tag);

/// Checks an integer answer; counts the operation in `checks`.
bool CheckAnswer(const vl::Result<vl::core::Outcome>& outcome,
                 std::int64_t expected, Checks& checks,
                 const std::string& what);

struct CallSpec {
  std::string library;
  std::string function;
  Value args;
  std::int64_t expected = 0;
};

/// One window of a timed phase: a slice of a closed loop (LoopOptions::
/// window_s), one rollout, or one DAG round.  Per-run figures are medians
/// over the run's windows (see main.cpp).
struct WindowFigures {
  double p50_s = 0.0;  // median latency of the window's operations
  double cpu_per_call_s = 0.0;
};

struct LoopStats {
  Samples latency_s;  // submit -> future resolved
  Samples submit_s;   // time inside SubmitCall (when asked for)
  /// (submit, resolved) of every call (when asked for).
  std::vector<std::pair<double, double>> intervals;
  std::uint64_t completed = 0;
  double elapsed_s = 0.0;  // first submit -> last resolution
  double cpu_s = 0.0;      // process CPU over the same interval
  /// Per window, when LoopOptions::window_s is set.
  std::vector<WindowFigures> windows;
};

struct LoopOptions {
  std::size_t outstanding = 1;
  /// How long to keep submitting; 0 runs exactly `max_calls`.
  double duration_s = 0.0;
  std::uint64_t max_calls = 0;
  /// Name of the benchmark span around each call.
  const char* phase = "call";
  bool keep_intervals = false;
  bool keep_submit = false;
  /// Cuts the run into windows of this length (0: none); each window's
  /// figures cover the calls that resolved in it.
  double window_s = 0.0;
};

/// Keeps `outstanding` calls in flight, replacing each as it resolves, until
/// the duration (or call budget) is spent; then drains.  Every answer is
/// checked against CallSpec::expected.
LoopStats RunClosedLoop(vl::core::Manager& manager, Checks& checks,
                        const LoopOptions& options,
                        const std::function<CallSpec()>& next);

/// Submits one call, waits for it (30 s at most), and checks the answer.
bool CallAndCheck(vl::core::Manager& manager, Checks& checks,
                  const CallSpec& call);

}  // namespace pb
