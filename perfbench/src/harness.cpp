#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "functions.hpp"

namespace pb {

using vl::core::FuturePtr;
using vl::core::Outcome;
using vl::telemetry::HistogramSnapshot;
using vl::telemetry::MetricsSnapshot;

vl::telemetry::Telemetry& Tel() {
  static vl::telemetry::Telemetry telemetry;
  return telemetry;
}

double NowS() { return Tel().clock.Now(); }

const vl::serde::FunctionRegistry& Registry() {
  static vl::serde::FunctionRegistry* registry = [] {
    auto* r = new vl::serde::FunctionRegistry();
    vl::Status status = RegisterBenchFunctions(*r);
    if (!status.ok()) {
      std::cerr << "registering bench functions: " << status.ToString() << "\n";
      std::exit(1);
    }
    return r;
  }();
  return *registry;
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

void Samples::Add(double v) {
  sorted_ = false;
  if (++seen_ <= capacity_) {
    values_.push_back(v);
    return;
  }
  const std::uint64_t slot = Mix64(seen_) % seen_;
  if (slot < capacity_) values_[slot] = v;
}

void Samples::Append(const Samples& other) {
  for (double v : other.values_) Add(v);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Linear interpolation between closest ranks.
  const double rank = q * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  return values_[lo] + (values_[hi] - values_[lo]) * (rank - double(lo));
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

std::string Samples::Describe(double scale, const std::string& unit) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50=%.4g %s", Quantile(0.5) * scale,
                unit.c_str());
  std::string out = buf;
  static const double kLevels[] = {0.9999, 0.999, 0.99, 0.95, 0.9, 0.75};
  const auto n = static_cast<double>(size());
  for (double level : kLevels) {
    if (n * (1.0 - level) + 1e-9 < 10.0) continue;
    std::snprintf(buf, sizeof(buf), " p%g=%.4g %s", level * 100.0,
                  Quantile(level) * scale, unit.c_str());
    out += buf;
    break;
  }
  out += " n=" + std::to_string(size());
  return out;
}

double ProcessCpuS() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Checks and the report.
// ---------------------------------------------------------------------------

void Checks::Note(const std::string& what) {
  if (notes_++ < 5) std::cerr << "check failed: " << what << "\n";
}

void Checks::Op(bool returned_ok, bool matched, const std::string& what) {
  ++attempted_;
  if (returned_ok && matched) return;
  ++failed_;
  if (returned_ok) correct_ = false;
  Note(what);
}

void Checks::Invariant(bool held, const std::string& what) {
  if (held) return;
  correct_ = false;
  Note(what);
}

std::string Report::ToJson(const Checks& checks) const {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (checks.correct() ? "true" : "false")
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void Say(const std::string& line) { std::cout << line << "\n" << std::flush; }

// ---------------------------------------------------------------------------
// Span log.
// ---------------------------------------------------------------------------

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

void SpanLog::Record(const char* name, std::uint64_t id, std::uint64_t parent,
                     std::uint64_t op, double start_s, double end_s) {
  if (!enabled_) return;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, op, start_s, end_s});
}

std::uint64_t SpanLog::Add(const char* name, std::uint64_t parent,
                           std::uint64_t op, double start_s, double end_s) {
  if (!enabled_) return 0;
  const std::uint64_t id = NextId();
  Record(name, id, parent, op, start_s, end_s);
  return id;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id,parent,op,name,start_s,end_s\n");
  for (const Span& s : spans_)
    std::fprintf(file, "%llu,%llu,%llu,%s,%.9f,%.9f\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name, s.start_s,
                 s.end_s);
  return std::fclose(file) == 0;
}

// ---------------------------------------------------------------------------
// MetricsWindow.
// ---------------------------------------------------------------------------

namespace {

/// Cumulative (bound, observations <= bound) pairs -> per-bucket counts.
std::map<double, std::uint64_t> PerBucket(const HistogramSnapshot* snapshot) {
  std::map<double, std::uint64_t> out;
  if (snapshot == nullptr) return out;
  std::uint64_t previous = 0;
  for (const auto& [bound, cumulative] : snapshot->buckets) {
    out[bound] = cumulative - previous;
    previous = cumulative;
  }
  return out;
}

}  // namespace

void MetricsWindow::Add(const MetricsSnapshot& before,
                        const MetricsSnapshot& after) {
  for (const auto& [name, value] : after.counters)
    counters_[name] += value - before.CounterValue(name);
  for (const auto& [name, snapshot] : after.histograms) {
    const auto then = PerBucket(before.HistogramFor(name));
    auto& into = buckets_[name];
    for (const auto& [bound, count] : PerBucket(&snapshot)) {
      const auto it = then.find(bound);
      into[bound] += count - (it == then.end() ? 0 : it->second);
    }
    const HistogramSnapshot* old = before.HistogramFor(name);
    sums_[name] += snapshot.sum - (old == nullptr ? 0.0 : old->sum);
  }
}

std::uint64_t MetricsWindow::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t MetricsWindow::Count(const std::string& histogram) const {
  const auto it = buckets_.find(histogram);
  if (it == buckets_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [bound, count] : it->second) total += count;
  return total;
}

double MetricsWindow::Sum(const std::string& histogram) const {
  const auto it = sums_.find(histogram);
  return it == sums_.end() ? 0.0 : it->second;
}

double MetricsWindow::Quantile(const std::string& histogram, double q) const {
  const auto it = buckets_.find(histogram);
  if (it == buckets_.end()) return 0.0;
  std::vector<std::pair<double, std::uint64_t>> cumulative;
  std::uint64_t total = 0;
  double lowest = 0.0;
  double highest = 0.0;
  for (const auto& [bound, count] : it->second) {
    if (count == 0) continue;
    if (total == 0) lowest = bound / 2.0;
    total += count;
    cumulative.emplace_back(bound, total);
    highest = bound;
  }
  if (total == 0) return 0.0;
  if (!std::isfinite(highest)) highest = cumulative.size() > 1
                                             ? cumulative[cumulative.size() - 2].first
                                             : lowest;
  return vl::telemetry::InterpolateBucketQuantile(cumulative, total, q, lowest,
                                                  highest);
}

MetricsWindow& RunMetrics() {
  static MetricsWindow totals;
  return totals;
}

// ---------------------------------------------------------------------------
// Cluster.
// ---------------------------------------------------------------------------

vl::Result<std::unique_ptr<Cluster>> Cluster::Start(
    const ClusterConfig& config) {
  std::unique_ptr<Cluster> cluster(new Cluster(config));
  Tel().metrics.Reset();
  cluster->start_metrics_ = Tel().metrics.Snapshot();
  vl::core::ManagerConfig manager_config;
  manager_config.registry = &Registry();
  manager_config.telemetry = &Tel();
  if (config.tcp) {
    auto hub = std::make_shared<vl::net::TcpTransport>();
    VINELET_RETURN_IF_ERROR(hub->Start());
    cluster->hub_ = hub;
    cluster->manager_ =
        std::make_unique<vl::core::Manager>(hub, manager_config);
    VINELET_RETURN_IF_ERROR(cluster->manager_->Start());
    for (std::size_t i = 0; i < kWorkers; ++i) {
      vl::net::TcpTransportConfig node_config;
      node_config.hub_host = "127.0.0.1";
      node_config.hub_port = hub->listen_port();
      auto node = std::make_shared<vl::net::TcpTransport>(node_config);
      VINELET_RETURN_IF_ERROR(node->Start());
      cluster->nodes_.push_back(node);
      vl::core::WorkerConfig worker_config;
      worker_config.id = static_cast<vl::core::WorkerId>(i + 1);
      worker_config.registry = &Registry();
      worker_config.telemetry = &Tel();
      worker_config.ref_results_min_bytes = config.ref_results_min_bytes;
      cluster->tcp_workers_.push_back(
          std::make_unique<vl::core::Worker>(node, worker_config));
      VINELET_RETURN_IF_ERROR(cluster->tcp_workers_.back()->Start());
    }
  } else {
    auto bus = std::make_shared<vl::net::Network>();
    cluster->hub_ = bus;
    cluster->manager_ = std::make_unique<vl::core::Manager>(bus, manager_config);
    VINELET_RETURN_IF_ERROR(cluster->manager_->Start());
    vl::core::FactoryConfig factory_config;
    factory_config.initial_workers = kWorkers;
    factory_config.registry = &Registry();
    factory_config.telemetry = &Tel();
    factory_config.ref_results_min_bytes = config.ref_results_min_bytes;
    cluster->factory_ =
        std::make_unique<vl::core::Factory>(bus, factory_config);
    VINELET_RETURN_IF_ERROR(cluster->factory_->Start());
  }
  VINELET_RETURN_IF_ERROR(
      cluster->manager_->WaitForWorkers(kWorkers, 30.0));
  return cluster;
}

Cluster::~Cluster() { Stop(); }

void Cluster::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (manager_) manager_->Stop();
  for (auto& worker : tcp_workers_) worker->Stop();
  if (factory_) factory_->Stop();
  for (auto& node : nodes_) node->Shutdown();
  if (auto* tcp = dynamic_cast<vl::net::TcpTransport*>(hub_.get()))
    tcp->Shutdown();
  RunMetrics().Add(start_metrics_, Tel().metrics.Snapshot());
  // Hand the torn-down cluster's free heap back to the OS, so each round
  // starts alike and peak RSS does not depend on how earlier rounds
  // fragmented the allocator.
  malloc_trim(0);
}

std::uint64_t Cluster::PeerBytesSent() const {
  std::uint64_t bytes = 0;
  for (const auto& node : nodes_)
    for (const auto& conn : node->ConnectionsSnapshot())
      if (conn.peer != vl::net::kManagerEndpoint) bytes += conn.bytes_sent;
  return bytes;
}

std::vector<vl::net::ConnectionStats> Cluster::Connections() const {
  std::vector<vl::net::ConnectionStats> all;
  if (!config_.tcp) return all;
  all = hub_->ConnectionsSnapshot();
  for (const auto& node : nodes_) {
    auto part = node->ConnectionsSnapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

vl::core::QuiescenceReport ExpectQuiescent(vl::core::Manager& manager,
                                           Checks& checks, double timeout_s) {
  vl::core::QuiescenceReport last;
  const double deadline = NowS() + timeout_s;
  do {
    auto report = manager.CheckQuiescent();
    if (report.ok()) {
      last = *report;
      if (last.quiescent) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (NowS() < deadline);
  checks.Invariant(last.quiescent, "not quiescent: " + last.ToString());
  return last;
}

std::map<vl::core::WorkerId, std::vector<std::string>> HostedLibraries(
    vl::core::Manager& manager) {
  std::map<vl::core::WorkerId, std::vector<std::string>> hosted;
  auto status = manager.QueryStatus();
  if (!status.ok()) return hosted;
  for (const auto& worker : status->workers) {
    auto& names = hosted[worker.id];
    for (const auto& lib : worker.libraries) names.push_back(lib.library);
  }
  return hosted;
}

// ---------------------------------------------------------------------------
// Closed loop.
// ---------------------------------------------------------------------------

void CompletionQueue::Push(std::size_t tag, double at_s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.emplace_back(tag, at_s);
  }
  cv_.notify_one();
}

bool CompletionQueue::PopAll(std::vector<std::pair<std::size_t, double>>& out,
                             double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                    [&] { return !ready_.empty(); }))
    return false;
  out.swap(ready_);
  return true;
}

void NotifyOn(const FuturePtr& future,
              const std::shared_ptr<CompletionQueue>& queue, std::size_t tag) {
  future->OnReady([queue, tag](const vl::Result<Outcome>&) {
    queue->Push(tag, NowS());
  });
}

bool CheckAnswer(const vl::Result<Outcome>& outcome, std::int64_t expected,
                 Checks& checks, const std::string& what) {
  if (!outcome.ok()) {
    checks.Op(false, false, what + ": " + outcome.status().ToString());
    return false;
  }
  const Value& value = outcome->value;
  const bool matched =
      value.type() == Value::Type::kInt && value.AsInt() == expected;
  checks.Op(true, matched, what + ": wrong answer");
  return matched;
}

LoopStats RunClosedLoop(vl::core::Manager& manager, Checks& checks,
                        const LoopOptions& options,
                        const std::function<CallSpec()>& next) {
  const std::size_t outstanding = options.outstanding;
  const double duration_s = options.duration_s;
  const std::uint64_t max_calls = options.max_calls;
  const char* phase = options.phase;
  struct Slot {
    FuturePtr future;
    std::int64_t expected = 0;
    double submitted_s = 0.0;
    std::uint64_t span = 0;
    std::uint64_t op = 0;
  };
  auto queue = std::make_shared<CompletionQueue>();
  std::vector<Slot> slots(outstanding);
  LoopStats stats;
  // Room for the longest expected run, so the sample buffers never grow by
  // copying (peak RSS would then depend on the run's throughput).
  const std::size_t expected_calls =
      duration_s > 0 ? static_cast<std::size_t>(duration_s * 200000) + 1024
                     : max_calls;
  stats.latency_s.Reserve(expected_calls);
  if (options.keep_submit) stats.submit_s.Reserve(expected_calls);
  if (options.keep_intervals) stats.intervals.reserve(expected_calls);
  SpanLog& spans = Spans();
  std::uint64_t submitted = 0;
  std::uint64_t next_op = 0;

  auto submit = [&](std::size_t index) {
    CallSpec call = next();
    Slot& slot = slots[index];
    slot.expected = call.expected;
    slot.op = ++next_op;
    slot.span = spans.enabled() ? spans.NextId() : 0;
    const double t0 = NowS();
    slot.future = manager.SubmitCall(call.library, call.function, call.args);
    const double t1 = NowS();
    spans.Add("SubmitCall", slot.span, slot.op, t0, t1);
    if (options.keep_submit) stats.submit_s.Add(t1 - t0);
    slot.submitted_s = t0;
    ++submitted;
    NotifyOn(slot.future, queue, index);
  };

  const double cpu0 = ProcessCpuS();
  const double start = NowS();
  const double deadline = start + duration_s;
  // The open window: calls resolved since it began, and its start.
  Samples window_latency;
  double window_start = start;
  double window_cpu0 = cpu0;
  auto close_window = [&](double now) {
    const double cpu = ProcessCpuS();
    const double calls = static_cast<double>(window_latency.size());
    stats.windows.push_back(
        {window_latency.Quantile(0.5), (cpu - window_cpu0) / calls});
    window_latency = Samples();
    window_start = now;
    window_cpu0 = cpu;
  };
  auto more = [&] {
    return duration_s > 0 ? NowS() < deadline : submitted < max_calls;
  };
  std::size_t in_flight = 0;
  for (std::size_t i = 0; i < outstanding && more(); ++i) {
    submit(i);
    ++in_flight;
  }
  std::vector<std::pair<std::size_t, double>> done;
  double last_s = start;
  while (in_flight > 0) {
    if (!queue->PopAll(done, 60.0)) {
      for (std::size_t i = 0; i < in_flight; ++i)
        checks.Op(false, false, std::string(phase) + ": no answer in 60 s");
      break;
    }
    for (const auto& [index, at_s] : done) {
      Slot& slot = slots[index];
      const auto outcome = slot.future->Wait();
      CheckAnswer(outcome, slot.expected, checks, phase);
      checks.Invariant(slot.future->resolutions() == 1,
                       "future resolved more than once");
      stats.latency_s.Add(at_s - slot.submitted_s);
      if (options.window_s > 0) {
        window_latency.Add(at_s - slot.submitted_s);
        // A window closes once it is long enough and holds enough calls
        // for a median; the drain at the end forms no window of its own.
        if (at_s - window_start >= options.window_s &&
            window_latency.size() >= 64 && more())
          close_window(at_s);
      }
      if (options.keep_intervals)
        stats.intervals.emplace_back(slot.submitted_s, at_s);
      spans.Record(phase, slot.span, 0, slot.op, slot.submitted_s, at_s);
      ++stats.completed;
      last_s = std::max(last_s, at_s);
      --in_flight;
      if (more()) {
        submit(index);
        ++in_flight;
      }
    }
    done.clear();
  }
  stats.elapsed_s = last_s - start;
  stats.cpu_s = ProcessCpuS() - cpu0;
  return stats;
}

bool CallAndCheck(vl::core::Manager& manager, Checks& checks,
                  const CallSpec& call) {
  auto future = Timed("SubmitCall", 0, 0, [&] {
    return manager.SubmitCall(call.library, call.function, call.args);
  });
  auto outcome = future->WaitFor(std::chrono::duration<double>(30.0));
  if (!outcome.has_value()) {
    checks.Op(false, false, call.function + ": timed out");
    return false;
  }
  const bool ok = CheckAnswer(*outcome, call.expected, checks, call.function);
  checks.Invariant(future->resolutions() == 1,
                   "future resolved more than once");
  return ok;
}

}  // namespace pb
