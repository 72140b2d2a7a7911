#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/protocol.hpp"
#include "functions.hpp"
#include "hash/sha256.hpp"
#include "poncho/analyzer.hpp"

namespace pb {

using vl::telemetry::HistogramSnapshot;
using vl::telemetry::MetricsSnapshot;
using vl::telemetry::SpanRecord;

constexpr double kMiB = 1024.0 * 1024.0;

namespace {

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProgramSpans.
// ---------------------------------------------------------------------------

void ProgramSpans::Start() {
  Tel().tracer.SetEnabled(true);
  running_ = true;
  drainer_ = std::thread([this] {
    while (running_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Fold();
    }
  });
}

void ProgramSpans::Stop() {
  if (!running_.exchange(false)) return;
  drainer_.join();
  Tel().tracer.SetEnabled(false);
  Fold();
}

void ProgramSpans::OpenWindow(bool keep_raw) {
  Fold();
  std::lock_guard<std::mutex> lock(mu_);
  open_ = true;
  keep_raw_ = keep_raw;
  window_start_ = NowS();
}

void ProgramSpans::CloseWindow() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_end_ = NowS();
    open_ = false;
    closed_ = true;
  }
  Fold();
  std::lock_guard<std::mutex> lock(mu_);
  keep_raw_ = false;
}

void ProgramSpans::Fold() {
  std::vector<SpanRecord> spans = Tel().tracer.Drain();
  std::lock_guard<std::mutex> lock(mu_);
  for (SpanRecord& span : spans) {
    const std::string key = span.category + "/" + span.name;
    Total& whole = whole_[key];
    whole.seconds += span.Duration();
    ++whole.spans;
    // Spans drained after the window closed still count if they started in
    // it.
    const bool inside =
        span.start_s >= window_start_ &&
        (open_ || (closed_ && span.start_s <= window_end_));
    if (!inside) continue;
    if (keep_raw_) {
      raw_.push_back(std::move(span));
      continue;
    }
    Total& window = window_[key];
    window.seconds += span.Duration();
    ++window.spans;
  }
}

std::map<std::string, ProgramSpans::Total> ProgramSpans::Window() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_;
}

std::map<std::string, ProgramSpans::Total> ProgramSpans::Whole() const {
  std::lock_guard<std::mutex> lock(mu_);
  return whole_;
}

std::vector<SpanRecord> ProgramSpans::TakeRaw() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(raw_);
}

// ---------------------------------------------------------------------------
// LayerProbe.
// ---------------------------------------------------------------------------

LayerProbe::LayerProbe() {
  Spans().Enable(true);
  spans_.Start();
  RunMetrics() = MetricsWindow();
}

NetTotals LayerProbe::Net(Cluster& cluster) const {
  NetTotals totals;
  for (const auto& conn : cluster.Connections()) {
    totals.frames_sent += conn.frames_sent;
    totals.bytes_sent += conn.bytes_sent;
    totals.stalls += conn.backpressure_stalls;
    totals.peak_queue_bytes =
        std::max(totals.peak_queue_bytes, conn.peak_queue_bytes);
  }
  totals.p2p_bytes = cluster.PeerBytesSent();
  return totals;
}

DataPlaneTotals LayerProbe::DataPlane(Cluster& cluster) const {
  DataPlaneTotals totals;
  auto status = cluster.manager().QueryStatus();
  if (!status.ok()) return totals;
  for (const auto& worker : status->workers) {
    totals.p2p_fetch_bytes += worker.p2p_fetch_bytes;
    totals.relayed_result_bytes += worker.relayed_result_bytes;
  }
  return totals;
}

void LayerProbe::BeginTimed(Cluster& cluster) {
  net_start_ = Net(cluster);
  data_start_ = DataPlane(cluster);
  window_start_ = Tel().metrics.Snapshot();
  spans_.OpenWindow(/*keep_raw=*/false);
}

void LayerProbe::EndTimed(Cluster& cluster, std::uint64_t calls,
                          std::uint64_t ops) {
  spans_.CloseWindow();
  const MetricsSnapshot now = Tel().metrics.Snapshot();
  timed_.Add(window_start_, now);
  retained_peak_bytes_ =
      std::max(retained_peak_bytes_,
               now.GaugeValue("manager.retained_context_bytes"));
  const NetTotals net = Net(cluster);
  net_.frames_sent += net.frames_sent - net_start_.frames_sent;
  net_.bytes_sent += net.bytes_sent - net_start_.bytes_sent;
  net_.p2p_bytes += net.p2p_bytes - net_start_.p2p_bytes;
  net_.stalls += net.stalls - net_start_.stalls;
  net_.peak_queue_bytes = std::max(net_.peak_queue_bytes, net.peak_queue_bytes);
  const DataPlaneTotals data = DataPlane(cluster);
  data_.p2p_fetch_bytes += data.p2p_fetch_bytes - data_start_.p2p_fetch_bytes;
  data_.relayed_result_bytes +=
      data.relayed_result_bytes - data_start_.relayed_result_bytes;
  calls_ += calls;
  ops_ += ops;
}

void LayerProbe::BeginSerial() { spans_.OpenWindow(/*keep_raw=*/true); }

void LayerProbe::EndSerial(
    const std::vector<std::pair<double, double>>& calls) {
  spans_.CloseWindow();
  std::vector<SpanRecord> raw = spans_.TakeRaw();
  std::sort(raw.begin(), raw.end(), [](const auto& a, const auto& b) {
    return a.start_s < b.start_s;
  });
  // Each serial call owns the invocation spans that start inside it: with
  // one call outstanding nothing else can be running.
  std::size_t next = 0;
  for (const auto& [start, end] : calls) {
    while (next < raw.size() && raw[next].start_s < start) ++next;
    std::map<std::string, double> phases;
    for (std::size_t i = next; i < raw.size() && raw[i].start_s <= end; ++i) {
      if (raw[i].category != "invocation") continue;
      phases[raw[i].name] += raw[i].Duration();
    }
    if (phases.empty()) continue;  // no spans matched: skip, don't guess
    ++serial_calls_;
    serial_rtt_s_ += end - start;
    for (const auto& [name, seconds] : phases) serial_phase_s_[name] += seconds;
  }
}

namespace {

struct ProtocolCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

/// Mean EncodeFrame / DecodeFrame cost over the two message shapes the
/// hot workload sends: a one-integer RunInvocation and its InvocationDone.
ProtocolCost TimeProtocol() {
  constexpr int kIters = 20000;
  vl::core::RunInvocationMsg run;
  run.id = 12345;
  run.instance_id = 7;
  run.function_name = kHotFn;
  run.args = Value(std::int64_t{424242}).ToBlob();
  vl::core::InvocationDoneMsg done;
  done.id = 12345;
  done.ok = true;
  done.result = Value(HotAnswer(424242)).ToBlob();
  const vl::core::Message shapes[2] = {run, done};
  ProtocolCost cost;
  std::uint64_t sink = 0;
  for (const auto& shape : shapes) {
    const double t0 = NowS();
    vl::core::WireFrame wire;
    for (int i = 0; i < kIters; ++i) {
      wire = vl::core::EncodeFrame(shape);
      sink += wire.payload.size();
    }
    const double t1 = NowS();
    const vl::net::Frame frame{1, wire.payload, wire.attachment};
    for (int i = 0; i < kIters; ++i) {
      auto decoded = vl::core::DecodeFrame(frame);
      sink += decoded.ok() ? decoded->index() : 1000;
    }
    const double t2 = NowS();
    cost.encode_ns += (t1 - t0) / kIters * 1e9 / 2.0;
    cost.decode_ns += (t2 - t1) / kIters * 1e9 / 2.0;
  }
  if (sink == 0) std::fprintf(stderr, "protocol timing sink empty\n");
  return cost;
}

/// SHA-256 throughput on a blob of the rollout's size.
double TimeSha256(std::size_t bytes) {
  const Blob blob = MakeWords(99, bytes);
  constexpr int kIters = 8;
  std::uint8_t sink = 0;
  const double t0 = NowS();
  for (int i = 0; i < kIters; ++i)
    sink ^= vl::hash::Sha256::Hash(blob.span())[0];
  const double elapsed = NowS() - t0;
  if (sink == 0xFF) std::fprintf(stderr, "sha sink\n");
  return Ratio(kIters * bytes / kMiB, elapsed);
}

double TimeAnalyzeMs(const vl::poncho::Analyzer& analyzer) {
  constexpr int kIters = 5;
  double total = 0.0;
  for (int i = 0; i < kIters; ++i) {
    const double t0 = NowS();
    auto env = analyzer.AnalyzeImports(RolloutImports());
    total += NowS() - t0;
    if (!env.ok()) return 0.0;
  }
  return total / kIters * 1e3;
}

}  // namespace

void LayerProbe::Emit(Report& report, double overhead_ratio) {
  spans_.Stop();
  const MetricsWindow& whole = RunMetrics();
  const auto window = spans_.Window();
  const auto all_spans = spans_.Whole();
  auto span_mean_ms = [&](const std::string& key) {
    const auto it = all_spans.find(key);
    if (it == all_spans.end()) return 0.0;
    return Ratio(it->second.seconds, it->second.spans) * 1e3;
  };
  const double calls = static_cast<double>(calls_);
  const double ops = static_cast<double>(ops_);
  auto add = [&](const char* name, double value, const char* unit) {
    report.Add(name, value, unit);
  };

  // core.manager: the benchmark's own calls into Manager.
  add("manager.submit_us", submit_s.Mean() * 1e6, "us");
  add("manager.roundtrip_p50_us",
      timed_.Quantile("manager.invocation_roundtrip_s", 0.5) * 1e6, "us");
  add("manager.declare_ms_per_mib", Ratio(declare_s * 1e3, declared_mib),
      "ms/MiB");
  add("manager.create_library_ms", create_library_s.Mean() * 1e3, "ms");
  add("manager.broadcast_ms", broadcast_s.Mean() * 1e3, "ms");
  add("manager.coldstart_ms", coldstart_s.Mean() * 1e3, "ms");
  add("manager.release_ref_us", release_ref_s.Mean() * 1e6, "us");

  // core lifecycle phases of the serial round trip (means per call).
  const double n = static_cast<double>(serial_calls_);
  double phase_sum_us = 0.0;
  for (const char* phase : {"submit", "dispatch", "deserialize", "exec",
                            "result"}) {
    const auto it = serial_phase_s_.find(phase);
    const double us =
        it == serial_phase_s_.end() ? 0.0 : Ratio(it->second, n) * 1e6;
    phase_sum_us += us;
    report.Add(std::string("phase.") + phase + "_us", us, "us");
  }
  const double rtt_us = Ratio(serial_rtt_s_, n) * 1e6;
  add("phase.rtt_mean_us", rtt_us, "us");
  add("phase.residual_us", rtt_us - phase_sum_us, "us");
  add("phase.unpack_ms", span_mean_ms("library/unpack"), "ms");
  add("phase.context_setup_ms", span_mean_ms("library/context-setup"), "ms");
  {
    // The same split under load: program phase time per timed call.
    std::string line = "  timed-phase span time per call:";
    for (const char* phase : {"submit", "dispatch", "deserialize", "exec",
                              "result"}) {
      const auto it = window.find(std::string("invocation/") + phase);
      const double us =
          it == window.end() ? 0.0 : Ratio(it->second.seconds, calls) * 1e6;
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.2fus", phase, us);
      line += buf;
    }
    Say(line);
  }

  // core.scheduler.
  const double hits = timed_.Counter("manager.affinity_hits");
  const double misses = timed_.Counter("manager.affinity_misses");
  add("scheduler.affinity_hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("scheduler.share_value",
      Ratio(whole.Counter("manager.invocations_completed"),
            whole.Counter("manager.libraries_deployed")),
      "calls/instance");
  add("scheduler.evicts_per_kcall",
      Ratio(timed_.Counter("manager.libraries_evicted") * 1e3, calls),
      "1/kcall");
  add("scheduler.steals_per_kcall",
      Ratio(timed_.Counter("manager.steals") * 1e3, calls), "1/kcall");
  add("scheduler.batch_mean",
      Ratio(timed_.Sum("manager.dispatch_batch_size"),
            timed_.Count("manager.dispatch_batch_size")),
      "calls/msg");
  add("scheduler.retries", whole.Counter("manager.retries"), "count");

  // core.library.
  add("library.setups", timed_.Count("library.setup_s"), "count");
  add("library.setup_ms",
      Ratio(whole.Sum("library.setup_s"), whole.Count("library.setup_s")) *
          1e3,
      "ms");
  add("library.retained_mib", retained_peak_bytes_ / kMiB, "MiB");

  // storage and core.worker.
  add("storage.manager_send_mib",
      timed_.Counter("manager.manager_transfer_bytes") / kMiB, "MiB");
  add("storage.peer_send_mib",
      timed_.Counter("manager.peer_transfer_bytes") / kMiB, "MiB");
  add("storage.chunks_relayed", timed_.Counter("worker.chunks_relayed"),
      "count");
  add("storage.broadcast_resends", timed_.Counter("manager.broadcast_resends"),
      "count");
  const double cache_hits = timed_.Counter("worker.cache.hits");
  add("storage.cache_hit_ratio",
      Ratio(cache_hits, cache_hits + timed_.Counter("worker.cache.misses")),
      "ratio");
  add("storage.cache_evictions", timed_.Counter("worker.cache.evictions"),
      "count");
  add("storage.unpacks", timed_.Counter("worker.unpacks"), "count");

  // Data plane.
  add("ref.p2p_mib_per_round", Ratio(data_.p2p_fetch_bytes / kMiB, ops),
      "MiB/op");
  add("ref.relayed_bytes_per_round", Ratio(data_.relayed_result_bytes, ops),
      "B/op");
  add("ref.dropped_per_round",
      Ratio(timed_.Counter("manager.refs_dropped"), ops), "refs/op");

  // net.
  add("net.frames_per_call", Ratio(net_.frames_sent, calls), "frames/call");
  add("net.bytes_per_call", Ratio(net_.bytes_sent, calls), "B/call");
  add("net.p2p_mib", net_.p2p_bytes / kMiB, "MiB");
  add("net.backpressure_stalls", net_.stalls, "count");
  add("net.peak_queue_mib", net_.peak_queue_bytes / kMiB, "MiB");

  // Micro timings of single public functions.
  const ProtocolCost protocol = TimeProtocol();
  add("protocol.encode_ns", protocol.encode_ns, "ns");
  add("protocol.decode_ns", protocol.decode_ns, "ns");
  add("hash.sha256_mib_per_s", TimeSha256(4u << 20), "MiB/s");
  add("poncho.analyze_ms", TimeAnalyzeMs(RolloutAnalyzer()), "ms");

  add("trace.overhead_ratio", overhead_ratio, "ratio");
}

}  // namespace pb
