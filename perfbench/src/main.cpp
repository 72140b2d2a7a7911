// perfbench: the end-to-end benchmark of the real manager/worker runtime.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--perturb 1]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1)
// it runs the workload twice for half the time each, untraced then traced,
// and prints the per-layer metrics plus the tracing overhead.  The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  The exit code is 0 unless an output check failed.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace pb;

struct Workload {
  const char* name;
  WorkloadFn run;
  /// The traced-vs-untraced figure: throughput, or the inverse median
  /// latency for context-rollout.
  bool overhead_from_latency;
};

constexpr Workload kWorkloads[] = {
    {"invoke-hot", RunInvokeHot, false},
    {"context-churn", RunContextChurn, false},
    {"context-rollout", RunContextRollout, true},
    {"dag-refs", RunDagRefs, false},
};

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <invoke-hot|context-churn|"
               "context-rollout|dag-refs> --seed N --seconds S --trace 0|1 "
               "[--perturb 1]\n";
  return 2;
}

double Speed(const Workload& workload, const PassResult& pass) {
  if (!workload.overhead_from_latency) return pass.OpsPerS();
  const double p50 = pass.op_s.Quantile(0.5);
  return p50 > 0 ? 1.0 / p50 : 0.0;
}

/// Quantile `q` over the pass's windows of one per-window figure.
double WindowQuantile(const PassResult& pass, double WindowFigures::*field,
                      double q) {
  Samples values;
  for (const auto& window : pass.windows) values.Add(window.*field);
  return values.Quantile(q);
}

/// The gated figures: set-up time, the serial round trip, CPU per call and
/// peak memory.  CPU per call is a median over the run's windows, so a
/// disturbed stretch of the run moves few windows and not their median.
/// Operation latency, throughput and tails are printed with the workload's
/// figures but not gated: on a shared host they follow CPU steal far more
/// than the runtime (see README.md).
void AddEndToEnd(Report& report, const PassResult& pass) {
  report.Add("setup_s", pass.setup_s.Quantile(0.5), "s");
  report.Add("rtt_p50_us", pass.rtt_s.Quantile(0.5) * 1e6, "us");
  report.Add("cpu_us_per_call",
             WindowQuantile(pass, &WindowFigures::cpu_per_call_s, 0.5) * 1e6,
             "us");
  report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
}

void SayFigures(const char* label, const PassResult& pass) {
  char line[240];
  std::snprintf(line, sizeof(line),
                " op_p50 %.6g ms (median over %zu windows), ops_per_s %.6g "
                "ops/s, tail p%g %.6g ms (whole run)",
                WindowQuantile(pass, &WindowFigures::p50_s, 0.5) * 1e3,
                pass.windows.size(), pass.OpsPerS(), pass.tail_q * 100,
                pass.op_s.Quantile(pass.tail_q) * 1e3);
  Say(label + std::string(line));
  // How disturbed the run was: the spread of the window figures.
  std::snprintf(line, sizeof(line),
                " windows p10/p50/p90: op_p50 %.4g/%.4g/%.4g ms, "
                "cpu_per_call %.4g/%.4g/%.4g us",
                WindowQuantile(pass, &WindowFigures::p50_s, 0.1) * 1e3,
                WindowQuantile(pass, &WindowFigures::p50_s, 0.5) * 1e3,
                WindowQuantile(pass, &WindowFigures::p50_s, 0.9) * 1e3,
                WindowQuantile(pass, &WindowFigures::cpu_per_call_s, 0.1) * 1e6,
                WindowQuantile(pass, &WindowFigures::cpu_per_call_s, 0.5) * 1e6,
                WindowQuantile(pass, &WindowFigures::cpu_per_call_s, 0.9) * 1e6);
  Say(label + std::string(line));
  Say(std::string(label) + " setup_s " + pass.setup_s.Describe(1.0, "s"));
  for (const auto& line : pass.figures) Say(std::string(label) + " " + line);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(value);
    else if (key == "--trace") options.trace = std::atoi(value) != 0;
    else if (key == "--perturb") options.perturb = std::atoi(value) != 0;
    else return Usage(("unknown flag " + key).c_str());
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  const Workload* workload = nullptr;
  for (const auto& candidate : kWorkloads)
    if (options.workload == candidate.name) workload = &candidate;
  if (workload == nullptr) return Usage("unknown workload");

  Checks checks(options.perturb);
  Report report;
  if (!options.trace) {
    const PassResult pass =
        workload->run(options, options.seconds, checks, nullptr);
    SayFigures(workload->name, pass);
    AddEndToEnd(report, pass);
  } else {
    const double half = options.seconds / 2.0;
    const PassResult plain = workload->run(options, half, checks, nullptr);
    SayFigures("untraced", plain);
    LayerProbe probe;
    const PassResult traced = workload->run(options, half, checks, &probe);
    SayFigures("traced", traced);
    const double base = Speed(*workload, plain);
    probe.Emit(report, base > 0 ? Speed(*workload, traced) / base : 0.0);
    ::mkdir(kOutDir, 0755);
    const std::string path = std::string(kOutDir) + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".csv";
    if (Spans().WriteCsv(path))
      Say("benchmark spans: " + path + " (" +
          std::to_string(Spans().spans().size()) + " spans, " +
          std::to_string(Spans().dropped()) + " dropped)");
  }
  for (const auto& metric : report.metrics) {
    char line[200];
    std::snprintf(line, sizeof(line), "%-32s %14.6g %s", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    Say(line);
  }
  Say(report.ToJson(checks));
  return checks.correct() ? 0 : 1;
}
