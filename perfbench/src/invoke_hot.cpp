// invoke-hot: one library with a trivial integer body, deployed on all four
// workers with four slots each, over TCP loopback.  After warm-up nearly all
// the time is per-call runtime overhead.
#include <cstdio>

#include "functions.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr int kRounds = 10;
// Short warm-up bursts: set-up time then follows deployment, not how many
// calls a disturbed host gets through.
constexpr std::uint64_t kWarmBurstCalls = 128;
constexpr std::size_t kSerialCalls = 100;
constexpr std::size_t kOutstanding = 64;
constexpr const char* kLibrary = "hot";

/// Runs closed-loop bursts until every worker hosts the library.
bool WarmAllWorkers(Cluster& cluster, Checks& checks,
                    const std::function<CallSpec()>& next) {
  LoopOptions warm;
  warm.outstanding = kOutstanding;
  warm.max_calls = kWarmBurstCalls;
  warm.phase = "warm_call";
  for (int attempt = 0; attempt < 200; ++attempt) {
    RunClosedLoop(cluster.manager(), checks, warm, next);
    const auto hosted = HostedLibraries(cluster.manager());
    std::size_t with_library = 0;
    for (const auto& [worker, names] : hosted)
      for (const auto& name : names)
        if (name == kLibrary) {
          ++with_library;
          break;
        }
    if (with_library == cluster.workers()) return true;
  }
  return false;
}

}  // namespace

PassResult RunInvokeHot(const Options& options, double seconds, Checks& checks,
                        LayerProbe* probe) {
  PassResult result;
  // p90, not p99: on a shared 4-vCPU host the p99 of sub-millisecond calls
  // is set by host preemption (it ranged 1.2-7 ms between runs), not by
  // the runtime.
  result.tail_q = 0.9;
  InputStream inputs(options.seed, 1);
  auto next = [&]() {
    const std::int64_t x = inputs.NextArg();
    return CallSpec{kLibrary, kHotFn, Value(x), checks.Expect(HotAnswer(x))};
  };
  result.op_s.Reserve(kPooledSamples);
  for (int round = 0; round < kRounds; ++round) {
    const double setup_start = NowS();
    auto cluster = Cluster::Start(ClusterConfig{});
    if (!cluster.ok()) {
      checks.Op(false, false, "cluster: " + cluster.status().ToString());
      return result;
    }
    vl::core::Manager& manager = (*cluster)->manager();
    vl::core::LibraryOptions library;
    library.slots = 4;
    vl::Status installed = CreateAndInstall(manager, probe, kLibrary, {kHotFn},
                                            "", Value(), nullptr, library, {},
                                            0);
    if (!installed.ok()) {
      checks.Op(false, false, "install: " + installed.ToString());
      return result;
    }
    ColdStartCall(manager, checks, probe, next(), NowS());
    checks.Invariant(WarmAllWorkers(**cluster, checks, next),
                     "library not deployed on every worker");
    result.setup_s.Add(NowS() - setup_start);

    // Phase 1: the serial round trip.
    RunSerialPhase(manager, checks, kSerialCalls, next, result, probe);

    // Phase 2: 64 calls outstanding.
    if (probe != nullptr) probe->BeginTimed(**cluster);
    LoopOptions loop;
    loop.outstanding = kOutstanding;
    loop.duration_s = seconds / kRounds;
    loop.keep_submit = probe != nullptr;
    loop.window_s = kWindowS;
    LoopStats stats = RunClosedLoop(manager, checks, loop, next);
    if (probe != nullptr) {
      probe->EndTimed(**cluster, stats.completed, stats.completed);
      probe->submit_s.Append(stats.submit_s);
    }
    result.AddRound(stats.latency_s, stats.completed, stats.completed,
                    stats.elapsed_s, stats.cpu_s, stats.windows);
    ExpectQuiescent(manager, checks);
    (*cluster)->Stop();
  }
  char line[160];
  std::snprintf(line, sizeof(line), "calls_per_s %.1f calls/s",
                result.OpsPerS());
  result.figures.push_back(line);
  result.figures.push_back("call_ms " + result.op_s.Describe(1e3, "ms"));
  result.figures.push_back("rtt_us " + result.rtt_s.Describe(1e6, "us"));
  return result;
}

}  // namespace pb
