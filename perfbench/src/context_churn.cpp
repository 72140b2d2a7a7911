// context-churn: 32 libraries on the in-process bus, each with its own
// 1 MiB context table and one shared packed environment.  Every instance
// claims a quarter of a worker, so the cluster retains at most 16 of them;
// calls pick a library by Zipf(1.1).  The retain mechanism
// (deploy, evict and steal decisions, library setup, staging from worker
// caches) dominates.  Calls run one at a time: each meets the retained set
// the previous calls left, so hits, misses and evictions follow from the
// seeded library sequence and the retain policy, not from how fast the
// host ran the threads that decide them.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "functions.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr int kRounds = 10;
constexpr int kLibraries = 32;
constexpr std::size_t kTableBytes = 1u << 20;
constexpr std::size_t kSerialCalls = 100;
constexpr std::size_t kOutstanding = 1;
constexpr std::uint64_t kWarmCalls = 256;
constexpr double kZipfS = 1.1;

std::string LibraryName(int index) { return "churn-" + std::to_string(index); }
std::string TableName(int index) { return "table-" + std::to_string(index); }

/// Zipf(s) over ranks 0..n-1 by inverse CDF; rank 0 is the most popular.
class Zipf {
 public:
  Zipf(int n, double s) {
    double total = 0.0;
    for (int k = 1; k <= n; ++k) total += 1.0 / std::pow(k, s);
    double acc = 0.0;
    for (int k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(k, s) / total;
      cdf_.push_back(acc);
    }
  }
  int Sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

PassResult RunContextChurn(const Options& options, double seconds,
                           Checks& checks, LayerProbe* probe) {
  PassResult result;
  // The p99 sits on the deploy-on-miss plateau, which the runtime sets.
  result.tail_q = 0.99;
  // The benchmark's own copy of every library's table.
  std::vector<Blob> tables;
  for (int lib = 0; lib < kLibraries; ++lib)
    tables.push_back(
        MakeWords(Mix64(options.seed) ^ (0x7AB1Eull * (lib + 1)), kTableBytes));
  const Zipf zipf(kLibraries, kZipfS);
  InputStream inputs(options.seed, 2);
  auto call_for = [&](int lib) {
    const std::int64_t x = inputs.NextArg();
    return CallSpec{LibraryName(lib), kTableFn, Value(x),
                    checks.Expect(TableAnswer(tables[lib].span(), x))};
  };
  auto next = [&]() { return call_for(zipf.Sample(inputs.NextUnit())); };
  auto first_library = [&]() { return call_for(0); };

  result.op_s.Reserve(kPooledSamples);
  auto env = RolloutAnalyzer().AnalyzeImports({"numpy", "scipy"});
  if (!env.ok()) {
    checks.Op(false, false, "analyze: " + env.status().ToString());
    return result;
  }
  for (int round = 0; round < kRounds; ++round) {
    const double setup_start = NowS();
    ClusterConfig config;
    config.tcp = false;
    auto cluster = Cluster::Start(config);
    if (!cluster.ok()) {
      checks.Op(false, false, "cluster: " + cluster.status().ToString());
      return result;
    }
    vl::core::Manager& manager = (*cluster)->manager();
    // Distribute the shared environment once, then declare the tables.
    double declare_s = 0.0;
    const auto env_decl = Timed(
        "DeclareBlob", 0, 0,
        [&] {
          return manager.DeclareBlob("churn-env", env->tarball,
                                     vl::storage::FileKind::kEnvironment,
                                     /*cache=*/true, /*peer_transfer=*/true,
                                     /*unpack=*/true);
        },
        &declare_s);
    double broadcast_s = 0.0;
    auto sent = Timed(
        "BroadcastFile", 0, 0,
        [&] { return manager.BroadcastFile(env_decl)->Wait(); }, &broadcast_s);
    checks.Invariant(sent.ok(), "environment broadcast failed");
    std::vector<vl::storage::FileDecl> table_decls;
    for (int lib = 0; lib < kLibraries; ++lib)
      table_decls.push_back(Timed(
          "DeclareBlob", 0, 0,
          [&] {
            return manager.DeclareBlob(TableName(lib), tables[lib],
                                       vl::storage::FileKind::kData);
          },
          &declare_s));
    if (probe != nullptr) {
      probe->declare_s += declare_s;
      probe->declared_mib +=
          (env->tarball.size() + kLibraries * kTableBytes) / 1048576.0;
      probe->broadcast_s.Add(broadcast_s);
    }
    vl::core::LibraryOptions library;
    library.resources = QuarterWorker();
    library.slots = 1;
    double install_s = 0.0;
    for (int lib = 0; lib < kLibraries; ++lib) {
      vl::Status installed = CreateAndInstall(
          manager, probe, LibraryName(lib), {kTableFn}, kTableSetup,
          Value(TableName(lib)), nullptr, library, {env_decl, table_decls[lib]},
          0);
      if (!installed.ok()) {
        checks.Op(false, false, "install: " + installed.ToString());
        return result;
      }
      install_s = NowS();
    }
    ColdStartCall(manager, checks, probe, first_library(), install_s);
    LoopOptions warm;
    warm.outstanding = kOutstanding;
    warm.max_calls = kWarmCalls;
    warm.phase = "warm_call";
    RunClosedLoop(manager, checks, warm, next);
    result.setup_s.Add(NowS() - setup_start);

    RunSerialPhase(manager, checks, kSerialCalls, first_library, result,
                   probe);

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
