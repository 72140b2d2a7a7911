// context-rollout: repeated rollouts of a fresh 4 MiB context over TCP
// loopback.  Each rollout declares the new model blob, broadcasts it to
// every worker through the chunked spanning tree, discovers and installs a
// library around it (poncho analysis included), and answers 16 probe calls
// from it.  Discover, distribute and cold library setup dominate.
//
// Every version stays in the manager store and in every worker cache, so a
// cluster serves at most kRolloutsPerCluster rollouts before it is torn
// down and a fresh one is set up; memory stays bounded and every run sets
// up several times.
#include <cstdio>
#include <memory>

#include "functions.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr std::size_t kModelBytes = 4u << 20;
constexpr int kProbes = 16;
constexpr int kRolloutsPerCluster = 12;
constexpr std::size_t kSerialCalls = 40;

struct Model {
  int index = 0;
  Blob blob;
  std::uint64_t digest = 0;
  std::string name;
};

Model MakeModel(std::uint64_t seed, int index) {
  Model model;
  model.index = index;
  model.blob = MakeWords(Mix64(seed) ^ (0x40DE1ull * (index + 1)), kModelBytes);
  model.digest = DigestWords(model.blob.span());
  model.name = "model-" + std::to_string(index);
  return model;
}

CallSpec ProbeCall(const Model& model, InputStream& inputs,
                   const Checks& checks) {
  const std::int64_t x = inputs.NextArg();
  return CallSpec{"rollout-" + std::to_string(model.index), kModelFn, Value(x),
                  checks.Expect(ModelAnswer(model.blob.span(), model.digest, x))};
}

struct RolloutTimes {
  double total_s = 0.0;
  double broadcast_s = 0.0;
  bool ok = false;
};

/// One rollout, timed from DeclareBlob to the last probe answer.
RolloutTimes Rollout(Cluster& cluster, const Model& model, InputStream& inputs,
                     Checks& checks, LayerProbe* probe, std::uint64_t op) {
  vl::core::Manager& manager = cluster.manager();
  RolloutTimes times;
  const double start = NowS();
  const std::uint64_t root = Spans().enabled() ? Spans().NextId() : 0;
  double declare_s = 0.0;
  const auto decl = Timed(
      "DeclareBlob", root, op,
      [&] {
        return manager.DeclareBlob(model.name, model.blob,
                                   vl::storage::FileKind::kData);
      },
      &declare_s);
  auto sent = Timed(
      "BroadcastFile", root, op,
      [&] { return manager.BroadcastFile(decl)->Wait(); }, &times.broadcast_s);
  if (!sent.ok()) {
    checks.Op(false, false, "broadcast: " + sent.status().ToString());
    return times;
  }
  vl::core::LibraryOptions library;
  library.resources = QuarterWorker();
  library.slots = 4;
  double create_s = 0.0;
  auto spec = Timed(
      "CreateLibraryFromFunctions", root, op,
      [&] {
        return manager.CreateLibraryFromFunctions(
            "rollout-" + std::to_string(model.index), {kModelFn}, kModelSetup,
            Value(model.name), &RolloutAnalyzer(), library);
      },
      &create_s);
  if (!spec.ok()) {
    checks.Op(false, false, "create: " + spec.status().ToString());
    return times;
  }
  manager.AddLibraryInput(*spec, decl);
  const double install_start = NowS();
  vl::Status installed = Timed("InstallLibrary", root, op, [&] {
    return manager.InstallLibrary(std::move(*spec));
  });
  if (!installed.ok()) {
    checks.Op(false, false, "install: " + installed.ToString());
    return times;
  }
  // All probes at once; answers are checked in resolution order.
  auto queue = std::make_shared<CompletionQueue>();
  std::vector<CallSpec> calls;
  std::vector<vl::core::FuturePtr> futures;
  for (int i = 0; i < kProbes; ++i) {
    calls.push_back(ProbeCall(model, inputs, checks));
    futures.push_back(Submit(manager, calls.back(), root, op, probe));
    NotifyOn(futures.back(), queue, i);
  }
  double first_answer = 0.0;
  double last_answer = 0.0;
  std::vector<std::pair<std::size_t, double>> done;
  int answered = 0;
  while (answered < kProbes) {
    if (!queue->PopAll(done, 60.0)) {
      for (int i = answered; i < kProbes; ++i)
        checks.Op(false, false, "probe: no answer in 60 s");
      return times;
    }
    for (const auto& [index, at_s] : done) {
      CheckAnswer(futures[index]->Wait(), calls[index].expected, checks,
                  "probe");
      checks.Invariant(futures[index]->resolutions() == 1,
                       "future resolved more than once");
      if (answered++ == 0) first_answer = at_s;
      last_answer = std::max(last_answer, at_s);
    }
    done.clear();
  }
  times.total_s = last_answer - start;
  times.ok = true;
  Spans().Record("rollout", root, 0, op, start, last_answer);
  if (probe != nullptr) {
    probe->declare_s += declare_s;
    probe->declared_mib += kModelBytes / 1048576.0;
    probe->broadcast_s.Add(times.broadcast_s);
    probe->create_library_s.Add(create_s);
    probe->coldstart_s.Add(first_answer - install_start);
  }

  // Outside the timed interval: every worker must now cache the blob.
  auto status = manager.QueryStatus();
  std::size_t holders = 0;
  if (status.ok())
    for (const auto& worker : status->workers)
      for (const auto& entry : worker.cache)
        if (entry.id == decl.id) {
          ++holders;
          break;
        }
  checks.Invariant(holders == cluster.workers(),
                   "broadcast blob missing from a worker cache");
  return times;
}

}  // namespace

PassResult RunContextRollout(const Options& options, double seconds,
                             Checks& checks, LayerProbe* probe) {
  PassResult result;
  result.tail_q = 0.9;
  InputStream inputs(options.seed, 3);
  int next_index = 0;
  double broadcast_total_s = 0.0;
  double broadcast_bytes = 0.0;
  double timed_s = 0.0;
  std::uint64_t op = 0;
  while (timed_s < seconds) {
    const double setup_start = NowS();
    auto cluster = Cluster::Start(ClusterConfig{});
    if (!cluster.ok()) {
      checks.Op(false, false, "cluster: " + cluster.status().ToString());
      return result;
    }
    // Set-up ends with one warm rollout whose library serves the serial
    // phase.
    const Model warm = MakeModel(options.seed, next_index++);
    Rollout(**cluster, warm, inputs, checks, nullptr, ++op);
    result.setup_s.Add(NowS() - setup_start);
    RunSerialPhase((*cluster)->manager(), checks, kSerialCalls,
                   [&] { return ProbeCall(warm, inputs, checks); }, result,
                   probe);

    if (probe != nullptr) probe->BeginTimed(**cluster);
    std::uint64_t rollouts = 0;
    Samples latencies;
    std::vector<WindowFigures> windows;
    double cluster_s = 0.0;
    double cluster_cpu_s = 0.0;
    for (int i = 0; i < kRolloutsPerCluster && timed_s < seconds; ++i) {
      // The benchmark's reference copy is made before the clock starts.
      const Model model = MakeModel(options.seed, next_index++);
      const double cpu0 = ProcessCpuS();
      const RolloutTimes times =
          Rollout(**cluster, model, inputs, checks, probe, ++op);
      const double cpu_s = ProcessCpuS() - cpu0;
      cluster_cpu_s += cpu_s;
      if (!times.ok) break;
      latencies.Add(times.total_s);
      windows.push_back({times.total_s, cpu_s / kProbes});
      cluster_s += times.total_s;
      timed_s += times.total_s;
      broadcast_total_s += times.broadcast_s;
      broadcast_bytes += double(kModelBytes) * (*cluster)->workers();
      ++rollouts;
    }
    if (probe != nullptr)
      probe->EndTimed(**cluster, rollouts * kProbes, rollouts);
    if (rollouts > 0)
      result.AddRound(latencies, rollouts, rollouts * kProbes, cluster_s,
                      cluster_cpu_s, windows);
    ExpectQuiescent((*cluster)->manager(), checks);
    (*cluster)->Stop();
    if (rollouts == 0) break;  // a failing cluster must not spin forever
  }
  char line[160];
  result.figures.push_back("rollout_ms " + result.op_s.Describe(1e3, "ms"));
  std::snprintf(line, sizeof(line), "broadcast_mb_per_s %.1f MB/s",
                broadcast_total_s > 0 ? broadcast_bytes / 1e6 / broadcast_total_s
                                      : 0.0);
  result.figures.push_back(line);
  result.figures.push_back("rtt_us " + result.rtt_s.Describe(1e6, "us"));
  return result;
}

}  // namespace pb
