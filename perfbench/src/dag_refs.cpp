// dag-refs: dependent rounds over TCP loopback with by-reference results.
// Each round runs 8 producers that each emit a 256 KiB payload generated
// from a seed, feeds every payload to 4 consumers that digest it, and
// releases the round's refs.  The pass-by-reference data plane dominates: pinning,
// peer-to-peer fetch over node-to-node sockets, large frames with
// attachments, and ref garbage collection.
#include <cstdio>
#include <memory>

#include "core/blob_ref.hpp"
#include "functions.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr int kRounds = 15;
constexpr int kProducers = 8;
constexpr int kConsumersPerProducer = 4;
constexpr int kCallsPerRound = kProducers * (1 + kConsumersPerProducer);
constexpr std::int64_t kPayloadBytes = 256 << 10;
constexpr std::uint64_t kRefMinBytes = 64 << 10;
constexpr std::size_t kSerialCalls = 50;
constexpr const char* kLibrary = "dag";

struct RoundResult {
  bool ok = false;
  double seconds = 0.0;
  double cpu_s = 0.0;  // process CPU over the round
};

/// One round: producers, then each producer's consumers as soon as its ref
/// resolves, then ReleaseRef for every ref.  A producer's payload is checked
/// through its consumers' digests: the producer counts as failed when it
/// answered by value or with an error, or when any of its consumers saw a
/// payload other than the one the benchmark regenerated from its seed.
RoundResult RunRound(vl::core::Manager& manager, InputStream& inputs,
                     Checks& checks, LayerProbe* probe, std::uint64_t op) {
  // The benchmark's reference digests are computed before the clock starts.
  std::int64_t seeds[kProducers];
  std::int64_t expected[kProducers];
  for (int p = 0; p < kProducers; ++p) {
    seeds[p] = inputs.NextArg();
    expected[p] = checks.Expect(ConsumeAnswer(
        MakeWords(static_cast<std::uint64_t>(seeds[p]), kPayloadBytes).span()));
  }
  RoundResult round;
  auto queue = std::make_shared<CompletionQueue>();
  std::vector<vl::core::FuturePtr> producers;
  std::vector<vl::core::FuturePtr> consumers;
  std::vector<int> consumer_of;  // consumer tag -> producer
  int consumers_left[kProducers];
  bool consumer_error[kProducers] = {};
  bool payload_wrong[kProducers] = {};
  std::vector<vl::core::BlobRef> refs;
  const double cpu0 = ProcessCpuS();
  const double start = NowS();
  const std::uint64_t root = Spans().enabled() ? Spans().NextId() : 0;
  for (int p = 0; p < kProducers; ++p) {
    const CallSpec produce{
        kLibrary, kProduceFn,
        Value::List({Value(seeds[p]), Value(std::int64_t{kPayloadBytes})}), 0};
    producers.push_back(Submit(manager, produce, root, op, probe));
    NotifyOn(producers.back(), queue, p);
  }
  const int total = kCallsPerRound;
  int resolved = 0;
  std::vector<std::pair<std::size_t, double>> done;
  while (resolved < total) {
    if (!queue->PopAll(done, 60.0)) {
      for (int i = resolved; i < total; ++i)
        checks.Op(false, false, "dag call: no answer in 60 s");
      return round;
    }
    for (const auto& [tag, at_s] : done) {
      ++resolved;
      if (tag < static_cast<std::size_t>(kProducers)) {
        // A producer: its answer must be a ref; fan it out.
        const auto outcome = producers[tag]->Wait();
        checks.Invariant(producers[tag]->resolutions() == 1,
                         "future resolved more than once");
        const auto ref = outcome.ok() ? vl::core::TryUnwrapRef(outcome->value)
                                      : std::nullopt;
        if (!ref.has_value()) {
          checks.Op(outcome.ok(), false,
                    outcome.ok() ? "producer answered by value"
                                 : "producer: " + outcome.status().ToString());
          resolved += kConsumersPerProducer;  // nothing to consume
          continue;
        }
        refs.push_back(*ref);
        consumers_left[tag] = kConsumersPerProducer;
        for (int c = 0; c < kConsumersPerProducer; ++c) {
          const std::size_t consumer_tag = kProducers + consumers.size();
          consumer_of.push_back(static_cast<int>(tag));
          const CallSpec consume{kLibrary, kConsumeFn,
                                 Value::List({outcome->value}),
                                 expected[tag]};
          consumers.push_back(Submit(manager, consume, root, op, probe));
          NotifyOn(consumers.back(), queue, consumer_tag);
        }
      } else {
        const std::size_t index = tag - kProducers;
        const int producer = consumer_of[index];
        const auto outcome = consumers[index]->Wait();
        const bool matched =
            CheckAnswer(outcome, expected[producer], checks, "consumer");
        checks.Invariant(consumers[index]->resolutions() == 1,
                         "future resolved more than once");
        consumer_error[producer] |= !outcome.ok();
        payload_wrong[producer] |= outcome.ok() && !matched;
        if (--consumers_left[producer] == 0)
          checks.Op(!consumer_error[producer], !payload_wrong[producer],
                    "producer payload");
      }
    }
    done.clear();
  }
  for (const auto& ref : refs) {
    double release_s = 0.0;
    vl::Status released = Timed(
        "ReleaseRef", root, op, [&] { return manager.ReleaseRef(ref); },
        &release_s);
    checks.Invariant(released.ok(), "ReleaseRef: " + released.ToString());
    if (probe != nullptr) probe->release_ref_s.Add(release_s);
  }
  round.seconds = NowS() - start;
  round.cpu_s = ProcessCpuS() - cpu0;
  Spans().Record("round", root, 0, op, start, start + round.seconds);
  round.ok = refs.size() == kProducers;
  return round;
}

std::uint64_t RelayedResultBytes(vl::core::Manager& manager) {
  std::uint64_t bytes = 0;
  auto status = manager.QueryStatus();
  if (status.ok())
    for (const auto& worker : status->workers)
      bytes += worker.relayed_result_bytes;
  return bytes;
}

}  // namespace

PassResult RunDagRefs(const Options& options, double seconds, Checks& checks,
                      LayerProbe* probe) {
  PassResult result;
  result.tail_q = 0.9;
  InputStream inputs(options.seed, 4);
  auto ping = [&]() {
    const std::int64_t x = inputs.NextArg();
    return CallSpec{kLibrary, kHotFn, Value(x),
                    checks.Expect(HotAnswer(x))};
  };
  std::uint64_t op = 0;
  for (int r = 0; r < kRounds; ++r) {
    const double setup_start = NowS();
    ClusterConfig config;
    config.ref_results_min_bytes = kRefMinBytes;
    auto cluster = Cluster::Start(config);
    if (!cluster.ok()) {
      checks.Op(false, false, "cluster: " + cluster.status().ToString());
      return result;
    }
    vl::core::Manager& manager = (*cluster)->manager();
    vl::core::LibraryOptions library;
    library.slots = 4;
    vl::Status installed =
        CreateAndInstall(manager, probe, kLibrary,
                         {kProduceFn, kConsumeFn, kHotFn}, "", Value(),
                         nullptr, library, {}, 0);
    if (!installed.ok()) {
      checks.Op(false, false, "install: " + installed.ToString());
      return result;
    }
    ColdStartCall(manager, checks, probe, ping(), NowS());
    // Warm-up rounds until the library runs on every worker.
    for (int warm = 0; warm < 20; ++warm) {
      RunRound(manager, inputs, checks, nullptr, ++op);
      std::size_t hosting = 0;
      for (const auto& [worker, names] : HostedLibraries(manager))
        hosting += names.empty() ? 0 : 1;
      if (hosting == (*cluster)->workers()) break;
    }
    result.setup_s.Add(NowS() - setup_start);

    RunSerialPhase(manager, checks, kSerialCalls, ping, result, probe);

    if (probe != nullptr) probe->BeginTimed(**cluster);
    const std::uint64_t relayed_before = RelayedResultBytes(manager);
    const double deadline = NowS() + seconds / kRounds;
    std::uint64_t rounds = 0;
    double elapsed = 0.0;
    double cpu_s = 0.0;
    Samples latencies;
    std::vector<WindowFigures> windows;
    while (NowS() < deadline) {
      const RoundResult round = RunRound(manager, inputs, checks, probe, ++op);
      if (!round.ok) break;
      latencies.Add(round.seconds);
      windows.push_back({round.seconds, round.cpu_s / kCallsPerRound});
      cpu_s += round.cpu_s;
      elapsed += round.seconds;
      ++rounds;
    }
    const std::uint64_t relayed = RelayedResultBytes(manager) - relayed_before;
    if (probe != nullptr)
      probe->EndTimed(**cluster,
                      rounds * kCallsPerRound, rounds);
    checks.Invariant(rounds > 0 && relayed / rounds < kPayloadBytes,
                     "a round relayed a payload's worth through the manager");
    result.AddRound(latencies, rounds, rounds * kCallsPerRound, elapsed, cpu_s,
                    windows);
    const auto report = ExpectQuiescent(manager, checks);
    checks.Invariant(report.refs_tracked == 0, "refs still tracked at the end");
    (*cluster)->Stop();
  }
  char line[160];
  result.figures.push_back("round_ms " + result.op_s.Describe(1e3, "ms"));
  std::snprintf(line, sizeof(line), "edge_mb_per_s %.1f MB/s",
                result.OpsPerS() * kProducers * kConsumersPerProducer *
                    kPayloadBytes / 1e6);
  result.figures.push_back(line);
  result.figures.push_back("rtt_us " + result.rtt_s.Describe(1e6, "us"));
  return result;
}

}  // namespace pb
