// The four workloads.  Each runs whole rounds on fresh clusters: set up
// (timed as setup_s), a serial phase of one-outstanding calls (rtt), then
// its timed operations, cut into windows, then a quiescence audit and
// teardown.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"

namespace pb {

/// Window length of the closed-loop workloads' timed phases.
inline constexpr double kWindowS = 0.1;

/// Pooled operation samples kept per pass (a reservoir beyond this).
inline constexpr std::size_t kPooledSamples = 1u << 18;

/// What one pass of a workload measured.
struct PassResult {
  Samples setup_s;
  /// Pooled over rounds: a call, a rollout or a round.
  Samples op_s{kPooledSamples};
  Samples rtt_s;  // serial round trips (one call outstanding)
  double tail_q = 0.99;
  /// Every window of every round's timed phase.
  std::vector<WindowFigures> windows;
  std::uint64_t ops = 0;    // operations completed in timed phases
  std::uint64_t calls = 0;  // invocations completed in timed phases
  double elapsed_s = 0.0;   // wall time of the timed phases
  double cpu_s = 0.0;       // process CPU over the timed phases
  /// Figures under the workload's own metric names (calls_per_s, ...).
  std::vector<std::string> figures;

  /// Folds one round's timed phase in.
  void AddRound(const Samples& latencies, std::uint64_t round_ops,
                std::uint64_t round_calls, double round_elapsed_s,
                double round_cpu_s,
                const std::vector<WindowFigures>& round_windows);
  double OpsPerS() const { return elapsed_s > 0 ? ops / elapsed_s : 0.0; }
};

/// `probe` is null on untraced passes.
using WorkloadFn = PassResult (*)(const Options& options, double seconds,
                                  Checks& checks, LayerProbe* probe);

PassResult RunInvokeHot(const Options&, double, Checks&, LayerProbe*);
PassResult RunContextChurn(const Options&, double, Checks&, LayerProbe*);
PassResult RunContextRollout(const Options&, double, Checks&, LayerProbe*);
PassResult RunDagRefs(const Options&, double, Checks&, LayerProbe*);

// --- helpers shared by the workloads ---------------------------------------

/// Deterministic stream of 64-bit inputs derived from the seed.
class InputStream {
 public:
  InputStream(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t Next();
  /// A non-negative integer argument.
  std::int64_t NextArg() { return static_cast<std::int64_t>(Next() >> 2); }
  /// Uniform in [0, 1).
  double NextUnit() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Serial phase: `count` calls, one outstanding; samples land in
/// `result.rtt_s`, and the traced pass splits them by program phase.
void RunSerialPhase(vl::core::Manager& manager, Checks& checks,
                    std::size_t count, const std::function<CallSpec()>& next,
                    PassResult& result, LayerProbe* probe);

/// SubmitCall under a benchmark span; the time spent inside it lands in
/// the probe.
vl::core::FuturePtr Submit(vl::core::Manager& manager, const CallSpec& call,
                           std::uint64_t parent, std::uint64_t op,
                           LayerProbe* probe);

/// Creates and installs a library, timing both calls into the probe.
vl::Status CreateAndInstall(vl::core::Manager& manager, LayerProbe* probe,
                            const std::string& name,
                            const std::vector<std::string>& functions,
                            const std::string& setup, const Value& setup_args,
                            const vl::poncho::Analyzer* analyzer,
                            const vl::core::LibraryOptions& options,
                            const std::vector<vl::storage::FileDecl>& inputs,
                            std::uint64_t op);

/// One call whose answer is timed from `since_s` (e.g. InstallLibrary) to
/// its resolution: the cold start, recorded into the probe.
void ColdStartCall(vl::core::Manager& manager, Checks& checks,
                   LayerProbe* probe, const CallSpec& call, double since_s);

/// A quarter of the default worker shape: at most 16 instances on 4 workers.
vl::core::Resources QuarterWorker();

}  // namespace pb
