#include "workloads.hpp"

#include "functions.hpp"

namespace pb {

void PassResult::AddRound(const Samples& latencies, std::uint64_t round_ops,
                          std::uint64_t round_calls, double round_elapsed_s,
                          double round_cpu_s,
                          const std::vector<WindowFigures>& round_windows) {
  windows.insert(windows.end(), round_windows.begin(), round_windows.end());
  op_s.Append(latencies);
  ops += round_ops;
  calls += round_calls;
  elapsed_s += round_elapsed_s;
  cpu_s += round_cpu_s;
}

InputStream::InputStream(std::uint64_t seed, std::uint64_t stream)
    : state_(Mix64(Mix64(seed) ^ (stream * 0xD1B54A32D192ED03ull))) {}

std::uint64_t InputStream::Next() {
  state_ = Mix64(state_);
  return state_;
}

void RunSerialPhase(vl::core::Manager& manager, Checks& checks,
                    std::size_t count, const std::function<CallSpec()>& next,
                    PassResult& result, LayerProbe* probe) {
  if (probe != nullptr) probe->BeginSerial();
  LoopOptions loop;
  loop.max_calls = count;
  loop.phase = "serial_call";
  loop.keep_intervals = probe != nullptr;
  LoopStats serial = RunClosedLoop(manager, checks, loop, next);
  result.rtt_s.Append(serial.latency_s);
  if (probe != nullptr) probe->EndSerial(serial.intervals);
}

vl::core::FuturePtr Submit(vl::core::Manager& manager, const CallSpec& call,
                           std::uint64_t parent, std::uint64_t op,
                           LayerProbe* probe) {
  double submit_s = 0.0;
  auto future = Timed(
      "SubmitCall", parent, op,
      [&] { return manager.SubmitCall(call.library, call.function, call.args); },
      &submit_s);
  if (probe != nullptr) probe->submit_s.Add(submit_s);
  return future;
}

vl::Status CreateAndInstall(vl::core::Manager& manager, LayerProbe* probe,
                            const std::string& name,
                            const std::vector<std::string>& functions,
                            const std::string& setup, const Value& setup_args,
                            const vl::poncho::Analyzer* analyzer,
                            const vl::core::LibraryOptions& options,
                            const std::vector<vl::storage::FileDecl>& inputs,
                            std::uint64_t op) {
  double create_s = 0.0;
  auto spec = Timed(
      "CreateLibraryFromFunctions", 0, op,
      [&] {
        return manager.CreateLibraryFromFunctions(name, functions, setup,
                                                  setup_args, analyzer,
                                                  options);
      },
      &create_s);
  if (!spec.ok()) return spec.status();
  if (probe != nullptr) probe->create_library_s.Add(create_s);
  for (const auto& decl : inputs) manager.AddLibraryInput(*spec, decl);
  return Timed("InstallLibrary", 0, op,
               [&] { return manager.InstallLibrary(std::move(*spec)); });
}

void ColdStartCall(vl::core::Manager& manager, Checks& checks,
                   LayerProbe* probe, const CallSpec& call, double since_s) {
  CallAndCheck(manager, checks, call);
  if (probe != nullptr) probe->coldstart_s.Add(NowS() - since_s);
}

vl::core::Resources QuarterWorker() {
  const vl::core::Resources whole{32, 64 * 1024, 64 * 1024};
  return {whole.cores / 4, whole.memory_mb / 4, whole.disk_mb / 4};
}

}  // namespace pb
