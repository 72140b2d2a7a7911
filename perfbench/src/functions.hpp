// Bench-owned functions and the benchmark's own reference computations.
//
// Every function the benchmark runs through the runtime is registered here,
// next to the closed form the benchmark uses to check its answer.  The
// reference side never calls into the runtime: it recomputes from inputs
// the benchmark generated itself, so a call served from the wrong context,
// a stale blob, or a corrupted payload fails its check.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "poncho/analyzer.hpp"
#include "serde/function_registry.hpp"

namespace pb {

using vinelet::Blob;

// Names of the registered functions and context setups.
inline constexpr const char* kHotFn = "pb_hot";
inline constexpr const char* kTableSetup = "pb_table_setup";
inline constexpr const char* kTableFn = "pb_table_lookup";
inline constexpr const char* kModelSetup = "pb_model_setup";
inline constexpr const char* kModelFn = "pb_model_probe";
inline constexpr const char* kProduceFn = "pb_produce";
inline constexpr const char* kConsumeFn = "pb_consume";

/// Imports declared on the rollout functions: the poncho analyzer resolves
/// them into the packed environment of every rollout library.
std::vector<std::string> RolloutImports();

/// The discover step's analyzer: a scaled-down synthetic ML package
/// channel, shared by every workload that packs an environment.
const vinelet::poncho::Analyzer& RolloutAnalyzer();

/// Registers every function above into `registry`.
vinelet::Status RegisterBenchFunctions(vinelet::serde::FunctionRegistry& registry);

/// SplitMix64 step: the single source of pseudo-randomness for inputs.
std::uint64_t Mix64(std::uint64_t x);

/// `bytes` (a multiple of 8) of deterministic data derived from `seed`.
Blob MakeWords(std::uint64_t seed, std::size_t bytes);

/// Order-dependent 64-bit digest of a word-aligned blob.
std::uint64_t DigestWords(std::span<const std::uint8_t> bytes);

// --- reference answers ------------------------------------------------------

/// pb_hot(x): a closed form of the argument alone.
std::int64_t HotAnswer(std::int64_t x);

/// pb_table_lookup(x) over a library's context table.
std::int64_t TableAnswer(std::span<const std::uint8_t> table, std::int64_t x);

/// pb_model_probe(x) for a model blob whose digest is `digest`.
std::int64_t ModelAnswer(std::span<const std::uint8_t> model,
                         std::uint64_t digest, std::int64_t x);

/// pb_consume over a producer payload.
std::int64_t ConsumeAnswer(std::span<const std::uint8_t> payload);

}  // namespace pb
