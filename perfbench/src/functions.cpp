#include "functions.hpp"

#include <cstring>
#include <memory>

namespace pb {

using vinelet::Result;
using vinelet::Status;
using vinelet::serde::ContextHandle;
using vinelet::serde::FunctionContext;
using vinelet::serde::InvocationEnv;
using vinelet::serde::Value;

namespace {

std::uint64_t WordAt(std::span<const std::uint8_t> bytes, std::size_t index) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes.data() + index * 8, 8);
  return word;
}

/// A retained blob (a context table or a model) plus its digest.
class BlobContext final : public FunctionContext {
 public:
  BlobContext(Blob blob, std::uint64_t digest)
      : blob_(std::move(blob)), digest_(digest) {}
  std::uint64_t MemoryBytes() const override { return blob_.size(); }
  const Blob& blob() const { return blob_; }
  std::uint64_t digest() const { return digest_; }

 private:
  Blob blob_;
  std::uint64_t digest_;
};

Result<ContextHandle> LoadBlobContext(const Value& args,
                                      const InvocationEnv& env,
                                      bool with_digest) {
  if (args.type() != Value::Type::kString)
    return vinelet::InvalidArgumentError("setup expects the input file name");
  if (!env.HasFile(args.AsString()))
    return vinelet::NotFoundError("input not staged: " + args.AsString());
  const Blob& blob = env.File(args.AsString());
  if (blob.size() == 0 || blob.size() % 8 != 0)
    return vinelet::InvalidArgumentError("input is not word aligned");
  const std::uint64_t digest = with_digest ? DigestWords(blob.span()) : 0;
  return ContextHandle(std::make_shared<BlobContext>(blob, digest));
}

Result<const BlobContext*> ContextOf(const InvocationEnv& env) {
  const auto* ctx = dynamic_cast<const BlobContext*>(env.context);
  if (ctx == nullptr)
    return vinelet::FailedPreconditionError("no retained context");
  return ctx;
}

Result<std::int64_t> IntArg(const Value& args) {
  if (args.type() != Value::Type::kInt)
    return vinelet::InvalidArgumentError("expected an integer argument");
  return args.AsInt();
}

}  // namespace

std::vector<std::string> RolloutImports() { return {"numpy", "h5py"}; }

const vinelet::poncho::Analyzer& RolloutAnalyzer() {
  static const vinelet::poncho::Analyzer analyzer(
      vinelet::poncho::PackageCatalog::SyntheticMlCatalog(0.01));
  return analyzer;
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Blob MakeWords(std::uint64_t seed, std::size_t bytes) {
  std::vector<std::uint8_t> data(bytes);
  std::uint64_t state = Mix64(seed);
  for (std::size_t off = 0; off + 8 <= bytes; off += 8) {
    state = Mix64(state);
    std::memcpy(data.data() + off, &state, 8);
  }
  return Blob(std::move(data));
}

std::uint64_t DigestWords(std::span<const std::uint8_t> bytes) {
  // Four independent lanes keep the loop from serialising on one multiply.
  std::uint64_t lanes[4] = {1, 2, 3, 4};
  const std::size_t words = bytes.size() / 8;
  for (std::size_t i = 0; i < words; ++i)
    lanes[i & 3] = (lanes[i & 3] ^ WordAt(bytes, i)) * 0x100000001B3ull;
  return Mix64(lanes[0] ^ Mix64(lanes[1] ^ Mix64(lanes[2] ^ Mix64(lanes[3]))));
}

std::int64_t HotAnswer(std::int64_t x) {
  const auto u = static_cast<std::uint64_t>(x);
  return static_cast<std::int64_t>((u * 0x9E3779B97F4A7C15ull) ^ (u >> 7));
}

std::int64_t TableAnswer(std::span<const std::uint8_t> table, std::int64_t x) {
  const std::size_t words = table.size() / 8;
  std::uint64_t sum = 0;
  for (std::uint64_t k = 0; k < 16; ++k)
    sum += WordAt(table, Mix64(static_cast<std::uint64_t>(x) + k) % words);
  return static_cast<std::int64_t>(sum);
}

std::int64_t ModelAnswer(std::span<const std::uint8_t> model,
                         std::uint64_t digest, std::int64_t x) {
  const auto u = static_cast<std::uint64_t>(x);
  return static_cast<std::int64_t>(digest ^ Mix64(u) ^
                                   WordAt(model, u % (model.size() / 8)));
}

std::int64_t ConsumeAnswer(std::span<const std::uint8_t> payload) {
  return static_cast<std::int64_t>(DigestWords(payload));
}

Status RegisterBenchFunctions(vinelet::serde::FunctionRegistry& registry) {
  using vinelet::serde::ContextSetupDef;
  using vinelet::serde::FunctionDef;

  auto hot = [](const Value& args, const InvocationEnv&) -> Result<Value> {
    auto x = IntArg(args);
    if (!x.ok()) return x.status();
    return Value(HotAnswer(*x));
  };
  VINELET_RETURN_IF_ERROR(registry.RegisterFunction({kHotFn, hot, "", {}}));

  VINELET_RETURN_IF_ERROR(registry.RegisterSetup(
      {kTableSetup,
       [](const Value& args, const InvocationEnv& env) {
         return LoadBlobContext(args, env, /*with_digest=*/false);
       },
       {}}));
  VINELET_RETURN_IF_ERROR(registry.RegisterFunction(
      {kTableFn,
       [](const Value& args, const InvocationEnv& env) -> Result<Value> {
         auto x = IntArg(args);
         if (!x.ok()) return x.status();
         auto ctx = ContextOf(env);
         if (!ctx.ok()) return ctx.status();
         return Value(TableAnswer((*ctx)->blob().span(), *x));
       },
       kTableSetup,
       {}}));

  VINELET_RETURN_IF_ERROR(registry.RegisterSetup(
      {kModelSetup,
       [](const Value& args, const InvocationEnv& env) {
         return LoadBlobContext(args, env, /*with_digest=*/true);
       },
       RolloutImports()}));
  VINELET_RETURN_IF_ERROR(registry.RegisterFunction(
      {kModelFn,
       [](const Value& args, const InvocationEnv& env) -> Result<Value> {
         auto x = IntArg(args);
         if (!x.ok()) return x.status();
         auto ctx = ContextOf(env);
         if (!ctx.ok()) return ctx.status();
         return Value(
             ModelAnswer((*ctx)->blob().span(), (*ctx)->digest(), *x));
       },
       kModelSetup,
       RolloutImports()}));

  VINELET_RETURN_IF_ERROR(registry.RegisterFunction(
      {kProduceFn,
       [](const Value& args, const InvocationEnv&) -> Result<Value> {
         if (args.type() != Value::Type::kList || args.AsList().size() != 2)
           return vinelet::InvalidArgumentError("expected [seed, bytes]");
         const Value& seed = args.AsList()[0];
         const Value& bytes = args.AsList()[1];
         if (seed.type() != Value::Type::kInt ||
             bytes.type() != Value::Type::kInt || bytes.AsInt() <= 0)
           return vinelet::InvalidArgumentError("expected [seed, bytes]");
         return Value(MakeWords(static_cast<std::uint64_t>(seed.AsInt()),
                                static_cast<std::size_t>(bytes.AsInt())));
       },
       "",
       {}}));
  VINELET_RETURN_IF_ERROR(registry.RegisterFunction(
      {kConsumeFn,
       [](const Value& args, const InvocationEnv&) -> Result<Value> {
         if (args.type() != Value::Type::kList || args.AsList().size() != 1 ||
             args.AsList()[0].type() != Value::Type::kBytes)
           return vinelet::InvalidArgumentError("expected [payload]");
         return Value(ConsumeAnswer(args.AsList()[0].AsBytes().span()));
       },
       "",
       {}}));
  return Status::Ok();
}

}  // namespace pb
