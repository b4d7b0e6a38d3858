// Session-freeze inference compiler tests (docs/COMPILER.md): bit-identity
// of served output against the interpreted oracle (an MsdMixer restored from
// the same checkpoint) across task heads, thread counts, every batch size of
// the one per-session plan, and scaler presence; row-prefix replay and the
// refusal of forwards that are not batch-outer; arena lifetime edge cases
// (in-place aliasing, zero-numel intermediates, max_batch=1 degenerate
// plans); region disjointness under overlapping lifetimes; and the
// zero-pool-traffic steady-state contract.
#include "serve/plan.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "serve/session.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "plan_test_" + std::to_string(::getpid()) +
         "_" + name;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

MsdMixerConfig SmallConfig(TaskType task) {
  MsdMixerConfig config;
  config.input_length = 32;
  config.channels = 2;
  config.patch_sizes = {8, 4, 1};
  config.model_dim = 8;
  config.hidden_dim = 16;
  config.drop_path = 0.0f;
  config.task = task;
  config.horizon = 8;
  config.num_classes = 3;
  return config;
}

StandardScaler FittedScaler(int64_t channels) {
  Rng rng(99);
  StandardScaler scaler;
  scaler.Fit(Tensor::RandNormal({channels, 64}, 1.5f, 2.0f, rng));
  return scaler;
}

// A session and its interpreted oracle: an MsdMixer restored from the same
// checkpoint into differently initialized weights, so the oracle only
// matches if the restore really happened.
struct SessionAndOracle {
  std::unique_ptr<serve::InferenceSession> session;
  std::unique_ptr<MsdMixer> oracle;
  StandardScaler scaler;
};

SessionAndOracle MakeSessionAndOracle(TaskType task, int64_t max_batch,
                                      bool with_scaler,
                                      const std::string& tag) {
  MsdMixerConfig config = SmallConfig(task);
  Rng rng(17);
  MsdMixer mixer(config, rng);
  const std::string path = TempPath("plan_" + tag + ".msdckpt");
  EXPECT_TRUE(SaveCheckpoint(mixer, path).ok());
  SessionAndOracle out;
  serve::InferenceSessionConfig sc;
  sc.model = config;
  if (with_scaler) sc.scaler = FittedScaler(config.channels);
  sc.max_batch = max_batch;
  out.scaler = sc.scaler;
  auto session = serve::InferenceSession::Create(sc, path);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  out.session = std::move(session).value();
  Rng other(4242);
  out.oracle = std::make_unique<MsdMixer>(config, other);
  EXPECT_TRUE(LoadCheckpoint(*out.oracle, path).ok());
  out.oracle->SetTraining(false);
  std::remove(path.c_str());
  return out;
}

std::unique_ptr<serve::InferenceSession> MakeSession(
    TaskType task, int64_t max_batch = 4, bool with_scaler = true,
    const std::string& tag = "s") {
  return MakeSessionAndOracle(task, max_batch, with_scaler, tag).session;
}

// The reply chain every plan freezes, run through the interpreter: scale,
// forward the module graph, and map forecasts back to original units.
Tensor Interpreted(const SessionAndOracle& s, const Tensor& batch) {
  NoGradGuard guard;
  const Tensor scaled = s.scaler.fitted() ? s.scaler.Transform(batch) : batch;
  Tensor out = s.oracle->Run(Variable(scaled)).prediction.value();
  if (s.oracle->config().task == TaskType::kForecast && s.scaler.fitted()) {
    out = s.scaler.InverseTransform(out);
  }
  return out;
}

Tensor RandomBatch(uint64_t seed, int64_t b) {
  Rng rng(seed);
  return Tensor::RandNormal({b, 2, 32}, 0.0f, 1.0f, rng);
}

// ---- Differential test against the interpreter ------------------------------

// The hard contract: served output (PredictBatch, and AnomalyScores for
// reconstruction) is memcmp-identical to the interpreted forward at every
// batch size 1..max_batch, for MSD_THREADS 1 and 4 — including the
// degenerate max_batch=1 session. Compile() validates only max_batch rows
// and one row, so this sweep is the check on the row prefixes in between.
void ExpectMatchesInterpreter(TaskType task, bool with_scaler) {
  for (int64_t max_batch : {int64_t{1}, int64_t{4}}) {
    SCOPED_TRACE(::testing::Message()
                 << "task " << static_cast<int>(task) << ", max_batch "
                 << max_batch);
    const SessionAndOracle s =
        MakeSessionAndOracle(task, max_batch, with_scaler, "diff");
    for (int64_t b = 1; b <= max_batch; ++b) {
      const Tensor batch = RandomBatch(7 + static_cast<uint64_t>(b), b);
      const Tensor want = Interpreted(s, batch);
      const Tensor scaled =
          s.scaler.fitted() ? s.scaler.Transform(batch) : batch;
      for (int64_t threads : {int64_t{1}, int64_t{4}}) {
        runtime::ScopedThreads scoped(threads);
        auto got = s.session->PredictBatch(batch);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(BitIdentical(got.value(), want))
            << "batch " << b << ", " << threads << " threads";
        if (task != TaskType::kReconstruction) continue;
        auto scores = s.session->AnomalyScores(batch);
        ASSERT_TRUE(scores.ok()) << scores.status().ToString();
        EXPECT_TRUE(BitIdentical(
            scores.value(),
            Mean(Square(Sub(want, scaled)), {1, 2}, /*keepdim=*/false)))
            << "anomaly scores, batch " << b << ", " << threads << " threads";
      }
    }
  }
}

constexpr TaskType kAllTasks[] = {TaskType::kForecast,
                                  TaskType::kClassification,
                                  TaskType::kReconstruction};

TEST(PlanBitIdentityTest, MatchesInterpreterAcrossTasksThreadsAndBatches) {
  for (TaskType task : kAllTasks) {
    ExpectMatchesInterpreter(task, /*with_scaler=*/true);
  }
}

// Without a fitted scaler the planned chain is the bare module graph; the
// contract must hold there too (no normalize/denormalize steps).
TEST(PlanBitIdentityTest, MatchesInterpreterWithoutScaler) {
  for (TaskType task : kAllTasks) {
    ExpectMatchesInterpreter(task, /*with_scaler=*/false);
  }
}

// ---- Plan structure ---------------------------------------------------------

TEST(PlanStructureTest, FusionAndInPlaceReuseFire) {
  // input_length 30 with patch sizes {8, 4, 1}: two scales pad (30 -> 32),
  // so Unpatch emits a Slice ahead of the residual subtract, next to the
  // scaler's normalize / denormalize chains.
  MsdMixerConfig config = SmallConfig(TaskType::kForecast);
  config.input_length = 30;
  Rng rng(17);
  MsdMixer mixer(config, rng);
  const std::string path = TempPath("plan_stats.msdckpt");
  ASSERT_TRUE(SaveCheckpoint(mixer, path).ok());
  serve::InferenceSessionConfig sc;
  sc.model = config;
  sc.scaler = FittedScaler(config.channels);
  sc.max_batch = 2;
  auto session_or = serve::InferenceSession::Create(sc, path);
  std::remove(path.c_str());
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  auto session = std::move(session_or).value();
  const serve::CompiledPlan* plan = &session->plan();
  const serve::PlanStats& stats = plan->stats();
  // Each MLP block's fc1 and fc2 (six blocks per decomposition layer) merge
  // into one step; every other traced op is its own step.
  const int64_t mlp_blocks =
      6 * static_cast<int64_t>(config.patch_sizes.size());
  EXPECT_EQ(stats.num_fused, mlp_blocks) << plan->DebugString();
  EXPECT_EQ(stats.num_ops, stats.traced_ops - stats.num_fused)
      << plan->DebugString();
  // Each fused step names both Linears' module paths.
  {
    const std::string text = plan->DebugString();
    std::istringstream lines(text);
    int64_t labelled = 0;
    for (std::string line; std::getline(lines, line);) {
      if (line.find("/block/fc1 + ") != std::string::npos &&
          line.find("/block/fc2") != std::string::npos) {
        ++labelled;
      }
    }
    EXPECT_EQ(labelled, mlp_blocks) << text;
  }
  EXPECT_GT(stats.num_inplace, 0) << plan->DebugString();
  // Every Linear weight is a frozen rank-2 constant: all of them prepack.
  EXPECT_GT(stats.num_prepacked, 0) << plan->DebugString();
  // Aliasing must actually shrink the region count below one-per-op.
  EXPECT_LT(stats.num_regions, stats.num_ops);
  EXPECT_GT(stats.arena_bytes, 0);
}

// Two Linears in a row fuse only when the second is the sole reader of the
// first's output and takes it whole; otherwise both stay steps of their own.
// Every plan still memcmps the interpreter at every row prefix.
TEST(PlanStructureTest, LinearPairsFuseOnlyWhenTheHiddenHasOneReader) {
  Rng rng(12);
  const Tensor x = Tensor::RandNormal({3, 5, 6}, 0.0f, 1.0f, rng);
  const Tensor w1 = Tensor::RandNormal({6, 16}, 0.0f, 1.0f, rng);
  const Tensor b1 = Tensor::RandNormal({16}, 0.0f, 1.0f, rng);
  const Tensor w2 = Tensor::RandNormal({16, 6}, 0.0f, 0.5f, rng);
  const Tensor b2 = Tensor::RandNormal({6}, 0.0f, 1.0f, rng);
  auto fc1 = [&](const Tensor& in) {
    return MatMulEx(in, w1, b1, gemm::Activation::kGelu);
  };
  auto fc2 = [&](const Tensor& hidden) {
    return MatMulEx(hidden, w2, b2, gemm::Activation::kIdentity);
  };
  struct Case {
    const char* name;
    serve::CompiledPlan::ForwardFn fn;
    int64_t fused;
  };
  const Case cases[] = {
      {"MLP block", [&](const Tensor& in) { return Add(in, fc2(fc1(in))); },
       1},
      // The hidden also feeds a residual-style side branch.
      {"second reader",
       [&](const Tensor& in) {
         const Tensor hidden = fc1(in);
         return Add(fc2(hidden), Sum(hidden, {2}, /*keepdim=*/true));
       },
       0},
      // The hidden is what the plan returns; fc2's product is dropped.
      {"plan output",
       [&](const Tensor& in) {
         const Tensor hidden = fc1(in);
         const Tensor unused = fc2(hidden);
         return hidden;
       },
       0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string why_not;
    auto plan = serve::CompiledPlan::Compile(c.fn, x, &why_not);
    ASSERT_NE(plan, nullptr) << why_not;
    EXPECT_EQ(plan->stats().num_fused, c.fused) << plan->DebugString();
    EXPECT_EQ(plan->stats().num_ops, plan->stats().traced_ops - c.fused);
    for (int64_t r = 3; r >= 1; --r) {
      const Tensor prefix = Slice(x, 0, 0, r);
      EXPECT_TRUE(BitIdentical(plan->Execute(prefix), c.fn(prefix)))
          << r << " rows";
    }
  }

  // An int8 plan keeps both GEMMs as steps of their own: the quantization
  // pass calibrates, and adopts, each one separately.
  serve::CompileOptions options;
  options.quantize = true;
  std::string why_not;
  auto quantized =
      serve::CompiledPlan::Compile(cases[0].fn, x, &why_not, options);
  ASSERT_NE(quantized, nullptr) << why_not;
  EXPECT_EQ(quantized->stats().num_fused, 0) << quantized->DebugString();
  EXPECT_EQ(quantized->stats().num_ops, quantized->stats().traced_ops);
  EXPECT_EQ(quantized->stats().num_quantized, 2) << quantized->DebugString();
  EXPECT_EQ(quantized->stats().num_quant_fallbacks, 0);
}

TEST(PlanStructureTest, RegionsWithOverlappingLifetimesAreDisjoint) {
  // Regions are placed at max_batch rows; every smaller batch replays a
  // prefix of each, so disjointness here covers all row counts.
  auto session = MakeSession(TaskType::kForecast, /*max_batch=*/3,
                             /*with_scaler=*/true, "regions");
  const serve::CompiledPlan& plan = session->plan();
  const std::vector<serve::RegionInfo> regions = plan.Regions();
  ASSERT_FALSE(regions.empty());
  int64_t arena_end = 0;
  for (const serve::RegionInfo& r : regions) {
    EXPECT_GE(r.offset, 0);
    EXPECT_EQ(r.offset % arena::kAlignment, 0);
    arena_end = std::max(arena_end, r.offset + r.bytes);
  }
  EXPECT_EQ(arena_end, plan.stats().arena_bytes);
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = i + 1; j < regions.size(); ++j) {
      const serve::RegionInfo& a = regions[i];
      const serve::RegionInfo& c = regions[j];
      if (a.bytes == 0 || c.bytes == 0) continue;
      const bool lifetimes_overlap =
          a.first_def <= c.last_use && c.first_def <= a.last_use;
      if (!lifetimes_overlap) continue;
      const bool bytes_overlap =
          a.offset < c.offset + c.bytes && c.offset < a.offset + a.bytes;
      EXPECT_FALSE(bytes_overlap)
          << "regions " << i << "/" << j << " share bytes while both live";
    }
  }
}

// ---- Steady-state allocation contract ---------------------------------------

TEST(PlanSteadyStateTest, PlannedPathDoesNotTouchTheTensorPool) {
  auto session = MakeSession(TaskType::kForecast, /*max_batch=*/2,
                             /*with_scaler=*/true, "pool");
  // Full batches and one-row prefixes alternate: both replay prebuilt views.
  const Tensor batches[] = {RandomBatch(31, 2), RandomBatch(32, 1)};
  // One call settles the result-block free list.
  ASSERT_TRUE(session->PredictBatch(batches[0]).ok());
  obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("tensor/pool_hits");
  obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter("tensor/pool_misses");
  obs::Counter& plan_ops =
      obs::MetricsRegistry::Global().GetCounter("serve/plan_ops");
  const int64_t hits0 = hits.value();
  const int64_t misses0 = misses.value();
  const int64_t ops0 = plan_ops.value();
  constexpr int kCalls = 16;
  for (int i = 0; i < kCalls; ++i) {
    auto out = session->PredictBatch(batches[i % 2]);
    ASSERT_TRUE(out.ok());
  }
  EXPECT_EQ(hits.value(), hits0) << "planned path drew from the tensor pool";
  EXPECT_EQ(misses.value(), misses0) << "planned path allocated via the pool";
  EXPECT_EQ(plan_ops.value() - ops0,
            kCalls * session->plan().stats().num_ops);
}

// ---- Compile() edge cases ---------------------------------------------------

// A diamond of elementwise ops: the planner's in-place pass must not alias
// the output of Add(t, t) over t while the later Sub still reads t.
TEST(PlanCompileTest, AliasedResidualReuseStaysCorrect) {
  Rng rng(5);
  const Tensor x = Tensor::RandNormal({3, 8}, 0.0f, 1.0f, rng);
  auto fn = [](const Tensor& in) {
    Tensor t = Relu(Add(in, in));
    Tensor u = Mul(t, t);      // may alias onto t only if t were dead — it
    Tensor v = Sub(u, t);      // is not: this op still reads it
    return Add(v, in);         // and `in` must never be overwritten
  };
  std::string why_not;
  auto plan = serve::CompiledPlan::Compile(fn, x, &why_not);
  ASSERT_NE(plan, nullptr) << why_not;
  const Tensor expected = fn(x);
  for (int round = 0; round < 3; ++round) {
    Tensor got = plan->Execute(x);
    EXPECT_TRUE(BitIdentical(got, expected)) << "round " << round;
  }
  EXPECT_GT(plan->stats().num_inplace, 0) << plan->DebugString();
}

// Zero-numel intermediates get zero-byte regions and must flow through
// slicing, padding, and elementwise kernels without faulting.
TEST(PlanCompileTest, ZeroLengthIntermediates) {
  Rng rng(6);
  const Tensor x = Tensor::RandNormal({2, 6}, 0.0f, 1.0f, rng);
  auto fn = [](const Tensor& in) {
    Tensor empty = Slice(in, 1, 0, 0);            // [2, 0]
    Tensor doubled = Add(empty, empty);           // zero-numel elementwise
    Tensor refilled = Pad(doubled, 1, 0, 6, 2.5f);  // [2, 6] of pad value
    return Mul(refilled, in);
  };
  std::string why_not;
  auto plan = serve::CompiledPlan::Compile(fn, x, &why_not);
  ASSERT_NE(plan, nullptr) << why_not;
  EXPECT_TRUE(BitIdentical(plan->Execute(x), fn(x)));
  bool saw_zero_byte_region = false;
  for (const serve::RegionInfo& r : plan->Regions()) {
    if (r.bytes == 0) saw_zero_byte_region = true;
  }
  EXPECT_TRUE(saw_zero_byte_region);
}

// One plan compiled at five rows replays every row prefix of its example
// bit-identically: reshapes that fold the row axis into the GEMM rows,
// constant broadcasts, and in-place elementwise steps all cut to r rows.
TEST(PlanCompileTest, ReplaysEveryRowPrefix) {
  Rng rng(9);
  const Tensor x = Tensor::RandNormal({5, 4, 6}, 0.0f, 1.0f, rng);
  const Tensor w = Tensor::RandNormal({6, 3}, 0.0f, 1.0f, rng);
  const Tensor bias = Tensor::RandNormal({4, 1}, 0.0f, 1.0f, rng);
  auto fn = [&](const Tensor& in) {
    const Tensor h = MatMul(in.Reshape({in.dim(0) * 4, 6}), w);
    return Add(Relu(h).Reshape({in.dim(0), 4, 3}), bias);
  };
  std::string why_not;
  auto plan = serve::CompiledPlan::Compile(fn, x, &why_not);
  ASSERT_NE(plan, nullptr) << why_not;
  for (int64_t r = 5; r >= 1; --r) {
    const Tensor prefix = Slice(x, 0, 0, r);
    EXPECT_TRUE(BitIdentical(plan->Execute(prefix), fn(prefix)))
        << r << " rows";
  }
}

// A forward that mixes rows cannot be replayed on a row prefix: Compile
// refuses it, naming the first op whose buffers are not batch-outer.
TEST(PlanCompileTest, RefusesForwardsThatAreNotBatchOuter) {
  Rng rng(10);
  const Tensor x = Tensor::RandNormal({3, 8}, 0.0f, 1.0f, rng);
  struct Case {
    const char* op;
    serve::CompiledPlan::ForwardFn fn;
  };
  const Case cases[] = {
      // Sums over the row axis.
      {"Sum",
       [](const Tensor& in) {
         return Mul(in, Sum(in, {0}, /*keepdim=*/true));
       }},
      // Moves the row axis inward.
      {"Permute", [](const Tensor& in) { return Permute(in, {1, 0}); }},
      // Scales by a constant that counts the rows.
      {"Mul",
       [](const Tensor& in) {
         return Mul(in, Tensor::Full({1}, static_cast<float>(in.dim(0))));
       }},
  };
  for (const Case& c : cases) {
    std::string why_not;
    auto plan = serve::CompiledPlan::Compile(c.fn, x, &why_not);
    EXPECT_EQ(plan, nullptr) << c.op;
    EXPECT_NE(why_not.find(std::string("op %0 ") + c.op), std::string::npos)
        << c.op << ": " << why_not;
  }
}

// Unsupported ops must poison the trace: Compile refuses with a reason
// instead of freezing a wrong schedule.
TEST(PlanCompileTest, UnsupportedOpRefusesWithReason) {
  Rng rng(7);
  const Tensor x = Tensor::RandNormal({2, 4}, 0.0f, 1.0f, rng);
  auto fn = [](const Tensor& in) { return Maximum(in, Neg(in)); };
  std::string why_not;
  auto plan = serve::CompiledPlan::Compile(fn, x, &why_not);
  EXPECT_EQ(plan, nullptr);
  EXPECT_NE(why_not.find("Maximum"), std::string::npos) << why_not;
}

// max_batch = 1: the degenerate one-row plan still plans and rejects
// anything larger (its output is in the differential test above).
TEST(PlanCompileTest, MaxBatchOneDegeneratePlan) {
  auto session = MakeSession(TaskType::kReconstruction, /*max_batch=*/1,
                             /*with_scaler=*/true, "b1");
  EXPECT_GT(session->plan().stats().num_ops, 0);
  EXPECT_TRUE(session->PredictBatch(RandomBatch(41, 1)).ok());
  EXPECT_FALSE(session->PredictBatch(RandomBatch(42, 2)).ok());
}

// Replies are exported out of the arena: they must stay stable after later
// Execute calls overwrite the arena, and may outlive the plan itself.
TEST(PlanCompileTest, RepliesSurviveArenaReuseAndPlanDestruction) {
  Rng rng(8);
  const Tensor x = Tensor::RandNormal({2, 5}, 0.0f, 1.0f, rng);
  const Tensor y = Tensor::RandNormal({2, 5}, 3.0f, 1.0f, rng);
  auto fn = [](const Tensor& in) { return Sqrt(Abs(Mul(in, in))); };
  auto plan = serve::CompiledPlan::Compile(fn, x);
  ASSERT_NE(plan, nullptr);
  Tensor first = plan->Execute(x);
  const Tensor snapshot = first.Clone();
  Tensor second = plan->Execute(y);
  EXPECT_TRUE(BitIdentical(first, snapshot)) << "arena reuse clobbered reply";
  plan.reset();
  EXPECT_TRUE(BitIdentical(first, snapshot)) << "reply died with the plan";
  EXPECT_TRUE(BitIdentical(second, fn(y)));
}

}  // namespace
}  // namespace msd
