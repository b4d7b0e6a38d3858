// Regression tests for the MSD_DEBUG_CHECKS invariant layer (common/debug.h,
// docs/ANALYSIS.md): each tape-lint diagnostic is deliberately triggered and
// its message asserted, the fatal data guards are exercised as death tests,
// and a healthy training loop is shown to stay diagnostic-free. Tests that
// need the checks compiled in GTEST_SKIP when the build has them OFF, so the
// same binary is meaningful in every leg of tools/check.sh.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/debug.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "tensor/tensor.h"

namespace msd {
namespace {

Tensor RandTensor(Shape shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandUniform(std::move(shape), -1.0f, 1.0f, rng);
}

bool AnyContains(const std::vector<std::string>& messages,
                 const std::string& needle) {
  for (const std::string& m : messages) {
    if (m.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---- Helpers available regardless of the build flag ------------------------

TEST(DebugHelpers, FirstNonFinite) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float all_good[] = {0.0f, -1.5f, 3.0f};
  EXPECT_EQ(debug::FirstNonFinite(all_good, 3), -1);
  const float has_inf[] = {0.0f, inf, 3.0f};
  EXPECT_EQ(debug::FirstNonFinite(has_inf, 3), 1);
  const float has_nan[] = {nan, 1.0f};
  EXPECT_EQ(debug::FirstNonFinite(has_nan, 2), 0);
  EXPECT_EQ(debug::FirstNonFinite(nullptr, 0), -1);
}

TEST(DebugHelpers, RangesOverlap) {
  char buffer[16] = {};
  EXPECT_TRUE(debug::RangesOverlap(buffer, 8, buffer + 4, 8));
  EXPECT_TRUE(debug::RangesOverlap(buffer, 16, buffer + 4, 2));
  EXPECT_FALSE(debug::RangesOverlap(buffer, 4, buffer + 4, 4));
  EXPECT_FALSE(debug::RangesOverlap(buffer, 0, buffer, 16));
  EXPECT_FALSE(debug::RangesOverlap(buffer, 16, buffer, 0));
}

TEST(DebugHelpers, DiagnosticSinkRecordsAndDrains) {
  debug::TakeTapeDiagnostics();
  debug::EmitTapeDiagnostic("first");
  debug::EmitTapeDiagnostic("second");
  EXPECT_EQ(debug::TapeDiagnosticCount(), 2);
  const std::vector<std::string> drained = debug::TakeTapeDiagnostics();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], "first");
  EXPECT_EQ(drained[1], "second");
  EXPECT_EQ(debug::TapeDiagnosticCount(), 0);
}

TEST(DebugHelpers, DcheckCompiledOutWhenDisabled) {
  if (debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "debug checks are ON; MSD_DCHECK is live in this build";
  }
  // These would abort / fail if evaluated; when the flag is OFF they must
  // compile to dead code.
  MSD_DCHECK(false) << "never evaluated";
  MSD_DCHECK_EQ(1, 2) << "never evaluated";
  MSD_DEBUG_ONLY(FAIL() << "never run");
  SUCCEED();
}

// ---- Tape-lint diagnostics (need the checks compiled in) -------------------

TEST(TapeLint, DoubleBackwardReportsConsumedTape) {
  if (!debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "build has MSD_DEBUG_CHECKS=OFF";
  }
  debug::TakeTapeDiagnostics();
  Variable x(RandTensor({3}, 42), /*requires_grad=*/true);
  Variable loss = SumAll(Mul(x, x));
  loss.Backward();
  EXPECT_FALSE(
      AnyContains(debug::TakeTapeDiagnostics(), "already-consumed"))
      << "first Backward() must not be flagged";
  loss.Backward();
  EXPECT_TRUE(
      AnyContains(debug::TakeTapeDiagnostics(), "already-consumed tape"));
}

TEST(TapeLint, DroppedLeafReportedOnce) {
  if (!debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "build has MSD_DEBUG_CHECKS=OFF";
  }
  debug::TakeTapeDiagnostics();
  const Variable c(RandTensor({3}, 7));
  Variable a(RandTensor({3}, 8), /*requires_grad=*/true);
  Variable b(RandTensor({3}, 9), /*requires_grad=*/true);
  // b is consumed by a recorded op, but Detach() severs it from the loss.
  Variable orphaned = Mul(b, c);
  Variable loss = SumAll(Mul(Add(a, orphaned.Detach()), c));
  loss.Backward();
  std::vector<std::string> diagnostics = debug::TakeTapeDiagnostics();
  EXPECT_TRUE(AnyContains(diagnostics, "dropped from the graph"));
  EXPECT_EQ(diagnostics.size(), 1u) << "a trained fine; only b is dropped";
  EXPECT_TRUE(a.has_grad());
  EXPECT_FALSE(b.has_grad());

  // A second sweep must not re-report the same drop.
  Variable loss2 = SumAll(Mul(a, c));
  loss2.Backward();
  EXPECT_FALSE(
      AnyContains(debug::TakeTapeDiagnostics(), "dropped from the graph"));
}

TEST(TapeLint, BackwardUnderNoGradGuardReportsLeak) {
  if (!debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "build has MSD_DEBUG_CHECKS=OFF";
  }
  debug::TakeTapeDiagnostics();
  Variable x(RandTensor({3}, 17), /*requires_grad=*/true);
  Variable loss = SumAll(Mul(x, x));  // recorded before the guard
  {
    NoGradGuard guard;
    loss.Backward();
  }
  EXPECT_TRUE(AnyContains(debug::TakeTapeDiagnostics(),
                          "gradient recording is disabled"));
}

TEST(TapeLint, HealthyTrainingEmitsNoDiagnostics) {
  if (!debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "build has MSD_DEBUG_CHECKS=OFF";
  }
  debug::TakeTapeDiagnostics();
  Rng rng(2024);
  Linear model(4, 1, rng);
  const Variable input(RandTensor({8, 4}, 2025));
  const Variable target(RandTensor({8, 1}, 2026));
  for (int step = 0; step < 3; ++step) {
    Variable loss = MseLoss(model.Forward(input), target);
    loss.Backward();
    for (Variable& p : model.Parameters()) {
      ASSERT_TRUE(p.has_grad());
      float* v = p.mutable_value().data();
      const float* g = p.grad().data();
      for (int64_t i = 0; i < p.numel(); ++i) v[i] -= 0.05f * g[i];
      p.ZeroGrad();
    }
  }
  EXPECT_EQ(debug::TapeDiagnosticCount(), 0);
}

TEST(TapeLint, EvalUnderNoGradGuardIsClean) {
  if (!debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "build has MSD_DEBUG_CHECKS=OFF";
  }
  debug::TakeTapeDiagnostics();
  Rng rng(3030);
  Linear model(4, 2, rng);
  {
    NoGradGuard guard;
    const Variable out = model.Forward(Variable(RandTensor({5, 4}, 3031)));
    EXPECT_EQ(out.dim(1), 2);
  }
  // Consuming parameters under the guard records nothing, so nothing may be
  // flagged as dropped by a later healthy sweep.
  Variable loss = MseLoss(model.Forward(Variable(RandTensor({5, 4}, 3032))),
                          Variable(RandTensor({5, 2}, 3033)));
  loss.Backward();
  EXPECT_EQ(debug::TapeDiagnosticCount(), 0);
}

// ---- Fatal data guards (death tests) ---------------------------------------

using DebugChecksDeathTest = ::testing::Test;

TEST(DebugChecksDeathTest, NonFiniteOpOutputAborts) {
  if (!debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "build has MSD_DEBUG_CHECKS=OFF";
  }
  const Variable negative(Tensor({2}, {-1.0f, 1.0f}));
  EXPECT_DEATH(Log(negative), "non-finite value in op output");
}

TEST(DebugChecksDeathTest, NonFiniteGradientAborts) {
  if (!debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "build has MSD_DEBUG_CHECKS=OFF";
  }
  // sqrt is finite at 0 but its derivative is not: the forward value passes
  // the output guard and the backward sweep must trip the gradient guard.
  Variable x(Tensor({1}, {0.0f}), /*requires_grad=*/true);
  Variable loss = SumAll(Sqrt(x));
  EXPECT_DEATH(loss.Backward(), "non-finite gradient");
}

TEST(DebugChecksDeathTest, CopyFromAliasAborts) {
  if (!debug::kDebugChecksEnabled) {
    GTEST_SKIP() << "build has MSD_DEBUG_CHECKS=OFF";
  }
  Tensor t = RandTensor({2, 3}, 55);
  const Tensor reshaped = t.Reshape({3, 2});  // shares storage
  EXPECT_DEATH(t.CopyFrom(reshaped), "aliases destination");
}

}  // namespace
}  // namespace msd
