#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdlib>
#include <set>

#include "util/env.h"
#include "util/regression.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace cleaks {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (a() != b()) ++differences;
  }
  EXPECT_GT(differences, 45);
}

TEST(Rng, ForkIsIndependentOfParentStream) {
  Rng parent(7);
  Rng child1 = parent.fork(1);
  (void)parent();  // advancing the parent must not change future forks
  Rng parent2(7);
  Rng child2 = parent2.fork(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, ForksWithDifferentSaltsDiverge) {
  Rng parent(7);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  EXPECT_NE(a(), b());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformU64Bounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniform_u64(10, 20);
    EXPECT_GE(x, 10u);
    EXPECT_LE(x, 20u);
  }
  EXPECT_EQ(rng.uniform_u64(9, 9), 9u);
}

TEST(Rng, UniformI64HandlesNegativeRange) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto x = rng.uniform_i64(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.2);
}

TEST(Rng, HexStringFormat) {
  Rng rng(1);
  const auto hex = rng.hex_string(12);
  EXPECT_EQ(hex.size(), 12u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(Rng, Fnv1a64KnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

// ---------- RunningStats ----------

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
  EXPECT_NEAR(stats.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

// ---------- percentile / correlation / entropy ----------

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 25), 2.0);
}

TEST(Stats, PercentileEmptyAndClamped) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_EQ(percentile(one, -10), 7.0);
  EXPECT_EQ(percentile(one, 110), 7.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(pearson_correlation(a, b), 1.0, 1e-12);
  const std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {5, 5, 5, 5};
  EXPECT_EQ(pearson_correlation(a, b), 0.0);
}

TEST(Stats, BinnedEntropyConstantIsZero) {
  const std::vector<double> constant(50, 3.3);
  EXPECT_EQ(binned_entropy(constant, 16), 0.0);
}

TEST(Stats, BinnedEntropySpreadPositive) {
  std::vector<double> spread;
  for (int i = 0; i < 64; ++i) spread.push_back(i);
  EXPECT_GT(binned_entropy(spread, 16), 3.0);
}

TEST(Stats, RSquaredPerfectFit) {
  const std::vector<double> y = {1, 2, 3};
  EXPECT_DOUBLE_EQ(r_squared(y, y), 1.0);
}

// ---------- regression ----------

TEST(Regression, RecoversExactLinearModel) {
  // y = 3*x1 - 2*x2 + 5
  std::vector<std::vector<double>> features;
  std::vector<double> y;
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const double x1 = rng.uniform(0, 10);
    const double x2 = rng.uniform(0, 10);
    features.push_back({x1, x2, 1.0});
    y.push_back(3 * x1 - 2 * x2 + 5);
  }
  auto model = fit_ols(features, y);
  ASSERT_TRUE(model.is_ok());
  // Tolerance accommodates the tiny numerical-guard ridge term.
  EXPECT_NEAR(model.value().coefficients[0], 3.0, 1e-5);
  EXPECT_NEAR(model.value().coefficients[1], -2.0, 1e-5);
  EXPECT_NEAR(model.value().coefficients[2], 5.0, 1e-4);
  EXPECT_NEAR(model.value().r2, 1.0, 1e-9);
}

TEST(Regression, NoisyFitHasReasonableR2) {
  std::vector<std::vector<double>> features;
  std::vector<double> y;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 100);
    features.push_back({x, 1.0});
    y.push_back(2 * x + 1 + rng.gaussian(0, 1.0));
  }
  auto model = fit_ols(features, y);
  ASSERT_TRUE(model.is_ok());
  EXPECT_NEAR(model.value().coefficients[0], 2.0, 0.05);
  EXPECT_GT(model.value().r2, 0.99);
  EXPECT_NEAR(model.value().residual_std, 1.0, 0.25);
}

TEST(Regression, RejectsEmptyAndUnderdetermined) {
  EXPECT_FALSE(fit_ols({}, {}).is_ok());
  std::vector<std::vector<double>> features = {{1.0, 2.0}};
  std::vector<double> y = {1.0};
  EXPECT_FALSE(fit_ols(features, y).is_ok());  // 1 obs, 2 features
}

TEST(Regression, RejectsRaggedRows) {
  std::vector<std::vector<double>> features = {{1.0, 2.0}, {1.0}};
  std::vector<double> y = {1.0, 2.0};
  EXPECT_FALSE(fit_ols(features, y).is_ok());
}

TEST(Regression, CholeskyRejectsNonSpd) {
  Matrix m(2, 2);
  m.at(0, 0) = 0.0;
  m.at(1, 1) = -1.0;
  const std::vector<double> b = {1.0, 1.0};
  EXPECT_FALSE(cholesky_solve(m, b).is_ok());
}

TEST(Regression, CholeskySolvesSpdSystem) {
  // S = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2]
  Matrix s(2, 2);
  s.at(0, 0) = 4;
  s.at(0, 1) = 2;
  s.at(1, 0) = 2;
  s.at(1, 1) = 3;
  const std::vector<double> b = {10, 9};
  auto x = cholesky_solve(s, b);
  ASSERT_TRUE(x.is_ok());
  EXPECT_NEAR(x.value()[0], 1.5, 1e-12);
  EXPECT_NEAR(x.value()[1], 2.0, 1e-12);
}

// ---------- strings ----------

TEST(Strings, SplitKeepsEmptyTokens) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto parts = split_whitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitLines) {
  EXPECT_EQ(split_lines("a\nb\n").size(), 2u);
  EXPECT_EQ(split_lines("a\nb").size(), 2u);
  EXPECT_TRUE(split_lines("").empty());
  EXPECT_TRUE(split_lines("\n").empty());  // a lone newline has no content
}

TEST(Strings, ParseFirstInt) {
  EXPECT_EQ(parse_first_int("abc 42 def"), 42);
  EXPECT_EQ(parse_first_int("x-17y"), -17);
  EXPECT_EQ(parse_first_int("none", 9), 9);
}

TEST(Strings, ExtractNumbersHandlesFloats) {
  const auto nums = extract_numbers("load 0.52 1.20 x3");
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_DOUBLE_EQ(nums[0], 0.52);
  EXPECT_DOUBLE_EQ(nums[1], 1.20);
  EXPECT_DOUBLE_EQ(nums[2], 3.0);
}

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(strformat("%.2f", 1.005), "1.00");
}

TEST(Strings, StrappendfAppendsInPlace) {
  std::string out = "rapl:";
  strappendf(out, " %d uJ", 42);
  EXPECT_EQ(out, "rapl: 42 uJ");
}

// strappendf formats into a 256-byte stack buffer and falls back to the
// heap when the output does not fit *whole* — vsnprintf's NUL displaces
// the last byte at needed == 256, so 255 is the largest stack-formatted
// string. Exercise every length around that edge against plain string
// construction; a mis-audited boundary would truncate the 256-char case.
TEST(Strings, StrappendfStackBoundary) {
  for (const std::size_t length : {254u, 255u, 256u, 257u, 1000u}) {
    const std::string payload(length, 'x');
    std::string out = "prefix-";
    strappendf(out, "%s", payload.c_str());
    EXPECT_EQ(out, "prefix-" + payload) << "length " << length;
  }
}

TEST(Strings, StrappendfEmptyFormatLeavesStringAlone) {
  std::string out = "keep";
  strappendf(out, "%s", "");
  EXPECT_EQ(out, "keep");
}

struct GlobCase {
  const char* pattern;
  const char* path;
  bool expected;
};

class GlobMatchTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatchTest, Matches) {
  const auto& param = GetParam();
  EXPECT_EQ(glob_match(param.pattern, param.path), param.expected)
      << param.pattern << " vs " << param.path;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobMatchTest,
    ::testing::Values(
        GlobCase{"/proc/uptime", "/proc/uptime", true},
        GlobCase{"/proc/uptime", "/proc/uptime2", false},
        GlobCase{"/proc/*", "/proc/uptime", true},
        GlobCase{"/proc/*", "/proc/sys/fs", false},   // '*' stops at '/'
        GlobCase{"/proc/**", "/proc/sys/fs/file-nr", true},
        GlobCase{"/proc/sys/fs/*", "/proc/sys/fs/file-nr", true},
        GlobCase{"/proc/sys/fs/*", "/proc/sys/kernel/x", false},
        GlobCase{"/sys/devices/**", "/sys/devices/system/node/node0/numastat",
                 true},
        GlobCase{"*", "abc", true},
        GlobCase{"*", "a/b", false},
        GlobCase{"**", "a/b/c", true},
        GlobCase{"/a/?/c", "/a/b/c", true},
        GlobCase{"/a/?/c", "/a//c", false},
        GlobCase{"", "", true},
        GlobCase{"*", "", true},
        GlobCase{"/proc/*info", "/proc/meminfo", true},
        GlobCase{"/proc/*info", "/proc/cpuinfo", true},
        GlobCase{"/proc/*info", "/proc/stat", false}));

// ---------- TablePrinter ----------

TEST(Table, AlignedOutput) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const auto text = table.to_string();
  EXPECT_NE(text.find("alpha  1"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FixedFormatsDecimals) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

// ---------- Result ----------

TEST(Result, OkValueAccess) {
  Result<int> result(42);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.code(), StatusCode::kOk);
}

TEST(Result, ErrorPropagation) {
  Result<int> result(StatusCode::kNotFound, "missing");
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
  EXPECT_THROW((void)result.value(), std::logic_error);
}

TEST(Result, OkStatusWithoutValueThrows) {
  EXPECT_THROW(Result<int>{Status::ok()}, std::logic_error);
}

TEST(Result, StatusToString) {
  EXPECT_EQ(Status::ok().to_string(), "OK");
  EXPECT_EQ(Status(StatusCode::kPermissionDenied, "x").to_string(),
            "PERMISSION_DENIED: x");
  EXPECT_EQ(to_string(StatusCode::kNotSupported), "NOT_SUPPORTED");
}

TEST(Result, StatusEqualityIgnoresMessages) {
  // operator== deliberately compares codes only, which makes it useless
  // for asserting *which* kNotFound came back — that's Matches' job.
  EXPECT_EQ(Status(StatusCode::kNotFound, "no such file"),
            Status(StatusCode::kNotFound, "completely different"));
  EXPECT_NE(Status(StatusCode::kNotFound, "same text"),
            Status(StatusCode::kUnavailable, "same text"));
}

TEST(Result, StatusMatchesChecksCodeAndMessage) {
  const Status status(StatusCode::kInvalidArgument,
                      "PowerModel::train: need at least 8 samples");
  EXPECT_TRUE(status.Matches(StatusCode::kInvalidArgument));
  EXPECT_TRUE(status.Matches(StatusCode::kInvalidArgument, "at least 8"));
  EXPECT_FALSE(status.Matches(StatusCode::kInvalidArgument, "at most 8"));
  EXPECT_FALSE(status.Matches(StatusCode::kNotFound, "at least 8"));
  // Empty substring degrades to a pure code check, including on OK.
  EXPECT_TRUE(Status::ok().Matches(StatusCode::kOk));
  EXPECT_FALSE(Status::ok().Matches(StatusCode::kOk, "anything"));
}

// ---------- env ----------

TEST(Env, EnvLongParsesNumbersStrictly) {
  constexpr const char* kName = "CLEAKS_TEST_ENV_LONG";
  unsetenv(kName);
  EXPECT_EQ(env_long(kName), std::nullopt);
  setenv(kName, "42", 1);
  EXPECT_EQ(env_long(kName), 42L);
  setenv(kName, "-7", 1);
  EXPECT_EQ(env_long(kName), -7L);
  setenv(kName, " 13x", 1);  // strtol semantics: leading space, junk tail
  EXPECT_EQ(env_long(kName), 13L);
  // The bug family this helper retires: non-numeric values must read as
  // "unset", never as 0.
  setenv(kName, "true", 1);
  EXPECT_EQ(env_long(kName), std::nullopt);
  setenv(kName, "", 1);
  EXPECT_EQ(env_long(kName), std::nullopt);
  setenv(kName, "x9", 1);
  EXPECT_EQ(env_long(kName), std::nullopt);
  setenv(kName, "999999999999999999999999", 1);  // saturates, not UB
  EXPECT_EQ(env_long(kName), LONG_MAX);
  unsetenv(kName);
}

TEST(Env, EnvLongOrFallsBackOnlyWhenUnparseable) {
  constexpr const char* kName = "CLEAKS_TEST_ENV_LONG_OR";
  unsetenv(kName);
  EXPECT_EQ(env_long_or(kName, 5), 5L);
  setenv(kName, "0", 1);
  EXPECT_EQ(env_long_or(kName, 5), 0L);
  setenv(kName, "yes", 1);
  EXPECT_EQ(env_long_or(kName, 5), 5L);
  unsetenv(kName);
}

}  // namespace
}  // namespace cleaks
