// The vectorized elementwise kernels (src/nn/elementwise.h) and the
// activations built on them: exp accuracy against libm, exact special
// values, the bit-level contract (vector body ≡ scalar tail at any offset
// and length, every SIMD tier ≡ the baseline), GELU against a long double
// reference and finite differences, and softmax normalization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/common/cpu_features.h"
#include "src/common/strings.h"
#include "src/nn/activations.h"
#include "src/nn/elementwise.h"

namespace pf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kEps = std::numeric_limits<double>::epsilon() / 2;  // 2^-53

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Distance in representable doubles (monotone integer image of the value).
std::int64_t ulp_distance(double a, double b) {
  auto ordered = [](double v) {
    const auto i = static_cast<std::int64_t>(bits(v));
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

double exp1(double v) {
  double y;
  vec_exp(&v, &y, 1);
  return y;
}

// Restores the SIMD level a test switches away from.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(active_simd_level()) {}
  ~SimdLevelGuard() { set_simd_level(saved_); }

 private:
  SimdLevel saved_;
};

std::vector<double> uniform(std::size_t n, double lo, double hi,
                            std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> out(n);
  for (double& v : out) v = dist(gen);
  return out;
}

// Inputs covering every branch-free path: the polynomial range, both
// clamps, subnormal results, overflow, signed zeros, infinities, NaN.
std::vector<double> mixed_inputs(std::size_t n, std::uint64_t seed) {
  std::vector<double> x = uniform(n, -30.0, 30.0, seed);
  const double special[] = {0.0,    -0.0,    kInf,    -kInf,   kNaN,
                            1e-300, -1e-300, -745.13, -740.0,  -1e6,
                            709.78, 710.0,   1e6,     -745.14, 3.5e-9};
  for (std::size_t i = 0; i < std::size(special) && i * 3 < n; ++i)
    x[i * 3] = special[i];
  return x;
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
}

// --- exp -------------------------------------------------------------------

TEST(VecExp, WithinOneUlpOfLibmOverTheFiniteRange) {
  std::vector<double> x = uniform(400000, -745.0, 709.8, 101);
  const std::vector<double> near_zero = uniform(100000, -2.0, 2.0, 102);
  x.insert(x.end(), near_zero.begin(), near_zero.end());
  std::vector<double> y(x.size());
  vec_exp(x.data(), y.data(), x.size());
  std::int64_t worst = 0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t d = ulp_distance(y[i], std::exp(x[i]));
    if (d > worst) {
      worst = d;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, 1) << "at x = " << worst_x;
}

TEST(VecExp, SpecialValuesAreExact) {
  EXPECT_EQ(bits(exp1(-kInf)), bits(0.0));
  EXPECT_EQ(exp1(kInf), kInf);
  EXPECT_TRUE(std::isnan(exp1(kNaN)));
  EXPECT_EQ(exp1(0.0), 1.0);
  EXPECT_EQ(exp1(-0.0), 1.0);
  // Overflow: exactly +inf past ln(DBL_MAX), finite just below it.
  EXPECT_EQ(exp1(709.79), kInf);
  EXPECT_EQ(exp1(1e6), kInf);
  EXPECT_EQ(exp1(std::numeric_limits<double>::max()), kInf);
  EXPECT_TRUE(std::isfinite(exp1(709.78)));
  // Underflow: exactly +0 once the result rounds below the smallest
  // subnormal — never a clamped tiny normal.
  EXPECT_EQ(bits(exp1(-745.14)), bits(0.0));
  EXPECT_EQ(bits(exp1(-746.0)), bits(0.0));
  EXPECT_EQ(bits(exp1(-1e6)), bits(0.0));
  EXPECT_EQ(bits(exp1(-std::numeric_limits<double>::max())), bits(0.0));
  // Subnormal results are the correctly rounded subnormal (±1 ulp).
  EXPECT_EQ(exp1(-745.13), std::numeric_limits<double>::denorm_min());
  for (const double v : {-744.0, -740.0, -720.5, -708.5}) {
    const double y = exp1(v);
    EXPECT_EQ(std::fpclassify(y), FP_SUBNORMAL) << v;
    EXPECT_LE(ulp_distance(y, std::exp(v)), 1) << v;
  }
}

// --- bit-level contract ----------------------------------------------------

TEST(VecExp, VectorBodyMatchesScalarTailAtEveryOffsetAndLength) {
  // A length-1 call runs only the scalar tail; longer calls put the same
  // value into different vector lanes (or the tail) depending on offset.
  const std::vector<double> x = mixed_inputs(80, 7);
  const std::vector<double> dy = uniform(80, -2.0, 2.0, 8);
  std::vector<double> ref_exp(x.size()), ref_gelu(x.size()),
      ref_dgelu(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    vec_exp(&x[i], &ref_exp[i], 1);
    vec_gelu(&x[i], &ref_gelu[i], 1);
    vec_gelu_backward(&x[i], &dy[i], &ref_dgelu[i], 1);
  }
  for (const std::size_t off : {0, 1, 3, 5, 8, 13}) {
    for (std::size_t len = 1; len <= 67 && off + len <= x.size(); ++len) {
      std::vector<double> e(len), g(len), d(len);
      vec_exp(&x[off], e.data(), len);
      vec_gelu(&x[off], g.data(), len);
      vec_gelu_backward(&x[off], &dy[off], d.data(), len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(bits(e[i]), bits(ref_exp[off + i]))
            << "exp off " << off << " len " << len << " i " << i;
        ASSERT_EQ(bits(g[i]), bits(ref_gelu[off + i]))
            << "gelu off " << off << " len " << len << " i " << i;
        ASSERT_EQ(bits(d[i]), bits(ref_dgelu[off + i]))
            << "gelu_backward off " << off << " len " << len << " i " << i;
      }
    }
  }
}

TEST(VecExp, InPlaceEqualsOutOfPlace) {
  const std::vector<double> x = mixed_inputs(37, 9);
  std::vector<double> out(x.size()), inplace = x;
  vec_exp(x.data(), out.data(), x.size());
  vec_exp(inplace.data(), inplace.data(), inplace.size());
  expect_same_bits(inplace, out, "exp in place");
  std::vector<double> g(x.size()), ginplace = x;
  vec_gelu(x.data(), g.data(), x.size());
  vec_gelu(ginplace.data(), ginplace.data(), ginplace.size());
  expect_same_bits(ginplace, g, "gelu in place");
}

TEST(VecExp, EveryTierIsBitwiseEqualToTheBaseline) {
  SimdLevelGuard guard;
  const std::vector<double> x = mixed_inputs(203, 11);
  const std::vector<double> dy = uniform(x.size(), -3.0, 3.0, 12);
  Rng rng(13);
  const Matrix logits = Matrix::randn(19, 33, rng, 6.0);
  const Matrix act = Matrix::randn(17, 29, rng, 3.0);
  const Matrix dact = Matrix::randn(17, 29, rng);

  struct Out {
    std::vector<double> e, g, d;
    Matrix p, ga, gb;
  };
  auto run = [&] {
    Out o;
    o.e.resize(x.size());
    o.g.resize(x.size());
    o.d.resize(x.size());
    vec_exp(x.data(), o.e.data(), x.size());
    vec_gelu(x.data(), o.g.data(), x.size());
    vec_gelu_backward(x.data(), dy.data(), o.d.data(), x.size());
    o.p = softmax_rows(logits, ExecContext::serial());
    o.ga = gelu(act, ExecContext::serial());
    o.gb = gelu_backward(act, dact, ExecContext::serial());
    return o;
  };
  auto flat = [](const Matrix& m) {
    return std::vector<double>(m.data(), m.data() + m.size());
  };

  ASSERT_EQ(set_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
  const Out base = run();
  const int top = static_cast<int>(detected_simd_level());
  for (int l = 1; l <= top; ++l) {
    const auto level = static_cast<SimdLevel>(l);
    ASSERT_EQ(set_simd_level(level), level);
    const Out o = run();
    const std::string tier = simd_level_name(level);
    expect_same_bits(o.e, base.e, tier + " exp");
    expect_same_bits(o.g, base.g, tier + " gelu");
    expect_same_bits(o.d, base.d, tier + " gelu_backward");
    expect_same_bits(flat(o.p), flat(base.p), tier + " softmax_rows");
    expect_same_bits(flat(o.ga), flat(base.ga), tier + " gelu matrix");
    expect_same_bits(flat(o.gb), flat(base.gb), tier + " gelu_backward matrix");
  }
  if (top == 0) GTEST_SKIP() << "host offers only the baseline tier";
}

// --- GELU ------------------------------------------------------------------

// gelu(v) = v·σ(2u) and its derivative in long double, each with the error
// budget a kernel result must meet: the input-rounding condition of exp
// grows with |2u|, so the budget is a few ulps times (1 + |2u|).
struct GeluRef {
  long double y, dy;
  long double y_scale, dy_scale;  // one scaled ulp of each
};

GeluRef gelu_ref(double v) {
  const long double lv = v;
  const long double k = 0.7978845608028654L, c = 0.044715L;
  const long double u = k * (lv + c * lv * lv * lv);
  const long double e = std::exp(-2.0L * u);
  const long double s = 1.0L / (1.0L + e);
  const long double du = k * (1.0L + 3.0L * c * lv * lv);
  const long double slope = 2.0L * lv * s * (1.0L - s) * du;
  const long double ulp = (1.0L + std::fabs(2.0L * u)) * kEps;
  // The derivative is a sum of two terms; its budget is relative to their
  // magnitudes so a cancellation between them is not charged to the kernel.
  return {lv * s, s + slope, ulp * std::fabs(lv * s),
          ulp * (s + std::fabs(slope))};
}

TEST(VecGelu, MatchesLongDoubleReferenceIncludingTheNegativeTail) {
  std::vector<double> x = uniform(200000, -12.0, 12.0, 21);
  const std::vector<double> small = uniform(20000, -1e-3, 1e-3, 22);
  x.insert(x.end(), small.begin(), small.end());
  std::vector<double> y(x.size()), dx(x.size()), ones(x.size(), 1.0);
  vec_gelu(x.data(), y.data(), x.size());
  vec_gelu_backward(x.data(), ones.data(), dx.data(), x.size());
  long double worst_fwd = 0.0L, worst_bwd = 0.0L;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const GeluRef r = gelu_ref(x[i]);
    worst_fwd = std::max(worst_fwd, std::fabs(y[i] - r.y) / r.y_scale);
    worst_bwd = std::max(worst_bwd, std::fabs(dx[i] - r.dy) / r.dy_scale);
  }
  // Measured ~3.5 (forward) and ~1.9 (backward) scaled ulps.
  EXPECT_LT(worst_fwd, 8.0L);
  EXPECT_LT(worst_bwd, 8.0L);
  // The tail the tanh form loses entirely: 1 + tanh(u) rounds to 0 at
  // v = −10, while v·σ(2u) keeps full relative precision.
  const double v = -10.0;
  double got;
  vec_gelu(&v, &got, 1);
  const long double want = gelu_ref(v).y;
  EXPECT_LT(got, 0.0);
  EXPECT_LT(std::fabs(got - want) / std::fabs(want), 1e-12L);
}

TEST(VecGelu, SpecialValues) {
  double y;
  const double inf = kInf, nan = kNaN, zero = 0.0, big_neg = -1e5;
  vec_gelu(&inf, &y, 1);
  EXPECT_EQ(y, kInf);
  vec_gelu(&nan, &y, 1);
  EXPECT_TRUE(std::isnan(y));
  vec_gelu(&zero, &y, 1);
  EXPECT_EQ(y, 0.0);
  vec_gelu(&big_neg, &y, 1);
  EXPECT_EQ(y, 0.0);
  const double one = 1.0;
  vec_gelu_backward(&zero, &one, &y, 1);
  EXPECT_EQ(y, 0.5);
  vec_gelu_backward(&big_neg, &one, &y, 1);
  EXPECT_EQ(y, 0.0);
}

TEST(VecGelu, BackwardMatchesCentralDifferences) {
  const std::vector<double> x = uniform(2000, -6.0, 6.0, 31);
  std::vector<double> dx(x.size()), ones(x.size(), 1.0);
  vec_gelu_backward(x.data(), ones.data(), dx.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double h = 1e-5;
    const double up_in = x[i] + h, down_in = x[i] - h;
    double up, down;
    vec_gelu(&up_in, &up, 1);
    vec_gelu(&down_in, &down, 1);
    const double fd = (up - down) / (up_in - down_in);
    EXPECT_NEAR(dx[i], fd, 1e-8 * (1.0 + std::fabs(fd))) << "x = " << x[i];
  }
}

// --- softmax ---------------------------------------------------------------

TEST(VecSoftmax, RowsSumToOneAndMatchLongDouble) {
  Rng rng(41);
  for (const std::size_t cols : {1, 2, 7, 8, 9, 32, 48, 67}) {
    const Matrix logits = Matrix::randn(13, cols, rng, 20.0);
    const Matrix p = softmax_rows(logits);
    for (std::size_t r = 0; r < p.rows(); ++r) {
      long double mx = logits(r, 0), sum_ref = 0.0L;
      for (std::size_t c = 0; c < cols; ++c)
        mx = std::max<long double>(mx, logits(r, c));
      for (std::size_t c = 0; c < cols; ++c)
        sum_ref += std::exp(static_cast<long double>(logits(r, c)) - mx);
      double sum = 0.0;
      for (std::size_t c = 0; c < cols; ++c) {
        const long double want =
            std::exp(static_cast<long double>(logits(r, c)) - mx) / sum_ref;
        EXPECT_GE(p(r, c), 0.0);
        EXPECT_LE(p(r, c), 1.0);
        // exp's 1 ulp, the rounding of logit − max (condition |logit −
        // max|) and the normalization's sum.
        const long double budget =
            (16.0L + cols + (mx - logits(r, c))) * kEps * want;
        EXPECT_LE(std::fabs(p(r, c) - want), budget + 1e-300L)
            << "row " << r << " col " << c << " of " << cols;
        sum += p(r, c);
      }
      EXPECT_NEAR(sum, 1.0, 4.0 * static_cast<double>(cols) * kEps)
          << cols << " cols";
    }
  }
}

TEST(VecSoftmax, ExtremeLogitsStayFinite) {
  const Matrix logits =
      Matrix::from_rows({{1e300, -1e300, 0.0}, {-kInf, 0.0, -kInf}});
  const Matrix p = softmax_rows(logits);
  EXPECT_EQ(p(0, 0), 1.0);
  EXPECT_EQ(p(0, 1), 0.0);
  EXPECT_EQ(p(0, 2), 0.0);
  EXPECT_EQ(p(1, 0), 0.0);
  EXPECT_EQ(p(1, 1), 1.0);
  EXPECT_EQ(p(1, 2), 0.0);
}

}  // namespace
}  // namespace pf
