// Internal: the elementwise kernel bodies shared by the per-ISA TUs
// (elementwise.cpp = baseline, elementwise_avx2.cpp, elementwise_avx512.cpp).
// Not part of the public nn API — see elementwise.h for the contract.
//
// Every body is a template over a value type D and its same-width unsigned
// integer type U: a GCC/Clang vector-extension type for the W-lane body, and
// plain double / uint64_t for the scalar tail. Both instantiations run the
// identical sequence of IEEE operations, which is what makes a lane and the
// tail bitwise equal. The including TUs must be built with
// -ffp-contract=off so no compiler fuses a multiply-add here.
//
// Everything below has internal linkage on purpose: each TU is compiled
// with different ISA flags, and a shared (COMDAT) instantiation could hand
// the AVX-512 copy of the scalar tail to a host without AVX-512.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace pf::detail {

using VecUnaryFn = void (*)(const double* x, double* y, std::size_t n);
using VecBinaryFn = void (*)(const double* x, const double* dy, double* dx,
                             std::size_t n);

// One tier's entry points.
struct ElementwiseKernels {
  VecUnaryFn exp = nullptr;
  VecUnaryFn gelu = nullptr;
  VecBinaryFn gelu_backward = nullptr;
};

ElementwiseKernels elementwise_kernels_baseline();
#if defined(PF_HAVE_AVX2)
ElementwiseKernels elementwise_kernels_avx2();
#endif
#if defined(PF_HAVE_AVX512)
ElementwiseKernels elementwise_kernels_avx512();
#endif

namespace {

// Inputs are clamped to [kExpLo, kExpHi] first: exp(710) already overflows
// and exp(−746) already rounds to 0, and inside the clamp n = round(x/ln2)
// lies in [−1076, 1024], where both halves of the 2^n split below are
// normal numbers. NaN compares false against both bounds and flows through.
constexpr double kExpHi = 710.0;
constexpr double kExpLo = -746.0;
constexpr double kLog2e = 1.4426950408889634;  // 1/ln 2
// 1.5·2^52: adding it rounds a |v| < 2^51 to an integer (round-to-nearest)
// and leaves that integer in the low mantissa bits.
constexpr double kRoundShift = 6755399441055744.0;
// Cody-Waite split of ln 2 (fdlibm's): kLn2Hi has 21 trailing zero bits, so
// n·kLn2Hi is exact for |n| < 2^21 and x − n·kLn2Hi loses nothing.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// (h + kExpBits) carries h + 1023 in its low 11 mantissa bits; shifted left
// by 52 those become the exponent field of 2^h (the constant's own high
// bits shift out).
constexpr double kExpBits = kRoundShift + 1023.0;

constexpr double kSqrt2OverPi = 0.7978845608028654;
constexpr double kGeluC = 0.044715;

// 1/k! for k = 0..13: the Taylor polynomial of exp. |r| <= ln2/2 after the
// reduction, where the truncation error r^14/14! < 2^-60.
constexpr double inv_factorial(int k) {
  double f = 1.0;
  for (int i = 2; i <= k; ++i) f *= i;
  return 1.0 / f;
}

template <class D>
inline D splat(double v) {
  if constexpr (std::is_same_v<D, double>) {
    return v;
  } else {
    return D{} + v;
  }
}

template <class D>
inline D load(const double* p) {
  D v;
  std::memcpy(&v, p, sizeof(D));
  return v;
}

template <class D>
inline void store(double* p, D v) {
  std::memcpy(p, &v, sizeof(D));
}

// 2^k for an integer-valued k in [−1022, 1023].
template <class D, class U>
inline D exp2_int(D k) {
  return std::bit_cast<D>(std::bit_cast<U>(k + splat<D>(kExpBits)) << 52);
}

template <class D, class U>
inline D exp_core(D x) {
  x = x > splat<D>(kExpHi) ? splat<D>(kExpHi) : x;
  x = x < splat<D>(kExpLo) ? splat<D>(kExpLo) : x;
  const D shift = splat<D>(kRoundShift);
  // x = n·ln2 + r with n = round(x/ln2), |r| <= ~ln2/2.
  const D n = (x * splat<D>(kLog2e) + shift) - shift;
  const D r = (x - n * splat<D>(kLn2Hi)) - n * splat<D>(kLn2Lo);
  D p = splat<D>(inv_factorial(13));
  p = p * r + splat<D>(inv_factorial(12));
  p = p * r + splat<D>(inv_factorial(11));
  p = p * r + splat<D>(inv_factorial(10));
  p = p * r + splat<D>(inv_factorial(9));
  p = p * r + splat<D>(inv_factorial(8));
  p = p * r + splat<D>(inv_factorial(7));
  p = p * r + splat<D>(inv_factorial(6));
  p = p * r + splat<D>(inv_factorial(5));
  p = p * r + splat<D>(inv_factorial(4));
  p = p * r + splat<D>(inv_factorial(3));
  p = p * r + splat<D>(0.5);
  p = p * r + splat<D>(1.0);
  p = p * r + splat<D>(1.0);
  // 2^n as 2^h · 2^(n−h), h = round(n/2): both factors stay normal across
  // n ∈ [−1076, 1024], so the only rounding of the scaling is the last
  // multiply — which is exactly where a subnormal result gets rounded.
  const D h = (n * splat<D>(0.5) + shift) - shift;
  return (p * exp2_int<D, U>(h)) * exp2_int<D, U>(n - h);
}

// gelu(v) = v / (1 + exp(−2u)).
template <class D, class U>
inline D gelu_core(D v) {
  const D u = splat<D>(kSqrt2OverPi) * (v + splat<D>(kGeluC) * v * v * v);
  return v / (splat<D>(1.0) + exp_core<D, U>(u * splat<D>(-2.0)));
}

// gelu'(v)·dy with s = σ(2u): gelu' = s + 2v·s(1 − s)·u'.
template <class D, class U>
inline D gelu_backward_core(D v, D dy) {
  const D v2 = v * v;
  const D u = splat<D>(kSqrt2OverPi) * (v + splat<D>(kGeluC) * v2 * v);
  const D du =
      splat<D>(kSqrt2OverPi) * (splat<D>(1.0) + splat<D>(3.0 * kGeluC) * v2);
  const D s =
      splat<D>(1.0) / (splat<D>(1.0) + exp_core<D, U>(u * splat<D>(-2.0)));
  const D grad =
      s + (splat<D>(2.0) * v * du) * (s * (splat<D>(1.0) - s));
  return grad * dy;
}

// Array loops: whole W-lane vectors, then the scalar tail through the
// same core.
template <class D, class U>
void exp_array(const double* x, double* y, std::size_t n) {
  constexpr std::size_t W = sizeof(D) / sizeof(double);
  std::size_t i = 0;
  for (; i + W <= n; i += W) store(y + i, exp_core<D, U>(load<D>(x + i)));
  for (; i < n; ++i) y[i] = exp_core<double, std::uint64_t>(x[i]);
}

template <class D, class U>
void gelu_array(const double* x, double* y, std::size_t n) {
  constexpr std::size_t W = sizeof(D) / sizeof(double);
  std::size_t i = 0;
  for (; i + W <= n; i += W) store(y + i, gelu_core<D, U>(load<D>(x + i)));
  for (; i < n; ++i) y[i] = gelu_core<double, std::uint64_t>(x[i]);
}

template <class D, class U>
void gelu_backward_array(const double* x, const double* dy, double* dx,
                         std::size_t n) {
  constexpr std::size_t W = sizeof(D) / sizeof(double);
  std::size_t i = 0;
  for (; i + W <= n; i += W)
    store(dx + i,
          gelu_backward_core<D, U>(load<D>(x + i), load<D>(dy + i)));
  for (; i < n; ++i)
    dx[i] = gelu_backward_core<double, std::uint64_t>(x[i], dy[i]);
}

template <class D, class U>
ElementwiseKernels make_elementwise_kernels() {
  return ElementwiseKernels{exp_array<D, U>, gelu_array<D, U>,
                            gelu_backward_array<D, U>};
}

}  // namespace

}  // namespace pf::detail
