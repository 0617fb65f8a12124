// Vectorized elementwise kernels for the nn layers: exp, GELU forward and
// GELU backward over contiguous arrays.
//
// One branch-free exp (Cody-Waite range reduction, a degree-13 polynomial,
// 2^n assembled from exponent bits) serves all three; GELU is evaluated as
// v·σ(2u) = v / (1 + exp(−2u)) with u = √(2/π)(v + 0.044715v³), the same
// function as BERT's 0.5v(1 + tanh u) but free of the 1 + tanh cancellation
// in the negative tail.
//
// Accuracy: exp is within 1 ulp of glibc's exp over the whole double
// range, returns exactly 0 below −745.14 (via the correctly rounded
// subnormals down to there), +inf above 709.78, and propagates NaN.
//
// Bit-level contract: the arithmetic is FMA-free plain IEEE double +, −, ×,
// ÷ and exponent-bit manipulation, so an element's result depends on its
// input value alone — the same bits in a vector lane and in the scalar
// tail, at any array offset or length, and on every SIMD tier. The kernel
// is dispatched on active_simd_level() (one TU per ISA flag, like the GEMM
// microkernels) purely for speed; switching tiers never changes a result.
// x/y (and dy/dx) may alias exactly; partial overlap is not supported.
#pragma once

#include <cstddef>

namespace pf {

// y[i] = exp(x[i]).
void vec_exp(const double* x, double* y, std::size_t n);

// y[i] = gelu(x[i]).
void vec_gelu(const double* x, double* y, std::size_t n);

// dx[i] = gelu'(x[i]) · dy[i].
void vec_gelu_backward(const double* x, const double* dy, double* dx,
                       std::size_t n);

}  // namespace pf
