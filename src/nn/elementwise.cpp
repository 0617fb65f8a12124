// Baseline tier of the elementwise kernels plus the runtime dispatch. The
// baseline body runs on 2-lane vectors — plain SSE2 on any x86-64, generic
// lowering elsewhere — and is what PF_SIMD_LEVEL=scalar selects.
#include "src/nn/elementwise.h"

#include "src/common/cpu_features.h"
#include "src/nn/elementwise_kernel.h"

namespace pf {

namespace detail {

namespace {
using Vec2d = double __attribute__((vector_size(16)));
using Vec2u = std::uint64_t __attribute__((vector_size(16)));
}  // namespace

ElementwiseKernels elementwise_kernels_baseline() {
  return make_elementwise_kernels<Vec2d, Vec2u>();
}

}  // namespace detail

namespace {

const detail::ElementwiseKernels& active_kernels() {
  static const detail::ElementwiseKernels baseline =
      detail::elementwise_kernels_baseline();
#if defined(PF_HAVE_AVX512)
  static const detail::ElementwiseKernels avx512 =
      detail::elementwise_kernels_avx512();
#endif
#if defined(PF_HAVE_AVX2)
  static const detail::ElementwiseKernels avx2 =
      detail::elementwise_kernels_avx2();
#endif
  switch (active_simd_level()) {
#if defined(PF_HAVE_AVX512)
    case SimdLevel::kAvx512:
      return avx512;
#endif
#if defined(PF_HAVE_AVX2)
    case SimdLevel::kAvx2:
      return avx2;
#endif
    default:
      return baseline;
  }
}

}  // namespace

void vec_exp(const double* x, double* y, std::size_t n) {
  active_kernels().exp(x, y, n);
}

void vec_gelu(const double* x, double* y, std::size_t n) {
  active_kernels().gelu(x, y, n);
}

void vec_gelu_backward(const double* x, const double* dy, double* dx,
                       std::size_t n) {
  active_kernels().gelu_backward(x, dy, dx, n);
}

}  // namespace pf
