// AVX2 tier of the elementwise kernels (4 lanes). This TU is the only one of
// the set compiled with -mavx2 (see CMakeLists.txt) and runs only after
// cpu_features detected AVX2. No -mfma: the kernels are FMA-free by
// contract (elementwise.h), which keeps this tier bitwise equal to the
// others.
#include "src/nn/elementwise_kernel.h"

#if defined(PF_HAVE_AVX2)

namespace pf::detail {

namespace {
using Vec4d = double __attribute__((vector_size(32)));
using Vec4u = std::uint64_t __attribute__((vector_size(32)));
}  // namespace

ElementwiseKernels elementwise_kernels_avx2() {
  return make_elementwise_kernels<Vec4d, Vec4u>();
}

}  // namespace pf::detail

#endif  // PF_HAVE_AVX2
