// AVX-512F tier of the elementwise kernels (8 lanes). This TU is the only
// one of the set compiled with -mavx512f (see CMakeLists.txt) and runs only
// after cpu_features detected AVX-512F. AVX-512F includes FMA instructions,
// so the TU is also built with -ffp-contract=off: the kernels are FMA-free
// by contract (elementwise.h), which keeps this tier bitwise equal to the
// others.
#include "src/nn/elementwise_kernel.h"

#if defined(PF_HAVE_AVX512)

namespace pf::detail {

namespace {
using Vec8d = double __attribute__((vector_size(64)));
using Vec8u = std::uint64_t __attribute__((vector_size(64)));
}  // namespace

ElementwiseKernels elementwise_kernels_avx512() {
  return make_elementwise_kernels<Vec8d, Vec8u>();
}

}  // namespace pf::detail

#endif  // PF_HAVE_AVX512
