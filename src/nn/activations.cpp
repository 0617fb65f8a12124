#include "src/nn/activations.h"

#include <algorithm>

#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/nn/elementwise.h"

namespace pf {

// Every row loop hands contiguous rows to the vectorized kernels of
// src/nn/elementwise.h. Those are elementwise with position-independent
// bits, so chunking rows across threads never changes a value.

Matrix gelu(const Matrix& x, const ExecContext& ctx) {
  Matrix y(x.rows(), x.cols());
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    vec_gelu(x.row(r0), y.row(r0), (r1 - r0) * x.cols());
  });
  return y;
}

Matrix gelu_backward(const Matrix& x, const Matrix& dy,
                     const ExecContext& ctx) {
  PF_CHECK(x.same_shape(dy));
  Matrix dx(x.rows(), x.cols());
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    vec_gelu_backward(x.row(r0), dy.row(r0), dx.row(r0),
                      (r1 - r0) * x.cols());
  });
  return dx;
}

Matrix softmax_rows(const Matrix& logits, const ExecContext& ctx) {
  const std::size_t n = logits.cols();
  Matrix p(logits.rows(), n);
  ctx.parallel_for(logits.rows(), [&](std::size_t r0, std::size_t r1) {
    // Shift every row by its max, exponentiate the whole chunk in one
    // kernel call, then normalize row by row.
    for (std::size_t r = r0; r < r1; ++r) {
      const double* row = logits.row(r);
      double* pr = p.row(r);
      double mx = row[0];
      for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, row[c]);
      for (std::size_t c = 0; c < n; ++c) pr[c] = row[c] - mx;
    }
    vec_exp(p.row(r0), p.row(r0), (r1 - r0) * n);
    for (std::size_t r = r0; r < r1; ++r) {
      double* pr = p.row(r);
      double sum = 0.0;
      for (std::size_t c = 0; c < n; ++c) sum += pr[c];
      const double inv = 1.0 / sum;
      for (std::size_t c = 0; c < n; ++c) pr[c] *= inv;
    }
  });
  return p;
}

Matrix softmax_rows_backward(const Matrix& p, const Matrix& dy,
                             const ExecContext& ctx) {
  PF_CHECK(p.same_shape(dy));
  Matrix dx(p.rows(), p.cols());
  ctx.parallel_for(p.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double dot = 0.0;
      for (std::size_t c = 0; c < p.cols(); ++c) dot += p(r, c) * dy(r, c);
      for (std::size_t c = 0; c < p.cols(); ++c)
        dx(r, c) = p(r, c) * (dy(r, c) - dot);
    }
  });
  return dx;
}

Matrix Gelu::forward(const Matrix& x, bool training, const ExecContext& ctx) {
  if (training) arena_assign(ctx.arena(), x_cache_, x);
  return gelu(x, ctx);
}

Matrix Gelu::backward(const Matrix& dy, const ExecContext& ctx) {
  PF_CHECK(!x_cache_.empty());
  return gelu_backward(x_cache_, dy, ctx);
}

}  // namespace pf
