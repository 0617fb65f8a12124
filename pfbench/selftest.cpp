// Self-test of the runner's helpers (harness.h). run.py runs it before every
// benchmark run; it exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "pfbench/harness.h"
#include "src/common/check.h"
#include "src/serve/serving_engine.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest line %d: %s\n", line, what);
  ++failures;
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const pf::Error&) {
    return true;
  }
  return false;
}

// The runner reads every percentile through pf::percentile_nearest_rank;
// pin the definition it relies on.
void nearest_rank_percentile() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  EXPECT(pf::percentile_nearest_rank(xs, 50) == 50.0);
  EXPECT(pf::percentile_nearest_rank(xs, 90) == 90.0);
  EXPECT(pf::percentile_nearest_rank(xs, 99) == 99.0);
  EXPECT(pf::percentile_nearest_rank(xs, 100) == 100.0);
  // ceil(0.9 · 7) = 7: the 7th smallest, no interpolation.
  EXPECT(pf::percentile_nearest_rank({5, 1, 4, 2, 7, 3, 6}, 90) == 7.0);
  EXPECT(pfbench::median({3, 1, 2}) == 2.0);
  EXPECT(pfbench::median({4, 1, 3, 2}) == 2.0);
  EXPECT(throws([] { pfbench::median({}); }));
}

void tail_rule() {
  // p90 of 100 samples sits at rank 90: exactly ten beyond it.
  EXPECT(pfbench::samples_beyond(100, 90) == 10);
  EXPECT(pfbench::tail_supported(100, 90));
  EXPECT(!pfbench::tail_supported(99, 90));  // rank 90 of 99: nine beyond
  // p99 needs a thousand samples.
  EXPECT(!pfbench::tail_supported(999, 99));
  EXPECT(pfbench::tail_supported(1000, 99));
  EXPECT(pfbench::samples_beyond(0, 50) == 0);
  // Windows [1..10], [11..20], [21..30]: p90s 9, 19, 29, median 19; the
  // trailing partial window is ignored.
  std::vector<double> seq;
  for (int i = 1; i <= 35; ++i) seq.push_back(i);
  EXPECT(pfbench::windowed_percentile(seq, 10, 90) == 19.0);
  seq[5] = 1000.0;  // a burst in the first window only
  EXPECT(pfbench::windowed_percentile(seq, 10, 90) == 19.0);
  // Fewer than two windows: the whole sample's percentile.
  EXPECT(pfbench::windowed_percentile(seq, 18, 90) ==
         pf::percentile_nearest_rank(seq, 90));
}

void self_time_from_nested_spans() {
  pfbench::Tracer off(false);
  EXPECT(off.add("x", 0, 1) == -1 && off.spans().empty());

  pfbench::Tracer tr(true);
  const long step = tr.add("step", 0.0, 10.0);
  tr.add("fwd", 1.0, 4.0, step);
  tr.add("bwd", 3.0, 6.0, step);   // overlaps fwd: [1, 6] counted once
  tr.add("opt", 8.0, 12.0, step);  // clipped to the parent: [8, 10]
  const long idle = tr.add("other-root", 20.0, 21.0);
  const auto self = pfbench::self_times(tr.spans());
  EXPECT(std::fabs(self[static_cast<std::size_t>(step)] - 3.0) < 1e-12);
  EXPECT(self[1] == 3.0 && self[2] == 3.0 && self[3] == 4.0);
  EXPECT(self[static_cast<std::size_t>(idle)] == 1.0);
  // A grandchild reduces its parent's self time, not the root's.
  pfbench::Tracer nested(true);
  const long root = nested.add("root", 0.0, 4.0);
  const long mid = nested.add("mid", 0.0, 2.0, root);
  nested.add("leaf", 0.0, 1.5, mid);
  const auto s2 = pfbench::self_times(nested.spans());
  EXPECT(s2[0] == 2.0 && s2[1] == 0.5 && s2[2] == 1.5);
  EXPECT(throws([&] { nested.add("bad", 1.0, 0.5); }));
  EXPECT(throws([&] { nested.add("orphan", 0.0, 1.0, 99); }));
}

void open_loop_measures_from_due_time() {
  // Arrivals already 50 ms overdue when the generator starts: every push is
  // late, and the queue must carry the DUE time, not the push time.
  pf::RequestQueue q;
  const auto reqs = pfbench::make_requests(1, 3, 10, 8);
  const double origin = pf::now_seconds() - 0.05;
  const auto res = pfbench::run_open_loop(q, reqs, {0.0, 0.001, 0.002}, origin);
  EXPECT(q.closed());
  const auto got = q.wait_pop(10, 1, 1.0);
  EXPECT(got.size() == 3);
  for (std::size_t i = 0; i < got.size() && i < 3; ++i) {
    EXPECT(got[i].enqueue_seconds == res.due[i]);
    EXPECT(res.due[i] == origin + 0.001 * static_cast<double>(i));
    EXPECT(res.lag[i] >= 0.045);  // ran ~50 ms late, and it says so
  }
  // On schedule: the push waits for its due time and records its own lag
  // (bounded loosely: a host stall must not fail the self-test).
  pf::RequestQueue q2;
  const double origin2 = pf::now_seconds() + 0.02;
  const auto res2 = pfbench::run_open_loop(q2, {reqs[0]}, {0.0}, origin2);
  EXPECT(pf::now_seconds() >= origin2);
  EXPECT(res2.lag[0] >= 0.0 && res2.lag[0] < 0.25);
  // A queued request's latency, complete − enqueue, includes the lag.
  const auto popped = q2.wait_pop(1, 1, 1.0);
  EXPECT(popped.size() == 1 && popped[0].enqueue_seconds == origin2);
}

void same_seed_same_inputs() {
  const auto a = pfbench::make_requests(42, 50, 48, 32);
  const auto b = pfbench::make_requests(42, 50, 48, 32);
  const auto c = pfbench::make_requests(43, 50, 48, 32);
  bool same = a.size() == b.size(), differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].ids == b[i].ids && a[i].id == b[i].id;
    differs = differs || a[i].ids != c[i].ids;
    EXPECT(!a[i].ids.empty() && a[i].ids.size() <= 32);
    for (const int t : a[i].ids) EXPECT(t >= 0 && t < 48);
  }
  EXPECT(same && differs);
  const auto arr = pfbench::fixed_rate_arrivals(500, 1.0);
  EXPECT(arr.size() == 500 && arr.front() == 0.0 && arr[1] == 1.0 / 500);
  for (std::size_t i = 1; i < arr.size(); ++i) EXPECT(arr[i] > arr[i - 1]);
  EXPECT(arr.back() < 1.0);
  EXPECT(pfbench::input_seed(1, "arrivals") == pfbench::input_seed(1, "arrivals"));
  EXPECT(pfbench::input_seed(1, "arrivals") != pfbench::input_seed(2, "arrivals"));
  EXPECT(pfbench::input_seed(1, "arrivals") != pfbench::input_seed(1, "requests"));
}

}  // namespace

int main() {
  nearest_rank_percentile();
  tail_rule();
  self_time_from_nested_spans();
  open_loop_measures_from_due_time();
  same_seed_same_inputs();
  if (failures) {
    std::fprintf(stderr, "pfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "pfbench selftest: ok\n");
  return 0;
}
