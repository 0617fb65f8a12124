// Helpers of the benchmark runner (runner.cpp), kept apart so the self-test
// (selftest.cpp) can pin them: nearest-rank percentiles and the tail rule,
// in-memory spans with self time, the seeded open-loop load generator, and
// the environment guard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/request_queue.h"

namespace pfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

// Percentiles are nearest-rank throughout (pf::percentile_nearest_rank, the
// serving engine's own definition): the ceil(p/100 · n)-th smallest sample.

// Samples strictly above the nearest-rank p-th percentile: n − rank.
std::size_t samples_beyond(std::size_t n, double p);

// The tail rule: a percentile is reported only when at least `min_beyond`
// samples lie beyond it, so one outlier cannot set it.
bool tail_supported(std::size_t n, double p, std::size_t min_beyond = 10);

double median(const std::vector<double>& xs);

// Median over consecutive full windows of `window` samples (in the order
// given) of each window's nearest-rank p-th percentile, or the whole
// sample's percentile when it holds fewer than two windows. A burst of host
// contention then moves one window's value, not the result.
double windowed_percentile(const std::vector<double>& xs, std::size_t window,
                           double p);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// One traced interval. `parent` indexes the tracer's span list (-1 = root);
// `id` is the step, call or request the span belongs to (-1 = none).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
  long id = -1;
  int lane = 0;  // display row in the written trace
  double duration() const { return end - start; }
};

// In-memory span recorder. A disabled tracer records nothing and every call
// returns -1, so the untraced timed window pays only a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Records a finished span; returns its index (or -1 when disabled).
  long add(std::string name, double start, double end, long parent = -1,
           long id = -1, int lane = 0);

  const std::vector<Span>& spans() const { return spans_; }

  // Writes the spans as a Chrome/Perfetto trace (one complete event each,
  // times relative to the earliest span) plus `meta` as top-level
  // "otherData" strings. Throws pf::Error when the file cannot be written.
  void write_chrome_trace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of [start, end] its
// direct children cover (children clipped to the parent, overlapping
// children counted once).
std::vector<double> self_times(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

// Sub-seed of the workload seed for one named input stream, so adding a
// stream never shifts another's values.
std::uint64_t input_seed(std::uint64_t seed, const char* stream);

// `n` inference requests with 1..seq_len tokens drawn uniformly from
// [0, vocab); ids are first_id, first_id+1, ...
std::vector<pf::InferRequest> make_requests(std::uint64_t seed, std::size_t n,
                                            std::size_t vocab,
                                            std::size_t seq_len,
                                            std::uint64_t first_id = 0);

// Arrival offsets (seconds from the phase start) of a fixed-rate open loop:
// i / rate for every i with i / rate < duration.
std::vector<double> fixed_rate_arrivals(double rate, double duration);

// ---------------------------------------------------------------------------
// Open-loop load generator
// ---------------------------------------------------------------------------

// Pushes requests[i] into `queue` at origin + offsets[i] (steady-clock
// seconds, pf::now_seconds()), with enqueue_seconds preset to that DUE time,
// so the engine's latency counts the wait a stall imposes on later requests.
// Records how late each push actually happened (`lag`, seconds). Closes
// the queue when done.
struct OpenLoopResult {
  std::vector<double> due;  // absolute due times
  std::vector<double> lag;  // push time − due time, >= 0
};
OpenLoopResult run_open_loop(pf::RequestQueue& queue,
                             std::vector<pf::InferRequest> requests,
                             const std::vector<double>& offsets,
                             double origin);

// ---------------------------------------------------------------------------
// Environment guard
// ---------------------------------------------------------------------------

struct Environment {
  std::string simd;          // active GEMM tier
  long nproc = 0;            // CPUs this process may run on
  std::string cpu_quota;     // cgroup CPU quota ("max" = unlimited)
  // Set process knobs the library reads (PF_SIMD_LEVEL, PF_FORCE_SCALAR,
  // PF_TRANSPORT): each one silently measures a different program, so the
  // runner refuses to run when any is set. Name, value.
  std::vector<std::pair<std::string, std::string>> knobs_set;
  std::string describe() const;
};
Environment probe_environment();

// Peak resident set of this process and its waited-for children, MiB.
double peak_rss_mib();

// Threads of this process (from /proc/self/status; 0 if unreadable).
long thread_count();

// Machine-wide CPU time counters from /proc/stat (clock ticks): all time,
// and time the hypervisor ran something else while a virtual CPU wanted to
// run ("steal"). Zeros when unreadable.
struct CpuTicks {
  unsigned long long total = 0, steal = 0;
};
CpuTicks cpu_ticks();
// Steal share of the CPU time between two readings.
double steal_share(const CpuTicks& a, const CpuTicks& b);

}  // namespace pfbench
