// Benchmark runner: one workload per process, driven through the library's
// public API only (PipelineRuntime, Trainer, run_multiproc, ServingEngine /
// RequestQueue, and the nn / kfac / linalg / optim / comm / data entry
// points).
//
//   pfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-dir <dir>]
//
// Workloads (README.md gives the why, and which layer each one stresses):
//   kfac-bubbles    in-process 1F1B, K-FAC work filling the pipeline bubbles
//   lamb-multiproc  forked stage processes over shm rings, LAMB, tiny tensors
//   serve-openloop  forward-only serving: fixed-rate open loop, then saturation
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: an untraced and a traced window of the same
// workload (their difference is the tracing overhead), the per-layer table
// from the executed Timeline and the recorded spans, and per-call timings of
// the layers at the workload's shapes. Spans are written as a Chrome trace
// into --trace-dir.
//
// Every run checks the program's outputs outside the timed window (bitwise
// against a serial reference) and prints human-readable lines, then one JSON
// object {correct, attempted, failed, metrics} as the last stdout line.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pfbench/harness.h"
#include "src/comm/stage_channel.h"
#include "src/comm/tensor_wire.h"
#include "src/comm/transport_channel.h"
#include "src/common/check.h"
#include "src/kfac/kfac_engine.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/gemm.h"
#include "src/nn/attention.h"
#include "src/nn/embedding.h"
#include "src/nn/layer_norm.h"
#include "src/nn/linear.h"
#include "src/nn/loss.h"
#include "src/optim/kfac_optimizer.h"
#include "src/optim/lamb.h"
#include "src/serve/serving_engine.h"
#include "src/train/multiproc.h"
#include "src/train/pipeline_runtime.h"
#include "src/train/trainer.h"

namespace {

using namespace pf;
using pfbench::median;

// ---------------------------------------------------------------------------
// Workload definitions. Model weights and the corpus are fixed per workload,
// so a loss target sits at a stable step; the seed draws the batch stream
// (training) or the requests and their arrival times (serving).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kModelSeed = 7;
constexpr double kLearningRate = 1e-2;
constexpr std::size_t kLrHorizon = 1000;  // LR decay horizon, > any window
// Trailing window of the smoothed loss the time-to-target metric reads.
constexpr std::size_t kLossWindow = 20;
// In-process training reads peak RSS after this many steps: the same work
// on every commit, however many steps the timed window holds.
constexpr std::size_t kRssSteps = 100;
// Steps per window of the training tail: the p90 of 100 has ten beyond it.
constexpr std::size_t kTailWindow = 100;

BertConfig kfac_model() {
  BertConfig c;
  c.vocab = 48;
  c.d_model = 64;
  c.d_ff = 128;
  c.n_heads = 4;
  c.n_layers = 4;
  c.seq_len = 32;
  return c;
}

BertConfig multiproc_model() {
  BertConfig c;
  c.vocab = 48;
  c.d_model = 32;
  c.d_ff = 64;
  c.n_heads = 4;
  c.n_layers = 2;
  c.seq_len = 32;
  return c;
}

struct TrainShape {
  BertConfig model;
  int n_stages;
  int n_micro;
  std::size_t micro_batch;
  int workers;
  bool kfac;
  double target_loss;  // trailing-window mean loss that ends time-to-target
};

const TrainShape kKfacBubbles{kfac_model(), 4, 8, 8, 2, true, 4.27};
const TrainShape kLambMultiproc{multiproc_model(), 2, 16, 2, 2, false, 4.30};

struct ServeShape {
  BertConfig model = kfac_model();
  int n_stages = 2;
  std::size_t max_batch = 4;
  int workers = 2;
  double rate_rps = 500.0;         // open-loop arrival rate, evenly spaced
  double slo_ms = 50.0;            // latency limit of slo_miss_rate
  std::size_t replay_requests = 1000;  // saturation replay: p99 has 10 beyond
  double open_loop_share = 0.6;    // of --seconds; the rest is saturation
};
const ServeShape kServe;

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;
  pfbench::Tracer tracer{false};
  double peak_rss_mib = 0.0;  // set by a workload that reads it at fixed work

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    check_failures.push_back(what);
  }
};

// Report lines go straight out and are flushed, so nothing sits in the
// stdio buffer when run_multiproc forks (children flush inherited buffers).
void say(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void say(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// A timing with its sample count and, for tails, whether the nearest-rank
// percentile has at least ten samples beyond it.
void say_timing(const char* name, const std::vector<double>& xs, double pct,
                double scale, const char* unit) {
  const double v = percentile_nearest_rank(xs, pct) * scale;
  say("  %-26s %12.6g %-4s (p%g of n=%zu, %zu beyond%s)", name, v, unit, pct,
      xs.size(), pfbench::samples_beyond(xs.size(), pct),
      pct <= 50 || pfbench::tail_supported(xs.size(), pct)
          ? ""
          : ", TAIL UNSUPPORTED");
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

struct TrainData {
  SyntheticCorpus corpus;
  MlmBatcher batcher;
  explicit TrainData(const BertConfig& m)
      : corpus([&] {
          CorpusConfig cc;
          cc.vocab = m.vocab;
          return cc;
        }()),
        batcher(corpus, [&] {
          MlmBatcherConfig bc;
          bc.seq_len = m.seq_len;
          return bc;
        }()) {}
};

PipelineRuntimeConfig runtime_config(const TrainShape& sh,
                                     std::uint64_t data_seed,
                                     std::size_t steps, bool kfac) {
  PipelineRuntimeConfig pc;
  pc.schedule = "1f1b";
  pc.n_stages = sh.n_stages;
  pc.n_micro = sh.n_micro;
  pc.micro_batch_size = sh.micro_batch;
  pc.total_steps = steps;
  pc.lr = PolyWarmupSchedule(kLearningRate, 0, kLrHorizon);
  pc.data_seed = data_seed;
  pc.workers = sh.workers;
  pc.stage_threads = 1;
  pc.use_kfac = kfac;
  pc.kfac.inverse_interval = 3;
  pc.transport = "inproc";
  return pc;
}

// First step at which the trailing-window mean loss reaches the target, or
// -1 if it never does.
long steps_to_target(const std::vector<double>& loss, double target) {
  double sum = 0.0;
  for (std::size_t i = 0; i < loss.size(); ++i) {
    sum += loss[i];
    if (i >= kLossWindow) sum -= loss[i - kLossWindow];
    if (i + 1 >= kLossWindow && sum / kLossWindow <= target)
      return static_cast<long>(i);
  }
  return -1;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Per-kind busy time of one executed Timeline, and the attribution check:
// per-kind busy + idle must equal lanes × span.
struct LaneTable {
  std::map<std::string, double> busy;  // by bucket
  double idle = 0.0;
  double span = 0.0;
  double lanes_x_span = 0.0;
  double residual_share = 0.0;  // |Σbusy + idle − lanes×span| / lanes×span
};

const char* bucket_of(WorkKind k) {
  switch (k) {
    case WorkKind::kForward: return "fwd";
    case WorkKind::kBackward: return "bwd";
    case WorkKind::kCurvatureA:
    case WorkKind::kCurvatureB: return "curv";
    case WorkKind::kInversionA:
    case WorkKind::kInversionB: return "inv";
    case WorkKind::kPrecondition: return "precond";
    case WorkKind::kOptimizerUpdate: return "opt";
    default: return "other";
  }
}

LaneTable lane_table(const Timeline& tl) {
  LaneTable t;
  const double t0 = tl.earliest_start(), t1 = tl.makespan();
  t.span = t1 - t0;
  t.lanes_x_span = t.span * static_cast<double>(tl.n_devices());
  double total = 0.0;
  for (std::size_t d = 0; d < tl.n_devices(); ++d) {
    for (const Interval& iv : tl.device_intervals(d)) {
      // Non-busy kinds (serving admission) are idle time, as in the
      // utilization metric; the gaps below do not include them.
      if (!counts_as_busy(iv.kind)) continue;
      t.busy[bucket_of(iv.kind)] += iv.duration();
      total += iv.duration();
    }
    for (const auto& g : tl.gaps(d, t0, t1)) t.idle += g.duration();
    for (const Interval& iv : tl.device_intervals(d))
      if (!counts_as_busy(iv.kind)) t.idle += iv.duration();
  }
  t.residual_share =
      t.lanes_x_span > 0.0
          ? std::fabs(total + t.idle - t.lanes_x_span) / t.lanes_x_span
          : 0.0;
  return t;
}

// Accumulates the per-layer lane table over traced steps (or serving
// micro-batches) and emits the train.* and common.* rows.
struct LaneAccumulator {
  std::map<std::string, double> busy;
  double idle = 0.0, span = 0.0, lanes_x_span = 0.0, wall = 0.0;
  double max_residual = 0.0;
  std::size_t units = 0;

  void add(const Timeline& tl, double wall_seconds, std::size_t n_units) {
    const LaneTable t = lane_table(tl);
    for (const auto& [k, v] : t.busy) busy[k] += v;
    idle += t.idle;
    span += t.span;
    lanes_x_span += t.lanes_x_span;
    wall += wall_seconds;
    max_residual = std::max(max_residual, t.residual_share);
    units += n_units;
  }

  void emit(Result& r, const char* unit_name) const {
    const double n = units > 0 ? static_cast<double>(units) : 1.0;
    say("  lane table per %s over %zu %ss:", unit_name, units, unit_name);
    for (const char* k : {"fwd", "bwd", "curv", "inv", "precond", "opt", "other"}) {
      const auto it = busy.find(k);
      const double v = it == busy.end() ? 0.0 : it->second / n;
      r.metric(std::string("train.") + k + "_busy_s_per_step", v, "s");
      say("    %-8s busy %10.6f s  (%5.1f%% of lane-busy)", k, v,
          lanes_x_span > idle ? 100.0 * v * n / (lanes_x_span - idle) : 0.0);
    }
    r.metric("train.bubble_s_per_step", idle / n, "s");
    r.metric("train.span_s_per_step", span / n, "s");
    r.metric("train.utilization",
             lanes_x_span > 0.0 ? 1.0 - idle / lanes_x_span : 0.0, "ratio");
    r.metric("train.attribution_residual_share", max_residual, "ratio");
    r.metric("common.executor_gap_s_per_step", (wall - span) / n, "s");
    say("    idle %.6f s, span %.6f s, executor gap %.6f s per %s; "
        "attribution residual %.3g",
        idle / n, span / n, (wall - span) / n, unit_name, max_residual);
  }
};

// ---------------------------------------------------------------------------
// Per-call layer timings at a workload's shapes (traced run only).
// ---------------------------------------------------------------------------

// Median seconds per call of fn(), each call timed alone after an untimed
// prep(); at least 5 calls and about `budget` seconds.
double seconds_per_call(const std::function<void()>& prep,
                        const std::function<void()>& fn, double budget) {
  prep();
  fn();  // warm-up
  std::vector<double> ts;
  const double end = now_seconds() + budget;
  while (ts.size() < 5 || (now_seconds() < end && ts.size() < 200000)) {
    prep();
    const double t0 = now_seconds();
    fn();
    ts.push_back(now_seconds() - t0);
  }
  return median(ts);
}

struct LayerShapes {
  std::size_t batch, seq, d_model, d_ff, heads, vocab;
  bool inference;  // serving: forwards skip the backward caches
  std::size_t rows() const { return batch * seq; }
};

void layer_timings(Result& r, const LayerShapes& s, double budget) {
  const std::size_t N = s.rows(), d = s.d_model, f = s.d_ff;
  const double Nd = static_cast<double>(N), dd = static_cast<double>(d),
               fd = static_cast<double>(f);
  say("  per-call layer timings at batch %zu x seq %zu (rows %zu), d_model "
      "%zu, d_ff %zu, heads %zu%s:",
      s.batch, s.seq, N, d, f, s.heads, s.inference ? ", inference" : "");
  Rng rng(kModelSeed);
  auto random = [&rng](std::size_t rows, std::size_t cols) {
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
    return m;
  };
  const ExecContext ctx = ExecContext::serial();
  // `work` is FLOPs (rate in GFLOP/s) or bytes (GB/s) per call, from shapes.
  auto row = [&](const std::string& name, double seconds, double work,
                 const char* rate_unit, const char* base) {
    const double rate = work / seconds / 1e9;
    r.metric(name + "_us", seconds * 1e6, "us");
    r.metric(name + (rate_unit[1] == 'F' ? "_gflops" : "_gbps"), rate,
             rate_unit);
    say("    %-22s %10.3f us/call %9.3f %s  (base %.4g per call: %s)",
        name.c_str(), seconds * 1e6, rate, rate_unit, work, base);
  };
  const Matrix x = random(N, d);
  const Matrix dy_d = random(N, d);

  {  // Attention: projections 8·N·d² plus scores and weighted sum 4·B·s²·d.
    MultiHeadSelfAttention attn(d, s.heads, rng, "bench.attn");
    const double flops = 8.0 * Nd * dd * dd +
                         4.0 * static_cast<double>(s.batch * s.seq * s.seq) * dd;
    row("nn.attention_fwd",
        seconds_per_call([] {}, [&] { (void)attn.forward(x, s.batch, s.seq, !s.inference, ctx); },
                         budget),
        flops, "GFLOP/s", "8Nd^2 + 4Bs^2d");
    row("nn.attention_bwd",
        seconds_per_call([&] { (void)attn.forward(x, s.batch, s.seq, true, ctx); },
                         [&] { (void)attn.backward(dy_d, ctx); }, budget),
        2.0 * flops, "GFLOP/s", "2x forward");
  }
  {  // LayerNorm: one read and one write of the activation.
    LayerNorm ln(d, "bench.ln");
    const double bytes = 2.0 * Nd * dd * sizeof(double);
    row("nn.layernorm_fwd",
        seconds_per_call([] {}, [&] { (void)ln.forward(x, !s.inference, ctx); }, budget),
        bytes, "GB/s", "2Nd doubles");
    row("nn.layernorm_bwd",
        seconds_per_call([&] { (void)ln.forward(x, true, ctx); },
                         [&] { (void)ln.backward(dy_d, ctx); }, budget),
        bytes, "GB/s", "2Nd doubles");
  }
  {  // Linear d -> d_ff: 2·N·d·f forward, dx and dW GEMMs backward.
    Linear lin(d, f, rng, "bench.linear");
    const Matrix dy_f = random(N, f);
    const double flops = 2.0 * Nd * dd * fd;
    row("nn.linear_fwd",
        seconds_per_call([] {}, [&] { (void)lin.forward(x, !s.inference, ctx); }, budget),
        flops, "GFLOP/s", "2Ndf");
    row("nn.linear_bwd",
        seconds_per_call([&] { (void)lin.forward(x, true, ctx); },
                         [&] { (void)lin.backward(dy_f, ctx); }, budget),
        2.0 * flops, "GFLOP/s", "4Ndf");
  }
  {  // Embedding: three table rows read and one output row written per token.
    Embedding emb(s.vocab, s.seq, d, rng, "bench.emb");
    std::vector<int> ids(N), seg(N);
    for (std::size_t i = 0; i < N; ++i) {
      ids[i] = static_cast<int>(rng.uniform_int(s.vocab));
      seg[i] = static_cast<int>(i / s.seq % 2);
    }
    const double bytes = 4.0 * Nd * dd * sizeof(double);
    row("nn.embedding_fwd",
        seconds_per_call([] {},
                         [&] { (void)emb.forward(ids, seg, s.batch, s.seq, !s.inference, ctx); },
                         budget),
        bytes, "GB/s", "4Nd doubles");
    row("nn.embedding_bwd",
        seconds_per_call([&] { (void)emb.forward(ids, seg, s.batch, s.seq, true, ctx); },
                         [&] { emb.backward(dy_d, ctx); }, budget),
        bytes, "GB/s", "4Nd doubles");
  }
  {  // MLM loss: softmax cross-entropy and its gradient in one call.
    const Matrix logits = random(N, s.vocab);
    std::vector<int> labels(N);
    for (std::size_t i = 0; i < N; ++i)
      labels[i] = i % 7 == 0 ? static_cast<int>(rng.uniform_int(s.vocab)) : -1;
    row("nn.loss",
        seconds_per_call([] {}, [&] { (void)softmax_cross_entropy(logits, labels, ctx); },
                         budget),
        2.0 * Nd * static_cast<double>(s.vocab) * sizeof(double), "GB/s",
        "2NV doubles (logits in, grad out)");
  }
  {  // K-FAC work items on one d -> d_ff layer.
    Linear lin(d, f, rng, "bench.kfac");
    const Matrix dy_f = random(N, f);
    (void)lin.forward(x, true, ctx);
    (void)lin.backward(dy_f, ctx);
    KfacOptions ko;
    KfacEngine eng({&lin}, ko);
    row("kfac.curvature_a",
        seconds_per_call([] {}, [&] { eng.accumulate_curvature_a(0, x); }, budget),
        2.0 * Nd * dd * dd, "GFLOP/s", "2Nd^2");
    row("kfac.curvature_b",
        seconds_per_call([] {}, [&] { eng.accumulate_curvature_b(0, dy_f); }, budget),
        2.0 * Nd * fd * fd, "GFLOP/s", "2Nf^2");
    eng.commit_curvature_layer(0);
    row("kfac.inverse_a",
        seconds_per_call([] {}, [&] { eng.update_inverse_factor(0, false); }, budget),
        dd * dd * dd, "GFLOP/s", "d^3 (Cholesky + inverse)");
    row("kfac.inverse_b",
        seconds_per_call([] {}, [&] { eng.update_inverse_factor(0, true); }, budget),
        fd * fd * fd, "GFLOP/s", "f^3 (Cholesky + inverse)");
    const Matrix grad = lin.weight().g;  // precondition rewrites it in place
    row("kfac.precondition",
        seconds_per_call([&] { lin.weight().g = grad; },
                         [&] { eng.precondition_layer(0); }, budget),
        2.0 * dd * dd * fd + 2.0 * dd * fd * fd, "GFLOP/s", "2d^2f + 2df^2");
  }
  {  // LAMB over a whole model of the workload's shape: w, g, m, v read and
     // w, m, v written per element.
    BertConfig mc;
    mc.vocab = s.vocab;
    mc.d_model = d;
    mc.d_ff = f;
    mc.n_heads = s.heads;
    mc.n_layers = 4;
    mc.seq_len = s.seq;
    Rng mrng(kModelSeed);
    BertModel model(mc, mrng);
    const auto params = model.params();
    double elems = 0.0;
    for (Param* p : params) {
      elems += static_cast<double>(p->size());
      for (std::size_t i = 0; i < p->size(); ++i)
        p->g.data()[i] = rng.normal(0.0, 1e-3);
    }
    Lamb lamb;
    row("optim.lamb_step",
        seconds_per_call([] {}, [&] { lamb.step(params, 1e-3); }, budget),
        7.0 * elems * sizeof(double), "GB/s", "7 doubles per parameter (4-layer model)");
  }
  {  // GEMM family at the Linear shape, single-threaded.
    const Matrix b = random(d, f), y = random(N, f), w = random(d, f);
    const double flops = 2.0 * Nd * dd * fd;
    row("linalg.matmul",
        seconds_per_call([] {}, [&] { (void)matmul(x, b, 1); }, budget), flops,
        "GFLOP/s", "2Ndf");
    row("linalg.matmul_tn",
        seconds_per_call([] {}, [&] { (void)matmul_tn(x, y, 1); }, budget), flops,
        "GFLOP/s", "2Ndf");
    row("linalg.matmul_nt",
        seconds_per_call([] {}, [&] { (void)matmul_nt(y, w, 1); }, budget), flops,
        "GFLOP/s", "2Ndf");
    Matrix spd = matmul_tn(y, y, 1);
    for (std::size_t i = 0; i < f; ++i) spd(i, i) += Nd;
    row("linalg.cholesky",
        seconds_per_call([] {}, [&] { (void)cholesky(spd, 1); }, budget),
        fd * fd * fd / 3.0, "GFLOP/s", "f^3/3");
  }
  {  // MLM batch generation for one micro-batch: ids, segments, labels.
    TrainData data(BertConfig{s.vocab, d, f, s.heads, 1, s.seq});
    Rng drng(kModelSeed);
    row("data.next_batch",
        seconds_per_call([] {}, [&] { (void)data.batcher.next_batch(s.batch, drng); },
                         budget),
        (3.0 * Nd + static_cast<double>(s.batch)) * sizeof(int), "GB/s",
        "3N+B ints");
  }
}

// Round trip of one boundary tensor through a channel pair, p50 seconds.
double round_trip_p50(Channel& ab, Channel& ba, std::size_t rows,
                      std::size_t cols, int iters) {
  const int warmup = 32, total = iters + warmup;
  std::thread echo([&] {
    for (int i = 0; i < total; ++i) ba.send(i, ab.recv(i, 30.0));
  });
  std::vector<double> rtt;
  Matrix payload(rows, cols, 0.5);
  for (int i = 0; i < total; ++i) {
    const double t0 = now_seconds();
    ab.send(i, std::move(payload));
    payload = ba.recv(i, 30.0);
    if (i >= warmup) rtt.push_back(now_seconds() - t0);
  }
  echo.join();
  return median(rtt);
}

void channel_timings(Result& r, std::size_t rows, std::size_t cols) {
  StageChannel m_ab("rtt-mutex[a->b]"), m_ba("rtt-mutex[b->a]");
  const double mutex_rtt = round_trip_p50(m_ab, m_ba, rows, cols, 400);
  const std::size_t slot = wire_bytes(rows, cols);
  SharedRegion reg_ab(ShmRing::required_bytes(2, slot));
  SharedRegion reg_ba(ShmRing::required_bytes(2, slot));
  TransportChannel t_ab("rtt-ring[a->b]",
                        ShmRing::create(reg_ab.data(), 2, slot, "rtt-ring[a->b]"));
  TransportChannel t_ba("rtt-ring[b->a]",
                        ShmRing::create(reg_ba.data(), 2, slot, "rtt-ring[b->a]"));
  const double ring_rtt = round_trip_p50(t_ab, t_ba, rows, cols, 400);
  r.metric("comm.stage_channel_rtt_us", mutex_rtt * 1e6, "us");
  r.metric("comm.transport_rtt_us", ring_rtt * 1e6, "us");
  say("  send+recv round trip of a %zux%zu boundary tensor (p50 of 400): "
      "StageChannel %.2f us, TransportChannel %.2f us",
      rows, cols, mutex_rtt * 1e6, ring_rtt * 1e6);
}

// Boundary bytes per training step: every micro crosses each boundary once
// forward (activations) and once backward (their gradients).
double train_wire_bytes_per_step(const TrainShape& sh) {
  return 2.0 * (sh.n_stages - 1) * sh.n_micro *
         static_cast<double>(
             wire_bytes(sh.micro_batch * sh.model.seq_len, sh.model.d_model));
}

void no_handoff_rows(Result& r) {
  r.metric("comm.blocked_waits_per_step", 0.0, "count");
  r.metric("comm.wait_s_per_step", 0.0, "s");
  r.metric("comm.wait_p50_us", 0.0, "us");
  r.metric("comm.wait_p95_us", 0.0, "us");
}

void no_serve_rows(Result& r) {
  for (const char* n : {"serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99",
                        "serve.service_ms_p50"})
    r.metric(n, 0.0, "ms");
  r.metric("serve.batch_fill", 0.0, "ratio");
  r.metric("serve.refill_in_flight_share", 0.0, "ratio");
  r.metric("serve.lane0_admission_us_per_request", 0.0, "us");
  r.metric("loadgen.lag_ms_p99", 0.0, "ms");
}

void trace_rows(Result& r, double overhead_ms, const std::vector<long>& units) {
  const auto self = pfbench::self_times(r.tracer.spans());
  double self_sum = 0.0, dur_sum = 0.0;
  for (const long i : units) {
    self_sum += self[static_cast<std::size_t>(i)];
    dur_sum += r.tracer.spans()[static_cast<std::size_t>(i)].duration();
  }
  const double share = dur_sum > 0.0 ? self_sum / dur_sum : 0.0;
  r.metric("trace.overhead_ms_p50", overhead_ms, "ms");
  r.metric("trace.unattributed_share", share, "ratio");
  say("  tracing: %zu spans; unattributed share of traced unit wall time "
      "%.4f (self time of %zu unit spans over their duration); overhead "
      "traced - untraced p50 = %+.4f ms",
      r.tracer.spans().size(), share, units.size(), overhead_ms);
}

// Adds the executed Timeline's intervals under `parent` (anchored at the
// parent's start: the Timeline is relative to executor start, which the
// public API does not expose; self time does not depend on the anchor).
void nest_timeline(pfbench::Tracer& tr, const Timeline& tl, long parent,
                   double anchor) {
  if (!tr.enabled()) return;
  for (std::size_t d = 0; d < tl.n_devices(); ++d)
    for (const Interval& iv : tl.device_intervals(d))
      tr.add(work_kind_name(iv.kind), anchor + iv.start, anchor + iv.end,
             parent, iv.micro, static_cast<int>(d) + 1);
}

// ---------------------------------------------------------------------------
// kfac-bubbles
// ---------------------------------------------------------------------------

struct StepWindow {
  std::vector<double> step_s, loss;
  std::vector<long> spans;
  double rss_mib = 0.0;  // peak RSS once kRssSteps steps have run
};

StepWindow run_steps(PipelineRuntime& rt, double seconds, Result& r,
                     bool traced, LaneAccumulator* lanes,
                     std::vector<PipelineRuntime::StageMemoryStats>* mem) {
  StepWindow w;
  pfbench::Tracer& tr = r.tracer;
  const double end = now_seconds() + seconds;
  do {
    const double t0 = now_seconds();
    const BertLossBreakdown l = rt.step();
    const double t1 = now_seconds();
    ++r.attempted;
    w.step_s.push_back(t1 - t0);
    w.loss.push_back(l.total);
    if (w.step_s.size() == kRssSteps) w.rss_mib = pfbench::peak_rss_mib();
    if (traced) {
      const long step = static_cast<long>(rt.steps_taken()) - 1;
      const long sp = tr.add("PipelineRuntime::step", t0, t1, -1, step);
      nest_timeline(tr, rt.last_executed_timeline(), sp, t0);
      w.spans.push_back(sp);
      lanes->add(rt.last_executed_timeline(), t1 - t0, 1);
      const auto& st = rt.memory_stats();
      mem->insert(mem->end(), st.begin(), st.end());
    }
  } while (now_seconds() < end);
  return w;
}

void memory_rows(Result& r,
                 const std::vector<PipelineRuntime::StageMemoryStats>& mem) {
  std::size_t peak = 0;
  double recycled = 0.0, fresh = 0.0;
  for (const auto& m : mem) {
    peak = std::max(peak, m.peak_stash_bytes);
    recycled += static_cast<double>(m.arena_recycled);
    fresh += static_cast<double>(m.arena_fresh);
  }
  const double share = recycled + fresh > 0.0 ? recycled / (recycled + fresh) : 0.0;
  r.metric("common.peak_stash_bytes", static_cast<double>(peak), "bytes");
  r.metric("common.arena_recycle_share", share, "ratio");
  say("  memory: peak stash %zu bytes (max over stages and steps), arena "
      "recycled/(recycled+fresh) = %.0f/%.0f = %.4f",
      peak, recycled, recycled + fresh, share);
}

// Losses of the first `steps` steps from the serial Trainer with the
// runtime's exact configuration: the bitwise reference.
std::vector<double> serial_kfac_losses(const TrainShape& sh, TrainData& data,
                                       std::uint64_t data_seed,
                                       std::size_t steps) {
  Rng rng(kModelSeed);
  BertModel model(sh.model, rng);
  TrainerConfig tc;
  tc.batch_size = sh.micro_batch;
  tc.accumulation_steps = static_cast<std::size_t>(sh.n_micro);
  tc.total_steps = steps;
  tc.schedule = PolyWarmupSchedule(kLearningRate, 0, kLrHorizon);
  tc.data_seed = data_seed;
  KfacOptimizerOptions o;
  o.inverse_interval = 3;
  o.per_micro_curvature = true;
  Trainer trainer(model, data.batcher,
                  std::make_unique<KfacOptimizer>(model.kfac_linears(),
                                                  std::make_unique<Lamb>(), o),
                  tc);
  std::vector<double> out;
  for (std::size_t i = 0; i < steps; ++i) out.push_back(trainer.step().total);
  return out;
}

void report_training(Result& r, const TrainShape& sh, const char* what,
                     const std::vector<double>& setup_s,
                     const std::vector<double>& step_s,
                     const std::vector<double>& loss) {
  const double sequences = static_cast<double>(sh.n_micro) *
                           static_cast<double>(sh.micro_batch);
  double total = 0.0;
  for (const double s : step_s) total += s;
  // Time to target: the steps the arithmetic needs (fixed by the seed)
  // times the run's median step, so one slow stretch early in the run does
  // not decide it; the measured wall time is printed alongside.
  const long at = steps_to_target(loss, sh.target_loss);
  r.check(at >= 0, "smoothed loss never reached the target");
  const double ttt = static_cast<double>(at + 1) * percentile_nearest_rank(step_s, 50);
  double measured_ttt = 0.0;
  for (long i = 0; i <= at; ++i) measured_ttt += step_s[static_cast<std::size_t>(i)];
  // Rates and the tail read medians, so a burst of host contention inside
  // the window moves them little: throughput at the median step, the p90
  // as the median over 100-step windows (each with ten steps beyond).
  const double samples_per_s = sequences / percentile_nearest_rank(step_s, 50);
  const double tail = pfbench::windowed_percentile(step_s, kTailWindow, 90);
  say("end-to-end (%s, %zu sequences per step):", what,
      static_cast<std::size_t>(sequences));
  say_timing("setup_s", setup_s, 50, 1.0, "s");
  say_timing("step_s_p50", step_s, 50, 1.0, "s");
  say_timing("step_s_p90", step_s, 90, 1.0, "s");
  say("  %-26s %12.6g %-4s (median over %zu-step windows of each window's "
      "p90)",
      "step_s_p90_windowed", tail, "s", kTailWindow);
  say("  %-26s %12.6g %-4s (at the median step; %zu steps in %.3f s = %.6g)",
      "samples_per_s", samples_per_s, "1/s", step_s.size(), total,
      sequences * static_cast<double>(step_s.size()) / total);
  say("  %-26s %12.6g %-4s (trailing-%zu mean loss <= %.2f after %ld of %zu "
      "steps x step p50; measured wall %.4f s)",
      "time_to_target_loss_s", ttt, "s", kLossWindow, sh.target_loss, at + 1,
      loss.size(), measured_ttt);
  r.metric("setup_s", median(setup_s), "s");
  r.metric("latency_ms_p50", percentile_nearest_rank(step_s, 50) * 1e3, "ms");
  r.metric("latency_ms_tail", tail * 1e3, "ms");
  r.metric("throughput_per_s", samples_per_s, "1/s");
  r.metric("time_to_target_s", ttt, "s");
}

void kfac_bubbles(Result& r, std::uint64_t seed, double seconds, bool trace) {
  const TrainShape& sh = kKfacBubbles;
  const std::uint64_t data_seed = pfbench::input_seed(seed, "train-data");

  // Set-up, nine times: corpus, batcher, model and runtime (pool, stage
  // partition, K-FAC engines, arenas, channels). The last one is timed.
  std::vector<double> setup_s;
  std::unique_ptr<TrainData> data;
  std::unique_ptr<BertModel> model;
  std::unique_ptr<PipelineRuntime> rt;
  for (int i = 0; i < 9; ++i) {
    rt.reset();
    const double t0 = now_seconds();
    data = std::make_unique<TrainData>(sh.model);
    Rng rng(kModelSeed);
    model = std::make_unique<BertModel>(sh.model, rng);
    rt = std::make_unique<PipelineRuntime>(
        *model, data->batcher, runtime_config(sh, data_seed, kLrHorizon, true));
    setup_s.push_back(now_seconds() - t0);
  }

  const double untraced_share = trace ? 0.3 : 1.0;
  StepWindow w = run_steps(*rt, seconds * untraced_share, r, false, nullptr, nullptr);

  // Correctness, outside the timed window: the first steps (two inversion
  // steps, 0 and 3) bitwise equal to the serial Trainer.
  const std::size_t prefix = 4;
  r.check(w.loss.size() >= prefix, "fewer steps than the checked prefix");
  if (w.loss.size() >= prefix) {
    const auto want = serial_kfac_losses(sh, *data, data_seed, prefix);
    const std::vector<double> got(w.loss.begin(), w.loss.begin() + prefix);
    r.check(bitwise_equal(got, want),
            "kfac-bubbles losses differ from the serial Trainer");
    say("check: first %zu step losses bitwise equal to the serial Trainer: %s",
        prefix, bitwise_equal(got, want) ? "yes" : "NO");
  }

  if (!trace) {
    report_training(r, sh, "kfac-bubbles", setup_s, w.step_s, w.loss);
    r.check(w.step_s.size() >= kRssSteps, "fewer steps than the RSS reading");
    r.peak_rss_mib = w.rss_mib;
    say("  %-26s %12.6g %-4s (after the first %zu steps)", "peak_rss_mib",
        w.rss_mib, "MiB", kRssSteps);
    return;
  }

  // Traced window, continuing the same run.
  LaneAccumulator lanes;
  std::vector<PipelineRuntime::StageMemoryStats> mem;
  const StepWindow tw = run_steps(*rt, seconds * 0.3, r, true, &lanes, &mem);
  const double overhead_ms =
      (percentile_nearest_rank(tw.step_s, 50) - percentile_nearest_rank(w.step_s, 50)) * 1e3;
  say("per-layer (traced window of %zu steps after %zu untraced):",
      tw.step_s.size(), w.step_s.size());
  lanes.emit(r, "step");
  r.check(lanes.max_residual < 1e-9,
          "attribution: per-kind busy + idle != lanes x span");
  say("check: per-kind lane-busy + idle == lanes x step span: %s",
      lanes.max_residual < 1e-9 ? "yes" : "NO");
  memory_rows(r, mem);

  // K-FAC overhead over LAMB at the same shape.
  {
    Rng rng(kModelSeed);
    BertModel lamb_model(sh.model, rng);
    PipelineRuntime lamb_rt(lamb_model, data->batcher,
                            runtime_config(sh, data_seed, kLrHorizon, false));
    Result scratch;
    const StepWindow lw =
        run_steps(lamb_rt, seconds * 0.15, scratch, false, nullptr, nullptr);
    const double kfac_p50 = percentile_nearest_rank(w.step_s, 50);
    const double lamb_p50 = percentile_nearest_rank(lw.step_s, 50);
    r.metric("kfac.step_overhead_ratio", kfac_p50 / lamb_p50, "ratio");
    r.metric("kfac.lamb_step_ms_p50", lamb_p50 * 1e3, "ms");
    say("  K-FAC step p50 %.3f ms over LAMB step p50 %.3f ms (n=%zu) = %.4f",
        kfac_p50 * 1e3, lamb_p50 * 1e3, lw.step_s.size(), kfac_p50 / lamb_p50);
  }
  no_handoff_rows(r);
  r.metric("comm.wire_bytes_per_step", train_wire_bytes_per_step(sh), "bytes");
  channel_timings(r, sh.micro_batch * sh.model.seq_len, sh.model.d_model);
  no_serve_rows(r);
  layer_timings(r,
                {sh.micro_batch, sh.model.seq_len, sh.model.d_model,
                 sh.model.d_ff, sh.model.n_heads, sh.model.vocab, false},
                0.08);
  trace_rows(r, overhead_ms, tw.spans);
}

// ---------------------------------------------------------------------------
// lamb-multiproc
// ---------------------------------------------------------------------------

struct CallWindow {
  std::vector<double> setup_s, step_s, loss;
  std::vector<long> spans;
  std::vector<MultiprocHandoff> handoff;
};

// Repeated one-step run_multiproc calls until `seconds` pass. Training
// continues across calls: each call starts from the previous call's
// parameters (LAMB moments restart) on the next slice of the data stream.
// Per call, the slowest child's step loop is the step sample and the rest
// of the call (fork, child build, join) the set-up sample.
CallWindow run_calls(BertModel& model, TrainData& data, std::uint64_t data_seed,
                     std::uint64_t first_call, double seconds, Result& r,
                     bool traced) {
  const TrainShape& sh = kLambMultiproc;
  CallWindow w;
  const auto params = model.params();
  const double end = now_seconds() + seconds;
  std::uint64_t call = first_call;
  do {
    MultiprocConfig mc;
    mc.runtime = runtime_config(sh, data_seed + call, kLrHorizon, false);
    mc.runtime.total_steps = 1;
    mc.channel_timeout_seconds = 30.0;
    r.check(pfbench::thread_count() == 1,
            "a thread exists before run_multiproc forks");
    ++call;
    const double t0 = now_seconds();
    const MultiprocResult res = run_multiproc(model, data.batcher, mc);
    const double t1 = now_seconds();
    w.step_s.push_back(res.wall_seconds);
    w.setup_s.push_back(t1 - t0 - res.wall_seconds);
    w.loss.push_back(res.trace.loss.at(0));
    w.handoff.insert(w.handoff.end(), res.handoff.begin(), res.handoff.end());
    PF_CHECK(res.params.size() == params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      PF_CHECK(res.params[i].size() == params[i]->size());
      std::copy(res.params[i].begin(), res.params[i].end(), params[i]->w.data());
    }
    if (traced) {
      const long sp = r.tracer.add("run_multiproc", t0, t1, -1,
                                   static_cast<long>(call - 1));
      r.tracer.add("child step loop (slowest)", t0, t0 + res.wall_seconds, sp,
                   static_cast<long>(call - 1), 1);
      w.spans.push_back(sp);
    }
  } while (now_seconds() < end);
  return w;
}

void lamb_multiproc(Result& r, std::uint64_t seed, double seconds, bool trace) {
  const TrainShape& sh = kLambMultiproc;
  const std::uint64_t data_seed = pfbench::input_seed(seed, "train-data");
  TrainData data(sh.model);
  Rng rng(kModelSeed);
  BertModel model(sh.model, rng);

  // Everything that forks runs first, while this process has one thread.
  const double untraced_share = trace ? 0.35 : 1.0;
  const CallWindow w = run_calls(model, data, data_seed, 0,
                                 seconds * untraced_share, r, false);
  CallWindow tw;
  if (trace)
    tw = run_calls(model, data, data_seed, w.step_s.size(), seconds * 0.35, r,
                   true);

  // Correctness subject: a fresh 3-step forked run.
  Rng crng(kModelSeed);
  BertModel check_model(sh.model, crng);
  MultiprocConfig mc;
  mc.runtime = runtime_config(sh, data_seed, 3, false);
  mc.channel_timeout_seconds = 30.0;
  r.check(pfbench::thread_count() == 1, "a thread exists before run_multiproc forks");
  const MultiprocResult forked = run_multiproc(check_model, data.batcher, mc);

  // Threads may exist from here on. The in-process reference:
  {
    Rng irng(kModelSeed);
    BertModel ref_model(sh.model, irng);
    PipelineRuntime ref(ref_model, data.batcher, mc.runtime);
    const TrainTrace trace_ref = ref.run();
    const auto ps = ref_model.params();
    bool params_equal = forked.params.size() == ps.size();
    for (std::size_t i = 0; params_equal && i < ps.size(); ++i)
      params_equal = forked.params[i].size() == ps[i]->size() &&
                     std::memcmp(forked.params[i].data(), ps[i]->w.data(),
                                 ps[i]->size() * sizeof(double)) == 0;
    const bool losses_equal = bitwise_equal(forked.trace.loss, trace_ref.loss);
    r.check(losses_equal, "lamb-multiproc losses differ from the in-process runtime");
    r.check(params_equal, "lamb-multiproc params differ from the in-process runtime");
    say("check: 3-step forked losses and params bitwise equal to the "
        "in-process runtime: %s / %s",
        losses_equal ? "yes" : "NO", params_equal ? "yes" : "NO");
  }

  if (!trace) {
    report_training(r, sh, "lamb-multiproc, 2 forked processes", w.setup_s,
                    w.step_s, w.loss);
    return;
  }

  say("per-layer (traced window of %zu calls after %zu untraced):",
      tw.step_s.size(), w.step_s.size());
  // Forked children expose no Timeline; the lane table comes from the
  // in-process runtime over the same shm rings at the identical shape.
  {
    Rng prng(kModelSeed);
    BertModel proxy_model(sh.model, prng);
    PipelineRuntimeConfig pc = runtime_config(sh, data_seed, kLrHorizon, false);
    pc.transport = "shm";
    PipelineRuntime proxy(proxy_model, data.batcher, pc);
    LaneAccumulator lanes;
    std::vector<PipelineRuntime::StageMemoryStats> mem;
    Result warmup;
    run_steps(proxy, seconds * 0.1, warmup, false, nullptr, nullptr);
    run_steps(proxy, seconds * 0.05, r, true, &lanes, &mem);
    say("  (lane table and memory from the in-process runtime over shm rings "
        "at this shape; forked children expose no Timeline)");
    lanes.emit(r, "step");
    memory_rows(r, mem);
  }
  r.metric("kfac.step_overhead_ratio", 0.0, "ratio");
  r.metric("kfac.lamb_step_ms_p50", percentile_nearest_rank(tw.step_s, 50) * 1e3, "ms");

  double waits = 0.0, wait_s = 0.0;
  std::vector<double> p50s, p95s;
  for (const auto& h : tw.handoff) {
    waits += static_cast<double>(h.waits);
    wait_s += static_cast<double>(h.waits) * h.wait_mean;
    if (h.waits > 0) {
      p50s.push_back(h.wait_p50);
      p95s.push_back(h.wait_p95);
    }
  }
  const double steps = static_cast<double>(tw.step_s.size());
  r.metric("comm.blocked_waits_per_step", waits / steps, "count");
  r.metric("comm.wait_s_per_step", wait_s / steps, "s");
  r.metric("comm.wait_p50_us", p50s.empty() ? 0.0 : median(p50s) * 1e6, "us");
  r.metric("comm.wait_p95_us", p95s.empty() ? 0.0 : median(p95s) * 1e6, "us");
  say("  handoff: %.2f blocked ring waits per step, %.6f s waiting per step, "
      "per-ring wait p50 %.1f us / p95 %.1f us (median over %zu ring-calls)",
      waits / steps, wait_s / steps, p50s.empty() ? 0.0 : median(p50s) * 1e6,
      p95s.empty() ? 0.0 : median(p95s) * 1e6, p50s.size());
  r.metric("comm.wire_bytes_per_step", train_wire_bytes_per_step(sh), "bytes");
  channel_timings(r, sh.micro_batch * sh.model.seq_len, sh.model.d_model);
  no_serve_rows(r);
  layer_timings(r,
                {sh.micro_batch, sh.model.seq_len, sh.model.d_model,
                 sh.model.d_ff, sh.model.n_heads, sh.model.vocab, false},
                0.08);
  const double overhead_ms =
      (percentile_nearest_rank(tw.step_s, 50) - percentile_nearest_rank(w.step_s, 50)) * 1e3;
  trace_rows(r, overhead_ms, tw.spans);
}

// ---------------------------------------------------------------------------
// serve-openloop
// ---------------------------------------------------------------------------

struct OpenLoopWindow {
  std::vector<InferRequest> sent;  // by id - first_id
  ServingReport report;
  pfbench::OpenLoopResult gen;
  double run_start = 0.0, run_end = 0.0;
};

OpenLoopWindow open_loop(ServingEngine& engine, std::uint64_t seed,
                         std::uint64_t first_id, double seconds) {
  const ServeShape& sh = kServe;
  const auto offsets = pfbench::fixed_rate_arrivals(sh.rate_rps, seconds);
  auto requests = pfbench::make_requests(
      pfbench::input_seed(seed, "open-loop-requests") + first_id,
      offsets.size(), sh.model.vocab, sh.model.seq_len, first_id);
  OpenLoopWindow w;
  w.sent = requests;
  RequestQueue queue;
  // First arrival a little in the future, so the engine is waiting for it.
  const double origin = now_seconds() + 0.01;
  std::thread producer([&] {
    w.gen = pfbench::run_open_loop(queue, std::move(requests), offsets, origin);
  });
  w.run_start = now_seconds();
  try {
    w.report = engine.run(queue);
  } catch (...) {
    queue.close();
    producer.join();
    throw;
  }
  w.run_end = now_seconds();
  producer.join();
  return w;
}

void serve_openloop(Result& r, std::uint64_t seed, double seconds, bool trace) {
  const ServeShape& sh = kServe;
  ServingEngineConfig ec;
  ec.n_stages = sh.n_stages;
  ec.max_batch = sh.max_batch;
  ec.workers = sh.workers;
  ec.transport = "inproc";

  std::vector<double> setup_s;
  std::unique_ptr<BertModel> model;
  std::unique_ptr<ServingEngine> engine;
  for (int i = 0; i < 9; ++i) {
    engine.reset();
    const double t0 = now_seconds();
    Rng rng(kModelSeed);
    model = std::make_unique<BertModel>(sh.model, rng);
    engine = std::make_unique<ServingEngine>(*model, ec);
    setup_s.push_back(now_seconds() - t0);
  }
  // Untimed warm-up replays: allocator and cache warm-up would otherwise
  // land on the first open-loop requests.
  for (int i = 0; i < 2; ++i) {
    RequestQueue q;
    q.push_all(pfbench::make_requests(pfbench::input_seed(seed, "warmup"), 200,
                                      sh.model.vocab, sh.model.seq_len));
    q.close();
    (void)engine->run(q);
  }

  // Phase 1: open loop at a fixed rate.
  const double open_s = seconds * sh.open_loop_share * (trace ? 0.5 : 1.0);
  const OpenLoopWindow ol = open_loop(*engine, seed, 0, open_s);
  std::vector<double> latency;
  const std::size_t n_sent = ol.sent.size();
  std::size_t slo_miss = n_sent - ol.report.records.size();  // lost = missed
  for (const auto& rec : ol.report.records) {
    latency.push_back(rec.latency());
    if (rec.latency() * 1e3 > sh.slo_ms) ++slo_miss;
  }
  r.attempted += n_sent;
  r.failed += n_sent - ol.report.records.size();
  PF_CHECK(!latency.empty()) << "the open loop served no request";

  // Phase 2: saturation replays of a fixed request set, at least three.
  std::vector<double> replay_rps, replay_s, replay_p99;
  std::vector<ServingReport> replays;
  const auto replay_set = pfbench::make_requests(
      pfbench::input_seed(seed, "replay-requests"), sh.replay_requests,
      sh.model.vocab, sh.model.seq_len, 1u << 30);
  const double sat_end =
      now_seconds() + seconds * (1.0 - sh.open_loop_share) * (trace ? 0.5 : 1.0);
  while (replay_rps.size() < 3 || now_seconds() < sat_end) {
    RequestQueue q;
    q.push_all(replay_set);
    q.close();
    ServingReport rep = engine->run(q);
    r.attempted += replay_set.size();
    r.failed += replay_set.size() - rep.records.size();
    replay_rps.push_back(rep.throughput_rps);
    replay_s.push_back(rep.wall_seconds);
    std::vector<double> lat;
    for (const auto& rec : rep.records) lat.push_back(rec.latency());
    replay_p99.push_back(percentile_nearest_rank(lat, 99));
    if (replays.empty()) replays.push_back(std::move(rep));
  }

  // Correctness, outside the timed phases: sampled per-request logits
  // bitwise equal to a one-request BertModel::forward.
  {
    std::size_t checked = 0, mismatched = 0;
    auto verify = [&](const std::vector<InferRequest>& sent,
                      const ServingReport& rep, std::uint64_t first_id) {
      const std::size_t stride = std::max<std::size_t>(1, rep.records.size() / 16);
      for (std::size_t i = 0; i < rep.records.size(); i += stride) {
        const RequestRecord& rec = rep.records[i];
        const InferRequest& req = sent[rec.id - first_id];
        const BertBatch b = make_inference_batch({req}, sh.model.seq_len, 0);
        const BertInferOutput want = model->forward(b, false);
        ++checked;
        const bool ok = bitwise_equal(rec.output.mlm_logits, want.mlm_logits) &&
                        bitwise_equal(rec.output.nsp_logits, want.nsp_logits);
        if (!ok) ++mismatched;
        r.check(ok, "served logits differ from a one-request forward");
      }
    };
    verify(ol.sent, ol.report, 0);
    verify(replay_set, replays.front(), 1u << 30);
    say("check: %zu sampled requests' logits bitwise equal to a one-request "
        "BertModel::forward: %s",
        checked, mismatched == 0 ? "yes" : "NO");
  }

  const double slo_miss_rate =
      static_cast<double>(slo_miss) / static_cast<double>(n_sent);
  if (!trace) {
    say("end-to-end (serve-openloop; open loop %.1f s at %.0f rps, "
        "then %zu saturation replays of %zu requests):",
        open_s, sh.rate_rps, replay_rps.size(), sh.replay_requests);
    say_timing("setup_s", setup_s, 50, 1.0, "s");
    say_timing("latency_ms_p50", latency, 50, 1e3, "ms");
    say_timing("latency_ms_p99", latency, 99, 1e3, "ms");
    say("  %-26s %12.6g %-4s (median of %zu replays of each replay's p99, "
        "n=%zu each)",
        "saturation_latency_ms_p99", median(replay_p99) * 1e3, "ms",
        replay_p99.size(), sh.replay_requests);
    say("  %-26s %12.6g %-4s (median of %zu replays)", "saturation_rps",
        median(replay_rps), "1/s", replay_rps.size());
    say("  %-26s %12.6g %-4s (median of %zu replays of %zu requests)",
        "time_to_serve_replay_s", median(replay_s), "s", replay_s.size(),
        sh.replay_requests);
    say("  %-26s %12.6g %-4s (%zu of %zu sent over %.0f ms or lost)",
        "slo_miss_rate", slo_miss_rate, "", slo_miss, n_sent, sh.slo_ms);
    say("  %-26s %12.6g %-4s (n=%zu, generator lag)", "loadgen.lag_ms_p99",
        percentile_nearest_rank(ol.gen.lag, 99) * 1e3, "ms", ol.gen.lag.size());
    r.metric("setup_s", median(setup_s), "s");
    r.metric("latency_ms_p50", percentile_nearest_rank(latency, 50) * 1e3, "ms");
    // The gated tail is the saturation p99: the open loop's p99 tracks the
    // hypervisor's steal share (README.md), not the program.
    r.metric("latency_ms_tail", median(replay_p99) * 1e3, "ms");
    r.metric("throughput_per_s", median(replay_rps), "1/s");
    r.metric("time_to_target_s", median(replay_s), "s");
    return;
  }

  // Traced open loop, same rate and length as the untraced one.
  const OpenLoopWindow tol = open_loop(*engine, seed, 1u << 20, open_s);
  r.attempted += tol.sent.size();
  r.failed += tol.sent.size() - tol.report.records.size();
  pfbench::Tracer& tr = r.tracer;
  const ServingReport& rep = tol.report;
  const long run_span = tr.add("ServingEngine::run", tol.run_start, tol.run_end);
  nest_timeline(tr, rep.timeline, run_span, tol.run_start);
  std::vector<double> tlat, qwait, service;
  for (const auto& rec : rep.records) {
    // Record times are relative to run() entry; due = enqueue.
    const double base = tol.gen.due[rec.id - (1u << 20)] - rec.enqueue;
    const long sp = tr.add("request", base + rec.enqueue, base + rec.complete,
                           -1, static_cast<long>(rec.id), 10);
    tr.add("queue_wait", base + rec.enqueue, base + rec.admit, sp,
           static_cast<long>(rec.id), 10);
    tr.add("service", base + rec.admit, base + rec.complete, sp,
           static_cast<long>(rec.id), 10);
    tlat.push_back(rec.latency());
    qwait.push_back(rec.admit - rec.enqueue);
    service.push_back(rec.complete - rec.admit);
  }
  say("per-layer (traced open loop of %zu requests after %zu untraced):",
      rep.records.size(), latency.size());
  LaneAccumulator lanes;
  lanes.add(rep.timeline, tol.run_end - tol.run_start, rep.n_micros);
  say("  (a serving step is one micro-batch; only forwards run)");
  lanes.emit(r, "micro-batch");
  r.metric("common.peak_stash_bytes", 0.0, "bytes");
  r.metric("common.arena_recycle_share", 0.0, "ratio");
  r.metric("kfac.step_overhead_ratio", 0.0, "ratio");
  r.metric("kfac.lamb_step_ms_p50", 0.0, "ms");
  no_handoff_rows(r);
  double wire = 0.0;
  {
    std::map<int, std::size_t> per_micro;
    for (const auto& rec : rep.records) ++per_micro[rec.micro];
    for (const auto& [m, n] : per_micro)
      wire += static_cast<double>(sh.n_stages - 1) *
              static_cast<double>(wire_bytes(n * sh.model.seq_len, sh.model.d_model));
    wire /= static_cast<double>(std::max<std::size_t>(1, per_micro.size()));
  }
  r.metric("comm.wire_bytes_per_step", wire, "bytes");
  channel_timings(r, sh.max_batch * sh.model.seq_len, sh.model.d_model);

  double admission_s = 0.0;
  for (const Interval& iv : rep.timeline.device_intervals(0))
    if (iv.kind == WorkKind::kAdmission) admission_s += iv.duration();
  const double n_req = static_cast<double>(rep.records.size());
  r.metric("serve.queue_wait_ms_p50", percentile_nearest_rank(qwait, 50) * 1e3, "ms");
  r.metric("serve.queue_wait_ms_p99", percentile_nearest_rank(qwait, 99) * 1e3, "ms");
  r.metric("serve.service_ms_p50", percentile_nearest_rank(service, 50) * 1e3, "ms");
  r.metric("serve.batch_fill",
           static_cast<double>(rep.admitted_total) /
               static_cast<double>(rep.n_micros * sh.max_batch),
           "ratio");
  r.metric("serve.refill_in_flight_share",
           static_cast<double>(rep.slots_refilled_in_flight) /
               static_cast<double>(rep.admitted_total),
           "ratio");
  r.metric("serve.lane0_admission_us_per_request", admission_s / n_req * 1e6, "us");
  r.metric("loadgen.lag_ms_p99", percentile_nearest_rank(tol.gen.lag, 99) * 1e3, "ms");
  say("  queue wait p50 %.3f ms / p99 %.3f ms, service p50 %.3f ms, batch fill "
      "%zu/(%zu micros x %zu), slot refills in flight %zu of %zu admitted, "
      "lane-0 admission %.3f s, generator lag p99 %.3f ms",
      percentile_nearest_rank(qwait, 50) * 1e3, percentile_nearest_rank(qwait, 99) * 1e3,
      percentile_nearest_rank(service, 50) * 1e3, rep.admitted_total, rep.n_micros,
      sh.max_batch, rep.slots_refilled_in_flight, rep.admitted_total,
      admission_s, percentile_nearest_rank(tol.gen.lag, 99) * 1e3);
  layer_timings(r,
                {sh.max_batch, sh.model.seq_len, sh.model.d_model, sh.model.d_ff,
                 sh.model.n_heads, sh.model.vocab, true},
                0.08);
  trace_rows(r, (percentile_nearest_rank(tlat, 50) - percentile_nearest_rank(latency, 50)) * 1e3,
             {run_span});
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_dir = ".";
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (!end || *end != '\0') a->seconds = 0.0;
    } else if (k == "--trace") {
      a->trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed &&
         a->seconds > 0.0 && a->seconds <= 120.0 && a->trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pfbench_runner --workload <kfac-bubbles|lamb-multiproc|"
                 "serve-openloop> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>]\n");
    return 2;
  }
  const std::map<std::string, void (*)(Result&, std::uint64_t, double, bool)>
      workloads = {{"kfac-bubbles", kfac_bubbles},
                   {"lamb-multiproc", lamb_multiproc},
                   {"serve-openloop", serve_openloop}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const pfbench::Environment env = pfbench::probe_environment();
  say("pfbench %s seed=%llu seconds=%g trace=%d", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  say("env: %s", env.describe().c_str());
  if (!env.knobs_set.empty()) {
    std::fprintf(stderr,
                 "refusing to run: library knobs are set (%s); each one "
                 "measures a different program. Unset them.\n",
                 env.describe().c_str());
    return 2;
  }

  Result r;
  r.tracer = pfbench::Tracer(args.trace == 1);
  const pfbench::CpuTicks ticks_before = pfbench::cpu_ticks();
  try {
    it->second(r, args.seed, args.seconds, args.trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace == 0) {
    if (r.peak_rss_mib == 0.0) {
      r.peak_rss_mib = pfbench::peak_rss_mib();
      say("  %-26s %12.6g %-4s (this process and its children)",
          "peak_rss_mib", r.peak_rss_mib, "MiB");
    }
    r.metric("peak_rss_mib", r.peak_rss_mib, "MiB");
    say("  %-26s %12.6g %-4s (%zu failed of %zu attempted)", "error_rate",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted), "",
        r.failed, r.attempted);
  } else {
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    r.tracer.write_chrome_trace(
        path, {{"workload", args.workload},
               {"seed", std::to_string(args.seed)},
               {"env", env.describe()}});
    say("spans written to %s", path.c_str());
  }
  // Host contention is outside the program: a run with a high steal share
  // measured a slower machine.
  say("env: steal share of machine CPU time during the run %.4f",
      pfbench::steal_share(ticks_before, pfbench::cpu_ticks()));
  for (const auto& f : r.check_failures) say("CHECK FAILED: %s", f.c_str());

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool finite = true;
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    finite = finite && std::isfinite(m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  if (!finite) {
    std::fprintf(stderr, "pfbench: a metric is not finite\n");
    return 1;
  }
  say("%s", json.c_str());
  return r.failed == 0 ? 0 : 1;
}
