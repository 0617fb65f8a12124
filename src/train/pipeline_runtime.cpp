#include "src/train/pipeline_runtime.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/comm/tensor_wire.h"
#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/optim/lamb.h"
#include "src/pipeline/one_f_one_b.h"
#include "src/pipeline/simulator.h"

namespace pf {

namespace {

ScheduleParams runtime_params(const PipelineRuntimeConfig& cfg) {
  ScheduleParams p;
  p.n_stages = cfg.n_stages;
  p.n_micro = cfg.n_micro;
  p.virtual_chunks = cfg.virtual_chunks;
  return p;
}

}  // namespace

PipelineRuntime::PipelineRuntime(BertModel& model, const MlmBatcher& batcher,
                                 const PipelineRuntimeConfig& cfg)
    : batcher_(batcher),
      cfg_(cfg),
      data_rng_(cfg.data_seed),
      spec_(build_schedule(cfg.schedule, runtime_params(cfg))),
      partition_(model, spec_.n_stages) {
  const ScheduleTraits& traits = traits_of(cfg_.schedule);
  if (!traits.flush) {
    // Flushless schedules stream through run_flushless() (stale-weight
    // semantics, device-local inline updates); step()/run() train
    // synchronously and reject them. The streaming builder supports plain
    // single-pipeline static programs with a per-tensor base optimizer.
    PF_CHECK(spec_.n_pipelines == 1 && !spec_.dynamic_order &&
             !spec_.split_backward)
        << cfg_.schedule
        << ": run_flushless() streams single-pipeline static schedules only";
    PF_CHECK(!cfg_.use_kfac)
        << cfg_.schedule
        << ": flushless streaming has no step boundary to anchor K-FAC "
           "curvature refreshes — use a flush schedule for PipeFisher runs";
    PF_CHECK(!cfg_.copy_stashes)
        << cfg_.schedule << ": flushless streaming needs borrow-mode "
                            "stashes (memory stays O(in-flight micros))";
  }
  PF_CHECK(!(spec_.split_backward && cfg_.copy_stashes))
      << cfg_.schedule << ": the deferred W pass reads the harvested "
                          "borrow-mode stashes (copy mode blanks a_l)";
  PF_CHECK(spec_.n_pipelines <= 2)
      << cfg_.schedule << " maps " << spec_.n_pipelines
      << " pipelines onto the devices; the executable runtime supports at "
         "most 2 (bidirectional Chimera) — registry, perf model, and "
         "simulator cover more (use simulate_step)";
  PF_CHECK(cfg_.n_micro >= 1 && cfg_.micro_batch_size >= 1);
  PF_CHECK(cfg_.stage_threads >= 1);
  PF_CHECK(cfg_.workers >= 0);
  if (!cfg_.base_optimizer)
    cfg_.base_optimizer = [] { return std::make_unique<Lamb>(); };

  // Event order: static programs, or the greedy simulator's realized order
  // for dynamic schedules (unit §3.3 costs T_b = 2·T_f). Static orders are
  // honored exactly (head-of-line chaining below); dynamic schedules run
  // greedily with the order as dispatch priority — which is what
  // `dynamic_order` means in the simulator too.
  if (spec_.dynamic_order) {
    device_order_ = simulate_step(spec_, StepCosts{}).realized_programs;
  } else {
    device_order_ = spec_.programs;
  }
  normalize_backward_order(device_order_);

  pipeline_of_micro_.assign(static_cast<std::size_t>(spec_.n_micro), 0);
  for (int pl = 0; pl < spec_.n_pipelines; ++pl)
    for (const int m : spec_.micros_of_pipeline[static_cast<std::size_t>(pl)])
      pipeline_of_micro_[static_cast<std::size_t>(m)] = pl;

  const std::size_t workers = cfg_.workers > 0
                                  ? static_cast<std::size_t>(cfg_.workers)
                                  : static_cast<std::size_t>(spec_.n_devices);
  pool_ = std::make_unique<ThreadPool>(workers);

  transport_ = resolve_transport(cfg_.transport);
  if (transport_ == "shm") {
    PF_CHECK(spec_.n_pipelines == 1)
        << cfg_.schedule << ": the shm transport's rings are SPSC — "
        << spec_.n_pipelines
        << " pipelines put two producer devices on one boundary channel; "
           "use transport = inproc";
  }
  // Largest tensor a boundary carries: the (micro_batch · seq_len) × d_model
  // activation (grad-activations share the shape). At most n_micro messages
  // are in flight per boundary+direction, so a ring of n_micro slots means
  // the producer never blocks on a full ring within one step.
  const std::size_t slot_bytes = wire_bytes(
      cfg_.micro_batch_size * model.config().seq_len, model.config().d_model);
  const std::size_t ring_slots = static_cast<std::size_t>(spec_.n_micro);
  auto make_channel = [&](const std::string& name) -> std::unique_ptr<Channel> {
    if (transport_ == "inproc") return std::make_unique<StageChannel>(name);
    regions_.emplace_back(ShmRing::required_bytes(ring_slots, slot_bytes));
    return std::make_unique<TransportChannel>(
        name,
        ShmRing::create(regions_.back().data(), ring_slots, slot_bytes, name));
  };
  const int S = spec_.n_stages;
  for (int s = 0; s + 1 < S; ++s) {
    fwd_ch_.push_back(make_channel(format("fwd[%d->%d]", s, s + 1)));
    bwd_ch_.push_back(make_channel(format("bwd[%d->%d]", s + 1, s)));
  }
  for (int s = 0; s < S; ++s) {
    BertStage& st = partition_.stage(s);
    st.set_copy_stashes(cfg_.copy_stashes);
    stage_params_.push_back(st.params());
    arenas_.push_back(std::make_unique<ArenaAllocator>());
    stage_ctx_.emplace_back(cfg_.stage_threads, cfg_.stage_threads,
                            RngPartition::kSequential, pool_.get());
    stage_ctx_.back().set_arena(arenas_.back().get());
    stage_opt_.push_back(cfg_.base_optimizer());
    const auto kl = st.kfac_linears();
    // The engines' GEMM/Cholesky row blocks dispatch on the runtime pool —
    // bubble K-FAC work stays inside the `workers` budget.
    engines_.push_back(
        cfg_.use_kfac && !kl.empty()
            ? std::make_unique<KfacEngine>(kl, cfg_.kfac.kfac, pool_.get())
            : nullptr);
  }
  last_memory_stats_.resize(static_cast<std::size_t>(S));
}

StepPlan PipelineRuntime::make_step_plan(bool curv_step, bool inv_step) const {
  std::vector<std::size_t> factors(static_cast<std::size_t>(spec_.n_stages), 0);
  for (std::size_t s = 0; s < factors.size(); ++s)
    if (engines_[s] != nullptr) factors[s] = engines_[s]->n_layers();
  return build_step_plan(spec_, device_order_, factors, curv_step, inv_step);
}

BertLossBreakdown PipelineRuntime::step() {
  PF_CHECK(traits_of(cfg_.schedule).flush)
      << cfg_.schedule
      << " is flushless: stream it with run_flushless() instead";
  const int S = spec_.n_stages;
  const int N = spec_.n_micro;
  const int D = spec_.n_devices;
  const bool split = spec_.split_backward;

  // --- Step preamble: exactly the serial Trainer's ---------------------
  // Draw the micro-batches in the serial order (same RNG progression).
  std::vector<BertBatch> batches;
  batches.reserve(static_cast<std::size_t>(N));
  for (int m = 0; m < N; ++m)
    batches.push_back(batcher_.next_batch(cfg_.micro_batch_size, data_rng_));
  for (auto& sp : stage_params_) zero_grads(sp);
  const double lr = cfg_.lr.lr(t_);
  const bool curv_step =
      cfg_.use_kfac && t_ % cfg_.kfac.curvature_interval == 0;
  const bool inv_step = cfg_.use_kfac && t_ % cfg_.kfac.inverse_interval == 0;
  // Entry reset (not just exit): a step that threw mid-flight leaves
  // stashes and channel boxes populated — clearing here keeps a retried
  // step() reporting its own errors instead of phantom duplicates.
  std::vector<ArenaAllocator::Stats> arena_before(
      static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    const auto si = static_cast<std::size_t>(s);
    partition_.stage(s).clear_stash(arenas_[si].get());
    partition_.stage(s).reset_stash_stats();
    arena_before[si] = arenas_[si]->stats();
  }
  for (auto& ch : fwd_ch_) ch->clear();
  for (auto& ch : bwd_ch_) ch->clear();

  // --- Attach bodies to the step plan and hand it to the executor ------
  // The graph itself (lanes, priorities, resources, dependency edges) is
  // built by build_step_plan(); this loop only supplies the work. Executor
  // ids equal plan indices by construction — asserted below — which is
  // what lets the perfmodel calibration layer replay the identical plan in
  // virtual time.
  const StepPlan plan = make_step_plan(curv_step, inv_step);
  const double inv = 1.0 / static_cast<double>(N);
  TaskExecutor ex(*pool_, static_cast<std::size_t>(D));
  std::vector<TaskMeta> meta;
  meta.reserve(plan.tasks.size());
  kfac_plan_.clear();
  std::vector<std::size_t> kfac_exec_id;
  // plan index -> index in kfac_plan_ (valid for K-FAC kinds only).
  std::vector<std::size_t> kfac_index(plan.tasks.size(), 0);

  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    const PlannedTask& pt = plan.tasks[i];
    const int s = pt.stage;
    const int m = pt.micro;
    const auto si = static_cast<std::size_t>(s);
    BertStage* stage = &partition_.stage(s);
    const ExecContext* ctx = &stage_ctx_[si];
    KfacEngine* engine = engines_[si].get();
    // Factor index within the stage's engine, from the (block, linear)
    // trace labels — the inverse of the plan builder's f -> (f/6, f%6).
    const std::size_t f =
        pt.layer >= 0 ? static_cast<std::size_t>(pt.layer) * 6 +
                            static_cast<std::size_t>(pt.factor)
                      : 0;
    // Curvature tasks read the stashes only on refresh steps of K-FAC
    // stages; otherwise backward releases this micro's activations —
    // except under split_backward, where the harvested {a_l, e_l} pairs
    // must survive until the micro's deferred W pass reads them (the W
    // task then releases non-curvature stashes itself).
    const bool keep_stash = curv_step && engine != nullptr;
    std::function<void()> body;
    switch (pt.kind) {
      case WorkKind::kForward:
        body = [this, stage, ctx, s, m, S, &batches] {
          Matrix in;
          if (s > 0) in = fwd_ch_[static_cast<std::size_t>(s - 1)]->take(m);
          Matrix out = stage->forward(m, batches[static_cast<std::size_t>(m)],
                                      std::move(in), *ctx);
          if (s + 1 < S)
            fwd_ch_[static_cast<std::size_t>(s)]->send(m, std::move(out));
        };
        break;
      case WorkKind::kBackward:
        body = [this, stage, ctx, s, m, S, keep_stash, split, &batches] {
          Matrix gin;
          if (s + 1 < S) gin = bwd_ch_[static_cast<std::size_t>(s)]->take(m);
          Matrix gout = stage->backward(m, batches[static_cast<std::size_t>(m)],
                                        std::move(gin), *ctx, keep_stash,
                                        /*defer_dw=*/split);
          if (s > 0)
            bwd_ch_[static_cast<std::size_t>(s - 1)]->send(m, std::move(gout));
        };
        break;
      case WorkKind::kBackwardWeight: {
        ArenaAllocator* arena = arenas_[si].get();
        body = [stage, ctx, m, keep_stash, arena] {
          stage->backward_dw(m, *ctx, /*release=*/!keep_stash, arena);
        };
        break;
      }
      case WorkKind::kSyncGrad:
        body = [this, s, inv, N] {
          if (N > 1)
            for (Param* p : stage_params_[static_cast<std::size_t>(s)])
              p->g *= inv;
        };
        break;
      case WorkKind::kCurvatureA:
        PF_CHECK(engine != nullptr);
        body = [engine, stage, f, m] {
          engine->accumulate_curvature_a(f, stage->kfac_input(m, f));
        };
        break;
      case WorkKind::kCurvatureB:
        PF_CHECK(engine != nullptr);
        body = [engine, stage, f, m] {
          engine->accumulate_curvature_b(f, stage->kfac_output_grad(m, f));
        };
        break;
      case WorkKind::kSyncCurvature:
        PF_CHECK(engine != nullptr);
        body = [engine, f] { engine->commit_curvature_layer(f); };
        break;
      case WorkKind::kInversionA:
        PF_CHECK(engine != nullptr);
        body = [engine, f] { engine->update_inverse_factor(f, false); };
        break;
      case WorkKind::kInversionB:
        PF_CHECK(engine != nullptr);
        body = [engine, f] { engine->update_inverse_factor(f, true); };
        break;
      case WorkKind::kPrecondition:
        PF_CHECK(engine != nullptr);
        body = [engine, f] { engine->precondition_layer(f); };
        break;
      case WorkKind::kOptimizerUpdate:
        body = [this, s, lr] {
          stage_opt_[static_cast<std::size_t>(s)]->step(
              stage_params_[static_cast<std::size_t>(s)], lr);
        };
        break;
      default:
        PF_CHECK(false) << "unexpected kind in step plan";
    }
    const std::size_t id =
        ex.add(std::move(body), pt.lane, pt.priority, pt.deps, pt.resource);
    PF_ASSERT(id == i);
    TaskMeta tm;
    tm.device = pt.lane;
    tm.kind = pt.kind;
    tm.stage = pt.stage;
    tm.micro = pt.micro;
    tm.layer = pt.layer;
    tm.factor = pt.factor;
    tm.op = pt.op;
    tm.is_op = pt.is_op;
    meta.push_back(tm);

    // Mirror K-FAC tasks into the BubbleTask-shaped introspection plan
    // (core/kfac_work.h); realized durations are filled in after the run.
    if (is_kfac_kind(pt.kind)) {
      BubbleTask bt;
      bt.id = kfac_plan_.size();
      bt.device = pt.lane;
      bt.kind = pt.kind;
      bt.stage = pt.stage;
      bt.micro = pt.micro;
      bt.layer = pt.layer;
      bt.factor = pt.factor;
      bt.splittable = pt.splittable;
      for (const std::size_t d : pt.deps)
        if (is_kfac_kind(plan.tasks[d].kind))
          bt.deps.push_back(kfac_index[d]);
      kfac_index[i] = bt.id;
      kfac_exec_id.push_back(i);
      kfac_plan_.push_back(std::move(bt));
    }
  }

  // --- Execute ----------------------------------------------------------
  ex.run();
  last_records_ = ex.records();
  last_meta_ = std::move(meta);

  // Realized timeline: per-device intervals sorted by wall-clock start.
  last_timeline_ = Timeline(static_cast<std::size_t>(D));
  {
    std::vector<std::vector<std::size_t>> by_dev(static_cast<std::size_t>(D));
    for (std::size_t i = 0; i < last_records_.size(); ++i)
      if (last_records_[i].executed)
        by_dev[last_meta_[i].device].push_back(i);
    double makespan = 0.0;
    for (auto& ids : by_dev) {
      std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
        return last_records_[a].start < last_records_[b].start;
      });
      for (const std::size_t i : ids) {
        const TaskMeta& tm = last_meta_[i];
        last_timeline_.add(Interval{.device = tm.device,
                                    .start = last_records_[i].start,
                                    .end = last_records_[i].end,
                                    .kind = tm.kind,
                                    .stage = tm.stage,
                                    .micro = tm.micro,
                                    .layer = tm.layer,
                                    .factor = tm.factor});
        makespan = std::max(makespan, last_records_[i].end);
      }
    }
    last_wall_seconds_ = makespan;
  }
  // Realized durations back into the BubbleTask plan.
  for (std::size_t i = 0; i < kfac_plan_.size(); ++i) {
    const auto& rec = last_records_[kfac_exec_id[i]];
    kfac_plan_[i].earliest_start = rec.start;
    kfac_plan_[i].duration = rec.end - rec.start;
  }
  if (cfg_.step_observer) cfg_.step_observer(last_timeline_);

  // --- Step epilogue: losses in micro order, stash cleanup --------------
  BertLossBreakdown total{};
  BertStage& last_stage = partition_.stage(S - 1);
  for (int m = 0; m < N; ++m) {
    const auto l = last_stage.losses(m);
    total.total += l.total;
    total.mlm += l.mlm;
    total.nsp += l.nsp;
  }
  total.total *= inv;
  total.mlm *= inv;
  total.nsp *= inv;
  for (int s = 0; s < S; ++s) {
    const auto si = static_cast<std::size_t>(s);
    // Stash high-water mark first (clear_stash zeroes the running count,
    // not the peak), then park the surviving K-FAC stashes in the arena so
    // the next step's forwards recycle them.
    last_memory_stats_[si].peak_stash_bytes =
        partition_.stage(s).peak_stash_bytes();
    partition_.stage(s).clear_stash(arenas_[si].get());
    const auto now = arenas_[si]->stats();
    last_memory_stats_[si].arena_recycled =
        now.recycled - arena_before[si].recycled;
    last_memory_stats_[si].arena_fresh = now.fresh - arena_before[si].fresh;
    last_memory_stats_[si].arena_released_bytes =
        now.released_bytes - arena_before[si].released_bytes;
    last_memory_stats_[si].arena_free_bytes = now.free_bytes;
  }
  for (const auto& ch : fwd_ch_)
    PF_CHECK(ch->pending() == 0) << ch->name() << ": undelivered activations";
  for (const auto& ch : bwd_ch_)
    PF_CHECK(ch->pending() == 0) << ch->name() << ": undelivered gradients";
  ++t_;
  return total;
}

TrainTrace PipelineRuntime::run() {
  TrainTrace trace;
  trace.loss.reserve(cfg_.total_steps);
  for (std::size_t i = 0; i < cfg_.total_steps; ++i) {
    trace.lr.push_back(cfg_.lr.lr(t_));
    const auto l = step();
    trace.loss.push_back(l.total);
    trace.mlm_loss.push_back(l.mlm);
    trace.nsp_loss.push_back(l.nsp);
  }
  return trace;
}

TrainTrace PipelineRuntime::run_flushless() {
  PF_CHECK(!traits_of(cfg_.schedule).flush)
      << cfg_.schedule << " flushes at step boundaries: use run()";
  PF_CHECK(t_ == 0) << "run_flushless() streams once per runtime instance";
  const int S = spec_.n_stages;
  const int N = spec_.n_micro;
  const int D = spec_.n_devices;
  const int steps = static_cast<int>(cfg_.total_steps);
  PF_CHECK(steps >= 1);
  const int G = N * steps;

  // One streaming program over every step: the per-step 1F1B program with
  // N·steps global micros. Warmup and drain exist only at stream entry and
  // exit; the interior is the steady state a flush would repeatedly break.
  ScheduleSpec stream = make_1f1b(S, G);
  std::vector<std::vector<PipeOp>> order = stream.programs;
  normalize_backward_order(order);

  // Micro-batches drawn up front in the serial order.
  std::vector<BertBatch> batches;
  batches.reserve(static_cast<std::size_t>(G));
  for (int g = 0; g < G; ++g)
    batches.push_back(batcher_.next_batch(cfg_.micro_batch_size, data_rng_));
  for (auto& sp : stage_params_) zero_grads(sp);
  for (int s = 0; s < S; ++s) {
    const auto si = static_cast<std::size_t>(s);
    partition_.stage(s).clear_stash(arenas_[si].get());
    partition_.stage(s).reset_stash_stats();
  }
  for (auto& ch : fwd_ch_) ch->clear();
  for (auto& ch : bwd_ch_) ch->clear();

  fl_fwd_ver_.assign(static_cast<std::size_t>(S),
                     std::vector<int>(static_cast<std::size_t>(G), 0));
  fl_bwd_ver_.assign(static_cast<std::size_t>(S),
                     std::vector<int>(static_cast<std::size_t>(G), 0));
  // Inline updates applied per stage so far. Only tasks on stage s's lane
  // touch slot s (head-of-line chained), so plain ints are race-free.
  std::vector<int> version(static_cast<std::size_t>(S), 0);
  const double inv = 1.0 / static_cast<double>(N);

  TaskExecutor ex(*pool_, static_cast<std::size_t>(D));
  std::map<long, std::size_t> op_task;
  // Creation sweep like step()'s static path: ops join their device chain
  // in program order, with the stage's inline update spliced in right
  // after its step-closing backward — everything that reads or writes the
  // stage's weights stays on one serialized chain.
  std::vector<std::size_t> next(order.size(), 0);
  std::vector<bool> has_prev(static_cast<std::size_t>(D), false);
  std::vector<std::size_t> prev_task(static_cast<std::size_t>(D), 0);
  std::vector<long> prio(static_cast<std::size_t>(D), 0);
  std::size_t remaining = 0;
  for (const auto& p : order) remaining += p.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t d = 0; d < order.size(); ++d) {
      while (next[d] < order[d].size()) {
        const PipeOp& op = order[d][next[d]];
        const int s = op.stage;
        const int g = op.micro;
        const auto si = static_cast<std::size_t>(s);
        std::vector<PipeOp> pdeps;
        if (op.type == OpType::kForward) {
          if (s > 0) pdeps.push_back({OpType::kForward, 0, s - 1, g});
        } else {
          pdeps.push_back({OpType::kForward, 0, s, g});
          if (s + 1 < S) pdeps.push_back({OpType::kBackward, 0, s + 1, g});
        }
        std::vector<std::size_t> dep_ids;
        bool ready = true;
        for (const PipeOp& dep : pdeps) {
          const auto it = op_task.find(op_key(dep));
          if (it == op_task.end()) {
            ready = false;
            break;
          }
          dep_ids.push_back(it->second);
        }
        if (!ready) break;
        if (has_prev[d]) dep_ids.push_back(prev_task[d]);
        BertStage* stage = &partition_.stage(s);
        const ExecContext* ctx = &stage_ctx_[si];
        std::function<void()> body;
        if (op.type == OpType::kForward) {
          body = [this, stage, ctx, s, g, S, si, &batches, &version] {
            fl_fwd_ver_[si][static_cast<std::size_t>(g)] = version[si];
            Matrix in;
            if (s > 0) in = fwd_ch_[si - 1]->take(g);
            Matrix out = stage->forward(
                g, batches[static_cast<std::size_t>(g)], std::move(in), *ctx);
            if (s + 1 < S) fwd_ch_[si]->send(g, std::move(out));
          };
        } else {
          // keep_kfac_stash = false: nothing reads the stashes later, so
          // in-flight memory stays O(D) micros for the whole stream.
          body = [this, stage, ctx, s, g, S, si, &batches, &version] {
            fl_bwd_ver_[si][static_cast<std::size_t>(g)] = version[si];
            Matrix gin;
            if (s + 1 < S) gin = bwd_ch_[si]->take(g);
            Matrix gout = stage->backward(
                g, batches[static_cast<std::size_t>(g)], std::move(gin), *ctx,
                /*keep_kfac_stash=*/false);
            if (s > 0) bwd_ch_[si - 1]->send(g, std::move(gout));
          };
        }
        prev_task[d] = ex.add(std::move(body), d, prio[d]++,
                              std::move(dep_ids), /*resource=*/s);
        has_prev[d] = true;
        op_task[op_key(op)] = prev_task[d];
        ++next[d];
        --remaining;
        progress = true;
        if (op.type == OpType::kBackward && (g + 1) % N == 0) {
          // Device-local update closing step k for this stage: fold the
          // accumulated gradients, step the per-stage optimizer at the
          // step's LR, re-zero for the next step's fold, bump the version.
          const int k = g / N;
          auto update = [this, si, k, inv, N, &version] {
            if (N > 1)
              for (Param* p : stage_params_[si]) p->g *= inv;
            stage_opt_[si]->step(stage_params_[si], cfg_.lr.lr(
                static_cast<std::size_t>(k)));
            zero_grads(stage_params_[si]);
            ++version[si];
          };
          prev_task[d] = ex.add(std::move(update), d, prio[d]++,
                                {prev_task[d]}, /*resource=*/s);
        }
      }
    }
    PF_CHECK(progress) << cfg_.schedule << ": flushless stream deadlocked";
  }

  ex.run();

  TrainTrace trace;
  BertStage& last_stage = partition_.stage(S - 1);
  for (int k = 0; k < steps; ++k) {
    trace.lr.push_back(cfg_.lr.lr(static_cast<std::size_t>(k)));
    BertLossBreakdown sum{};
    for (int m = 0; m < N; ++m) {
      const auto l = last_stage.losses(k * N + m);
      sum.total += l.total;
      sum.mlm += l.mlm;
      sum.nsp += l.nsp;
    }
    trace.loss.push_back(sum.total * inv);
    trace.mlm_loss.push_back(sum.mlm * inv);
    trace.nsp_loss.push_back(sum.nsp * inv);
  }
  for (int s = 0; s < S; ++s)
    partition_.stage(s).clear_stash(arenas_[static_cast<std::size_t>(s)].get());
  for (const auto& ch : fwd_ch_)
    PF_CHECK(ch->pending() == 0) << ch->name() << ": undelivered activations";
  for (const auto& ch : bwd_ch_)
    PF_CHECK(ch->pending() == 0) << ch->name() << ": undelivered gradients";
  t_ = static_cast<std::size_t>(steps);
  return trace;
}

std::vector<std::vector<PipeOp>> PipelineRuntime::last_realized_order() const {
  std::vector<std::vector<PipeOp>> out(
      static_cast<std::size_t>(spec_.n_devices));
  std::vector<std::vector<std::size_t>> by_dev(
      static_cast<std::size_t>(spec_.n_devices));
  for (std::size_t i = 0; i < last_records_.size(); ++i)
    if (last_records_[i].executed && last_meta_[i].is_op)
      by_dev[last_meta_[i].device].push_back(i);
  for (std::size_t d = 0; d < by_dev.size(); ++d) {
    auto& ids = by_dev[d];
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return last_records_[a].start < last_records_[b].start;
    });
    for (const std::size_t i : ids) out[d].push_back(last_meta_[i].op);
  }
  return out;
}

std::vector<int> PipelineRuntime::forward_send_order(int boundary) const {
  PF_CHECK(boundary >= 0 &&
           static_cast<std::size_t>(boundary) < fwd_ch_.size());
  return fwd_ch_[static_cast<std::size_t>(boundary)]->send_order();
}

std::vector<int> PipelineRuntime::backward_send_order(int boundary) const {
  PF_CHECK(boundary >= 0 &&
           static_cast<std::size_t>(boundary) < bwd_ch_.size());
  return bwd_ch_[static_cast<std::size_t>(boundary)]->send_order();
}

}  // namespace pf
