//! Traced-run measurements of single layers, taken from outside: each
//! times calls into a layer's public functions and reads the public
//! `hev_trace::evals` counters around them.

use std::time::Instant;

use drive_cycle::DriveCycle;
use hev_bench::experiments::{self, ExperimentConfig, Fig3Row};
use hev_control::{
    default_currents, CyclePlan, EpisodeMetrics, InnerOptimizer, JointController,
    JointControllerConfig, ResolveScratch, RewardConfig, RunSpec, SeedSequence,
};
use hev_model::{CandidateBatch, CurrentContextCache, ParallelHev, StepContext};
use hev_trace::evals::{self, Counts};

use crate::spans::Tracer;
use crate::workload::{Inputs, Workload};

/// One Fig 3 training task of the replica.
#[derive(Debug, Clone)]
pub struct TaskStat {
    /// Cycle the task trained on.
    pub cycle: &'static str,
    /// Evaluation counters of the whole task (its own thread).
    pub counts: Counts,
    /// Steps of every training and evaluation episode.
    pub steps: usize,
    /// Evaluations inside the episodes (plan builds excluded).
    pub episode_evals: u64,
    /// The greedy evaluation.
    pub metrics: EpisodeMetrics,
}

/// Fig 3 rebuilt from the public calls it is made of.
#[derive(Debug, Clone)]
pub struct FigureReplica {
    /// The rows, computed exactly as `experiments::fig3` computes them.
    pub rows: Vec<Fig3Row>,
    /// One entry per training task, in task order.
    pub tasks: Vec<TaskStat>,
    /// Counters of the rule-based baselines (caller thread).
    pub rule_counts: Counts,
    /// Wall time of the whole replica, s.
    pub wall_s: f64,
}

/// Runs Fig 3 as its grid of `(cycle × run)` training tasks through
/// `Harness::run`, each task built from `jitter_portfolio`,
/// `CyclePlan::new`, one-episode `JointController::train_portfolio_planned`
/// calls and `evaluate_planned`, then the rule-based baselines. Task seeds,
/// order and arithmetic follow `experiments::fig3`, so the rows must
/// equal its rows bit for bit.
pub fn figure_replica(
    cfg: &ExperimentConfig,
    cycles: &[(&'static str, DriveCycle)],
    tracer: &Tracer,
) -> FigureReplica {
    let t0 = Instant::now();
    let runs = cfg.runs.max(1);
    let seq = SeedSequence::new(cfg.seed);
    let mut tasks = Vec::with_capacity(cycles.len() * runs);
    for (ci, (name, _)) in cycles.iter().enumerate() {
        for k in 0..runs {
            tasks.push(RunSpec {
                label: format!("fig3/{name}/proposed/run{k}"),
                seed: seq.child(k as u64),
                payload: ci,
            });
        }
    }
    let harness_span = tracer.enter("hev-control.harness.run");
    let parent = harness_span.id();
    let stats = cfg.harness().run("fig3", tasks, |_, seed, ci| {
        let (name, cycle) = &cycles[ci];
        let mut span = tracer.enter_under("hev-control.harness.task", parent);
        span.tag(name);
        let before = evals::counts();
        let (metrics, steps, episode_evals) = train_eval_replica(cycle, name, seed, cfg, tracer);
        TaskStat {
            cycle: name,
            counts: evals::counts().since(&before),
            steps,
            episode_evals,
            metrics,
        }
    });
    drop(harness_span);

    let before = evals::counts();
    let mut rows = Vec::with_capacity(cycles.len());
    for (ci, (name, cycle)) in cycles.iter().enumerate() {
        let rule = {
            let mut span = tracer.enter("hev-control.rule_based");
            span.tag(name);
            experiments::run_rule_based(cycle, cfg)
        };
        let per_run = &stats[ci * runs..(ci + 1) * runs];
        let p = per_run
            .iter()
            .map(|t| experiments::corrected_mpg(&t.metrics))
            .sum::<f64>()
            / per_run.len() as f64;
        let r = experiments::corrected_mpg(&rule);
        rows.push(Fig3Row {
            cycle: name.to_string(),
            proposed_mpg: p,
            rule_mpg: r,
            improvement_pct: (p / r - 1.0) * 100.0,
        });
    }
    FigureReplica {
        rows,
        tasks: stats,
        rule_counts: evals::counts().since(&before),
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// One training run and its greedy evaluation, episode by episode.
/// Returns the evaluation, the steps of all episodes and their evals.
fn train_eval_replica(
    cycle: &DriveCycle,
    name: &'static str,
    seed: u64,
    cfg: &ExperimentConfig,
    tracer: &Tracer,
) -> (EpisodeMetrics, usize, u64) {
    let mut controller = JointControllerConfig::proposed();
    controller.initial_soc = cfg.initial_soc;
    controller.seed = seed;
    controller.inner.scalar_reference |= cfg.scalar_reference;
    let mut hev = experiments::fresh_hev(cfg.initial_soc);
    let mut agent = JointController::new(controller);
    let plans: Vec<CyclePlan> = experiments::jitter_portfolio(cycle, seed, cfg)
        .iter()
        .map(|c| {
            let mut span = tracer.enter("hev-model.ctx_table");
            span.tag(name);
            CyclePlan::new(&hev, c)
        })
        .collect();
    let rounds = (cfg.episodes / plans.len()).max(1);
    let mut steps = 0;
    let mut episode_evals = 0;
    for _ in 0..rounds {
        for plan in &plans {
            let before = evals::count();
            let mut span = tracer.enter("hev-control.train_episode");
            span.tag(name);
            let trained = agent.train_portfolio_planned(&mut hev, std::slice::from_ref(plan), 1);
            drop(span);
            episode_evals += evals::since(before);
            steps += trained.iter().map(|m| m.steps).sum::<usize>();
        }
    }
    let before = evals::count();
    let mut span = tracer.enter("hev-control.eval_episode");
    span.tag(name);
    let metrics = agent.evaluate_planned(&mut hev, &plans[0]);
    drop(span);
    episode_evals += evals::since(before);
    steps += metrics.steps;
    (metrics, steps, episode_evals)
}

/// The step contexts a workload's layers see: the paper cycles' tables
/// for `paper_figure` and `dp_bound`, the request stream's demands for
/// `fleet_serve`. At most `cap` contexts, spread over the source.
pub fn workload_contexts(
    workload: Workload,
    inputs: &Inputs,
    hev: &ParallelHev,
    cap: usize,
) -> Vec<StepContext> {
    let all: Vec<StepContext> = match workload {
        Workload::PaperFigure | Workload::DpBound => inputs
            .plans
            .iter()
            .flat_map(|p| (0..p.len()).map(|t| p.table().context(t).clone()))
            .collect(),
        Workload::FleetServe => inputs
            .requests
            .iter()
            .filter(|r| r.speed_mps.is_finite() && r.accel_mps2.is_finite() && r.grade.is_finite())
            .take(cap)
            .map(|r| hev.step_context(&hev.demand(r.speed_mps, r.accel_mps2, r.grade)))
            .collect(),
    };
    let stride = all.len().div_ceil(cap.max(1)).max(1);
    all.into_iter().step_by(stride).collect()
}

/// Lane-kernel and scalar-oracle timings over the same candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStats {
    /// Lanes evaluated per sweep.
    pub lanes: usize,
    /// Wall per lane of `evaluate_batch_scored`, ns.
    pub lane_ns: f64,
    /// Wall per candidate of `peek_with_context`, ns.
    pub peek_ns: f64,
    /// Lanes whose verdict or score differs from the oracle.
    pub mismatches: usize,
}

/// Times `ParallelHev::evaluate_batch_scored` per lane over every
/// context's `(current × viable gear × aux grid)` candidates, the wave
/// shape of a resolve's grid sweep, and `peek_with_context` on the same
/// candidates; checks that every lane matches the oracle bit for bit.
pub fn lane_and_peek(
    hev: &ParallelHev,
    ctxs: &[StepContext],
    reward: &RewardConfig,
    tracer: &Tracer,
) -> LaneStats {
    let dt = reward.dt_s;
    let currents = default_currents();
    let (lo, hi) = hev.aux().power_range();
    let grid = InnerOptimizer::default().aux_grid.max(2);
    let gears = hev.drivetrain().num_gears();
    let fill = |batch: &mut CandidateBatch, ctx: &StepContext| {
        batch.begin(dt);
        for &i in &currents {
            for g in (0..gears).filter(|&g| ctx.gear_is_viable(g)) {
                for k in 0..grid {
                    batch.push(i, g, lo + (hi - lo) * k as f64 / (grid - 1) as f64);
                }
            }
        }
    };
    // Only the kernel and oracle calls are timed, not building the lanes.
    let mut batch = CandidateBatch::default();
    let mut cache = CurrentContextCache::new();
    let mut lane_scores = Vec::new();
    let mut lane_wall = 0.0;
    {
        let _span = tracer.enter("hev-model.evaluate_batch_scored");
        for ctx in ctxs {
            fill(&mut batch, ctx);
            cache.clear();
            let t0 = Instant::now();
            hev.evaluate_batch_scored(ctx, &mut batch, &mut cache, |o| reward.reward(o));
            lane_wall += t0.elapsed().as_secs_f64();
            lane_scores.extend((0..batch.len()).map(|l| batch.score(l).map(f64::to_bits)));
        }
    }
    let mut peek_scores = Vec::with_capacity(lane_scores.len());
    let mut peek_wall = 0.0;
    {
        let _span = tracer.enter("hev-model.peek_with_context");
        for ctx in ctxs {
            fill(&mut batch, ctx);
            let controls: Vec<_> = (0..batch.len()).map(|l| batch.control(l)).collect();
            let t0 = Instant::now();
            for control in &controls {
                let score = hev
                    .peek_with_context(ctx, control, dt)
                    .ok()
                    .map(|o| reward.reward(&o).to_bits());
                peek_scores.push(score);
            }
            peek_wall += t0.elapsed().as_secs_f64();
        }
    }
    let lanes = lane_scores.len();
    let mismatches = lane_scores
        .iter()
        .zip(&peek_scores)
        .filter(|(a, b)| a != b)
        .count()
        + lanes.abs_diff(peek_scores.len());
    LaneStats {
        lanes,
        lane_ns: lane_wall * 1e9 / lanes.max(1) as f64,
        peek_ns: peek_wall * 1e9 / lanes.max(1) as f64,
        mismatches,
    }
}

/// Resolve timings over every context × `default_currents()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveStats {
    /// Per-call wall, µs, of the joint optimizer.
    pub joint_us: Vec<f64>,
    /// Per-call wall, µs, of the fixed-aux optimizer DP uses.
    pub fixed_us: Vec<f64>,
    /// Evaluations of the joint calls.
    pub joint_evals: u64,
    /// Joint calls that returned `None`.
    pub masked: usize,
    /// Per-step wall, µs, of `fill_mask_batched`.
    pub mask_us: Vec<f64>,
}

/// Times `InnerOptimizer::resolve_with_scratch` (the proposed
/// controller's optimizer and `with_fixed_aux(600.0)`) and
/// `fill_mask_batched` over the contexts.
pub fn resolve_and_mask(
    hev: &ParallelHev,
    ctxs: &[StepContext],
    reward: &RewardConfig,
    tracer: &Tracer,
) -> ResolveStats {
    let dt = reward.dt_s;
    let currents = default_currents();
    let joint = JointControllerConfig::proposed().inner;
    let fixed = InnerOptimizer::with_fixed_aux(600.0);
    let mut scratch = ResolveScratch::new();
    let mut stats = ResolveStats {
        joint_us: Vec::with_capacity(ctxs.len() * currents.len()),
        fixed_us: Vec::with_capacity(ctxs.len() * currents.len()),
        joint_evals: 0,
        masked: 0,
        mask_us: Vec::with_capacity(ctxs.len()),
    };
    let before = evals::count();
    for ctx in ctxs {
        for &i in &currents {
            let span = tracer.enter("hev-control.resolve");
            let t0 = Instant::now();
            let r = joint.resolve_with_scratch(hev, ctx, i, dt, reward, &mut scratch);
            stats.joint_us.push(t0.elapsed().as_secs_f64() * 1e6);
            drop(span);
            stats.masked += usize::from(r.is_none());
        }
    }
    stats.joint_evals = evals::since(before);
    for ctx in ctxs {
        for &i in &currents {
            let span = tracer.enter("hev-control.resolve_fixed_aux");
            let t0 = Instant::now();
            std::hint::black_box(fixed.resolve_with_scratch(hev, ctx, i, dt, reward, &mut scratch));
            stats.fixed_us.push(t0.elapsed().as_secs_f64() * 1e6);
            drop(span);
        }
    }
    let mut mask = vec![false; currents.len()];
    for ctx in ctxs {
        let span = tracer.enter("hev-control.fill_mask_batched");
        let t0 = Instant::now();
        joint.fill_mask_batched(hev, ctx, &currents, dt, &mut scratch, &mut mask);
        stats.mask_us.push(t0.elapsed().as_secs_f64() * 1e6);
        drop(span);
        std::hint::black_box(&mask);
    }
    stats
}
