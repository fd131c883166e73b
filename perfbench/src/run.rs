//! One benchmark run: the untraced run measures the end-to-end metrics,
//! the traced run the per-layer ones.

use std::path::PathBuf;
use std::time::Instant;

use hev_bench::experiments;
use hev_control::RewardConfig;
use hev_trace::evals::{self, Counts};

use crate::hook;
use crate::layers::{self, FigureReplica};
use crate::metrics::{self, Report, RUNGS};
use crate::spans::{self, Span, Tracer};
use crate::stamp::cores;
use crate::stats::{max, median, percentile};
use crate::untraced::{self, ChildOut};
use crate::workload::{self as wl, Inputs, Sizes, Workload};

/// Interleaved 1-shard and N-shard serve calls behind `shard_speedup`.
const SPEEDUP_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement budget of the untraced run, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Where the traced run writes its spans (none: not written).
    pub trace_out: Option<PathBuf>,
}

/// Runs the benchmark once and returns its report and, for a traced
/// run, its spans; an `Err` means the run could not complete at all.
/// An untraced run measures through `child(k)` for every process `k`
/// (see [`crate::untraced`]).
pub fn run(
    opts: &Options,
    child: impl Fn(usize) -> Result<ChildOut, String>,
) -> Result<(Report, Vec<Span>), String> {
    hook::install();
    let mut report = Report::default();
    let mut recorded = Vec::new();
    if opts.trace {
        let spans = traced(opts, &mut report)?;
        report.check_complete(&metrics::per_layer());
        report.check_result("spans nest", spans::check_nesting(&spans));
        report.failed = report.checks.iter().filter(|c| !c.ok).count() as u64;
        if let Some(path) = &opts.trace_out {
            let header = crate::stamp::Stamp::collect(opts.workload.name(), opts.seed).to_json();
            spans::write_jsonl(path, &header, &spans)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        recorded = spans;
    } else {
        let outs = (0..opts.sizes.children.max(1))
            .map(child)
            .collect::<Result<Vec<_>, _>>()?;
        untraced::aggregate(&outs, &mut report);
        report.check_complete(&metrics::end_to_end());
    }
    Ok((report, recorded))
}

/// Builds the inputs `sizes.setup_reps` times; returns the last build.
fn setup(opts: &Options, tracer: &Tracer) -> Result<Inputs, String> {
    let mut last = None;
    for _ in 0..opts.sizes.setup_reps.max(1) {
        last = Some(wl::build_inputs(opts.seed, &opts.sizes, tracer)?);
    }
    last.ok_or_else(|| "no setup ran".to_string())
}

fn counts_sum<'a>(it: impl Iterator<Item = &'a Counts>) -> Counts {
    let mut total = Counts::default();
    for c in it {
        total.add(c);
    }
    total
}

fn traced(opts: &Options, report: &mut Report) -> Result<Vec<Span>, String> {
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let jobs = cores();
    let sizes = &opts.sizes;
    let inputs = setup(opts, &tracer)?;
    let rule = wl::rule_mpgs(&inputs.cycles);

    // Fig 3: the replica untraced (the reference counts, and a warm-up),
    // then `fig3` and the traced replica alternately; the overhead is
    // the difference of their medians.
    let cfg = wl::figure_config(sizes, inputs.figure_seeds[0], jobs);
    let replica_off = layers::figure_replica(&cfg, &inputs.cycles, &off);
    let mut same_rows = true;
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut replicas = Vec::new();
    for _ in 0..2 {
        let t0 = Instant::now();
        let rows = experiments::fig3(&cfg);
        untraced_s.push(t0.elapsed().as_secs_f64());
        let traced_run = layers::figure_replica(&cfg, &inputs.cycles, &tracer);
        traced_s.push(traced_run.wall_s);
        same_rows &= format!("{rows:?}") == format!("{:?}", traced_run.rows)
            && format!("{rows:?}") == format!("{:?}", replica_off.rows);
        replicas.push(traced_run);
    }
    let replica = replicas.last().ok_or("no traced Fig 3 ran")?;
    report.check(
        "traced Fig 3 replica rows equal experiments::fig3 rows",
        same_rows,
        format!("{} rows", replica.rows.len()),
    );
    let task_counts =
        |r: &FigureReplica| -> Vec<Counts> { r.tasks.iter().map(|t| t.counts).collect() };
    report.check(
        "tracing leaves Fig 3 eval counts unchanged",
        task_counts(replica) == task_counts(&replica_off)
            && replica.rule_counts == replica_off.rule_counts,
        format!("{} tasks", replica.tasks.len()),
    );
    report.check_result(
        "Fig 3 rows finite and positive",
        wl::check_figure_rows(&replica.rows),
    );
    let gain = wl::mpg_gain_pct(&replica.rows);
    report.check("mpg_gain_pct > 0", gain > 0.0, format!("{gain:.3} %"));
    report.attempted += 5;

    // DP, untraced then traced.
    let before = evals::counts();
    let dp_off = wl::run_dp(&inputs.cycles, &off);
    let dp_off_counts = evals::counts().since(&before);
    let before = evals::counts();
    let dp = wl::run_dp(&inputs.cycles, &tracer);
    let dp_counts = evals::counts().since(&before);
    report.check(
        "tracing leaves DP rewards and eval counts unchanged",
        dp == dp_off && dp_counts == dp_off_counts,
        format!("{} evals", dp_counts.evals),
    );
    report.check_result(
        "DP corrected MPG >= rule-based on every cycle",
        wl::check_dp_rows(&dp, &rule),
    );
    report.attempted += 2 * dp.len() as u64;

    // Serve: untraced and traced calls, then interleaved 1-shard and
    // N-shard calls for the speed-up.
    let out_off = wl::run_serve(&inputs, jobs, &off)?;
    let panics = hook::chaos_panics();
    let out = wl::run_serve(&inputs, jobs, &tracer)?;
    let chaos_panics = hook::chaos_panics() - panics;
    let stream = out.response_stream();
    report.check(
        "tracing leaves the response stream unchanged",
        stream == out_off.response_stream(),
        format!("{} responses", out.responses.len()),
    );
    report.check_result(
        "serve: one response per request in order, totals add up",
        wl::check_stream(&out, &inputs.requests),
    );
    report.check(
        "chaos panics dropped by the hook = quarantines",
        chaos_panics == out.quarantines,
        format!("{chaos_panics} panics, {} quarantines", out.quarantines),
    );
    let (mut rps_1, mut rps_n) = (Vec::new(), Vec::new());
    let mut shard_invariant = true;
    for _ in 0..SPEEDUP_REPS {
        for (shards, rps) in [(1, &mut rps_1), (jobs, &mut rps_n)] {
            let t0 = Instant::now();
            let o = wl::run_serve(&inputs, shards, &tracer)?;
            rps.push(inputs.requests.len() as f64 / t0.elapsed().as_secs_f64());
            shard_invariant &= o.response_stream() == stream;
        }
    }
    report.check(
        "response stream identical at 1 and N shards",
        shard_invariant,
        format!("N = {jobs}"),
    );
    let panics = hook::chaos_panics();
    let client_off = wl::client_replay(&inputs, &off)?;
    let client = wl::client_replay(&inputs, &tracer)?;
    let client_panics = hook::chaos_panics() - panics;
    report.check(
        "tracing leaves the client replay's verdicts and eval counts unchanged",
        client.stream == client_off.stream && client.counts == client_off.counts,
        format!("{} evals", client.counts.evals),
    );
    report.check(
        "client chaos panics = caught crashes",
        client_panics == client.crashes + client_off.crashes,
        format!(
            "{client_panics} panics, {} crashes per replay",
            client.crashes
        ),
    );
    report.attempted += (4 + 2 * SPEEDUP_REPS as u64) * inputs.requests.len() as u64;

    // Single-layer replays over the workload's own step contexts.
    let reward = RewardConfig::default();
    let hev = experiments::fresh_hev(wl::INITIAL_SOC);
    let ctxs = layers::workload_contexts(opts.workload, &inputs, &hev, sizes.replay_contexts);
    let lanes = layers::lane_and_peek(&hev, &ctxs, &reward, &tracer);
    report.check(
        "every lane equals the peek_with_context oracle",
        lanes.mismatches == 0 && lanes.lanes > 0,
        format!("{} lanes, {} mismatches", lanes.lanes, lanes.mismatches),
    );
    let resolve = layers::resolve_and_mask(&hev, &ctxs, &reward, &tracer);

    let spans = tracer.take();
    let d = |name: &str, tag: Option<&str>| spans::durations(&spans, name, tag);
    let ms = |v: f64| v / 1e6;
    let us = |v: f64| v / 1e3;

    let builds = d("drive-cycle.build", None);
    report.metric(
        "drive-cycle.build_ms",
        ms(median(&builds)),
        "ms",
        builds.len(),
    );
    let tables = d("hev-model.ctx_table", None);
    report.metric(
        "hev-model.ctx_table_ms",
        ms(median(&tables)),
        "ms",
        tables.len(),
    );
    report.metric("hev-model.lane_ns", lanes.lane_ns, "ns", lanes.lanes);
    report.metric("hev-model.peek_ns", lanes.peek_ns, "ns", lanes.lanes);

    let work = match opts.workload {
        Workload::PaperFigure => {
            let mut c = counts_sum(replica.tasks.iter().map(|t| &t.counts));
            c.add(&replica.rule_counts);
            c
        }
        Workload::DpBound => dp_counts,
        Workload::FleetServe => client.counts,
    };
    report.metric("hev-model.evals", work.evals as f64, "count", 1);
    report.metric("hev-model.batch_lanes", work.batch_lanes as f64, "count", 1);
    report.metric("hev-model.batch_calls", work.batch_calls as f64, "count", 1);
    report.metric(
        "hev-model.batch_width",
        work.batch_lanes as f64 / work.batch_calls as f64,
        "lanes",
        work.batch_calls as usize,
    );
    report.metric(
        "hev-model.ctx_rebuilds",
        work.ctx_rebuilds as f64,
        "count",
        1,
    );

    let calls = resolve.joint_us.len();
    report.metric(
        "hev-control.resolve_us.p50",
        percentile(&resolve.joint_us, 50.0),
        "us",
        calls,
    );
    report.metric(
        "hev-control.resolve_us.p99",
        percentile(&resolve.joint_us, 99.0),
        "us",
        calls,
    );
    report.metric(
        "hev-control.evals_per_resolve",
        resolve.joint_evals as f64 / calls as f64,
        "count",
        calls,
    );
    report.metric(
        "hev-control.resolve_fixed_aux_us",
        median(&resolve.fixed_us),
        "us",
        resolve.fixed_us.len(),
    );
    report.metric(
        "hev-control.resolve_masked_share",
        resolve.masked as f64 / calls as f64,
        "ratio",
        calls,
    );
    report.metric(
        "hev-control.mask_us",
        median(&resolve.mask_us),
        "us",
        resolve.mask_us.len(),
    );

    for (name, _) in &inputs.cycles {
        let key = name.to_ascii_lowercase();
        let eps = d("hev-control.train_episode", Some(name));
        report.metric(
            &format!("hev-control.train_episode_ms.{key}.p50"),
            ms(percentile(&eps, 50.0)),
            "ms",
            eps.len(),
        );
        report.metric(
            &format!("hev-control.train_episode_ms.{key}.p90"),
            ms(percentile(&eps, 90.0)),
            "ms",
            eps.len(),
        );
    }
    let evals_eps = d("hev-control.eval_episode", None);
    report.metric(
        "hev-control.eval_episode_ms",
        ms(median(&evals_eps)),
        "ms",
        evals_eps.len(),
    );
    let episode_ns: f64 = d("hev-control.train_episode", None)
        .iter()
        .chain(&evals_eps)
        .sum();
    // The episode spans cover every traced replica.
    let tasks = || replicas.iter().flat_map(|r| &r.tasks);
    let steps: usize = tasks().map(|t| t.steps).sum();
    let episode_evals: u64 = tasks().map(|t| t.episode_evals).sum();
    report.metric(
        "hev-control.step_us",
        us(episode_ns / steps as f64),
        "us",
        steps,
    );
    report.metric(
        "hev-control.evals_per_step",
        episode_evals as f64 / steps as f64,
        "count",
        steps,
    );
    report.metric(
        "hev-control.wall_per_eval_ns.episode",
        episode_ns / episode_evals as f64,
        "ns",
        steps,
    );
    report.metric(
        "hev-control.wall_per_eval_ns.resolve",
        resolve.joint_us.iter().sum::<f64>() * 1e3 / resolve.joint_evals as f64,
        "ns",
        calls,
    );
    let dp_ns = d("hev-control.dp.solve", None);
    report.metric(
        "hev-control.wall_per_eval_ns.dp",
        dp_ns.iter().sum::<f64>() / dp_counts.evals as f64,
        "ns",
        dp_ns.len(),
    );

    let task_ns = d("hev-control.harness.task", None);
    let harness_ns = d("hev-control.harness.run", None);
    report.metric(
        "hev-control.harness.task_ms.p50",
        ms(median(&task_ns)),
        "ms",
        task_ns.len(),
    );
    report.metric(
        "hev-control.harness.task_ms.max",
        ms(max(&task_ns)),
        "ms",
        task_ns.len(),
    );
    report.metric(
        "hev-control.harness.busy_share",
        task_ns.iter().sum::<f64>() / (jobs as f64 * harness_ns.iter().sum::<f64>()),
        "ratio",
        task_ns.len(),
    );
    report.metric(
        "hev-control.harness.imbalance",
        max(&task_ns) / median(&task_ns),
        "ratio",
        task_ns.len(),
    );

    for (name, _) in &inputs.cycles {
        let solves = d("hev-control.dp.solve", Some(name));
        report.metric(
            &format!("hev-control.dp.solve_ms.{}", name.to_ascii_lowercase()),
            ms(median(&solves)),
            "ms",
            solves.len(),
        );
    }
    report.metric("hev-control.dp.evals", dp_counts.evals as f64, "count", 1);

    report.metric("hev-serve.req_per_s", median(&rps_n), "1/s", rps_n.len());
    report.metric(
        "hev-serve.shard_speedup",
        median(&rps_n) / median(&rps_1),
        "ratio",
        rps_n.len() + rps_1.len(),
    );
    for rung in &RUNGS[..3] {
        let t = d("hev-serve.request", Some(rung));
        report.metric(
            &format!("hev-serve.rung_us.{rung}"),
            us(median(&t)),
            "us",
            t.len(),
        );
    }
    let q = d("hev-serve.request", Some("quarantine"));
    report.metric("hev-serve.quarantine_us", us(median(&q)), "us", q.len());
    let served_evals: Vec<f64> = out.served_evals().iter().map(|&e| e as f64).collect();
    report.metric(
        "hev-serve.evals_per_request.p50",
        percentile(&served_evals, 50.0),
        "count",
        served_evals.len(),
    );
    report.metric(
        "hev-serve.evals_per_request.p99",
        percentile(&served_evals, 99.0),
        "count",
        served_evals.len(),
    );
    let t = wl::tally(&out);
    for (rung, count) in RUNGS.iter().zip(t.rungs) {
        report.metric(&format!("hev-serve.rung.{rung}"), count as f64, "count", 1);
    }
    report.metric("hev-serve.shed", t.shed as f64, "count", 1);
    report.metric("hev-serve.errors", t.errors as f64, "count", 1);
    report.metric("hev-serve.quarantines", t.quarantines as f64, "count", 1);
    report.metric("hev-serve.chaos_panics", chaos_panics as f64, "count", 1);
    report.metric(
        "perfbench.trace_overhead_s",
        median(&traced_s) - median(&untraced_s),
        "s",
        traced_s.len(),
    );
    Ok(spans)
}

/// Peak resident set of this process, MB (`VmHWM`); NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Self time by span name: `(name, spans, total ms, self ms)`, largest
/// self time first.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = spans::self_times(spans);
    let mut by: std::collections::BTreeMap<&'static str, (usize, u64, u64)> = Default::default();
    for (s, own) in spans.iter().zip(selfs) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    let mut rows: Vec<_> = by
        .into_iter()
        .map(|(n, (c, total, own))| (n, c, total as f64 / 1e6, own as f64 / 1e6))
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}
