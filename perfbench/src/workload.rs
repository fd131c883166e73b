//! The three workloads' inputs and the calls they time.
//!
//! Every workload run exercises the same three parts of the system, the
//! ways its users meet it: regenerating Fig 3 (`figure`), solving the
//! offline DP bound on the paper cycles (`dp`), and serving a chaos
//! fleet (`serve`, plus a client replaying the stream request by
//! request). The workload decides which part gets the run's time
//! budget; the other two run their minimum repetitions so that every
//! end-to-end metric is measured on every workload.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use drive_cycle::{DriveCycle, StandardCycle};
use hev_bench::experiments::{self, ExperimentConfig, Fig3Row};
use hev_control::{solve_dp, split_seed, CyclePlan, DpConfig, SeedSequence};
use hev_serve::{
    fleet, serve, FleetConfig, LadderConfig, Request, RequestError, Response, ServeConfig,
    ServeOutput, Session, SessionSpec, Verdict,
};
use hev_trace::evals::{self, Counts};

use crate::spans::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper_figure", "dp_bound", "fleet_serve"];

/// Initial state of charge of every experiment (the `repro` default).
pub const INITIAL_SOC: f64 = 0.6;

/// Domain-separation tag of the fleet seed ("FLEET").
const FLEET_TAG: u64 = 0x46_4c45_4554;

/// The part of the system a workload spends its time budget on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 3 on the four paper cycles: training, the write-heavy use of
    /// the controller.
    PaperFigure,
    /// The DP bound on the four paper cycles: the lane kernel and the
    /// fixed-aux resolve, no refinement, mask or TD.
    DpBound,
    /// A 64-session chaos fleet: the read-only, budget-bounded use of
    /// resolve, plus admission, tick fan-out and quarantine.
    FleetServe,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_figure" => Some(Self::PaperFigure),
            "dp_bound" => Some(Self::DpBound),
            "fleet_serve" => Some(Self::FleetServe),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperFigure => "paper_figure",
            Self::DpBound => "dp_bound",
            Self::FleetServe => "fleet_serve",
        }
    }
}

/// Input sizes and minimum repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Training episodes per controller in Fig 3.
    pub episodes: usize,
    /// Controllers trained per cycle in Fig 3.
    pub runs: usize,
    /// Processes an untraced run measures in, one after another; each
    /// trains Fig 3 with its own controller seed.
    pub children: usize,
    /// Fleet sessions.
    pub sessions: usize,
    /// Requests in the fleet's stream.
    pub requests: usize,
    /// Input builds timed for `setup_s`.
    pub setup_reps: usize,
    /// Step contexts the traced layer replays use at most.
    pub replay_contexts: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub fn standard() -> Self {
        Self {
            episodes: 60,
            runs: 3,
            children: 4,
            sessions: 64,
            requests: 20_000,
            setup_reps: 15,
            replay_contexts: 4_000,
        }
    }

    /// Small sizes for smoke tests.
    pub fn tiny() -> Self {
        Self {
            episodes: 5,
            runs: 1,
            children: 1,
            sessions: 8,
            requests: 400,
            setup_reps: 1,
            replay_contexts: 60,
        }
    }
}

/// Everything a run's seed generates, plus the cycles and plans.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Controller seeds of the Fig 3 runs, one per measuring process.
    pub figure_seeds: Vec<u64>,
    /// The paper cycles, by name.
    pub cycles: Vec<(&'static str, DriveCycle)>,
    /// The paper cycles' context tables.
    pub plans: Vec<CyclePlan>,
    /// The fleet's session specs.
    pub specs: Vec<SessionSpec>,
    /// Fresh sessions, cloned for each client replay.
    pub sessions: BTreeMap<u64, Session>,
    /// The fleet's request stream.
    pub requests: Vec<Request>,
}

/// Builds cycles, plans, sessions and the request stream from `seed`.
pub fn build_inputs(seed: u64, sizes: &Sizes, tracer: &Tracer) -> Result<Inputs, String> {
    let _setup = tracer.enter("perfbench.setup");
    let seq = SeedSequence::new(seed);
    let figure_seeds = (0..sizes.children.max(1))
        .map(|r| seq.child(r as u64))
        .collect();
    let hev = experiments::fresh_hev(INITIAL_SOC);
    let mut cycles = Vec::new();
    let mut plans = Vec::new();
    for sc in StandardCycle::paper_set() {
        let cycle = {
            let mut s = tracer.enter("drive-cycle.build");
            s.tag(sc.name());
            sc.cycle()
        };
        let plan = {
            let mut s = tracer.enter("hev-model.ctx_table");
            s.tag(sc.name());
            CyclePlan::new(&hev, &cycle)
        };
        cycles.push((sc.name(), cycle));
        plans.push(plan);
    }
    let _fleet = tracer.enter("hev-serve.fleet_build");
    let config = FleetConfig {
        sessions: sizes.sessions,
        requests: sizes.requests,
        seed: split_seed(seed, FLEET_TAG),
        chaos: true,
    };
    let specs = fleet::build_sessions(&config);
    let mut sessions = BTreeMap::new();
    for spec in &specs {
        let session = Session::new(*spec, 0).map_err(|e| format!("session {}: {e}", spec.id))?;
        sessions.insert(spec.id, session);
    }
    let requests = fleet::build_requests(&config, specs.len() as u64);
    Ok(Inputs {
        figure_seeds,
        cycles,
        plans,
        specs,
        sessions,
        requests,
    })
}

/// The Fig 3 configuration for one controller seed.
pub fn figure_config(sizes: &Sizes, seed: u64, jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        episodes: sizes.episodes,
        runs: sizes.runs,
        seed,
        jobs,
        initial_soc: INITIAL_SOC,
        ..ExperimentConfig::default()
    }
}

/// Mean over the cycles of the corrected-MPG gain over the rule-based
/// baseline, percent.
pub fn mpg_gain_pct(rows: &[Fig3Row]) -> f64 {
    rows.iter().map(|r| r.improvement_pct).sum::<f64>() / rows.len() as f64
}

/// Every MPG finite and positive, one row per paper cycle.
pub fn check_figure_rows(rows: &[Fig3Row]) -> Result<(), String> {
    if rows.len() != 4 {
        return Err(format!("{} rows, expected 4", rows.len()));
    }
    for r in rows {
        let ok = |v: f64| v.is_finite() && v > 0.0;
        if !ok(r.proposed_mpg) || !ok(r.rule_mpg) || !r.improvement_pct.is_finite() {
            return Err(format!(
                "{}: proposed {} rule {} gain {}",
                r.cycle, r.proposed_mpg, r.rule_mpg, r.improvement_pct
            ));
        }
    }
    Ok(())
}

/// One cycle's DP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct DpRow {
    /// Cycle name.
    pub cycle: &'static str,
    /// Value function at the start state.
    pub expected_reward: f64,
    /// Reward of the forward pass.
    pub total_reward: f64,
    /// Charge-corrected MPG of the forward pass.
    pub mpg: f64,
}

/// Solves the DP bound (`DpConfig::default()`) on every cycle.
pub fn run_dp(cycles: &[(&'static str, DriveCycle)], tracer: &Tracer) -> Vec<DpRow> {
    let config = DpConfig::default();
    cycles
        .iter()
        .map(|(name, cycle)| {
            let mut hev = experiments::fresh_hev(INITIAL_SOC);
            let mut span = tracer.enter("hev-control.dp.solve");
            span.tag(name);
            let sol = solve_dp(&mut hev, cycle, INITIAL_SOC, &config);
            drop(span);
            DpRow {
                cycle: name,
                expected_reward: sol.expected_reward,
                total_reward: sol.metrics.total_reward,
                mpg: experiments::corrected_mpg(&sol.metrics),
            }
        })
        .collect()
}

/// Corrected MPG of the rule-based baseline on every cycle.
pub fn rule_mpgs(cycles: &[(&'static str, DriveCycle)]) -> Vec<f64> {
    let cfg = ExperimentConfig {
        initial_soc: INITIAL_SOC,
        ..ExperimentConfig::default()
    };
    cycles
        .iter()
        .map(|(_, c)| experiments::corrected_mpg(&experiments::run_rule_based(c, &cfg)))
        .collect()
}

/// DP corrected MPG at least the rule-based one on every cycle.
pub fn check_dp_rows(rows: &[DpRow], rule: &[f64]) -> Result<(), String> {
    if rows.len() != rule.len() || rows.is_empty() {
        return Err(format!("{} DP rows for {} cycles", rows.len(), rule.len()));
    }
    let bad: Vec<String> = rows
        .iter()
        .zip(rule)
        .filter(|(d, &r)| !(d.mpg.is_finite() && d.mpg >= r))
        .map(|(d, r)| format!("{}: DP {:.2} < rule {:.2}", d.cycle, d.mpg, r))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// Calls `hev_serve::serve` on the fleet over `shards` workers.
pub fn run_serve(inputs: &Inputs, shards: usize, tracer: &Tracer) -> Result<ServeOutput, String> {
    let config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let _span = tracer.enter("hev-serve.serve");
    serve(&config, &inputs.specs, &inputs.requests).map_err(|e| e.to_string())
}

/// Verdict totals of a serve call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Served requests.
    pub served: u64,
    /// Shed requests.
    pub shed: u64,
    /// Error verdicts, unknown sessions included.
    pub errors: u64,
    /// Quarantine events.
    pub quarantines: u64,
    /// Served requests per rung: full, myopic, rule, limp-home.
    pub rungs: [u64; 4],
}

/// Totals the per-session statistics of a serve call.
pub fn tally(out: &ServeOutput) -> Tally {
    let mut t = Tally {
        errors: out.unknown_session,
        quarantines: out.quarantines,
        ..Tally::default()
    };
    for s in out.stats.values() {
        t.served += s.served;
        t.shed += s.shed;
        t.errors += s.errors;
        for (acc, r) in t.rungs.iter_mut().zip(s.rungs) {
            *acc += r;
        }
    }
    t
}

/// Exactly one response per request, in stream order, and
/// served + shed + errors = requests.
pub fn check_stream(out: &ServeOutput, requests: &[Request]) -> Result<(), String> {
    if out.responses.len() != requests.len() {
        return Err(format!(
            "{} responses for {} requests",
            out.responses.len(),
            requests.len()
        ));
    }
    if let Some(i) = out
        .responses
        .iter()
        .zip(requests)
        .position(|(resp, req)| resp.index != req.index || resp.session != req.session)
    {
        return Err(format!("response {i} answers another request"));
    }
    let t = tally(out);
    if t.served + t.shed + t.errors != requests.len() as u64 {
        return Err(format!(
            "served {} + shed {} + errors {} != {} requests",
            t.served,
            t.shed,
            t.errors,
            requests.len()
        ));
    }
    Ok(())
}

/// One client's in-order replay of the request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRun {
    /// Service time of every request, µs, in stream order.
    pub times_us: Vec<f64>,
    /// The response stream (JSON lines).
    pub stream: String,
    /// Requests served with a control.
    pub served: u64,
    /// Requests answered with an error, crashes included.
    pub failed: u64,
    /// Crash-flagged requests that panicked their session.
    pub crashes: u64,
    /// Evaluation counters of the replay.
    pub counts: Counts,
}

/// Replays the stream in order through `Session::process`, one request
/// at a time, timing each. A panicking request is caught, its session
/// rebuilt with `Session::new(spec, attempt + 1)` inside the request's
/// time, and the request answered `session_crashed`.
pub fn client_replay(inputs: &Inputs, tracer: &Tracer) -> Result<ClientRun, String> {
    let ladder = LadderConfig::default();
    let mut live = inputs.sessions.clone();
    let mut attempts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut run = ClientRun {
        times_us: Vec::with_capacity(inputs.requests.len()),
        stream: String::new(),
        served: 0,
        failed: 0,
        crashes: 0,
        counts: Counts::default(),
    };
    let before = evals::counts();
    for (i, req) in inputs.requests.iter().enumerate() {
        let mut span = tracer.enter("hev-serve.request");
        span.request(i as u64);
        let t0 = Instant::now();
        let (verdict, crashed) = match live.get_mut(&req.session) {
            None => (Verdict::Error(RequestError::UnknownSession), false),
            Some(session) => {
                match catch_unwind(AssertUnwindSafe(|| session.process(req, &ladder))) {
                    Ok(v) => (v, false),
                    Err(_) => {
                        let attempt = attempts.entry(req.session).or_insert(0);
                        *attempt += 1;
                        let mut rebuild = tracer.enter("hev-serve.session_new");
                        rebuild.request(i as u64);
                        let spec = *session.spec();
                        *session = Session::new(spec, *attempt)
                            .map_err(|e| format!("rebuild session {}: {e}", spec.id))?;
                        (Verdict::Error(RequestError::SessionCrashed), true)
                    }
                }
            }
        };
        let elapsed = t0.elapsed();
        span.tag(match (&verdict, crashed) {
            (_, true) => "quarantine",
            (Verdict::Served { rung, .. }, _) => rung.name(),
            (Verdict::Shed { .. }, _) => "shed",
            (Verdict::Error(_), _) => "error",
        });
        drop(span);
        run.times_us.push(elapsed.as_secs_f64() * 1e6);
        run.crashes += u64::from(crashed);
        match verdict {
            Verdict::Served { .. } => run.served += 1,
            _ => run.failed += 1,
        }
        let response = Response {
            index: req.index,
            session: req.session,
            verdict,
        };
        run.stream.push_str(&response.to_jsonl());
        run.stream.push('\n');
    }
    run.counts = evals::counts().since(&before);
    Ok(run)
}
