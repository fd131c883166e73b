//! The untraced run: the end-to-end metrics.
//!
//! Timings on this kind of machine move with the process as a whole —
//! where ASLR puts the stack and heap decides how data alias in the
//! caches, and the same binary on the same input runs in a fast or a
//! slow mode for its whole life. A run therefore measures in
//! `Sizes::children` processes, one after another, each with an equal
//! slice of the time budget, and pools their samples. Each process
//! trains Fig 3 with its own controller seed, so `mpg_gain_pct` averages
//! over as many seeds as there are processes.

use std::time::Instant;

use hev_bench::experiments;

use crate::hook;
use crate::metrics::Report;
use crate::run::{peak_rss_mb, Options};
use crate::spans::Tracer;
use crate::stamp::cores;
use crate::stats::{max, mean, median, percentile};
use crate::workload::{self as wl, Inputs, Workload};

/// The part of the system one repetition exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Figure,
    Dp,
    Serve,
}

/// What one measuring process saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildOut {
    /// Wall time of every input build, s.
    pub setup_s: Vec<f64>,
    /// Wall time of every `fig3` call, s.
    pub figure_s: Vec<f64>,
    /// `mpg_gain_pct` of this process's controller seed.
    pub gain: f64,
    /// Wall time of every four-cycle DP solve, s.
    pub dp_s: Vec<f64>,
    /// FNV-1a of the DP rows.
    pub dp_hash: u64,
    /// p50 of every client replay, µs.
    pub serve_p50: Vec<f64>,
    /// p99 of every client replay, µs.
    pub serve_p99: Vec<f64>,
    /// Request timings behind the percentiles.
    pub client_samples: usize,
    /// Requests, served, and served at the full rung, of the `serve` call.
    pub tally: [u64; 3],
    /// FNV-1a of the response stream and of the client's verdicts.
    pub stream_hashes: [u64; 2],
    /// `VmHWM` at the end, MB.
    pub peak_rss_mb: f64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations whose output was missing or failed a check.
    pub failed: u64,
    /// Failed checks: `(part, evidence)`.
    pub problems: Vec<(String, String)>,
}

/// FNV-1a 64 of a string.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Measures in process `k` of `children`: builds the inputs, then
/// shares a slice of `seconds / children` between the three parts by
/// deficit round-robin — the workload's own part gets half, the other
/// two a quarter each, interleaved so each part's samples spread over
/// the slice — and runs every part at least once.
pub fn measure_child(opts: &Options, k: usize) -> Result<ChildOut, String> {
    hook::install();
    let tracer = Tracer::new(false);
    let mut out = ChildOut {
        gain: f64::NAN,
        ..ChildOut::default()
    };
    let mut inputs = None;
    for _ in 0..opts.sizes.setup_reps.max(1) {
        let t0 = Instant::now();
        let built = wl::build_inputs(opts.seed, &opts.sizes, &tracer)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.ok_or("no setup ran")?;
    let rule = wl::rule_mpgs(&inputs.cycles);
    let seed = *inputs
        .figure_seeds
        .get(k)
        .ok_or_else(|| format!("no controller seed for process {k}"))?;
    let cfg = wl::figure_config(&opts.sizes, seed, cores());

    let primary = match opts.workload {
        Workload::PaperFigure => Part::Figure,
        Workload::DpBound => Part::Dp,
        Workload::FleetServe => Part::Serve,
    };
    let parts = [Part::Figure, Part::Dp, Part::Serve];
    let share = |p: Part| if p == primary { 0.5 } else { 0.25 };
    let budget = opts.seconds / opts.sizes.children.max(1) as f64;
    let mut used = [0.0f64; 3];
    let mut last = [0.0f64; 3];
    let mut reps = [0usize; 3];
    let mut first: [Option<String>; 4] = Default::default();
    let start = Instant::now();
    loop {
        // A part repeats only while a repetition as long as its last one
        // still ends inside the slice; every part runs at least once.
        let elapsed = start.elapsed().as_secs_f64();
        let next = (0..parts.len())
            .filter(|&i| reps[i] == 0 || elapsed + last[i] <= budget)
            .min_by(|&a, &b| (used[a] / share(parts[a])).total_cmp(&(used[b] / share(parts[b]))));
        let Some(i) = next else { break };
        let t0 = Instant::now();
        match parts[i] {
            Part::Figure => figure_once(&cfg, &mut first[0], &mut out),
            Part::Dp => dp_once(&inputs, &rule, &mut first[1], &mut out),
            Part::Serve => serve_once(&inputs, &mut first[2..], &mut out)?,
        }
        last[i] = t0.elapsed().as_secs_f64();
        used[i] += last[i];
        reps[i] += 1;
    }
    out.peak_rss_mb = peak_rss_mb();
    Ok(out)
}

fn figure_once(
    cfg: &experiments::ExperimentConfig,
    first: &mut Option<String>,
    out: &mut ChildOut,
) {
    let t0 = Instant::now();
    let rows = experiments::fig3(cfg);
    out.figure_s.push(t0.elapsed().as_secs_f64());
    out.attempted += 1;
    let mut ok = true;
    if let Err(e) = wl::check_figure_rows(&rows) {
        out.problems.push(("figure".into(), e));
        ok = false;
    }
    let text = format!("{rows:?}");
    match first {
        None => {
            out.gain = wl::mpg_gain_pct(&rows);
            *first = Some(text);
        }
        Some(f) if *f != text => {
            out.problems
                .push(("figure".into(), "a repeated seed gave other rows".into()));
            ok = false;
        }
        Some(_) => {}
    }
    out.failed += u64::from(!ok);
}

fn dp_once(inputs: &Inputs, rule: &[f64], first: &mut Option<String>, out: &mut ChildOut) {
    let t0 = Instant::now();
    let rows = wl::run_dp(&inputs.cycles, &Tracer::new(false));
    out.dp_s.push(t0.elapsed().as_secs_f64());
    out.attempted += rows.len() as u64;
    let mut ok = true;
    if let Err(e) = wl::check_dp_rows(&rows, rule) {
        out.problems.push(("dp".into(), e));
        ok = false;
    }
    let text = format!("{rows:?}");
    match first {
        None => {
            out.dp_hash = fnv(&text);
            *first = Some(text);
        }
        Some(f) if *f != text => {
            out.problems
                .push(("dp".into(), "a repeated solve differs".into()));
            ok = false;
        }
        Some(_) => {}
    }
    if !ok {
        out.failed += rows.len() as u64;
    }
}

/// One `serve` call at `nproc` shards (the first repetition also one at
/// 1 shard, for shard invariance), then one client replay.
fn serve_once(
    inputs: &Inputs,
    first: &mut [Option<String>],
    out: &mut ChildOut,
) -> Result<(), String> {
    let off = Tracer::new(false);
    let jobs = cores();
    let n = inputs.requests.len();
    let mut problems = Vec::new();

    let panics = hook::chaos_panics();
    let served = wl::run_serve(inputs, jobs, &off)?;
    let panics = hook::chaos_panics() - panics;
    out.attempted += n as u64;
    if panics != served.quarantines {
        problems.push(format!(
            "{panics} chaos panics for {} quarantines",
            served.quarantines
        ));
    }
    if let Err(e) = wl::check_stream(&served, &inputs.requests) {
        problems.push(e);
    }
    let stream = served.response_stream();
    match &first[0] {
        None => {
            let t = wl::tally(&served);
            out.tally = [n as u64, t.served, t.rungs[0]];
            out.stream_hashes[0] = fnv(&stream);
            if wl::run_serve(inputs, 1, &off)?.response_stream() != stream {
                problems.push(format!("stream at 1 shard differs from {jobs} shards"));
            }
            first[0] = Some(stream);
        }
        Some(f) if *f != stream => problems.push("a repeated call differs".into()),
        Some(_) => {}
    }
    if !problems.is_empty() {
        out.failed += n as u64;
    }

    let panics = hook::chaos_panics();
    let client = wl::client_replay(inputs, &off)?;
    let panics = hook::chaos_panics() - panics;
    out.attempted += n as u64;
    let mut client_problems = Vec::new();
    let lines = client.stream.lines().count();
    if client.times_us.len() != n || lines != n {
        client_problems.push(format!(
            "client: {} timings and {lines} verdicts for {n} requests",
            client.times_us.len()
        ));
    }
    if panics != client.crashes {
        client_problems.push(format!(
            "client: {panics} chaos panics for {} caught crashes",
            client.crashes
        ));
    }
    match &first[1] {
        None => {
            out.stream_hashes[1] = fnv(&client.stream);
            first[1] = Some(client.stream.clone());
        }
        Some(f) if *f != client.stream => {
            client_problems.push("client: a repeated replay differs".into())
        }
        Some(_) => {}
    }
    if !client_problems.is_empty() {
        out.failed += n as u64;
    }
    out.serve_p50.push(percentile(&client.times_us, 50.0));
    out.serve_p99.push(percentile(&client.times_us, 99.0));
    out.client_samples += client.times_us.len();
    out.problems.extend(
        problems
            .into_iter()
            .chain(client_problems)
            .map(|p| ("serve".to_string(), p)),
    );
    Ok(())
}

impl ChildOut {
    /// The line protocol a measuring process prints.
    pub fn to_lines(&self) -> String {
        let list = |v: &[f64]| v.iter().map(|x| format!(" {x}")).collect::<String>();
        let mut s = String::new();
        s += &format!("setup_s{}\n", list(&self.setup_s));
        s += &format!("figure_s{}\n", list(&self.figure_s));
        s += &format!("gain {}\n", self.gain);
        s += &format!("dp_s{}\n", list(&self.dp_s));
        s += &format!("dp_hash {}\n", self.dp_hash);
        s += &format!("serve_p50{}\n", list(&self.serve_p50));
        s += &format!("serve_p99{}\n", list(&self.serve_p99));
        s += &format!("client_samples {}\n", self.client_samples);
        s += &format!(
            "tally {} {} {}\n",
            self.tally[0], self.tally[1], self.tally[2]
        );
        s += &format!(
            "stream_hashes {} {}\n",
            self.stream_hashes[0], self.stream_hashes[1]
        );
        s += &format!("peak_rss_mb {}\n", self.peak_rss_mb);
        s += &format!("attempted {}\n", self.attempted);
        s += &format!("failed {}\n", self.failed);
        for (part, detail) in &self.problems {
            s += &format!("problem {part} {}\n", detail.replace('\n', " "));
        }
        s
    }

    /// Reads [`ChildOut::to_lines`] back.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = ChildOut::default();
        let num = |w: &str| w.parse::<f64>().map_err(|e| format!("bad number {w}: {e}"));
        let int = |w: &str| {
            w.parse::<u64>()
                .map_err(|e| format!("bad integer {w}: {e}"))
        };
        let mut seen = 0;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let words: Vec<&str> = rest.split_whitespace().collect();
            let floats = || {
                words
                    .iter()
                    .map(|w| num(w))
                    .collect::<Result<Vec<f64>, String>>()
            };
            let ints = || {
                words
                    .iter()
                    .map(|w| int(w))
                    .collect::<Result<Vec<u64>, String>>()
            };
            let one = |v: Vec<u64>| v.first().copied().ok_or(format!("{key} without value"));
            let onef = |v: Vec<f64>| v.first().copied().ok_or(format!("{key} without value"));
            match key {
                "setup_s" => out.setup_s = floats()?,
                "figure_s" => out.figure_s = floats()?,
                "gain" => out.gain = onef(floats()?)?,
                "dp_s" => out.dp_s = floats()?,
                "dp_hash" => out.dp_hash = one(ints()?)?,
                "serve_p50" => out.serve_p50 = floats()?,
                "serve_p99" => out.serve_p99 = floats()?,
                "client_samples" => out.client_samples = one(ints()?)? as usize,
                "tally" => {
                    out.tally = ints()?
                        .try_into()
                        .map_err(|_| "tally needs three values".to_string())?
                }
                "stream_hashes" => {
                    out.stream_hashes = ints()?
                        .try_into()
                        .map_err(|_| "stream_hashes needs two values".to_string())?
                }
                "peak_rss_mb" => out.peak_rss_mb = onef(floats()?)?,
                "attempted" => out.attempted = one(ints()?)?,
                "failed" => out.failed = one(ints()?)?,
                "problem" => {
                    let (part, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                    out.problems.push((part.to_string(), detail.to_string()));
                    continue;
                }
                _ => return Err(format!("unknown line {line:?}")),
            }
            seen += 1;
        }
        if seen != 13 {
            return Err(format!("{seen} of 13 result lines"));
        }
        Ok(out)
    }
}

/// Pools the processes' samples into the end-to-end metrics and checks.
pub fn aggregate(outs: &[ChildOut], report: &mut Report) {
    let pool = |f: fn(&ChildOut) -> &Vec<f64>| -> Vec<f64> {
        outs.iter().flat_map(|o| f(o).iter().copied()).collect()
    };
    let setup = pool(|o| &o.setup_s);
    report.metric("setup_s", median(&setup), "s", setup.len());
    let rss: Vec<f64> = outs.iter().map(|o| o.peak_rss_mb).collect();
    report.metric("peak_rss_mb", max(&rss), "MB", rss.len());
    let figure = pool(|o| &o.figure_s);
    report.metric("figure_s", median(&figure), "s", figure.len());
    let gains: Vec<f64> = outs.iter().map(|o| o.gain).collect();
    let gain = mean(&gains);
    report.metric("mpg_gain_pct", gain, "%", gains.len());
    let dp = pool(|o| &o.dp_s);
    report.metric("dp_s", median(&dp), "s", dp.len());
    let samples: usize = outs.iter().map(|o| o.client_samples).sum();
    report.metric(
        "serve_p50_us",
        median(&pool(|o| &o.serve_p50)),
        "us",
        samples,
    );
    report.metric(
        "serve_p99_us",
        median(&pool(|o| &o.serve_p99)),
        "us",
        samples,
    );
    let [requests, served, full] = outs.first().map(|o| o.tally).unwrap_or_default();
    report.metric(
        "serve_ok_share",
        served as f64 / requests as f64,
        "ratio",
        requests as usize,
    );
    report.metric(
        "serve_full_share",
        full as f64 / served as f64,
        "ratio",
        served as usize,
    );

    let problems = |part: &str| -> Vec<String> {
        outs.iter()
            .enumerate()
            .flat_map(|(k, o)| {
                o.problems
                    .iter()
                    .filter(move |(p, _)| p == part)
                    .map(move |(_, d)| format!("process {k}: {d}"))
            })
            .collect()
    };
    let agree = |f: fn(&ChildOut) -> String| outs.windows(2).all(|w| f(&w[0]) == f(&w[1]));
    let mut figure_bad = problems("figure");
    if gains.iter().any(|g| !g.is_finite()) {
        figure_bad.push("a process ran no Fig 3".into());
    }
    verdict(
        report,
        "Fig 3 rows finite and positive, a seed's repeats identical",
        figure_bad,
        figure.len(),
    );
    report.check(
        "mpg_gain_pct > 0",
        gain > 0.0,
        format!("{gain:.3} % over {} seeds", gains.len()),
    );
    let mut dp_bad = problems("dp");
    if !agree(|o| o.dp_hash.to_string()) {
        dp_bad.push("processes solved different DP rows".into());
    }
    verdict(
        report,
        "DP corrected MPG >= rule-based on every cycle, solves identical",
        dp_bad,
        dp.len(),
    );
    let mut serve_bad = problems("serve");
    if !agree(|o| format!("{:?} {:?}", o.tally, o.stream_hashes)) {
        serve_bad.push("processes served different streams".into());
    }
    verdict(
        report,
        "serve: one response per request in order, totals add up, identical across shards, calls and processes; chaos panics = quarantines = caught crashes",
        serve_bad,
        pool(|o| &o.serve_p50).len(),
    );
    report.attempted = outs.iter().map(|o| o.attempted).sum();
    report.failed = outs.iter().map(|o| o.failed).sum();
}

fn verdict(report: &mut Report, name: &str, bad: Vec<String>, reps: usize) {
    let detail = if bad.is_empty() {
        format!("{reps} repetitions")
    } else {
        bad.join("; ")
    };
    report.check(name, bad.is_empty(), detail);
}
