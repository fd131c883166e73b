//! Metric names, units and the result line.
//!
//! The names here are the benchmark's contract: `BENCHMARK.json` lists
//! exactly these, and later changes are judged on them.

/// The four paper cycles, lower-cased as they appear in metric names.
pub const CYCLES: [&str; 4] = ["oscar", "udds", "sc03", "hwfet"];

/// The serving rungs, as `hev_serve::Rung::name` spells them.
pub const RUNGS: [&str; 4] = ["full", "myopic", "rule", "limp_home"];

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("setup_s", "s", "lower"),
        spec("peak_rss_mb", "MB", "lower"),
        spec("figure_s", "s", "lower"),
        spec("mpg_gain_pct", "%", "higher"),
        spec("dp_s", "s", "lower"),
        spec("serve_p50_us", "us", "lower"),
        spec("serve_p99_us", "us", "lower"),
        spec("serve_ok_share", "ratio", "higher"),
        spec("serve_full_share", "ratio", "higher"),
    ]
}

/// The per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![
        spec("drive-cycle.build_ms", "ms", "lower"),
        spec("hev-model.ctx_table_ms", "ms", "lower"),
        spec("hev-model.lane_ns", "ns", "lower"),
        spec("hev-model.peek_ns", "ns", "lower"),
        spec("hev-model.evals", "count", "lower"),
        spec("hev-model.batch_lanes", "count", "lower"),
        spec("hev-model.batch_calls", "count", "lower"),
        spec("hev-model.batch_width", "lanes", "higher"),
        spec("hev-model.ctx_rebuilds", "count", "lower"),
        spec("hev-control.resolve_us.p50", "us", "lower"),
        spec("hev-control.resolve_us.p99", "us", "lower"),
        spec("hev-control.evals_per_resolve", "count", "lower"),
        spec("hev-control.resolve_fixed_aux_us", "us", "lower"),
        spec("hev-control.resolve_masked_share", "ratio", "lower"),
        spec("hev-control.mask_us", "us", "lower"),
    ];
    for c in CYCLES {
        v.push(spec(
            format!("hev-control.train_episode_ms.{c}.p50"),
            "ms",
            "lower",
        ));
        v.push(spec(
            format!("hev-control.train_episode_ms.{c}.p90"),
            "ms",
            "lower",
        ));
    }
    v.extend([
        spec("hev-control.eval_episode_ms", "ms", "lower"),
        spec("hev-control.step_us", "us", "lower"),
        spec("hev-control.evals_per_step", "count", "lower"),
        spec("hev-control.wall_per_eval_ns.episode", "ns", "lower"),
        spec("hev-control.wall_per_eval_ns.resolve", "ns", "lower"),
        spec("hev-control.wall_per_eval_ns.dp", "ns", "lower"),
        spec("hev-control.harness.task_ms.p50", "ms", "lower"),
        spec("hev-control.harness.task_ms.max", "ms", "lower"),
        spec("hev-control.harness.busy_share", "ratio", "higher"),
        spec("hev-control.harness.imbalance", "ratio", "lower"),
    ]);
    for c in CYCLES {
        v.push(spec(format!("hev-control.dp.solve_ms.{c}"), "ms", "lower"));
    }
    v.extend([
        spec("hev-control.dp.evals", "count", "lower"),
        spec("hev-serve.req_per_s", "1/s", "higher"),
        spec("hev-serve.shard_speedup", "ratio", "higher"),
    ]);
    // No limp-home service time: the fleet's smallest budget (80
    // evals) still fits the rule rung, so limp-home serves no request
    // and has no sample. Its count below stays (and reads 0).
    for r in &RUNGS[..3] {
        v.push(spec(format!("hev-serve.rung_us.{r}"), "us", "lower"));
    }
    v.extend([
        spec("hev-serve.quarantine_us", "us", "lower"),
        spec("hev-serve.evals_per_request.p50", "count", "lower"),
        spec("hev-serve.evals_per_request.p99", "count", "lower"),
    ]);
    for r in RUNGS {
        v.push(spec(format!("hev-serve.rung.{r}"), "count", "higher"));
    }
    v.extend([
        spec("hev-serve.shed", "count", "lower"),
        spec("hev-serve.errors", "count", "lower"),
        spec("hev-serve.quarantines", "count", "lower"),
        spec("hev-serve.chaos_panics", "count", "lower"),
        spec("perfbench.trace_overhead_s", "s", "lower"),
    ]);
    v
}

/// Whether `name` follows the metric-name grammar: a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, printed either way.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Metrics in the order they were measured.
    pub metrics: Vec<Measured>,
    /// Checks in the order they ran.
    pub checks: Vec<Check>,
    /// Operations the run issued (figure runs, DP solves, requests).
    pub attempted: u64,
    /// Operations whose output was missing or failed a check.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Measured {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records a check from a result: `Err` carries the evidence.
    pub fn check_result(&mut self, name: &str, result: Result<(), String>) {
        let ok = result.is_ok();
        self.check(name, ok, result.err().unwrap_or_default());
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Verifies that exactly the metrics in `expected` were measured,
    /// each once, with its declared unit and a finite value.
    pub fn check_complete(&mut self, expected: &[Spec]) {
        let mut problems = Vec::new();
        for e in expected {
            let found: Vec<&Measured> = self.metrics.iter().filter(|m| m.name == e.name).collect();
            match found.as_slice() {
                [m] if m.unit == e.unit && m.value.is_finite() => {}
                [m] => problems.push(format!("{}={} {}", e.name, m.value, m.unit)),
                [] => problems.push(format!("{} missing", e.name)),
                _ => problems.push(format!("{} measured twice", e.name)),
            }
        }
        for m in &self.metrics {
            if !expected.iter().any(|e| e.name == m.name) {
                problems.push(format!("{} not declared", m.name));
            }
        }
        let detail = if problems.is_empty() {
            format!("{} metrics", expected.len())
        } else {
            problems.join(", ")
        };
        self.check("metrics complete and finite", problems.is_empty(), detail);
    }

    /// Human-readable lines: every metric with unit and sample count,
    /// then every check.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in &self.metrics {
            out.push(format!(
                "metric {:<44} {:>16} {:<6} n={}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.samples
            ));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            out.push(format!("check  {verdict} {}: {}", c.name, c.detail));
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_value(v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Every digit of `v`: the shortest decimal that reads back as `v`.
fn fmt_value(v: f64) -> String {
    format!("{v}")
}
