//! The benchmark's own tests: metric names, seeding, smoke runs of every
//! workload at tiny sizes, and span nesting.

use std::sync::Mutex;

use perfbench::metrics::{end_to_end, per_layer, valid_name, Spec};
use perfbench::run::{run, Options};
use perfbench::spans::{check_nesting, self_times, Tracer};
use perfbench::untraced::{measure_child, ChildOut};
use perfbench::workload::{build_inputs, Sizes, Workload, WORKLOADS};

/// Workload runs count chaos panics in one process-wide counter, so
/// they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the benchmark in this process (measuring processes included).
fn run_here(opts: &Options) -> (perfbench::metrics::Report, Vec<perfbench::spans::Span>) {
    run(opts, |k| measure_child(opts, k)).unwrap()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(),
        trace_out: None,
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn as_pairs(specs: &[Spec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|s| (s.name.clone(), s.unit.to_string()))
        .collect()
}

#[test]
fn metric_names_follow_the_grammar_and_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e = end_to_end();
    let layer = per_layer();
    let mut names: Vec<&str> = e2e.iter().chain(&layer).map(|s| s.name.as_str()).collect();
    for n in &names {
        assert!(valid_name(n), "bad metric name {n}");
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "metric names repeat");
    assert!(layer.len() <= 128);
    assert_eq!(declared(&json, "end_to_end"), as_pairs(&e2e));
    assert_eq!(declared(&json, "per_layer"), as_pairs(&layer));
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "{w} not declared"
        );
        assert!(Workload::parse(w).is_some());
    }
    assert!(!valid_name("-leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
}

#[test]
fn a_different_seed_changes_the_inputs_but_not_the_verdicts() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let off = Tracer::new(false);
    let a = build_inputs(1, &Sizes::tiny(), &off).unwrap();
    let b = build_inputs(2, &Sizes::tiny(), &off).unwrap();
    assert_ne!(a.figure_seeds, b.figure_seeds);
    assert_ne!(a.specs, b.specs);
    assert_ne!(format!("{:?}", a.requests), format!("{:?}", b.requests));
    let again = build_inputs(1, &Sizes::tiny(), &off).unwrap();
    assert_eq!(a.figure_seeds, again.figure_seeds);
    assert_eq!(format!("{:?}", a.requests), format!("{:?}", again.requests));

    let verdicts = |seed| {
        let (report, _) = run_here(&tiny(Workload::FleetServe, seed, false));
        report
            .checks
            .iter()
            .map(|c| (c.name.clone(), c.ok))
            .collect::<Vec<_>>()
    };
    let (va, vb) = (verdicts(1), verdicts(2));
    assert!(va.iter().all(|(_, ok)| *ok), "{va:?}");
    assert_eq!(va, vb);
}

#[test]
fn every_workload_passes_a_tiny_untraced_and_traced_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for w in WORKLOADS {
        let workload = Workload::parse(w).unwrap();
        for trace in [false, true] {
            let (report, spans) = run_here(&tiny(workload, 7, trace));
            let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
            assert!(failed.is_empty(), "{w} trace={trace}: {failed:?}");
            assert!(report.attempted >= 1);
            assert_eq!(report.failed, 0);
            let expected = if trace { per_layer() } else { end_to_end() };
            assert_eq!(report.metrics.len(), expected.len());
            assert_eq!(spans.is_empty(), !trace);
            let line = report.result_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn a_measuring_process_result_reads_back() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let out = measure_child(&tiny(Workload::DpBound, 3, false), 0).unwrap();
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    assert_eq!(ChildOut::parse(&out.to_lines()).unwrap(), out);
    let mut failing = out.clone();
    failing.problems.push(("dp".into(), "two words".into()));
    assert_eq!(ChildOut::parse(&failing.to_lines()).unwrap(), failing);
    assert!(ChildOut::parse("setup_s 1\n").is_err());
}

#[test]
fn spans_nest_and_self_time_is_never_negative() {
    let tracer = Tracer::new(true);
    {
        let outer = tracer.enter("outer");
        let parent = outer.id();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _task = tracer.enter_under("task", parent);
                    let _inner = tracer.enter("inner");
                    std::hint::black_box((0..10_000).sum::<u64>());
                });
            }
        });
        let mut leaf = tracer.enter("leaf");
        leaf.request(3);
    }
    let spans = tracer.take();
    assert_eq!(spans.len(), 6);
    check_nesting(&spans).unwrap();
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    for s in spans.iter().filter(|s| s.name != "outer") {
        let parent = spans.iter().find(|p| Some(p.id) == s.parent).unwrap();
        assert_eq!(
            parent.name,
            if s.name == "inner" { "task" } else { "outer" }
        );
    }
    let selfs = self_times(&spans);
    for (s, own) in spans.iter().zip(&selfs) {
        assert!(*own <= s.duration_ns());
    }
    // The two tasks overlap in time; covered time is counted once, so
    // the outer span's self time is its duration minus their union.
    let outer_self = selfs[spans.iter().position(|s| s.id == outer.id).unwrap()];
    assert!(outer_self < outer.duration_ns());

    let disabled = Tracer::new(false);
    drop(disabled.enter("nothing"));
    assert!(disabled.take().is_empty());

    let mut bad = spans.clone();
    let child = bad.iter().position(|s| s.name == "inner").unwrap();
    bad[child].end_ns = outer.end_ns + 1;
    assert!(check_nesting(&bad).is_err());
}
