//! Parallel-determinism regression tests and golden shape tests.
//!
//! The harness's contract is that `--jobs N` only trades wall-clock for
//! cores: every result is **bit-identical** at every worker count,
//! because each run's RNG stream is split from the master seed by task
//! index, never by thread. These tests pin that contract (serial vs
//! 1/2/8 workers, down to the trained Q-tables) and the qualitative
//! shape of the headline experiment at a small, fixed budget.

use drive_cycle::StandardCycle;
use hev_bench::experiments::{self, corrected_fuel_g, ExperimentConfig};
use hev_control::{
    simulate_with_faults, ControllerSnapshot, EpisodeMetrics, FaultConfig, FaultPlan, Harness,
    JointController, JointControllerConfig, RewardConfig, SeedSequence, SupervisedPolicy,
};

/// A budget small enough for CI but large enough that training leaves
/// the all-zeros Q-table far behind.
fn tiny(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        episodes: 6,
        runs: 3,
        jobs,
        ..Default::default()
    }
}

/// Trains one controller per split seed and returns the full trained
/// state, fanned across `jobs` workers.
fn train_snapshots(jobs: usize) -> Vec<(ControllerSnapshot, f64)> {
    let cycle = StandardCycle::Oscar.cycle();
    Harness::new(jobs).run_seeded("determinism", 2015, 3, |_, seed| {
        let mut cfg = JointControllerConfig::proposed();
        cfg.seed = seed;
        let mut hev = experiments::fresh_hev(cfg.initial_soc);
        let mut agent = JointController::new(cfg);
        agent.train(&mut hev, &cycle, 4);
        let fuel = agent.evaluate(&mut hev, &cycle).fuel_g;
        (agent.snapshot(), fuel)
    })
}

#[test]
fn q_tables_and_fuel_identical_across_worker_counts() {
    let serial = train_snapshots(1);
    for jobs in [2, 8] {
        let parallel = train_snapshots(jobs);
        assert_eq!(
            serial, parallel,
            "trained state diverged between 1 and {jobs} workers"
        );
    }
    // Distinct split seeds really trained distinct controllers.
    assert_ne!(serial[0].0.learner, serial[1].0.learner);
}

#[test]
fn train_eval_runs_identical_across_worker_counts() {
    let cycle = StandardCycle::Oscar.cycle();
    let controller = JointControllerConfig::proposed();
    let serial = experiments::train_eval_runs(&controller, &cycle, &tiny(1));
    for jobs in [2, 8] {
        let parallel = experiments::train_eval_runs(&controller, &cycle, &tiny(jobs));
        assert_eq!(
            serial, parallel,
            "metrics diverged between 1 and {jobs} workers"
        );
    }
    assert_eq!(serial.len(), 3);
}

/// Trains tiny controllers and evaluates them supervised under seeded
/// fault plans, fanned across `jobs` workers.
fn faulted_evaluations(jobs: usize) -> Vec<EpisodeMetrics> {
    let cycle = StandardCycle::Oscar.cycle();
    Harness::new(jobs).run_seeded("fault-determinism", 2015, 4, |k, seed| {
        let mut cfg = JointControllerConfig::proposed();
        cfg.seed = seed;
        let mut hev = experiments::fresh_hev(cfg.initial_soc);
        let mut agent = JointController::new(cfg);
        agent.train(&mut hev, &cycle, 2);
        agent.set_training(false);
        let mut supervised = SupervisedPolicy::new(agent);
        let mut plan = FaultPlan::from_sequence(
            FaultConfig::at_severity(1.0),
            &SeedSequence::new(7),
            k as u64,
        );
        let mut faulted_hev = experiments::fresh_hev(0.6);
        plan.degrade_plant(&mut faulted_hev);
        simulate_with_faults(
            &mut faulted_hev,
            &cycle,
            &mut supervised,
            &RewardConfig::default(),
            Some(&mut plan),
        )
    })
}

/// The fault path inherits the harness's any-worker-count determinism:
/// a seeded `FaultPlan` yields bit-identical faulted metrics (and
/// degradation reports) at every `--jobs` value.
#[test]
fn faulted_evaluations_identical_across_worker_counts() {
    let serial = faulted_evaluations(1);
    for jobs in [2, 8] {
        assert_eq!(
            serial,
            faulted_evaluations(jobs),
            "faulted metrics diverged between 1 and {jobs} workers"
        );
    }
    // The faults actually bit: every run carries a degradation report
    // over the full cycle.
    let cycle_len = StandardCycle::Oscar.cycle().len();
    for m in &serial {
        assert_eq!(m.steps, cycle_len);
        assert_eq!(
            m.degradation.expect("supervised report").decisions,
            cycle_len
        );
    }
}

/// Trains one controller of config `base` per split seed on the given
/// evaluation path (batched by default, or the scalar reference
/// implementation when `scalar_reference` is set) and returns the full
/// trained state.
fn train_snapshots_on_path(
    base: &JointControllerConfig,
    jobs: usize,
    scalar_reference: bool,
) -> Vec<(ControllerSnapshot, f64)> {
    let cycle = StandardCycle::Oscar.cycle();
    Harness::new(jobs).run_seeded("determinism", 2015, 3, |_, seed| {
        let mut cfg = base.clone();
        cfg.seed = seed;
        cfg.inner.scalar_reference = scalar_reference;
        let mut hev = experiments::fresh_hev(cfg.initial_soc);
        let mut agent = JointController::new(cfg);
        agent.train(&mut hev, &cycle, 4);
        let fuel = agent.evaluate(&mut hev, &cycle).fuel_g;
        (agent.snapshot(), fuel)
    })
}

/// The batched candidate-evaluation path is a pure performance
/// refactor: against the scalar reference implementation (the pre-batch
/// golden, reachable via `InnerOptimizer::scalar_reference`), training
/// yields bit-identical Q-tables, exploration state, fuel, and
/// serialized run output at every worker count, in both the reduced and
/// the full action space (whose mask and myopic argmax share one scored
/// batch). The embedded config is excluded from the comparison — it
/// necessarily differs by the `scalar_reference` flag itself.
#[test]
fn batched_path_matches_scalar_reference_goldens() {
    fn trained_state(
        snapshots: Vec<(ControllerSnapshot, f64)>,
    ) -> Vec<(hev_rl::TdLambda, f64, [u64; 4], f64)> {
        snapshots
            .into_iter()
            .map(|(s, fuel)| (s.learner, s.epsilon, s.rng_state, fuel))
            .collect()
    }
    for (space, base) in [
        ("reduced", JointControllerConfig::proposed()),
        (
            "full",
            JointControllerConfig::full_action_space(5, vec![100.0, 600.0, 1_100.0]),
        ),
    ] {
        let golden = trained_state(train_snapshots_on_path(&base, 1, true));
        let golden_bytes = serde_json::to_string(&golden).expect("snapshots serialize");
        for jobs in [1, 2, 4] {
            let batched = trained_state(train_snapshots_on_path(&base, jobs, false));
            assert_eq!(
                golden, batched,
                "{space}-space batched trained state diverged from the scalar reference at {jobs} workers"
            );
            let batched_bytes = serde_json::to_string(&batched).expect("snapshots serialize");
            assert_eq!(
                golden_bytes, batched_bytes,
                "{space}-space batched run output bytes diverged from the scalar reference at {jobs} workers"
            );
        }
    }
}

/// The supervised fault path, which resolves through the batched inner
/// optimization, matches the scalar reference bit for bit — faulted
/// metrics and degradation reports included.
#[test]
fn batched_supervised_fault_path_matches_scalar_reference() {
    // `faulted_evaluations` runs the default (batched) configuration;
    // replay it with the scalar reference forced through the supervisor.
    let batched = faulted_evaluations(1);
    let cycle = StandardCycle::Oscar.cycle();
    let scalar: Vec<EpisodeMetrics> =
        Harness::new(1).run_seeded("fault-determinism", 2015, 4, |k, seed| {
            let mut cfg = JointControllerConfig::proposed();
            cfg.seed = seed;
            cfg.inner.scalar_reference = true;
            let mut hev = experiments::fresh_hev(cfg.initial_soc);
            let mut agent = JointController::new(cfg);
            agent.train(&mut hev, &cycle, 2);
            agent.set_training(false);
            let mut supervisor_cfg = hev_control::supervisor::SupervisorConfig::default();
            supervisor_cfg.inner.scalar_reference = true;
            let mut supervised = SupervisedPolicy::with_config(agent, supervisor_cfg);
            let mut plan = FaultPlan::from_sequence(
                FaultConfig::at_severity(1.0),
                &SeedSequence::new(7),
                k as u64,
            );
            let mut faulted_hev = experiments::fresh_hev(0.6);
            plan.degrade_plant(&mut faulted_hev);
            simulate_with_faults(
                &mut faulted_hev,
                &cycle,
                &mut supervised,
                &RewardConfig::default(),
                Some(&mut plan),
            )
        });
    assert_eq!(
        scalar, batched,
        "supervised fault path diverged between scalar reference and batched resolve"
    );
}

#[test]
fn seed_splitting_matches_serial_reference() {
    // The harness must seed run k with split_seed(master, k) — the same
    // family a plain serial loop over SeedSequence children would use.
    let seq = SeedSequence::new(2015);
    let seeds = Harness::new(4).run_seeded("seeds", 2015, 4, |_, seed| seed);
    let expected: Vec<u64> = (0..4).map(|k| seq.child(k)).collect();
    assert_eq!(seeds, expected);
}

/// Golden shape of Figure 2 at a fixed tiny budget. Training is
/// deterministic given (seed, episodes), so these are stable regression
/// anchors, not statistical claims: at this budget the predicted-demand
/// state already pays off on the urban cycles (UDDS, MODEM), mirroring
/// the paper's headline direction.
#[test]
fn fig2_golden_shape_small_budget() {
    let cfg = ExperimentConfig {
        episodes: 12,
        jobs: 0,
        ..Default::default()
    };
    let rows = experiments::fig2(&cfg);
    assert_eq!(rows.len(), 3);
    assert_eq!(
        rows.iter().map(|r| r.cycle.as_str()).collect::<Vec<_>>(),
        ["OSCAR", "UDDS", "MODEM"]
    );
    for r in &rows {
        assert!(
            r.fuel_with_g.is_finite() && r.fuel_with_g > 0.0,
            "{}: corrected fuel (with) = {}",
            r.cycle,
            r.fuel_with_g
        );
        assert!(
            r.fuel_without_g.is_finite() && r.fuel_without_g > 0.0,
            "{}: corrected fuel (without) = {}",
            r.cycle,
            r.fuel_without_g
        );
        assert!(
            (0.5..2.0).contains(&r.normalized),
            "{}: normalized fuel {} outside sanity band",
            r.cycle,
            r.normalized
        );
    }
    for urban in [&rows[1], &rows[2]] {
        assert!(
            urban.normalized < 1.0,
            "{}: prediction should beat no-prediction at this budget \
             (normalized = {:.3})",
            urban.cycle,
            urban.normalized
        );
    }
}

/// The corrected-fuel metric itself must stay finite and positive for
/// every run of the small-budget grid (a NaN here would silently poison
/// every averaged table).
#[test]
fn corrected_fuel_finite_positive_across_grid() {
    let cfg = tiny(0);
    let cycles = [StandardCycle::Oscar.cycle(), StandardCycle::Udds.cycle()];
    let variants = [
        ("with", JointControllerConfig::proposed()),
        ("without", JointControllerConfig::without_prediction()),
    ];
    let grid = experiments::train_eval_grid("shape", &cycles, &variants, &cfg);
    for per_cycle in &grid {
        for per_variant in per_cycle {
            assert_eq!(per_variant.len(), cfg.runs);
            for m in per_variant {
                let f = corrected_fuel_g(m);
                assert!(f.is_finite() && f > 0.0, "corrected fuel = {f}");
            }
        }
    }
}

/// The sparse Q-table's snapshot/serialization path must not depend on
/// write order: after the `BTreeMap` migration, iteration and the
/// serde tree both walk entries in `(state, action)` key order, so two
/// tables holding the same values — written in opposite orders, as
/// different worker interleavings would — serialize byte-identically
/// and survive a round-trip bit-exactly.
#[test]
fn sparse_table_serialization_independent_of_write_order() {
    use hev_rl::SparseQTable;

    let writes: Vec<(usize, usize, f64)> = (0..64)
        .map(|k| ((k * 37) % 19, k % 5, (k as f64) * 0.125 - 3.0))
        .collect();
    let mut fwd = SparseQTable::new(5, -1.0);
    let mut rev = SparseQTable::new(5, -1.0);
    for &(s, a, v) in &writes {
        fwd.set(s, a, v);
        fwd.visit(s, a);
    }
    for &(s, a, v) in writes.iter().rev() {
        rev.set(s, a, v);
        rev.visit(s, a);
    }

    let fwd_json = serde_json::to_string(&fwd).expect("sparse table serializes");
    let rev_json = serde_json::to_string(&rev).expect("sparse table serializes");
    assert_eq!(fwd_json, rev_json, "serialization depends on write order");

    // Iteration (the snapshot/export walk) is sorted and identical.
    let fwd_entries: Vec<_> = fwd.iter_entries().collect();
    assert!(
        fwd_entries.windows(2).all(|w| w[0].0 < w[1].0),
        "iter_entries must ascend by (state, action)"
    );
    assert_eq!(fwd_entries, rev.iter_entries().collect::<Vec<_>>());
    assert_eq!(
        fwd.iter_visits().collect::<Vec<_>>(),
        rev.iter_visits().collect::<Vec<_>>()
    );

    // Round-trip is bit-exact, including f64 payloads.
    let back: SparseQTable = serde_json::from_str(&fwd_json).expect("round-trip");
    assert_eq!(back, fwd);
    assert_eq!(
        serde_json::to_string(&back).expect("re-serialize"),
        fwd_json
    );
}
