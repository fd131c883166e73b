//! The batch-vs-scalar differential suite.
//!
//! [`ParallelHev::evaluate_batch_scored`]'s contract is that every lane
//! is **bit-identical** to a scalar [`ParallelHev::peek_with_context`]
//! call with the same control: every feasibility verdict, every error
//! variant, and a score that is the score closure applied to the scalar
//! outcome. [`ParallelHev::replay_candidate`] must then return the
//! scalar outcome itself. A silent divergence here would corrupt every
//! downstream result (masks, argmaxes, trained Q-tables), so this suite
//! pins the contract with zero tolerance: it scores each batch once per
//! [`StepOutcome`] field, so every field of every lane is compared via
//! `to_bits()`, across:
//!
//! * all five standard cycles the paper's experiments run on (OSCAR,
//!   UDDS, MODEM, SC03, HWFET), over a rolling battery state;
//! * fault-perturbed vehicles (motor derating, battery capacity fade —
//!   the plant-side knobs `hev-control`'s fault plans turn);
//! * proptest-randomized states and candidate grids, including the
//!   degenerate batch shapes: empty, single-candidate, all-infeasible,
//!   and duplicate candidates.

use drive_cycle::StandardCycle;
use hev_model::{
    CandidateBatch, CurrentContextCache, HevParams, ParallelHev, StepContext, StepOutcome,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hev_at(soc: f64) -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), soc).expect("valid defaults")
}

/// Every field of an outcome as a score closure: floats as themselves,
/// `mode` and `engine_started` as small integers.
type Field = (&'static str, fn(&StepOutcome) -> f64);

const FIELDS: [Field; 15] = [
    ("mode", |o| f64::from(o.mode as u8)),
    ("fuel_rate_g_per_s", |o| o.fuel_rate_g_per_s),
    ("fuel_g", |o| o.fuel_g),
    ("engine_started", |o| f64::from(u8::from(o.engine_started))),
    ("ice_torque_nm", |o| o.ice_torque_nm),
    ("ice_speed_rad_s", |o| o.ice_speed_rad_s),
    ("em_torque_nm", |o| o.em_torque_nm),
    ("em_speed_rad_s", |o| o.em_speed_rad_s),
    ("battery_current_a", |o| o.battery_current_a),
    ("battery_power_w", |o| o.battery_power_w),
    ("p_aux_w", |o| o.p_aux_w),
    ("aux_utility", |o| o.aux_utility),
    ("friction_brake_torque_nm", |o| o.friction_brake_torque_nm),
    ("soc_before", |o| o.soc_before),
    ("soc_after", |o| o.soc_after),
];

/// Every field of an outcome, as raw bits.
fn bits(o: &StepOutcome) -> [u64; 15] {
    FIELDS.map(|(_, field)| field(o).to_bits())
}

/// Scores `batch` once per outcome field and asserts every lane's
/// verdict and score bit-match the looped scalar reference at the same
/// context; then asserts that replaying each feasible lane returns the
/// scalar outcome.
fn assert_batch_matches_scalar(
    hev: &ParallelHev,
    ctx: &StepContext,
    batch: &mut CandidateBatch,
    dt: f64,
    label: &str,
) {
    let scalar: Vec<_> = (0..batch.len())
        .map(|lane| hev.peek_with_context(ctx, &batch.control(lane), dt))
        .collect();
    // One cache spans every pass: the battery state and dt never change.
    let mut cache = CurrentContextCache::new();
    for (name, field) in FIELDS {
        hev.evaluate_batch_scored(ctx, batch, &mut cache, field);
        for (lane, s) in scalar.iter().enumerate() {
            let control = batch.control(lane);
            assert_eq!(
                batch.error(lane),
                s.as_ref().err().copied(),
                "{label}: feasibility verdict diverged at lane {lane} ({control:?})"
            );
            assert_eq!(
                batch.score(lane).map(f64::to_bits),
                s.as_ref().ok().map(|o| field(o).to_bits()),
                "{label}: {name} diverged at lane {lane} ({control:?})"
            );
        }
    }
    for (lane, s) in scalar.iter().enumerate() {
        if let Ok(s) = s {
            let control = batch.control(lane);
            let replayed = hev
                .replay_candidate(ctx, &mut cache, &control, dt)
                .unwrap_or_else(|e| panic!("{label}: feasible lane {lane} replayed as {e:?}"));
            assert_eq!(
                bits(&replayed),
                bits(s),
                "{label}: replay diverged at lane {lane} ({control:?})"
            );
        }
    }
}

/// The candidate grid a controller-like sweep probes at one step:
/// the default 15-value current ladder × every gear (plus one invalid
/// gear for the error path) × three auxiliary powers.
fn push_standard_grid(batch: &mut CandidateBatch) {
    const CURRENTS: [f64; 15] = [
        -60.0, -40.0, -25.0, -15.0, -8.0, -4.0, 0.0, 4.0, 8.0, 15.0, 25.0, 40.0, 60.0, 80.0, 100.0,
    ];
    for &i in &CURRENTS {
        for gear in 0..6 {
            for aux in [100.0, 600.0, 1_500.0] {
                batch.push(i, gear, aux);
            }
        }
    }
}

/// The five standard cycles of the paper's experiments, each swept with
/// the standard candidate grid over a rolling battery state.
#[test]
fn batch_matches_scalar_on_all_five_standard_cycles() {
    let cycles = [
        StandardCycle::Oscar,
        StandardCycle::Udds,
        StandardCycle::ModemUrban,
        StandardCycle::Sc03,
        StandardCycle::Hwfet,
    ];
    let mut batch = CandidateBatch::default();
    for sc in cycles {
        let cycle = sc.cycle();
        let dt = cycle.dt();
        let mut hev = hev_at(0.6);
        // Subsampled steps keep the suite fast while still crossing every
        // stopped/braking/propelling region of each cycle; the SOC rolls
        // deterministically over the charge window so lanes see varied
        // battery states.
        for (step, point) in cycle.points().enumerate().step_by(7) {
            let soc = 0.41 + 0.38 * ((step % 97) as f64 / 96.0);
            hev.reset_soc(soc);
            let demand = hev.demand(point.speed_mps, point.accel_mps2, point.grade);
            let ctx = hev.step_context(&demand);
            batch.begin(dt);
            push_standard_grid(&mut batch);
            assert_batch_matches_scalar(
                &hev,
                &ctx,
                &mut batch,
                dt,
                &format!("{} step {step}", cycle.name()),
            );
        }
    }
}

/// Fault-perturbed plants: motor derating and battery capacity fade are
/// the plant-side degradations `hev-control`'s fault plans apply; the
/// kernel must stay bit-faithful on a degraded vehicle too.
#[test]
fn batch_matches_scalar_on_fault_perturbed_vehicles() {
    let cycle = StandardCycle::Udds.cycle();
    let dt = cycle.dt();
    let mut batch = CandidateBatch::default();
    for (derate, fade) in [(0.6, 0.0), (1.0, 0.2), (0.75, 0.15)] {
        let mut hev = hev_at(0.55);
        hev.set_motor_derate(derate);
        hev.apply_battery_capacity_fade(fade);
        for (step, point) in cycle.points().enumerate().step_by(23) {
            let demand = hev.demand(point.speed_mps, point.accel_mps2, point.grade);
            let ctx = hev.step_context(&demand);
            batch.begin(dt);
            push_standard_grid(&mut batch);
            assert_batch_matches_scalar(
                &hev,
                &ctx,
                &mut batch,
                dt,
                &format!("derate {derate} fade {fade} step {step}"),
            );
        }
    }
}

/// Randomized states and candidate lists from a seeded RNG (denser than
/// the proptest cases below, covering the whole operating envelope).
#[test]
fn batch_matches_scalar_on_randomized_states() {
    let mut rng = StdRng::seed_from_u64(0x5eed_ba7c);
    let mut batch = CandidateBatch::default();
    for round in 0..200 {
        let soc = rng.gen_range(0.41..0.79);
        let hev = hev_at(soc);
        let v = if rng.gen::<f64>() < 0.2 {
            rng.gen_range(0.0..0.12) // cluster near the stop threshold
        } else {
            rng.gen_range(0.0..32.0)
        };
        let a = rng.gen_range(-3.0..2.5);
        let grade = rng.gen_range(-0.06..0.06);
        let dt = 1.0;
        let demand = hev.demand(v, a, grade);
        let ctx = hev.step_context(&demand);
        batch.begin(dt);
        let lanes = rng.gen_range(1..40usize);
        for _ in 0..lanes {
            batch.push(
                rng.gen_range(-90.0..130.0),
                rng.gen_range(0..7usize), // includes invalid gears
                rng.gen_range(-100.0..2_600.0),
            );
        }
        assert_batch_matches_scalar(&hev, &ctx, &mut batch, dt, &format!("random round {round}"));
    }
}

proptest! {
    /// An empty batch is a no-op: no lanes, no outputs, no evaluations
    /// recorded.
    #[test]
    fn empty_batch_is_no_op(v in 0.0f64..30.0, a in -2.0f64..2.0) {
        let hev = hev_at(0.6);
        let demand = hev.demand(v, a, 0.0);
        let ctx = hev.step_context(&demand);
        let mut batch = CandidateBatch::default();
        batch.begin(1.0);
        let snap = hev_trace::evals::count();
        hev.evaluate_batch_scored(&ctx, &mut batch, &mut CurrentContextCache::new(), |o| o.fuel_g);
        prop_assert_eq!(batch.len(), 0);
        prop_assert_eq!(hev_trace::evals::since(snap), 0);
    }

    /// A single-candidate batch is exactly one scalar peek.
    #[test]
    fn single_candidate_batch_matches_scalar(
        v in 0.0f64..30.0,
        a in -2.5f64..2.0,
        i in -80.0f64..120.0,
        gear in 0usize..6,
        p_aux in 0.0f64..2_500.0,
        soc in 0.41f64..0.79,
    ) {
        let hev = hev_at(soc);
        let demand = hev.demand(v, a, 0.0);
        let ctx = hev.step_context(&demand);
        let mut batch = CandidateBatch::default();
        batch.begin(1.0);
        batch.push(i, gear, p_aux);
        assert_batch_matches_scalar(&hev, &ctx, &mut batch, 1.0, "single candidate");
    }

    /// An all-infeasible batch (every lane commands an out-of-range
    /// gear) reports every lane infeasible with the scalar error, and
    /// still counts one evaluation per lane.
    #[test]
    fn all_infeasible_batch_matches_scalar_errors(
        v in 0.0f64..30.0,
        a in -2.0f64..2.0,
        lanes in 1usize..20,
        gear_offset in 6usize..50,
    ) {
        let hev = hev_at(0.6);
        let demand = hev.demand(v, a, 0.0);
        let ctx = hev.step_context(&demand);
        let mut batch = CandidateBatch::default();
        batch.begin(1.0);
        for k in 0..lanes {
            batch.push(4.0, gear_offset + k, 600.0);
        }
        let snap = hev_trace::evals::count();
        hev.evaluate_batch_scored(&ctx, &mut batch, &mut CurrentContextCache::new(), |o| o.fuel_g);
        prop_assert_eq!(hev_trace::evals::since(snap), lanes as u64);
        for lane in 0..batch.len() {
            let control = batch.control(lane);
            let scalar = hev.peek_with_context(&ctx, &control, 1.0);
            let scalar_err = scalar.expect_err("out-of-range gear must be infeasible");
            prop_assert!(!batch.is_feasible(lane));
            prop_assert_eq!(batch.score(lane), None);
            prop_assert_eq!(batch.error(lane), Some(scalar_err));
        }
    }

    /// Duplicate candidates resolve to identical lanes (the shared
    /// context cache must not leak state between lanes), each
    /// bit-matching the scalar call.
    #[test]
    fn duplicate_candidates_resolve_identically(
        v in 0.0f64..30.0,
        a in -2.0f64..2.0,
        i in -60.0f64..100.0,
        gear in 0usize..5,
        copies in 2usize..9,
    ) {
        let hev = hev_at(0.6);
        let demand = hev.demand(v, a, 0.0);
        let ctx = hev.step_context(&demand);
        let mut batch = CandidateBatch::default();
        batch.begin(1.0);
        for _ in 0..copies {
            batch.push(i, gear, 600.0);
        }
        // Interleave a different current between two more copies, so the
        // cache serves a second context and then returns to the first.
        batch.push(i + 7.0, gear, 600.0);
        batch.push(i, gear, 600.0);
        assert_batch_matches_scalar(&hev, &ctx, &mut batch, 1.0, "duplicates");
    }
}
