//! The batched candidate-evaluation kernel.
//!
//! Controllers sweep many `(current, gear, p_aux)` candidates against one
//! step's demand — feasibility masks, inner-optimization grids, DP
//! current sweeps. [`CandidateBatch`] holds all the candidates of one
//! sweep in structure-of-arrays form (parallel input arrays of currents,
//! gear indices, and auxiliary powers; parallel output arrays of
//! feasibility verdicts and caller-computed scores), and
//! [`ParallelHev::evaluate_batch_scored`] resolves the whole batch in one
//! sweep over a prebuilt [`StepContext`], serving each lane's
//! per-current battery precomputation from a [`CurrentContextCache`].
//!
//! # The scalar-reference contract
//!
//! [`ParallelHev::peek_with_context`] is the *scalar reference
//! implementation*: every batch lane's feasibility verdict and error
//! variant must be **bit-identical** to a scalar `peek_with_context`
//! call with the same control at the same vehicle state, and its score
//! must be the bits of the score closure applied to the scalar outcome.
//! The kernel guarantees this by construction: each lane runs the very
//! same completion body (`complete_control`) the scalar path runs,
//! against a [`CurrentContext`] built by the very same pure call; the
//! only differences are *where* the per-current battery precomputation
//! is cached (a pure function of the same inputs, so the cached value is
//! the value each lane would have rebuilt) and *how* evaluations are
//! counted (one per lane in a single batched counter update, instead of
//! one counter hit per scalar call). The winner of a sweep is
//! re-materialized by [`ParallelHev::replay_candidate`], which returns
//! the scalar outcome bit for bit. The differential suite
//! (`tests/batch_differential.rs`) pins the contract with `to_bits()`
//! equality on every outcome field across cycles, randomized states,
//! and perturbed vehicles.
//!
//! # Eval accounting
//!
//! A batch of `n` lanes records exactly `n` peek-equivalent evaluations
//! ([`hev_trace::evals::record_batch`]) — one per lane, never one per
//! call — so `evals/step` remains comparable with scalar-path baselines.
//!
//! # Examples
//!
//! ```
//! use hev_model::{CandidateBatch, CurrentContextCache, HevParams, ParallelHev};
//!
//! let hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
//! let demand = hev.demand(15.0, 0.3, 0.0);
//! let ctx = hev.step_context(&demand);
//! let mut batch = CandidateBatch::default();
//! let mut cache = CurrentContextCache::new();
//! batch.begin(1.0);
//! for gear in 0..5 {
//!     batch.push(10.0, gear, 600.0);
//! }
//! hev.evaluate_batch_scored(&ctx, &mut batch, &mut cache, |o| -o.fuel_g);
//! let feasible = (0..batch.len()).filter(|&l| batch.is_feasible(l)).count();
//! assert!(feasible > 0);
//! # Ok::<(), hev_model::ParamError>(())
//! ```

use crate::error::InfeasibleControl;
use crate::vehicle::{ControlInput, CurrentContext, ParallelHev, StepContext, StepOutcome};

/// A caller-scoped cache of per-current battery precomputations
/// ([`CurrentContext`]), keyed by the commanded current's raw bits.
///
/// A [`CurrentContext`] is a pure function of `(battery state, commanded
/// current, dt)`, so within one battery state it is safe — and
/// bit-identical — to build each distinct current's context once and
/// reuse it across every batch that probes it. Resolvers that evaluate
/// one current through many waves (a coarse grid wave plus a dozen
/// ternary-refinement waves, say) would otherwise rebuild the same
/// context once per wave; with a cache they build it once per resolve,
/// matching the scalar path's cost exactly.
///
/// The cache is valid for **one** `(battery state, dt)` scope: callers
/// must [`clear`](CurrentContextCache::clear) it whenever the battery
/// state (state of charge, capacity, temperature model inputs) or the
/// step length changes — in practice, at the top of each per-step sweep.
/// The demand/`StepContext` does *not* invalidate it: contexts depend
/// only on the battery and the commanded current, so one cache may span
/// several demands evaluated against the same vehicle state.
///
/// Lookup is **direct-mapped** over raw `f64` bits (so NaN currents
/// cache too, and `-0.0` never aliases `+0.0`): the key's Fibonacci
/// hash picks one of 64 fixed slots, a hit is a single compare, and a
/// conflicting current simply evicts the slot. An eviction is bit-safe
/// — the context is a pure function of its inputs, so recomputing it
/// later yields the very same bits — it only costs one rebuild.
/// [`clear`](CurrentContextCache::clear) is O(1): slots carry a
/// generation stamp and clearing bumps the generation.
///
/// Cache efficacy is observable: every lookup records a hit or a miss
/// in the thread-local [`hev_trace::evals`] counters
/// (`ctx_cache_hits` / `ctx_cache_misses`), which the telemetry layer
/// exports through its metrics registry.
#[derive(Debug, Clone)]
pub struct CurrentContextCache {
    /// Current generation; a slot is live only while its stamp matches.
    generation: u64,
    /// Lazily allocated to `CACHE_SLOTS` entries on first insert.
    slots: Vec<CacheSlot>,
}

/// Fixed slot count of the direct-mapped cache: sweeps probe at most a
/// few dozen distinct currents (the action grid plus ternary-refinement
/// probes), so 64 slots keep conflict evictions rare.
const CACHE_SLOTS: usize = 64;

/// Fibonacci-hash multiplier (2^64 / φ), spreading raw current bits
/// uniformly over the slot index's top bits.
const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    /// Generation the slot was filled in; live iff equal to the cache's.
    stamp: u64,
    /// Raw bits of the commanded current.
    key: u64,
    /// Raw bits of the step length the context was built for.
    dt_bits: u64,
    ctx: CurrentContext,
}

impl Default for CurrentContextCache {
    fn default() -> Self {
        Self {
            // Slots start stamped 0, so the first live generation is 1.
            generation: 1,
            slots: Vec::new(),
        }
    }
}

impl CurrentContextCache {
    /// An empty cache (slots allocate on first use and are reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidates every cached context in O(1) by advancing the
    /// generation. Call when the battery state or the step length
    /// changes.
    pub fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // 2^64 clears later the stamp space recycles; drop the slots
            // so no stale stamp can match the reused generation.
            self.slots.clear();
            self.generation = 1;
        }
    }

    /// The slot index of a raw-bits key.
    #[inline]
    fn slot_of(key: u64) -> usize {
        debug_assert!(CACHE_SLOTS.is_power_of_two());
        // The shift keeps log2(CACHE_SLOTS) bits, so the cast is bounded.
        (key.wrapping_mul(FIB_HASH) >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
    }

    /// The context for `battery_current_a` at `dt`, built through `hev`
    /// on a miss (or a conflict eviction) and replayed from its slot on
    /// a hit.
    ///
    /// `hev`'s battery state and `dt` must match every earlier call
    /// since the last [`clear`](CurrentContextCache::clear); the `dt`
    /// half is debug-asserted on hits.
    #[inline]
    pub fn get_or_insert(
        &mut self,
        hev: &ParallelHev,
        battery_current_a: f64,
        dt: f64,
    ) -> &CurrentContext {
        let key = battery_current_a.to_bits();
        let idx = Self::slot_of(key);
        let hit = self
            .slots
            .get(idx)
            .is_some_and(|s| s.stamp == self.generation && s.key == key);
        if hit {
            debug_assert_eq!(
                self.slots[idx].dt_bits,
                dt.to_bits(),
                "CurrentContextCache reused across dt values without clear()"
            );
            crate::instrument::record_ctx_cache_hit();
            return &self.slots[idx].ctx;
        }
        crate::instrument::record_ctx_cache_miss();
        let slot = CacheSlot {
            stamp: self.generation,
            key,
            dt_bits: dt.to_bits(),
            ctx: hev.current_context(battery_current_a, dt),
        };
        if self.slots.is_empty() {
            // First insert: allocate every slot dead (stamp 0 never
            // matches a live generation).
            self.slots = vec![CacheSlot { stamp: 0, ..slot }; CACHE_SLOTS];
        }
        self.slots[idx] = slot;
        &self.slots[idx].ctx
    }
}

/// A structure-of-arrays batch of candidate controls for one step, with
/// per-lane verdicts and scores filled by
/// [`ParallelHev::evaluate_batch_scored`].
///
/// Reuse one batch across steps ([`CandidateBatch::begin`] keeps the
/// allocations); controllers hold one in their per-step scratch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateBatch {
    /// Step length every lane is evaluated for, s.
    dt: f64,
    // ---- inputs (parallel arrays, one entry per lane) -------------------
    currents: Vec<f64>,
    gears: Vec<usize>,
    aux_w: Vec<f64>,
    /// Caller-defined lane tag (e.g. the action index a lane probes), so
    /// sweeps that skip candidates can map lanes back without extra
    /// bookkeeping.
    tags: Vec<usize>,
    // ---- outputs (parallel arrays, one entry per lane) ------------------
    /// Feasibility verdict: `None` = feasible, `Some(reason)` = the exact
    /// error the scalar reference returns.
    err: Vec<Option<InfeasibleControl>>,
    /// Caller-computed per-lane score (zeroed on infeasible lanes).
    score: Vec<f64>,
}

impl CandidateBatch {
    /// Starts a new batch for step length `dt`, clearing all lanes but
    /// keeping the allocations.
    pub fn begin(&mut self, dt: f64) {
        self.dt = dt;
        self.currents.clear();
        self.gears.clear();
        self.aux_w.clear();
        self.tags.clear();
        self.err.clear();
        self.score.clear();
    }

    /// Appends a candidate lane with tag 0.
    pub fn push(&mut self, battery_current_a: f64, gear: usize, p_aux_w: f64) {
        self.push_tagged(battery_current_a, gear, p_aux_w, 0);
    }

    /// Appends a candidate lane carrying a caller-defined `tag`.
    pub fn push_tagged(&mut self, battery_current_a: f64, gear: usize, p_aux_w: f64, tag: usize) {
        self.currents.push(battery_current_a);
        self.gears.push(gear);
        self.aux_w.push(p_aux_w);
        self.tags.push(tag);
    }

    /// Number of candidate lanes.
    pub fn len(&self) -> usize {
        self.currents.len()
    }

    /// Whether the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.currents.is_empty()
    }

    /// The step length lanes are evaluated for, s.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The control input of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn control(&self, lane: usize) -> ControlInput {
        ControlInput {
            battery_current_a: self.currents[lane],
            gear: self.gears[lane],
            p_aux_w: self.aux_w[lane],
        }
    }

    /// The caller-defined tag of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn tag(&self, lane: usize) -> usize {
        self.tags[lane]
    }

    /// Whether a lane resolved feasible. Meaningful only after
    /// [`ParallelHev::evaluate_batch_scored`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn is_feasible(&self, lane: usize) -> bool {
        self.err[lane].is_none()
    }

    /// The infeasibility reason of one lane (`None` when feasible) — the
    /// exact error the scalar reference returns for the same control.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn error(&self, lane: usize) -> Option<InfeasibleControl> {
        self.err[lane]
    }

    /// The caller-computed score of one lane (`None` when the lane
    /// resolved infeasible). Meaningful only after
    /// [`ParallelHev::evaluate_batch_scored`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn score(&self, lane: usize) -> Option<f64> {
        if self.err[lane].is_none() {
            Some(self.score[lane])
        } else {
            None
        }
    }
}

impl ParallelHev {
    /// The candidate kernel: evaluates every lane of `batch` against the
    /// prebuilt context in one sweep, storing each lane's feasibility
    /// verdict and a caller-computed `score` of its outcome.
    ///
    /// Sweeps consume only a score — or just a verdict — per losing
    /// candidate. Because `score` is monomorphized into the lane loop and
    /// the completion is `#[inline(always)]`, the parts of the outcome
    /// the score never reads are dead-code-eliminated — the same
    /// optimization the scalar sweep (`evaluate_reward`) gets. Winners
    /// are re-materialized once via [`ParallelHev::replay_candidate`].
    ///
    /// Per-lane verdicts and scores are bit-identical to scoring the
    /// scalar reference's outcome ([`ParallelHev::peek_with_context`]
    /// with the same control at the batch's `dt`): each lane runs the
    /// same completion on the same cached pure context, and `score`
    /// sees the same outcome bits. The whole batch records exactly
    /// `len()` peek-equivalent evaluations in one counter update.
    ///
    /// `ctx` must have been built (or rebuilt) by this vehicle for the
    /// demand being evaluated, exactly as for
    /// [`ParallelHev::peek_with_context`]; the cache must be scoped to
    /// this vehicle's current battery state and this batch's `dt` — see
    /// [`CurrentContextCache`].
    pub fn evaluate_batch_scored<F>(
        &self,
        ctx: &StepContext,
        batch: &mut CandidateBatch,
        cache: &mut CurrentContextCache,
        score: F,
    ) where
        F: Fn(&StepOutcome) -> f64,
    {
        let n = batch.len();
        batch.err.clear();
        batch.score.clear();
        batch.err.resize(n, None);
        batch.score.resize(n, 0.0);
        if n == 0 {
            return;
        }
        let _span = hev_trace::span::enter("model.scored_sweep");
        crate::instrument::record_batch(n as u64);
        for lane in 0..n {
            let battery_current_a = batch.currents[lane];
            let cur = cache.get_or_insert(self, battery_current_a, batch.dt);
            let control = ControlInput {
                battery_current_a,
                gear: batch.gears[lane],
                p_aux_w: batch.aux_w[lane],
            };
            match self.complete_control(ctx, cur, &control) {
                Ok(o) => {
                    batch.err[lane] = None;
                    batch.score[lane] = score(&o);
                }
                Err(e) => {
                    batch.err[lane] = Some(e);
                    batch.score[lane] = 0.0;
                }
            }
        }
    }

    /// Re-materializes the full outcome of a candidate an earlier scored
    /// batch already evaluated — the argmax winner — through the same
    /// cached context its lane used.
    ///
    /// A pure replay: the completion is a deterministic function of
    /// `(ctx, cached context, control)`, so the returned bits are the
    /// bits the lane's score was computed from. Because the lane was
    /// already counted by its batch, a replay records **no** additional
    /// evaluation.
    pub fn replay_candidate(
        &self,
        ctx: &StepContext,
        cache: &mut CurrentContextCache,
        control: &ControlInput,
        dt: f64,
    ) -> Result<StepOutcome, InfeasibleControl> {
        let _span = hev_trace::span::enter("model.winner_replay");
        let cur = cache.get_or_insert(self, control.battery_current_a, dt);
        self.complete_control(ctx, cur, control)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    #[test]
    fn batch_counts_one_eval_per_lane() {
        let hev = hev();
        let d = hev.demand(15.0, 0.2, 0.0);
        let ctx = hev.step_context(&d);
        let mut batch = CandidateBatch::default();
        let mut cache = CurrentContextCache::new();
        batch.begin(1.0);
        for gear in 0..5 {
            batch.push(8.0, gear, 600.0);
        }
        let snap = hev_trace::evals::count();
        let calls = hev_trace::evals::batch_calls();
        hev.evaluate_batch_scored(&ctx, &mut batch, &mut cache, |o| o.fuel_g);
        assert_eq!(hev_trace::evals::since(snap), 5);
        assert_eq!(hev_trace::evals::batch_calls() - calls, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let hev = hev();
        let d = hev.demand(10.0, 0.0, 0.0);
        let ctx = hev.step_context(&d);
        let mut batch = CandidateBatch::default();
        let mut cache = CurrentContextCache::new();
        batch.begin(1.0);
        let snap = hev_trace::evals::count();
        let calls = hev_trace::evals::batch_calls();
        hev.evaluate_batch_scored(&ctx, &mut batch, &mut cache, |o| o.fuel_g);
        assert_eq!(batch.len(), 0);
        assert_eq!(hev_trace::evals::since(snap), 0);
        assert_eq!(hev_trace::evals::batch_calls(), calls);
    }

    #[test]
    fn direct_mapped_cache_counts_hits_and_misses() {
        let hev = hev();
        let mut cache = CurrentContextCache::new();
        let (h0, m0) = (
            hev_trace::evals::ctx_cache_hits(),
            hev_trace::evals::ctx_cache_misses(),
        );
        cache.get_or_insert(&hev, 10.0, 1.0);
        cache.get_or_insert(&hev, 10.0, 1.0);
        cache.get_or_insert(&hev, 10.0, 1.0);
        cache.get_or_insert(&hev, -25.0, 1.0);
        assert_eq!(hev_trace::evals::ctx_cache_hits().wrapping_sub(h0), 2);
        assert_eq!(hev_trace::evals::ctx_cache_misses().wrapping_sub(m0), 2);
        // clear() invalidates in O(1): the next lookup misses again.
        cache.clear();
        let m1 = hev_trace::evals::ctx_cache_misses();
        cache.get_or_insert(&hev, 10.0, 1.0);
        assert_eq!(hev_trace::evals::ctx_cache_misses().wrapping_sub(m1), 1);
        // Cache bookkeeping never counts as a peek-equivalent eval.
        let snap = hev_trace::evals::count();
        cache.get_or_insert(&hev, 10.0, 1.0);
        assert_eq!(hev_trace::evals::since(snap), 0);
    }

    #[test]
    fn conflict_eviction_replays_the_same_bits() {
        let hev = hev();
        // Find two distinct currents that collide in the direct map.
        let base = 10.0_f64;
        let slot = CurrentContextCache::slot_of(base.to_bits());
        let other = (1..100_000)
            .map(|k| 10.0 + k as f64 * 0.001)
            .find(|i| CurrentContextCache::slot_of(i.to_bits()) == slot && *i != base)
            .expect("a colliding current exists");
        let mut cache = CurrentContextCache::new();
        let first = *cache.get_or_insert(&hev, base, 1.0);
        // Evict, then re-fetch: the pure function must reproduce the
        // evicted context bit for bit.
        cache.get_or_insert(&hev, other, 1.0);
        let refetched = *cache.get_or_insert(&hev, base, 1.0);
        assert_eq!(
            first.battery_current_a().to_bits(),
            refetched.battery_current_a().to_bits()
        );
        assert_eq!(first.is_feasible(), refetched.is_feasible());
    }

    #[test]
    fn begin_reuses_allocations_and_resets_lanes() {
        let hev = hev();
        let d = hev.demand(10.0, 0.0, 0.0);
        let ctx = hev.step_context(&d);
        let mut batch = CandidateBatch::default();
        batch.begin(1.0);
        batch.push_tagged(4.0, 1, 600.0, 7);
        hev.evaluate_batch_scored(&ctx, &mut batch, &mut CurrentContextCache::new(), |o| {
            o.fuel_g
        });
        assert_eq!(batch.tag(0), 7);
        batch.begin(0.5);
        assert!(batch.is_empty());
        assert_eq!(batch.dt(), 0.5);
    }
}
