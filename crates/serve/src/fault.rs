//! Deterministic fault injection for the serving stack.
//!
//! PRs 3–4 found real serving races (orphaned warming lanes, livelocked
//! shapes, cross-batch panic leaks) only *incidentally*, while building
//! features. This module makes failure a first-class, scriptable input: a
//! [`FaultInjector`] is plumbed through [`ServeConfig`](crate::ServeConfig)
//! and consulted at a small set of **named injection points** threaded
//! through the lane lifecycle — warm-up planning, batch execution, flush
//! timing, and the dispatcher thread itself — so a chaos test can script
//! "the planner panics on lane 2's warm-up, then batch 3 of lane 0 panics,
//! then lane 1's flush stalls 50 ms" and assert the service's terminal-state
//! invariants instead of hoping a scheduler interleaving reproduces them.
//!
//! Two modes:
//!
//! * **Scripted** ([`FaultInjector::scripted`]): an explicit, ordered-free
//!   list of [`FaultScript`] rules, each matching a point (kind, optionally
//!   lane and per-lane flush index) and firing an action a bounded number
//!   of times. Fully deterministic regardless of thread interleaving —
//!   rules match on the *identity* of the point, not on arrival order.
//! * **Seeded** ([`FaultInjector::seeded`]): probabilistic chaos whose
//!   decisions are a **pure function of `(seed, point)`** — each point
//!   hashes with the seed into a SplitMix64 draw compared against the
//!   configured [`FaultRates`]. The same seed produces the same fault set
//!   on every run and under every interleaving, so a seeded storm that
//!   finds a bug is a deterministic regression test.
//!
//! The default injector is [disabled](FaultInjector::disabled): firing a
//! point is a single `Option` check, no locks, no allocation — the
//! steady-state serving path stays strictly zero-alloc and effectively
//! zero-cost (asserted by `crates/serve/tests/alloc_free_serve.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A named place in the serving stack where a fault can strike. Lanes are
/// identified by their creation-ordered id (the same
/// [`lane_id`](crate::LaneMetricsSnapshot::lane_id) the metrics report);
/// flush indices count a lane's flushes from `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// Inside a lane's warm-up `catch_unwind`, just before symbolic
    /// planning. [`FaultAction::Panic`] here exercises the
    /// [`PlanPanicked`](crate::ServeError::PlanPanicked) path (and, with a
    /// breaker armed, plan-panic quarantine).
    PlanBuild {
        /// Creation-ordered lane id.
        lane: usize,
    },
    /// Inside a flush's `catch_unwind`, just before batch execution.
    /// [`FaultAction::Panic`] here exercises the
    /// [`BatchPanicked`](crate::ServeError::BatchPanicked) attribution and
    /// feeds the lane's consecutive-panic breaker.
    BatchExecute {
        /// Creation-ordered lane id.
        lane: usize,
        /// Per-lane flush index, counted from `0`.
        flush: u64,
    },
    /// In the dispatcher loop after batch assembly, **outside** every
    /// `catch_unwind`. [`FaultAction::Stall`] here is injected flush
    /// latency (queued requests age past their deadlines — the hard
    /// deadline mode's test vector); [`FaultAction::Panic`] kills the
    /// dispatcher thread itself, exercising lane supervision
    /// ([`LaneDied`](crate::ServeError::LaneDied)).
    FlushTiming {
        /// Creation-ordered lane id.
        lane: usize,
        /// Per-lane flush index, counted from `0`.
        flush: u64,
    },
    /// At dispatcher thread entry, before warm-up, outside every
    /// `catch_unwind`. [`FaultAction::Panic`] kills the dispatcher before
    /// it ever serves — every request the lane accepted must still reach a
    /// terminal state ([`LaneDied`](crate::ServeError::LaneDied)).
    DispatcherStart {
        /// Creation-ordered lane id.
        lane: usize,
    },
}

impl InjectionPoint {
    fn kind(self) -> u8 {
        match self {
            InjectionPoint::PlanBuild { .. } => 0,
            InjectionPoint::BatchExecute { .. } => 1,
            InjectionPoint::FlushTiming { .. } => 2,
            InjectionPoint::DispatcherStart { .. } => 3,
        }
    }

    fn lane(self) -> usize {
        match self {
            InjectionPoint::PlanBuild { lane }
            | InjectionPoint::BatchExecute { lane, .. }
            | InjectionPoint::FlushTiming { lane, .. }
            | InjectionPoint::DispatcherStart { lane } => lane,
        }
    }

    fn flush(self) -> Option<u64> {
        match self {
            InjectionPoint::BatchExecute { flush, .. }
            | InjectionPoint::FlushTiming { flush, .. } => Some(flush),
            _ => None,
        }
    }
}

/// What happens when a fault fires at an [`InjectionPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// `panic!` at the point. Inside a `catch_unwind` (plan build, batch
    /// execution) this exercises the corresponding failure policy; outside
    /// one (flush timing, dispatcher start) it kills the dispatcher thread
    /// and exercises supervision.
    Panic,
    /// Sleep for the given duration at the point — injected latency.
    Stall(Duration),
}

#[derive(Debug, Clone)]
struct Rule {
    kind: u8,
    lane: Option<usize>,
    flush: Option<u64>,
    action: FaultAction,
    /// Remaining firings; rules with `0` left are inert.
    remaining: u32,
}

impl Rule {
    fn matches(&self, point: InjectionPoint) -> bool {
        self.remaining > 0
            && self.kind == point.kind()
            && self.lane.is_none_or(|l| l == point.lane())
            && self.flush.is_none_or(|f| Some(f) == point.flush())
    }
}

/// An explicit fault schedule: a list of rules, each matching one kind of
/// [`InjectionPoint`] (optionally narrowed to a lane and flush index) and
/// firing a [`FaultAction`] a bounded number of times. Build one with the
/// named helpers and hand it to [`FaultInjector::scripted`].
///
/// # Examples
///
/// ```
/// use bppsa_serve::{FaultInjector, FaultScript};
/// use std::time::Duration;
///
/// let injector = FaultInjector::scripted(
///     FaultScript::new()
///         .plan_panic(2)                                  // lane 2's warm-up dies
///         .batch_panic(0, 3)                              // batch 3 of lane 0 dies
///         .flush_stall(1, 0, Duration::from_millis(50)),  // lane 1's first flush stalls
/// );
/// assert!(injector.is_enabled());
/// assert_eq!(injector.fired(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    rules: Vec<Rule>,
}

impl FaultScript {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    fn rule(
        mut self,
        kind: u8,
        lane: Option<usize>,
        flush: Option<u64>,
        action: FaultAction,
        times: u32,
    ) -> Self {
        self.rules.push(Rule {
            kind,
            lane,
            flush,
            action,
            remaining: times,
        });
        self
    }

    /// Lane `lane`'s warm-up planner panics (once).
    pub fn plan_panic(self, lane: usize) -> Self {
        self.rule(0, Some(lane), None, FaultAction::Panic, 1)
    }

    /// Batch execution of lane `lane`'s flush number `flush` panics.
    pub fn batch_panic(self, lane: usize, flush: u64) -> Self {
        self.rule(1, Some(lane), Some(flush), FaultAction::Panic, 1)
    }

    /// Every batch execution on lane `lane` panics, `times` times total —
    /// the breaker-tripping workload.
    pub fn batch_panic_times(self, lane: usize, times: u32) -> Self {
        self.rule(1, Some(lane), None, FaultAction::Panic, times)
    }

    /// Lane `lane`'s flush number `flush` stalls for `delay` before
    /// executing (injected flush latency, outside the panic guard).
    pub fn flush_stall(self, lane: usize, flush: u64, delay: Duration) -> Self {
        self.rule(2, Some(lane), Some(flush), FaultAction::Stall(delay), 1)
    }

    /// Lane `lane`'s dispatcher thread is killed at entry, before warm-up.
    pub fn kill_dispatcher_at_start(self, lane: usize) -> Self {
        self.rule(3, Some(lane), None, FaultAction::Panic, 1)
    }

    /// Lane `lane`'s dispatcher thread is killed right before executing
    /// flush number `flush` — with the batch already assembled, outside the
    /// panic guard.
    pub fn kill_dispatcher_at_flush(self, lane: usize, flush: u64) -> Self {
        self.rule(2, Some(lane), Some(flush), FaultAction::Panic, 1)
    }
}

/// Per-point fault probabilities for [`FaultInjector::seeded`]. Each
/// probability is in `[0, 1]`; a point fires when its pure
/// `(seed, point)`-derived draw falls below the rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability that a lane's warm-up planning panics.
    pub plan_panic: f64,
    /// Probability that one batch execution panics.
    pub batch_panic: f64,
    /// Probability that one flush stalls for [`FaultRates::stall`] before
    /// executing.
    pub flush_stall: f64,
    /// The injected latency when a flush stall fires.
    pub stall: Duration,
}

impl FaultRates {
    /// No faults at any rate (useful as a base for struct update syntax).
    pub fn none() -> Self {
        Self {
            plan_panic: 0.0,
            batch_panic: 0.0,
            flush_stall: 0.0,
            stall: Duration::ZERO,
        }
    }
}

#[derive(Debug)]
enum Mode {
    Script(Mutex<Vec<Rule>>),
    Seeded { seed: u64, rates: FaultRates },
}

#[derive(Debug)]
struct Inner {
    mode: Mode,
    fired: AtomicU64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` draw that is a pure function of `(seed, point, salt)` —
/// deterministic across runs and thread interleavings.
fn point_draw(seed: u64, point: InjectionPoint, salt: u64) -> f64 {
    let key = seed
        ^ splitmix64(point.kind() as u64 ^ salt.rotate_left(17))
        ^ splitmix64((point.lane() as u64).wrapping_mul(0x9E37_79B9))
        ^ splitmix64(point.flush().unwrap_or(u64::MAX).wrapping_add(salt));
    (splitmix64(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Inner {
    fn decide(&self, point: InjectionPoint) -> Option<FaultAction> {
        match &self.mode {
            Mode::Script(rules) => {
                let mut rules = rules.lock().unwrap_or_else(PoisonError::into_inner);
                let rule = rules.iter_mut().find(|r| r.matches(point))?;
                rule.remaining -= 1;
                Some(rule.action)
            }
            // Seeded chaos never kills dispatchers: an uncaught panic's
            // *observable* consequences depend on how far the dispatcher
            // got, which only a scripted schedule can pin down.
            Mode::Seeded { seed, rates } => match point {
                InjectionPoint::PlanBuild { .. } => {
                    (point_draw(*seed, point, 1) < rates.plan_panic).then_some(FaultAction::Panic)
                }
                InjectionPoint::BatchExecute { .. } => {
                    (point_draw(*seed, point, 2) < rates.batch_panic).then_some(FaultAction::Panic)
                }
                InjectionPoint::FlushTiming { .. } => (point_draw(*seed, point, 3)
                    < rates.flush_stall)
                    .then_some(FaultAction::Stall(rates.stall)),
                InjectionPoint::DispatcherStart { .. } => None,
            },
        }
    }
}

/// A handle to a fault schedule, plumbed through
/// [`ServeConfig::faults`](crate::ServeConfig::faults). Cloning shares the
/// schedule (scripted rule consumption is global, not per clone). The
/// [default](FaultInjector::disabled) is a no-op whose firing check is a
/// single branch — the steady-state serving path pays nothing for the
/// harness existing.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl FaultInjector {
    /// The no-op injector (the default): every injection point is a single
    /// `Option` check, no locks, no allocation.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An injector driven by an explicit [`FaultScript`].
    pub fn scripted(script: FaultScript) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                mode: Mode::Script(Mutex::new(script.rules)),
                fired: AtomicU64::new(0),
            })),
        }
    }

    /// A probabilistic injector whose per-point decisions are a pure
    /// function of `(seed, point)` — the same seed yields the same fault
    /// set on every run and under every thread interleaving. Seeded mode
    /// never kills dispatchers (see [`FaultScript::kill_dispatcher_at_start`]
    /// for that); it panics plans and batches and stalls flushes.
    pub fn seeded(seed: u64, rates: FaultRates) -> Self {
        for (name, p) in [
            ("plan_panic", rates.plan_panic),
            ("batch_panic", rates.batch_panic),
            ("flush_stall", rates.flush_stall),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "FaultRates::{name} must be a probability in [0, 1], got {p}"
            );
        }
        Self {
            inner: Some(Arc::new(Inner {
                mode: Mode::Seeded { seed, rates },
                fired: AtomicU64::new(0),
            })),
        }
    }

    /// Whether any schedule is armed (`false` for the disabled default).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// How many faults have fired so far (0 for a disabled injector).
    pub fn fired(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.fired.load(Ordering::Relaxed))
    }

    /// Evaluates the schedule at `point`, executing whatever action it
    /// prescribes (sleeping in place, or panicking — the caller's
    /// surrounding policy decides what that panic *means*). The disabled
    /// injector returns immediately.
    #[inline]
    pub(crate) fn fire(&self, point: InjectionPoint) {
        let Some(inner) = &self.inner else {
            return;
        };
        let Some(action) = inner.decide(point) else {
            return;
        };
        inner.fired.fetch_add(1, Ordering::Relaxed);
        match action {
            FaultAction::Stall(delay) => std::thread::sleep(delay),
            FaultAction::Panic => panic!("bppsa-serve fault injection: panic at {point:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for lane in 0..4 {
            inj.fire(InjectionPoint::PlanBuild { lane });
            inj.fire(InjectionPoint::BatchExecute { lane, flush: 0 });
        }
        assert_eq!(inj.fired(), 0);
        assert!(!inj.is_enabled());
    }

    #[test]
    fn scripted_rules_match_point_identity_and_consume() {
        let inj = FaultInjector::scripted(FaultScript::new().batch_panic(1, 3));
        // Wrong lane, wrong flush: nothing fires.
        inj.fire(InjectionPoint::BatchExecute { lane: 0, flush: 3 });
        inj.fire(InjectionPoint::BatchExecute { lane: 1, flush: 2 });
        assert_eq!(inj.fired(), 0);
        // Exact point: fires once, then the rule is spent.
        let hit = catch_unwind(AssertUnwindSafe(|| {
            inj.fire(InjectionPoint::BatchExecute { lane: 1, flush: 3 });
        }));
        assert!(hit.is_err(), "matching point must panic");
        assert_eq!(inj.fired(), 1);
        inj.fire(InjectionPoint::BatchExecute { lane: 1, flush: 3 });
        assert_eq!(inj.fired(), 1, "a spent rule is inert");
    }

    #[test]
    fn bounded_rule_fires_exactly_n_times() {
        let inj = FaultInjector::scripted(FaultScript::new().batch_panic_times(0, 2));
        for flush in 0..5 {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                inj.fire(InjectionPoint::BatchExecute { lane: 0, flush });
            }));
        }
        assert_eq!(inj.fired(), 2);
    }

    #[test]
    fn stall_action_sleeps_instead_of_panicking() {
        let inj =
            FaultInjector::scripted(FaultScript::new().flush_stall(0, 0, Duration::from_millis(5)));
        let t0 = std::time::Instant::now();
        inj.fire(InjectionPoint::FlushTiming { lane: 0, flush: 0 });
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(inj.fired(), 1);
    }

    #[test]
    fn seeded_decisions_are_pure_in_seed_and_point() {
        let rates = FaultRates {
            batch_panic: 0.5,
            ..FaultRates::none()
        };
        let a = FaultInjector::seeded(42, rates);
        let b = FaultInjector::seeded(42, rates);
        // The two injectors agree on every point, in any evaluation order.
        let mut fired_points = Vec::new();
        for flush in 0..64 {
            let pa = catch_unwind(AssertUnwindSafe(|| {
                a.fire(InjectionPoint::BatchExecute { lane: 0, flush });
            }))
            .is_err();
            fired_points.push(pa);
        }
        for flush in (0..64).rev() {
            let pb = catch_unwind(AssertUnwindSafe(|| {
                b.fire(InjectionPoint::BatchExecute { lane: 0, flush });
            }))
            .is_err();
            assert_eq!(
                pb, fired_points[flush as usize],
                "seeded decision must not depend on evaluation order (flush {flush})"
            );
        }
        // Rate 0.5 over 64 draws: both outcomes occur.
        assert!(fired_points.iter().any(|&p| p));
        assert!(fired_points.iter().any(|&p| !p));
        // A different seed gives a different fault set.
        let c = FaultInjector::seeded(43, rates);
        let differs = (0..64).any(|flush| {
            let pc = catch_unwind(AssertUnwindSafe(|| {
                c.fire(InjectionPoint::BatchExecute { lane: 0, flush });
            }))
            .is_err();
            pc != fired_points[flush as usize]
        });
        assert!(differs, "seed must matter");
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn out_of_range_rate_is_rejected() {
        let _ = FaultInjector::seeded(
            1,
            FaultRates {
                plan_panic: 1.5,
                ..FaultRates::none()
            },
        );
    }
}
