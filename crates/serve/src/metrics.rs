//! Per-lane observability: lock-free counters updated on the serving hot
//! path, read through point-in-time snapshots.
//!
//! Every lane owns a [`LaneMetrics`] (shared with the service's metrics
//! registry via `Arc`, so a lane stays observable after it is evicted,
//! drained, and retired). All updates are relaxed atomic operations — the
//! steady-state request loop stays strictly zero-alloc and the counters
//! never take the lane's queue lock on the read side. Reads go through
//! [`BppsaService::metrics`](crate::BppsaService::metrics), which
//! materializes one [`LaneMetricsSnapshot`] per lane ever created.
//!
//! The counters are the substrate for load shedding
//! ([`ShedPolicy`](crate::ShedPolicy)): lane state and the flush-latency
//! estimate are part of what [`admit`](crate::admit) reads, and the shed
//! and infeasible counters record its refusals so an operator can see
//! *where* doomed traffic is being turned away.

use crate::overload::ewma_update;
use crate::service::SubmitRefusal;
use bppsa_core::{KernelCounts, PlanKind};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Duration;

/// Where a lane is in its lifecycle. The normal state machine is
/// `Warming → Live → Draining → Retired` (a lane evicted or shut down
/// before its plan finished skips `Live`); a lane whose circuit breaker
/// trips exits through `Quarantined` instead of `Retired`:
///
/// * **Warming** — the placeholder lane exists (shape key + bounded queue)
///   and its dispatcher is building the compiled plan and workspace pool.
///   Requests queue up; non-blocking submits are refused with
///   [`SubmitRefusal::LaneWarming`](crate::SubmitRefusal::LaneWarming).
/// * **Live** — the plan is built; the dispatcher coalesces and flushes
///   under the deadline policy.
/// * **Draining** — the lane was evicted or the service is shutting down:
///   no new requests are accepted, everything already queued still flushes.
/// * **Retired** — the dispatcher has exited; the lane's counters remain
///   readable through the service's metrics registry.
/// * **Quarantined** — the lane hit
///   [`BreakerPolicy::max_consecutive_panics`](crate::BreakerPolicy::max_consecutive_panics)
///   and exited, taking its *shape* into cool-down: new submits of the
///   shape are refused with
///   [`SubmitRefusal::Quarantined`](crate::SubmitRefusal::Quarantined) until
///   the cool-down elapses, then exactly one half-open probe lane tests
///   recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneState {
    /// Placeholder inserted; the dispatcher is planning off the router lock.
    Warming,
    /// Plan built; serving under the deadline policy.
    Live,
    /// Evicted or shutting down; flushing the remaining queue.
    Draining,
    /// Dispatcher exited; counters remain readable.
    Retired,
    /// Breaker tripped; the shape is cooling down and submits are refused.
    Quarantined,
}

/// Why a lane's dispatcher flushed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// `max_batch` requests were pending — a full batch never waits.
    MaxBatch,
    /// The earliest pending request's delay budget expired.
    Deadline,
    /// The lane is draining (evicted or shutting down) and flushed its
    /// remainder immediately.
    Drain,
}

const CAUSES: usize = 3;

fn cause_index(cause: FlushCause) -> usize {
    match cause {
        FlushCause::MaxBatch => 0,
        FlushCause::Deadline => 1,
        FlushCause::Drain => 2,
    }
}

/// The per-lane atomic counters (crate-internal; read via
/// [`LaneMetricsSnapshot`]).
#[derive(Debug)]
pub(crate) struct LaneMetrics {
    lane_id: usize,
    layers: usize,
    seed_len: usize,
    state: AtomicU8,
    submitted: AtomicU64,
    shed: AtomicU64,
    queue_depth: AtomicUsize,
    flushes: [AtomicU64; CAUSES],
    /// `batch_sizes[k]` counts flushes of exactly `k + 1` requests
    /// (`len == max_batch`; a flush is never empty or wider than
    /// `max_batch`).
    batch_sizes: Vec<AtomicU64>,
    plan_nanos: AtomicU64,
    warmup_nanos: AtomicU64,
    /// Which program kind the lane's plan compiled to: `0` = not yet
    /// planned, `1` = CSR, `2` = diagonal. Written once at warm-up.
    plan_kind: AtomicU8,
    /// How many chain segments the lane's plan scans concurrently (`0` =
    /// not yet planned, `1` = unsegmented). Written once at warm-up.
    plan_segments: AtomicU64,
    kernels_gather: AtomicU64,
    kernels_gustavson: AtomicU64,
    kernels_dense: AtomicU64,
    batch_panics: AtomicU64,
    consecutive_panics: AtomicU32,
    breaker_tripped: AtomicU8,
    deadline_expired: AtomicU64,
    died: AtomicU8,
    /// Requests refused up front because their predicted wait exceeded
    /// their deadline ([`SubmitRefusal::Infeasible`](crate::SubmitRefusal::Infeasible)).
    infeasible: AtomicU64,
    /// EWMA of observed flush latencies in nanoseconds (the feasibility
    /// estimator's state; single writer — the dispatcher — so plain
    /// load/store suffice). `0` = no observation yet.
    ewma_flush_nanos: AtomicU64,
    /// Timed flushes folded into the EWMA (the cold-start gate's input).
    flush_samples: AtomicU64,
    /// Monotonic flush-progress heartbeat: bumped when a flush enters
    /// execution and again when it leaves, so odd = executing right now.
    /// The watchdog's liveness signal is the published in-flight batch;
    /// this gauge is the cheap observable mirror.
    heartbeat: AtomicU64,
    /// Whether the stall watchdog condemned this lane
    /// ([`ServeError::FlushStalled`](crate::ServeError::FlushStalled)).
    stalled: AtomicU8,
    probe: bool,
}

impl LaneMetrics {
    pub(crate) fn new(
        lane_id: usize,
        layers: usize,
        seed_len: usize,
        max_batch: usize,
        probe: bool,
    ) -> Self {
        Self {
            lane_id,
            layers,
            seed_len,
            state: AtomicU8::new(LaneState::Warming as u8),
            submitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            flushes: [const { AtomicU64::new(0) }; CAUSES],
            batch_sizes: (0..max_batch).map(|_| AtomicU64::new(0)).collect(),
            plan_nanos: AtomicU64::new(0),
            warmup_nanos: AtomicU64::new(0),
            plan_kind: AtomicU8::new(0),
            plan_segments: AtomicU64::new(0),
            kernels_gather: AtomicU64::new(0),
            kernels_gustavson: AtomicU64::new(0),
            kernels_dense: AtomicU64::new(0),
            batch_panics: AtomicU64::new(0),
            consecutive_panics: AtomicU32::new(0),
            breaker_tripped: AtomicU8::new(0),
            deadline_expired: AtomicU64::new(0),
            died: AtomicU8::new(0),
            infeasible: AtomicU64::new(0),
            ewma_flush_nanos: AtomicU64::new(0),
            flush_samples: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            stalled: AtomicU8::new(0),
            probe,
        }
    }

    pub(crate) fn state(&self) -> LaneState {
        match self.state.load(Ordering::Acquire) {
            s if s == LaneState::Warming as u8 => LaneState::Warming,
            s if s == LaneState::Live as u8 => LaneState::Live,
            s if s == LaneState::Draining as u8 => LaneState::Draining,
            s if s == LaneState::Quarantined as u8 => LaneState::Quarantined,
            _ => LaneState::Retired,
        }
    }

    /// `Warming → Live`; loses to a concurrent `Draining` transition (an
    /// eviction racing the end of planning), which must win so the drain is
    /// observable.
    pub(crate) fn mark_live(&self) {
        let _ = self.state.compare_exchange(
            LaneState::Warming as u8,
            LaneState::Live as u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// `Warming | Live → Draining` (idempotent; never resurrects Retired).
    pub(crate) fn mark_draining(&self) {
        let _ = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                (s == LaneState::Warming as u8 || s == LaneState::Live as u8)
                    .then_some(LaneState::Draining as u8)
            });
    }

    /// Terminal: the dispatcher exited. Never overwrites `Quarantined` —
    /// a breaker trip is the more specific terminal state and must stay
    /// visible to the router's purge/metrics readers.
    pub(crate) fn mark_retired(&self) {
        let _ = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                (s != LaneState::Quarantined as u8).then_some(LaneState::Retired as u8)
            });
    }

    /// Terminal: the breaker tripped and the lane exited with its shape in
    /// cool-down.
    pub(crate) fn mark_quarantined(&self) {
        self.breaker_tripped.store(1, Ordering::Relaxed);
        self.state
            .store(LaneState::Quarantined as u8, Ordering::Release);
    }

    /// One request accepted into the queue, which now holds `depth` entries.
    pub(crate) fn record_submit(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// One request refused by [`admit`](crate::admit). Sheds and
    /// infeasibility refusals are counted; warming and backpressure
    /// refusals are not (the caller retries or routes elsewhere).
    pub(crate) fn record_refusal(&self, refusal: SubmitRefusal) {
        let counter = match refusal {
            SubmitRefusal::Shed => &self.shed,
            SubmitRefusal::Infeasible => &self.infeasible,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// One batch of `size` requests flushed for `cause`, leaving `depth`
    /// entries queued.
    pub(crate) fn record_flush(&self, cause: FlushCause, size: usize, depth: usize) {
        self.flushes[cause_index(cause)].fetch_add(1, Ordering::Relaxed);
        debug_assert!(size >= 1 && size <= self.batch_sizes.len());
        self.batch_sizes[size - 1].fetch_add(1, Ordering::Relaxed);
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// The warm-up failed (or the dispatcher died) and the queue was
    /// drained *unserved*: reset the depth gauge. The drained requests stay
    /// counted in `submitted` but never reach the flush histogram — the
    /// cases where a terminal lane's `requests_flushed()` is below its
    /// `submitted`.
    pub(crate) fn record_failed_drain(&self) {
        self.queue_depth.store(0, Ordering::Relaxed);
    }

    /// One flush's batch execution panicked. Returns the new
    /// consecutive-panic count (the breaker's input).
    pub(crate) fn record_batch_panic(&self) -> u32 {
        self.batch_panics.fetch_add(1, Ordering::Relaxed);
        self.consecutive_panics.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// One flush's batch execution succeeded: the consecutive-panic streak
    /// resets (the breaker only counts *uninterrupted* failures).
    pub(crate) fn record_batch_success(&self) {
        self.consecutive_panics.store(0, Ordering::Relaxed);
    }

    /// `n` queued requests were failed at flush for being past their hard
    /// deadline, leaving `depth` entries queued.
    pub(crate) fn record_deadline_expired(&self, n: u64, depth: usize) {
        self.deadline_expired.fetch_add(n, Ordering::Relaxed);
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// The dispatcher thread died outside its panic guards; supervision
    /// failed the lane's remaining tickets.
    pub(crate) fn record_died(&self) {
        self.died.store(1, Ordering::Relaxed);
    }

    /// Folds one timed flush into the EWMA estimator. Single writer (the
    /// lane's dispatcher); readers go through
    /// [`LaneMetrics::flush_estimate`].
    pub(crate) fn record_flush_latency(&self, elapsed: Duration) {
        let prev = self.ewma_flush_nanos.load(Ordering::Relaxed);
        let next = ewma_update(prev, elapsed.as_nanos().min(u64::MAX as u128) as u64);
        self.ewma_flush_nanos.store(next, Ordering::Relaxed);
        self.flush_samples.fetch_add(1, Ordering::Release);
    }

    /// The lane's flush-latency estimate, or `None` while fewer than
    /// `min_samples.max(1)` flushes have been timed (the feasibility
    /// cold-start gate: never shed on an untrained estimator).
    pub(crate) fn flush_estimate(&self, min_samples: u64) -> Option<Duration> {
        if self.flush_samples.load(Ordering::Acquire) < min_samples.max(1) {
            return None;
        }
        Some(Duration::from_nanos(
            self.ewma_flush_nanos.load(Ordering::Relaxed),
        ))
    }

    /// Advances the flush-progress heartbeat (entering or leaving
    /// execution).
    pub(crate) fn tick_heartbeat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Release);
    }

    /// The stall watchdog condemned this lane's flush.
    pub(crate) fn record_stalled(&self) {
        self.stalled.store(1, Ordering::Relaxed);
    }

    /// Records the cold-start cost: `plan` is the symbolic phase alone (from
    /// [`PlannedScan::build_time`](bppsa_core::PlannedScan::build_time)),
    /// `warmup` the whole bring-up (plan + workspace-pool construction and
    /// prewarm).
    pub(crate) fn record_warmup(&self, plan: Duration, warmup: Duration) {
        self.plan_nanos
            .store(plan.as_nanos() as u64, Ordering::Relaxed);
        self.warmup_nanos
            .store(warmup.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records what the lane's plan compiled to: the program kind
    /// ([`PlannedScan::plan_kind`](bppsa_core::PlannedScan::plan_kind)),
    /// the kernel-mode mix across its combines
    /// ([`PlannedScan::kernel_counts`](bppsa_core::PlannedScan::kernel_counts)),
    /// and the segment count
    /// ([`PlannedScan::segments`](bppsa_core::PlannedScan::segments)).
    /// Written once at warm-up, alongside [`LaneMetrics::record_warmup`].
    pub(crate) fn record_plan_profile(
        &self,
        kind: PlanKind,
        counts: KernelCounts,
        segments: usize,
    ) {
        self.plan_segments.store(segments as u64, Ordering::Relaxed);
        self.kernels_gather
            .store(counts.gather as u64, Ordering::Relaxed);
        self.kernels_gustavson
            .store(counts.gustavson as u64, Ordering::Relaxed);
        self.kernels_dense
            .store(counts.dense as u64, Ordering::Relaxed);
        let tag = match kind {
            PlanKind::Csr => 1,
            PlanKind::Diagonal => 2,
        };
        self.plan_kind.store(tag, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> LaneMetricsSnapshot {
        LaneMetricsSnapshot {
            lane_id: self.lane_id,
            layers: self.layers,
            seed_len: self.seed_len,
            state: self.state(),
            submitted: self.submitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_batch_flushes: self.flushes[cause_index(FlushCause::MaxBatch)]
                .load(Ordering::Relaxed),
            deadline_flushes: self.flushes[cause_index(FlushCause::Deadline)]
                .load(Ordering::Relaxed),
            drain_flushes: self.flushes[cause_index(FlushCause::Drain)].load(Ordering::Relaxed),
            batch_size_counts: self
                .batch_sizes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            plan_time: Duration::from_nanos(self.plan_nanos.load(Ordering::Relaxed)),
            warmup_time: Duration::from_nanos(self.warmup_nanos.load(Ordering::Relaxed)),
            plan_kind: match self.plan_kind.load(Ordering::Relaxed) {
                1 => Some(PlanKind::Csr),
                2 => Some(PlanKind::Diagonal),
                _ => None,
            },
            plan_segments: self.plan_segments.load(Ordering::Relaxed) as usize,
            kernel_counts: KernelCounts {
                gather: self.kernels_gather.load(Ordering::Relaxed) as usize,
                gustavson: self.kernels_gustavson.load(Ordering::Relaxed) as usize,
                dense: self.kernels_dense.load(Ordering::Relaxed) as usize,
            },
            batch_panics: self.batch_panics.load(Ordering::Relaxed),
            consecutive_panics: self.consecutive_panics.load(Ordering::Relaxed),
            breaker_tripped: self.breaker_tripped.load(Ordering::Relaxed) != 0,
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            died: self.died.load(Ordering::Relaxed) != 0,
            infeasible: self.infeasible.load(Ordering::Relaxed),
            ewma_flush_latency: Duration::from_nanos(self.ewma_flush_nanos.load(Ordering::Relaxed)),
            flush_samples: self.flush_samples.load(Ordering::Relaxed),
            flush_progress: self.heartbeat.load(Ordering::Relaxed),
            stalled: self.stalled.load(Ordering::Relaxed) != 0,
            probe: self.probe,
        }
    }
}

/// A point-in-time copy of one lane's counters, from
/// [`BppsaService::metrics`](crate::BppsaService::metrics).
///
/// Snapshots cover every lane ever created — including evicted/retired
/// lanes — ordered by [`LaneMetricsSnapshot::lane_id`] (creation order).
/// Counter reads are relaxed: a snapshot taken while traffic is in flight
/// is internally consistent only up to the usual torn-read caveats; once a
/// lane is quiescent (all tickets waited on, or the service shut down) the
/// counts are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMetricsSnapshot {
    /// Creation-ordered lane identity (`0..lanes_created`), matching the
    /// dispatcher thread name `bppsa-serve-lane-{lane_id}`.
    pub lane_id: usize,
    /// Chain length (layers) of the shape this lane serves.
    pub layers: usize,
    /// Seed-gradient width of the shape this lane serves.
    pub seed_len: usize,
    /// Where the lane is in `Warming → Live → Draining → Retired`.
    pub state: LaneState,
    /// Requests accepted into the lane's queue.
    pub submitted: u64,
    /// Requests refused by the [`ShedPolicy`](crate::ShedPolicy).
    pub shed: u64,
    /// Requests queued at the last queue transition (gauge, not a counter).
    pub queue_depth: usize,
    /// Flushes triggered by a full batch ([`FlushCause::MaxBatch`]).
    pub max_batch_flushes: u64,
    /// Flushes triggered by an expired delay budget
    /// ([`FlushCause::Deadline`]).
    pub deadline_flushes: u64,
    /// Flushes triggered by eviction/shutdown drain ([`FlushCause::Drain`]).
    pub drain_flushes: u64,
    /// `batch_size_counts[k]` = flushes that carried exactly `k + 1`
    /// requests (length = the lane's `max_batch`).
    pub batch_size_counts: Vec<u64>,
    /// Wall-clock cost of the symbolic planning phase alone.
    pub plan_time: Duration,
    /// Whole bring-up cost: planning plus workspace-pool construction and
    /// prewarm. Zero until the warm-up finishes; it is recorded just
    /// *before* the lane's `Warming → Live` transition, so a racing
    /// snapshot may briefly observe a nonzero `warmup_time` while `state`
    /// still reads [`LaneState::Warming`] — key "still warming" off
    /// `state`, not off this field.
    pub warmup_time: Duration,
    /// Which program kind the lane's plan compiled to (`None` until the
    /// warm-up records it — a lane that never finished planning stays
    /// `None`). Recorded alongside `warmup_time`, with the same racing-
    /// snapshot caveat.
    pub plan_kind: Option<PlanKind>,
    /// How many chain segments the lane's plan scans concurrently: `0`
    /// until the warm-up records it, `1` for unsegmented plans, `≥ 2` when
    /// the lane transparently picked segment-parallel execution for a deep
    /// chain. Recorded alongside `plan_kind`.
    pub plan_segments: usize,
    /// The kernel-mode mix across the plan's matrix–matrix combines: how
    /// many resolved to each numeric SpGEMM kernel. All zeros for diagonal
    /// plans (they hoist no products) and for lanes that never planned.
    pub kernel_counts: KernelCounts,
    /// Flushes whose batch execution panicked (each failed its whole batch
    /// with [`ServeError::BatchPanicked`](crate::ServeError::BatchPanicked)).
    pub batch_panics: u64,
    /// Current uninterrupted batch-panic streak (gauge; resets to 0 on any
    /// successful flush). The breaker trips when this reaches
    /// [`BreakerPolicy::max_consecutive_panics`](crate::BreakerPolicy::max_consecutive_panics).
    pub consecutive_panics: u32,
    /// Whether this lane tripped its circuit breaker (implies the lane
    /// ended [`LaneState::Quarantined`]).
    pub breaker_tripped: bool,
    /// Requests failed at flush with
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)
    /// under [`DeadlinePolicy::Hard`](crate::DeadlinePolicy::Hard).
    pub deadline_expired: u64,
    /// Whether the dispatcher thread died outside its panic guards and
    /// supervision failed the lane's remaining tickets with
    /// [`ServeError::LaneDied`](crate::ServeError::LaneDied).
    pub died: bool,
    /// Requests refused up front with
    /// [`SubmitRefusal::Infeasible`](crate::SubmitRefusal::Infeasible): their
    /// predicted queue wait already exceeded their deadline. Counted
    /// separately from [`shed`](Self::shed) (static depth/warming
    /// refusals) so operators can see *measured-latency* shedding.
    pub infeasible: u64,
    /// The lane's current EWMA flush-latency estimate (zero until the
    /// first timed flush). This is the feasibility estimator's state; it
    /// is only *acted* on after
    /// [`FeasibilityPolicy::min_flushes`](crate::FeasibilityPolicy::min_flushes)
    /// samples.
    pub ewma_flush_latency: Duration,
    /// Timed flushes folded into
    /// [`ewma_flush_latency`](Self::ewma_flush_latency).
    pub flush_samples: u64,
    /// Monotonic flush-progress heartbeat (odd while a flush is inside
    /// execution). Stuck-odd past the watchdog's stall budget is exactly
    /// the condition the supervisor condemns.
    pub flush_progress: u64,
    /// Whether the stall watchdog condemned this lane
    /// ([`ServeError::FlushStalled`](crate::ServeError::FlushStalled);
    /// implies the lane ended [`LaneState::Quarantined`]).
    pub stalled: bool,
    /// Whether this lane was the half-open probe for a quarantined shape
    /// (created after cool-down to test recovery; one clean flush restores
    /// the shape to service, one panic re-trips the quarantine).
    pub probe: bool,
}

impl LaneMetricsSnapshot {
    /// Flushes attributed to `cause`.
    pub fn flushes_of(&self, cause: FlushCause) -> u64 {
        match cause {
            FlushCause::MaxBatch => self.max_batch_flushes,
            FlushCause::Deadline => self.deadline_flushes,
            FlushCause::Drain => self.drain_flushes,
        }
    }

    /// Total flushes across all causes (equals the sum of
    /// [`LaneMetricsSnapshot::batch_size_counts`]).
    pub fn flushes(&self) -> u64 {
        self.max_batch_flushes + self.deadline_flushes + self.drain_flushes
    }

    /// Requests that have left through a flush: `Σ (k+1) ·
    /// batch_size_counts[k]`. On a quiescent lane this equals
    /// [`LaneMetricsSnapshot::submitted`] minus what is still queued —
    /// except after a warm-up plan panic (requests drained unserved, failed
    /// with [`ServeError::PlanPanicked`](crate::ServeError::PlanPanicked)),
    /// a dispatcher death
    /// ([`ServeError::LaneDied`](crate::ServeError::LaneDied)), a breaker
    /// trip ([`ServeError::LaneQuarantined`](crate::ServeError::LaneQuarantined)),
    /// or hard-deadline expiry
    /// ([`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded))
    /// — requests failed through those paths never reach the histogram.
    pub fn requests_flushed(&self) -> u64 {
        self.batch_size_counts
            .iter()
            .enumerate()
            .map(|(k, count)| (k as u64 + 1) * count)
            .sum()
    }
}

/// Aggregate counters folded out of terminal (retired or quarantined)
/// lanes' snapshots once the metrics registry outgrows
/// [`RETIRED_METRICS_CAP`](crate::RETIRED_METRICS_CAP).
/// Per-lane identity (ids, shapes, histograms, timings) is dropped; the
/// totals keep reconciling — `submitted` here plus the live registry's
/// `submitted` still equals everything the service ever accepted. Read via
/// [`BppsaService::metrics_rollup`](crate::BppsaService::metrics_rollup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetiredRollup {
    /// Terminal lanes folded into this rollup (no longer individually
    /// listed by [`BppsaService::metrics`](crate::BppsaService::metrics)).
    pub lanes: u64,
    /// Sum of the folded lanes' `submitted`.
    pub submitted: u64,
    /// Sum of the folded lanes' `shed`.
    pub shed: u64,
    /// Sum of the folded lanes' [`FlushCause::MaxBatch`] flushes.
    pub max_batch_flushes: u64,
    /// Sum of the folded lanes' [`FlushCause::Deadline`] flushes.
    pub deadline_flushes: u64,
    /// Sum of the folded lanes' [`FlushCause::Drain`] flushes.
    pub drain_flushes: u64,
    /// Sum of the folded lanes' [`LaneMetricsSnapshot::requests_flushed`].
    pub requests_flushed: u64,
    /// Sum of the folded lanes' `batch_panics`.
    pub batch_panics: u64,
    /// Folded lanes whose breaker tripped.
    pub breaker_trips: u64,
    /// Sum of the folded lanes' `deadline_expired`.
    pub deadline_expired: u64,
    /// Folded lanes whose dispatcher died outside its panic guards.
    pub died: u64,
    /// Sum of the folded lanes' `infeasible` refusals — kept so terminal-
    /// lane history stays reconcilable: `completed + failed + refused`
    /// accounting must survive lane compaction, and feasibility refusals
    /// are part of `refused`. (`MemoryPressure` refusals have no lane —
    /// they are refused at routing — and live in
    /// [`BppsaService::memory_refusals`](crate::BppsaService::memory_refusals),
    /// which compaction never touches.)
    pub infeasible: u64,
    /// Folded lanes condemned by the stall watchdog.
    pub stalled: u64,
}

impl RetiredRollup {
    /// Folds one terminal lane's snapshot into the rollup.
    pub(crate) fn absorb(&mut self, snap: &LaneMetricsSnapshot) {
        self.lanes += 1;
        self.submitted += snap.submitted;
        self.shed += snap.shed;
        self.max_batch_flushes += snap.max_batch_flushes;
        self.deadline_flushes += snap.deadline_flushes;
        self.drain_flushes += snap.drain_flushes;
        self.requests_flushed += snap.requests_flushed();
        self.batch_panics += snap.batch_panics;
        self.breaker_trips += u64::from(snap.breaker_tripped);
        self.deadline_expired += snap.deadline_expired;
        self.died += u64::from(snap.died);
        self.infeasible += snap.infeasible;
        self.stalled += u64::from(snap.stalled);
    }

    /// Total flushes across all causes in the folded lanes.
    pub fn flushes(&self) -> u64 {
        self.max_batch_flushes + self.deadline_flushes + self.drain_flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_transitions() {
        let m = LaneMetrics::new(0, 3, 4, 8, false);
        assert_eq!(m.state(), LaneState::Warming);
        m.mark_live();
        assert_eq!(m.state(), LaneState::Live);
        m.mark_draining();
        assert_eq!(m.state(), LaneState::Draining);
        m.mark_live(); // stale CAS loses: draining is sticky
        assert_eq!(m.state(), LaneState::Draining);
        m.mark_retired();
        assert_eq!(m.state(), LaneState::Retired);
        m.mark_draining(); // never resurrects a retired lane
        assert_eq!(m.state(), LaneState::Retired);
    }

    #[test]
    fn eviction_while_warming_skips_live() {
        let m = LaneMetrics::new(1, 3, 4, 8, false);
        m.mark_draining();
        assert_eq!(m.state(), LaneState::Draining);
        m.mark_live(); // the dispatcher finishing its plan after the evict
        assert_eq!(m.state(), LaneState::Draining);
    }

    #[test]
    fn quarantine_is_sticky_against_retire() {
        let m = LaneMetrics::new(3, 3, 4, 8, false);
        m.mark_live();
        m.mark_quarantined();
        assert_eq!(m.state(), LaneState::Quarantined);
        m.mark_retired(); // a later generic exit path must not mask the trip
        assert_eq!(m.state(), LaneState::Quarantined);
        m.mark_draining();
        assert_eq!(m.state(), LaneState::Quarantined);
        assert!(m.snapshot().breaker_tripped);
    }

    #[test]
    fn breaker_streak_counts_and_resets() {
        let m = LaneMetrics::new(4, 3, 4, 8, true);
        assert_eq!(m.record_batch_panic(), 1);
        assert_eq!(m.record_batch_panic(), 2);
        m.record_batch_success();
        assert_eq!(m.record_batch_panic(), 1, "success resets the streak");
        let snap = m.snapshot();
        assert_eq!(snap.batch_panics, 3, "total count never resets");
        assert_eq!(snap.consecutive_panics, 1);
        assert!(snap.probe);
        assert!(!snap.died);
    }

    #[test]
    fn rollup_absorbs_terminal_snapshots() {
        let a = LaneMetrics::new(0, 3, 4, 4, false);
        a.record_submit(1);
        a.record_submit(2);
        a.record_flush(FlushCause::MaxBatch, 2, 0);
        a.record_batch_panic();
        a.mark_quarantined();
        let b = LaneMetrics::new(1, 3, 4, 4, false);
        b.record_submit(1);
        b.record_deadline_expired(1, 0);
        b.record_died();
        b.mark_retired();
        let mut rollup = RetiredRollup::default();
        rollup.absorb(&a.snapshot());
        rollup.absorb(&b.snapshot());
        assert_eq!(rollup.lanes, 2);
        assert_eq!(rollup.submitted, 3);
        assert_eq!(rollup.requests_flushed, 2);
        assert_eq!(rollup.flushes(), 1);
        assert_eq!(rollup.batch_panics, 1);
        assert_eq!(rollup.breaker_trips, 1);
        assert_eq!(rollup.deadline_expired, 1);
        assert_eq!(rollup.died, 1);
    }

    #[test]
    fn flush_estimate_gates_on_samples_then_tracks_ewma() {
        let m = LaneMetrics::new(5, 3, 4, 8, false);
        assert_eq!(m.flush_estimate(3), None, "no observations yet");
        m.record_flush_latency(Duration::from_micros(800));
        m.record_flush_latency(Duration::from_micros(800));
        assert_eq!(m.flush_estimate(3), None, "below the cold-start gate");
        m.record_flush_latency(Duration::from_micros(800));
        let est = m.flush_estimate(3).expect("gate passed");
        assert_eq!(est, Duration::from_micros(800), "constant stream adopted");
        // min_samples == 0 still requires at least one observation.
        let cold = LaneMetrics::new(6, 3, 4, 8, false);
        assert_eq!(cold.flush_estimate(0), None);
        let snap = m.snapshot();
        assert_eq!(snap.flush_samples, 3);
        assert_eq!(snap.ewma_flush_latency, Duration::from_micros(800));
    }

    #[test]
    fn rollup_folds_infeasible_and_stalled() {
        let m = LaneMetrics::new(7, 3, 4, 4, false);
        m.record_refusal(SubmitRefusal::Infeasible);
        m.record_refusal(SubmitRefusal::Infeasible);
        m.record_stalled();
        m.mark_quarantined();
        let snap = m.snapshot();
        assert_eq!(snap.infeasible, 2);
        assert!(snap.stalled);
        let mut rollup = RetiredRollup::default();
        rollup.absorb(&snap);
        assert_eq!(rollup.infeasible, 2);
        assert_eq!(rollup.stalled, 1);
    }

    #[test]
    fn heartbeat_parity_marks_in_flight_execution() {
        let m = LaneMetrics::new(8, 3, 4, 4, false);
        assert_eq!(m.snapshot().flush_progress, 0);
        m.tick_heartbeat(); // entering execution
        assert_eq!(m.snapshot().flush_progress % 2, 1);
        m.tick_heartbeat(); // leaving execution
        assert_eq!(m.snapshot().flush_progress, 2);
    }

    #[test]
    fn snapshot_reflects_counts_and_histogram() {
        let m = LaneMetrics::new(2, 5, 6, 4, false);
        for depth in 1..=6 {
            m.record_submit(depth.min(4));
        }
        m.record_flush(FlushCause::MaxBatch, 4, 2);
        m.record_flush(FlushCause::Deadline, 2, 0);
        m.record_refusal(SubmitRefusal::Shed);
        // Warming and backpressure refusals are the caller's to route.
        m.record_refusal(SubmitRefusal::LaneWarming);
        m.record_refusal(SubmitRefusal::Backpressure);
        m.record_warmup(Duration::from_micros(3), Duration::from_micros(9));
        let snap = m.snapshot();
        assert_eq!(snap.submitted, 6);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.flushes(), 2);
        assert_eq!(snap.flushes_of(FlushCause::MaxBatch), 1);
        assert_eq!(snap.flushes_of(FlushCause::Deadline), 1);
        assert_eq!(snap.flushes_of(FlushCause::Drain), 0);
        assert_eq!(snap.batch_size_counts, vec![0, 1, 0, 1]);
        assert_eq!(snap.requests_flushed(), 6);
        assert_eq!(snap.plan_time, Duration::from_micros(3));
        assert_eq!(snap.warmup_time, Duration::from_micros(9));
    }
}
