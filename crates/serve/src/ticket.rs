//! Client-side completion handles for served backward requests.
//!
//! A [`Ticket`] is the reusable rendezvous between one submitter and the
//! service: `submit` moves a [`JacobianChain`] in, the lane dispatcher
//! executes it inside a coalesced batch, and completion hands the chain
//! *back* into the ticket together with the gradients — so a steady-state
//! client loop (refresh values in place, resubmit, wait, read) performs
//! **zero heap allocations** after its first round trip. The gradient copy
//! reuses the ticket's buffer whenever the shapes match, and waiting is a
//! plain condvar park.

use bppsa_core::{BackwardResult, JacobianChain};
use bppsa_tensor::Scalar;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Why a served request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// A job in this request's coalesced batch panicked and this request's
    /// own execution did not complete. Requests of the same batch whose
    /// execution finished before the panic still complete successfully —
    /// the panic is attributed per request, and other batches (other lanes,
    /// other flushes) are never affected.
    BatchPanicked,
    /// The lane's warm-up (symbolic planning + workspace construction)
    /// panicked before this request could execute; the lane retired and
    /// every request it had accepted fails with this error (chains handed
    /// back). Shape validity is checked at submit, so this indicates an
    /// internal planning bug, not a malformed request.
    PlanPanicked,
    /// The lane's dispatcher thread died outside its panic guards (an
    /// injected or internal fault escaping every `catch_unwind`).
    /// Supervision failed every request the lane still held — queued or
    /// mid-assembly — with this error instead of leaving their waiters
    /// hung; chains are handed back. The lane is purged from the router on
    /// the next routing of its shape, so later submits transparently
    /// re-create it.
    LaneDied,
    /// The lane's circuit breaker tripped
    /// ([`BreakerPolicy::max_consecutive_panics`](crate::BreakerPolicy::max_consecutive_panics)
    /// uninterrupted batch panics) while this request was queued: the lane
    /// exited [`LaneState::Quarantined`](crate::LaneState::Quarantined)
    /// and failed its whole queue with this error (chains handed back).
    /// Until the cool-down elapses, *new* submits of the shape are refused
    /// up front with
    /// [`SubmitRefusal::Quarantined`](crate::SubmitRefusal::Quarantined).
    LaneQuarantined,
    /// Under [`DeadlinePolicy::Hard`](crate::DeadlinePolicy::Hard), this
    /// request was already past its deadline (by more than the configured
    /// grace) when the dispatcher assembled its batch, so it was failed at
    /// flush instead of executed late. The chain is handed back; resubmit
    /// with a larger delay budget if late results are acceptable, or switch
    /// to [`DeadlinePolicy::Soft`](crate::DeadlinePolicy::Soft).
    DeadlineExceeded,
    /// The stall watchdog
    /// ([`WatchdogPolicy`](crate::WatchdogPolicy)) found the lane's flush
    /// stuck inside execution past its stall budget and failed the lane:
    /// requests already assembled into the stalled flush resolve with this
    /// error **without their chain handed back** (the chain is captive
    /// inside the stuck execution — do not call
    /// [`Ticket::take_chain`] after it; rebuild the chain instead), while
    /// requests still queued fail with chains returned. The lane is
    /// quarantined exactly as a circuit-breaker trip would
    /// ([`LaneState::Quarantined`](crate::LaneState::Quarantined)) and
    /// recovers through the same half-open probe.
    FlushStalled,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BatchPanicked => {
                write!(f, "a job in this request's coalesced batch panicked")
            }
            ServeError::PlanPanicked => {
                write!(f, "the lane's plan construction panicked during warm-up")
            }
            ServeError::LaneDied => {
                write!(f, "the lane's dispatcher thread died; request not served")
            }
            ServeError::LaneQuarantined => {
                write!(f, "the lane's circuit breaker tripped; shape quarantined")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline expired before its batch flushed")
            }
            ServeError::FlushStalled => {
                write!(f, "the lane's flush stalled past its watchdog budget")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Where a ticket currently is in its request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No request submitted yet (or the last flight was aborted).
    Idle,
    /// A request is in flight; `wait` blocks.
    Pending,
    /// The last request completed; `outcome` says how.
    Done,
}

pub(crate) struct TicketShared<S> {
    inner: Mutex<TicketInner<S>>,
    done: Condvar,
}

struct TicketInner<S> {
    phase: Phase,
    /// Monotonic flight generation, bumped by every `begin_flight`. Guarded
    /// completion (`finish_if` / `stage_if`) carries the generation it was
    /// assembled under and no-ops when it no longer matches — so a stalled
    /// dispatcher waking up after the watchdog already failed (and the
    /// client possibly resubmitted) its tickets cannot corrupt a newer
    /// flight.
    flight: u64,
    /// `Some` exactly when `phase == Done`.
    outcome: Option<Result<(), ServeError>>,
    /// Whether the in-flight request's execution completed (its result was
    /// staged) — distinguishes the panicking member of a poisoned batch
    /// from its innocent co-members.
    staged: bool,
    /// The last completed flight's gradients; reused across flights.
    result: Option<BackwardResult<S>>,
    /// The request chain, handed back on completion for in-place refresh.
    chain: Option<JacobianChain<S>>,
}

impl<S> TicketShared<S> {
    fn lock(&self) -> MutexGuard<'_, TicketInner<S>> {
        // Ticket state carries no invariant a panicking holder could break
        // mid-update that a waiter must not see (single writer per phase).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks the ticket in flight. `false` if a request is already pending.
    pub(crate) fn begin_flight(&self) -> bool {
        let mut inner = self.lock();
        if inner.phase == Phase::Pending {
            return false;
        }
        inner.phase = Phase::Pending;
        inner.flight = inner.flight.wrapping_add(1);
        inner.outcome = None;
        inner.staged = false;
        true
    }

    /// The current flight generation — captured at batch assembly and
    /// passed back through [`TicketShared::finish_if`] /
    /// [`TicketShared::stage_if`].
    pub(crate) fn flight_token(&self) -> u64 {
        self.lock().flight
    }

    /// Rolls a [`TicketShared::begin_flight`] back after a refused submit.
    pub(crate) fn abort_flight(&self) {
        let mut inner = self.lock();
        debug_assert_eq!(inner.phase, Phase::Pending);
        inner.phase = Phase::Idle;
    }

    /// Completes the flight: hands the chain back and wakes waiters. A
    /// [`ServeError::BatchPanicked`] failure is attributed per request:
    /// members whose execution finished (staged) still complete
    /// successfully; only the unexecuted ones fail. Other failures (e.g.
    /// [`ServeError::PlanPanicked`]) fail the flight unconditionally.
    pub(crate) fn finish(&self, chain: JacobianChain<S>, failure: Option<ServeError>) {
        let mut inner = self.lock();
        debug_assert_eq!(inner.phase, Phase::Pending);
        Self::complete(&mut inner, Some(chain), failure);
        drop(inner);
        self.done.notify_all();
    }

    /// Guarded [`TicketShared::finish`]: completes the flight only if it is
    /// still pending *and* still generation `token`; returns whether it
    /// did. `chain: None` completes without handing a chain back (the
    /// watchdog takeover path — the chain is captive in a stalled
    /// execution). Safe to race: exactly one of the competing completers
    /// (watchdog vs. woken dispatcher) observes the matching generation.
    pub(crate) fn finish_if(
        &self,
        token: u64,
        chain: Option<JacobianChain<S>>,
        failure: Option<ServeError>,
    ) -> bool {
        let mut inner = self.lock();
        if inner.phase != Phase::Pending || inner.flight != token {
            return false;
        }
        Self::complete(&mut inner, chain, failure);
        drop(inner);
        self.done.notify_all();
        true
    }

    fn complete(
        inner: &mut TicketInner<S>,
        chain: Option<JacobianChain<S>>,
        failure: Option<ServeError>,
    ) {
        inner.outcome = Some(match failure {
            None => Ok(()),
            Some(ServeError::BatchPanicked) if inner.staged => Ok(()),
            Some(err) => Err(err),
        });
        if let Some(chain) = chain {
            inner.chain = Some(chain);
        }
        inner.phase = Phase::Done;
    }
}

impl<S: Scalar> TicketShared<S> {
    /// Stages the request's gradients (called from the batch fan-out while
    /// the executing workspace is still checked out). Reuses the ticket's
    /// result buffer when shapes match — allocation-free in the steady
    /// state.
    #[cfg(test)]
    pub(crate) fn stage(&self, result: &BackwardResult<S>) {
        let mut inner = self.lock();
        Self::stage_inner(&mut inner, result);
    }

    /// Guarded [`TicketShared::stage`]: stages only while the flight is
    /// still pending generation `token` — a stalled execution waking after
    /// watchdog takeover must not overwrite a newer flight's result.
    pub(crate) fn stage_if(&self, token: u64, result: &BackwardResult<S>) {
        let mut inner = self.lock();
        if inner.phase != Phase::Pending || inner.flight != token {
            return;
        }
        Self::stage_inner(&mut inner, result);
    }

    fn stage_inner(inner: &mut TicketInner<S>, result: &BackwardResult<S>) {
        match &mut inner.result {
            Some(dst)
                if dst.grads().len() == result.grads().len()
                    && dst
                        .grads()
                        .iter()
                        .zip(result.grads())
                        .all(|(d, s)| d.len() == s.len()) =>
            {
                for (dst, src) in dst.grads_mut().iter_mut().zip(result.grads()) {
                    dst.as_mut_slice().copy_from_slice(src.as_slice());
                }
            }
            slot => *slot = Some(result.clone()),
        }
        inner.staged = true;
    }
}

/// A reusable completion handle: one in-flight request at a time, chain and
/// gradient buffers recycled across flights.
///
/// The steady-state client loop — take the chain back, refresh its values
/// in place, resubmit, wait, read — performs **zero heap allocations**
/// after the first completed round trip (asserted by
/// `crates/serve/tests/alloc_free_serve.rs`).
///
/// # Examples
///
/// ```
/// use bppsa_core::{JacobianChain, ScanElement};
/// use bppsa_serve::{BppsaService, ServeConfig, Ticket};
/// use bppsa_sparse::Csr;
/// use bppsa_tensor::Vector;
///
/// let service = BppsaService::<f64>::new(ServeConfig::default());
/// let ticket = Ticket::new();
///
/// let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0, -2.0]));
/// chain.push(ScanElement::Sparse(Csr::from_diagonal(&[3.0, 0.5])));
/// service.submit(chain, &ticket).expect("service accepting");
///
/// ticket.wait().expect("request served");
/// let grad = ticket.with_result(|r| r.grad_x(1).as_slice().to_vec());
/// assert_eq!(grad, vec![1.0, -2.0]); // ∇x_n = seed
///
/// // Reuse: reclaim the chain, refresh values in place, go again.
/// let chain = ticket.take_chain();
/// service.submit(chain, &ticket).expect("service accepting");
/// ticket.wait().expect("request served");
/// ```
pub struct Ticket<S> {
    shared: Arc<TicketShared<S>>,
}

impl<S> Ticket<S> {
    /// A fresh, idle ticket.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(TicketShared {
                inner: Mutex::new(TicketInner {
                    phase: Phase::Idle,
                    flight: 0,
                    outcome: None,
                    staged: false,
                    result: None,
                    chain: None,
                }),
                done: Condvar::new(),
            }),
        }
    }

    pub(crate) fn shared(&self) -> Arc<TicketShared<S>> {
        Arc::clone(&self.shared)
    }

    /// Blocks until the in-flight request completes; repeated calls after
    /// completion return the same outcome until the next submit.
    ///
    /// # Panics
    ///
    /// Panics if no request was ever submitted on this ticket.
    pub fn wait(&self) -> Result<(), ServeError> {
        let mut inner = self.shared.lock();
        loop {
            match inner.phase {
                Phase::Done => return inner.outcome.expect("Done implies outcome"),
                Phase::Idle => panic!("Ticket::wait: no request in flight"),
                Phase::Pending => {
                    inner = self
                        .shared
                        .done
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Like [`Ticket::wait`], but gives up after `timeout`: returns
    /// `Some(outcome)` if the request completed within the window, `None`
    /// if it is still pending when the timeout elapses (the request stays
    /// in flight — the ticket cannot be resubmitted until it completes, so
    /// a `None` is a liveness probe, not a cancellation).
    ///
    /// # Panics
    ///
    /// Panics if no request was ever submitted on this ticket.
    ///
    /// # Examples
    ///
    /// ```
    /// use bppsa_core::{JacobianChain, ScanElement};
    /// use bppsa_serve::{BppsaService, ServeConfig, Ticket};
    /// use bppsa_sparse::Csr;
    /// use bppsa_tensor::Vector;
    /// use std::time::Duration;
    ///
    /// let service = BppsaService::<f64>::new(ServeConfig::default());
    /// let ticket = Ticket::new();
    /// let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0, -2.0]));
    /// chain.push(ScanElement::Sparse(Csr::from_diagonal(&[3.0, 0.5])));
    /// service.submit(chain, &ticket).expect("service accepting");
    ///
    /// // A served request terminates; a generous timeout never trips.
    /// let outcome = ticket.wait_timeout(Duration::from_secs(30));
    /// assert_eq!(outcome, Some(Ok(())));
    /// ```
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Result<(), ServeError>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.shared.lock();
        loop {
            match inner.phase {
                Phase::Done => return Some(inner.outcome.expect("Done implies outcome")),
                Phase::Idle => panic!("Ticket::wait_timeout: no request in flight"),
                Phase::Pending => {
                    let now = std::time::Instant::now();
                    let left = deadline
                        .checked_duration_since(now)
                        .filter(|d| !d.is_zero())?;
                    inner = self
                        .shared
                        .done
                        .wait_timeout(inner, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// Whether the last submitted request has completed (never blocks).
    pub fn is_done(&self) -> bool {
        self.shared.lock().phase == Phase::Done
    }

    /// Reads the completed gradients under the ticket lock (no copy; copy
    /// out what must outlive the call).
    ///
    /// # Panics
    ///
    /// Panics if the last request did not complete successfully (or none
    /// was submitted) — check [`Ticket::wait`] first.
    pub fn with_result<R>(&self, f: impl FnOnce(&BackwardResult<S>) -> R) -> R {
        let inner = self.shared.lock();
        assert_eq!(
            (inner.phase, inner.outcome),
            (Phase::Done, Some(Ok(()))),
            "Ticket::with_result: last request did not complete successfully"
        );
        f(inner.result.as_ref().expect("successful flight staged"))
    }

    /// Reclaims the chain of the last completed request for in-place value
    /// refresh and resubmission (the allocation-free client loop).
    ///
    /// # Panics
    ///
    /// Panics while a request is in flight, or if there is no chain to take
    /// (none submitted yet, or already taken).
    pub fn take_chain(&self) -> JacobianChain<S> {
        let mut inner = self.shared.lock();
        assert_ne!(
            inner.phase,
            Phase::Pending,
            "Ticket::take_chain: request still in flight"
        );
        inner
            .chain
            .take()
            .expect("Ticket::take_chain: no chain held")
    }
}

impl<S> Default for Ticket<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> std::fmt::Debug for Ticket<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.lock();
        f.debug_struct("Ticket")
            .field("phase", &inner.phase)
            .field("outcome", &inner.outcome)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bppsa_sparse::Csr;
    use bppsa_tensor::Vector;

    fn tiny_chain(scale: f64) -> JacobianChain<f64> {
        let mut chain = JacobianChain::new(Vector::from_vec(vec![scale, -scale]));
        chain.push(bppsa_core::ScanElement::Sparse(Csr::from_diagonal(&[
            2.0, 3.0,
        ])));
        chain
    }

    #[test]
    fn begin_stage_finish_roundtrip() {
        let ticket = Ticket::<f64>::new();
        let shared = ticket.shared();
        assert!(shared.begin_flight());
        assert!(!shared.begin_flight(), "double begin must be refused");
        let result = BackwardResult::from_grads(vec![Vector::from_vec(vec![1.0, 2.0])]);
        shared.stage(&result);
        shared.finish(tiny_chain(1.0), None);
        assert_eq!(ticket.wait(), Ok(()));
        assert_eq!(
            ticket.with_result(|r| r.grad_x(1).as_slice().to_vec()),
            vec![1.0, 2.0]
        );
        let chain = ticket.take_chain();
        assert_eq!(chain.seed().as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn panicked_batch_fails_only_unstaged_members() {
        let staged = Ticket::<f64>::new();
        let unstaged = Ticket::<f64>::new();
        for t in [&staged, &unstaged] {
            assert!(t.shared().begin_flight());
        }
        staged
            .shared()
            .stage(&BackwardResult::from_grads(vec![Vector::from_vec(vec![
                5.0,
            ])]));
        staged
            .shared()
            .finish(tiny_chain(1.0), Some(ServeError::BatchPanicked));
        unstaged
            .shared()
            .finish(tiny_chain(2.0), Some(ServeError::BatchPanicked));
        assert_eq!(staged.wait(), Ok(()));
        assert_eq!(unstaged.wait(), Err(ServeError::BatchPanicked));
        // Both get their chains back regardless of outcome.
        assert_eq!(staged.take_chain().seed().as_slice(), &[1.0, -1.0]);
        assert_eq!(unstaged.take_chain().seed().as_slice(), &[2.0, -2.0]);
    }

    #[test]
    fn abort_flight_returns_to_idle() {
        let ticket = Ticket::<f64>::new();
        assert!(ticket.shared().begin_flight());
        ticket.shared().abort_flight();
        assert!(ticket.shared().begin_flight(), "idle again after abort");
    }

    #[test]
    #[should_panic(expected = "no request in flight")]
    fn wait_without_submit_panics() {
        let _ = Ticket::<f64>::new().wait();
    }

    #[test]
    #[should_panic(expected = "did not complete successfully")]
    fn with_result_after_failure_panics() {
        let ticket = Ticket::<f64>::new();
        ticket.shared().begin_flight();
        ticket
            .shared()
            .finish(tiny_chain(1.0), Some(ServeError::BatchPanicked));
        assert_eq!(ticket.wait(), Err(ServeError::BatchPanicked));
        ticket.with_result(|_| ());
    }

    #[test]
    fn wait_timeout_probes_without_consuming_the_flight() {
        let ticket = Ticket::<f64>::new();
        let shared = ticket.shared();
        assert!(shared.begin_flight());
        // Still pending: the probe returns None and the flight stays live.
        assert_eq!(
            ticket.wait_timeout(std::time::Duration::from_millis(1)),
            None
        );
        shared.finish(tiny_chain(1.0), Some(ServeError::LaneDied));
        assert_eq!(
            ticket.wait_timeout(std::time::Duration::from_secs(1)),
            Some(Err(ServeError::LaneDied))
        );
        // Repeated probes after completion keep returning the outcome.
        assert_eq!(
            ticket.wait_timeout(std::time::Duration::ZERO),
            Some(Err(ServeError::LaneDied))
        );
        assert_eq!(ticket.take_chain().seed().as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn supervision_errors_fail_even_staged_members() {
        // Unlike BatchPanicked, LaneDied / LaneQuarantined / DeadlineExceeded
        // carry no per-request execution attribution: the flight fails.
        for err in [
            ServeError::LaneDied,
            ServeError::LaneQuarantined,
            ServeError::DeadlineExceeded,
        ] {
            let ticket = Ticket::<f64>::new();
            assert!(ticket.shared().begin_flight());
            ticket
                .shared()
                .stage(&BackwardResult::from_grads(vec![Vector::from_vec(vec![
                    5.0,
                ])]));
            ticket.shared().finish(tiny_chain(1.0), Some(err));
            assert_eq!(ticket.wait(), Err(err));
            let _ = ticket.take_chain();
        }
    }

    #[test]
    fn guarded_finish_races_resolve_to_exactly_one_winner() {
        let ticket = Ticket::<f64>::new();
        let shared = ticket.shared();
        assert!(shared.begin_flight());
        let token = shared.flight_token();
        // Watchdog takeover: completes without a chain.
        assert!(shared.finish_if(token, None, Some(ServeError::FlushStalled)));
        // The stalled dispatcher waking up loses the race cleanly.
        assert!(!shared.finish_if(token, Some(tiny_chain(1.0)), None));
        assert_eq!(ticket.wait(), Err(ServeError::FlushStalled));
    }

    #[test]
    fn stale_generation_cannot_touch_a_newer_flight() {
        let ticket = Ticket::<f64>::new();
        let shared = ticket.shared();
        assert!(shared.begin_flight());
        let stale = shared.flight_token();
        shared.finish_if(stale, None, Some(ServeError::FlushStalled));
        assert_eq!(ticket.wait(), Err(ServeError::FlushStalled));

        // Client resubmits: a new generation begins.
        assert!(shared.begin_flight());
        let fresh = shared.flight_token();
        assert_ne!(stale, fresh);

        // The old execution finally completes — and must be ignored.
        shared.stage_if(
            stale,
            &BackwardResult::from_grads(vec![Vector::from_vec(vec![9.0])]),
        );
        assert!(!shared.finish_if(stale, Some(tiny_chain(7.0)), None));
        assert!(!ticket.is_done(), "stale completion must not finish fresh");

        // The fresh flight completes normally.
        shared.stage_if(
            fresh,
            &BackwardResult::from_grads(vec![Vector::from_vec(vec![1.0, 2.0])]),
        );
        assert!(shared.finish_if(fresh, Some(tiny_chain(3.0)), None));
        assert_eq!(ticket.wait(), Ok(()));
        assert_eq!(
            ticket.with_result(|r| r.grad_x(1).as_slice().to_vec()),
            vec![1.0, 2.0],
            "stale stage must not have leaked into the fresh result"
        );
        assert_eq!(ticket.take_chain().seed().as_slice(), &[3.0, -3.0]);
    }

    #[test]
    fn stalled_takeover_leaves_no_chain_behind() {
        let ticket = Ticket::<f64>::new();
        let shared = ticket.shared();
        assert!(shared.begin_flight());
        let token = shared.flight_token();
        assert!(shared.finish_if(token, None, Some(ServeError::FlushStalled)));
        assert_eq!(ticket.wait(), Err(ServeError::FlushStalled));
        // Documented: the chain is captive in the stalled execution.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.take_chain()));
        assert!(result.is_err(), "take_chain after FlushStalled must panic");
    }

    #[test]
    fn plan_panic_fails_even_staged_members() {
        // PlanPanicked is not per-request-attributable: nothing executed.
        let ticket = Ticket::<f64>::new();
        assert!(ticket.shared().begin_flight());
        ticket
            .shared()
            .finish(tiny_chain(1.0), Some(ServeError::PlanPanicked));
        assert_eq!(ticket.wait(), Err(ServeError::PlanPanicked));
        assert_eq!(ticket.take_chain().seed().as_slice(), &[1.0, -1.0]);
    }
}
