//! The typed error of the served backward routes: the engine's served
//! route ([`BackwardMethod::BppsaServed`](crate::train::BackwardMethod::BppsaServed))
//! and [`VanillaRnn::serve_sample_gradients`](crate::VanillaRnn::serve_sample_gradients)
//! on a service the caller shares.

use bppsa_serve::SubmitRefusal;

/// Terminal submit failure of a served backward pass: one request's
/// submission was refused and the refusal stuck — either it is not
/// retryable at all ([`SubmitRefusal::is_transient`] is `false`), or the
/// service's [`RetryPolicy`](bppsa_serve::RetryPolicy) budget (configured
/// in [`ServeConfig::retry`](bppsa_serve::ServeConfig::retry)) was exhausted retrying it. Retry pacing is
/// entirely the service's: this crate no longer hard-codes budgets or
/// backoffs.
///
/// Surfaced as a typed error (instead of the panic this path used to
/// raise) so callers sharing a service with foreign traffic can decide —
/// skip the batch, re-route to an owned executor, or abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedSubmitError {
    /// Index (within the submitted batch/request slice) of the refused
    /// request. Requests before it were submitted and have been waited
    /// out; requests after it were never submitted.
    pub index: usize,
    /// What the service answered, chain-free (the chain was returned to
    /// its slot).
    pub refusal: SubmitRefusal,
}

impl ServedSubmitError {
    /// Whether the refusal reflects **service overload** — shedding,
    /// backpressure, a warming or quarantined lane, an infeasible
    /// deadline, or memory pressure — rather than a caller-side problem
    /// ([`Shutdown`](SubmitRefusal::Shutdown),
    /// [`TicketInFlight`](SubmitRefusal::TicketInFlight)). Overload
    /// refusals are the ones worth re-routing to an owned
    /// [`BatchedBackward`](bppsa_core::BatchedBackward) executor or a less
    /// loaded service; note this is *not* the same split as
    /// [`SubmitRefusal::is_transient`] —
    /// [`Infeasible`](SubmitRefusal::Infeasible) is overload but not
    /// retryable in place, because an immediate resubmit faces the same
    /// queue and the same latency estimate.
    pub fn is_overload(&self) -> bool {
        !matches!(
            self.refusal,
            SubmitRefusal::Shutdown | SubmitRefusal::TicketInFlight
        )
    }
}

impl std::fmt::Display for ServedSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served backward: request {} refused past the retry budget: {}",
            self.index, self.refusal
        )
    }
}

impl std::error::Error for ServedSubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_classification_splits_refusals_by_reroutability() {
        let overload = [
            SubmitRefusal::Backpressure,
            SubmitRefusal::LaneWarming,
            SubmitRefusal::Shed,
            SubmitRefusal::Quarantined,
            SubmitRefusal::Infeasible,
            SubmitRefusal::MemoryPressure,
        ];
        for refusal in overload {
            let err = ServedSubmitError { index: 0, refusal };
            assert!(err.is_overload(), "{refusal} should classify as overload");
        }
        for refusal in [SubmitRefusal::Shutdown, SubmitRefusal::TicketInFlight] {
            let err = ServedSubmitError { index: 0, refusal };
            assert!(!err.is_overload(), "{refusal} is caller-side, not overload");
        }
        // Infeasible is the split's interesting corner: overload, yet not
        // transient — re-route it, don't resubmit it.
        assert!(!SubmitRefusal::Infeasible.is_transient());
        assert!(SubmitRefusal::MemoryPressure.is_transient());
    }
}
