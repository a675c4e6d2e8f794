//! Unified retry policy for transient submit refusals.
//!
//! Before this module, retry behavior lived as hard-coded constants in
//! `crates/models` (a 5 s budget spinning on a fixed 100 µs backoff) and
//! covered only the refusals that crate happened to hit. [`RetryPolicy`]
//! centralizes the decision in [`ServeConfig`](crate::ServeConfig): one
//! policy object — budget, exponential backoff with a cap, and
//! deterministic jitter — covering every *transient* refusal
//! ([`LaneWarming`](crate::SubmitError::LaneWarming),
//! [`Shed`](crate::SubmitError::Shed),
//! [`Backpressure`](crate::SubmitError::Backpressure),
//! [`Quarantined`](crate::SubmitError::Quarantined), and
//! [`MemoryPressure`](crate::SubmitError::MemoryPressure) — memory
//! pressure subsides as lanes drain and release their reservations).
//! [`Shutdown`](crate::SubmitError::Shutdown),
//! [`TicketInFlight`](crate::SubmitError::TicketInFlight), and
//! [`Infeasible`](crate::SubmitError::Infeasible) are never retried: the
//! first is permanent, the second is a caller bug, and the third would
//! face the same queue and the same latency estimate on the very next
//! attempt — retrying an infeasible request only deepens the overload
//! that refused it (see [`SubmitRefusal::is_transient`](crate::SubmitRefusal::is_transient)).
//!
//! Jitter is a pure function of `(jitter_seed, attempt)` — retries are
//! de-synchronized across callers (different seeds) yet every run of the
//! same caller replays the same schedule, keeping chaos tests and CI
//! deterministic.

use std::time::Duration;

/// Budget + backoff + jitter for retrying transient submit refusals. Set
/// through [`ServeConfig::retry`](crate::ServeConfig::retry) and used by
/// [`BppsaService::submit_retrying`](crate::BppsaService::submit_retrying).
///
/// # Examples
///
/// ```
/// use bppsa_serve::RetryPolicy;
/// use std::time::Duration;
///
/// let policy = RetryPolicy::default();
/// // Exponential: attempt 3 waits ~8x the initial backoff (± jitter)...
/// assert!(policy.backoff_for(3) >= policy.initial_backoff * 4);
/// // ...but never beyond the cap (+ jitter headroom).
/// assert!(policy.backoff_for(60) <= policy.max_backoff * 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total wall-clock budget across all attempts of one submit. When an
    /// attempt fails and the budget is spent, the refusal is returned to
    /// the caller instead of retried.
    pub budget: Duration,
    /// Backoff before the first retry; attempt `n` waits
    /// `initial_backoff * 2^n` (clamped to [`max_backoff`](Self::max_backoff)).
    pub initial_backoff: Duration,
    /// Upper bound on a single backoff sleep (pre-jitter).
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a deterministic
    /// factor drawn from `[1 - jitter, 1 + jitter]`. `0` disables jitter.
    pub jitter: f64,
    /// Seed for the jitter draws. Give concurrent callers distinct seeds to
    /// de-synchronize their retries; the schedule for one seed is identical
    /// on every run.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// The values `crates/models` previously hard-coded (5 s budget, 100 µs
    /// base backoff), now with an exponential ramp capped at 10 ms and 25 %
    /// jitter.
    fn default() -> Self {
        Self {
            budget: Duration::from_secs(5),
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
            jitter: 0.25,
            jitter_seed: 0x5EED,
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy that never retries: the first refusal is returned as-is.
    pub fn none() -> Self {
        Self {
            budget: Duration::ZERO,
            ..Self::default()
        }
    }

    /// Panics if the policy is not internally consistent (jitter outside
    /// `[0, 1]`, or a backoff cap below the initial backoff).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "RetryPolicy::jitter must be in [0, 1], got {}",
            self.jitter
        );
        assert!(
            self.max_backoff >= self.initial_backoff,
            "RetryPolicy::max_backoff ({:?}) must be >= initial_backoff ({:?})",
            self.max_backoff,
            self.initial_backoff
        );
    }

    /// The sleep before retry number `attempt` (counted from `0`):
    /// exponential from [`initial_backoff`](Self::initial_backoff), clamped
    /// to [`max_backoff`](Self::max_backoff), scaled by the deterministic
    /// jitter draw for `(jitter_seed, attempt)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        // `attempt.min(31)` keeps the shift in range (attempts past 31 all
        // price as 2^31); saturating_mul absorbs the Duration overflow.
        let base = self
            .initial_backoff
            .saturating_mul(1u32 << attempt.min(31))
            .min(self.max_backoff);
        if self.jitter == 0.0 {
            return base;
        }
        // Uniform in [0, 1), pure in (seed, attempt).
        let u = (splitmix64(self.jitter_seed ^ splitmix64(attempt as u64)) >> 11) as f64
            * (1.0 / (1u64 << 53) as f64);
        let scale = 1.0 + self.jitter * (2.0 * u - 1.0);
        base.mul_f64(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_ramps_exponentially_then_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(0), Duration::from_micros(100));
        assert_eq!(p.backoff_for(1), Duration::from_micros(200));
        assert_eq!(p.backoff_for(4), Duration::from_micros(1600));
        assert_eq!(p.backoff_for(20), p.max_backoff);
        // Shift amounts far past u32::BITS must not panic or wrap.
        assert_eq!(p.backoff_for(u32::MAX), p.max_backoff);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy::default();
        for attempt in 0..32 {
            let d = p.backoff_for(attempt);
            let base = (p.initial_backoff * 1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(p.max_backoff);
            assert!(d >= base.mul_f64(1.0 - p.jitter), "attempt {attempt}");
            assert!(d <= base.mul_f64(1.0 + p.jitter), "attempt {attempt}");
            assert_eq!(d, p.backoff_for(attempt), "same (seed, attempt) replays");
        }
        let other = RetryPolicy {
            jitter_seed: 99,
            ..p
        };
        assert!(
            (0..32).any(|a| other.backoff_for(a) != p.backoff_for(a)),
            "different seeds must de-synchronize"
        );
    }

    #[test]
    fn none_policy_has_zero_budget() {
        let p = RetryPolicy::none();
        p.validate();
        assert_eq!(p.budget, Duration::ZERO);
    }

    #[test]
    fn backoff_shift_cap_prices_every_attempt_past_31_identically() {
        // A cap far above initial * 2^31 makes the shift clamp — not the
        // max_backoff clamp — the active boundary: attempt 31 reaches
        // 2^31 * initial exactly, and every later attempt (32, 33, the
        // extreme u32::MAX) prices identically with no overflow or wrap.
        let p = RetryPolicy {
            jitter: 0.0,
            initial_backoff: Duration::from_nanos(1),
            max_backoff: Duration::MAX,
            ..RetryPolicy::default()
        };
        p.validate();
        let capped = p.backoff_for(31);
        assert_eq!(capped, Duration::from_nanos(1u64 << 31));
        for attempt in [32u32, 33, 64, u32::MAX] {
            assert_eq!(p.backoff_for(attempt), capped, "attempt {attempt}");
        }
        // With jitter on, the same attempts stay bounded by the jitter
        // envelope around that capped base.
        let jittered = RetryPolicy {
            initial_backoff: Duration::from_nanos(1),
            max_backoff: Duration::MAX,
            ..RetryPolicy::default()
        };
        for attempt in [31u32, 32, u32::MAX] {
            let d = jittered.backoff_for(attempt);
            assert!(
                d >= capped.mul_f64(1.0 - jittered.jitter),
                "attempt {attempt}"
            );
            assert!(
                d <= capped.mul_f64(1.0 + jittered.jitter),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "jitter must be in")]
    fn invalid_jitter_is_rejected() {
        RetryPolicy {
            jitter: 1.5,
            ..RetryPolicy::default()
        }
        .validate();
    }
}
