//! The shared monotonic clock.
//!
//! Spans, duration metrics, and `mm-guard`'s wall-clock budget metering
//! all read time through this module, so "elapsed" means the same thing
//! to a span as it does to the budget that cancels the operation the
//! span measures. A single chokepoint also keeps direct `Instant::now()`
//! calls out of hot paths — there is exactly one place to audit.

use std::time::{Duration, Instant};

/// One reading of the monotonic clock.
#[inline]
pub fn now() -> Instant {
    Instant::now()
}

/// Microseconds elapsed since `since`, saturating at `u64::MAX`.
#[inline]
pub fn elapsed_us(since: Instant) -> u64 {
    duration_us(now().saturating_duration_since(since))
}

/// A [`Duration`] as whole microseconds, saturating at `u64::MAX`.
#[inline]
pub(crate) fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_and_nonnegative() {
        let a = now();
        let b = now();
        assert!(b >= a);
        assert!(elapsed_us(a) < 60_000_000, "a fresh reading is not an hour old");
    }

    #[test]
    fn duration_conversion_saturates() {
        assert_eq!(duration_us(Duration::from_micros(5)), 5);
        assert_eq!(duration_us(Duration::MAX), u64::MAX);
    }
}
