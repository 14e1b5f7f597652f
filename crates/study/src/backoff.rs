//! Capped exponential backoff with seeded jitter.
//!
//! Every polling and retry loop in the distributed sweep machinery —
//! the coordinator's settle loop, the TCP worker's reconnect dialer, the
//! monitor threads — shares this one helper instead of hand-rolled fixed
//! sleeps. The delay for attempt *n* is `min(cap, base · 2ⁿ)` scaled by a
//! uniform jitter in `[0.5, 1.0)`, so colliding workers decorrelate, and
//! the jitter stream is seeded so tests (and fault-injection schedules)
//! replay bit-identically.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded capped-exponential-backoff delay generator.
///
/// [`next_delay`](Backoff::next_delay) yields the next jittered delay and
/// advances the attempt counter; [`reset`](Backoff::reset) snaps back to
/// the base delay on progress (e.g. a frame arrived, a result landed).
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: StdRng,
}

impl Backoff {
    /// A generator starting at `base`, doubling per attempt, never
    /// exceeding `cap` (pre-jitter). `seed` fixes the jitter stream.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Self {
            base: base.max(Duration::from_micros(1)),
            cap,
            attempt: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Attempts since the last [`reset`](Backoff::reset).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The next delay: `min(cap, base · 2^attempt) · (0.5 + 0.5·u)` with
    /// `u` uniform in `[0, 1)`. Advances the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.base.as_secs_f64() * 2f64.powi(self.attempt.min(62) as i32);
        let capped = exp.min(self.cap.as_secs_f64());
        let jitter = 0.5 + 0.5 * self.rng.random::<f64>();
        self.attempt = self.attempt.saturating_add(1);
        Duration::from_secs_f64(capped * jitter)
    }

    /// Snap back to the base delay (call on progress).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Sleep for [`next_delay`](Backoff::next_delay).
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_to_the_cap_and_jitter_stays_in_range() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut b = Backoff::new(base, cap, 42);
        for attempt in 0..12u32 {
            let envelope = (base.as_secs_f64() * 2f64.powi(attempt as i32)).min(cap.as_secs_f64());
            let d = b.next_delay().as_secs_f64();
            assert!(
                (0.5 * envelope..envelope).contains(&d),
                "attempt {attempt}: {d} outside [{}, {})",
                0.5 * envelope,
                envelope
            );
        }
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let mk = || Backoff::new(Duration::from_millis(5), Duration::from_secs(1), 7);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..32 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
        // Different seeds decorrelate (with overwhelming probability).
        let mut c = Backoff::new(Duration::from_millis(5), Duration::from_secs(1), 8);
        let mut d = mk();
        assert!((0..32).any(|_| c.next_delay() != d.next_delay()));
    }

    #[test]
    fn reset_returns_to_the_base_envelope() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_secs(10), 1);
        for _ in 0..8 {
            b.next_delay();
        }
        assert_eq!(b.attempt(), 8);
        b.reset();
        assert_eq!(b.attempt(), 0);
        assert!(b.next_delay() < Duration::from_millis(10));
    }

    #[test]
    fn extreme_attempts_do_not_overflow() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_secs(30), 3);
        for _ in 0..10_000 {
            let d = b.next_delay();
            assert!(d <= Duration::from_secs(30));
        }
    }
}
