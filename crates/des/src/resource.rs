//! Resource descriptions: capacity models and specs.

/// How a resource's effective capacity depends on its load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityModel {
    /// Fixed capacity regardless of the number of concurrent flows.
    Constant(f64),
    /// Contention-degrading capacity: with `n` concurrent flows the
    /// aggregate effective capacity is `base * n / (n + alpha * (n - 1))`.
    ///
    /// With `n = 1` this is exactly `base`; as `n` grows the aggregate
    /// tends to `base / (1 + alpha)`. This models rotating-disk seek
    /// overhead under concurrent readers — the effect the paper notes the
    /// calibrated simulator does *not* model ("HDD effects (e.g., seek
    /// times) are not modeled by the simulator"), which is why it belongs
    /// to the ground-truth emulator only.
    Degrading {
        /// Capacity seen by a single flow.
        base: f64,
        /// Contention coefficient (0 = no degradation).
        alpha: f64,
    },
}

impl CapacityModel {
    /// Effective aggregate capacity with `n_flows` concurrent flows.
    #[inline]
    pub fn effective(&self, n_flows: usize) -> f64 {
        match *self {
            CapacityModel::Constant(c) => c,
            CapacityModel::Degrading { base, alpha } => {
                if n_flows <= 1 {
                    base
                } else {
                    let n = n_flows as f64;
                    base * n / (n + alpha * (n - 1.0))
                }
            }
        }
    }

    /// The nominal (uncontended) capacity.
    #[inline]
    pub fn nominal(&self) -> f64 {
        match *self {
            CapacityModel::Constant(c) => c,
            CapacityModel::Degrading { base, .. } => base,
        }
    }
}

/// Specification of a resource to register with the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSpec {
    /// Capacity model (bytes/s or flop/s — units are the caller's concern).
    pub capacity: CapacityModel,
}

impl ResourceSpec {
    /// A constant-capacity resource.
    pub fn constant(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be positive and finite, got {capacity}"
        );
        Self { capacity: CapacityModel::Constant(capacity) }
    }

    /// A contention-degrading resource (see [`CapacityModel::Degrading`]).
    pub fn degrading(base: f64, alpha: f64) -> Self {
        assert!(base.is_finite() && base > 0.0, "base capacity must be positive");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "contention coefficient must be non-negative and finite, got {alpha}"
        );
        Self { capacity: CapacityModel::Degrading { base, alpha } }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_capacity_ignores_load() {
        let m = CapacityModel::Constant(100.0);
        assert_eq!(m.effective(1), 100.0);
        assert_eq!(m.effective(64), 100.0);
    }

    #[test]
    fn degrading_capacity_matches_formula() {
        let m = CapacityModel::Degrading { base: 20.0, alpha: 0.25 };
        assert_eq!(m.effective(1), 20.0);
        // n=2: 20 * 2 / (2 + 0.25) = 17.77..
        assert!((m.effective(2) - 20.0 * 2.0 / 2.25).abs() < 1e-12);
        // Asymptote: base / (1 + alpha) = 16.
        assert!((m.effective(10_000) - 16.0).abs() < 0.01);
    }

    #[test]
    fn degrading_is_monotone_decreasing_in_load() {
        let m = CapacityModel::Degrading { base: 20.0, alpha: 0.3 };
        let mut prev = f64::INFINITY;
        for n in 1..50 {
            let c = m.effective(n);
            assert!(c <= prev + 1e-12, "capacity increased at n={n}");
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = ResourceSpec::constant(0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_contention_coefficient_rejected() {
        // It would make the effective capacity exactly 0 at n >= 2.
        let _ = ResourceSpec::degrading(20.0, f64::INFINITY);
    }

    #[test]
    fn nominal_reports_base() {
        assert_eq!(ResourceSpec::degrading(20.0, 0.5).capacity.nominal(), 20.0);
        assert_eq!(ResourceSpec::constant(7.0).capacity.nominal(), 7.0);
    }
}
