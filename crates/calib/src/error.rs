//! Accuracy/discrepancy measures between metric vectors.
//!
//! The case study's objective is the **Mean Relative Error** in percent over
//! 33 metrics ([`mre_percent`]); Figure 2 plots the **mean absolute error**
//! ([`mae`]). The others are provided for user-defined objectives.

use crate::objective::cap_reached;

fn check(sim: &[f64], truth: &[f64]) {
    assert_eq!(sim.len(), truth.len(), "metric vectors differ in length");
    assert!(!sim.is_empty(), "empty metric vectors");
}

/// A mean of non-negative terms, `scale * Σ terms / n`, with the terms
/// folded left to right into one running sum.
///
/// Every discrepancy the case study reports is one of these, and each is
/// computed by this fold, so a capped evaluation and a finished one share
/// their arithmetic. [`MeanFold::value`] after any prefix of the terms is a
/// lower bound on the finished value, bit for bit: adding a non-negative
/// term never decreases a round-to-nearest sum, and `*` and `/` by the
/// positive `scale` and `n` are monotone.
#[derive(Debug, Clone, Copy)]
pub struct MeanFold {
    scale: f64,
    n: f64,
    sum: f64,
}

impl MeanFold {
    /// An empty fold of a mean over `n` terms.
    pub fn new(scale: f64, n: usize) -> Self {
        Self { scale, n: n as f64, sum: 0.0 }
    }

    /// Fold in the next term.
    pub fn add(&mut self, term: f64) {
        self.sum += term;
    }

    /// The mean as if `partial` were folded in next: `scale * (Σ + partial)
    /// / n`, without changing the fold.
    pub fn value_with(&self, partial: f64) -> f64 {
        self.scale * (self.sum + partial) / self.n
    }

    /// The mean over the terms folded so far: the finished value once all
    /// `n` are in, and a lower bound on it before.
    pub fn value(&self) -> f64 {
        self.scale * self.sum / self.n
    }

    /// Fold `blocks` of terms in order — one block per simulation, say —
    /// and after each block but the last, stop once `bound(self)` reaches
    /// `cap` ([`cap_reached`]). Blocks after that one are never drawn from
    /// the iterator, so their work is skipped.
    ///
    /// Returns the bound that reached the cap, or `None` once every block
    /// is folded (and [`MeanFold::value`] is the finished value).
    pub fn fold_capped<B: IntoIterator<Item = f64>>(
        &mut self,
        blocks: impl ExactSizeIterator<Item = B>,
        cap: f64,
        bound: impl Fn(&Self) -> f64,
    ) -> Option<f64> {
        let last = blocks.len().saturating_sub(1);
        for (i, block) in blocks.enumerate() {
            block.into_iter().for_each(|term| self.add(term));
            if i < last && cap_reached(bound(self), cap) {
                return Some(bound(self));
            }
        }
        None
    }
}

/// The relative error `|sim - truth| / |truth|` of one position.
pub fn relative_error(sim: f64, truth: f64) -> f64 {
    assert!(truth != 0.0, "relative error undefined for zero truth");
    (sim - truth).abs() / truth.abs()
}

/// Mean Relative Error in percent: `100/n * sum |sim_i - truth_i| / truth_i`.
pub fn mre_percent(sim: &[f64], truth: &[f64]) -> f64 {
    check(sim, truth);
    let mut fold = MeanFold::new(100.0, sim.len());
    sim.iter().zip(truth).for_each(|(&s, &t)| fold.add(relative_error(s, t)));
    fold.value()
}

/// Mean Absolute Percentage Error — synonym of [`mre_percent`] kept for
/// readers used to the MAPE name.
pub fn mape(sim: &[f64], truth: &[f64]) -> f64 {
    mre_percent(sim, truth)
}

/// Mean absolute error in metric units.
pub fn mae(sim: &[f64], truth: &[f64]) -> f64 {
    check(sim, truth);
    let mut fold = MeanFold::new(1.0, sim.len());
    sim.iter().zip(truth).for_each(|(&s, &t)| fold.add((s - t).abs()));
    fold.value()
}

/// Root mean squared error in metric units.
pub fn rmse(sim: &[f64], truth: &[f64]) -> f64 {
    check(sim, truth);
    (sim.iter().zip(truth).map(|(&s, &t)| (s - t) * (s - t)).sum::<f64>() / sim.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mre_is_percentage() {
        // 10% and 30% off -> mean 20%.
        assert!((mre_percent(&[110.0, 70.0], &[100.0, 100.0]) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_match_is_zero() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(mre_percent(&v, &v), 0.0);
        assert_eq!(mae(&v, &v), 0.0);
        assert_eq!(rmse(&v, &v), 0.0);
    }

    #[test]
    fn mae_and_rmse() {
        let s = [1.0, 5.0];
        let t = [2.0, 2.0];
        assert!((mae(&s, &t) - 2.0).abs() < 1e-12);
        assert!((rmse(&s, &t) - (5.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mape_is_alias() {
        let s = [110.0];
        let t = [100.0];
        assert_eq!(mre_percent(&s, &t), mape(&s, &t));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn length_mismatch_rejected() {
        mre_percent(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "zero truth")]
    fn zero_truth_rejected() {
        mre_percent(&[1.0], &[0.0]);
    }
}
