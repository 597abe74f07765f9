//! Pace correction: every timed operation is bracketed by windows of
//! the frozen [`RefSolve`], and a timing is reported as
//!
//! ```text
//!   Σ_rounds raw seconds ÷ Σ_rounds bracket seconds × REF_NOMINAL_S
//! ```
//!
//! where a round's bracket is the mean of the window before and the
//! window after the operation — "seconds on the nominal host". The sums
//! run over all rounds (a ratio of sums, not a median of ratios): a
//! round in which a neighbour slowed the host contributes more to both
//! sums and cancels, instead of being one outlier among the ratios.

use crate::reference::{RefSolve, REF_CHECKSUM, REF_NOMINAL_S};
use crate::util::quantile;

/// Owns the reference problem and the log of every window run.
pub struct Pacer {
    refsolve: RefSolve,
    windows: Vec<f64>,
    /// Whether every window reproduced the pinned checksum.
    pub checksum_ok: bool,
}

impl Pacer {
    pub fn new() -> Self {
        Pacer { refsolve: RefSolve::new(), windows: Vec::new(), checksum_ok: true }
    }

    /// Runs one reference window and returns its seconds.
    pub fn window(&mut self) -> f64 {
        let (secs, sum) = self.refsolve.window();
        self.checksum_ok &= sum == REF_CHECKSUM;
        self.windows.push(secs);
        secs
    }

    /// Runs `op` between two windows; `before` is the window that
    /// closed the previous bracket (windows are shared by neighbours).
    /// Returns `(op's value, raw seconds, bracket seconds, closing window)`.
    pub fn bracket<T>(
        &mut self,
        before: f64,
        op: impl FnOnce() -> T,
    ) -> (T, f64, f64, f64) {
        let t = std::time::Instant::now();
        let out = op();
        let raw = t.elapsed().as_secs_f64();
        let after = self.window();
        (out, raw, 0.5 * (before + after), after)
    }

    /// MiB of matrix one reference pass streams (computed).
    pub fn matrix_mib(&self) -> f64 {
        self.refsolve.matrix_bytes() as f64 / (1u64 << 20) as f64
    }

    /// Windows run so far.
    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    /// Seconds spent in reference windows so far.
    pub fn total(&self) -> f64 {
        self.windows.iter().sum()
    }

    /// Mean window ÷ nominal: how much slower than the nominal host
    /// this run went.
    pub fn pace(&self) -> f64 {
        if self.windows.is_empty() {
            return 1.0;
        }
        self.total() / self.windows.len() as f64 / REF_NOMINAL_S
    }

    /// p90 ÷ p10 of the windows: how unsteady the host was.
    pub fn spread(&self) -> f64 {
        let mut w = self.windows.clone();
        let p10 = quantile(&mut w, 0.1);
        if p10 > 0.0 {
            quantile(&mut w, 0.9) / p10
        } else {
            1.0
        }
    }
}

/// Raw and bracket seconds of one timed quantity, one entry per round.
#[derive(Clone, Debug, Default)]
pub struct Series {
    raw: Vec<f64>,
    bracket: Vec<f64>,
}

impl Series {
    pub fn push(&mut self, raw: f64, bracket: f64) {
        self.raw.push(raw);
        self.bracket.push(bracket);
    }

    /// Pace-corrected seconds per round on the nominal host.
    pub fn corrected(&self) -> f64 {
        let b: f64 = self.bracket.iter().sum();
        if b > 0.0 {
            self.raw.iter().sum::<f64>() / b * REF_NOMINAL_S
        } else {
            0.0
        }
    }

    /// Uncorrected mean seconds per round.
    pub fn raw_mean(&self) -> f64 {
        if self.raw.is_empty() {
            0.0
        } else {
            self.raw.iter().sum::<f64>() / self.raw.len() as f64
        }
    }

    /// `corrected()` or `raw_mean()`.
    pub fn secs(&self, corrected: bool) -> f64 {
        if corrected {
            self.corrected()
        } else {
            self.raw_mean()
        }
    }

    /// The rounds with index `i % modulus == residue`, used by traced
    /// runs that alternate modes between rounds.
    pub fn every(&self, modulus: usize, residue: usize) -> Series {
        let pick = |v: &[f64]| {
            v.iter()
                .enumerate()
                .filter(|(i, _)| i % modulus == residue)
                .map(|(_, x)| *x)
                .collect()
        };
        Series { raw: pick(&self.raw), bracket: pick(&self.bracket) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniformly_slower_host_cancels() {
        let (mut quiet, mut slow) = (Series::default(), Series::default());
        for _ in 0..5 {
            quiet.push(0.2, REF_NOMINAL_S);
            slow.push(0.3, 1.5 * REF_NOMINAL_S);
        }
        assert!((quiet.corrected() - 0.2).abs() < 1e-12);
        assert!((slow.corrected() - 0.2).abs() < 1e-12);
        assert!((slow.raw_mean() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn one_slow_round_cancels_in_the_ratio_of_sums() {
        let mut s = Series::default();
        for _ in 0..9 {
            s.push(0.2, REF_NOMINAL_S);
        }
        s.push(0.4, 2.0 * REF_NOMINAL_S);
        assert!((s.corrected() - 0.2).abs() < 1e-12);
    }
}
