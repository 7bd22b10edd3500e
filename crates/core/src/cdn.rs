//! Clock distribution network (CDN) model.
//!
//! The CDN imposes a fixed *time* delay `t_clk` (stage units) between the
//! generated and the delivered clock. In the discrete per-period view this
//! is a delay of `M[n] = t_clk / T_clk[n]` periods — the quantity the paper
//! identifies as the key limiter of adaptive clocking (its Eq. 1–3 and
//! Fig. 2): the delivered period is adapted to the variations of `t_clk`
//! *ago*, not of now.

use serde::{Deserialize, Serialize};

use crate::error::Error;

/// A clock distribution network with a fixed propagation delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cdn {
    t_clk: f64,
}

impl Cdn {
    /// A CDN with propagation delay `t_clk` in stage units.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCdnDelay`] unless `t_clk` is finite and
    /// non-negative.
    pub fn new(t_clk: f64) -> Result<Self, Error> {
        if !t_clk.is_finite() || t_clk < 0.0 {
            return Err(Error::InvalidCdnDelay { value: t_clk });
        }
        Ok(Cdn { t_clk })
    }

    /// The propagation delay in stage units.
    pub fn delay(&self) -> f64 {
        self.t_clk
    }

    /// When a clock edge generated at `t` reaches the leaves.
    pub fn delivery_time(&self, t: f64) -> f64 {
        t + self.t_clk
    }

    /// The nearest whole-period delay at the given period, `M = t_clk /
    /// T_clk` (the paper's Fig. 4 caption) rounded to nearest, as used by
    /// the fixed-`M` discrete loop.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not strictly positive.
    pub fn whole_periods_at(&self, period: f64) -> usize {
        assert!(period > 0.0, "clock period must be positive");
        (self.t_clk / period).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_delays() {
        assert!(Cdn::new(-1.0).is_err());
        assert!(Cdn::new(f64::NAN).is_err());
        assert!(Cdn::new(f64::INFINITY).is_err());
        assert!(Cdn::new(0.0).is_ok());
    }

    #[test]
    fn delivery_shifts_time() {
        let cdn = Cdn::new(64.0).unwrap();
        assert_eq!(cdn.delivery_time(100.0), 164.0);
        assert_eq!(cdn.delay(), 64.0);
    }

    #[test]
    fn period_conversion() {
        let cdn = Cdn::new(64.0).unwrap();
        assert_eq!(cdn.whole_periods_at(64.0), 1);
        assert_eq!(cdn.whole_periods_at(32.0), 2);
        assert_eq!(cdn.whole_periods_at(48.0), 1);
        assert_eq!(cdn.whole_periods_at(20.0), 3);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = Cdn::new(64.0).unwrap().whole_periods_at(0.0);
    }

    /// A zero-delay CDN is a legal degenerate link: edges arrive the
    /// instant they are generated and the discrete delay is `M = 0` at
    /// every period — the mesh uses this for abutting domains.
    #[test]
    fn zero_delay_link_is_immediate() {
        let cdn = Cdn::new(0.0).unwrap();
        assert_eq!(cdn.delay(), 0.0);
        assert_eq!(cdn.delivery_time(123.5), 123.5);
        assert_eq!(cdn.whole_periods_at(64.0), 0);
        assert_eq!(cdn.whole_periods_at(1.0), 0);
    }

    /// Forward and reverse directions of a boundary are independent CDNs:
    /// nothing forces them symmetric, and each converts to periods on its
    /// own (the mesh models asymmetric boundaries as two directed links).
    #[test]
    fn asymmetric_directions_stay_independent() {
        let fwd = Cdn::new(96.0).unwrap();
        let rev = Cdn::new(32.0).unwrap();
        assert_ne!(fwd, rev);
        assert_eq!(fwd.whole_periods_at(64.0), 2);
        assert_eq!(rev.whole_periods_at(64.0), 1);
        // Round-trip skew is the sum of the directed delays.
        assert_eq!(rev.delivery_time(fwd.delivery_time(0.0)), 128.0);
    }

    /// `whole_periods_at` rounds to nearest — the half-period boundary
    /// rounds up, just below it rounds down.
    #[test]
    fn whole_periods_round_to_nearest() {
        let cdn = Cdn::new(96.0).unwrap();
        assert_eq!(cdn.whole_periods_at(64.0), 2); // 1.5 rounds up
        assert_eq!(cdn.whole_periods_at(65.0), 1); // ~1.477 rounds down
        assert_eq!(Cdn::new(31.0).unwrap().whole_periods_at(64.0), 0);
    }
}
