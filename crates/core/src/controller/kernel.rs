//! The single home of the control-law arithmetic.
//!
//! Every step/length/reset implementation for the four laws lives here and
//! nowhere else: the scalar engines ([`crate::loopsim::DiscreteLoop`],
//! [`crate::event::EventLoop`], [`crate::dtmodel`]) and the batched SoA
//! engine ([`crate::batch::BatchLoop`]) all hold the same enum-dispatch
//! [`Controller`] and call the same four `step` bodies, so a change to the
//! recursion cannot fork the engines apart.
//!
//! [`Controller`] is a plain enum, not a trait object: dispatch is a match,
//! the value is `Clone`, and lanes of a batch can store it by value.

use super::IirConfig;
use crate::error::Error;

/// Bit indices handed to [`Controller::flip_state_bit`] are taken modulo
/// this span: wide enough that an upset can hit any plausible register
/// bit, narrow enough that the resulting state stays far from `i64`
/// overflow in the integer law's shift arithmetic.
const STATE_BIT_SPAN: u32 = 41;

/// Shift an `i64` by a signed power-of-two exponent (arithmetic shift right
/// for negative exponents — i.e. floor division, exactly what a hardware
/// shifter does). The integer-IIR step of the lane-block engine in
/// [`crate::batch`] reproduces this flooring inline and must stay
/// bit-identical to it.
#[inline]
pub(crate) fn shift(v: i64, exp: i32) -> i64 {
    if exp >= 0 {
        v << exp
    } else {
        v >> (-exp)
    }
}

/// The paper's integer IIR control block (Fig. 5).
///
/// State recursion (all quantities integers, gains implemented as shifts):
///
/// ```text
/// w[n+1] = k* · ( 2^kexp · δ[n] + Σᵢ kᵢ · w[n+1−i] )
/// l_RO[n+1] = w[n+1] / 2^kexp
/// ```
///
/// The internal state is initialized to `c · 2^kexp` so the filter starts at
/// the fixed point `l_RO = c` (no cold-start transient), matching how a real
/// implementation would be released from reset.
#[derive(Debug, Clone)]
pub struct IntIirControl {
    config: IirConfig,
    /// `w[n], w[n-1], …` most recent first, scaled by `2^kexp`.
    state: Vec<i64>,
    initial: i64,
}

impl IntIirControl {
    /// A control block with initial output `initial_length`.
    ///
    /// # Errors
    ///
    /// Propagates [`IirConfig::validate`] failures.
    pub fn new(config: IirConfig, initial_length: i64) -> Result<Self, Error> {
        config.validate()?;
        let w0 = initial_length << config.kexp_exp;
        let state = vec![w0; config.tap_exps.len()];
        Ok(IntIirControl {
            config,
            state,
            initial: w0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &IirConfig {
        &self.config
    }

    /// The filter state words, most recent first (`w[n], w[n−1], …`),
    /// scaled by `2^kexp`. Read by the lane-block engine when packing a
    /// lane into SoA block state.
    pub(crate) fn state(&self) -> &[i64] {
        &self.state
    }

    /// Mutable view of the state words, for the lane-block engine's
    /// write-back at the end of a batched run.
    pub(crate) fn state_mut(&mut self) -> &mut [i64] {
        &mut self.state
    }

    /// Consume `δ[n] = c − τ[n]`; return the (unclamped) `l_RO[n+1]`.
    pub fn step(&mut self, delta: f64) -> f64 {
        // δ is an integer in the real system; round defensively in case the
        // caller disabled TDC quantization.
        let x = delta.round() as i64;
        let mut acc = shift(x, self.config.kexp_exp as i32);
        for (w, &e) in self.state.iter().zip(&self.config.tap_exps) {
            acc += shift(*w, e);
        }
        let w_new = shift(acc, self.config.k_star_exp);
        self.state.rotate_right(1);
        self.state[0] = w_new;
        self.length()
    }

    /// The length that would be produced with no further error input.
    pub fn length(&self) -> f64 {
        shift(self.state[0], -(self.config.kexp_exp as i32)) as f64
    }

    /// Restore initial state.
    pub fn reset(&mut self) {
        for w in &mut self.state {
            *w = self.initial;
        }
    }

    /// Flip one bit of the most recent state word (an SEU strike on the
    /// filter register). The corruption persists until feedback washes it
    /// out.
    pub fn flip_state_bit(&mut self, bit: u32) {
        self.state[0] ^= 1i64 << (bit % STATE_BIT_SPAN);
    }

    /// Force the filter to the fixed point producing `length` (anti-windup
    /// write-back: a saturating output stage feeds the clamped value into
    /// every tap so the integrator cannot stay wound up beyond the clamp).
    pub fn set_length(&mut self, length: f64) {
        let w = shift(length.round() as i64, self.config.kexp_exp as i32);
        for s in &mut self.state {
            *s = w;
        }
    }
}

/// Exact floating-point IIR reference, same recursion as [`IntIirControl`]
/// without any quantization. Supports arbitrary (non-power-of-two)
/// coefficients for ablation studies.
#[derive(Debug, Clone)]
pub struct FloatIir {
    taps: Vec<f64>,
    k_star: f64,
    state: Vec<f64>,
    initial: f64,
}

impl FloatIir {
    /// Build from arbitrary tap gains and `k*`, starting at
    /// `initial_length`.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyTaps`] when no taps are given;
    /// [`Error::ConstraintViolation`] when `k*·Σkᵢ ≠ 1` beyond f64 rounding.
    pub fn new(taps: Vec<f64>, k_star: f64, initial_length: f64) -> Result<Self, Error> {
        if taps.is_empty() {
            return Err(Error::EmptyTaps);
        }
        let sum: f64 = taps.iter().sum();
        if (sum * k_star - 1.0).abs() > 1e-9 {
            return Err(Error::ConstraintViolation {
                gain_sum: sum,
                k_star_inv: 1.0 / k_star,
            });
        }
        let state = vec![initial_length; taps.len()];
        Ok(FloatIir {
            taps,
            k_star,
            state,
            initial: initial_length,
        })
    }

    /// Build from a power-of-two [`IirConfig`].
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn from_config(config: &IirConfig, initial_length: f64) -> Result<Self, Error> {
        config.validate()?;
        FloatIir::new(config.taps_f64(), config.k_star_f64(), initial_length)
    }

    /// The tap gains `[k₁, …, k_N]` (lane-block packing).
    pub(crate) fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// The loop gain `k*` (lane-block packing).
    pub(crate) fn k_star(&self) -> f64 {
        self.k_star
    }

    /// The filter state, most recent first (lane-block packing).
    pub(crate) fn state(&self) -> &[f64] {
        &self.state
    }

    /// Mutable state view for the lane-block engine's write-back.
    pub(crate) fn state_mut(&mut self) -> &mut [f64] {
        &mut self.state
    }

    /// Consume `δ[n] = c − τ[n]`; return the (unclamped) `l_RO[n+1]`.
    pub fn step(&mut self, delta: f64) -> f64 {
        let mut acc = delta;
        for (w, k) in self.state.iter().zip(&self.taps) {
            acc += w * k;
        }
        let w_new = acc * self.k_star;
        self.state.rotate_right(1);
        self.state[0] = w_new;
        w_new
    }

    /// The length that would be produced with no further error input.
    pub fn length(&self) -> f64 {
        self.state[0]
    }

    /// Restore initial state.
    pub fn reset(&mut self) {
        for w in &mut self.state {
            *w = self.initial;
        }
    }

    /// Flip one bit of the most recent state word, modeled on a fixed-point
    /// register with 8 fractional bits (mirroring the integer law's
    /// `kexp = 8` scaling).
    pub fn flip_state_bit(&mut self, bit: u32) {
        let word = (self.state[0] * 256.0).round() as i64;
        self.state[0] = (word ^ (1i64 << (bit % STATE_BIT_SPAN))) as f64 / 256.0;
    }

    /// Force the filter to the fixed point producing `length` (anti-windup
    /// write-back, as in [`IntIirControl::set_length`]).
    pub fn set_length(&mut self, length: f64) {
        for s in &mut self.state {
            *s = length;
        }
    }
}

/// TEAtime control block (paper Fig. 6, after Uht): the RO length moves by
/// one quantum per period in the direction of the error sign.
#[derive(Debug, Clone)]
pub struct TeaTime {
    length: f64,
    initial: f64,
    step_size: f64,
}

impl TeaTime {
    /// A TEAtime controller starting at `initial_length` with unit steps.
    pub fn new(initial_length: i64) -> Self {
        TeaTime {
            length: initial_length as f64,
            initial: initial_length as f64,
            step_size: 1.0,
        }
    }

    /// Override the per-period step quantum (the paper uses one stage).
    #[must_use]
    pub fn with_step_size(mut self, step_size: f64) -> Self {
        self.step_size = step_size;
        self
    }

    /// The per-period step quantum (lane-block packing).
    pub(crate) fn step_size(&self) -> f64 {
        self.step_size
    }

    /// Consume `δ[n] = c − τ[n]`; return the (unclamped) `l_RO[n+1]`.
    pub fn step(&mut self, delta: f64) -> f64 {
        if delta > 0.0 {
            self.length += self.step_size;
        } else if delta < 0.0 {
            self.length -= self.step_size;
        }
        self.length
    }

    /// The length that would be produced with no further error input.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Restore initial state.
    pub fn reset(&mut self) {
        self.length = self.initial;
    }

    /// Flip one bit of the length register (TEAtime's only state).
    pub fn flip_state_bit(&mut self, bit: u32) {
        let word = self.length.round() as i64;
        self.length = (word ^ (1i64 << (bit % STATE_BIT_SPAN))) as f64;
    }

    /// Overwrite the length register (anti-windup write-back).
    pub fn set_length(&mut self, length: f64) {
        self.length = length;
    }
}

/// Free-running RO: the length was fixed at design time and never moves.
#[derive(Debug, Clone, Copy)]
pub struct FreeRunning {
    length: f64,
}

impl FreeRunning {
    /// A free-running RO of the given length.
    pub fn new(length: i64) -> Self {
        FreeRunning {
            length: length as f64,
        }
    }

    /// Consume `δ[n] = c − τ[n]`; return the (unchanged) length.
    pub fn step(&mut self, _delta: f64) -> f64 {
        self.length
    }

    /// The length that would be produced with no further error input.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Restore initial state (a no-op: the length never moved).
    pub fn reset(&mut self) {}

    /// SEUs have nothing to strike: a free-running RO's length is wired at
    /// design time, not held in a register. No-op.
    pub fn flip_state_bit(&mut self, _bit: u32) {}

    /// The wired length cannot be rewritten at run time. No-op.
    pub fn set_length(&mut self, _length: f64) {}
}

/// A control block: maps the adaptation error to the next RO length.
///
/// One enum covers the four laws of the paper so every engine — scalar or
/// batched — dispatches into the same arithmetic with a plain `match`
/// (no trait objects, no boxing, `Clone` by value).
#[derive(Debug, Clone)]
pub enum Controller {
    /// The integer IIR control block of Fig. 5 / Eq. (9).
    IntIir(IntIirControl),
    /// The exact floating-point IIR reference.
    FloatIir(FloatIir),
    /// The sign-increment TEAtime controller of Fig. 6.
    TeaTime(TeaTime),
    /// A free-running (constant-length) RO.
    Free(FreeRunning),
}

impl Controller {
    /// An integer-IIR controller lane (paper Fig. 5) from a config.
    ///
    /// # Errors
    ///
    /// Propagates [`IirConfig::validate`] failures.
    pub fn int_iir(config: &IirConfig, initial_length: i64) -> Result<Self, Error> {
        Ok(Controller::IntIir(IntIirControl::new(
            config.clone(),
            initial_length,
        )?))
    }

    /// A float-IIR controller lane from a config.
    ///
    /// # Errors
    ///
    /// Propagates [`IirConfig::validate`] failures.
    pub fn float_iir(config: &IirConfig, initial_length: f64) -> Result<Self, Error> {
        Ok(Controller::FloatIir(FloatIir::from_config(
            config,
            initial_length,
        )?))
    }

    /// A TEAtime controller with an explicit step quantum.
    pub fn teatime(initial_length: i64, step_size: f64) -> Self {
        Controller::TeaTime(TeaTime::new(initial_length).with_step_size(step_size))
    }

    /// A free-running (constant-length) lane.
    pub fn free(length: i64) -> Self {
        Controller::Free(FreeRunning::new(length))
    }

    /// Consume `δ[n] = c − τ[n]`; return the (unclamped) `l_RO[n+1]`.
    pub fn step(&mut self, delta: f64) -> f64 {
        match self {
            Controller::IntIir(c) => c.step(delta),
            Controller::FloatIir(c) => c.step(delta),
            Controller::TeaTime(c) => c.step(delta),
            Controller::Free(c) => c.step(delta),
        }
    }

    /// The length that would be produced with no further error input.
    pub fn length(&self) -> f64 {
        match self {
            Controller::IntIir(c) => c.length(),
            Controller::FloatIir(c) => c.length(),
            Controller::TeaTime(c) => c.length(),
            Controller::Free(c) => c.length(),
        }
    }

    /// Restore initial state.
    pub fn reset(&mut self) {
        match self {
            Controller::IntIir(c) => c.reset(),
            Controller::FloatIir(c) => c.reset(),
            Controller::TeaTime(c) => c.reset(),
            Controller::Free(c) => c.reset(),
        }
    }

    /// Strike an SEU: flip one bit of the law's state register (a no-op
    /// for the stateless free-running law). Bit indices wrap modulo the
    /// modeled register span, so any `u32` is safe.
    pub fn flip_state_bit(&mut self, bit: u32) {
        match self {
            Controller::IntIir(c) => c.flip_state_bit(bit),
            Controller::FloatIir(c) => c.flip_state_bit(bit),
            Controller::TeaTime(c) => c.flip_state_bit(bit),
            Controller::Free(c) => c.flip_state_bit(bit),
        }
    }

    /// Force the law's state to the fixed point producing `length`
    /// (anti-windup write-back after a saturating output stage; a no-op
    /// for the wired free-running law).
    pub fn set_length(&mut self, length: f64) {
        match self {
            Controller::IntIir(c) => c.set_length(length),
            Controller::FloatIir(c) => c.set_length(length),
            Controller::TeaTime(c) => c.set_length(length),
            Controller::Free(c) => c.set_length(length),
        }
    }
}

impl From<IntIirControl> for Controller {
    fn from(c: IntIirControl) -> Self {
        Controller::IntIir(c)
    }
}

impl From<FloatIir> for Controller {
    fn from(c: FloatIir) -> Self {
        Controller::FloatIir(c)
    }
}

impl From<TeaTime> for Controller {
    fn from(c: TeaTime) -> Self {
        Controller::TeaTime(c)
    }
}

impl From<FreeRunning> for Controller {
    fn from(c: FreeRunning) -> Self {
        Controller::Free(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn int_iir_holds_fixed_point_with_zero_error() {
        let mut c = IntIirControl::new(IirConfig::paper(), 64).unwrap();
        assert_eq!(c.length(), 64.0);
        for _ in 0..100 {
            assert_eq!(c.step(0.0), 64.0);
        }
    }

    #[test]
    fn int_iir_integrates_constant_error() {
        // a persistent positive error (period too short) must keep raising
        // the length until... forever (the loop closes it in practice).
        let mut c = IntIirControl::new(IirConfig::paper(), 64).unwrap();
        let mut prev = 64.0;
        let mut grew = 0;
        for _ in 0..50 {
            let l = c.step(4.0);
            if l > prev {
                grew += 1;
            }
            prev = l;
        }
        assert!(grew > 10, "integrator must ramp, grew {grew} times");
        assert!(prev > 80.0, "after 50 steps of δ=4, length is {prev}");
    }

    #[test]
    fn int_iir_reset_restores_initial() {
        let mut c = IntIirControl::new(IirConfig::paper(), 64).unwrap();
        for _ in 0..10 {
            c.step(3.0);
        }
        assert_ne!(c.length(), 64.0);
        c.reset();
        assert_eq!(c.length(), 64.0);
        assert_eq!(c.step(0.0), 64.0);
    }

    #[test]
    fn float_iir_matches_transfer_function_impulse() {
        // Feed an impulse through the float filter; compare against the
        // z-domain impulse response of Eq. (9).
        let cfg = IirConfig::paper();
        let mut f = FloatIir::from_config(&cfg, 0.0).unwrap();
        let h = cfg.transfer_function();
        let want = h.impulse_response(40);
        let mut got = vec![0.0]; // y[0] = 0 (H has z^-1 factor)
        got.push(f.step(1.0));
        for _ in 2..40 {
            got.push(f.step(0.0));
        }
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9, "k={k}: {g} vs {w}");
        }
    }

    #[test]
    fn float_iir_rejects_eq10_violation() {
        assert!(matches!(
            FloatIir::new(vec![1.0, 1.0], 1.0, 0.0),
            Err(Error::ConstraintViolation { .. })
        ));
        assert!(FloatIir::new(vec![1.0, 1.0], 0.5, 0.0).is_ok());
    }

    #[test]
    fn teatime_moves_by_sign() {
        let mut t = TeaTime::new(64);
        assert_eq!(t.step(5.0), 65.0);
        assert_eq!(t.step(0.1), 66.0);
        assert_eq!(t.step(0.0), 66.0);
        assert_eq!(t.step(-3.0), 65.0);
        t.reset();
        assert_eq!(t.length(), 64.0);
    }

    #[test]
    fn teatime_custom_step() {
        let mut t = TeaTime::new(64).with_step_size(0.5);
        assert_eq!(t.step(1.0), 64.5);
        assert_eq!(t.step(-1.0), 64.0);
    }

    #[test]
    fn free_running_never_moves() {
        let mut f = FreeRunning::new(70);
        assert_eq!(f.step(100.0), 70.0);
        assert_eq!(f.step(-100.0), 70.0);
        assert_eq!(f.length(), 70.0);
    }

    #[test]
    fn flip_state_bit_strikes_every_stateful_law() {
        let mut c = Controller::int_iir(&IirConfig::paper(), 64).unwrap();
        c.flip_state_bit(12); // a 0→1 flip raises the scaled state word
        assert!(c.length() > 64.0);
        c.flip_state_bit(12); // flipping back restores exactly
        assert_eq!(c.length(), 64.0);

        let mut f = Controller::float_iir(&IirConfig::paper(), 64.0).unwrap();
        f.flip_state_bit(12);
        assert_eq!(f.length(), 64.0 + 16.0);

        let mut t = Controller::teatime(64, 1.0);
        t.flip_state_bit(3);
        assert_eq!(t.length(), (64 ^ 8) as f64);

        let mut free = Controller::free(64);
        free.flip_state_bit(30);
        assert_eq!(free.length(), 64.0, "free-running has no register");

        // indices wrap modulo the modeled span instead of panicking
        let mut c = Controller::int_iir(&IirConfig::paper(), 64).unwrap();
        c.flip_state_bit(u32::MAX);
        assert!(c.length().is_finite());
    }

    #[test]
    fn shift_is_floor_division() {
        assert_eq!(shift(5, 1), 10);
        assert_eq!(shift(5, -1), 2);
        assert_eq!(shift(-5, -1), -3); // arithmetic shift floors
        assert_eq!(shift(7, 0), 7);
    }

    #[test]
    fn enum_dispatch_matches_inner_law() {
        // The enum wrapper must be a pure forwarder: same deltas, same
        // lengths, bit for bit, for each of the four laws.
        let cfg = IirConfig::paper();
        let deltas = [3.0, -2.0, 0.0, 7.0, -7.0, 1.0];
        let cases: Vec<(Controller, Controller)> = vec![
            (
                Controller::int_iir(&cfg, 64).unwrap(),
                IntIirControl::new(cfg.clone(), 64).unwrap().into(),
            ),
            (
                Controller::float_iir(&cfg, 64.0).unwrap(),
                FloatIir::from_config(&cfg, 64.0).unwrap().into(),
            ),
            (
                Controller::teatime(64, 0.5),
                TeaTime::new(64).with_step_size(0.5).into(),
            ),
            (Controller::free(70), FreeRunning::new(70).into()),
        ];
        for (mut a, mut b) in cases {
            assert_eq!(a.length().to_bits(), b.length().to_bits());
            for &d in &deltas {
                assert_eq!(a.step(d).to_bits(), b.step(d).to_bits());
            }
            a.reset();
            b.reset();
            assert_eq!(a.length().to_bits(), b.length().to_bits());
        }
    }

    proptest! {
        /// The integer block tracks the float reference within a small
        /// rounding bound when driven by the same integer error sequence.
        #[test]
        fn int_iir_close_to_float_reference(
            deltas in proptest::collection::vec(-8i64..8, 1..200),
        ) {
            let cfg = IirConfig::paper();
            let mut int_c = IntIirControl::new(cfg.clone(), 64).unwrap();
            let mut flt_c = FloatIir::from_config(&cfg, 64.0).unwrap();
            for (n, &d) in deltas.iter().enumerate() {
                let li = int_c.step(d as f64);
                let lf = flt_c.step(d as f64);
                // Arithmetic shifts floor toward −∞, and the filter's
                // integrator (unity DC feedback) lets that bias accumulate
                // when driven OPEN loop by an arbitrary error sequence.
                // kexp = 8 makes the per-step bias well under one output
                // LSB; empirically ≈ 0.07 stages/step. Allow 2 stages of
                // slack plus twice the empirical drift rate. (Closed-loop
                // accuracy — where feedback absorbs the bias — is asserted
                // by the loopsim/system tests.)
                let bound = 2.0 + 0.15 * (n as f64 + 1.0);
                prop_assert!(
                    (li - lf).abs() <= bound,
                    "step {n}: int {li} vs float {lf} (bound {bound})"
                );
            }
        }

        /// With the paper gains, a bounded error sequence cannot make the
        /// filter state overflow or go wild (BIBO within the horizon).
        #[test]
        fn int_iir_bounded_for_bounded_input(
            deltas in proptest::collection::vec(-16i64..16, 1..500),
        ) {
            let mut c = IntIirControl::new(IirConfig::paper(), 64).unwrap();
            for &d in &deltas {
                let l = c.step(d as f64);
                prop_assert!(l.abs() < 1e7, "length exploded: {l}");
            }
        }
    }
}
