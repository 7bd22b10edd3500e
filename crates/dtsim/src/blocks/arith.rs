//! Arithmetic and algebraic blocks (all direct feedthrough).

use crate::block::{Block, StepContext};

/// Multiplies its input by a constant gain.
#[derive(Debug, Clone)]
pub struct Gain {
    name: String,
    gain: f64,
}

impl Gain {
    /// `y = gain * u`.
    pub fn new(name: impl Into<String>, gain: f64) -> Self {
        Gain {
            name: name.into(),
            gain,
        }
    }
}

impl Block for Gain {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.gain * inputs[0];
    }
}

/// Signed sum of N inputs, Simulink style.
///
/// The sign pattern is given as a string of `+` and `-` characters, one per
/// input port: `Sum::new("s", "+-")` computes `u0 - u1`.
#[derive(Debug, Clone)]
pub struct Sum {
    name: String,
    signs: Vec<f64>,
}

impl Sum {
    /// A sum block with one input per character of `signs`.
    ///
    /// # Panics
    ///
    /// Panics if `signs` is empty or contains characters other than `+`/`-`.
    pub fn new(name: impl Into<String>, signs: &str) -> Self {
        assert!(!signs.is_empty(), "sum needs at least one input");
        let signs = signs
            .chars()
            .map(|c| match c {
                '+' => 1.0,
                '-' => -1.0,
                other => panic!("invalid sign character {other:?}, expected + or -"),
            })
            .collect();
        Sum {
            name: name.into(),
            signs,
        }
    }
}

impl Block for Sum {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        self.signs.len()
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = inputs
            .iter()
            .zip(&self.signs)
            .map(|(u, s)| u * s)
            .sum::<f64>();
    }
}

/// Product of N inputs.
#[derive(Debug, Clone)]
pub struct Product {
    name: String,
    n: usize,
}

impl Product {
    /// A product block over `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        assert!(n > 0, "product needs at least one input");
        Product {
            name: name.into(),
            n,
        }
    }
}

impl Block for Product {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        self.n
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = inputs.iter().product();
    }
}

/// Negation: `y = -u`.
#[derive(Debug, Clone)]
pub struct Negate {
    name: String,
}

impl Negate {
    /// `y = -u`.
    pub fn new(name: impl Into<String>) -> Self {
        Negate { name: name.into() }
    }
}

impl Block for Negate {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = -inputs[0];
    }
}

/// Adds a constant offset: `y = u + offset`.
#[derive(Debug, Clone)]
pub struct Offset {
    name: String,
    offset: f64,
}

impl Offset {
    /// `y = u + offset`.
    pub fn new(name: impl Into<String>, offset: f64) -> Self {
        Offset {
            name: name.into(),
            offset,
        }
    }
}

impl Block for Offset {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = inputs[0] + self.offset;
    }
}

/// Clamps its input into `[lo, hi]`.
#[derive(Debug, Clone)]
pub struct Saturate {
    name: String,
    lo: f64,
    hi: f64,
}

impl Saturate {
    /// `y = clamp(u, lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "saturation bounds must satisfy lo <= hi");
        Saturate {
            name: name.into(),
            lo,
            hi,
        }
    }
}

impl Block for Saturate {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = inputs[0].clamp(self.lo, self.hi);
    }
}

/// Rounding mode for [`Quantizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rounding {
    /// Round toward negative infinity.
    Floor,
    /// Round to nearest (ties away from zero, like `f64::round`).
    #[default]
    Nearest,
    /// Round toward zero.
    Truncate,
}

/// Quantizes its input to integer multiples of a quantum.
#[derive(Debug, Clone)]
pub struct Quantizer {
    name: String,
    quantum: f64,
    rounding: Rounding,
}

impl Quantizer {
    /// `y = round(u / quantum) * quantum` with the given rounding mode.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not strictly positive.
    pub fn new(name: impl Into<String>, quantum: f64, rounding: Rounding) -> Self {
        assert!(quantum > 0.0, "quantum must be positive");
        Quantizer {
            name: name.into(),
            quantum,
            rounding,
        }
    }
}

impl Block for Quantizer {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        let scaled = inputs[0] / self.quantum;
        let q = match self.rounding {
            Rounding::Floor => scaled.floor(),
            Rounding::Nearest => scaled.round(),
            Rounding::Truncate => scaled.trunc(),
        };
        outputs[0] = q * self.quantum;
    }
}

/// Absolute value: `y = |u|`.
#[derive(Debug, Clone)]
pub struct Abs {
    name: String,
}

impl Abs {
    /// `y = |u|`.
    pub fn new(name: impl Into<String>) -> Self {
        Abs { name: name.into() }
    }
}

impl Block for Abs {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = inputs[0].abs();
    }
}

/// Signum: `y = sign(u) ∈ {-1, 0, 1}`.
///
/// This is the TEAtime decision element (paper Fig. 6).
#[derive(Debug, Clone)]
pub struct Sign {
    name: String,
}

impl Sign {
    /// `y = signum(u)`.
    pub fn new(name: impl Into<String>) -> Self {
        Sign { name: name.into() }
    }
}

impl Block for Sign {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = if inputs[0] > 0.0 {
            1.0
        } else if inputs[0] < 0.0 {
            -1.0
        } else {
            0.0
        };
    }
}

/// Minimum of N inputs.
///
/// Models the "worst sensor" reduction over TDC outputs (paper §III: the
/// control loop compares the *lowest* TDC reading against the set-point).
#[derive(Debug, Clone)]
pub struct Min {
    name: String,
    n: usize,
}

impl Min {
    /// Minimum over `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        assert!(n > 0, "min needs at least one input");
        Min {
            name: name.into(),
            n,
        }
    }
}

impl Block for Min {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        self.n
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = inputs.iter().copied().fold(f64::INFINITY, f64::min);
    }
}

/// Maximum of N inputs.
#[derive(Debug, Clone)]
pub struct Max {
    name: String,
    n: usize,
}

impl Max {
    /// Maximum over `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        assert!(n > 0, "max needs at least one input");
        Max {
            name: name.into(),
            n,
        }
    }
}

impl Block for Max {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        self.n
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval<B: Block>(b: &mut B, inputs: &[f64]) -> f64 {
        let ctx = StepContext::initial(1.0);
        let mut out = [0.0];
        b.output(&ctx, inputs, &mut out);
        out[0]
    }

    #[test]
    fn gain_scales() {
        assert_eq!(eval(&mut Gain::new("g", -3.0), &[2.0]), -6.0);
    }

    #[test]
    fn sum_applies_sign_pattern() {
        let mut s = Sum::new("s", "+-+");
        assert_eq!(s.num_inputs(), 3);
        assert_eq!(eval(&mut s, &[5.0, 3.0, 1.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "invalid sign character")]
    fn sum_rejects_bad_signs() {
        let _ = Sum::new("s", "+*");
    }

    #[test]
    fn product_multiplies() {
        assert_eq!(eval(&mut Product::new("p", 3), &[2.0, 3.0, 4.0]), 24.0);
    }

    #[test]
    fn negate_and_offset() {
        assert_eq!(eval(&mut Negate::new("n"), &[4.0]), -4.0);
        assert_eq!(eval(&mut Offset::new("o", 10.0), &[4.0]), 14.0);
    }

    #[test]
    fn saturate_clamps() {
        let mut s = Saturate::new("s", -1.0, 1.0);
        assert_eq!(eval(&mut s, &[-5.0]), -1.0);
        assert_eq!(eval(&mut s, &[0.5]), 0.5);
        assert_eq!(eval(&mut s, &[5.0]), 1.0);
    }

    #[test]
    fn quantizer_modes() {
        let mut qf = Quantizer::new("f", 1.0, Rounding::Floor);
        let mut qn = Quantizer::new("n", 1.0, Rounding::Nearest);
        let mut qt = Quantizer::new("t", 1.0, Rounding::Truncate);
        assert_eq!(eval(&mut qf, &[-1.5]), -2.0);
        assert_eq!(eval(&mut qn, &[-1.5]), -2.0);
        assert_eq!(eval(&mut qt, &[-1.5]), -1.0);
        assert_eq!(eval(&mut qf, &[1.7]), 1.0);
        assert_eq!(eval(&mut qn, &[1.7]), 2.0);
        assert_eq!(eval(&mut qt, &[1.7]), 1.0);
    }

    #[test]
    fn quantizer_nonunit_quantum() {
        let mut q = Quantizer::new("q", 0.25, Rounding::Nearest);
        assert_eq!(eval(&mut q, &[0.35]), 0.25);
        assert_eq!(eval(&mut q, &[0.40]), 0.5);
    }

    #[test]
    fn sign_is_three_valued() {
        let mut s = Sign::new("s");
        assert_eq!(eval(&mut s, &[3.5]), 1.0);
        assert_eq!(eval(&mut s, &[-0.1]), -1.0);
        assert_eq!(eval(&mut s, &[0.0]), 0.0);
    }

    #[test]
    fn abs_min_max() {
        assert_eq!(eval(&mut Abs::new("a"), &[-2.0]), 2.0);
        assert_eq!(eval(&mut Min::new("m", 3), &[3.0, -1.0, 2.0]), -1.0);
        assert_eq!(eval(&mut Max::new("m", 3), &[3.0, -1.0, 2.0]), 3.0);
    }
}
