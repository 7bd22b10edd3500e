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

#[cfg(test)]
mod tests {
    use super::*;

    fn eval<B: Block>(b: &mut B, inputs: &[f64]) -> f64 {
        let mut out = [0.0];
        b.output(&StepContext::default(), inputs, &mut out);
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
}
