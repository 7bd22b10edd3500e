//! Source blocks (no inputs, one output).

use crate::block::{Block, StepContext};

/// Emits a constant value.
#[derive(Debug, Clone)]
pub struct Constant {
    name: String,
    value: f64,
}

impl Constant {
    /// A source that always outputs `value`.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Constant {
            name: name.into(),
            value,
        }
    }
}

impl Block for Constant {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.value;
    }
}

/// Source driven by an arbitrary function of time.
pub struct FunctionSource {
    name: String,
    f: Box<dyn FnMut(f64) -> f64>,
}

impl std::fmt::Debug for FunctionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionSource")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl FunctionSource {
    /// A source emitting `f(t)` at simulation time `t`.
    pub fn new(name: impl Into<String>, f: impl FnMut(f64) -> f64 + 'static) -> Self {
        FunctionSource {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Block for FunctionSource {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = (self.f)(ctx.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<B: Block>(block: &mut B, times: &[f64]) -> Vec<f64> {
        times
            .iter()
            .map(|&time| {
                let ctx = StepContext { step: 0, time };
                let mut out = [0.0];
                block.output(&ctx, &[], &mut out);
                out[0]
            })
            .collect()
    }

    #[test]
    fn constant_is_constant() {
        let mut c = Constant::new("c", 2.5);
        assert_eq!(sample(&mut c, &[0.0, 1.0, 99.0]), vec![2.5, 2.5, 2.5]);
    }

    #[test]
    fn function_source_tracks_time() {
        let mut f = FunctionSource::new("f", |t| t * t);
        assert_eq!(sample(&mut f, &[0.0, 2.0, 3.0]), vec![0.0, 4.0, 9.0]);
    }
}
