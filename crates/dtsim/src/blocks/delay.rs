//! Delay blocks: state-bearing primitives that break feedback loops
//! (`direct_feedthrough() == false`).

use std::collections::VecDeque;

use crate::block::{Block, StepContext};

/// One-step delay: `y[n] = u[n-1]`, `y[0] = initial`.
#[derive(Debug, Clone)]
pub struct UnitDelay {
    name: String,
    initial: f64,
    state: f64,
}

impl UnitDelay {
    /// A `z⁻¹` element with the given initial output.
    pub fn new(name: impl Into<String>, initial: f64) -> Self {
        UnitDelay {
            name: name.into(),
            initial,
            state: initial,
        }
    }
}

impl Block for UnitDelay {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.state;
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.state = inputs[0];
    }
    fn reset(&mut self) {
        self.state = self.initial;
    }
}

/// Fixed N-step delay: `y[n] = u[n-N]`.
///
/// Models the clock distribution network of the paper's Fig. 4 (`z⁻ᴹ`) when
/// the CDN delay is a fixed number of clock periods.
#[derive(Debug, Clone)]
pub struct DelayN {
    name: String,
    initial: f64,
    line: VecDeque<f64>,
    depth: usize,
}

impl DelayN {
    /// A `z⁻ᴺ` element (`depth = N`) with all taps initialized to `initial`.
    ///
    /// A depth of zero is a wire — but note that a zero-depth delay still
    /// reports no direct feedthrough would be wrong, so depth 0 is rejected.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` (use a direct connection instead).
    pub fn new(name: impl Into<String>, depth: usize, initial: f64) -> Self {
        assert!(depth > 0, "DelayN depth must be at least 1");
        DelayN {
            name: name.into(),
            initial,
            line: VecDeque::from(vec![initial; depth]),
            depth,
        }
    }
}

impl Block for DelayN {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = *self.line.front().expect("delay line is never empty");
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.line.pop_front();
        self.line.push_back(inputs[0]);
    }
    fn reset(&mut self) {
        self.line.clear();
        self.line
            .extend(std::iter::repeat_n(self.initial, self.depth));
    }
}

/// Delay line exposing every tap as its own output port.
///
/// Output port `k` carries `u[n - (k+1)]`. Useful for building transversal
/// (FIR) structures and the feedback tap bank of the paper's IIR control
/// block (Fig. 5).
#[derive(Debug, Clone)]
pub struct TappedDelayLine {
    name: String,
    initial: f64,
    line: VecDeque<f64>,
    taps: usize,
}

impl TappedDelayLine {
    /// A delay line with `taps` unit-delay stages, all initialized to
    /// `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `taps == 0`.
    pub fn new(name: impl Into<String>, taps: usize, initial: f64) -> Self {
        assert!(taps > 0, "TappedDelayLine needs at least one tap");
        TappedDelayLine {
            name: name.into(),
            initial,
            line: VecDeque::from(vec![initial; taps]),
            taps,
        }
    }
}

impl Block for TappedDelayLine {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        self.taps
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        for (o, v) in outputs.iter_mut().zip(self.line.iter()) {
            *o = *v;
        }
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.line.pop_back();
        self.line.push_front(inputs[0]);
    }
    fn reset(&mut self) {
        self.line.clear();
        self.line
            .extend(std::iter::repeat_n(self.initial, self.taps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{FunctionSource, Probe};
    use crate::GraphBuilder;

    #[test]
    fn unit_delay_shifts_by_one() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t + 10.0));
        let d = g.add(UnitDelay::new("d", -1.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[src, d, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(4).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[-1.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn delay_n_shifts_by_n() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t));
        let d = g.add(DelayN::new("d", 3, 0.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[src, d, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(6).unwrap();
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0]
        );
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn delay_n_rejects_zero_depth() {
        let _ = DelayN::new("d", 0, 0.0);
    }

    #[test]
    fn tapped_delay_line_taps() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t));
        let tdl = g.add(TappedDelayLine::new("tdl", 3, 0.0));
        let p1 = g.add(Probe::new("p1"));
        let p3 = g.add(Probe::new("p3"));
        g.connect(src, 0, tdl, 0).unwrap();
        g.connect(tdl, 0, p1, 0).unwrap();
        g.connect(tdl, 2, p3, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(5).unwrap();
        assert_eq!(
            sim.trace("p1").unwrap().samples(),
            &[0.0, 0.0, 1.0, 2.0, 3.0]
        );
        assert_eq!(
            sim.trace("p3").unwrap().samples(),
            &[0.0, 0.0, 0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn reset_restores_initial_taps() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |t| t + 1.0));
        let d = g.add(DelayN::new("d", 2, 7.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[src, d, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(4).unwrap();
        sim.reset();
        sim.run(2).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[7.0, 7.0]);
    }
}
