//! Decision and routing blocks.

use crate::block::{Block, StepContext};

/// Routes one of two signal inputs to the output based on a control input:
/// `y = if ctrl >= threshold { u_true } else { u_false }`.
///
/// Port layout: 0 = control, 1 = taken when control ≥ threshold, 2 = taken
/// otherwise.
#[derive(Debug, Clone)]
pub struct Switch {
    name: String,
    threshold: f64,
}

impl Switch {
    /// A switch with the given control threshold.
    pub fn new(name: impl Into<String>, threshold: f64) -> Self {
        Switch {
            name: name.into(),
            threshold,
        }
    }
}

impl Block for Switch {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        3
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = if inputs[0] >= self.threshold {
            inputs[1]
        } else {
            inputs[2]
        };
    }
}

/// Compares two inputs: `y = 1` if `u₀ > u₁ + hysteresis·state`, else 0.
/// With zero hysteresis this is a plain comparator.
#[derive(Debug, Clone)]
pub struct Comparator {
    name: String,
    hysteresis: f64,
    state_high: bool,
}

impl Comparator {
    /// A comparator with optional hysteresis band (`0` disables it).
    ///
    /// # Panics
    ///
    /// Panics if `hysteresis < 0`.
    pub fn new(name: impl Into<String>, hysteresis: f64) -> Self {
        assert!(hysteresis >= 0.0, "hysteresis must be non-negative");
        Comparator {
            name: name.into(),
            hysteresis,
            state_high: false,
        }
    }

    fn decide(&self, a: f64, b: f64) -> bool {
        if self.state_high {
            a > b - self.hysteresis
        } else {
            a > b + self.hysteresis
        }
    }
}

impl Block for Comparator {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = if self.decide(inputs[0], inputs[1]) {
            1.0
        } else {
            0.0
        };
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.state_high = self.decide(inputs[0], inputs[1]);
    }
    fn reset(&mut self) {
        self.state_high = false;
    }
}

/// Free-running modulo counter: emits `0, 1, …, modulus−1, 0, …`, one
/// increment per step. Optionally gated by its input (counts only when the
/// input is nonzero).
#[derive(Debug, Clone)]
pub struct Counter {
    name: String,
    modulus: u64,
    gated: bool,
    count: u64,
}

impl Counter {
    /// A counter with the given modulus; `gated` makes it count only when
    /// the input is nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `modulus == 0`.
    pub fn new(name: impl Into<String>, modulus: u64, gated: bool) -> Self {
        assert!(modulus > 0, "counter modulus must be positive");
        Counter {
            name: name.into(),
            modulus,
            gated,
            count: 0,
        }
    }
}

impl Block for Counter {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        usize::from(self.gated)
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.count as f64;
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        let enabled = !self.gated || inputs.first().is_some_and(|&g| g != 0.0);
        if enabled {
            self.count = (self.count + 1) % self.modulus;
        }
    }
    fn reset(&mut self) {
        self.count = 0;
    }
}

/// Sample-and-hold: latches its input whenever the trigger input is
/// nonzero, holds it otherwise. Port 0 = signal, port 1 = trigger.
#[derive(Debug, Clone)]
pub struct SampleHold {
    name: String,
    initial: f64,
    held: f64,
}

impl SampleHold {
    /// A sample-and-hold starting at `initial`.
    pub fn new(name: impl Into<String>, initial: f64) -> Self {
        SampleHold {
            name: name.into(),
            initial,
            held: initial,
        }
    }
}

impl Block for SampleHold {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn output(&mut self, _ctx: &StepContext, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.held;
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        if inputs[1] != 0.0 {
            self.held = inputs[0];
        }
    }
    fn reset(&mut self) {
        self.held = self.initial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{Constant, FunctionSource, Probe, Pulse};
    use crate::GraphBuilder;

    #[test]
    fn switch_routes_on_threshold() {
        let mut g = GraphBuilder::new();
        let ctrl = g.add(FunctionSource::new("ctrl", |t| {
            if t < 2.0 {
                1.0
            } else {
                -1.0
            }
        }));
        let a = g.add(Constant::new("a", 10.0));
        let b = g.add(Constant::new("b", 20.0));
        let sw = g.add(Switch::new("sw", 0.0));
        let p = g.add(Probe::new("p"));
        g.connect(ctrl, 0, sw, 0).unwrap();
        g.connect(a, 0, sw, 1).unwrap();
        g.connect(b, 0, sw, 2).unwrap();
        g.connect(sw, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(4).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[10.0, 10.0, 20.0, 20.0]);
    }

    #[test]
    fn comparator_plain() {
        let mut c = Comparator::new("c", 0.0);
        let ctx = StepContext::initial(1.0);
        let mut out = [0.0];
        c.output(&ctx, &[2.0, 1.0], &mut out);
        assert_eq!(out[0], 1.0);
        c.output(&ctx, &[1.0, 2.0], &mut out);
        assert_eq!(out[0], 0.0);
        c.output(&ctx, &[1.0, 1.0], &mut out);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn comparator_hysteresis_latches() {
        let mut c = Comparator::new("c", 1.0);
        let ctx = StepContext::initial(1.0);
        let mut out = [0.0];
        // low state: needs a > b + 1 to go high
        c.output(&ctx, &[1.5, 1.0], &mut out);
        assert_eq!(out[0], 0.0);
        c.output(&ctx, &[2.5, 1.0], &mut out);
        assert_eq!(out[0], 1.0);
        c.update(&ctx, &[2.5, 1.0]);
        // high state: stays high until a < b - 1
        c.output(&ctx, &[0.5, 1.0], &mut out);
        assert_eq!(out[0], 1.0);
        c.output(&ctx, &[-0.5, 1.0], &mut out);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn counter_wraps() {
        let mut g = GraphBuilder::new();
        let c = g.add(Counter::new("c", 3, false));
        let p = g.add(Probe::new("p"));
        g.connect(c, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(7).unwrap();
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0]
        );
    }

    #[test]
    fn gated_counter_counts_when_enabled() {
        let mut g = GraphBuilder::new();
        let gate = g.add(Pulse::new("gate", 1.0, 2.0, 0.5, 0.0)); // 1,0,1,0...
        let c = g.add(Counter::new("c", 100, true));
        let p = g.add(Probe::new("p"));
        g.connect(gate, 0, c, 0).unwrap();
        g.connect(c, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(6).unwrap();
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[0.0, 1.0, 1.0, 2.0, 2.0, 3.0]
        );
    }

    #[test]
    fn sample_hold_latches_on_trigger() {
        let mut g = GraphBuilder::new();
        let sig = g.add(FunctionSource::new("sig", |t| t * 10.0));
        let trig = g.add(Pulse::new("trig", 1.0, 3.0, 0.2, 0.0)); // fires at t=0,3,...
        let sh = g.add(SampleHold::new("sh", -1.0));
        let p = g.add(Probe::new("p"));
        g.connect(sig, 0, sh, 0).unwrap();
        g.connect(trig, 0, sh, 1).unwrap();
        g.connect(sh, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(6).unwrap();
        // output lags the latch by one step (non-feedthrough)
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[-1.0, 0.0, 0.0, 0.0, 30.0, 30.0]
        );
    }
}
