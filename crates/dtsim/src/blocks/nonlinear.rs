//! Nonlinear blocks.

use crate::block::{Block, StepContext};

/// Relay (Schmitt trigger): output switches to `on_value` when the input
/// rises above `on_threshold` and back to `off_value` when it falls below
/// `off_threshold`.
#[derive(Debug, Clone)]
pub struct Relay {
    name: String,
    on_threshold: f64,
    off_threshold: f64,
    on_value: f64,
    off_value: f64,
    state_on: bool,
}

impl Relay {
    /// A hysteretic relay.
    ///
    /// # Panics
    ///
    /// Panics if `off_threshold > on_threshold` (no hysteresis band).
    pub fn new(
        name: impl Into<String>,
        on_threshold: f64,
        off_threshold: f64,
        on_value: f64,
        off_value: f64,
    ) -> Self {
        assert!(
            off_threshold <= on_threshold,
            "relay requires off_threshold <= on_threshold"
        );
        Relay {
            name: name.into(),
            on_threshold,
            off_threshold,
            on_value,
            off_value,
            state_on: false,
        }
    }
}

impl Block for Relay {
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
        // Feedthrough: decision uses the current input; state is latched in
        // update so that output() stays idempotent within a step.
        let on = if self.state_on {
            inputs[0] >= self.off_threshold
        } else {
            inputs[0] > self.on_threshold
        };
        outputs[0] = if on { self.on_value } else { self.off_value };
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        if self.state_on {
            if inputs[0] < self.off_threshold {
                self.state_on = false;
            }
        } else if inputs[0] > self.on_threshold {
            self.state_on = true;
        }
    }
    fn reset(&mut self) {
        self.state_on = false;
    }
}

/// Dead zone: zero output inside `[-width, width]`, shifted identity outside.
#[derive(Debug, Clone)]
pub struct DeadZone {
    name: String,
    width: f64,
}

impl DeadZone {
    /// A symmetric dead zone of half-width `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width < 0`.
    pub fn new(name: impl Into<String>, width: f64) -> Self {
        assert!(width >= 0.0, "dead zone width must be non-negative");
        DeadZone {
            name: name.into(),
            width,
        }
    }
}

impl Block for DeadZone {
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
        let u = inputs[0];
        outputs[0] = if u > self.width {
            u - self.width
        } else if u < -self.width {
            u + self.width
        } else {
            0.0
        };
    }
}

/// Limits the per-step change of a signal.
///
/// `y[n] = y[n-1] + clamp(u[n] - y[n-1], -fall, +rise)`.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    name: String,
    rise: f64,
    fall: f64,
    initial: f64,
    prev: f64,
}

impl RateLimiter {
    /// A rate limiter with maximum per-step rise and fall magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative.
    pub fn new(name: impl Into<String>, rise: f64, fall: f64, initial: f64) -> Self {
        assert!(rise >= 0.0 && fall >= 0.0, "rates must be non-negative");
        RateLimiter {
            name: name.into(),
            rise,
            fall,
            initial,
            prev: initial,
        }
    }

    fn limited(&self, u: f64) -> f64 {
        self.prev + (u - self.prev).clamp(-self.fall, self.rise)
    }
}

impl Block for RateLimiter {
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
        outputs[0] = self.limited(inputs[0]);
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        self.prev = self.limited(inputs[0]);
    }
    fn reset(&mut self) {
        self.prev = self.initial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{FunctionSource, Probe};
    use crate::GraphBuilder;

    #[test]
    fn relay_hysteresis() {
        let mut g = GraphBuilder::new();
        // Triangle wave: 0,1,2,3,2,1,0,-1 ...
        let vals = [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, -1.0];
        let src = g.add(FunctionSource::new("src", move |t| vals[t as usize % 8]));
        let r = g.add(Relay::new("r", 2.5, 0.5, 1.0, 0.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[src, r, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(8).unwrap();
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn dead_zone_response() {
        let mut d = DeadZone::new("d", 1.0);
        let ctx = StepContext::initial(1.0);
        let mut out = [0.0];
        d.output(&ctx, &[0.5], &mut out);
        assert_eq!(out[0], 0.0);
        d.output(&ctx, &[2.0], &mut out);
        assert_eq!(out[0], 1.0);
        d.output(&ctx, &[-3.0], &mut out);
        assert_eq!(out[0], -2.0);
    }

    #[test]
    fn rate_limiter_slews() {
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new(
            "src",
            |t| if t < 1.0 { 0.0 } else { 10.0 },
        ));
        let r = g.add(RateLimiter::new("r", 2.0, 1.0, 0.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[src, r, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(5).unwrap();
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[0.0, 2.0, 4.0, 6.0, 8.0]
        );
    }
}
