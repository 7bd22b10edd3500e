use crate::block::{Block, StepContext};
use crate::error::Error;
use crate::trace::Trace;

/// A resolved signal route between two flattened port slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Connection {
    pub(crate) src_slot: usize,
    pub(crate) dst_slot: usize,
}

/// An executable discrete-time model produced by
/// [`GraphBuilder::build`](crate::GraphBuilder::build).
///
/// Stepping the simulation runs one output phase (in feedthrough order)
/// followed by one update phase. Probe blocks record their input each step;
/// recorded traces are available through [`Simulation::trace`].
pub struct Simulation {
    blocks: Vec<Box<dyn Block>>,
    order: Vec<usize>,
    /// Connections grouped by source block: `fanout[b]` lists the routes
    /// leaving block `b`, so the output phase touches each route once.
    fanout: Vec<Vec<Connection>>,
    input_offsets: Vec<usize>,
    output_offsets: Vec<usize>,
    inputs: Vec<f64>,
    outputs: Vec<f64>,
    ctx: StepContext,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("blocks", &self.blocks.len())
            .field("step", &self.ctx.step)
            .field("time", &self.ctx.time)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        blocks: Vec<Box<dyn Block>>,
        order: Vec<usize>,
        connections: Vec<Connection>,
        input_offsets: Vec<usize>,
        output_offsets: Vec<usize>,
        n_in: usize,
        n_out: usize,
    ) -> Self {
        // Group connections by their source block for O(1) fan-out lookups
        // during the output phase.
        let mut slot_owner = vec![0usize; n_out];
        for (b, block) in blocks.iter().enumerate() {
            for k in 0..block.num_outputs() {
                slot_owner[output_offsets[b] + k] = b;
            }
        }
        let mut fanout: Vec<Vec<Connection>> = vec![Vec::new(); blocks.len()];
        for c in connections {
            fanout[slot_owner[c.src_slot]].push(c);
        }
        Simulation {
            blocks,
            order,
            fanout,
            input_offsets,
            output_offsets,
            inputs: vec![0.0; n_in],
            outputs: vec![0.0; n_out],
            ctx: StepContext::default(),
        }
    }

    /// Execute one step: one output phase, one update phase, then advance
    /// the step index and time by one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFiniteSignal`] if a block outputs NaN/∞.
    pub fn step(&mut self) -> Result<(), Error> {
        // Output phase in feedthrough order; propagate each block's outputs
        // to downstream input slots immediately.
        for idx in 0..self.order.len() {
            let b = self.order[idx];
            let in_off = self.input_offsets[b];
            let out_off = self.output_offsets[b];
            let n_in = self.blocks[b].num_inputs();
            let n_out = self.blocks[b].num_outputs();
            // Split borrows: inputs and outputs are distinct vectors.
            let inputs = &self.inputs[in_off..in_off + n_in];
            let outputs = &mut self.outputs[out_off..out_off + n_out];
            self.blocks[b].output(&self.ctx, inputs, outputs);
            if let Some(port) = outputs.iter().position(|v| !v.is_finite()) {
                return Err(Error::NonFiniteSignal {
                    block: self.blocks[b].name().to_owned(),
                    port,
                    step: self.ctx.step,
                });
            }
            // Propagate along this block's precomputed fan-out.
            for c in &self.fanout[b] {
                self.inputs[c.dst_slot] = self.outputs[c.src_slot];
            }
        }
        // Update phase.
        for b in 0..self.blocks.len() {
            let in_off = self.input_offsets[b];
            let n_in = self.blocks[b].num_inputs();
            let inputs = &self.inputs[in_off..in_off + n_in];
            self.blocks[b].update(&self.ctx, inputs);
        }
        self.ctx.step += 1;
        self.ctx.time += 1.0;
        Ok(())
    }

    /// Run `n` steps.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first step error.
    pub fn run(&mut self, n: u64) -> Result<(), Error> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Borrow the trace recorded by the probe block named `name`.
    ///
    /// Returns `None` if no probe with that name exists.
    pub fn trace(&self, name: &str) -> Option<&Trace> {
        self.blocks
            .iter()
            .find(|b| b.name() == name)
            .and_then(|b| b.trace())
    }

    /// Reset every block to its initial state and rewind time to zero.
    pub fn reset(&mut self) {
        for b in &mut self.blocks {
            b.reset();
        }
        self.inputs.iter_mut().for_each(|v| *v = 0.0);
        self.outputs.iter_mut().for_each(|v| *v = 0.0);
        self.ctx = StepContext::default();
    }
}

#[cfg(test)]
mod tests {
    use crate::blocks::{Constant, FunctionSource, Probe, StatefulFnBlock, Sum, UnitDelay};
    use crate::{Error, GraphBuilder};

    #[test]
    fn accumulator_semantics() {
        // y[n] = y[n-1] + 1, y[0] = 0  (probe sees delay output)
        let mut g = GraphBuilder::new();
        let one = g.add(Constant::new("one", 1.0));
        let sum = g.add(Sum::new("sum", "++"));
        let dly = g.add(UnitDelay::new("dly", 0.0));
        let p = g.add(Probe::new("p"));
        g.connect(one, 0, sum, 0).unwrap();
        g.connect(dly, 0, sum, 1).unwrap();
        g.connect(sum, 0, dly, 0).unwrap();
        g.connect(dly, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(5).unwrap();
        assert_eq!(
            sim.trace("p").unwrap().samples(),
            &[0.0, 1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn reset_rewinds_state_and_time() {
        // The source reads the simulation time, so a rerun after reset
        // reproduces the first run only if time was rewound to zero.
        let mut g = GraphBuilder::new();
        let s = g.add(FunctionSource::new("s", |t| {
            (std::f64::consts::TAU * t / 8.0).sin()
        }));
        let d = g.add(UnitDelay::new("d", 0.5));
        let p = g.add(Probe::new("p"));
        g.chain(&[s, d, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(8).unwrap();
        let first = sim.trace("p").unwrap().clone();
        sim.reset();
        assert!(sim.trace("p").unwrap().is_empty());
        sim.run(8).unwrap();
        assert_eq!(sim.trace("p").unwrap(), &first);
        assert_eq!(first.iter().next(), Some((0.0, 0.5)));
    }

    #[test]
    fn non_finite_signal_detected() {
        let mut g = GraphBuilder::new();
        let c = g.add(Constant::new("c", 0.0));
        let f = g.add(StatefulFnBlock::new(
            "inv",
            1,
            1,
            true,
            (),
            |_, i, o| o[0] = 1.0 / i[0],
            |_, _| {},
        ));
        let p = g.add(Probe::new("p"));
        g.connect(c, 0, f, 0).unwrap();
        g.connect(f, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        assert_eq!(
            sim.step(),
            Err(Error::NonFiniteSignal {
                block: "inv".to_owned(),
                port: 0,
                step: 0,
            })
        );
    }
}
