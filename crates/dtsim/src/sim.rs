use clock_telemetry::Telemetry;

use crate::block::{Block, StepContext};
use crate::error::Error;
use crate::trace::Trace;

/// A resolved signal route between two flattened port slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Connection {
    pub(crate) src_slot: usize,
    pub(crate) dst_slot: usize,
}

/// Static shape of a built simulation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Number of blocks in the graph.
    pub blocks: usize,
    /// Number of resolved signal routes.
    pub connections: usize,
    /// Total flattened input slots.
    pub input_slots: usize,
    /// Total flattened output slots.
    pub output_slots: usize,
}

/// Wall-clock cost attributed to one block in a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCost {
    /// Block name.
    pub name: String,
    /// Nanoseconds spent in this block's output + update phases.
    pub ns: u64,
    /// Fraction of the profiled blocks' total time (0 when nothing ran).
    pub share: f64,
}

/// Execution profile of a simulation, from [`Simulation::report`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Steps executed while profiling was enabled.
    pub steps: u64,
    /// Total wall-clock nanoseconds across those steps.
    pub wall_ns: u64,
    /// Steps per second (0 when no time elapsed).
    pub steps_per_sec: f64,
    /// Per-block costs, most expensive first.
    pub blocks: Vec<BlockCost>,
    /// The graph shape the profile was taken over.
    pub schedule: ScheduleStats,
}

struct Profiler {
    block_ns: Vec<u64>,
    wall_ns: u64,
    steps: u64,
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
    check_finite: bool,
    profiler: Option<Profiler>,
    telemetry: Telemetry,
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
            ctx: StepContext::initial(1.0),
            check_finite: true,
            profiler: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach an instrumentation handle; [`Simulation::run`] opens an
    /// `engine.interp` trace span per call on it. A disabled handle (the
    /// default) keeps the engine span-free.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Enable or disable per-block wall-clock profiling. Enabling resets
    /// any previously accumulated profile; while disabled the step path
    /// takes no timestamps at all.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler = on.then(|| Profiler {
            block_ns: vec![0; self.blocks.len()],
            wall_ns: 0,
            steps: 0,
        });
    }

    /// Static shape of the built graph (always available).
    pub fn schedule_stats(&self) -> ScheduleStats {
        ScheduleStats {
            blocks: self.blocks.len(),
            connections: self.fanout.iter().map(Vec::len).sum(),
            input_slots: self.inputs.len(),
            output_slots: self.outputs.len(),
        }
    }

    /// The execution profile accumulated since profiling was enabled, or
    /// `None` if profiling is off.
    pub fn report(&self) -> Option<SimReport> {
        let p = self.profiler.as_ref()?;
        let total: u64 = p.block_ns.iter().sum();
        let mut blocks: Vec<BlockCost> = p
            .block_ns
            .iter()
            .enumerate()
            .map(|(b, &ns)| BlockCost {
                name: self.blocks[b].name().to_owned(),
                ns,
                share: if total > 0 {
                    ns as f64 / total as f64
                } else {
                    0.0
                },
            })
            .collect();
        blocks.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.name.cmp(&b.name)));
        Some(SimReport {
            steps: p.steps,
            wall_ns: p.wall_ns,
            steps_per_sec: if p.wall_ns > 0 {
                p.steps as f64 * 1e9 / p.wall_ns as f64
            } else {
                0.0
            },
            blocks,
            schedule: self.schedule_stats(),
        })
    }

    /// Set the fixed step duration (default `1.0`).
    pub fn set_dt(&mut self, dt: f64) {
        self.ctx.dt = dt;
    }

    /// Disable the per-step non-finite signal check (slightly faster).
    pub fn set_check_finite(&mut self, check: bool) {
        self.check_finite = check;
    }

    /// Current step index (number of completed steps).
    pub fn step_count(&self) -> u64 {
        self.ctx.step
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.ctx.time
    }

    /// Execute one step with the configured `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFiniteSignal`] if a block outputs NaN/∞ while the
    /// finite check is enabled.
    pub fn step(&mut self) -> Result<(), Error> {
        let dt = self.ctx.dt;
        self.step_with_dt(dt)
    }

    /// Execute one step with an explicit step duration, allowing
    /// variable-step drivers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFiniteSignal`] if a block outputs NaN/∞ while the
    /// finite check is enabled.
    pub fn step_with_dt(&mut self, dt: f64) -> Result<(), Error> {
        // Bind the profiler once for the whole step: moving it out lets the
        // profiled path hold a plain `&mut Profiler` instead of re-looking
        // up (and re-checking) the `Option` after every block.
        match self.profiler.take() {
            Some(mut p) => {
                let r = self.step_profiled(dt, &mut p);
                self.profiler = Some(p);
                r
            }
            None => self.step_plain(dt),
        }
    }

    /// The unprofiled step path: no timestamps taken anywhere.
    fn step_plain(&mut self, dt: f64) -> Result<(), Error> {
        self.ctx.dt = dt;
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
            if self.check_finite {
                for (pi, v) in outputs.iter().enumerate() {
                    if !v.is_finite() {
                        return Err(Error::NonFiniteSignal {
                            block: self.blocks[b].name().to_owned(),
                            port: pi,
                            step: self.ctx.step,
                        });
                    }
                }
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
        self.ctx.time += dt;
        Ok(())
    }

    /// The profiled step path; `p` is the profiler moved out of `self` for
    /// the duration of the step.
    fn step_profiled(&mut self, dt: f64, p: &mut Profiler) -> Result<(), Error> {
        self.ctx.dt = dt;
        let step_start = std::time::Instant::now();
        for idx in 0..self.order.len() {
            let b = self.order[idx];
            let in_off = self.input_offsets[b];
            let out_off = self.output_offsets[b];
            let n_in = self.blocks[b].num_inputs();
            let n_out = self.blocks[b].num_outputs();
            let inputs = &self.inputs[in_off..in_off + n_in];
            let outputs = &mut self.outputs[out_off..out_off + n_out];
            let t0 = std::time::Instant::now();
            self.blocks[b].output(&self.ctx, inputs, outputs);
            p.block_ns[b] += t0.elapsed().as_nanos() as u64;
            if self.check_finite {
                for (pi, v) in outputs.iter().enumerate() {
                    if !v.is_finite() {
                        return Err(Error::NonFiniteSignal {
                            block: self.blocks[b].name().to_owned(),
                            port: pi,
                            step: self.ctx.step,
                        });
                    }
                }
            }
            for c in &self.fanout[b] {
                self.inputs[c.dst_slot] = self.outputs[c.src_slot];
            }
        }
        for b in 0..self.blocks.len() {
            let in_off = self.input_offsets[b];
            let n_in = self.blocks[b].num_inputs();
            let inputs = &self.inputs[in_off..in_off + n_in];
            let t0 = std::time::Instant::now();
            self.blocks[b].update(&self.ctx, inputs);
            p.block_ns[b] += t0.elapsed().as_nanos() as u64;
        }
        p.wall_ns += step_start.elapsed().as_nanos() as u64;
        p.steps += 1;
        self.ctx.step += 1;
        self.ctx.time += dt;
        Ok(())
    }

    /// Run `n` steps.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first step error.
    pub fn run(&mut self, n: u64) -> Result<(), Error> {
        let mut run_scope = self.telemetry.scope("engine.interp");
        run_scope.attr("steps", n);
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Read the current value on an output port.
    ///
    /// Returns `None` if the block name is unknown or the port is out of
    /// range. The value is whatever the port produced on the most recent
    /// output phase (0.0 before the first step).
    pub fn output(&self, block: &str, port: usize) -> Option<f64> {
        let b = self.blocks.iter().position(|blk| blk.name() == block)?;
        if port >= self.blocks[b].num_outputs() {
            return None;
        }
        Some(self.outputs[self.output_offsets[b] + port])
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

    /// Push a value into an externally-driven block (an
    /// [`Inport`](crate::blocks::Inport)) by name. Returns `false` if no
    /// block with that name accepts external values.
    pub fn set_input(&mut self, name: &str, value: f64) -> bool {
        self.blocks
            .iter_mut()
            .find(|b| b.name() == name)
            .is_some_and(|b| b.set_value(value))
    }

    /// Reset every block to its initial state and rewind time to zero.
    pub fn reset(&mut self) {
        for b in &mut self.blocks {
            b.reset();
        }
        self.inputs.iter_mut().for_each(|v| *v = 0.0);
        self.outputs.iter_mut().for_each(|v| *v = 0.0);
        let dt = self.ctx.dt;
        self.ctx = StepContext::initial(dt);
    }
}

#[cfg(test)]
mod tests {
    use crate::blocks::{Constant, FnBlock, Probe, Sine, Sum, UnitDelay};
    use crate::GraphBuilder;

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
    fn output_port_readback() {
        let mut g = GraphBuilder::new();
        let c = g.add(Constant::new("c", 42.0));
        let p = g.add(Probe::new("p"));
        g.connect(c, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        assert_eq!(sim.output("c", 0), Some(0.0));
        sim.step().unwrap();
        assert_eq!(sim.output("c", 0), Some(42.0));
        assert_eq!(sim.output("c", 1), None);
        assert_eq!(sim.output("nope", 0), None);
    }

    #[test]
    fn reset_rewinds_state_and_time() {
        let mut g = GraphBuilder::new();
        let s = g.add(Sine::new("s", 1.0, 8.0, 0.0));
        let p = g.add(Probe::new("p"));
        g.connect(s, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(8).unwrap();
        let first: Vec<f64> = sim.trace("p").unwrap().samples().to_vec();
        sim.reset();
        assert_eq!(sim.step_count(), 0);
        assert_eq!(sim.time(), 0.0);
        sim.run(8).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &first[..]);
    }

    #[test]
    fn non_finite_signal_detected() {
        let mut g = GraphBuilder::new();
        let c = g.add(Constant::new("c", 0.0));
        let f = g.add(FnBlock::new("inv", 1, 1, |i, o| o[0] = 1.0 / i[0]));
        let p = g.add(Probe::new("p"));
        g.connect(c, 0, f, 0).unwrap();
        g.connect(f, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        assert!(sim.step().is_err());
    }

    #[test]
    fn schedule_stats_describe_graph_shape() {
        let mut g = GraphBuilder::new();
        let one = g.add(Constant::new("one", 1.0));
        let sum = g.add(Sum::new("sum", "++"));
        let dly = g.add(UnitDelay::new("dly", 0.0));
        let p = g.add(Probe::new("p"));
        g.connect(one, 0, sum, 0).unwrap();
        g.connect(dly, 0, sum, 1).unwrap();
        g.connect(sum, 0, dly, 0).unwrap();
        g.connect(dly, 0, p, 0).unwrap();
        let sim = g.build().unwrap();
        let stats = sim.schedule_stats();
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.connections, 4);
        assert_eq!(stats.input_slots, 4); // sum×2, dly×1, p×1
        assert_eq!(stats.output_slots, 3); // one, sum, dly
    }

    #[test]
    fn profiling_reports_per_block_costs() {
        let mut g = GraphBuilder::new();
        let s = g.add(Sine::new("s", 1.0, 8.0, 0.0));
        let p = g.add(Probe::new("p"));
        g.connect(s, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        assert!(sim.report().is_none(), "no profile while disabled");
        sim.run(5).unwrap();
        sim.set_profiling(true);
        sim.run(100).unwrap();
        let report = sim.report().expect("profiling enabled");
        assert_eq!(report.steps, 100);
        assert!(report.wall_ns > 0);
        assert!(report.steps_per_sec > 0.0);
        assert_eq!(report.blocks.len(), 2);
        let share_sum: f64 = report.blocks.iter().map(|b| b.share).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1: {share_sum}"
        );
        // sorted most-expensive-first
        assert!(report.blocks[0].ns >= report.blocks[1].ns);
        // toggling off stops reporting; re-enabling resets counts
        sim.set_profiling(false);
        assert!(sim.report().is_none());
        sim.set_profiling(true);
        sim.run(3).unwrap();
        assert_eq!(sim.report().unwrap().steps, 3);
    }

    #[test]
    fn variable_dt_advances_time() {
        let mut g = GraphBuilder::new();
        let c = g.add(Constant::new("c", 1.0));
        let p = g.add(Probe::new("p"));
        g.connect(c, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.step_with_dt(0.5).unwrap();
        sim.step_with_dt(2.0).unwrap();
        assert_eq!(sim.time(), 2.5);
        assert_eq!(sim.step_count(), 2);
    }
}
