//! Closure-backed block for ad-hoc logic.

use crate::block::{Block, StepContext};

/// Output-phase closure of a [`StatefulFnBlock`]: `(state, inputs, outputs)`.
pub type OutFn<S> = Box<dyn FnMut(&S, &[f64], &mut [f64])>;
/// Update-phase closure of a [`StatefulFnBlock`]: `(state, inputs)`.
pub type UpdateFn<S> = Box<dyn FnMut(&mut S, &[f64])>;
/// Reset closure of a [`StatefulFnBlock`].
pub type ResetFn<S> = Box<dyn FnMut(&mut S)>;

/// Stateful block with explicit two-phase closures over a state value.
///
/// The output closure maps `(state, inputs) -> outputs` (no direct
/// feedthrough is assumed: the outputs may read the state only, so the block
/// can break loops when constructed with `feedthrough = false`). The update
/// closure maps `(state, inputs)` to the next state in place.
///
/// By default the block does nothing on simulation reset; attach a reset
/// closure with [`StatefulFnBlock::with_reset`] to restore initial state.
pub struct StatefulFnBlock<S> {
    name: String,
    n_in: usize,
    n_out: usize,
    feedthrough: bool,
    state: S,
    out_fn: OutFn<S>,
    update_fn: UpdateFn<S>,
    reset_fn: Option<ResetFn<S>>,
}

impl<S: std::fmt::Debug> std::fmt::Debug for StatefulFnBlock<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatefulFnBlock")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl<S> StatefulFnBlock<S> {
    /// A stateful block.
    ///
    /// Set `feedthrough = false` only if `out_fn` genuinely ignores
    /// `inputs`; the engine cannot verify this, and violating it silently
    /// reads stale input values.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        n_in: usize,
        n_out: usize,
        feedthrough: bool,
        state: S,
        out_fn: impl FnMut(&S, &[f64], &mut [f64]) + 'static,
        update_fn: impl FnMut(&mut S, &[f64]) + 'static,
    ) -> Self {
        StatefulFnBlock {
            name: name.into(),
            n_in,
            n_out,
            feedthrough,
            state,
            out_fn: Box::new(out_fn),
            update_fn: Box::new(update_fn),
            reset_fn: None,
        }
    }

    /// Attach a reset closure invoked by
    /// [`Simulation::reset`](crate::Simulation::reset).
    #[must_use]
    pub fn with_reset(mut self, f: impl FnMut(&mut S) + 'static) -> Self {
        self.reset_fn = Some(Box::new(f));
        self
    }
}

impl<S> Block for StatefulFnBlock<S> {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        self.n_in
    }
    fn num_outputs(&self) -> usize {
        self.n_out
    }
    fn direct_feedthrough(&self) -> bool {
        self.feedthrough
    }
    fn output(&mut self, _ctx: &StepContext, inputs: &[f64], outputs: &mut [f64]) {
        (self.out_fn)(&self.state, inputs, outputs);
    }
    fn update(&mut self, _ctx: &StepContext, inputs: &[f64]) {
        (self.update_fn)(&mut self.state, inputs);
    }
    fn reset(&mut self) {
        if let Some(f) = self.reset_fn.as_mut() {
            f(&mut self.state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{FunctionSource, Probe};
    use crate::GraphBuilder;

    #[test]
    fn feedthrough_block_combines_current_inputs() {
        let mut g = GraphBuilder::new();
        let a = g.add(FunctionSource::new("a", |t| t));
        let b = g.add(FunctionSource::new("b", |t| 10.0 * t));
        let f = g.add(StatefulFnBlock::new(
            "f",
            2,
            1,
            true,
            (),
            |_, i, o| o[0] = i[0] + i[1],
            |_, _| {},
        ));
        let p = g.add(Probe::new("p"));
        g.connect(a, 0, f, 0).unwrap();
        g.connect(b, 0, f, 1).unwrap();
        g.connect(f, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(3).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[0.0, 11.0, 22.0]);
    }

    #[test]
    fn stateful_block_accumulates_and_breaks_loops() {
        // accumulator as a single stateful block, used inside a feedback loop
        let mut g = GraphBuilder::new();
        let src = g.add(FunctionSource::new("src", |_| 1.0));
        let acc = g.add(
            StatefulFnBlock::new(
                "acc",
                1,
                1,
                false,
                0.0f64,
                |s, _i, o| o[0] = *s,
                |s, i| *s += i[0],
            )
            .with_reset(|s| *s = 0.0),
        );
        let p = g.add(Probe::new("p"));
        g.chain(&[src, acc, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(4).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[0.0, 1.0, 2.0, 3.0]);
        sim.reset();
        sim.run(1).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[0.0]);
    }
}
