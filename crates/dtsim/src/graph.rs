use std::collections::HashSet;

use crate::block::Block;
use crate::error::Error;
use crate::sim::{Connection, Simulation};

/// Opaque handle to a block registered in a [`GraphBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) usize);

/// Incrementally builds a block-diagram and validates it into a
/// [`Simulation`].
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Default)]
pub struct GraphBuilder {
    blocks: Vec<Box<dyn Block>>,
    names: HashSet<String>,
    /// `edges[dst_block][dst_port] = Some((src_block, src_port))`
    edges: Vec<Vec<Option<(usize, usize)>>>,
}

impl std::fmt::Debug for GraphBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphBuilder")
            .field("blocks", &self.blocks.len())
            .finish_non_exhaustive()
    }
}

impl GraphBuilder {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a block and return its handle.
    ///
    /// Block names should be unique; duplicates are reported by
    /// [`GraphBuilder::build`].
    pub fn add<B: Block + 'static>(&mut self, block: B) -> BlockId {
        self.names.insert(block.name().to_owned());
        self.edges.push(vec![None; block.num_inputs()]);
        self.blocks.push(Box::new(block));
        BlockId(self.blocks.len() - 1)
    }

    /// Connect output `src_port` of `src` to input `dst_port` of `dst`.
    ///
    /// # Errors
    ///
    /// Returns an error if either port index is out of range or the input
    /// port is already driven. One output may fan out to many inputs.
    pub fn connect(
        &mut self,
        src: BlockId,
        src_port: usize,
        dst: BlockId,
        dst_port: usize,
    ) -> Result<(), Error> {
        let src_block = self
            .blocks
            .get(src.0)
            .ok_or(Error::UnknownBlock { index: src.0 })?;
        if src_port >= src_block.num_outputs() {
            return Err(Error::BadOutputPort {
                block: src_block.name().to_owned(),
                port: src_port,
                available: src_block.num_outputs(),
            });
        }
        let dst_block = self
            .blocks
            .get(dst.0)
            .ok_or(Error::UnknownBlock { index: dst.0 })?;
        if dst_port >= dst_block.num_inputs() {
            return Err(Error::BadInputPort {
                block: dst_block.name().to_owned(),
                port: dst_port,
                available: dst_block.num_inputs(),
            });
        }
        let slot = &mut self.edges[dst.0][dst_port];
        if slot.is_some() {
            return Err(Error::InputAlreadyDriven {
                block: self.blocks[dst.0].name().to_owned(),
                port: dst_port,
            });
        }
        *slot = Some((src.0, src_port));
        Ok(())
    }

    /// Convenience: connect a chain of single-input single-output blocks.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`GraphBuilder::connect`].
    pub fn chain(&mut self, blocks: &[BlockId]) -> Result<(), Error> {
        for pair in blocks.windows(2) {
            self.connect(pair[0], 0, pair[1], 0)?;
        }
        Ok(())
    }

    /// Validate the graph and produce an executable [`Simulation`].
    ///
    /// # Errors
    ///
    /// Returns an error when an input port is unconnected, a block name is
    /// duplicated, or a combinational (algebraic) loop exists.
    pub fn build(self) -> Result<Simulation, Error> {
        // Name uniqueness.
        if self.names.len() != self.blocks.len() {
            let mut seen = HashSet::new();
            for b in &self.blocks {
                if !seen.insert(b.name().to_owned()) {
                    return Err(Error::DuplicateName {
                        name: b.name().to_owned(),
                    });
                }
            }
        }
        // All inputs connected.
        for (bi, ports) in self.edges.iter().enumerate() {
            for (pi, edge) in ports.iter().enumerate() {
                if edge.is_none() {
                    return Err(Error::UnconnectedInput {
                        block: self.blocks[bi].name().to_owned(),
                        port: pi,
                    });
                }
            }
        }
        let order = self.feedthrough_order()?;

        // Flatten connections for the executor.
        let mut connections = Vec::new();
        let mut input_offsets = Vec::with_capacity(self.blocks.len());
        let mut output_offsets = Vec::with_capacity(self.blocks.len());
        let mut n_in = 0usize;
        let mut n_out = 0usize;
        for b in &self.blocks {
            input_offsets.push(n_in);
            output_offsets.push(n_out);
            n_in += b.num_inputs();
            n_out += b.num_outputs();
        }
        for (dst, ports) in self.edges.iter().enumerate() {
            for (dst_port, edge) in ports.iter().enumerate() {
                let (src, src_port) = edge.expect("validated above");
                connections.push(Connection {
                    src_slot: output_offsets[src] + src_port,
                    dst_slot: input_offsets[dst] + dst_port,
                });
            }
        }

        Ok(Simulation::new(
            self.blocks,
            order,
            connections,
            input_offsets,
            output_offsets,
            n_in,
            n_out,
        ))
    }

    /// Topologically sort the blocks by the direct-feedthrough sub-graph
    /// (edges entering non-feedthrough blocks do not constrain ordering).
    fn feedthrough_order(&self) -> Result<Vec<usize>, Error> {
        let n = self.blocks.len();
        // adjacency: src -> dst for feedthrough-constrained edges
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut in_degree = vec![0usize; n];
        for (dst, ports) in self.edges.iter().enumerate() {
            if !self.blocks[dst].direct_feedthrough() {
                continue;
            }
            for edge in ports.iter().flatten() {
                let (src, _) = *edge;
                out_edges[src].push(dst);
                in_degree[dst] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        // Stable order: process lowest index first for determinism.
        ready.sort_unstable();
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::BinaryHeap::new();
        for r in ready {
            queue.push(std::cmp::Reverse(r));
        }
        while let Some(std::cmp::Reverse(b)) = queue.pop() {
            order.push(b);
            for &d in &out_edges[b] {
                in_degree[d] -= 1;
                if in_degree[d] == 0 {
                    queue.push(std::cmp::Reverse(d));
                }
            }
        }
        if order.len() != n {
            let loop_blocks: Vec<String> = (0..n)
                .filter(|&i| in_degree[i] > 0)
                .map(|i| self.blocks[i].name().to_owned())
                .collect();
            return Err(Error::AlgebraicLoop {
                blocks: loop_blocks,
            });
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{Constant, Gain, Probe, Sum, UnitDelay};

    #[test]
    fn connect_rejects_bad_ports() {
        let mut g = GraphBuilder::new();
        let c = g.add(Constant::new("c", 1.0));
        let gn = g.add(Gain::new("g", 2.0));
        assert!(matches!(
            g.connect(c, 1, gn, 0),
            Err(Error::BadOutputPort { .. })
        ));
        assert!(matches!(
            g.connect(c, 0, gn, 1),
            Err(Error::BadInputPort { .. })
        ));
    }

    #[test]
    fn connect_rejects_double_drive() {
        let mut g = GraphBuilder::new();
        let a = g.add(Constant::new("a", 1.0));
        let b = g.add(Constant::new("b", 2.0));
        let gn = g.add(Gain::new("g", 2.0));
        g.connect(a, 0, gn, 0).unwrap();
        assert!(matches!(
            g.connect(b, 0, gn, 0),
            Err(Error::InputAlreadyDriven { .. })
        ));
    }

    #[test]
    fn build_rejects_unconnected_input() {
        let mut g = GraphBuilder::new();
        g.add(Gain::new("g", 2.0));
        assert!(matches!(g.build(), Err(Error::UnconnectedInput { .. })));
    }

    #[test]
    fn build_rejects_duplicate_names() {
        let mut g = GraphBuilder::new();
        g.add(Constant::new("x", 1.0));
        g.add(Constant::new("x", 2.0));
        assert!(matches!(g.build(), Err(Error::DuplicateName { .. })));
    }

    #[test]
    fn build_rejects_algebraic_loop() {
        let mut g = GraphBuilder::new();
        let s = g.add(Sum::new("s", "++"));
        let gn = g.add(Gain::new("g", 0.5));
        let c = g.add(Constant::new("c", 1.0));
        g.connect(c, 0, s, 0).unwrap();
        g.connect(gn, 0, s, 1).unwrap();
        g.connect(s, 0, gn, 0).unwrap();
        match g.build() {
            Err(Error::AlgebraicLoop { blocks }) => {
                assert!(blocks.contains(&"s".to_owned()));
                assert!(blocks.contains(&"g".to_owned()));
            }
            other => panic!("expected algebraic loop, got {other:?}"),
        }
    }

    #[test]
    fn delay_breaks_loop() {
        let mut g = GraphBuilder::new();
        let s = g.add(Sum::new("s", "++"));
        let d = g.add(UnitDelay::new("d", 0.0));
        let c = g.add(Constant::new("c", 1.0));
        let p = g.add(Probe::new("p"));
        g.connect(c, 0, s, 0).unwrap();
        g.connect(d, 0, s, 1).unwrap();
        g.connect(s, 0, d, 0).unwrap();
        g.connect(s, 0, p, 0).unwrap();
        assert!(g.build().is_ok());
    }

    #[test]
    fn chain_connects_sequentially() {
        let mut g = GraphBuilder::new();
        let c = g.add(Constant::new("c", 3.0));
        let g1 = g.add(Gain::new("g1", 2.0));
        let g2 = g.add(Gain::new("g2", 5.0));
        let p = g.add(Probe::new("p"));
        g.chain(&[c, g1, g2, p]).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(1).unwrap();
        assert_eq!(sim.trace("p").unwrap().samples(), &[30.0]);
    }
}
