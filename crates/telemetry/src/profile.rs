//! Wall-time attribution: fold a flat list of [`SpanRecord`]s into a
//! self/total time tree aggregated by name path.
//!
//! Every span contributes its duration to the tree node addressed by its
//! chain of ancestor names (`fig8 → sweep → sweep.stage → sweep.worker →
//! engine.core`). A node's **total** is the summed duration of its
//! spans; its **self** time is total minus the time covered by direct
//! children (clamped at zero — parallel workers can legitimately overlap
//! their parent). Per-node duration quantiles come from the
//! [`QuantileSketch`], so a node visited thousands of times (cache
//! probes, kernel steps) reports p50/p90/p99/max rather than just a
//! mean.

use std::collections::HashMap;

use crate::sketch::QuantileSketch;
use crate::trace::{SpanRecord, NO_PARENT};

/// One aggregated node of the attribution tree.
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Span name (the last element of the name path).
    pub name: String,
    /// Summed duration of every span aggregated here, microseconds.
    pub total_us: u64,
    /// `total_us` minus time covered by direct children (clamped ≥ 0).
    pub self_us: u64,
    /// Number of spans aggregated into this node.
    pub calls: u64,
    /// Distribution of single-span durations (milliseconds).
    pub durations_ms: QuantileSketch,
    /// Child nodes, sorted by descending total time.
    pub children: Vec<ProfileNode>,
}

/// The attribution tree for one trace.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Root nodes (spans with no parent), sorted by descending total.
    pub roots: Vec<ProfileNode>,
}

impl Profile {
    /// Sum of `self_us` over the whole tree — the wall time the trace
    /// can attribute to a specific region.
    pub fn attributed_self_us(&self) -> u64 {
        fn walk(n: &ProfileNode) -> u64 {
            n.self_us + n.children.iter().map(walk).sum::<u64>()
        }
        self.roots.iter().map(walk).sum()
    }
}

#[derive(Default)]
struct Agg {
    total_us: u64,
    self_us: u64,
    calls: u64,
    durations: QuantileSketch,
    children: HashMap<String, Agg>,
}

impl Agg {
    fn into_node(self, name: String) -> ProfileNode {
        let mut children: Vec<ProfileNode> = self
            .children
            .into_iter()
            .map(|(name, agg)| agg.into_node(name))
            .collect();
        children.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        ProfileNode {
            name,
            total_us: self.total_us,
            self_us: self.self_us,
            calls: self.calls,
            durations_ms: self.durations,
            children,
        }
    }
}

/// Build the attribution tree from finished spans (any order). Spans
/// whose parent id is unknown (e.g. a trace drained mid-run) are treated
/// as roots.
pub fn build_profile(spans: &[SpanRecord]) -> Profile {
    // Parent chain lookup and per-parent child time.
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_time: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            *child_time.entry(s.parent).or_insert(0) += s.dur_us();
        }
    }

    // Name path of a span: ancestor names root-first.
    fn path_of<'a>(s: &'a SpanRecord, by_id: &HashMap<u64, &'a SpanRecord>) -> Vec<&'a str> {
        let mut path = vec![s.name.as_str()];
        let mut cur = s.parent;
        let mut hops = 0usize;
        while cur != NO_PARENT && hops < 256 {
            match by_id.get(&cur) {
                Some(p) => {
                    path.push(p.name.as_str());
                    cur = p.parent;
                }
                None => break,
            }
            hops += 1;
        }
        path.reverse();
        path
    }

    let mut root = Agg::default();
    for s in spans {
        let dur = s.dur_us();
        let covered = child_time.get(&s.id).copied().unwrap_or(0);
        let mut node = &mut root;
        for name in path_of(s, &by_id) {
            node = node.children.entry(name.to_owned()).or_default();
        }
        node.total_us += dur;
        node.self_us += dur.saturating_sub(covered);
        node.calls += 1;
        node.durations.record(dur as f64 / 1000.0);
    }
    root.into_node(String::new()).children.into_iter().fold(
        Profile { roots: Vec::new() },
        |mut p, n| {
            p.roots.push(n);
            p
        },
    )
}

fn fmt_ms(us: u64) -> String {
    format!("{:.2}", us as f64 / 1000.0)
}

fn fmt_q(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |v| format!("{v:.2}"))
}

/// Render the tree as the `--profile` report. `wall_ms` is the measured
/// wall time of the run the trace came from; the header states how much
/// of it the tree attributes to specific regions.
pub fn render_profile(profile: &Profile, wall_ms: f64) -> String {
    let attributed_ms = profile.attributed_self_us() as f64 / 1000.0;
    let pct = if wall_ms > 0.0 {
        100.0 * attributed_ms / wall_ms
    } else {
        0.0
    };
    let mut out =
        format!("profile: wall {wall_ms:.2} ms, attributed {attributed_ms:.2} ms ({pct:.1}%)\n");
    out.push_str(&format!(
        "  {:<42} {:>10} {:>10} {:>7} {:>8} {:>8} {:>8} {:>8}\n",
        "span", "total ms", "self ms", "calls", "p50", "p90", "p99", "max"
    ));
    fn walk(out: &mut String, node: &ProfileNode, depth: usize) {
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", node.name);
        let s = &node.durations_ms;
        out.push_str(&format!(
            "  {:<42} {:>10} {:>10} {:>7} {:>8} {:>8} {:>8} {:>8}\n",
            label,
            fmt_ms(node.total_us),
            fmt_ms(node.self_us),
            node.calls,
            fmt_q(s.quantile(0.5)),
            fmt_q(s.quantile(0.9)),
            fmt_q(s.quantile(0.99)),
            fmt_q(s.max()),
        ));
        for c in &node.children {
            walk(out, c, depth + 1);
        }
    }
    for root in &profile.roots {
        walk(&mut out, root, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            tid: 0,
            start_us,
            end_us,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span(1, 0, "run", 0, 1000),
            span(2, 1, "probe", 0, 300),
            span(3, 1, "compute", 300, 900),
        ];
        let p = build_profile(&spans);
        assert_eq!(p.roots.len(), 1);
        let run = &p.roots[0];
        assert_eq!(run.total_us, 1000);
        assert_eq!(run.self_us, 100);
        assert_eq!(run.children.len(), 2);
        // Children sorted by descending total.
        assert_eq!(run.children[0].name, "compute");
        assert_eq!(run.children[0].self_us, 600);
        assert_eq!(p.attributed_self_us(), 1000);
    }

    #[test]
    fn overlapping_children_clamp_self_at_zero() {
        // Two parallel workers each cover the parent's whole window.
        let spans = vec![
            span(1, 0, "stage", 0, 500),
            span(2, 1, "worker", 0, 500),
            span(3, 1, "worker", 0, 500),
        ];
        let p = build_profile(&spans);
        let stage = &p.roots[0];
        assert_eq!(stage.self_us, 0, "never negative");
        assert_eq!(stage.children[0].calls, 2);
        assert_eq!(stage.children[0].total_us, 1000);
    }

    #[test]
    fn same_name_different_parents_stay_separate() {
        let spans = vec![
            span(1, 0, "a", 0, 100),
            span(2, 0, "b", 100, 200),
            span(3, 1, "step", 0, 50),
            span(4, 2, "step", 100, 160),
        ];
        let p = build_profile(&spans);
        let a = p.roots.iter().find(|n| n.name == "a").expect("a");
        let b = p.roots.iter().find(|n| n.name == "b").expect("b");
        assert_eq!(a.children[0].total_us, 50);
        assert_eq!(b.children[0].total_us, 60);
    }

    #[test]
    fn orphan_spans_become_roots() {
        let spans = vec![span(5, 99, "lost", 0, 10)];
        let p = build_profile(&spans);
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].name, "lost");
    }

    #[test]
    fn render_reports_attribution_percentage() {
        let spans = vec![span(1, 0, "run", 0, 10_000)];
        let p = build_profile(&spans);
        let text = render_profile(&p, 10.0);
        assert!(text.starts_with("profile: wall 10.00 ms, attributed 10.00 ms (100.0%)"));
        assert!(text.contains("run"));
    }
}
