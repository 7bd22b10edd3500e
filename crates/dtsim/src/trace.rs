/// A recorded time series: one `(time, value)` pair per simulation step.
///
/// Produced by [`blocks::Probe`](crate::blocks::Probe).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    times: Vec<f64>,
    samples: Vec<f64>,
}

impl Trace {
    /// Append one sample.
    pub(crate) fn push(&mut self, time: f64, value: f64) {
        self.times.push(time);
        self.samples.push(value);
    }

    /// Recorded sample values in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterate over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.samples.iter().copied())
    }

    /// Discard all samples.
    pub(crate) fn clear(&mut self) {
        self.times.clear();
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_appends_and_clear_empties() {
        let mut t = Trace::default();
        t.push(0.0, 5.0);
        t.push(1.0, 6.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.samples(), &[5.0, 6.0]);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0.0, 5.0), (1.0, 6.0)]);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t, Trace::default());
    }
}
