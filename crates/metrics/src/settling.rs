//! Transient-response metrics: the settling time of a lock transient
//! (`ext-lock`).

/// Index after which `|e[n]| ≤ band` holds for the rest of the record
/// (i.e. the settling time in samples), or `None` if the signal is still
/// outside the band at the end.
pub fn settling_time(errors: &[f64], band: f64) -> Option<usize> {
    assert!(band >= 0.0, "band must be non-negative");
    match errors.iter().rposition(|e| e.abs() > band) {
        None => Some(0),
        Some(last_bad) if last_bad + 1 < errors.len() => Some(last_bad + 1),
        Some(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settling_time_basic() {
        let e = [5.0, 3.0, 1.5, 0.4, 0.2, 0.1, 0.3];
        assert_eq!(settling_time(&e, 0.5), Some(3));
        assert_eq!(settling_time(&e, 10.0), Some(0));
        // still outside band at the end:
        assert_eq!(settling_time(&e, 0.25), None);
    }

    #[test]
    fn settling_time_last_sample_bad() {
        assert_eq!(settling_time(&[0.0, 0.0, 9.0], 0.5), None);
    }
}
