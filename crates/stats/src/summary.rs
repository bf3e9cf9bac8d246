//! Mean helpers for figure generation.
//!
//! All of the paper's performance figures are *normalized to the
//! baseline*, then averaged with the arithmetic and geometric means
//! below. Normalizing and leaving microbenchmarks out of the means is
//! the job of the figure renderers in `chats-runner`.

/// Arithmetic mean; `0.0` for an empty slice.
#[must_use]
pub fn amean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean; `0.0` for an empty slice.
///
/// # Panics
///
/// Panics if any value is non-positive.
#[must_use]
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geometric mean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amean_basic() {
        assert_eq!(amean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(amean(&[]), 0.0);
    }

    #[test]
    fn gmean_basic() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn gmean_le_amean() {
        let v = [0.5, 1.5, 2.5, 4.0];
        assert!(gmean(&v) <= amean(&v));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        let _ = gmean(&[1.0, 0.0]);
    }
}
