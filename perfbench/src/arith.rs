//! The benchmark's own arithmetic: medians, the paper-error aggregate
//! and knee selection.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric-mean factor error of modeled/paper `ratios`, in percent:
/// `exp(mean |ln r|) - 1`. A cell 2× too slow and one 2× too fast both
/// count as a factor of 2; 0 means every cell matches the paper.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive ratio.
pub fn paper_err_pct(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "no paper cells");
    assert!(ratios.iter().all(|&r| r > 0.0), "ratios are positive");
    let mean_log = ratios.iter().map(|r| r.ln().abs()).sum::<f64>() / ratios.len() as f64;
    (mean_log.exp() - 1.0) * 100.0
}

/// One point of a rate sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Offered rate, requests per second of modeled time.
    pub rate_rps: u64,
    /// p99 total latency, modeled cycles.
    pub p99_cycles: u64,
    /// Requests dropped at admission.
    pub dropped: u64,
}

/// The highest swept rate that meets the SLO on p99 with no drops, or
/// `None` when no rate does. Points may come in any order, and a rate
/// above a failing one still counts if it passes.
pub fn knee_rps(points: &[SweepPoint], slo_cycles: u64) -> Option<u64> {
    points
        .iter()
        .filter(|p| p.dropped == 0 && p.p99_cycles <= slo_cycles)
        .map(|p| p.rate_rps)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn paper_error_is_symmetric_in_direction() {
        assert!(paper_err_pct(&[1.0, 1.0]).abs() < 1e-12);
        assert!((paper_err_pct(&[2.0]) - 100.0).abs() < 1e-9);
        assert!((paper_err_pct(&[0.5]) - 100.0).abs() < 1e-9);
        assert!((paper_err_pct(&[2.0, 0.5, 1.0, 1.0]) - (2f64.sqrt() - 1.0) * 100.0).abs() < 1e-9);
    }

    #[test]
    fn paper_error_of_the_seed_ledger_is_about_51_percent() {
        // Modeled/paper ratios of the nine Table II/III cells at the
        // commit that introduced this benchmark (rounded to 3 places).
        let ratios = [
            2.180, 1.348, 1.510, 1.177, 0.465, 1.065, 0.753, 0.596, 1.539,
        ];
        let err = paper_err_pct(&ratios);
        assert!((err - 51.3).abs() < 1.0, "{err}");
    }

    #[test]
    fn knee_is_the_highest_passing_rate() {
        let p = |rate_rps, p99_cycles, dropped| SweepPoint {
            rate_rps,
            p99_cycles,
            dropped,
        };
        let slo = 2_000_000;
        let sweep = [
            p(150, 3_000_000, 7),
            p(50, 1_000_000, 0),
            p(100, 1_900_000, 0),
            p(120, 2_000_000, 0), // exactly at the SLO passes
            p(130, 1_999_999, 1), // any drop fails
        ];
        assert_eq!(knee_rps(&sweep, slo), Some(120));
        assert_eq!(knee_rps(&[p(10, 2_000_001, 0)], slo), None);
        assert_eq!(knee_rps(&[], slo), None);
    }
}
