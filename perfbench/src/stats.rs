//! Order statistics over measured samples.

/// The `q` quantile (0..=1) of unsorted samples by the Harrell–Davis
/// estimator: a Beta-weighted mean of all order statistics rather than
/// one or two of them. A tail made of a few slow requests then moves
/// smoothly with their count instead of jumping between them. 0 for an
/// empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if n == 1 || q <= 0.0 {
        return s[0];
    }
    if q >= 1.0 {
        return s[n - 1];
    }
    let nf = n as f64;
    let (a, b) = ((nf + 1.0) * q, (nf + 1.0) * (1.0 - q));
    // The weights vanish outside a few standard deviations of rank q·n;
    // the mass left outside the window goes to its edge samples.
    let sd = (nf * q * (1.0 - q)).sqrt() + 2.0;
    let lo = (q * nf - 12.0 * sd).floor().max(0.0) as usize;
    let hi = ((q * nf + 12.0 * sd).ceil() as usize).min(n);
    let mut prev = inc_beta(lo as f64 / nf, a, b);
    let mut acc = prev * s[lo];
    for i in lo + 1..=hi {
        let cur = inc_beta(i as f64 / nf, a, b);
        acc += (cur - prev) * s[i - 1];
        prev = cur;
    }
    acc + (1.0 - prev) * s[hi - 1]
}

/// Median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The middle element (mean of the two middle ones for an even count),
/// which no single outlier can move; 0 for an empty set.
pub fn middle(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => samples[n / 2],
        _ => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Regularized incomplete beta function I_x(a, b).
fn inc_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x and I_x(2, 1) = x².
        assert!((inc_beta(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((inc_beta(0.3, 2.0, 1.0) - 0.09).abs() < 1e-12);
        // Symmetry: I_0.5(a, a) = 1/2, also for large a.
        assert!((inc_beta(0.5, 3000.0, 3000.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn middle_ignores_one_outlier() {
        assert_eq!(middle(vec![3.0, 1.0, 1e9, 2.0, 2.5]), 2.5);
        assert_eq!(middle(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(middle(Vec::new()), 0.0);
    }

    #[test]
    fn quantiles_of_simple_sets() {
        let xs: Vec<f64> = (1..=101).map(f64::from).rev().collect();
        assert!((median(&xs) - 51.0).abs() < 1e-9);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 101.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        let p99 = quantile(&xs, 0.99);
        assert!((99.0..101.0).contains(&p99), "{p99}");
    }

    #[test]
    fn a_tail_moves_smoothly_with_its_count() {
        // 1000 fast samples plus k slow ones: the p99 estimate rises
        // steadily with k instead of jumping from 1 to 100 at once.
        let p99 = |k: usize| {
            let mut xs = vec![1.0; 1000];
            xs.extend(std::iter::repeat_n(100.0, k));
            quantile(&xs, 0.99)
        };
        let steps: Vec<f64> = (6..=14).map(p99).collect();
        assert!(steps.windows(2).all(|w| w[1] > w[0]), "{steps:?}");
        assert!(steps.windows(2).all(|w| w[1] - w[0] < 40.0), "{steps:?}");
    }
}
