//! Order statistics over timing samples, and the small JSON helpers the
//! result files are built with.

use serde::Value;

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Distance between the first and third quartile as a share of the median,
/// computed as Python's `statistics.quantiles(values, n=4)` does (exclusive
/// method), which is what the acceptance rule for this benchmark uses.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let n = samples.len();
    let med = median(samples);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / med.abs()
}

/// Times `op` once per call, `iters` times after `warmup` untimed calls, and
/// returns the per-call milliseconds.
pub fn time_ms(iters: usize, warmup: usize, mut op: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        op();
    }
    (0..iters)
        .map(|_| {
            let t = std::time::Instant::now();
            op();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON string.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Looks a key up in a JSON object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
