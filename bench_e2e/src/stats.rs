//! Order statistics and process counters shared by every workload.

/// Median of `values` (mean of the two middle values for an even
/// count). Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean of `values`; 0.0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0.0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

/// The highest percentile of an `n`-sample timing that still has at
/// least ten samples beyond it (choosing-metrics §1), capped at p99.
pub fn supported_tail(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Interquartile range as a share of the median, with the quartiles
/// of Python's `statistics.quantiles(values, n=4)` (exclusive method),
/// which is how the benchmark contract measures run-to-run spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, linearly interpolated,
        // clamped exactly as CPython clamps it.
        let (j, delta) = ((k * (n + 1)) / 4, (k * (n + 1)) % 4);
        let j = j.clamp(1, n - 1);
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (q(3) - q(1)) / med.abs()
}

/// CPU time the process's live threads have run so far, in seconds:
/// the per-thread `schedstat` run times (nanosecond resolution, where
/// `/proc/self/stat` only has 10 ms ticks). A thread's time leaves the
/// sum when it exits, so take differences only across spans in which
/// no busy thread ends. Falls back to the tick counters where the
/// kernel keeps no scheduler statistics.
pub fn process_cpu_s() -> f64 {
    let mut ns = 0u64;
    let mut seen = false;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            if let Some(run) = stat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
            {
                ns += run;
                seen = true;
            }
        }
    }
    if seen {
        return ns as f64 / 1e9;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are
    // counted from the closing parenthesis, so index 0 is field 3 and
    // utime and stime (fields 14 and 15) are at 11 and 12, in 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Resident set size right now (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(10), 0.5);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(100_000), 0.99);
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(rss_mb() > 0.0);
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "busy work must show as CPU time");
    }
}
