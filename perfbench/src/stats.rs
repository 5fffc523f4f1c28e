//! Order statistics over op latencies: nearest-rank percentiles, the
//! tail-percentile rule, and where a percentile sits among the op
//! classes (latency modes) of a mix.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first. The ladder stops at p99:
/// p99.9 needs 10 000 ops, which `table2_compiled` reaches only on a
/// fast host, so its tail would flip between the two from run to run.
pub const TAIL_LADDER: [f64; 3] = [0.99, 0.95, 0.90];

/// Rank (0-based index into the sorted sample) of the nearest-rank
/// percentile `q` of `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile `q` of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A reported tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (0.99 = p99).
    pub q: f64,
    /// Its rank in the sorted sample.
    pub rank: usize,
    /// Its value.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when the sample is
/// too small for any of them — never a fallback to a lower percentile
/// such as the median.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&q| {
        let r = rank(n, q);
        let beyond = n - 1 - r;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            q,
            rank: r,
            value: sorted[r],
            beyond,
        })
    })
}

/// Where one rank of a mode-tagged, latency-sorted sample sits: the
/// mode that holds the rank's neighbourhood, how pure that
/// neighbourhood is, and how many ranks separate the rank from the
/// nearest op of another mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ModePosition {
    /// Majority mode of the ops within `n / 40` ranks (at least 5)
    /// either side of the rank.
    pub class: &'static str,
    /// Ranks to the nearest op of another mode (the sample size when
    /// the whole sample is one mode).
    pub margin: usize,
    /// Share of that neighbourhood in the majority mode: near 1 inside
    /// a mode, near 0.5 on a boundary between two, even where the
    /// modes' latency ranges overlap.
    pub purity: f64,
}

/// Locate `rank` among the modes of `tagged` (sorted by latency).
pub fn mode_position(tagged: &[(f64, &'static str)], rank: usize) -> ModePosition {
    let k = (tagged.len() / 40).max(5);
    let hood = &tagged[rank.saturating_sub(k)..(rank + k + 1).min(tagged.len())];
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for t in hood {
        match counts.iter_mut().find(|c| c.0 == t.1) {
            Some(c) => c.1 += 1,
            None => counts.push((t.1, 1)),
        }
    }
    let (class, same) = counts
        .into_iter()
        .max_by_key(|c| c.1)
        .expect("a neighbourhood holds the rank itself");
    let other = |t: &&(f64, &'static str)| t.1 != class;
    let below = tagged[..=rank].iter().rev().position(|t| other(&t));
    let above = tagged[rank..].iter().position(|t| other(&t));
    let margin = match (below, above) {
        (None, None) => tagged.len(),
        (Some(d), None) | (None, Some(d)) => d,
        (Some(b), Some(a)) => b.min(a),
    };
    ModePosition {
        class,
        margin,
        purity: same as f64 / hood.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p99 has 1 beyond, p95 has 5, p90 has 10.
        let t = tail(&ramp(100)).expect("p90 qualifies");
        assert_eq!(t.q, 0.90);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 90.0);
        // 1000 samples: p99 has exactly 10 beyond.
        let t = tail(&ramp(1000)).expect("p99 qualifies");
        assert_eq!(t.q, 0.99);
        assert_eq!(t.beyond, 10);
        // 20000 samples: still p99, the top of the ladder.
        assert_eq!(tail(&ramp(20_000)).map(|t| t.q), Some(0.99));
    }

    #[test]
    fn too_small_a_sample_reports_no_tail() {
        // 99 samples: p90 has only 9 beyond. No fallback to p50.
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&ramp(1)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn mode_position_measures_distance_to_the_mode_boundary() {
        let tagged: Vec<(f64, &'static str)> = (0..10)
            .map(|i| (i as f64, if i < 7 { "light" } else { "heavy" }))
            .collect();
        assert_eq!(
            mode_position(&tagged, 2),
            ModePosition {
                class: "light",
                margin: 5,
                purity: 7.0 / 8.0,
            }
        );
        assert_eq!(mode_position(&tagged, 9).margin, 3);
        // Rank 7 is the first heavy op, but its neighbourhood is mostly
        // light: it sits on the boundary.
        let edge = mode_position(&tagged, 7);
        assert_eq!((edge.class, edge.margin), ("light", 0));
        // One stray op does not change the mode a rank sits in.
        let mut stray = tagged.clone();
        stray[2].1 = "heavy";
        let p = mode_position(&stray, 2);
        assert_eq!((p.class, p.margin), ("light", 0));
        let one: Vec<(f64, &'static str)> = (0..4).map(|i| (i as f64, "x")).collect();
        assert_eq!(mode_position(&one, 1).margin, 4);
        assert_eq!(mode_position(&one, 1).purity, 1.0);
    }
}
