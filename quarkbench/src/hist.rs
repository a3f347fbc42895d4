//! Fixed-bucket log-scale latency histogram.
//!
//! Recording is an array increment: no allocation and no sort in the timed
//! loop, whatever the sample count. Buckets are [`SUB`] linear steps per
//! power of two of nanoseconds, so a reported percentile is at most
//! `1/SUB` (≈ 0.4 %) above the true sample.

use std::time::Duration;

/// Linear sub-buckets per octave.
const SUB: usize = 256;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Octaves above the first (values below `SUB` ns are exact); the top
/// bucket ends at 2^(SUB_BITS + OCTAVES) ns ≈ 70 s.
const OCTAVES: usize = 28;
const BUCKETS: usize = SUB * (OCTAVES + 1);

/// Latency histogram over nanosecond samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u32; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let octave = (63 - ns.leading_zeros()) - SUB_BITS;
    let sub = (ns >> octave) as usize - SUB;
    (SUB * (octave as usize + 1) + sub).min(BUCKETS - 1)
}

/// Upper edge (inclusive) of bucket `b`, in nanoseconds.
fn upper_edge(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let octave = (b / SUB - 1) as u32;
    let sub = (b % SUB + SUB) as u64;
    ((sub + 1) << octave) - 1
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Fold another histogram into this one (per-client histograms are
    /// merged after the run).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (0 < q ≤ 1) in microseconds: the upper edge of the
    /// bucket holding the sample of rank `ceil(q · n)`. `0.0` when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return upper_edge(b) as f64 / 1_000.0;
            }
        }
        unreachable!("rank ≤ total");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Rng;

    /// Sorted-vector oracle with the same rank convention.
    fn oracle_us(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1_000.0
    }

    #[test]
    fn quantiles_match_sorted_vector_oracle() {
        let mut rng = Rng::new(7);
        // Three shapes: uniform small, log-uniform over six decades, and a
        // bimodal mix like a read/write workload.
        let shapes: [&dyn Fn(&mut Rng) -> u64; 3] = [
            &|r| r.below(50_000),
            &|r| 10u64.pow(2 + r.below(6) as u32) + r.below(1_000),
            &|r| {
                if r.below(2) == 0 {
                    17_000 + r.below(900)
                } else {
                    1_400_000 + r.below(90_000)
                }
            },
        ];
        for shape in shapes {
            let mut h = Histogram::default();
            let mut samples: Vec<u64> = (0..20_000).map(|_| shape(&mut rng)).collect();
            for &s in &samples {
                h.record(Duration::from_nanos(s));
            }
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.99, 1.0] {
                let want = oracle_us(&samples, q);
                let got = h.quantile_us(q);
                assert!(got >= want, "q={q}: {got} < oracle {want}");
                assert!(
                    got <= want * (1.0 + 1.0 / SUB as f64) + 0.001,
                    "q={q}: {got} too far above oracle {want}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact_and_edges_are_monotone() {
        for ns in 0..SUB as u64 {
            assert_eq!(upper_edge(bucket_of(ns)), ns);
        }
        let mut last = 0;
        for b in 1..BUCKETS {
            assert!(upper_edge(b) > last, "bucket {b}");
            last = upper_edge(b);
            assert_eq!(bucket_of(upper_edge(b)), b);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for i in 0..1_000u64 {
            let d = Duration::from_nanos(i * 37 + 5);
            if i % 3 == 0 {
                a.record(d)
            } else {
                b.record(d)
            }
            both.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.quantile_us(0.5), both.quantile_us(0.5));
        assert_eq!(a.quantile_us(0.99), both.quantile_us(0.99));
    }
}
