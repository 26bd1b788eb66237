//! Summary statistics: nearest-rank percentiles, the tail-percentile rule,
//! the layer decomposition with its explicit remainder, and the corpus
//! hash.

/// Percentiles a latency report may name, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-percentile (`0 < q <= 1`) of ascending `sorted`
/// samples: the smallest sample with at least a `q` share of all samples
/// at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of the `q`-percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `q`-percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for even the median.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Median of unsorted samples (the lower middle for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The arithmetic mean, `0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The `q`-percentile of each chunk of consecutive samples of `in_order`,
/// and the lowest of those: the tail of the quietest stretch of traffic;
/// with the number of chunks. A host that stalls its virtual CPUs now and
/// then lifts the tails of the chunks it hits and leaves the others alone,
/// while a tail the code itself causes lifts every chunk.
///
/// Runs of `group` consecutive samples share their fate (a closed loop's
/// outstanding window, which one stall delays together), so a chunk is
/// `group` times the fewest samples that leave [`MIN_BEYOND`] beyond the
/// percentile. Falls back to the percentile of all samples, as one chunk,
/// when there are too few for even one chunk.
///
/// # Panics
/// Panics on an empty slice.
pub fn quietest_chunk_percentile(in_order: &[f64], q: f64, group: usize) -> (f64, usize) {
    let size = (1..=in_order.len())
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .map_or(usize::MAX, |n| n.saturating_mul(group.max(1)));
    let chunks = (in_order.len() / size).max(1);
    let size = in_order.len() / chunks;
    let lowest = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                in_order.len()
            } else {
                (c + 1) * size
            };
            let mut chunk = in_order[c * size..end].to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile(&chunk, q)
        })
        .fold(f64::INFINITY, f64::min);
    (lowest, chunks)
}

/// The verdicts and server CPU time between two consecutive CPU samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Verdicts that arrived inside the window.
    pub docs: u64,
    /// Seconds from the window's first arrival to its last.
    pub span: f64,
    /// Body bytes of every arrival after the first.
    pub bytes_after_first: u64,
    /// Server on-CPU ns spent inside the window.
    pub cpu_ns: u64,
}

impl Window {
    /// Arrivals per second: the intervals between arrivals over their
    /// total length, which a fixed-length window would round to whole
    /// counts.
    pub fn docs_per_s(&self) -> f64 {
        (self.docs - 1) as f64 / self.span
    }

    /// Body bytes per second over the same intervals.
    pub fn bytes_per_s(&self) -> f64 {
        self.bytes_after_first as f64 / self.span
    }

    /// Server CPU ns per verdict.
    pub fn cpu_ns_per_doc(&self) -> f64 {
        self.cpu_ns as f64 / self.docs as f64
    }
}

/// Splits `arrivals` (seconds, body bytes) into the windows between
/// consecutive `marks` (seconds, cumulative server CPU ns), both sorted by
/// time. Arrivals outside the first and last mark fall in no window, and
/// windows with fewer than two arrivals are dropped.
pub fn windows(marks: &[(f64, u64)], arrivals: &[(f64, usize)]) -> Vec<Window> {
    marks
        .windows(2)
        .filter_map(|pair| {
            let (start, cpu0) = pair[0];
            let (end, cpu1) = pair[1];
            let inside: Vec<(f64, usize)> = arrivals
                .iter()
                .copied()
                .filter(|(t, _)| *t >= start && *t < end)
                .collect();
            let (first, last) = (inside.first()?.0, inside.last()?.0);
            (last > first).then(|| Window {
                docs: inside.len() as u64,
                span: last - first,
                bytes_after_first: inside[1..].iter().map(|&(_, b)| b as u64).sum(),
                cpu_ns: cpu1.saturating_sub(cpu0),
            })
        })
        .collect()
}

/// An end-to-end time per document split into named layer shares plus the
/// unexplained remainder; the parts add up to the whole by construction.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The end-to-end time per document, in µs.
    pub e2e_us: f64,
    /// Each layer's self time per document, in µs.
    pub layers: Vec<(&'static str, f64)>,
    /// `e2e_us` minus the sum of `layers`.
    pub remainder_us: f64,
}

impl Decomposition {
    /// Splits `e2e_us` into `layers` and whatever they leave unexplained.
    pub fn new(e2e_us: f64, layers: Vec<(&'static str, f64)>) -> Self {
        let explained: f64 = layers.iter().map(|(_, us)| us).sum();
        Decomposition {
            e2e_us,
            layers,
            remainder_us: e2e_us - explained,
        }
    }

    /// Sum of the layer shares and the remainder; equals `e2e_us` up to
    /// floating-point rounding.
    pub fn total_us(&self) -> f64 {
        self.layers.iter().map(|(_, us)| us).sum::<f64>() + self.remainder_us
    }

    /// The remainder's share of the end-to-end time.
    pub fn remainder_share(&self) -> f64 {
        self.remainder_us / self.e2e_us
    }
}

/// FNV-1a over a sequence of byte strings, length-prefixed so that moving
/// bytes between neighbours changes the hash.
#[derive(Clone, Copy, Debug)]
pub struct CorpusHash(u64);

impl Default for CorpusHash {
    fn default() -> Self {
        CorpusHash(0xcbf2_9ce4_8422_2325)
    }
}

impl CorpusHash {
    /// Mixes one item into the hash.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far, as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99.9 of 10 000 samples has exactly ten beyond it.
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(beyond(10_000, 0.999), 10);
        // One fewer sample leaves only nine beyond p99.9: fall back to p99.
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn quietest_chunk_percentile_skips_stalled_chunks() {
        // 3 000 samples make three chunks of 1 000. Stalls lift the tails of
        // the first two chunks but not that of the quiet third.
        let mut samples: Vec<f64> = (0..3_000).map(|i| f64::from(i % 1_000)).collect();
        for s in &mut samples[0..100] {
            *s = 1e6;
        }
        for s in &mut samples[1_000..1_020] {
            *s = 5e5;
        }
        let (p99, chunks) = quietest_chunk_percentile(&samples, 0.99, 1);
        assert_eq!(chunks, 3);
        assert_eq!(p99, 989.0);
        // A tail in every chunk is reported.
        for c in 0..3 {
            for s in &mut samples[c * 1_000 + 500..c * 1_000 + 520] {
                *s = 7e3;
            }
        }
        assert_eq!(quietest_chunk_percentile(&samples, 0.99, 1).0, 7e3);
        // Too few samples for one full chunk: the whole set is one chunk.
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(quietest_chunk_percentile(&few, 0.99, 1), (50.0, 1));
        // Samples in groups of 64 need 64 times the chunk size.
        let many = vec![1.0; 150_000];
        assert_eq!(quietest_chunk_percentile(&many, 0.99, 1).1, 150);
        assert_eq!(quietest_chunk_percentile(&many, 0.99, 64).1, 2);
    }

    #[test]
    fn windows_split_arrivals_and_cpu_between_marks() {
        let marks = [(0.0, 100), (1.0, 600), (2.0, 700), (3.0, 800)];
        let arrivals = [
            (0.5, 10),
            (0.75, 20),
            (1.0, 5),
            (1.5, 7),
            (1.5, 1),
            (2.5, 99),
        ];
        let w = windows(&marks, &arrivals);
        // The third window holds a single arrival: no interval, no window.
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].docs, w[0].bytes_after_first, w[0].cpu_ns),
            (2, 20, 500)
        );
        assert_eq!(w[0].docs_per_s(), 4.0);
        assert_eq!(w[0].bytes_per_s(), 80.0);
        assert_eq!(w[0].cpu_ns_per_doc(), 250.0);
        assert_eq!(
            (w[1].docs, w[1].bytes_after_first, w[1].cpu_ns),
            (3, 8, 100)
        );
        assert_eq!(w[1].docs_per_s(), 4.0);
        // Marks taken at the same instant make no window.
        assert!(windows(&[(1.0, 0), (1.0, 5)], &arrivals).is_empty());
    }

    #[test]
    fn remainder_closes_the_sum() {
        let d = Decomposition::new(1080.0, vec![("socket", 42.5), ("service", 7.25)]);
        assert_eq!(d.remainder_us, 1030.25);
        assert!((d.total_us() - d.e2e_us).abs() < 1e-9);
        assert!(d.remainder_share() > 0.95);
        // Layers that overshoot the end-to-end time leave a negative
        // remainder rather than being clipped.
        let over = Decomposition::new(10.0, vec![("a", 8.0), ("b", 4.0)]);
        assert_eq!(over.remainder_us, -2.0);
        assert!((over.total_us() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn corpus_hash_separates_item_boundaries() {
        let mut a = CorpusHash::default();
        a.add(b"ab");
        a.add(b"c");
        let mut b = CorpusHash::default();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
