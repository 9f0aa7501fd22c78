//! Additional vector access patterns beyond the paper's three families:
//! matrix transpose, stencil sweeps, and indexed gather — the wider
//! numerical-kernel population a production vector cache would face.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::program::{signed_stride, Program, VectorAccess};

/// Out-of-place transpose `B = Aᵀ` of a `p × q` column-major matrix:
/// reads `A` column-wise (stride 1) paired with writes to `B` row-wise
/// (stride `q`) — every pass mixes a friendly and a hostile stride, like
/// the paper's row/column Figure 11 but with both streams live at once.
///
/// # Panics
///
/// Panics if either dimension is zero, or if `q` exceeds `i64::MAX` (a
/// raw cast would wrap it into a negative, backwards-walking stride).
#[must_use]
pub fn transpose_trace(a_base: u64, b_base: u64, p: u64, q: u64) -> Program {
    assert!(p > 0 && q > 0, "matrix dimensions must be positive");
    let row_stride = signed_stride(q);
    let mut prog = Program::new(format!("transpose[{p}x{q}]"), Vec::new());
    for j in 0..q {
        // Column j of A (stride 1) is row j of B (stride q).
        let mut read = VectorAccess::single(a_base + j * p, 1, p, 0);
        read.paired_with_next = true;
        prog.accesses.push(read);
        prog.accesses
            .push(VectorAccess::single(b_base + j, row_stride, p, 1));
    }
    prog
}

/// Five-point stencil sweep over a `p × q` column-major grid: for each
/// interior column, loads the column itself and its four neighbours
/// (north/south at ±1, east/west at ±p). Classic iterative-solver access:
/// five unit-stride streams whose *bases* are near-collinear, probing
/// cross-interference rather than stride pathology.
///
/// # Panics
///
/// Panics if the grid has no interior (`p < 3` or `q < 3`).
#[must_use]
pub fn stencil5_trace(base: u64, p: u64, q: u64) -> Program {
    assert!(p >= 3 && q >= 3, "stencil needs an interior");
    let mut prog = Program::new(format!("stencil5[{p}x{q}]"), Vec::new());
    for j in 1..q - 1 {
        let centre = base + j * p + 1;
        let len = p - 2;
        // Centre, north (−1), south (+1): one contiguous region — model as
        // three overlapping unit-stride streams; west/east are a column
        // away on either side. The five loads of a column group happen
        // concurrently (one fused stencil update), so all but the last are
        // paired with their successor, the same convention as
        // `transpose_trace` — not five sequential passes.
        let columns = [
            (0u32, centre),
            (1, centre - 1),
            (2, centre + 1),
            (3, centre - p),
            (4, centre + p),
        ];
        for (slot, (stream, col_base)) in columns.iter().enumerate() {
            let mut access = VectorAccess::single(*col_base, 1, len, *stream);
            access.paired_with_next = slot + 1 < columns.len();
            prog.accesses.push(access);
        }
    }
    prog
}

/// Indexed gather: `n` loads at pseudo-random word addresses in
/// `[base, base + span)` — sparse matrix / table-lookup traffic with no
/// exploitable stride at all, the regime where *neither* mapping helps
/// and both caches should agree (a negative control for experiments).
///
/// # Panics
///
/// Panics if `span` is zero: an empty address window admits no gather,
/// and fabricating addresses instead (the old `span.max(1)` clamp) would
/// corrupt the trace's role as a negative control.
#[must_use]
pub fn gather_trace(base: u64, span: u64, n: u64, seed: u64) -> Program {
    assert!(span > 0, "gather span must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let accesses = (0..n)
        .map(|_| VectorAccess::single(base + rng.random_range(0..span), 1, 1, 0))
        .collect();
    Program::new(format!("gather[n={n}, span={span}]"), accesses)
}

/// Integer Zipf-ish weights for `bins` histogram bins: bin `b` has
/// weight `⌊SCALE / (b + 1)⌋`, a harmonic (`s = 1`) skew. Exported so
/// the probabilistic analyzer models *exactly* the distribution
/// [`histogram_trace`] samples — one table, two consumers, no drift.
///
/// # Panics
///
/// Panics if `bins` is zero or so large that a weight underflows to
/// zero (`bins ≥ SCALE`): every bin must stay reachable.
#[must_use]
pub fn zipf_weights(bins: u64) -> Vec<u64> {
    const SCALE: u64 = 1 << 20;
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(bins < SCALE, "too many bins for the weight scale");
    (0..bins).map(|b| SCALE / (b + 1)).collect()
}

/// Histogram scatter: `n` updates at bin addresses drawn from the skewed
/// seeded distribution of [`zipf_weights`] — the classic data-dependent
/// scatter where a few hot bins absorb most of the traffic. Bin `b`
/// lives at `base + b * bin_words`; each update touches the bin's first
/// word. `Histogram::new(base, bins, bin_words).trace(n, seed)` draws the
/// same trace from a table built once.
///
/// # Panics
///
/// Panics if `bin_words` is zero, or via [`zipf_weights`] on a bad bin
/// count.
#[must_use]
pub fn histogram_trace(base: u64, bins: u64, bin_words: u64, n: u64, seed: u64) -> Program {
    Histogram::new(base, bins, bin_words).trace(n, seed)
}

/// The generator behind [`histogram_trace`], with its cumulative Zipf
/// weights built once, so that many seeded traces of one table pay for
/// the table once.
#[derive(Debug, Clone)]
pub struct Histogram {
    base: u64,
    bin_words: u64,
    /// Bin `b`'s entry is the sum of the weights of bins `0..=b`.
    cumulative: Vec<u64>,
}

impl Histogram {
    /// The scatter over `bins` bins of `bin_words` words from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_words` is zero, or via [`zipf_weights`] on a bad
    /// bin count.
    #[must_use]
    pub fn new(base: u64, bins: u64, bin_words: u64) -> Self {
        assert!(bin_words > 0, "bins must be at least one word wide");
        let cumulative = zipf_weights(bins)
            .into_iter()
            .scan(0u64, |total, w| {
                *total += w;
                Some(*total)
            })
            .collect();
        Self {
            base,
            bin_words,
            cumulative,
        }
    }

    /// `n` seeded updates, exactly those of [`histogram_trace`] with the
    /// same table and seed.
    #[must_use]
    pub fn trace(&self, n: u64, seed: u64) -> Program {
        let bins = self.cumulative.len() as u64;
        let total = self.cumulative[self.cumulative.len() - 1];
        let mut rng = StdRng::seed_from_u64(seed);
        let accesses = (0..n)
            .map(|_| {
                let r = rng.random_range(0..total);
                // First bin whose cumulative weight exceeds r.
                let bin = self.cumulative.partition_point(|&c| c <= r) as u64;
                VectorAccess::single(self.base + bin * self.bin_words, 1, 1, 0)
            })
            .collect();
        Program::new(format!("histogram[n={n}, bins={bins}]"), accesses)
    }
}

/// Sparse SpMV-style row-gather: `n` loads, each at the head of a
/// uniformly random row of a dense `rows × row_words` matrix — the
/// access stream of gathering `x[col[j]]` where the column indices land
/// on row boundaries. Unlike [`gather_trace`]'s flat span, the support
/// is *strided*: every address is `base + r * row_words`, so a
/// power-of-two `row_words` folds the whole support onto a handful of
/// power-of-two cache sets while a Mersenne-prime mapper spreads it.
///
/// # Panics
///
/// Panics if `rows` or `row_words` is zero.
#[must_use]
pub fn spmv_gather_trace(base: u64, rows: u64, row_words: u64, n: u64, seed: u64) -> Program {
    assert!(rows > 0, "matrix needs at least one row");
    assert!(row_words > 0, "rows must be at least one word wide");
    let mut rng = StdRng::seed_from_u64(seed);
    let accesses = (0..n)
        .map(|_| {
            let r = rng.random_range(0..rows);
            VectorAccess::single(base + r * row_words, 1, 1, 0)
        })
        .collect();
    Program::new(
        format!("spmv-gather[n={n}, rows={rows}, row_words={row_words}]"),
        accesses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_pairs_column_with_row() {
        let prog = transpose_trace(0, 10_000, 8, 4);
        assert_eq!(prog.accesses.len(), 8);
        let read = &prog.accesses[0];
        let write = &prog.accesses[1];
        assert!(read.paired_with_next);
        assert_eq!((read.base, read.stride, read.length), (0, 1, 8));
        assert_eq!((write.base, write.stride, write.length), (10_000, 4, 8));
        // Together the writes cover B exactly once.
        let mut written: Vec<u64> = prog
            .accesses
            .iter()
            .filter(|a| a.stream == 1)
            .flat_map(|a| a.words())
            .collect();
        written.sort_unstable();
        assert_eq!(written, (10_000..10_032).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn transpose_rejects_empty() {
        let _ = transpose_trace(0, 0, 0, 4);
    }

    #[test]
    fn stencil_touches_five_streams_per_column() {
        let prog = stencil5_trace(0, 10, 5);
        // 3 interior columns × 5 streams.
        assert_eq!(prog.accesses.len(), 15);
        let streams: std::collections::HashSet<u32> =
            prog.accesses.iter().map(|a| a.stream).collect();
        assert_eq!(streams.len(), 5);
        // All unit stride, all length p - 2.
        assert!(prog.accesses.iter().all(|a| a.stride == 1 && a.length == 8));
    }

    #[test]
    fn stencil_column_groups_are_concurrent_streams() {
        let prog = stencil5_trace(0, 10, 5);
        // Within each 5-access column group the first four loads are
        // paired with their successor (one fused update, five live
        // streams); the group's last access closes the chain, so groups
        // stay independent.
        for (i, access) in prog.accesses.iter().enumerate() {
            let in_group = i % 5;
            assert_eq!(
                access.paired_with_next,
                in_group < 4,
                "access {i} (stream {})",
                access.stream
            );
        }
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn stencil_needs_interior() {
        let _ = stencil5_trace(0, 2, 5);
    }

    #[test]
    fn gather_is_deterministic_and_bounded() {
        let a = gather_trace(100, 1000, 64, 1);
        let b = gather_trace(100, 1000, 64, 1);
        assert_eq!(a, b);
        assert!(a.accesses.iter().all(|x| (100..1100).contains(&x.base)));
        assert_ne!(a, gather_trace(100, 1000, 64, 2));
    }

    #[test]
    #[should_panic(expected = "span must be positive")]
    fn gather_rejects_zero_span() {
        // A zero-span gather used to clamp to span 1 and fabricate
        // addresses; it must refuse like its sibling generators.
        let _ = gather_trace(100, 0, 64, 1);
    }

    #[test]
    fn zipf_weights_are_harmonic_and_positive() {
        let w = zipf_weights(4);
        assert_eq!(w, vec![1 << 20, 1 << 19, (1 << 20) / 3, 1 << 18]);
        assert!(zipf_weights(10_000).iter().all(|&x| x > 0));
    }

    #[test]
    fn histogram_is_deterministic_bounded_and_skewed() {
        let a = histogram_trace(64, 256, 8, 2048, 7);
        assert_eq!(a, histogram_trace(64, 256, 8, 2048, 7));
        assert_ne!(a, histogram_trace(64, 256, 8, 2048, 8));
        assert_eq!(a.accesses.len(), 2048);
        // Every update lands on a bin head inside the table.
        assert!(a
            .accesses
            .iter()
            .all(|x| x.base >= 64 && x.base < 64 + 256 * 8 && (x.base - 64) % 8 == 0));
        // The skew is real: bin 0 absorbs far more than the average
        // 2048/256 = 8 updates a uniform scatter would give it.
        let hot = a.accesses.iter().filter(|x| x.base == 64).count();
        assert!(hot > 100, "bin 0 got only {hot} of 2048 updates");
    }

    #[test]
    fn one_histogram_table_draws_what_each_fresh_table_draws() {
        // The per-call draw the table replaced: cumulative weights
        // rebuilt, then one partition-point search per update.
        fn rebuilt_per_call(base: u64, bins: u64, bin_words: u64, n: u64, seed: u64) -> Vec<u64> {
            let mut cumulative = Vec::new();
            let mut total = 0u64;
            for w in zipf_weights(bins) {
                total += w;
                cumulative.push(total);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let r = rng.random_range(0..total);
                    base + cumulative.partition_point(|&c| c <= r) as u64 * bin_words
                })
                .collect()
        }
        for (base, bins, bin_words) in [(0, 16_384, 8), (64, 256, 3), (5, 1, 1)] {
            let table = Histogram::new(base, bins, bin_words);
            for seed in [0, 1, 42, 0xC0FF_EE00, u64::MAX] {
                let trace = table.trace(512, seed);
                assert_eq!(trace, histogram_trace(base, bins, bin_words, 512, seed));
                let words: Vec<u64> = trace.accesses.iter().map(|a| a.base).collect();
                assert_eq!(words, rebuilt_per_call(base, bins, bin_words, 512, seed));
            }
        }
    }

    #[test]
    fn spmv_gather_hits_row_heads_only() {
        let a = spmv_gather_trace(0, 64, 4096, 512, 3);
        assert_eq!(a, spmv_gather_trace(0, 64, 4096, 512, 3));
        assert_eq!(a.accesses.len(), 512);
        assert!(a
            .accesses
            .iter()
            .all(|x| x.base % 4096 == 0 && x.base < 64 * 4096));
        // All rows are reachable and many are hit.
        let distinct: std::collections::HashSet<u64> = a.accesses.iter().map(|x| x.base).collect();
        assert!(distinct.len() > 32, "only {} distinct rows", distinct.len());
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn spmv_gather_rejects_zero_rows() {
        let _ = spmv_gather_trace(0, 0, 4096, 8, 1);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = histogram_trace(0, 0, 8, 8, 1);
    }
}
