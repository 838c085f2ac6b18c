//! The paper's two sparse data patterns (§V.B, Figures 8 and 9).
//!
//! * **Pattern 1 — uniform**: every rank's data size is drawn uniformly
//!   from `[0, 8 MB]`; the total is ≈50% of the dense volume. (The paper
//!   seeds C's `rand()` with `time(NULL)`; we use an explicit seed for
//!   reproducibility.)
//! * **Pattern 2 — Pareto**: most ranks hold (almost) no data while a few
//!   hold up to 8 MB; the total is ≈20% of the dense volume. Modelled as a
//!   zero-inflated Pareto distribution clipped at the maximum, sampled by
//!   inverse transform (no extra crates needed).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default per-rank maximum (and dense size): 8 MB.
pub const DEFAULT_MAX_BYTES: u64 = 8 << 20;

/// Pattern 1: uniform sizes in `[0, max_bytes]`, one per rank.
pub fn uniform_sizes(num_ranks: u32, max_bytes: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_ranks)
        .map(|_| rng.gen_range(0..=max_bytes))
        .collect()
}

/// Parameters of the zero-inflated, clipped Pareto of pattern 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoParams {
    /// Fraction of ranks with exactly zero bytes.
    pub zero_fraction: f64,
    /// Pareto scale (minimum nonzero value), bytes.
    pub scale: f64,
    /// Pareto shape `α`.
    pub alpha: f64,
    /// Clip ceiling, bytes (the paper's 8 MB).
    pub max_bytes: u64,
}

impl Default for ParetoParams {
    /// Calibrated so the expected total is ≈20% of the dense volume
    /// (`0.7 · x_m (1 + ln(M/x_m)) ≈ 1.6 MB` for `α = 1`, `M = 8 MB`).
    fn default() -> Self {
        ParetoParams {
            zero_fraction: 0.3,
            scale: 0.65 * 1024.0 * 1024.0,
            alpha: 1.0,
            max_bytes: DEFAULT_MAX_BYTES,
        }
    }
}

/// Pattern 2: zero-inflated clipped Pareto sizes, one per rank.
pub fn pareto_sizes(num_ranks: u32, params: &ParetoParams, seed: u64) -> Vec<u64> {
    assert!((0.0..=1.0).contains(&params.zero_fraction));
    assert!(params.scale > 0.0 && params.alpha > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_ranks)
        .map(|_| {
            if rng.gen::<f64>() < params.zero_fraction {
                0
            } else {
                // Inverse transform: X = scale / U^(1/alpha).
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let x = params.scale / u.powf(1.0 / params.alpha);
                (x as u64).min(params.max_bytes)
            }
        })
        .collect()
}

/// Dense baseline: every rank holds exactly `bytes`.
pub fn dense_sizes(num_ranks: u32, bytes: u64) -> Vec<u64> {
    vec![bytes; num_ranks as usize]
}

/// A histogram of per-rank sizes with fixed-width bins (Figures 8 and 9).
#[derive(Debug, Clone)]
pub struct Histogram {
    pub bin_width: u64,
    /// `counts[i]` is the number of ranks whose size falls in
    /// `[i * bin_width, (i+1) * bin_width)`.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Build a histogram covering all of `sizes`.
    ///
    /// # Panics
    /// Panics if `bin_width` is zero.
    pub fn build(sizes: &[u64], bin_width: u64) -> Histogram {
        assert!(bin_width > 0, "bin width must be positive");
        let max = sizes.iter().copied().max().unwrap_or(0);
        let nbins = (max / bin_width + 1) as usize;
        let mut counts = vec![0u64; nbins];
        for &s in sizes {
            counts[(s / bin_width) as usize] += 1;
        }
        Histogram { bin_width, counts }
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Rows of `(bin start, bin end, count)` for printing.
    pub fn rows(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().map(move |(i, &c)| {
            (
                i as u64 * self.bin_width,
                (i as u64 + 1) * self.bin_width,
                c,
            )
        })
    }
}

/// Sparsity report: what fraction of the dense volume a pattern reaches.
pub fn sparsity_fraction(sizes: &[u64], dense_per_rank: u64) -> f64 {
    if sizes.is_empty() || dense_per_rank == 0 {
        return 0.0;
    }
    let total: u64 = sizes.iter().sum();
    total as f64 / (dense_per_rank * sizes.len() as u64) as f64
}

/// A sparse neighborhood pattern for an exchange: every rank sends to
/// `fanout` distinct pseudo-random peers, sizes uniform in
/// `[1, max_bytes]`. Seed-deterministic; peers are emitted in draw order
/// so the triple list is reproducible byte for byte.
pub fn sparse_pairs(
    num_ranks: u32,
    fanout: u32,
    max_bytes: u64,
    seed: u64,
) -> Vec<(u32, u32, u64)> {
    assert!(max_bytes > 0, "messages need at least one byte");
    assert!(
        fanout < num_ranks || num_ranks == 0,
        "fanout {fanout} needs at least {} ranks",
        fanout + 1
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(num_ranks as usize * fanout as usize);
    for src in 0..num_ranks {
        let mut peers: Vec<u32> = Vec::with_capacity(fanout as usize);
        while (peers.len() as u32) < fanout {
            let dst = rng.gen_range(0..num_ranks);
            if dst != src && !peers.contains(&dst) {
                peers.push(dst);
            }
        }
        for dst in peers {
            pairs.push((src, dst, rng.gen_range(1..=max_bytes)));
        }
    }
    pairs
}

/// The disjoint-heavy pattern of the exchange benchmark: antipodal pairs
/// `i → i + num_ranks/2` at every `stride`-th source, all carrying
/// `bytes`. The deterministic routes of distinct pairs are link-disjoint
/// (parallel translates across the torus), so this is the pattern where
/// batch proxy multipath has the most spare capacity to win with.
pub fn disjoint_heavy_pairs(num_ranks: u32, stride: u32, bytes: u64) -> Vec<(u32, u32, u64)> {
    assert!(stride > 0, "stride must be positive");
    assert!(
        num_ranks.is_multiple_of(2),
        "antipodal pairs need an even rank count"
    );
    let half = num_ranks / 2;
    (0..half)
        .step_by(stride as usize)
        .map(|i| (i, i + half, bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_half_dense_on_average() {
        let sizes = uniform_sizes(16384, DEFAULT_MAX_BYTES, 42);
        let frac = sparsity_fraction(&sizes, DEFAULT_MAX_BYTES);
        assert!(
            (0.48..=0.52).contains(&frac),
            "pattern 1 should be ~50% of dense, got {frac}"
        );
        assert!(sizes.iter().all(|&s| s <= DEFAULT_MAX_BYTES));
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        assert_eq!(
            uniform_sizes(100, DEFAULT_MAX_BYTES, 7),
            uniform_sizes(100, DEFAULT_MAX_BYTES, 7)
        );
        assert_ne!(
            uniform_sizes(100, DEFAULT_MAX_BYTES, 7),
            uniform_sizes(100, DEFAULT_MAX_BYTES, 8)
        );
    }

    #[test]
    fn pareto_is_about_fifth_of_dense() {
        let sizes = pareto_sizes(16384, &ParetoParams::default(), 42);
        let frac = sparsity_fraction(&sizes, DEFAULT_MAX_BYTES);
        assert!(
            (0.15..=0.25).contains(&frac),
            "pattern 2 should be ~20% of dense, got {frac}"
        );
    }

    #[test]
    fn pareto_shape_matches_fig9() {
        // Many ranks at (almost) zero, a visible spike at the 8 MB cap.
        let sizes = pareto_sizes(16384, &ParetoParams::default(), 1);
        let zeros = sizes.iter().filter(|&&s| s == 0).count() as f64 / 16384.0;
        assert!((0.25..=0.35).contains(&zeros), "zero fraction {zeros}");
        let capped = sizes.iter().filter(|&&s| s == DEFAULT_MAX_BYTES).count() as f64 / 16384.0;
        assert!(capped > 0.02, "expect a spike at the cap, got {capped}");
        let small = sizes.iter().filter(|&&s| s < DEFAULT_MAX_BYTES / 8).count() as f64 / 16384.0;
        assert!(small > 0.5, "most ranks should hold little data: {small}");
    }

    #[test]
    fn dense_is_flat() {
        let sizes = dense_sizes(64, 1024);
        assert!(sizes.iter().all(|&s| s == 1024));
        assert_eq!(sparsity_fraction(&sizes, 1024), 1.0);
    }

    #[test]
    fn histogram_partitions_all_samples() {
        let sizes = uniform_sizes(4096, DEFAULT_MAX_BYTES, 3);
        let h = Histogram::build(&sizes, 1 << 20);
        assert_eq!(h.total(), 4096);
        // Uniform data: bins should be roughly flat (within 4x of mean).
        let full_bins = &h.counts[..8];
        let mean = 4096.0 / full_bins.len() as f64;
        for &c in full_bins {
            assert!(
                (c as f64) > mean / 4.0 && (c as f64) < mean * 4.0,
                "bin count {c} too far from uniform mean {mean}"
            );
        }
    }

    #[test]
    fn histogram_rows_cover_range() {
        let h = Histogram::build(&[0, 100, 250, 999], 100);
        let rows: Vec<_> = h.rows().collect();
        assert_eq!(rows[0], (0, 100, 1));
        assert_eq!(rows[1], (100, 200, 1));
        assert_eq!(rows[2], (200, 300, 1));
        assert_eq!(rows[9], (900, 1000, 1));
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert_eq!(Histogram::build(&[], 10).total(), 0);
        assert_eq!(sparsity_fraction(&[], 100), 0.0);
        assert!(uniform_sizes(0, 100, 1).is_empty());
        assert!(sparse_pairs(0, 0, 100, 1).is_empty());
    }

    #[test]
    fn sparse_pairs_respect_fanout_and_avoid_self_sends() {
        let pairs = sparse_pairs(64, 4, 1 << 20, 9);
        assert_eq!(pairs.len(), 64 * 4);
        for src in 0..64u32 {
            let peers: Vec<u32> = pairs
                .iter()
                .filter(|&&(s, _, _)| s == src)
                .map(|&(_, d, _)| d)
                .collect();
            assert_eq!(peers.len(), 4);
            let dedup: std::collections::HashSet<u32> = peers.iter().copied().collect();
            assert_eq!(dedup.len(), 4, "peers must be distinct");
            assert!(!dedup.contains(&src), "no self-sends");
        }
        assert!(pairs.iter().all(|&(_, _, b)| (1..=1 << 20).contains(&b)));
        assert_eq!(pairs, sparse_pairs(64, 4, 1 << 20, 9));
        assert_ne!(pairs, sparse_pairs(64, 4, 1 << 20, 10));
    }

    #[test]
    fn disjoint_heavy_is_antipodal_at_the_stride() {
        let pairs = disjoint_heavy_pairs(4096, 256, 32 << 20);
        assert_eq!(pairs.len(), 8);
        for &(s, d, b) in &pairs {
            assert_eq!(d, s + 2048);
            assert_eq!(b, 32 << 20);
            assert_eq!(s % 256, 0);
        }
    }
}
