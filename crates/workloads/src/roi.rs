//! Region-of-interest (ROI) patterns: sparse data concentrated on the
//! ranks whose subdomain intersects a feature of interest.
//!
//! The paper motivates pattern 2 with in-situ analyses that "write out
//! data from a region of contiguous MPI ranks while ignoring other
//! regions" and with query-driven visualization of a specific region.
//! These generators produce exactly that: one or several contiguous rank
//! windows with data, the rest empty — the intermediate case between the
//! statistical pattern 2 and the HACC writer window.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One contiguous window of ranks holding data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First rank of the region.
    pub start: u32,
    /// Number of ranks in the region.
    pub len: u32,
    /// Bytes each rank of the region holds.
    pub bytes_per_rank: u64,
}

impl Region {
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    pub fn total_bytes(&self) -> u64 {
        self.len as u64 * self.bytes_per_rank
    }
}

/// Per-rank sizes for an explicit set of regions (overlaps add up).
///
/// # Panics
/// Panics if a region extends past `num_ranks`.
pub fn region_sizes(num_ranks: u32, regions: &[Region]) -> Vec<u64> {
    let mut sizes = vec![0u64; num_ranks as usize];
    for r in regions {
        assert!(
            r.end() <= num_ranks,
            "region {}..{} exceeds {num_ranks} ranks",
            r.start,
            r.end()
        );
        for s in &mut sizes[r.start as usize..r.end() as usize] {
            *s += r.bytes_per_rank;
        }
    }
    sizes
}

/// Randomly placed regions of interest: `count` non-deterministic windows
/// each covering `region_fraction` of the job, each rank in a region
/// holding `bytes_per_rank`. Deterministic per seed.
///
/// # Panics
/// Panics if `region_fraction` is not in `(0, 1]` or `count` is zero.
pub fn random_regions(
    num_ranks: u32,
    count: u32,
    region_fraction: f64,
    bytes_per_rank: u64,
    seed: u64,
) -> Vec<Region> {
    assert!(count > 0, "need at least one region");
    assert!(
        region_fraction > 0.0 && region_fraction <= 1.0,
        "region fraction must be in (0, 1]"
    );
    let len = ((num_ranks as f64 * region_fraction) as u32).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let start = rng.gen_range(0..=num_ranks.saturating_sub(len));
            Region {
                start,
                len,
                bytes_per_rank,
            }
        })
        .collect()
}

/// Convenience: per-rank sizes for a single centered ROI covering
/// `fraction` of the ranks.
pub fn centered_roi_sizes(num_ranks: u32, fraction: f64, bytes_per_rank: u64) -> Vec<u64> {
    assert!(fraction > 0.0 && fraction <= 1.0);
    let len = ((num_ranks as f64 * fraction) as u32).max(1);
    let start = (num_ranks - len) / 2;
    region_sizes(
        num_ranks,
        &[Region {
            start,
            len,
            bytes_per_rank,
        }],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_sizes_fill_exact_window() {
        let sizes = region_sizes(
            10,
            &[Region {
                start: 3,
                len: 4,
                bytes_per_rank: 7,
            }],
        );
        assert_eq!(sizes, vec![0, 0, 0, 7, 7, 7, 7, 0, 0, 0]);
    }

    #[test]
    fn overlapping_regions_accumulate() {
        let r1 = Region {
            start: 0,
            len: 4,
            bytes_per_rank: 5,
        };
        let r2 = Region {
            start: 2,
            len: 4,
            bytes_per_rank: 3,
        };
        let sizes = region_sizes(8, &[r1, r2]);
        assert_eq!(sizes, vec![5, 5, 8, 8, 3, 3, 0, 0]);
        assert_eq!(
            sizes.iter().sum::<u64>(),
            r1.total_bytes() + r2.total_bytes()
        );
    }

    #[test]
    fn random_regions_fit_and_are_deterministic() {
        let a = random_regions(1000, 5, 0.1, 1 << 20, 9);
        let b = random_regions(1000, 5, 0.1, 1 << 20, 9);
        assert_eq!(a, b);
        for r in &a {
            assert!(r.end() <= 1000);
            assert_eq!(r.len, 100);
        }
        let c = random_regions(1000, 5, 0.1, 1 << 20, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn centered_roi_is_centered() {
        let sizes = centered_roi_sizes(100, 0.2, 42);
        let first = sizes.iter().position(|&s| s > 0).unwrap();
        let last = sizes.iter().rposition(|&s| s > 0).unwrap();
        assert_eq!(last - first + 1, 20);
        assert_eq!(first, 40);
        assert_eq!(sizes.iter().filter(|&&s| s > 0).count(), 20);
    }

    #[test]
    fn tiny_fraction_still_yields_one_rank() {
        let sizes = centered_roi_sizes(10, 0.01, 1);
        assert_eq!(sizes.iter().filter(|&&s| s > 0).count(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_region_panics() {
        region_sizes(
            5,
            &[Region {
                start: 3,
                len: 4,
                bytes_per_rank: 1,
            }],
        );
    }
}
