//! The analytical transfer-time model of Section IV.B (Equations 1–5).
//!
//! The paper models a memory-to-memory transfer of `d` bytes as
//!
//! ```text
//! t = t_s + t_t + t_r                                  (Eq. 1)
//! ```
//!
//! where `t_s` is sender processing/queueing/injection, `t_t` the wire
//! transfer and `t_r` receiver processing/queueing/storing. With `k`
//! link-disjoint paths through `k` proxies, each carrying `d/k`
//! store-and-forward, the end-to-end time doubles per-hop:
//!
//! ```text
//! t' = 2 (t_s' + t_t' + t_r')                          (Eq. 2)
//! ```
//!
//! For messages above a threshold the per-byte terms dominate and
//! `t_s' ≈ t_s/k`, `t_t' = t_t/k`, `t_r' ≈ t_r/k` (Eq. 4), so the ratio
//! `t'/t → 2/k` (Eq. 5): **k proxies give a k/2 speedup, and at least 3
//! proxies are needed to win at all**. Below the threshold the fixed
//! per-message and per-phase costs dominate and direct transfer is better.
//!
//! Each term decomposes into a fixed overhead plus a per-byte cost; the
//! defaults are derived from the same calibration constants as the
//! simulator so that model and simulation agree on the crossover.

/// Analytical cost model for direct vs. proxied transfers.
///
/// ```
/// use sdm_core::CostModel;
/// let m = CostModel::bgq_defaults();
/// assert_eq!(m.min_beneficial_proxies(), 3);            // the k >= 3 rule
/// assert!(m.should_use_proxies(32 << 20, 4));           // 32 MB: proxies win
/// assert!(!m.should_use_proxies(4 << 10, 4));           // 4 KB: direct wins
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed per-message cost at the sender (descriptor injection), seconds.
    pub sender_overhead: f64,
    /// Fixed per-message cost at the receiver, seconds.
    pub receiver_overhead: f64,
    /// Fixed cost of one RMA synchronization phase (the proxy protocol
    /// pays one per hop stage), seconds.
    pub phase_overhead: f64,
    /// Per-byte transfer cost of one path (1 / single-path bandwidth).
    pub per_byte: f64,
    /// Pipeline latency of one path traversal, seconds.
    pub path_latency: f64,
}

impl CostModel {
    /// Model with the paper-calibrated defaults (single-path put peak of
    /// 1.6 GB/s, microsecond-scale message overheads, ~35 µs per RMA
    /// synchronization phase).
    pub fn bgq_defaults() -> CostModel {
        CostModel {
            sender_overhead: 1.2e-6,
            receiver_overhead: 0.8e-6,
            phase_overhead: 35e-6,
            per_byte: 1.0 / 1.6e9,
            path_latency: 0.5e-6,
        }
    }

    /// Build a model from simulator parameters.
    pub fn from_sim_config(c: &bgq_netsim::SimConfig, mean_hops: f64) -> CostModel {
        CostModel {
            sender_overhead: c.send_overhead,
            receiver_overhead: c.recv_overhead,
            phase_overhead: c.rma_phase_overhead,
            per_byte: 1.0 / c.per_flow_cap,
            path_latency: mean_hops * c.hop_latency,
        }
    }

    /// Eq. 1: time for a direct single-path transfer of `bytes`.
    pub fn direct_time(&self, bytes: u64) -> f64 {
        self.sender_overhead
            + self.receiver_overhead
            + self.path_latency
            + bytes as f64 * self.per_byte
    }

    /// Eq. 2: time for a transfer of `bytes` over `k` proxy paths,
    /// store-and-forward, equal split.
    ///
    /// Each of the two stages moves `bytes/k` per path concurrently; the
    /// sender injects `k` descriptors serially; each stage pays one
    /// synchronization phase.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn proxy_time(&self, bytes: u64, k: u32) -> f64 {
        assert!(k > 0, "need at least one path");
        let chunk = bytes as f64 / k as f64;
        let stage = k as f64 * self.sender_overhead   // serial injections
            + self.receiver_overhead
            + self.path_latency
            + self.phase_overhead
            + chunk * self.per_byte;
        2.0 * stage
    }

    /// Predicted speedup of `k` proxies over direct for `bytes`
    /// (`> 1` means proxies win).
    pub fn speedup(&self, bytes: u64, k: u32) -> f64 {
        self.direct_time(bytes) / self.proxy_time(bytes, k)
    }

    /// Eq. 5's asymptotic speedup: `k/2`.
    pub fn asymptotic_speedup(k: u32) -> f64 {
        k as f64 / 2.0
    }

    /// The message-size threshold above which `k` proxies beat a direct
    /// transfer, or `None` if they never do (k < 3; Eq. 5's condition).
    ///
    /// Solves `direct_time(d) = proxy_time(d, k)` for `d`:
    /// both are affine in `d`, direct with slope `per_byte` and proxies
    /// with slope `2·per_byte/k`, so a finite positive crossover exists
    /// iff `k > 2` (the paper's "at least 3 proxies" rule).
    pub fn threshold_bytes(&self, k: u32) -> Option<u64> {
        assert!(k > 0);
        let slope_direct = self.per_byte;
        let slope_proxy = 2.0 * self.per_byte / k as f64;
        if slope_proxy >= slope_direct {
            return None; // k <= 2: proxies never win
        }
        let fixed_direct = self.sender_overhead + self.receiver_overhead + self.path_latency;
        let fixed_proxy = 2.0
            * (k as f64 * self.sender_overhead
                + self.receiver_overhead
                + self.path_latency
                + self.phase_overhead);
        let d = (fixed_proxy - fixed_direct) / (slope_direct - slope_proxy);
        if d <= 0.0 {
            Some(0)
        } else {
            Some(d.ceil() as u64)
        }
    }

    /// Minimum number of proxies for which proxying can ever win (the
    /// paper's `k >= 3`).
    pub fn min_beneficial_proxies(&self) -> u32 {
        for k in 1..=16 {
            if self.threshold_bytes(k).is_some() {
                return k;
            }
        }
        unreachable!("slope condition must hold for some k <= 16")
    }

    /// Decision procedure: should a transfer of `bytes` with `k` available
    /// proxies use them?
    pub fn should_use_proxies(&self, bytes: u64, k: u32) -> bool {
        if k == 0 {
            return false;
        }
        match self.threshold_bytes(k) {
            Some(th) => bytes >= th,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CostModel {
        CostModel::bgq_defaults()
    }

    #[test]
    fn direct_time_is_affine_in_bytes() {
        let m = m();
        let t1 = m.direct_time(1_000_000);
        let t2 = m.direct_time(2_000_000);
        let t3 = m.direct_time(3_000_000);
        assert!((t3 - t2) - (t2 - t1) < 1e-12);
        assert!(t2 > t1);
    }

    #[test]
    fn two_proxies_never_win() {
        let m = m();
        assert_eq!(m.threshold_bytes(1), None);
        assert_eq!(m.threshold_bytes(2), None);
        for bytes in [1u64 << 10, 1 << 20, 1 << 30] {
            assert!(m.speedup(bytes, 2) < 1.0, "2 proxies won at {bytes}");
        }
    }

    #[test]
    fn min_beneficial_is_three() {
        assert_eq!(m().min_beneficial_proxies(), 3);
    }

    #[test]
    fn asymptotic_speedup_is_k_over_2() {
        let m = m();
        let huge = 4u64 << 30;
        for k in [3u32, 4, 5, 8] {
            let s = m.speedup(huge, k);
            let expect = CostModel::asymptotic_speedup(k);
            assert!(
                (s - expect).abs() / expect < 0.05,
                "k={k}: speedup {s} vs asymptotic {expect}"
            );
        }
    }

    #[test]
    fn threshold_matches_paper_fig5_ballpark() {
        // Fig. 5: with 4 proxies between two nodes the crossover is 256 KB.
        let th = m().threshold_bytes(4).unwrap();
        assert!(
            (128 * 1024..=512 * 1024).contains(&th),
            "4-proxy threshold {th} not within 2x of 256 KB"
        );
    }

    #[test]
    fn small_messages_prefer_direct() {
        let m = m();
        assert!(!m.should_use_proxies(1024, 4));
        assert!(!m.should_use_proxies(64 * 1024, 4));
        assert!(m.should_use_proxies(128 << 20, 4));
    }

    #[test]
    fn threshold_is_consistent_with_speedup() {
        let m = m();
        for k in [3u32, 4, 5] {
            let th = m.threshold_bytes(k).unwrap();
            assert!(
                m.speedup(th + 4096, k) >= 1.0,
                "just above threshold must win"
            );
            if th > 4096 {
                assert!(
                    m.speedup(th - 4096, k) <= 1.0,
                    "just below threshold must lose"
                );
            }
        }
    }

    #[test]
    fn more_proxies_lower_threshold() {
        let m = m();
        let t3 = m.threshold_bytes(3).unwrap();
        let t4 = m.threshold_bytes(4).unwrap();
        let t8 = m.threshold_bytes(8).unwrap();
        assert!(t4 < t3);
        assert!(t8 < t4);
    }

    #[test]
    fn from_sim_config_round_trips_parameters() {
        let c = bgq_netsim::SimConfig::default();
        let m = CostModel::from_sim_config(&c, 5.0);
        assert_eq!(m.sender_overhead, c.send_overhead);
        assert_eq!(m.per_byte, 1.0 / c.per_flow_cap);
        assert!((m.path_latency - 5.0 * c.hop_latency).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn zero_paths_panics() {
        m().proxy_time(1024, 0);
    }
}
