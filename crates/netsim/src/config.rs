//! Simulator configuration and calibration constants.
//!
//! The defaults reproduce the bandwidth arithmetic the paper reports for
//! Mira (§III and Figures 5–7):
//!
//! * each of the ten torus links moves 2 GB/s raw per direction, of which
//!   up to 90% (1.8 GB/s) is available to user data;
//! * a single put over a single path plateaus at ≈1.6 GB/s (Fig. 5's
//!   "direct" curve) because of packet/protocol and endpoint processing
//!   overheads — modelled as a per-flow rate cap;
//! * the eleventh (bridge → ION) links run at 2 GB/s;
//! * per-message software costs (descriptor injection, reception, RMA
//!   epoch synchronization, store-and-forward handling at a proxy) produce
//!   the small-message regime where direct transfers beat proxied ones,
//!   with the crossover near 256 KB for the 2-node microbenchmark.

/// All tunable parameters of the network model.
///
/// Times are in seconds, bandwidths in bytes/second.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// User-payload bandwidth of one torus link in one direction.
    /// Paper: 2 GB/s raw, 90% available to user data.
    pub link_bandwidth: f64,
    /// Bandwidth of the eleventh (bridge node → I/O node) link.
    pub io_link_bandwidth: f64,
    /// Maximum rate a single flow (one message over one path) can sustain,
    /// capturing packet/protocol overhead and endpoint processing.
    /// Paper Fig. 5: direct put plateaus at ≈1.6 GB/s.
    pub per_flow_cap: f64,
    /// Per-hop wire+router latency.
    pub hop_latency: f64,
    /// CPU time to prepare and inject one message descriptor at the sender.
    /// Injections on one node are serialized (one messaging thread).
    pub send_overhead: f64,
    /// Per-message processing/buffering cost at the receiver.
    pub recv_overhead: f64,
    /// Cost of one RMA synchronization epoch (window fence / flush). The
    /// proxy protocol pays this once per phase; it is the dominant fixed
    /// cost that makes proxying lose below the message-size threshold.
    pub rma_phase_overhead: f64,
    /// Software handling cost at an intermediate node for one
    /// store-and-forward chunk (buffer management + re-injection setup).
    pub forward_overhead: f64,
    /// Per-flow arbitration efficiency loss on shared links: a link
    /// carrying `n` concurrent flows delivers `capacity / (1 + γ·(n-1))`
    /// in total. Packet-level arbitration, FIFO head-of-line blocking and
    /// dynamic-routing interactions make contended links less efficient
    /// than ideal fair sharing; this is what makes *over-provisioned*
    /// proxy sets degrade (paper Fig. 7: "data movements by extra proxies
    /// intervene existing ones"). Set to 0 for ideal fluid sharing.
    pub contention_penalty: f64,
    /// Lower bound on a contended link's efficiency: however many flows
    /// share it, it still delivers at least `floor · capacity` in total
    /// (arbitration loss saturates; heavy but well-formed fan-in, e.g.
    /// I/O aggregation, does not collapse).
    pub contention_floor: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_bandwidth: 1.8e9,
            io_link_bandwidth: 2.0e9,
            per_flow_cap: 1.6e9,
            hop_latency: 40e-9,
            send_overhead: 1.2e-6,
            recv_overhead: 0.8e-6,
            rma_phase_overhead: 35e-6,
            forward_overhead: 2e-6,
            contention_penalty: 0.1,
            contention_floor: 0.7,
        }
    }
}

impl SimConfig {
    /// Sanity-check the parameters, reporting the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.link_bandwidth <= 0.0 {
            return Err("link bandwidth must be positive".into());
        }
        if self.io_link_bandwidth <= 0.0 {
            return Err("io link bandwidth must be positive".into());
        }
        if self.per_flow_cap <= 0.0 {
            return Err("per-flow cap must be positive".into());
        }
        for (name, v) in [
            ("hop_latency", self.hop_latency),
            ("send_overhead", self.send_overhead),
            ("recv_overhead", self.recv_overhead),
            ("rma_phase_overhead", self.rma_phase_overhead),
            ("forward_overhead", self.forward_overhead),
            ("contention_penalty", self.contention_penalty),
        ] {
            if v < 0.0 {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        if !(self.contention_floor > 0.0 && self.contention_floor <= 1.0) {
            return Err("contention floor must be in (0, 1]".into());
        }
        Ok(())
    }

    /// Sanity-check the parameters.
    ///
    /// # Panics
    /// Panics if any bandwidth is non-positive or any overhead is negative.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SimConfig::default();
        assert_eq!(c.link_bandwidth, 1.8e9);
        assert_eq!(c.io_link_bandwidth, 2.0e9);
        assert_eq!(c.per_flow_cap, 1.6e9);
        c.validate();
    }

    #[test]
    fn per_flow_cap_below_link_bandwidth() {
        // The cap models protocol overhead; it must not exceed raw payload bw.
        let c = SimConfig::default();
        assert!(c.per_flow_cap <= c.link_bandwidth);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn validate_rejects_zero_bandwidth() {
        let c = SimConfig {
            link_bandwidth: 0.0,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn validate_rejects_negative_overhead() {
        let c = SimConfig {
            send_overhead: -1.0,
            ..SimConfig::default()
        };
        c.validate();
    }
}
