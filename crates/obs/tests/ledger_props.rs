//! Property tests for the run-ledger: JSON round-trips are bit-exact
//! (including the non-finite → `null` → `INFINITY` handling shared with
//! the profile artifact), and the sentinel's diff of a manifest against
//! itself is all-NEUTRAL for every scenario.

use bgq_obs::ledger::{RunManifest, ScenarioManifest};
use bgq_obs::{json, sentinel};
use proptest::prelude::*;

/// Metric/blame values: finite floats across many magnitudes, exact
/// zeros, and `+INFINITY` (the only non-finite the workspace's writers
/// produce — undelivered-transfer end times). NaN and `-inf` are
/// deliberately excluded: they serialize as `null` like `+inf` does, so
/// they cannot round-trip and the writers never emit them.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        (0u64..1_000_000_000_000).prop_map(|n| n as f64 / 1024.0),
        (0u64..1_000_000).prop_map(|n| n as f64 * 1.5e9),
        any::<u64>().prop_map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                bits as f64
            }
        }),
    ]
}

/// Keys: realistic metric names and names that need JSON escaping.
fn arb_key() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("direct.makespan".to_string()),
        Just("agg.throughput".to_string()),
        Just("speedup".to_string()),
        Just("multipath.win_ratio".to_string()),
        Just("needs \"escaping\"\n".to_string()),
        Just("comma,key".to_string()),
        (0u32..500).prop_map(|i| format!("metric.{i:03}")),
    ]
}

fn arb_scenario(name: &'static str) -> impl Strategy<Value = ScenarioManifest> {
    (
        proptest::collection::vec((arb_key(), 0u64..100_000), 0..6),
        proptest::collection::vec((arb_key(), arb_value()), 0..12),
        proptest::collection::vec((arb_key(), arb_value()), 0..6),
    )
        .prop_map(move |(config, metrics, blame)| {
            let mut s = ScenarioManifest::new(name);
            for (k, v) in config {
                s.config(&k, v);
            }
            for (k, v) in metrics {
                s.metric(&k, v);
            }
            for (k, v) in blame {
                s.blame(&k, v);
            }
            s
        })
}

fn arb_manifest() -> impl Strategy<Value = RunManifest> {
    (
        arb_scenario("alpha"),
        arb_scenario("beta"),
        arb_scenario("gamma"),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(a, b, c, keep_b, keep_c)| {
            let mut m = RunManifest::default();
            m.push(a);
            if keep_b {
                m.push(b);
            }
            if keep_c {
                m.push(c);
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn manifest_json_round_trips_bit_exactly(m in arb_manifest()) {
        m.validate().expect("generated manifests are structurally valid");
        let js = m.to_json();
        json::validate(&js).expect("manifest JSON must parse");

        let back = RunManifest::from_json(&js).expect("round-trip parse");
        // Equality here is f64 PartialEq on every metric/blame value:
        // bit-exact for finite floats, and inf == inf for the null path.
        prop_assert_eq!(&back, &m);
        prop_assert_eq!(back.to_json(), js, "re-serialization is byte-exact");
        prop_assert_eq!(back.fingerprint(), m.fingerprint());
    }

    #[test]
    fn self_diff_is_all_neutral_for_every_scenario(m in arb_manifest()) {
        let rep = sentinel::diff(&m, &m);
        prop_assert!(!rep.has_regressions());
        prop_assert!(rep.removed_scenarios.is_empty());
        prop_assert!(rep.added_scenarios.is_empty());
        let (regressed, improved, neutral) = rep.totals();
        prop_assert_eq!(regressed, 0);
        prop_assert_eq!(improved, 0);
        let total_metrics: usize = m.scenarios.iter().map(|s| s.metrics.len()).sum();
        prop_assert_eq!(neutral, total_metrics);
        for s in &rep.scenarios {
            prop_assert!(s.config_drift.is_empty());
            prop_assert!(s.added_metrics.is_empty());
            prop_assert!(s.removed_metrics.is_empty());
            prop_assert!(s.attribution.is_empty());
            for v in &s.verdicts {
                prop_assert!(!v.changed, "self-diff metric {} reported changed", v.name);
            }
        }
        // And the serialized round-trip self-diffs clean too.
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        prop_assert!(!sentinel::diff(&back, &m).has_regressions());
    }
}
