//! Golden-file pin of the `StatsSnapshot` JSON shape.
//!
//! `dtt obs metrics` and the JSON exporters all serialize through
//! `StatsSnapshot::to_json`, whose field list comes from the same macro as
//! `Counters::fields`. This test pins the exact serialized bytes for a
//! fully populated snapshot against `tests/golden/stats_snapshot.json`, so
//! any accidental rename, reorder, or format change of the shared
//! serialization path fails loudly.

use dtt_core::stats::Counters;

const GOLDEN: &str = include_str!("golden/stats_snapshot.json");

/// Distinct, position-dependent values so swapped fields cannot cancel.
fn populated() -> Counters {
    let mut c = Counters::new();
    let names: Vec<&'static str> = c.fields().into_iter().map(|(n, _)| n).collect();
    for (i, name) in names.into_iter().enumerate() {
        assert!(c.set_field(name, (i as u64 + 1) * 101));
    }
    c
}

#[test]
fn to_json_matches_golden_file() {
    let json = populated().snapshot().to_json();
    assert_eq!(
        json,
        GOLDEN.trim_end(),
        "StatsSnapshot::to_json drifted from tests/golden/stats_snapshot.json; \
         if the change is intentional, update the golden file"
    );
}
