//! Golden-file schema agreement: the kill taxonomy must be spelled the
//! same way everywhere it appears — `SpaceReport::to_json`, the live
//! `SpaceReport` emitted by `stream_bench`'s robustness pass, and the
//! checked-in `BENCH_streaming.json` artifact. The canonical names are
//! snake_case `runaway_kill` / `sketch_overflow`; the pre-rename
//! spellings (`runaway_killed` / `sketch_overflowed`) must not resurface
//! in either place.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::CoresetParams;
use sbc_geometry::{dataset, GridParams};
use sbc_streaming::{StreamCoresetBuilder, StreamParams};

const CANONICAL: [&str; 2] = ["runaway_kill", "sketch_overflow"];
const LEGACY: [&str; 2] = ["runaway_killed", "sketch_overflowed"];

fn quoted(key: &str) -> String {
    format!("\"{key}\"")
}

#[test]
fn space_report_json_uses_canonical_kill_taxonomy() {
    let gp = GridParams::from_log_delta(6, 2);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut b = StreamCoresetBuilder::new(params, StreamParams::default(), &mut rng);
    b.insert_batch(&dataset::gaussian_mixture(gp, 400, 2, 0.05, 3));
    let json = b.space_report().to_json().to_string();
    for key in CANONICAL {
        assert!(json.contains(&quoted(key)), "missing {key} in {json}");
    }
    for key in LEGACY {
        assert!(
            !json.contains(&quoted(key)),
            "legacy kill-taxonomy key {key} resurfaced in {json}"
        );
    }
}

#[test]
fn bench_streaming_golden_file_agrees_with_space_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_streaming.json must be checked in at the repo root");
    assert!(
        text.contains("\"space_report\""),
        "BENCH_streaming.json lost its robustness space_report section"
    );
    for key in CANONICAL {
        assert!(
            text.contains(&quoted(key)),
            "BENCH_streaming.json disagrees with SpaceReport::to_json: missing {key}"
        );
    }
    for key in LEGACY {
        assert!(
            !text.contains(&quoted(key)),
            "BENCH_streaming.json uses the legacy kill-taxonomy key {key}"
        );
    }
}

#[test]
fn bench_streaming_golden_file_matches_schema_v9() {
    // The committed baseline must parse as JSON and carry the v9 schema
    // (trace, telemetry, serving, service_obs and migration sections
    // included) — the same shape `bench_guard` validates on
    // fresh reports, so a drifting writer cannot slip past CI.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_streaming.json must be checked in at the repo root");
    let doc = sbc_obs::json::JsonValue::parse(&text).expect("baseline parses as JSON");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(9),
        "committed BENCH_streaming.json must be schema_version 9"
    );
    for key in [
        "git_commit",
        "generated_at",
        "groups",
        "sharding",
        "robustness",
        "telemetry",
        "trace",
        "metrics",
        "serving",
        "service_obs",
        "migration",
    ] {
        assert!(doc.get(key).is_some(), "baseline missing \"{key}\" section");
    }
    let trace = doc.get("trace").unwrap();
    for key in [
        "feature_enabled",
        "buffer_events",
        "total_events",
        "dropped",
        "threads",
    ] {
        assert!(trace.get(key).is_some(), "trace section missing \"{key}\"");
    }
    for group in ["insert_only", "mixed_deletion_heavy"] {
        let g = doc.get("groups").unwrap().get(group);
        let g = g.unwrap_or_else(|| panic!("baseline missing group {group}"));
        for p in ["per_op", "batched"] {
            let ratio = g
                .get(p)
                .and_then(|pj| pj.get("speedup_vs_per_op"))
                .and_then(|v| v.as_f64());
            assert!(
                ratio.is_some_and(|r| r > 0.0),
                "baseline {group}.{p} lacks a positive speedup_vs_per_op"
            );
        }
    }
    // The sharding section's wall-clock numbers are host-dependent and
    // not gated, but its shape (and the honest threads_available tag
    // next to the speedup) must be present.
    let sharding = doc.get("sharding").unwrap();
    for key in [
        "shards",
        "threads_available",
        "single_shard",
        "sharded",
        "speedup_vs_single",
        "space_report",
    ] {
        assert!(
            sharding.get(key).is_some(),
            "sharding section missing \"{key}\""
        );
    }
    for key in ["shards", "total", "max_per_shard"] {
        assert!(
            sharding.get("space_report").unwrap().get(key).is_some(),
            "sharding.space_report missing \"{key}\""
        );
    }
    // The telemetry section reconciles measured truth against the
    // nominal bound; bench_guard gates peak_bytes_per_point, so the
    // baseline must carry a positive value for it.
    let telemetry = doc.get("telemetry").unwrap();
    assert!(
        telemetry
            .get("alloc_tracking")
            .and_then(|v| v.as_bool())
            .is_some(),
        "telemetry section lacks the alloc_tracking flag"
    );
    for key in ["cadence_ms", "samples", "rss_peak_bytes"] {
        assert!(
            telemetry.get(key).and_then(|v| v.as_f64()).is_some(),
            "telemetry section missing numeric \"{key}\""
        );
    }
    assert!(
        telemetry
            .get("alloc")
            .and_then(|a| a.get("components"))
            .is_some(),
        "telemetry.alloc lacks per-component attribution"
    );
    let space = telemetry.get("space").expect("telemetry.space present");
    for key in [
        "measured_bytes",
        "peak_measured_bytes",
        "expected_sketch_bytes",
        "nominal_sketch_bytes",
        "nominal_to_measured_ratio",
    ] {
        assert!(
            space.get(key).and_then(|v| v.as_f64()).is_some(),
            "telemetry.space missing numeric \"{key}\""
        );
    }
    assert!(
        space
            .get("peak_bytes_per_point")
            .and_then(|v| v.as_f64())
            .is_some_and(|v| v > 0.0),
        "telemetry.space lacks a positive peak_bytes_per_point (the bench_guard memory gate)"
    );
    let overhead = telemetry
        .get("overhead")
        .expect("telemetry.overhead present");
    for key in ["alloc_pair_ns", "alloc_idle_pct", "sampling_pct"] {
        assert!(
            overhead.get(key).and_then(|v| v.as_f64()).is_some(),
            "telemetry.overhead missing numeric \"{key}\""
        );
    }
    // The serving section (v6): serve_bench's multi-tenant report. The
    // committed baseline must claim ≥1000 interleaved tenants with
    // bit-identical served coresets — the service tier's acceptance
    // bar — and carry the ratios bench_guard gates.
    let serving = doc.get("serving").expect("serving section present");
    assert!(
        serving
            .get("tenants")
            .and_then(|v| v.as_u64())
            .is_some_and(|t| t >= 1000),
        "serving baseline must cover at least 1000 interleaved tenants"
    );
    assert_eq!(
        serving
            .get("coresets_bit_identical")
            .and_then(|v| v.as_bool()),
        Some(true),
        "serving baseline must have bit-identical served coresets"
    );
    for key in [
        "protocol_version",
        "multi_tenant_efficiency",
        "p50_admission_ns",
        "p99_admission_ns",
        "p999_admission_ns",
        "admission_samples",
        "peak_bytes_per_tenant",
        "identity_checks",
        "evictions",
        "restores",
    ] {
        assert!(
            serving
                .get(key)
                .and_then(|v| v.as_f64())
                .is_some_and(|v| v > 0.0),
            "serving section missing positive numeric \"{key}\""
        );
    }
    for key in ["reject_overloaded", "shed_evictions"] {
        assert!(
            serving
                .get("overload_drill")
                .and_then(|d| d.get(key))
                .and_then(|v| v.as_f64())
                .is_some(),
            "serving.overload_drill missing numeric \"{key}\""
        );
    }
    assert!(
        serving
            .get("faults")
            .and_then(|f| f.get("profile"))
            .and_then(|v| v.as_str())
            .is_some(),
        "serving.faults missing string \"profile\""
    );
    // The service_obs section (v7): the instrumentation-overhead
    // comparison bench_guard gates, plus the SLO-histogram percentiles.
    let service_obs = doc.get("service_obs").expect("service_obs present");
    assert_eq!(
        service_obs.get("feature_enabled").and_then(|v| v.as_bool()),
        Some(true),
        "service_obs baseline must be measured with the service metrics compiled in"
    );
    for key in [
        "metrics_disabled_ops_per_sec",
        "metrics_enabled_ops_per_sec",
        "overhead_ratio",
        "p50_request_ns",
        "p99_request_ns",
        "p999_request_ns",
        "request_samples",
    ] {
        assert!(
            service_obs
                .get(key)
                .and_then(|v| v.as_f64())
                .is_some_and(|v| v > 0.0),
            "service_obs section missing positive numeric \"{key}\""
        );
    }
    assert!(
        service_obs
            .get("slow_dumps")
            .and_then(|v| v.as_f64())
            .is_some(),
        "service_obs section missing numeric \"slow_dumps\""
    );
    // The migration section (v8): the fleet live-migration report. The
    // baseline must claim committed cutovers with bit-identical
    // migrated coresets, a replay queue that genuinely carried ops and
    // stayed inside its advertised bound — the hard gates bench_guard
    // re-checks on every fresh report.
    let migration = doc.get("migration").expect("migration section present");
    assert_eq!(
        migration
            .get("coresets_bit_identical")
            .and_then(|v| v.as_bool()),
        Some(true),
        "migration baseline must have bit-identical migrated coresets"
    );
    for key in [
        "fleet_servers",
        "tenants",
        "chunk_bytes",
        "migrations",
        "cutovers",
        "chunks",
        "replayed_ops",
        "replay_queue_peak",
        "replay_queue_max_ops",
        "p50_cutover_ns",
        "p99_cutover_ns",
        "identity_checks",
    ] {
        assert!(
            migration
                .get(key)
                .and_then(|v| v.as_f64())
                .is_some_and(|v| v > 0.0),
            "migration section missing positive numeric \"{key}\""
        );
    }
    for key in ["drained", "aborts"] {
        assert!(
            migration.get(key).and_then(|v| v.as_f64()).is_some(),
            "migration section missing numeric \"{key}\""
        );
    }
    let (peak, bound) = (
        migration
            .get("replay_queue_peak")
            .and_then(|v| v.as_u64())
            .unwrap(),
        migration
            .get("replay_queue_max_ops")
            .and_then(|v| v.as_u64())
            .unwrap(),
    );
    assert!(
        peak <= bound,
        "migration baseline's replay_queue_peak {peak} exceeds its bound {bound}"
    );
    assert!(
        migration
            .get("faults")
            .and_then(|f| f.get("profile"))
            .and_then(|v| v.as_str())
            .is_some(),
        "migration.faults missing string \"profile\""
    );
}

#[test]
fn space_report_ratio_renders_null_when_nothing_is_measured() {
    // Schema pin: a `SpaceReport` with no measured denominator must emit
    // `"nominal_to_measured_ratio": null` — the key never disappears,
    // and it must not render as 0.0 (which would read as "nominal is
    // zero" to a ratio-gating consumer).
    let report = sbc_streaming::SpaceReport {
        hash_bytes: 0,
        store_bytes: 0,
        nominal_sketch_bytes: 1 << 20,
        instances: 0,
        dead_stores: 0,
        live_stores: 0,
        runaway_kill: 0,
        sketch_overflow: 0,
        arena_slots: 0,
        arena_entries: 0,
        measured_bytes: 0,
        peak_measured_bytes: 0,
        expected_sketch_bytes: 0,
    };
    let json = report.to_json().to_string();
    assert!(
        json.contains("\"nominal_to_measured_ratio\": null")
            || json.contains("\"nominal_to_measured_ratio\":null"),
        "no-denominator ratio must render as null, got {json}"
    );
    let doc = sbc_obs::json::JsonValue::parse(&json).expect("report JSON parses");
    let ratio = doc.get("nominal_to_measured_ratio").expect("key present");
    assert!(ratio.as_f64().is_none(), "ratio must be null, not a number");
}
