//! Span names and the per-layer ledger of a traced run.
//!
//! Every workload reports every per-layer metric; a layer that is not on
//! a workload's path reports 0. Times are means per call.

use sbc::SpaceReport;

use crate::harness::Report;

pub const STREAM_INGEST: &str = "streaming.ingest";
pub const STREAM_SPACE: &str = "streaming.space_report";
pub const STREAM_FINISH: &str = "streaming.finish_ref";
pub const CORE_SPLIT: &str = "core.split";
pub const LLOYD: &str = "clustering.lloyd";
pub const TRANSPORT: &str = "flow.transport";
pub const ENCODE: &str = "api.encode";
pub const DECODE: &str = "api.decode";
pub const HANDLE: &str = "serve.handle";
pub const HANDLE_RESTORE: &str = "serve.handle_restore";
pub const OPEN: &str = "serve.open";

#[derive(Default)]
pub struct Ledger {
    pub ingest_ns_per_update: f64,
    pub space_report_us: f64,
    pub finish_ref_ms: f64,
    pub state_bytes: f64,
    pub live_stores: f64,
    pub dead_stores: f64,
    pub arena_slots: f64,
    pub arena_entries: f64,
    pub coreset_len: f64,
    pub split_us: f64,
    pub lloyd_ms: f64,
    pub lloyd_iterations: f64,
    pub transport_ms: f64,
    pub split_points: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub request_bytes: f64,
    pub response_bytes: f64,
    pub handle_us: f64,
    pub handle_restore_us: f64,
    pub evictions: f64,
    pub restores: f64,
    pub overloaded: f64,
    pub open_ms: f64,
    pub admission_p50_ns: f64,
}

impl Ledger {
    /// The `SpaceReport` counts, as means per builder.
    pub fn space(&mut self, reports: &[SpaceReport]) {
        let n = reports.len() as f64;
        let mean = |f: fn(&SpaceReport) -> usize| reports.iter().map(f).sum::<usize>() as f64 / n;
        self.state_bytes = mean(|s| s.measured_bytes);
        self.live_stores = mean(|s| s.live_stores);
        self.dead_stores = mean(|s| s.dead_stores);
        self.arena_slots = mean(|s| s.arena_slots);
        self.arena_entries = mean(|s| s.arena_entries);
    }

    pub fn emit(&self, r: &mut Report) {
        let load = if self.arena_slots > 0.0 {
            self.arena_entries / self.arena_slots
        } else {
            0.0
        };
        for (name, value, unit) in [
            (
                "streaming.ingest_ns_per_update",
                self.ingest_ns_per_update,
                "ns",
            ),
            ("streaming.space_report_us", self.space_report_us, "us"),
            ("streaming.finish_ref_ms", self.finish_ref_ms, "ms"),
            ("streaming.state_bytes", self.state_bytes, "bytes"),
            ("streaming.live_stores", self.live_stores, "count"),
            ("streaming.dead_stores", self.dead_stores, "count"),
            ("hashing.arena_slots", self.arena_slots, "count"),
            ("hashing.arena_entries", self.arena_entries, "count"),
            ("hashing.arena_load_factor", load, "frac"),
            ("core.coreset_len", self.coreset_len, "count"),
            ("core.split_us", self.split_us, "us"),
            ("clustering.lloyd_ms", self.lloyd_ms, "ms"),
            (
                "clustering.lloyd_iterations",
                self.lloyd_iterations,
                "count",
            ),
            ("flow.transport_ms", self.transport_ms, "ms"),
            ("flow.split_points", self.split_points, "count"),
            ("api.encode_us", self.encode_us, "us"),
            ("api.decode_us", self.decode_us, "us"),
            ("api.request_bytes", self.request_bytes, "bytes"),
            ("api.response_bytes", self.response_bytes, "bytes"),
            ("serve.handle_us", self.handle_us, "us"),
            ("serve.handle_restore_us", self.handle_restore_us, "us"),
            ("serve.evictions", self.evictions, "count"),
            ("serve.restores", self.restores, "count"),
            ("serve.overloaded", self.overloaded, "count"),
            ("serve.open_ms", self.open_ms, "ms"),
            ("serve.admission_p50_ns", self.admission_p50_ns, "ns"),
        ] {
            r.metric(name, value, unit);
        }
    }
}
