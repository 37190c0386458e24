//! A spill container written before the version-4 checkpoint upgrade
//! still brings its tenant back.
//!
//! `tests/fixtures/spill_v3.sbct` is the spill file of tenant 42 after
//! [`ops`]`[..CUT]`, evicted by the last version-3 writer (commit
//! 512c693) through `ApiRequest::Evict` with a spill directory. A
//! pre-upgrade migration peer ships the same container, so it is
//! delivered here as one `ChunkedCheckpoint`. The tenant it restores
//! must answer `Query` exactly like a live replay of the same ops, at
//! the cut and after the rest of the stream.

use sbc::api::{CoresetPoint, TenantSpec};
use sbc::{GridParams, Point};
use sbc_serve::{Client, CoresetService, InProcess, ServeConfig};

const TENANT: u64 = 42;

fn spec() -> TenantSpec {
    TenantSpec {
        seed: 5,
        ..TenantSpec::default()
    }
}

/// One write: insert (`true`) or delete a batch of points.
type Write = (bool, Vec<Point>);

/// Four batches of inserts, a batch of deletes, then more of both.
fn ops() -> Vec<Write> {
    let spec = spec();
    let gp = GridParams::from_log_delta(spec.log_delta, spec.dims as usize);
    let pts = sbc::geometry::dataset::gaussian_mixture(gp, 40, 2, 0.08, 5);
    let batch = |i: usize| pts[i * 5..(i + 1) * 5].to_vec();
    vec![
        (true, batch(0)),
        (true, batch(1)),
        (true, batch(2)),
        (true, batch(3)),
        (false, batch(1)),
        (true, batch(4)),
        (false, batch(0)),
        (true, batch(5)),
    ]
}

/// The container holds the tenant after this many writes.
const CUT: usize = 5;

fn apply(client: &mut Client<InProcess>, writes: &[Write]) {
    for (insert, pts) in writes {
        if *insert {
            client.insert(TENANT, pts).expect("insert");
        } else {
            client.delete(TENANT, pts).expect("delete");
        }
    }
}

fn client() -> Client<InProcess> {
    let mut c = Client::new(InProcess::new(CoresetService::new(ServeConfig::default())));
    c.hello().expect("hello");
    c
}

#[test]
fn v3_spill_container_restores_into_a_live_tenant() {
    let path = format!(
        "{}/tests/fixtures/spill_v3.sbct",
        env!("CARGO_MANIFEST_DIR")
    );
    let container = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let ops = ops();

    let mut replay = client();
    replay.open(TENANT, spec()).expect("open");
    apply(&mut replay, &ops[..CUT]);

    let mut upgraded = client();
    let len = container.len() as u64;
    let received = upgraded
        .send_chunk(TENANT, spec(), 0, 1, len, 0, container)
        .expect("the v3 container restores");
    assert_eq!(received, len);

    let query =
        |c: &mut Client<InProcess>| -> (f64, Vec<CoresetPoint>) { c.query(TENANT).expect("query") };
    assert_eq!(query(&mut upgraded), query(&mut replay), "at the cut");
    let stats = |c: &mut Client<InProcess>| {
        let s = c.stats(TENANT).expect("stats");
        (s.net_count, s.ops_seen, s.measured_bytes)
    };
    assert_eq!(stats(&mut upgraded), stats(&mut replay));

    apply(&mut upgraded, &ops[CUT..]);
    apply(&mut replay, &ops[CUT..]);
    assert_eq!(query(&mut upgraded), query(&mut replay), "after the cut");
}
