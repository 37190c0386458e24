//! Service-level integration: every request kind through the typed
//! client and the raw frame entry points, admission control under both
//! policies, disk spill, envelope dedup, and protocol edge cases.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sbc::api::{
    frame_requests, negotiate, tenant_pipeline, unframe_responses, ApiError, ApiRequest,
    ApiResponse, TenantSpec, FRAME_MAGIC, PROTOCOL_VERSION,
};
use sbc::distributed::wire::Envelope;
use sbc::streaming::codec::{from_bytes, to_bytes};
use sbc::{GridParams, Point, SbcError, StreamCoresetBuilder};
use sbc_serve::{Client, CoresetService, InProcess, OverloadPolicy, ServeConfig};

fn points(spec: &TenantSpec, n: usize, seed: u64) -> Vec<Point> {
    let gp = GridParams::from_log_delta(spec.log_delta, spec.dims as usize);
    sbc::geometry::dataset::gaussian_mixture(gp, n, 2, 0.08, seed)
}

/// Measured bytes of a reference builder for `spec`, fresh and then
/// fed `pts`: the footprints of an opened tenant and of one that was
/// fed the same points.
fn footprints(spec: &TenantSpec, pts: &[Point]) -> (usize, usize) {
    let (params, sparams) = tenant_pipeline(spec).unwrap();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut builder = StreamCoresetBuilder::new(params, sparams, &mut rng);
    let empty = builder.space_report().measured_bytes;
    builder.insert_batch(pts);
    (empty, builder.space_report().measured_bytes)
}

fn client(config: ServeConfig) -> Client<InProcess> {
    let mut c = Client::new(InProcess::new(CoresetService::new(config)));
    assert_eq!(c.hello().expect("hello"), PROTOCOL_VERSION);
    c
}

fn code(e: &SbcError) -> u16 {
    e.code()
}

#[test]
fn full_tenant_lifecycle_over_the_wire() {
    let mut c = client(ServeConfig::default());
    let spec = TenantSpec {
        seed: 11,
        ..TenantSpec::default()
    };
    let pts = points(&spec, 48, 5);

    assert!(
        !c.open(7, spec).expect("open"),
        "fresh open is not a restore"
    );
    assert_eq!(c.insert(7, &pts).expect("insert"), 48);
    assert_eq!(c.delete(7, &pts[..8]).expect("delete"), 40);

    let (o, served) = c.query(7).expect("mid-stream query");
    assert!(o >= 1.0);
    assert!(!served.is_empty());

    let stats = c.stats(7).expect("stats");
    assert_eq!(stats.net_count, 40);
    assert_eq!(stats.ops_seen, 56);
    assert!(!stats.evicted);
    assert!(stats.measured_bytes > 0);

    // The wire checkpoint is the (spec, per-shard snapshots) container,
    // and the snapshot equals an uninterrupted local builder's.
    let container = c.checkpoint(7).expect("checkpoint");
    let (stored_spec, blobs): (TenantSpec, Vec<Vec<u8>>) =
        from_bytes(&container).expect("decodable container");
    assert_eq!(stored_spec, spec);
    let (params, sparams) = tenant_pipeline(&spec).unwrap();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut local = StreamCoresetBuilder::new(params, sparams, &mut rng);
    local.insert_batch(&pts);
    for p in &pts[..8] {
        local.delete(p);
    }
    assert_eq!(blobs, vec![local.checkpoint().unwrap().to_bytes()]);

    // Evict, observe cheap stats, then transparently restore via insert.
    let bytes = c.evict(7).expect("evict");
    assert!(bytes > 0);
    let stats = c.stats(7).expect("stats while evicted");
    assert!(stats.evicted);
    assert_eq!(stats.measured_bytes, 0, "evicted stats must not restore");
    assert_eq!(c.insert(7, &pts[..4]).expect("restore-on-insert"), 44);

    c.close(7).expect("close");
    let err = c.stats(7).expect_err("closed tenant is unknown");
    assert_eq!(code(&err), 210);
}

#[test]
fn open_is_idempotent_and_spec_changes_are_refused() {
    let mut c = client(ServeConfig::default());
    let spec = TenantSpec::default();
    c.open(1, spec).expect("open");
    assert!(!c.open(1, spec).expect("re-open is idempotent"));
    let err = c
        .open(1, TenantSpec { k: 3, ..spec })
        .expect_err("spec change on a live tenant");
    assert_eq!(code(&err), 211);
}

#[test]
fn wrong_dimension_points_are_refused_with_a_coded_error() {
    let mut c = client(ServeConfig::default());
    let spec = TenantSpec::default(); // dims = 2
    c.open(1, spec).expect("open");
    let bad = vec![Point::new(vec![1, 1, 1])];
    let err = c.insert(1, &bad).expect_err("3-d point into a 2-d tenant");
    assert_eq!(code(&err), 213);
    // Nothing was applied.
    assert_eq!(c.stats(1).expect("stats").ops_seen, 0);
}

#[test]
fn reject_policy_refuses_and_applies_nothing() {
    let mut c = client(ServeConfig {
        budget_bytes: 1, // any live tenant is over budget
        policy: OverloadPolicy::Reject,
        ..ServeConfig::default()
    });
    let spec = TenantSpec::default();
    // The first open is admitted (nothing measured yet), the next is not.
    c.open(1, spec).expect("first open fits an empty service");
    let err = c
        .open(2, TenantSpec { seed: 2, ..spec })
        .expect_err("second open must be refused");
    assert!(matches!(err, SbcError::Api(ApiError::Overloaded { .. })));
    assert_eq!(code(&err), 220);
    // Mutations on the surviving tenant are refused too.
    let err = c.insert(1, &points(&spec, 4, 1)).expect_err("over budget");
    assert_eq!(code(&err), 220);
    let stats = c.server_stats().expect("server stats");
    assert_eq!(stats.tenants_live, 1);
    assert_eq!(stats.overloaded, 2);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn shed_policy_evicts_the_fattest_other_tenant() {
    let spec = TenantSpec::default();
    // Budget fits tenant 1 once fed, but not tenant 1 plus a freshly
    // opened tenant 2: measure a reference builder before and after
    // feeding it what tenant 1 will be fed.
    let feed = points(&spec, 32, 1);
    let (empty, fed) = footprints(&spec, &feed);

    let mut c = client(ServeConfig {
        budget_bytes: fed + empty / 2,
        policy: OverloadPolicy::Shed,
        ..ServeConfig::default()
    });
    c.open(1, spec).expect("open 1");
    c.insert(1, &feed).expect("feed 1");
    // The second open is admitted (the decision precedes the new
    // tenant's footprint), leaving the service over budget…
    c.open(2, TenantSpec { seed: 2, ..spec }).expect("open 2");
    // …so tenant 2's first insert trips admission control, which sheds
    // the fattest *other* tenant — tenant 1 (fed, so strictly fatter) —
    // rather than refusing the requester.
    c.insert(2, &points(&spec, 4, 2))
        .expect("insert sheds tenant 1");
    assert!(c.stats(1).expect("stats").evicted, "tenant 1 was shed");
    assert!(!c.stats(2).expect("stats").evicted);
    let stats = c.server_stats().expect("server stats");
    assert_eq!(stats.evictions, 1);
    // Tenant 1 still answers — its query runs restore admission (the
    // known incoming footprint), sheds tenant 2 to make room, and
    // restores transparently.
    let (_o, served) = c.query(1).expect("query restores");
    assert!(!served.is_empty());
    let stats = c.server_stats().expect("server stats");
    assert_eq!(stats.restores, 1);
    assert_eq!(stats.evictions, 2, "the restore shed tenant 2");
}

#[test]
fn hostile_specs_are_refused_coded_and_do_not_kill_the_server() {
    // Wire-supplied spec values must never reach the asserting grid
    // constructor: each bad Open answers a coded InvalidSpec (214) and
    // the service keeps serving afterwards.
    let mut c = client(ServeConfig::default());
    let bad_specs = [
        TenantSpec {
            log_delta: 41,
            ..TenantSpec::default()
        },
        TenantSpec {
            log_delta: u32::MAX,
            ..TenantSpec::default()
        },
        TenantSpec {
            dims: 0,
            ..TenantSpec::default()
        },
        TenantSpec {
            dims: u32::MAX,
            ..TenantSpec::default()
        },
        TenantSpec {
            shards: u32::MAX,
            ..TenantSpec::default()
        },
    ];
    for (i, spec) in bad_specs.into_iter().enumerate() {
        let err = c.open(i as u64, spec).expect_err("hostile spec");
        assert_eq!(code(&err), 214, "{spec:?}");
        let err = c.stats(i as u64).expect_err("no tenant was created");
        assert_eq!(code(&err), 210);
    }
    // k = 0 fails in the params builder — coded too, different range.
    let err = c
        .open(
            9,
            TenantSpec {
                k: 0,
                ..TenantSpec::default()
            },
        )
        .expect_err("k = 0");
    assert_eq!(code(&err), 101);
    // The service survived all of it.
    c.open(10, TenantSpec::default()).expect("still serving");
    assert_eq!(c.server_stats().expect("server stats").tenants_live, 1);
}

#[test]
fn restore_on_demand_respects_the_budget() {
    // Under Reject, a request that would restore an evicted tenant past
    // the budget is refused *before* the restore — the tenant stays on
    // disk and total measured bytes stay put, instead of every evicted
    // tenant's next request growing the service arbitrarily past budget.
    let spec = TenantSpec::default();
    // Budget fits tenant 1 once fed, but not tenant 1 plus a freshly
    // opened tenant 2 (sized as in the shed test above).
    let feed = points(&spec, 16, 1);
    let (empty, fed) = footprints(&spec, &feed);

    let mut c = client(ServeConfig {
        budget_bytes: fed + empty / 2,
        policy: OverloadPolicy::Reject,
        ..ServeConfig::default()
    });
    c.open(1, spec).expect("open 1");
    c.insert(1, &feed).expect("feed 1");
    c.evict(1).expect("evict 1");
    c.open(2, TenantSpec { seed: 2, ..spec }).expect("open 2");
    let occupied = c.server_stats().expect("server stats").measured_bytes;

    // Tenant 2 occupies `empty` bytes; restoring tenant 1 (`fed` bytes)
    // next to it would run past the `fed + empty / 2` budget. Every
    // restore path must refuse.
    let err = c.insert(1, &points(&spec, 4, 2)).expect_err("insert");
    assert_eq!(code(&err), 220);
    let err = c.query(1).expect_err("query must not restore past budget");
    assert_eq!(code(&err), 220);
    let err = c.checkpoint(1).expect_err("checkpoint must not restore");
    assert_eq!(code(&err), 220);
    let err = c.open(1, spec).expect_err("re-open must not restore");
    assert_eq!(code(&err), 220);

    let stats = c.server_stats().expect("server stats");
    assert_eq!(stats.restores, 0, "nothing was restored");
    assert_eq!(
        stats.measured_bytes, occupied,
        "refused restores must not grow the footprint"
    );
    assert!(
        c.stats(1).expect("stats").evicted,
        "tenant 1 stayed on disk"
    );

    // Freeing the budget makes the same restore admissible again.
    c.close(2).expect("close 2");
    let (_o, served) = c.query(1).expect("query restores once there is room");
    assert!(!served.is_empty());
    assert_eq!(c.server_stats().expect("server stats").restores, 1);
}

#[test]
fn max_tenants_cap_refuses_new_opens() {
    let mut c = client(ServeConfig {
        max_tenants: 1,
        ..ServeConfig::default()
    });
    let spec = TenantSpec::default();
    c.open(1, spec).expect("open 1");
    let err = c
        .open(2, TenantSpec { seed: 2, ..spec })
        .expect_err("cap reached");
    assert_eq!(code(&err), 220);
    // But the capped tenant keeps working, and re-open stays idempotent.
    assert!(!c.open(1, spec).expect("idempotent"));
}

#[test]
fn disk_spill_round_trips_and_close_cleans_up() {
    let dir = std::env::temp_dir().join(format!("sbc-serve-spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut c = client(ServeConfig {
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let spec = TenantSpec {
        seed: 3,
        ..TenantSpec::default()
    };
    c.open(9, spec).expect("open");
    c.insert(9, &points(&spec, 32, 7)).expect("insert");
    let before = c.query(9).expect("query before evict");

    c.evict(9).expect("evict to disk");
    let spill = dir.join("tenant-9.sbct");
    assert!(spill.exists(), "eviction wrote {}", spill.display());
    // Idempotent re-evict (a retried frame) leaves the spill alone.
    c.evict(9).expect("re-evict is idempotent");
    assert!(spill.exists());

    let after = c.query(9).expect("query restores from disk");
    assert_eq!(before, after, "restore is bit-identical");
    assert!(!spill.exists(), "restore consumed the spill file");

    c.evict(9).expect("evict again");
    c.close(9).expect("close an evicted tenant");
    assert!(!spill.exists(), "close removed the spill file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batched_frames_answer_record_for_record() {
    let mut c = client(ServeConfig::default());
    let spec = TenantSpec::default();
    let pts = points(&spec, 8, 1);
    let resps = c
        .call_batch(&[
            ApiRequest::Open { tenant: 1, spec },
            ApiRequest::Insert {
                tenant: 1,
                points: pts.clone(),
            },
            ApiRequest::Query { tenant: 1 },
            ApiRequest::Stats { tenant: 2 }, // unknown — per-record error
            ApiRequest::Unknown { tag: 4096 },
        ])
        .expect("batch");
    assert_eq!(resps.len(), 5);
    assert!(matches!(
        resps[0],
        ApiResponse::Opened {
            tenant: 1,
            restored: false
        }
    ));
    assert!(matches!(resps[1], ApiResponse::Applied { applied: 8, .. }));
    assert!(matches!(resps[2], ApiResponse::CoresetReply { .. }));
    assert!(matches!(resps[3], ApiResponse::Error { code: 210, .. }));
    assert!(matches!(resps[4], ApiResponse::Unsupported { tag: 4096 }));
}

#[test]
fn version_negotiation_agrees_or_fails_coded() {
    assert_eq!(negotiate(1, 1), Ok(1));
    assert_eq!(negotiate(1, 99), Ok(PROTOCOL_VERSION), "caps at ours");
    let err =
        negotiate(PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 5).expect_err("future-only client");
    assert_eq!(err.code(), 203);

    // Through the service: a future-only Hello answers a coded error.
    let mut service = CoresetService::new(ServeConfig::default());
    let resp = service.handle(&ApiRequest::Hello {
        min_version: PROTOCOL_VERSION + 1,
        max_version: PROTOCOL_VERSION + 1,
    });
    assert!(matches!(resp, ApiResponse::Error { code: 203, .. }));
}

#[test]
fn garbage_frames_answer_a_single_coded_error_record() {
    let mut service = CoresetService::new(ServeConfig::default());
    let reply = service.handle_frame(b"not a frame at all");
    let resps = unframe_responses(&reply).expect("reply frame is well-formed");
    assert!(matches!(
        resps.as_slice(),
        [ApiResponse::Error { code: 200, .. }]
    ));

    // Truncated payload: valid magic, length runs past the buffer.
    let mut frame = FRAME_MAGIC.to_vec();
    frame.extend_from_slice(&100u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 4]);
    let reply = service.handle_frame(&frame);
    let resps = unframe_responses(&reply).expect("reply frame is well-formed");
    assert!(matches!(
        resps.as_slice(),
        [ApiResponse::Error { code: 201, .. }]
    ));
}

#[test]
fn envelope_redelivery_is_answered_from_cache_without_reapplying() {
    let mut service = CoresetService::new(ServeConfig::default());
    let spec = TenantSpec::default();
    let pts = points(&spec, 4, 1);
    let open = to_bytes(&Envelope {
        machine: 3,
        seq: 1,
        payload: frame_requests(&[ApiRequest::Open { tenant: 1, spec }]),
    });
    let insert = to_bytes(&Envelope {
        machine: 3,
        seq: 2,
        payload: frame_requests(&[ApiRequest::Insert {
            tenant: 1,
            points: pts,
        }]),
    });
    service.handle_envelope(&open);
    let first = service.handle_envelope(&insert);
    // The transport redelivers seq 2 (a duplicate or a retry): the reply
    // must come from cache and the 4 points must not be applied twice.
    let second = service.handle_envelope(&insert);
    assert_eq!(first, second);
    let stats = match service.handle(&ApiRequest::Stats { tenant: 1 }) {
        ApiResponse::StatsReply { stats, .. } => stats,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(stats.net_count, 4, "duplicate delivery must not re-apply");
    assert_eq!(stats.ops_seen, 4);

    // An undecodable envelope still answers a coded error envelope.
    let reply = service.handle_envelope(b"\x01\x02\x03");
    let env: Envelope = from_bytes(&reply).expect("error reply is an envelope");
    let resps = unframe_responses(&env.payload).expect("well-formed frame");
    assert!(matches!(
        resps.as_slice(),
        [ApiResponse::Error { code: 201, .. }]
    ));
}

#[test]
fn dedup_window_is_bounded_across_machine_id_cycling() {
    // A peer cycling fresh machine ids must not grow the dedup map
    // without bound: past the window's capacity the oldest machines are
    // displaced (losing only their idempotency window — the same
    // contract as a brand-new peer).
    let mut service = CoresetService::new(ServeConfig::default());
    let spec = TenantSpec::default();
    service.handle(&ApiRequest::Open { tenant: 1, spec });
    let insert = to_bytes(&Envelope {
        machine: 1,
        seq: 1,
        payload: frame_requests(&[ApiRequest::Insert {
            tenant: 1,
            points: points(&spec, 4, 1),
        }]),
    });
    service.handle_envelope(&insert);
    // Within the window: redelivery is answered from cache.
    service.handle_envelope(&insert);
    let net = |service: &mut CoresetService| match service.handle(&ApiRequest::Stats { tenant: 1 })
    {
        ApiResponse::StatsReply { stats, .. } => stats.net_count,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(net(&mut service), 4, "in-window redelivery deduplicated");

    // Cycle enough distinct machine ids to displace machine 1 (the
    // window holds 1024 machines).
    for m in 2..=1025u32 {
        service.handle_envelope(&to_bytes(&Envelope {
            machine: m,
            seq: 1,
            payload: frame_requests(&[ApiRequest::ServerStats]),
        }));
    }
    // Machine 1's window is gone: the redelivery re-applies, exactly as
    // a first delivery from an unknown peer would.
    service.handle_envelope(&insert);
    assert_eq!(net(&mut service), 8, "displaced window re-applies");
}

#[test]
fn shutdown_flows_through_the_protocol() {
    let mut c = client(ServeConfig::default());
    c.shutdown().expect("shutdown ack");
    assert!(c.transport_mut().service_mut().is_shutting_down());
}
