//! Pins where the seeded fault plans land: one fixed [`Lossy`] client
//! script and one fixed 3-server [`Fleet`] script (open, insert, a
//! migration, an aborted migration, a drain) run under `drop8@3`,
//! `dup8@5` and `chaos@11`, and the exact delivery ([`LossyStats`]) and
//! migration ([`MigrationStats`]) counters are asserted. A fault plan
//! indexes deliveries, so any change to how many envelopes a script
//! sends, or in which order, moves a drop or a duplicate onto another
//! delivery and shows up here.

use sbc::api::TenantSpec;
use sbc::{FaultPlan, GridParams, Point};
use sbc_serve::client::LossyStats;
use sbc_serve::{Client, CoresetService, Fleet, Lossy, MigrationStats, ServeConfig};

const PROFILES: [&str; 3] = ["drop8@3", "dup8@5", "chaos@11"];

fn batches(spec: TenantSpec, seed: u64) -> Vec<Vec<Point>> {
    let gp = GridParams::from_log_delta(spec.log_delta, spec.dims as usize);
    sbc::geometry::dataset::gaussian_mixture(gp, 48, 2, 0.08, seed)
        .chunks(8)
        .map(<[Point]>::to_vec)
        .collect()
}

/// Every request kind a client sends, against one service.
fn lossy_script(profile: &str) -> LossyStats {
    let plan = FaultPlan::parse(profile).expect("known profile");
    let mut client = Client::new(Lossy::new(
        CoresetService::new(ServeConfig::default()),
        plan,
        1,
    ));
    let spec = TenantSpec::default();
    client.hello().expect("hello");
    for tenant in 0..3u64 {
        client.open(tenant, spec).expect("open");
        for batch in batches(spec, 10 + tenant) {
            client.insert(tenant, &batch).expect("insert");
        }
    }
    client
        .delete(1, &batches(spec, 11)[0])
        .expect("delete batch");
    client.query(0).expect("query");
    client.checkpoint(1).expect("checkpoint");
    client.evict(2).expect("evict");
    assert!(client.stats(2).expect("stats").evicted);
    client.query(2).expect("query restores");
    client.close(0).expect("close");
    client.server_stats().expect("server stats");
    client.health().expect("health");
    client.transport_mut().stats
}

/// Open, insert, one committed migration with a batch inside the
/// frozen window, one aborted migration, and a drain.
fn fleet_script(profile: &str) -> (LossyStats, MigrationStats) {
    const SERVERS: [u32; 3] = [1, 2, 3];
    let plan = FaultPlan::parse(profile).expect("known profile");
    let mut fleet = Fleet::new(plan);
    for id in SERVERS {
        fleet.insert_server(id, Box::new(CoresetService::new(ServeConfig::default())));
    }
    let spec = TenantSpec::default();
    let tenants: Vec<(u64, Vec<Vec<Point>>)> = (0..6u64).map(|t| (t, batches(spec, t))).collect();
    for (tenant, _) in &tenants {
        fleet.open(*tenant, spec).expect("open");
    }
    for (tenant, b) in &tenants {
        for batch in &b[..3] {
            fleet.insert(*tenant, batch).expect("insert");
        }
    }
    let next = |from: u32| SERVERS[(SERVERS.iter().position(|&s| s == from).unwrap() + 1) % 3];

    let to = next(fleet.owner(0).expect("owner"));
    assert!(fleet.migrate_begin(0, to, 256).expect("begin"));
    fleet.insert(0, &tenants[0].1[3]).expect("frozen insert");
    let report = fleet.migrate_finish(0).expect("finish");
    assert!(report.committed);
    assert_eq!(fleet.owner(0), Some(to));

    let from = fleet.owner(1).expect("owner");
    assert!(fleet.migrate_begin(1, next(from), 256).expect("begin"));
    fleet.insert(1, &tenants[1].1[3]).expect("frozen insert");
    fleet.abort(1).expect("abort");
    assert_eq!(fleet.owner(1), Some(from));

    let drained = fleet.owner(2).expect("owner");
    let reports = fleet.drain(drained, 512).expect("drain");
    assert!(!reports.is_empty() && reports.iter().all(|r| r.committed));
    for (tenant, b) in &tenants {
        fleet.insert(*tenant, &b[4]).expect("post-drain insert");
        fleet.query(*tenant).expect("query");
    }
    fleet.close(5).expect("close");
    (fleet.stats, fleet.migration_stats())
}

const fn stats(drops: u64, dups: u64, retries: u64) -> LossyStats {
    LossyStats {
        drops,
        dups,
        retries,
    }
}

/// Every profile makes the same migrations; only the delivery
/// counters differ.
const MIGRATIONS: MigrationStats = MigrationStats {
    migrations_out: 6,
    migrations_in: 6,
    chunks_in: 1005,
    cutovers: 5,
    aborts: 1,
    replayed_ops: 8,
    replay_queue_peak: 8,
};

#[test]
fn lossy_client_faults_land_on_pinned_deliveries() {
    let expected = [stats(4, 0, 4), stats(0, 4, 0), stats(4, 4, 4)];
    for (profile, want) in PROFILES.into_iter().zip(expected) {
        assert_eq!(lossy_script(profile), want, "{profile}");
    }
}

#[test]
fn fleet_faults_and_migrations_land_on_pinned_deliveries() {
    let expected = [stats(152, 0, 152), stats(0, 133, 0), stats(152, 129, 152)];
    for (profile, want) in PROFILES.into_iter().zip(expected) {
        assert_eq!(fleet_script(profile), (want, MIGRATIONS), "{profile}");
    }
}
