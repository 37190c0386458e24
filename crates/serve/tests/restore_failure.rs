//! A restore that fails — an unreadable or corrupt spill file — must
//! leave the tenant evicted, with its accounting intact, so that the
//! next request restores it once the spill is readable again.

use sbc::api::{TenantSpec, PROTOCOL_VERSION};
use sbc::GridParams;
use sbc_serve::{Client, CoresetService, InProcess, ServeConfig};

#[test]
fn a_failed_restore_leaves_the_tenant_evicted() {
    let dir = std::env::temp_dir().join(format!("sbc-serve-restore-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut c = Client::new(InProcess::new(CoresetService::new(ServeConfig {
        spill_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })));
    assert_eq!(c.hello().expect("hello"), PROTOCOL_VERSION);
    let spec = TenantSpec::default();
    let gp = GridParams::from_log_delta(spec.log_delta, spec.dims as usize);
    let points = sbc::geometry::dataset::gaussian_mixture(gp, 32, 2, 0.08, 5);
    c.open(4, spec).expect("open");
    c.insert(4, &points).expect("insert");
    let before = c.query(4).expect("query before evict");
    let spilled = c.evict(4).expect("evict to disk");

    let spill = dir.join("tenant-4.sbct");
    let image = std::fs::read(&spill).expect("spill file");
    for broken in [&image[..image.len() / 2], b"not a tenant image".as_slice()] {
        std::fs::write(&spill, broken).unwrap();
        let err = c.query(4).expect_err("a corrupt spill cannot restore");
        assert_eq!(err.code(), 212, "EvictIo: {err}");
        assert!(c.stats(4).expect("still known").evicted);
        let server = c.server_stats().expect("server stats");
        assert_eq!((server.tenants_live, server.tenants_evicted), (0, 1));
        assert_eq!(c.health().expect("health").spill_bytes, spilled);
    }
    std::fs::remove_file(&spill).unwrap();
    let err = c.query(4).expect_err("a missing spill cannot restore");
    assert_eq!(err.code(), 212, "EvictIo: {err}");
    assert!(c.stats(4).expect("still known").evicted);

    std::fs::write(&spill, &image).unwrap();
    assert_eq!(c.query(4).expect("restores once readable"), before);
    let server = c.server_stats().expect("server stats");
    assert_eq!((server.tenants_live, server.tenants_evicted), (1, 0));
    assert_eq!(c.health().expect("health").spill_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
