//! The environment path, end to end in a clean process: with the
//! variables set before any obs call, the *first span of the run* must
//! find the global registry already gated and exporting as they say —
//! no programmatic setter, no second touch (an env-only run once left an
//! empty `[]` trace file because the flag was read too late).

use std::time::Duration;

#[test]
fn global_registry_is_configured_from_the_environment() {
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("obs-env-snap-{}.json", std::process::id()));
    let trace_path = dir.join(format!("obs-env-trace-{}.json", std::process::id()));
    std::env::set_var("PREDATA_METRICS", &snap_path);
    std::env::set_var("PREDATA_LINEAGE", "1");
    std::env::set_var("PREDATA_TRACE", &trace_path);

    {
        let _g = obs::span!("pull", 2).chunk(5).bytes(1024);
        std::thread::sleep(Duration::from_millis(1));
    }
    obs::mark("routed", 2).chunk(5);
    let reg = obs::global();
    assert!(reg.enabled() && reg.detail());
    assert_eq!(reg.export_path(), Some(snap_path.clone()));

    let snap = reg.snapshot();
    let chunk = &snap.lineage()[0];
    assert_eq!((chunk.src_rank, chunk.step), (5, 2));
    let pulled = chunk.mark(obs::lineage::Stage::RdmaDone).unwrap();
    assert_eq!(pulled.bytes, Some(1024));
    assert!(pulled.wait_ns.unwrap() >= 1_000_000);
    assert_eq!(snap.perturb()[0].1.pull_bytes, 1024);

    reg.export().unwrap();
    let json = std::fs::read_to_string(&snap_path).unwrap();
    assert!(json.starts_with(&format!("{{\"version\":{},", obs::SNAPSHOT_VERSION)));
    assert!(json.contains("\"src\":5,\"step\":2"));
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.contains("\"name\":\"pull\"") && trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"ph\":\"s\""), "the chunk's flow starts");
    std::fs::remove_file(snap_path).ok();
    std::fs::remove_file(trace_path).ok();
}
