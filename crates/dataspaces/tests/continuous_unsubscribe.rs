//! A dropped continuous-query handle unsubscribes: the next commit
//! neither delivers to it nor counts a drop for it. The continuous
//! counters are process-wide, so this test has a binary of its own.

use std::sync::Arc;
use std::time::Duration;

use bpio::DataArray;
use dataspaces::{
    DataSpaces, DsConfig, QueryKind, QueryService, QueryServiceConfig, Reduction, Region,
};

/// `(continuous_delivered, continuous_dropped)`.
fn continuous_counts() -> (u64, u64) {
    let snap = obs::global().snapshot();
    let read = |name| snap.counter(name, &[]).unwrap_or(0);
    (
        read("dataspaces.continuous_delivered"),
        read("dataspaces.continuous_dropped"),
    )
}

#[test]
fn a_dropped_handle_moves_no_continuous_counter() {
    let ds = Arc::new(DataSpaces::new(DsConfig::new(vec![16, 16], vec![4, 4], 2)));
    // One worker serves jobs in admission order: a query answered after
    // a commit proves that commit's continuous job was served.
    let svc = QueryService::new(
        Arc::clone(&ds),
        QueryServiceConfig {
            workers: 1,
            ..QueryServiceConfig::default()
        },
    );
    let region = Region::whole(&[16, 16]);
    let commit = |v: u64| {
        ds.put("f", v, &region, DataArray::F64(vec![v as f64; 256]))
            .unwrap();
        ds.commit("f", v);
        svc.query("f", v, QueryKind::Reduce(region.clone(), Reduction::Count))
            .unwrap();
    };
    let sub = svc.subscribe_reduce("f", region.clone(), Reduction::Max, 1);
    commit(0);
    assert_eq!(continuous_counts(), (1, 0), "first update delivered");
    commit(1);
    assert_eq!(continuous_counts(), (1, 1), "unread queue full: dropped");
    assert_eq!(sub.recv(Duration::from_secs(5)).map(|u| u.version), Some(0));
    drop(sub);
    commit(2);
    assert_eq!(continuous_counts(), (1, 1), "the dropped handle is pruned");
}
