//! Edge-case tests for the message-passing runtime: large payloads,
//! repeated barriers, and communicators moved into helper threads.

use minimpi::{Comm, World};

#[test]
fn large_payload_roundtrip() {
    let n = 4_000_000usize; // 32 MB of f64
    let out = World::run(2, move |c| {
        let mine: Vec<f64> = (0..n).map(|i| (i * (c.rank() + 1)) as f64).collect();
        c.gather(0, mine).map(|all| all[1][n - 1])
    });
    assert_eq!(out, vec![Some((2 * (n - 1)) as f64), None]);
}

#[test]
fn barrier_is_reusable_between_collectives() {
    let out = World::run(4, |c| {
        for _ in 0..50 {
            c.barrier();
        }
        c.allgather(1u8)
    });
    assert_eq!(out, vec![vec![1; 4]; 4]);
}

#[test]
fn comm_is_send_to_worker_threads() {
    fn assert_send<T: Send>() {}
    assert_send::<Comm>();
    // And actually usable from a moved-to thread.
    let out = World::run(2, |c| {
        std::thread::spawn(move || c.allgather(c.rank() as u8))
            .join()
            .unwrap()
    });
    assert_eq!(out, vec![vec![0, 1], vec![0, 1]]);
}
