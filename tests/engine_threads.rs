//! The server runs a fixed thread pool: connection count does not
//! change the process's thread count.
//!
//! A test binary of its own: the count is taken process-wide, and a
//! neighbouring test's `Testbed` starting or stopping its engine inside
//! the window used to fail it (2 runs in 10 of `--test engine`).

use discfs::{DiscfsClient, Testbed};
use discfs_crypto::ed25519::SigningKey;

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

fn connect_granted(bed: &Testbed, seed: u8) -> DiscfsClient {
    bed.connect_owner(&key(seed)).expect("connect")
}

/// The whole point of the engine: more connections, same threads.
/// Counts the threads the engine names (`engine-loop`,
/// `engine-worker-N`), not every task in the process.
#[cfg(target_os = "linux")]
#[test]
fn connection_count_does_not_grow_thread_count() {
    fn engine_threads_now() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("engine-"))
            .count()
    }
    let bed = Testbed::instant();
    let clients: Vec<DiscfsClient> = (0..8).map(|i| connect_granted(&bed, 0x60 + i)).collect();
    let before = engine_threads_now();
    assert!(before >= bed.engine().thread_count());
    let more: Vec<DiscfsClient> = (0..120)
        .map(|i| connect_granted(&bed, 0x60 + (i % 40) as u8))
        .collect();
    let after = engine_threads_now();
    assert_eq!(
        before, after,
        "accepting 120 more connections must not spawn server threads"
    );
    assert_eq!(bed.engine().connections(), clients.len() + more.len());
    for client in clients.iter().chain(&more) {
        client.getattr(&client.remote().root()).expect("served");
    }
}
