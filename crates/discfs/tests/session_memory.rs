//! What one session makes the server hold, measured: a creator that
//! receives a fresh credential for each of 1 000 files costs the
//! process a bounded number of bytes per credential (the client
//! wallet's copy plus the server session's), and little beyond its
//! files once it has disconnected. While every audit record pinned a
//! list of one issuer per credential, a session's memory grew with the
//! square of its credentials: 18 KB a create here, and 16 MB stayed in
//! the audit ring after the client left. And what a hostile peer can
//! make the server hold: self-signed junk credentials stop at the
//! session's cap.
//!
//! A test binary of its own, because it installs a global allocator
//! that counts live bytes. The server allocates on its engine threads,
//! so the count is process-wide, and the tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use discfs::rpc::DiscfsRpcStatus;
use discfs::{CredentialIssuer, DiscfsClientError, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: delegates to the system allocator unchanged; the counter is a
// static atomic, which neither allocates nor can be gone when accessed.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// One test at a time: the count is process-wide.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const CREATES: i64 = 1000;

#[test]
fn a_session_grows_linearly_in_its_credentials_and_leaves_little_behind() {
    let _turn = turn();
    let bed = Testbed::new();
    let before_connect = live();
    let mut client = bed
        .connect_owner(&SigningKey::from_seed(&[0xC0; 32]))
        .unwrap();
    let root = client.remote().root();

    let before_creates = live();
    for i in 0..CREATES {
        client
            .create_with_credential(&root, &format!("f{i:04}"), 0o644)
            .unwrap();
    }
    let per_create = (live() - before_creates) / CREATES;
    assert!(
        per_create <= 4 << 10,
        "live heap grew {per_create} bytes a create over {CREATES} creates"
    );

    drop(client);
    let deadline = Instant::now() + Duration::from_secs(10);
    while bed.service().peer_session_count() != 0 {
        assert!(Instant::now() < deadline, "the session outlived its client");
        std::thread::sleep(Duration::from_millis(5));
    }
    let retained = live() - before_connect;

    // The files stay, and so does what the volume spent on them: since
    // the simulated disk shares zero blocks, the inode-table blocks the
    // creates filled (8 KiB for every 32 files) are new heap. Price that
    // by making as many files again straight on the volume, with no
    // session, and allow the session 256 KiB beyond it.
    let fs = bed.fs();
    let before_files = live();
    for i in 0..CREATES {
        fs.create(fs.root(), &format!("g{i:04}"), 0o644, 0, 0)
            .unwrap();
    }
    let files = live() - before_files;
    assert!(
        retained - files <= 256 << 10,
        "{retained} live heap bytes remain after the client disconnected, \
         {files} of them the price of its files"
    );
}

/// The most credentials one peer's session holds (`discfs::server`).
const SESSION_CAP: usize = 4096;

const JUNK: usize = 10_000;

#[test]
fn self_signed_junk_credentials_stop_at_the_session_cap() {
    let _turn = turn();
    let bed = Testbed::new();
    let peer = SigningKey::from_seed(&[0xD0; 32]);
    let client = bed.connect(&peer).unwrap();
    // Held, or refused with `BadCredential`; anything else is a failure.
    let held = |text: &str| match client.submit_credential(text) {
        Ok(()) => true,
        Err(DiscfsClientError::CredentialRejected(DiscfsRpcStatus::BadCredential)) => false,
        Err(e) => panic!("submission failed: {e:?}"),
    };
    let oversized = CredentialIssuer::new(&peer)
        .holder(&peer.public())
        .comment(&"x".repeat(8 << 10))
        .grant_handle_string("1.1", Perm::R)
        .issue();
    assert!(!held(&oversized), "an 8 KiB comment is over the text cap");

    let before = live();
    let mut accepted = 0;
    for i in 0..JUNK {
        // Each from its own issuer: the worst case for the audit ring.
        let mut seed = [0xA5; 32];
        seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
        let junk = CredentialIssuer::new(&SigningKey::from_seed(&seed))
            .holder(&peer.public())
            .grant_handle_string(&format!("{i}.1"), Perm::R)
            .issue();
        accepted += usize::from(held(&junk));
    }
    let bytes = live() - before;
    assert_eq!(accepted, SESSION_CAP);
    assert_eq!(client.credential_count().unwrap() as usize, SESSION_CAP);
    assert!(
        bytes <= (SESSION_CAP << 12) as i64,
        "{JUNK} junk credentials left {bytes} live heap bytes"
    );
}
