//! Concurrency stress: many clients hammering one server while an
//! administrator mutates the policy environment (revocation, time of
//! day) out from under them.
//!
//! What must hold (the PR 4 authorization hot-path invariants):
//!
//! * **No torn decisions** — a key reads `NONE` for every request that
//!   starts after `revoke_key` returns, and clients whose credentials
//!   carry no conditions are *never* denied by someone else's
//!   revocation or an hour flip, no matter how the epoch bumps and
//!   cache flushes interleave with their in-flight requests.
//! * **Exact accounting** — the policy cache and the decision
//!   counter agree (`hits + misses == decisions`) after any amount of
//!   concurrent churn.
//! * The volume stays consistent under the concurrent load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use nfsv2::{ClientError, NfsStat};
use onc_rpc::{Decoder, Encoder};

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

#[test]
fn eight_clients_survive_concurrent_revocation_and_hour_flips() {
    let bed = Testbed::instant();
    let ops_per_client = 300u64;

    // Client 0 is the victim (revoked mid-run); 1–7 keep unconditional
    // root grants and must never be denied.
    let victim = key(0x10);
    let revoked_flag = Arc::new(AtomicBool::new(false));
    let denied_after_revoke = Arc::new(AtomicU64::new(0));
    let victim_ops_after_revoke = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Survivor clients.
        for i in 1..8u8 {
            let holder = key(0x10 + i);
            let client = bed.connect_owner(&holder).expect("connect survivor");
            scope.spawn(move || {
                let root = client.remote().root();
                for op in 0..ops_per_client {
                    // Mixed metadata workload, all covered by the
                    // unconditional RWX grant.
                    let result = match op % 3 {
                        0 => client.client().getattr(&root).map(|_| ()),
                        1 => client.client().readdir_all(&root).map(|_| ()),
                        _ => client.client().lookup(&root, ".").map(|_| ()),
                    };
                    // A torn decision would surface here as a spurious
                    // NfsStat::Acces while the admin churns epochs.
                    result.unwrap_or_else(|e| {
                        panic!("survivor {i} op {op} spuriously failed: {e:?}")
                    });
                }
            });
        }

        // Victim client: hammers until the revocation lands, then every
        // subsequent request must be denied.
        {
            let client = bed.connect_owner(&victim).expect("connect victim");
            let revoked_flag = revoked_flag.clone();
            let denied_after_revoke = denied_after_revoke.clone();
            let victim_ops_after_revoke = victim_ops_after_revoke.clone();
            scope.spawn(move || {
                let root = client.remote().root();
                // Run until 20 requests have been issued strictly after
                // the revocation completed (bounded so a wedged admin
                // thread cannot hang the test).
                for _ in 0..200_000u64 {
                    // Sample the flag BEFORE issuing the request: if the
                    // revocation had completed by then, the answer must
                    // be a denial — no cached grant may survive it.
                    let revoked_before = revoked_flag.load(Ordering::SeqCst);
                    let result = client.client().readdir_all(&root);
                    if revoked_before {
                        let seen = victim_ops_after_revoke.fetch_add(1, Ordering::Relaxed) + 1;
                        match result {
                            Err(ClientError::Status(NfsStat::Acces)) => {
                                denied_after_revoke.fetch_add(1, Ordering::Relaxed);
                            }
                            other => panic!(
                                "victim op after revoke_key returned {other:?}, \
                                 expected Acces denial"
                            ),
                        }
                        if seen >= 20 {
                            break;
                        }
                    }
                }
            });
        }

        // Admin thread: flip the hour (global-epoch churn + cache
        // invalidation) a few times, then revoke the victim mid-run,
        // then keep churning.
        {
            let service = bed.service().clone();
            let victim_public = victim.public();
            let revoked_flag = revoked_flag.clone();
            scope.spawn(move || {
                for hour in [9u32, 20, 14] {
                    service.set_hour(hour);
                    std::thread::yield_now();
                }
                service.revoke_key(&victim_public, None);
                revoked_flag.store(true, Ordering::SeqCst);
                for hour in [3u32, 11, 23, 12] {
                    service.set_hour(hour);
                    std::thread::yield_now();
                }
            });
        }
    });

    // The victim saw the revocation (the flag flipped while it still
    // had requests left) and every post-revocation request was denied.
    let after = victim_ops_after_revoke.load(Ordering::Relaxed);
    assert!(
        after > 0,
        "victim finished before the revocation landed — raise ops_per_client"
    );
    assert_eq!(
        denied_after_revoke.load(Ordering::Relaxed),
        after,
        "every victim request issued after revoke_key returned must be denied"
    );

    // Exact accounting after all the churn.
    let auth = bed.service().auth_stats();
    let cache = bed.service().cache().stats();
    assert_eq!(
        auth.decisions(),
        cache.hits() + cache.misses(),
        "decision counter and cache accounting must agree"
    );
    // And the server is still healthy: a fresh client works.
    let newcomer = key(0x55);
    let client = bed
        .connect_owner(&newcomer)
        .expect("connect after the storm");
    client
        .client()
        .readdir_all(&client.remote().root())
        .expect("fresh client reads");
    bed.fs().check().expect("volume consistent after the storm");
}

#[test]
fn revocation_races_pipelined_requests_under_engine() {
    // The engine serves pipelined bursts in batches on a worker pool.
    // Revoking a key while a burst is in flight must honor the PR 4
    // invariant at the *issue* boundary: requests already on the wire
    // may land on either side of the revocation, but every request
    // issued after `revoke_key` returns is denied — no batch may carry
    // a stale grant across the epoch bump.
    let bed = Testbed::instant();
    let victim = key(0x60);
    let client = bed.connect_owner(&victim).expect("connect victim");
    let root = client.remote().root();
    client
        .getattr(&root)
        .expect("grant works before revocation");

    // READDIR requires Perm::R — unlike GETATTR, which DisCFS serves
    // unauthorized (attributes are free, §5).
    let mut e = Encoder::new();
    e.put_opaque_fixed(&root.0);
    e.put_u32(0); // cookie
    e.put_u32(512); // count
    let readdir_args = e.finish();
    let status_of = |results: Vec<u8>| -> NfsStat {
        let mut d = Decoder::new(&results);
        NfsStat::from_u32(d.get_u32().expect("status word")).expect("known status")
    };

    let nfs = client.client();
    let burst = |n: u32| -> Vec<u32> {
        (0..n)
            .map(|_| {
                nfs.send_call(
                    nfsv2::NFS_PROGRAM,
                    2,
                    nfsv2::proto::proc_nfs::READDIR,
                    readdir_args.clone(),
                )
                .expect("pipelined send")
            })
            .collect()
    };

    // A pipelined burst races the revocation...
    let racing = burst(64);
    bed.service().revoke_key(&victim.public(), None);
    // ...and a second burst is issued strictly after it returned.
    let after = burst(64);

    for xid in racing {
        // Either side of the race is fine, but only clean outcomes.
        match status_of(nfs.wait_reply(xid).expect("racing reply")) {
            NfsStat::Ok | NfsStat::Acces => {}
            other => panic!("racing request got {other:?}, expected Ok or Acces"),
        }
    }
    for xid in after {
        assert_eq!(
            status_of(nfs.wait_reply(xid).expect("post-revocation reply")),
            NfsStat::Acces,
            "request issued after revoke_key returned must be denied"
        );
    }

    // Exact accounting and a healthy volume after the churn.
    let auth = bed.service().auth_stats();
    let cache = bed.service().cache().stats();
    assert_eq!(auth.decisions(), cache.hits() + cache.misses());
    bed.fs().check().expect("volume consistent after the race");
}

#[test]
fn hour_window_credentials_flip_cleanly_under_load() {
    // One client holds an hour-windowed credential while the admin
    // flips the hour back and forth: every response must be consistent
    // with the hour at *some* point during the request (allowed inside
    // the window, denied outside) — and once the admin settles on a
    // final hour, steady state must match it exactly.
    let bed = Testbed::instant();
    let bob = key(0x21);
    let client = bed.connect(&bob).expect("connect");
    let windowed = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .valid_hours(9, 17)
        .issue();
    client.submit_credential(&windowed).expect("submit");
    bed.service().set_hour(10);

    std::thread::scope(|scope| {
        let service = bed.service().clone();
        let admin = scope.spawn(move || {
            for i in 0..40u32 {
                service.set_hour(if i % 2 == 0 { 20 } else { 10 });
                std::thread::yield_now();
            }
            service.set_hour(12); // settle inside the window
        });
        let root = client.remote().root();
        for _ in 0..200 {
            match client.client().readdir_all(&root) {
                Ok(_) => {}
                Err(ClientError::Status(NfsStat::Acces)) => {}
                Err(other) => panic!("only clean allow/deny expected, got {other:?}"),
            }
        }
        admin.join().expect("admin thread");
        // Steady state: hour 12 is inside 9–17.
        client
            .client()
            .readdir_all(&root)
            .expect("inside the window after the churn settles");
    });

    let auth = bed.service().auth_stats();
    let cache = bed.service().cache().stats();
    assert_eq!(auth.decisions(), cache.hits() + cache.misses());
}
