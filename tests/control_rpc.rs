//! Edge cases of the DisCFS control RPC program (credential submission,
//! credential-returning CREATE/MKDIR, revocation procedures).

use discfs::rpc::{proc_discfs, DISCFS_PROGRAM, DISCFS_VERSION};
use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use nfsv2::ClientError;
use onc_rpc::{AcceptStat, Encoder};

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

#[test]
fn null_procedure_answers() {
    let bed = Testbed::instant();
    let client = bed.connect(&key(2)).unwrap();
    let result = client
        .client()
        .call_raw(DISCFS_PROGRAM, DISCFS_VERSION, proc_discfs::NULL, vec![])
        .unwrap();
    assert!(result.is_empty());
}

#[test]
fn unknown_control_procedure_rejected() {
    let bed = Testbed::instant();
    let client = bed.connect(&key(2)).unwrap();
    let err = client
        .client()
        .call_raw(DISCFS_PROGRAM, DISCFS_VERSION, 99, vec![]);
    assert!(matches!(
        err,
        Err(ClientError::Rpc(AcceptStat::ProcUnavail))
    ));
}

#[test]
fn garbage_args_to_submit_rejected_cleanly() {
    let bed = Testbed::instant();
    let client = bed.connect(&key(2)).unwrap();
    // SUBMIT_CRED expects an XDR string; send raw junk.
    let err = client.client().call_raw(
        DISCFS_PROGRAM,
        DISCFS_VERSION,
        proc_discfs::SUBMIT_CRED,
        vec![0xff, 0x01],
    );
    assert!(matches!(
        err,
        Err(ClientError::Rpc(AcceptStat::GarbageArgs))
    ));
    // Connection still healthy.
    assert!(client.credential_count().is_ok());
}

#[test]
fn create_without_directory_rights_reports_fs_error() {
    let bed = Testbed::instant();
    let mut client = bed.connect(&key(2)).unwrap();
    let root = client.remote().root();
    // No credentials at all: the credential-returning CREATE must fail
    // with a clean status, not a protocol error.
    let err = client.create_with_credential(&root, "nope.txt", 0o644);
    assert!(err.is_err());
    assert_eq!(client.credential_count().unwrap(), 0);
}

#[test]
fn create_in_missing_directory_reports_stale() {
    let bed = Testbed::instant();
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).unwrap();
    // A fabricated directory handle: granted-on-root does not help, and
    // the storage layer reports it stale.
    let bogus_dir = nfsv2::FHandle::pack(1, 999, 7);
    let err = client.create_with_credential(&bogus_dir, "x", 0o644);
    assert!(err.is_err());
}

#[test]
fn revoke_key_with_malformed_payload() {
    let bed = Testbed::instant();
    let admin_key = SigningKey::from_seed(bed.admin().seed());
    let client = bed.connect(&admin_key).unwrap();
    // REVOKE_KEY expects 32 opaque bytes; send 4.
    let mut e = Encoder::new();
    e.put_opaque_fixed(&[1, 2, 3, 4]);
    let err = client.client().call_raw(
        DISCFS_PROGRAM,
        DISCFS_VERSION,
        proc_discfs::REVOKE_KEY,
        e.finish(),
    );
    assert!(matches!(
        err,
        Err(ClientError::Rpc(AcceptStat::GarbageArgs))
    ));
}

#[test]
fn revoking_nonexistent_key_is_harmless() {
    let bed = Testbed::instant();
    let admin_key = SigningKey::from_seed(bed.admin().seed());
    let admin_client = bed.connect(&admin_key).unwrap();
    // Revoke a key nobody uses; the server accepts and nothing breaks.
    admin_client.revoke_key(&key(99).public()).unwrap();

    let bob = key(2);
    let bob_client = bed.connect_owner(&bob).unwrap();
    assert!(bob_client
        .client()
        .readdir_all(&bob_client.remote().root())
        .is_ok());
}

#[test]
fn credential_count_is_per_peer() {
    let bed = Testbed::instant();
    let bob_client = bed.connect_owner(&key(2)).unwrap();
    let carol_client = bed.connect(&key(3)).unwrap();
    assert_eq!(bob_client.credential_count().unwrap(), 1);
    assert_eq!(carol_client.credential_count().unwrap(), 0);
}

#[test]
fn resubmitting_same_credential_is_idempotent_for_access() {
    let bed = Testbed::instant();
    let bob = key(2);
    let client = bed.connect(&bob).unwrap();
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    for _ in 0..5 {
        client.submit_credential(&grant).unwrap();
    }
    // Access works; the duplicate submissions did not corrupt anything.
    assert!(client.client().readdir_all(&client.remote().root()).is_ok());
}
