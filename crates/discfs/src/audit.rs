//! The access audit log.
//!
//! Paper §4.2: *"The system may not know that Alice is trying to get at
//! a file, but it can log that key A (Alice's key) was used and that
//! key B (Bob's key) authorized the operation."* Every access decision
//! is recorded with the requesting key and the distinct issuer keys of
//! the credentials that were in the session when the decision was made
//! — the delegation evidence an operator reconstructs chains from.
//!
//! # Concurrency
//!
//! The log is a **fixed-capacity ring**: an atomic cursor assigns each
//! record a sequence number and a slot (`seq % capacity`), and each
//! slot sits behind its own tiny mutex. Appends from N concurrent
//! connections therefore never serialize on one log-wide lock — two
//! appends contend only in the unlikely case they land on the same
//! slot (a full wrap-around apart).
//!
//! # Footprint
//!
//! A record is stored in binary — the requester's 32 key bytes, a
//! static operation name, the handle's `(inode, generation)` pair and a
//! shared [`Arc`] handle to the peer's authorizer set, which the server
//! replaces only when a credential change adds an issuer or removes
//! one's last credential — so an append allocates nothing. The bound is
//! `capacity` slots of at most 200 bytes each (800 KiB at the server's
//! 4 096), plus one `Arc` (16 bytes, and 32 a key) for each distinct
//! issuer set some retained record still references. A new set comes
//! with a new issuer, not with each credential: a creator given a fresh
//! credential per file keeps sharing one set. Hex and principal strings
//! are rendered by the accessor methods, when somebody reads the log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use discfs_crypto::ed25519::VerifyingKey;
use discfs_crypto::hex;
use keynote::key_principal;
use parking_lot::Mutex;

use crate::perm::Perm;

/// What a record is about.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Subject {
    /// An access decision on the file handle `(inode, generation)`.
    Handle(u32, u32),
    /// A connection aborted for the given protocol violation.
    Abort(Box<str>),
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotonic sequence number.
    pub(crate) seq: u64,
    /// Virtual time of the decision.
    pub(crate) time: u64,
    requester: [u8; 32],
    op: &'static str,
    subject: Subject,
    /// Permissions the operation needed.
    pub(crate) required: Perm,
    /// Permissions the policy granted.
    pub(crate) granted: Perm,
    /// Whether the operation proceeded.
    pub allowed: bool,
    pub(crate) authorizers: Arc<[VerifyingKey]>,
}

impl AuditRecord {
    /// Hex of the requesting public key ("key A").
    pub fn requester(&self) -> String {
        hex::encode(&self.requester)
    }

    /// The operation attempted (e.g. `"read"`, `"write"`, `"lookup"`;
    /// `"abort"` for a condemned connection).
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// The file handle string (`ino.generation`); for an `"abort"`
    /// record, the violation that condemned the connection.
    pub fn handle(&self) -> String {
        match &self.subject {
            Subject::Handle(ino, generation) => format!("{ino}.{generation}"),
            Subject::Abort(reason) => reason.to_string(),
        }
    }

    /// Principal strings of the credential issuers in the session when
    /// the decision was made ("key B" and any other links of the chain):
    /// each issuer once, sorted, as the server records them.
    pub fn authorizers(&self) -> Vec<String> {
        self.authorizers.iter().map(key_principal).collect()
    }
}

/// A bounded in-memory audit log (lock-striped ring buffer).
pub struct AuditLog {
    slots: Vec<Mutex<Option<AuditRecord>>>,
    cursor: AtomicU64,
}

impl AuditLog {
    /// Creates a log keeping the most recent `capacity` records.
    pub(crate) fn new(capacity: usize) -> AuditLog {
        AuditLog {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Appends an access decision (overwriting the oldest record when
    /// full). `handle` is the `(inode, generation)` pair; `authorizers`
    /// is the peer's shared issuer-key set, cloned per record as a
    /// refcount bump.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &self,
        time: u64,
        requester: &[u8; 32],
        op: &'static str,
        handle: (u32, u32),
        required: Perm,
        granted: Perm,
        allowed: bool,
        authorizers: Arc<[VerifyingKey]>,
    ) {
        self.append(AuditRecord {
            seq: 0,
            time,
            requester: *requester,
            op,
            subject: Subject::Handle(handle.0, handle.1),
            required,
            granted,
            allowed,
            authorizers,
        });
    }

    /// Appends an `"abort"` record: `requester`'s connection was
    /// condemned for `reason`.
    pub(crate) fn record_abort(&self, time: u64, requester: &[u8; 32], reason: &str) {
        self.append(AuditRecord {
            seq: 0,
            time,
            requester: *requester,
            op: "abort",
            subject: Subject::Abort(reason.into()),
            required: Perm::NONE,
            granted: Perm::NONE,
            allowed: false,
            authorizers: Arc::new([]),
        });
    }

    fn append(&self, mut record: AuditRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed) + 1;
        record.seq = seq;
        let slot = &self.slots[((seq - 1) % self.slots.len() as u64) as usize];
        let mut guard = slot.lock();
        // Wrap-around race: a slow writer from a previous lap must not
        // clobber a newer record that already claimed this slot.
        if guard.as_ref().is_none_or(|existing| existing.seq < seq) {
            *guard = Some(record);
        }
    }

    /// A snapshot of the retained records (oldest first).
    pub fn records(&self) -> Vec<AuditRecord> {
        let mut records: Vec<AuditRecord> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().clone())
            .collect();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// Records matching a requester key prefix (hex).
    pub fn by_requester(&self, key_hex_prefix: &str) -> Vec<AuditRecord> {
        self.records()
            .into_iter()
            .filter(|r| r.requester().starts_with(key_hex_prefix))
            .collect()
    }

    /// Denied accesses only — the operator's first question.
    pub fn denials(&self) -> Vec<AuditRecord> {
        self.records().into_iter().filter(|r| !r.allowed).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_authorizers() -> Arc<[VerifyingKey]> {
        Arc::new([])
    }

    #[test]
    fn records_accumulate_in_order() {
        let log = AuditLog::new(10);
        log.record(
            1,
            &[0xaa; 32],
            "read",
            (5, 1),
            Perm::R,
            Perm::RW,
            true,
            no_authorizers(),
        );
        log.record(
            2,
            &[0xbb; 32],
            "write",
            (5, 1),
            Perm::W,
            Perm::NONE,
            false,
            no_authorizers(),
        );
        let records = log.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[1].seq, 2);
        assert!(records[0].allowed);
        assert!(!records[1].allowed);
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let log = AuditLog::new(3);
        for i in 0..5u64 {
            log.record(
                i,
                &[i as u8; 32],
                "read",
                (1, 1),
                Perm::R,
                Perm::R,
                true,
                no_authorizers(),
            );
        }
        let records = log.records();
        assert_eq!(records.len(), 3);
        assert_eq!(log.cursor.load(Ordering::Relaxed), 5, "appended");
        assert_eq!(records[0].seq, 3, "two oldest dropped");
    }

    #[test]
    fn filters() {
        let log = AuditLog::new(10);
        log.record(
            1,
            &[0xaa; 32],
            "read",
            (1, 1),
            Perm::R,
            Perm::R,
            true,
            no_authorizers(),
        );
        log.record(
            2,
            &[0xbb; 32],
            "write",
            (1, 1),
            Perm::W,
            Perm::NONE,
            false,
            no_authorizers(),
        );
        assert_eq!(log.by_requester("aa").len(), 1);
        assert_eq!(log.by_requester("bb").len(), 1);
        assert_eq!(log.denials().len(), 1);
        assert_eq!(log.denials()[0].op(), "write");
        assert_eq!(log.denials()[0].handle(), "1.1");
        assert_eq!(log.denials()[0].requester(), "bb".repeat(32));
    }

    #[test]
    fn authorizer_chain_recorded() {
        let log = AuditLog::new(4);
        log.record(
            1,
            &[0x01; 32],
            "read",
            (9, 2),
            Perm::R,
            Perm::R,
            true,
            Arc::new([VerifyingKey([0xb0; 32]), VerifyingKey([0xad; 32])]),
        );
        assert_eq!(
            log.records()[0].authorizers(),
            vec![
                format!("ed25519-hex:{}", "b0".repeat(32)),
                format!("ed25519-hex:{}", "ad".repeat(32)),
            ]
        );
    }

    #[test]
    fn abort_records_carry_the_reason() {
        let log = AuditLog::new(4);
        log.record_abort(7, &[0x0c; 32], "malformed frame");
        let rec = &log.denials()[0];
        assert_eq!(
            (rec.op(), rec.handle().as_str()),
            ("abort", "malformed frame")
        );
        assert!(rec.authorizers().is_empty());
    }

    #[test]
    fn a_slot_stays_under_200_bytes() {
        // The ring is `capacity` of these, allocated up front; the only
        // heap a record pins besides is its session's shared key list.
        assert!(std::mem::size_of::<Mutex<Option<AuditRecord>>>() <= 200);
    }

    #[test]
    fn concurrent_appends_keep_every_recent_record() {
        // 4 threads × 100 appends into a 1024-slot ring: all 400
        // records retained, sequence numbers unique and gap-free.
        let log = Arc::new(AuditLog::new(1024));
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let log = log.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        log.record(
                            i,
                            &[t; 32],
                            "read",
                            (1, 1),
                            Perm::R,
                            Perm::R,
                            true,
                            Arc::new([]),
                        );
                    }
                });
            }
        });
        let records = log.records();
        assert_eq!(records.len(), 400);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=400).collect::<Vec<u64>>());
    }
}
