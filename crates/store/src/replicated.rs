//! R-way replication across simulated storage nodes, with
//! epoch-stamped commits and node-failure rebuild — the distributed
//! volume tier's redundancy layer.
//!
//! A [`ReplicatedStore`] stripes one logical volume across N
//! [`RemoteStore`] nodes and keeps R copies of every block: replica
//! `r` of logical block `idx` lives on node `(idx % N + r) % N` at
//! inner index `(idx / N) * R + r` (for `r < R ≤ N` the replica nodes
//! are distinct, and the inner indices of different logical blocks
//! never collide). Each node additionally reserves its **last** block
//! for an epoch record, so a node store needs
//! [`ReplicatedStore::node_block_count`] blocks.
//!
//! # What each mechanism is for
//!
//! One row per mechanism of this tier and its node client: the claim
//! it serves, the test that checks it, and what moved when it was taken
//! out of a scratch copy (this crate's tests, `tests/chaos.rs`,
//! `tests/torn_sync.rs`). `repl_mixed` runs with no fault plan, spare
//! or lease, so only the epoch record moves a benchmark figure.
//!
//! | Mechanism | Claim | Checked by | Without it |
//! | --- | --- | --- | --- |
//! | Retry schedule: re-send every `timeout` until `deadline` | A lost frame costs a timeout of virtual time, not a node | `remote::tests::timeout_death_is_probation_and_probe_revives` (50 attempts, 500 ms), `lossy_link_retries_and_succeeds`, chaos `flap_burst_is_absorbed_by_retries` | With one attempt, every chaos and split-brain seed fails: a node's connect-time LEN times out, or a read finds no live replica |
//! | `DeadCause` | A timeout (loss, a partition) goes to probation; a gone process spends a spare | `remote::tests::disconnect_cause_is_terminal_for_probes`, `mount_puts_a_timed_out_node_in_probation_and_keeps_the_spare`, the chaos seeds | Every partitioned node of the chaos and split-brain seeds ends `failed`, not in probation |
//! | Probation and revival probes | A partitioned-then-healed node returns to service, and is not copied when its epoch is current | `revived_stale_replica_schedules_a_read_repair`, the chaos seeds (even seeds: `rebuilds` 0) | The healed node stays in probation: `live_nodes` 3 of 4 after every chaos seed's heal |
//! | Spares | With R = 2 and a spare, a volume survives one node death with no failed read and returns to full strength | `node_death_fails_over_and_rebuilds_onto_the_spare`, `mount_rebuilds_a_disconnected_node_onto_the_spare` | The dead slot stays `failed` and `rebuilds` 0; the rebuild tests, which kill a node of a volume with a spare, fail |
//! | The background rebuilder, with [`RebuildConfig`] | The detecting operation only enqueues, so its virtual cost does not grow with the volume; ticks copy under a block budget, a call's worth at a time | chaos `rebuild_runs_off_the_detecting_operations_critical_path` and `rebuild_respects_the_block_budget_per_tick`, `rebuild_makes_one_call_per_source_per_chunk` | Draining the queue inside the detecting read fails both chaos rebuild tests. Only those two set the knob (8 blocks a tick, one tick an hour, so only explicit ticks copy); every preset and the benchmark use the default |
//! | Replica choice: the first serving replica, in replica order | A read is served while any replica of its block serves, and a healthy volume reads each block from its primary | `failover_reads_stay_near_healthy_latency`, `node_death_fails_over_and_rebuilds_onto_the_spare`, the chaos seeds | Reading the primary alone panics "no live replica" in every chaos and split-brain seed; `repl_mixed` reads `replica_reads` 0 because every read is a primary's |
//! | Quorum flush | A flush commits with a minority of nodes down, and the minority catches up by re-sync | `revived_stale_replica_schedules_a_read_repair`, the chaos seeds' degraded sync, split-brain "A's degraded quorum sync" | With every replica's ack required, those syncs fail ("replicated flush kept failing") |
//! | Epochs | One epoch history: a torn flush remounts at one committed epoch, never a mix of replicas | `tests/torn_sync.rs`, `mount_resyncs_a_stale_live_node_in_place`, `round_trips_and_commits_epochs` | `torn_sync` finds no epoch stamped; split-brain coordinator B mounts epoch 0. In `repl_mixed` the record is one more block written to each node an epoch: without it `virtual_us_per_op` reads about 88 µs lower (seed 1: 16 772-16 776 against 16 855-16 868) |
//! | Leases with fence tokens | A write stamped under a superseded lease is never applied | `remote::tests::stale_token_write_is_fenced_not_applied_and_node_stays_alive`, `duplicated_frame_replayed_after_lease_change_is_fenced`, the split-brain seeds | The stale coordinator's flush succeeds in every split-brain seed. `repl_mixed` takes no lease; the token is 8 bytes of each WRITE and FLUSH call |
//! | Read-only latch and `reacquire` | A fenced coordinator stops writing until it holds the lease again, then drops its losing writes and adopts the committed epoch | `fenced_coordinator_latches_read_only_and_reacquires`, `fenced_rebuild_write_waits_for_reacquire`, the split-brain seeds | Every split-brain seed fails "A must latch read-only" |
//! | Read-repair | A node found behind the committed epoch is re-synced before it serves | `revived_stale_replica_schedules_a_read_repair`, `mount_puts_a_timed_out_node_in_probation_and_keeps_the_spare`, the chaos seeds (odd seeds) | A revived stale node rejoins as it is: the odd chaos seeds fail "stale node must re-sync" |
//!
//! # Epochs: cross-node crash atomicity
//!
//! Writes are buffered coordinator-side (a dirty map, exactly like the
//! buffer cache's write-back discipline): between flushes, no node
//! sees a partial burst. [`BlockStore::flush`] then commits the buffer
//! as **one or more epochs**. An epoch is the longest block-order
//! prefix of the buffer whose share on every node fits one block
//! protocol call per class (127 blocks, the data call's last slot kept
//! for the record; the `remote` module docs, *The frame bound*), so a
//! buffer that fits is one epoch, and a larger one is several, each
//! committed and dropped from the buffer before the next is sent. Each
//! node receives its share of an epoch as **one vectored write whose
//! last record is the epoch record for `epoch + 1`** — on a journaled
//! node store that is a single durability unit, so a torn node journal
//! replays to a *prefix*: either the epoch record is present (the node
//! has every write of that epoch) or the node's epoch block still reads
//! an older epoch. Reopening the volume compares node epochs: every node
//! behind the maximum **committed** epoch (or torn mid-epoch, which
//! reads as behind) is re-synced from the fresh replicas through the
//! rebuild queue (below), drained before the mount returns, and
//! re-stamped — so the volume always replays to one consistent epoch,
//! never a mix of replicas.
//!
//! A flush torn *between* two of its epochs remounts at the last
//! committed one: the volume then holds a block-order prefix of that
//! flush's writes, the same on every replica. This is what a crash
//! during `CachedStore`'s eviction write-back already shows a
//! filesystem — some of the blocks it wrote since its last sync, not
//! all — and `ffs` tolerates it the same way, through the
//! superblock's dirty marker. Block order is what keeps that marker
//! ahead of the blocks it covers, with no special case for it: block
//! 0 is the lowest index, so a flush that carries the dirty marker
//! commits it in its first epoch, and any later epoch of that flush
//! lands on a volume that already reads dirty. The clean marker is
//! the only block of `Ffs::sync`'s second flush, so it commits in an
//! epoch of its own, after every epoch of the first.
//!
//! # Node death, probation, revival, and background rebuild
//!
//! A node is **declared dead** when an RPC to it fails, and its
//! [`DeadCause`](crate::remote::DeadCause) picks the recovery path:
//!
//! - **Timeout** (a lossy link or a partition — the machine may be
//!   fine) puts the node in **probation**: it serves nothing, but the
//!   background tick probes it with a cheap length request. A reply
//!   *revives* it ([`StoreStats::nodes_revived`]): if its epoch record
//!   still matches the volume's committed epoch it returns to service
//!   as-is (a partitioned-then-healed node is **not** rebuilt from
//!   scratch); if it missed commits it is re-synced in place from its
//!   peers before serving reads again.
//! - **Disconnected** or **Protocol** (the process or its framing is
//!   gone) spends a spare: the spare takes the slot and the dead
//!   node's replica set is queued for rebuild. With no spare left the
//!   slot is failed and the volume keeps serving degraded from the
//!   surviving replicas.
//!
//! Mount recovery treats a node whose epoch record it cannot read the
//! same way: one that times out goes to probation and spends no spare;
//! one that is disconnected takes a spare, rebuilt before the mount
//! returns.
//!
//! The *detecting* operation only marks the node and enqueues work —
//! reads fail over to the next serving replica
//! ([`StoreStats::replica_reads`]) and return; its virtual-time cost
//! is independent of the volume size. The queued work is drained by a
//! **rate-limited background rebuilder**: each tick (at most once per
//! [`RebuildConfig::tick_interval`] of virtual time, piggy-backed on
//! ordinary operations) probes one probation node and copies at most
//! [`RebuildConfig::blocks_per_tick`] blocks from live replicas onto
//! the rebuilding node, a call's worth at a time: one read per source
//! node and one write to the target. The epoch record is stamped, in a
//! call of its own, only when the copy completes
//! ([`StoreStats::rebuilds`]) — so a torn rebuild reads as still-stale
//! and is simply redone. The remaining queue depth is observable as
//! [`StoreStats::rebuild_backlog`].
//!
//! # Multi-coordinator safety: leases, quorum flush, read-repair
//!
//! One coordinator per volume is a *convention* the network cannot
//! enforce — a second front-end, or this one's past self surviving a
//! partition, could fork the epoch history. Three mechanisms close it:
//!
//! - **Fencing** (server-side, see the `remote` module docs): after
//!   [`ReplicatedStore::try_acquire_lease`], every mutating frame
//!   carries the granted fence token and a node refuses frames below
//!   its current grant. On any `Fenced` refusal the volume **latches
//!   read-only** ([`ReplicatedStore::is_fenced`],
//!   [`StoreStats::fenced`]): flushes fail, the fenced write is never
//!   retried, reads keep serving. [`ReplicatedStore::reacquire`] wins
//!   a fresh lease, discards the losing coordinator's buffered writes,
//!   adopts the nodes' committed epoch, and re-syncs stragglers before
//!   writes resume.
//! - **Quorum flush**: an epoch commits when every dirty block has
//!   `ceil(R/2)` replica acks under the current token and at least one
//!   live node holds the new epoch record; nodes that fail mid-flush
//!   go to the probation/rebuild path *without* blocking the commit.
//! - **Read-repair**: whenever an epoch record is observed *behind*
//!   the committed epoch — at revival probes and at
//!   [`ReplicatedStore::reacquire`]'s sweep — the stale replica set is
//!   queued for re-sync through the background rebuilder and counted
//!   as [`StoreStats::read_repairs`].
//!
//! # Buffers
//!
//! A buffered block gets a buffer of its own from the volume's pool of
//! spare block buffers (crate docs, *Buffers*), and gives it back when
//! it leaves the buffer: when its epoch commits, or when
//! [`ReplicatedStore::reacquire`] discards it. A block a reader still
//! holds is dropped instead. On a volume built by
//! [`crate::StoreBackend::build`] the nodes' stores share the pool, so
//! the next epoch's node copies are made in those buffers, on the
//! syncing thread, and not in fresh ones while the committed blocks'
//! memory sat free in the malloc arenas of the engine workers that
//! wrote them: `repl_mixed`'s `peak_rss_mb` went from 57.2 to about
//! 45.2 MB.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use discfs_crypto::sha256::Sha256;
use discfs_crypto::Digest;
use netsim::SimClock;

use crate::remote::{DeadCause, CALL_BLOCKS};
use crate::{vectored, zero_block, BlockPool};
use crate::{BlockStore, IoClass, RemoteError, RemoteStore, StoreStats, BLOCK_SIZE};

/// Epoch record magic.
const EPOCH_MAGIC: [u8; 8] = *b"DISCEPOC";

fn epoch_record(epoch: u64) -> Vec<u8> {
    let mut block = vec![0u8; BLOCK_SIZE];
    block[..8].copy_from_slice(&EPOCH_MAGIC);
    block[8..16].copy_from_slice(&epoch.to_le_bytes());
    let mut h = Sha256::new();
    h.update(&EPOCH_MAGIC);
    h.update(&epoch.to_le_bytes());
    block[16..48].copy_from_slice(&h.finalize());
    block
}

/// A zero, corrupt, or torn epoch block reads as epoch 0 — the node is
/// then (at worst) rebuilt from scratch.
fn decode_epoch(block: &[u8]) -> u64 {
    if block.len() != BLOCK_SIZE || block[..8] != EPOCH_MAGIC {
        return 0;
    }
    let epoch = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
    let mut h = Sha256::new();
    h.update(&EPOCH_MAGIC);
    h.update(&epoch.to_le_bytes());
    if h.finalize() != block[16..48] {
        return 0;
    }
    epoch
}

/// Rate policy for the background rebuilder and revival prober (see
/// the module docs; [`ReplicatedStore::with_rebuild_config`]).
#[derive(Debug, Clone, Copy)]
pub struct RebuildConfig {
    /// Blocks copied onto rebuilding nodes per tick — the rebuild
    /// bandwidth budget.
    pub blocks_per_tick: usize,
    /// Minimum virtual time between background ticks (each probes one
    /// probation node); `ZERO` ticks on every operation.
    pub tick_interval: Duration,
}

impl Default for RebuildConfig {
    fn default() -> RebuildConfig {
        RebuildConfig {
            blocks_per_tick: 32,
            tick_interval: Duration::ZERO,
        }
    }
}

/// A node slot's service state (the dead *latch* lives on the
/// [`RemoteStore`] client; this is the replicated tier's policy on top
/// of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Serving reads and writes.
    Live,
    /// Dead by timeout — possibly just partitioned. Serves nothing;
    /// the background tick probes it for revival.
    Probation,
    /// Alive and receiving writes, but its replica set is still being
    /// copied: serves no reads and carries no epoch record yet.
    Rebuilding,
    /// Dead with no spare left: out of service until remount.
    Failed,
}

struct Node {
    store: RemoteStore,
    state: NodeState,
    /// Bumped whenever the slot changes occupant or re-dies, so queued
    /// rebuild work addressed to a previous life is discarded.
    generation: u64,
}

impl Node {
    /// Whether the node serves reads right now.
    fn serving(&self) -> bool {
        self.state == NodeState::Live && !self.store.is_dead()
    }

    /// Whether the node accepts writes right now (a rebuilding node
    /// must receive new epochs' data or it would complete stale).
    fn writable(&self) -> bool {
        matches!(self.state, NodeState::Live | NodeState::Rebuilding) && !self.store.is_dead()
    }
}

/// Queued rebuild of one node's replica set: the logical `(idx, r)`
/// items still to copy.
struct RebuildWork {
    node: usize,
    generation: u64,
    items: VecDeque<(u64, usize)>,
}

/// The lease this coordinator acquired, remembered so
/// [`ReplicatedStore::reacquire`] can ask for the same terms again.
#[derive(Clone, Copy)]
struct LeaseTerms {
    coordinator: u64,
    ttl: Duration,
}

struct ReplState {
    nodes: Vec<Node>,
    spares: Vec<RemoteStore>,
    /// Coordinator-side write-back buffer: `idx -> (block, class)`.
    dirty: BTreeMap<u64, (Bytes, IoClass)>,
    epoch: u64,
    /// Latched on the first `Fenced` refusal: a newer coordinator owns
    /// the volume, so this one serves reads only until `reacquire`.
    fenced: bool,
    /// The lease terms this coordinator last acquired under.
    lease: Option<LeaseTerms>,
    /// Background-rebuild work, drained `blocks_per_tick` at a time.
    queue: VecDeque<RebuildWork>,
    last_tick: Duration,
    /// Round-robin start for the revival prober.
    probe_cursor: usize,
}

impl ReplState {
    /// What a rebuild pass can move: queued blocks, queued nodes, and
    /// nodes in probation.
    fn progress(&self) -> (usize, usize, usize) {
        let items = self.queue.iter().map(|w| w.items.len()).sum();
        (items, self.queue.len(), self.count(NodeState::Probation))
    }

    /// Node slots in `state`.
    fn count(&self, state: NodeState) -> usize {
        self.nodes.iter().filter(|nd| nd.state == state).count()
    }
}

/// N-node, R-replica block store over [`RemoteStore`] clients (see the
/// module docs for placement, epochs, and the failure model).
pub struct ReplicatedStore {
    state: parking_lot::Mutex<ReplState>,
    block_count: u64,
    replicas: usize,
    failover_budget: usize,
    rebuild_cfg: RebuildConfig,
    /// The nodes' virtual clock (when simulated), for rate-limiting
    /// ticks and probes.
    clock: Option<SimClock>,
    /// The write-back buffer's blocks come from and return to it
    /// (module docs, *Buffers*).
    pool: BlockPool,
    replica_reads: AtomicU64,
    rebuilds: AtomicU64,
    nodes_revived: AtomicU64,
    read_repairs: AtomicU64,
    vectored_reads: AtomicU64,
    vectored_writes: AtomicU64,
    flushes: AtomicU64,
}

fn node_of(idx: u64, r: usize, n: usize) -> usize {
    ((idx as usize % n) + r) % n
}

fn inner_of(idx: u64, r: usize, n: usize, replicas: usize) -> u64 {
    (idx / n as u64) * replicas as u64 + r as u64
}

fn epoch_slot(block_count: u64, n: usize, replicas: usize) -> u64 {
    block_count.div_ceil(n as u64) * replicas as u64
}

/// The logical `(idx, replica)` items node `target` hosts — the unit
/// of background-rebuild work.
fn hosted_items(target: usize, n: usize, block_count: u64, replicas: usize) -> Vec<(u64, usize)> {
    let per = block_count.div_ceil(n as u64);
    let mut items = Vec::new();
    for r in 0..replicas {
        let residue = (target + n - r) % n;
        for k in 0..per {
            let idx = k * n as u64 + residue as u64;
            if idx < block_count {
                items.push((idx, r));
            }
        }
    }
    items
}

impl ReplicatedStore {
    /// Blocks each node store must hold for a volume of `block_count`
    /// logical blocks over `nodes` nodes with `replicas` copies:
    /// `ceil(block_count / nodes) * replicas` data slots plus the
    /// epoch record.
    pub fn node_block_count(block_count: u64, nodes: usize, replicas: usize) -> u64 {
        block_count.div_ceil(nodes as u64) * replicas as u64 + 1
    }

    /// Assembles a replicated volume from connected node clients (plus
    /// idle spares), then runs **recovery**: node epochs are read, and
    /// every node behind the maximum committed epoch — a torn flush, a
    /// stale disk — goes through the transitions a running volume
    /// uses. A live one is re-synced in place, a dead one goes to
    /// probation (timeout) or onto a spare, and the rebuild queue is
    /// drained before this returns, so the reopened volume reads at
    /// one consistent epoch.
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is zero, exceeds the node count, or a
    /// node store is too small; and when recovery finds a block of a
    /// stale node with no fresh replica to copy from (more simultaneous
    /// failures than R − 1) — the one way recovery itself can panic.
    pub fn new(
        nodes: Vec<RemoteStore>,
        spares: Vec<RemoteStore>,
        block_count: u64,
        replicas: usize,
    ) -> ReplicatedStore {
        let n = nodes.len();
        assert!(replicas >= 1, "need at least one replica");
        assert!(replicas <= n, "more replicas than nodes");
        let needed = Self::node_block_count(block_count, n, replicas);
        for (i, node) in nodes.iter().chain(spares.iter()).enumerate() {
            assert!(
                node.remote_block_count() >= needed,
                "node {i} holds {} blocks, needs {needed}",
                node.remote_block_count()
            );
        }
        let clock = nodes.first().and_then(|nd| nd.sim_clock().cloned());
        let failover_budget = n + spares.len() + 2;
        let store = ReplicatedStore {
            state: parking_lot::Mutex::new(ReplState {
                nodes: nodes
                    .into_iter()
                    .map(|store| Node {
                        store,
                        state: NodeState::Live,
                        generation: 0,
                    })
                    .collect(),
                spares,
                dirty: BTreeMap::new(),
                epoch: 0,
                fenced: false,
                lease: None,
                queue: VecDeque::new(),
                last_tick: Duration::ZERO,
                probe_cursor: 0,
            }),
            block_count,
            replicas,
            failover_budget,
            rebuild_cfg: RebuildConfig::default(),
            clock,
            pool: BlockPool::new(),
            replica_reads: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            nodes_revived: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
            vectored_reads: AtomicU64::new(0),
            vectored_writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        };
        store.recover();
        store
    }

    /// Mount recovery (see [`ReplicatedStore::new`]): the queue is
    /// drained with no block budget, and a pass that moves nothing has
    /// met a block with no serving replica.
    fn recover(&self) {
        let mut st = self.state.lock();
        let epochs: Vec<Option<u64>> = (0..st.nodes.len())
            .map(|m| self.node_epoch(&st, m))
            .collect();
        st.epoch = epochs.iter().flatten().copied().max().unwrap_or(0);
        if st.epoch == 0 {
            return; // nothing committed, so no node is behind
        }
        for (m, epoch) in epochs.into_iter().enumerate() {
            if epoch == Some(st.epoch) {
                continue;
            }
            if st.nodes[m].store.is_dead() {
                self.handle_failure(&mut st, m);
            } else {
                self.resync(&mut st, m);
            }
        }
        loop {
            let before = st.progress();
            self.drain_step(&mut st, usize::MAX);
            self.repair(&mut st);
            let Some(work) = st.queue.front() else {
                return;
            };
            if st.progress() == before {
                let (idx, _) = work.items[0];
                panic!(
                    "no fresh replica of block {idx} to rebuild node {} from",
                    work.node
                );
            }
        }
    }

    /// This volume with its write-back buffer drawing from and recycling
    /// into `pool`, builder-style.
    pub(crate) fn in_pool(mut self, pool: BlockPool) -> ReplicatedStore {
        self.pool = pool;
        self
    }

    /// Replaces the background rebuilder's rate policy, builder-style.
    pub fn with_rebuild_config(mut self, cfg: RebuildConfig) -> ReplicatedStore {
        assert!(cfg.blocks_per_tick >= 1, "rebuild needs a block budget");
        self.rebuild_cfg = cfg;
        self
    }

    /// The last committed epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Whether the volume is latched read-only by a `Fenced` refusal
    /// (a newer coordinator holds the lease); cleared by
    /// [`ReplicatedStore::reacquire`].
    pub fn is_fenced(&self) -> bool {
        self.state.lock().fenced
    }

    /// Acquires the volume lease for `coordinator` on a strict
    /// majority of the nodes (and best-effort on the spares). Every
    /// node client then stamps its granted fence token on mutating
    /// frames. The terms are remembered for
    /// [`ReplicatedStore::reacquire`].
    ///
    /// # Errors
    ///
    /// [`RemoteError::LeaseHeld`] (or the transport error) from a
    /// refusing node when a majority cannot be assembled; the volume's
    /// state is unchanged on failure.
    pub fn try_acquire_lease(&self, coordinator: u64, ttl: Duration) -> Result<(), RemoteError> {
        let mut st = self.state.lock();
        self.acquire_locked(&mut st, LeaseTerms { coordinator, ttl })
    }

    fn acquire_locked(&self, st: &mut ReplState, terms: LeaseTerms) -> Result<(), RemoteError> {
        let n = st.nodes.len();
        let mut granted = 0;
        let mut refusal = None;
        for node in &st.nodes {
            if node.store.is_dead() {
                continue;
            }
            match node.store.try_acquire_lease(terms.coordinator, terms.ttl) {
                Ok(_) => granted += 1,
                Err(e) => refusal = Some(e),
            }
        }
        for spare in &st.spares {
            // Best-effort: a spare holds no data yet, and it re-learns
            // the fence the moment it is swapped in and written to.
            let _ = spare.try_acquire_lease(terms.coordinator, terms.ttl);
        }
        if granted > n / 2 {
            st.lease = Some(terms);
            Ok(())
        } else {
            Err(refusal.unwrap_or_else(|| RemoteError::Server("lease quorum not reached".into())))
        }
    }

    /// Recovers a fenced volume: re-acquires a fresh lease under the
    /// remembered terms, **discards** this coordinator's buffered
    /// writes (they lost the race — the committed history is the newer
    /// coordinator's), adopts the nodes' maximum committed epoch, and
    /// queues a re-sync (counted as [`StoreStats::read_repairs`]) for
    /// every replica observed behind it. On success the read-only
    /// latch clears and writes may resume under the new token.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Server`] when no lease was ever acquired; any
    /// error of [`ReplicatedStore::try_acquire_lease`] when the
    /// majority re-grant fails (the volume stays fenced).
    pub fn reacquire(&self) -> Result<(), RemoteError> {
        let mut st = self.state.lock();
        let terms = st
            .lease
            .ok_or_else(|| RemoteError::Server("no lease terms to reacquire under".into()))?;
        self.acquire_locked(&mut st, terms)?;
        for (block, _) in std::mem::take(&mut st.dirty).into_values() {
            self.pool.recycle(block);
        }
        // Sweep the epoch records: the committed history may have
        // advanced while we were fenced out.
        let epochs: Vec<Option<u64>> = (0..st.nodes.len())
            .map(|m| self.node_epoch(&st, m))
            .collect();
        st.epoch = epochs.iter().flatten().copied().fold(st.epoch, u64::max);
        for (target, epoch) in epochs.into_iter().enumerate() {
            if st.nodes[target].state == NodeState::Live && epoch.is_some_and(|e| e < st.epoch) {
                self.resync(&mut st, target);
                self.read_repairs.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.fenced = false;
        Ok(())
    }

    /// Nodes currently in service (serving reads).
    pub fn live_nodes(&self) -> usize {
        self.state.lock().count(NodeState::Live)
    }

    /// Nodes waiting in probation for a revival probe to succeed.
    pub fn probation_nodes(&self) -> usize {
        self.state.lock().count(NodeState::Probation)
    }

    /// Spare nodes still available for rebuilds.
    pub fn spare_count(&self) -> usize {
        self.state.lock().spares.len()
    }

    /// Each node slot's state and dead-cause, in order — a debugging
    /// hook for chaos tests ("which node is stuck, and why").
    pub fn node_states(&self) -> Vec<String> {
        self.state
            .lock()
            .nodes
            .iter()
            .map(|nd| {
                let state = format!("{:?}", nd.state).to_lowercase();
                match nd.store.dead_cause() {
                    Some(cause) => format!("{state}({cause:?})"),
                    None => state,
                }
            })
            .collect()
    }

    /// Blocks still queued for the background rebuilder.
    pub fn rebuild_backlog(&self) -> u64 {
        self.state.lock().progress().0 as u64
    }

    /// Runs one background tick by hand: probe one probation node,
    /// then copy up to the block budget.
    pub fn rebuild_tick(&self) {
        let mut st = self.state.lock();
        self.tick(&mut st);
    }

    /// Drives ticks until the rebuild queue drains and no probation
    /// node is left to probe — or no further progress is possible
    /// (e.g. a node is still partitioned), bounded so it always
    /// returns. Healed nodes revive along the way.
    pub fn pump_rebuild(&self) {
        let mut st = self.state.lock();
        let n = st.nodes.len();
        let per_node = self.block_count.div_ceil(n as u64) as usize * self.replicas;
        let (backlog, _, _) = st.progress();
        // Worst case every probation node revives stale and re-syncs.
        let bound = (backlog + n * per_node) / self.rebuild_cfg.blocks_per_tick.max(1) + 2 * n + 8;
        // Each tick probes one node round-robin, so give a full lap of
        // fruitless ticks before concluding nothing can move.
        let mut stalled = 0;
        for _ in 0..bound {
            let before = st.progress();
            if before.1 == 0 && before.2 == 0 {
                return;
            }
            self.tick(&mut st);
            if st.progress() == before {
                stalled += 1;
                if stalled > n {
                    return;
                }
            } else {
                stalled = 0;
            }
        }
    }

    /// Crashes node `n` (test/bench hook, see
    /// `RemoteStore::kill_server`): the next RPC to it fails, the store declares it dead, fails the
    /// read over, and queues a background rebuild onto a spare.
    pub fn kill_node(&self, n: usize) {
        self.state.lock().nodes[n].store.kill_server();
    }

    /// Transitions node `n` after its client declared itself dead.
    /// Cheap by design — the *detecting* operation pays for a state
    /// flip and (at most) enqueueing work, never for copying blocks:
    /// a timeout goes to probation for the prober; anything else
    /// spends a spare (queueing its rebuild) or fails the slot.
    fn handle_failure(&self, st: &mut ReplState, n: usize) {
        if !st.nodes[n].store.is_dead() {
            // A server-side error without a dead link (e.g. a refused
            // request) — nothing to recover; the caller's retry loop
            // handles or gives up on it.
            return;
        }
        st.nodes[n].generation += 1;
        match st.nodes[n].store.dead_cause() {
            Some(DeadCause::Timeout) => st.nodes[n].state = NodeState::Probation,
            _ => {
                if let Some(spare) = st.spares.pop() {
                    st.nodes[n].store = spare;
                    self.resync(st, n);
                } else {
                    st.nodes[n].state = NodeState::Failed;
                }
            }
        }
    }

    /// Re-syncs node `n` — live but behind the committed epoch, or a
    /// spare just swapped in — through the rebuild queue: it takes
    /// writes but serves no reads until its whole replica set is
    /// copied and its record stamped. The work carries the bumped
    /// generation, so it outlives neither a re-death nor a slot swap.
    fn resync(&self, st: &mut ReplState, n: usize) {
        st.nodes[n].generation += 1;
        st.nodes[n].state = NodeState::Rebuilding;
        let items = hosted_items(n, st.nodes.len(), self.block_count, self.replicas);
        st.queue.push_back(RebuildWork {
            node: n,
            generation: st.nodes[n].generation,
            items: items.into(),
        });
    }

    /// Node `m`'s epoch record, or `None` when the node is dead or the
    /// read fails (which declares it dead).
    fn node_epoch(&self, st: &ReplState, m: usize) -> Option<u64> {
        let store = &st.nodes[m].store;
        if store.is_dead() {
            return None;
        }
        let slot = epoch_slot(self.block_count, st.nodes.len(), self.replicas);
        let block = store.try_read_block(slot, IoClass::Meta).ok()?;
        Some(decode_epoch(&block))
    }

    /// Transitions every in-service node whose client has latched dead
    /// — run *after* a read has been served from the surviving
    /// replicas, so the detecting read fails over instead of waiting.
    fn repair(&self, st: &mut ReplState) {
        for n in 0..st.nodes.len() {
            if matches!(st.nodes[n].state, NodeState::Live | NodeState::Rebuilding)
                && st.nodes[n].store.is_dead()
            {
                self.handle_failure(st, n);
            }
        }
    }

    /// Probes one probation node (round-robin). A revived node whose
    /// epoch record matches the committed epoch returns straight to
    /// service — a partitioned-then-healed node is *not* rebuilt —
    /// while one that missed commits is re-synced in place through the
    /// rebuild queue.
    fn probe_step(&self, st: &mut ReplState) {
        let n = st.nodes.len();
        let Some(offset) =
            (0..n).find(|i| st.nodes[(st.probe_cursor + i) % n].state == NodeState::Probation)
        else {
            return;
        };
        let target = (st.probe_cursor + offset) % n;
        st.probe_cursor = (target + 1) % n;
        if st.nodes[target].store.probe().is_err() {
            return; // still unreachable; a later tick tries again
        }
        if self.node_epoch(st, target) == Some(st.epoch) {
            st.nodes[target].generation += 1;
            st.nodes[target].state = NodeState::Live;
        } else {
            // The revived replica's epoch record reads behind the
            // committed epoch: schedule a read-repair re-sync.
            self.resync(st, target);
            self.read_repairs.fetch_add(1, Ordering::Relaxed);
        }
        self.nodes_revived.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies up to `budget` queued blocks from serving replicas onto
    /// rebuilding nodes, a call's worth at a time: each chunk is the
    /// longest prefix of the front node's queue that fits the budget
    /// and one call and whose every block has a serving source, read
    /// with one call per source node and written with one call to the
    /// target. A node whose copy completes gets its epoch record
    /// stamped *last*, in a call of its own, and returns to service —
    /// a torn rebuild reads as still-stale and is redone on remount.
    fn drain_step(&self, st: &mut ReplState, mut budget: usize) {
        let n = st.nodes.len();
        loop {
            let Some(front) = st.queue.front() else {
                return;
            };
            let target = front.node;
            if st.nodes[target].generation != front.generation
                || st.nodes[target].state != NodeState::Rebuilding
            {
                st.queue.pop_front(); // a previous life's work
                continue;
            }
            if front.items.is_empty() {
                // Copy complete: stamp the epoch, return to service.
                let slot = epoch_slot(self.block_count, n, self.replicas);
                let record = epoch_record(st.epoch);
                match st.nodes[target]
                    .store
                    .try_write(IoClass::Data, &[(slot, &record)])
                {
                    Ok(()) => {
                        st.queue.pop_front();
                        st.nodes[target].state = NodeState::Live;
                        self.rebuilds.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) if st.nodes[target].store.is_dead() => self.handle_failure(st, target),
                    Err(_) => return, // refused (say, fenced); a later tick retries
                }
                continue;
            }
            // The budget meters block *copies*; pops, stale drops and
            // the completion stamp above are free, so a node whose last
            // copy lands on the tick's final budget unit still returns
            // to service this tick instead of waiting out another
            // interval in `Rebuilding`.
            if budget == 0 {
                return;
            }
            // Per source node: (source inner indices, target inner
            // indices).
            let mut per_source: Vec<(Vec<u64>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); n];
            let mut chunk = 0;
            for &(idx, r) in front.items.iter().take(budget.min(CALL_BLOCKS)) {
                let source = (0..self.replicas)
                    .filter(|&r2| r2 != r)
                    .map(|r2| (node_of(idx, r2, n), r2))
                    .find(|&(m, _)| m != target && st.nodes[m].serving());
                let Some((m, r2)) = source else {
                    break;
                };
                per_source[m].0.push(inner_of(idx, r2, n, self.replicas));
                per_source[m].1.push(inner_of(idx, r, n, self.replicas));
                chunk += 1;
            }
            if chunk == 0 {
                return; // no serving source right now; retry next tick
            }
            let mut writes: Vec<(u64, Bytes)> = Vec::with_capacity(chunk);
            for (m, (src, dst)) in per_source.into_iter().enumerate() {
                if src.is_empty() {
                    continue;
                }
                let Ok(blocks) = st.nodes[m].store.try_read(IoClass::Data, &src) else {
                    return; // the source just died; repair picks it up
                };
                writes.extend(dst.into_iter().zip(blocks));
            }
            let refs: Vec<(u64, &[u8])> = writes.iter().map(|(i, b)| (*i, &b[..])).collect();
            match st.nodes[target].store.try_write(IoClass::Data, &refs) {
                Ok(()) => {}
                // The target died mid-rebuild; the generation bump
                // discards the rest of this work.
                Err(_) if st.nodes[target].store.is_dead() => {
                    self.handle_failure(st, target);
                    continue;
                }
                Err(_) => return, // refused (say, fenced); a later tick retries
            }
            st.queue
                .front_mut()
                .expect("front checked above")
                .items
                .drain(..chunk);
            budget -= chunk;
        }
    }

    /// One background tick: probe, then copy under the block budget.
    fn tick(&self, st: &mut ReplState) {
        self.probe_step(st);
        self.drain_step(st, self.rebuild_cfg.blocks_per_tick);
    }

    /// Ticks at most once per `tick_interval` of virtual time,
    /// piggy-backed on ordinary operations.
    fn maybe_tick(&self, st: &mut ReplState) {
        if let Some(clock) = &self.clock {
            let now = clock.now();
            if self.rebuild_cfg.tick_interval > Duration::ZERO
                && now < st.last_tick + self.rebuild_cfg.tick_interval
            {
                return;
            }
            st.last_tick = now;
        }
        self.tick(st);
    }

    /// The replica of `idx` to read from: the first serving one, in
    /// replica order.
    fn first_serving(&self, st: &ReplState, idx: u64) -> Option<usize> {
        let n = st.nodes.len();
        (0..self.replicas).find(|&r| st.nodes[node_of(idx, r, n)].serving())
    }

    /// The first buffered index the next epoch leaves out, or `None`
    /// when it takes the whole buffer: an epoch is the longest
    /// block-order prefix of the buffer whose share on every node fits
    /// one call per class, the data call keeping room for the record.
    fn epoch_end(&self, st: &ReplState) -> Option<u64> {
        let n = st.nodes.len();
        // Per node, the room left in its data and metadata calls.
        let mut room = vec![[CALL_BLOCKS - 1, CALL_BLOCKS]; n];
        for (&idx, &(_, class)) in &st.dirty {
            let c = class as usize;
            if (0..self.replicas).any(|r| room[node_of(idx, r, n)][c] == 0) {
                return Some(idx);
            }
            for r in 0..self.replicas {
                room[node_of(idx, r, n)][c] -= 1;
            }
        }
        None
    }

    /// Commits the buffered blocks below `end` (all of them on `None`)
    /// as epoch `epoch + 1` and drops them from the buffer (see
    /// [`BlockStore::flush`]).
    fn commit_epoch(&self, st: &mut ReplState, end: Option<u64>) -> std::io::Result<()> {
        let n = st.nodes.len();
        let next = st.epoch + 1;
        let record = Bytes::from(epoch_record(next));
        let slot = epoch_slot(self.block_count, n, self.replicas);
        let quorum = self.replicas.div_ceil(2);
        let epoch = (
            Bound::Unbounded,
            end.map_or(Bound::Unbounded, Bound::Excluded),
        );
        // Per node slot: has its current occupant acked its full share
        // of this epoch? (A spare swapped in mid-flush starts over.)
        let mut done = vec![false; n];
        for _ in 0..self.failover_budget {
            for (node, node_done) in done.iter_mut().enumerate() {
                if *node_done || !st.nodes[node].writable() {
                    continue; // degraded: probation/failed nodes catch
                              // up via re-sync or remount recovery
                }
                let mut acked = true;
                for class in [IoClass::Meta, IoClass::Data] {
                    let mut refs: Vec<(u64, &[u8])> = Vec::new();
                    for (&idx, (block, _)) in
                        st.dirty.range(epoch).filter(|(_, (_, c))| *c == class)
                    {
                        for r in (0..self.replicas).filter(|&r| node_of(idx, r, n) == node) {
                            refs.push((inner_of(idx, r, n, self.replicas), block));
                        }
                    }
                    // The node's disk sees ascending inner indices: the
                    // fewest runs, so the fewest seeks.
                    refs.sort_unstable_by_key(|&(inner, _)| inner);
                    // A rebuilding node receives the epoch's data but
                    // NOT its record: it must read as stale until the
                    // copy completes, or a crash mid-rebuild would
                    // mount a node that claims an epoch it only
                    // partially holds.
                    if class == IoClass::Data && st.nodes[node].state == NodeState::Live {
                        refs.push((slot, &record));
                    }
                    if refs.is_empty() {
                        continue;
                    }
                    // One call, so one durability unit on the node: a
                    // split write could tear inside the epoch.
                    assert!(
                        refs.len() <= CALL_BLOCKS,
                        "an epoch's share overflows a call"
                    );
                    match st.nodes[node].store.try_write(class, &refs) {
                        Ok(()) => {}
                        Err(RemoteError::Fenced { .. }) => {
                            st.fenced = true;
                            return Err(std::io::Error::other(
                                "flush fenced: a newer coordinator holds the lease",
                            ));
                        }
                        Err(_) => {
                            self.handle_failure(st, node);
                            acked = false;
                            break;
                        }
                    }
                }
                *node_done = acked;
            }
            // Commit check: quorum of acks per block of the epoch, plus
            // a live record holder.
            let acked = |st: &ReplState, m: usize| done[m] && !st.nodes[m].store.is_dead();
            let quorum_met = st.dirty.range(epoch).all(|(&idx, _)| {
                (0..self.replicas)
                    .filter(|&r| acked(st, node_of(idx, r, n)))
                    .count()
                    >= quorum
            });
            let record_held = (0..n).any(|m| acked(st, m) && st.nodes[m].state == NodeState::Live);
            if quorum_met && record_held {
                st.epoch = next;
                // The epoch's blocks leave the buffer as it lands, and
                // their buffers become the next epoch's node copies.
                let rest = match end {
                    Some(end) => st.dirty.split_off(&end),
                    None => BTreeMap::new(),
                };
                for (block, _) in std::mem::replace(&mut st.dirty, rest).into_values() {
                    self.pool.recycle(block);
                }
                return Ok(());
            }
        }
        Err(std::io::Error::other("replicated flush kept failing"))
    }
}

impl BlockStore for ReplicatedStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    /// Dirty blocks are served from the write-back buffer; the rest
    /// are grouped into **one RPC per involved node** (the first
    /// serving replica per block, in replica order). A node failure
    /// mid-read reroutes the unserved remainder to the surviving
    /// replicas on the next pass, then repairs the dead node.
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        self.vectored_reads
            .fetch_add(vectored(class, idxs.len()), Ordering::Relaxed);
        let mut st = self.state.lock();
        let n = st.nodes.len();
        let mut out: Vec<Option<Bytes>> = vec![None; idxs.len()];
        for (pos, &idx) in idxs.iter().enumerate() {
            assert!(idx < self.block_count, "block {idx} out of range");
            if let Some((block, _)) = st.dirty.get(&idx) {
                out[pos] = Some(block.clone());
            }
        }
        for _ in 0..self.failover_budget {
            if out.iter().all(|b| b.is_some()) {
                break;
            }
            // Per node: (positions, inner indices, replica-served count).
            let mut per_node: Vec<(Vec<usize>, Vec<u64>, u64)> =
                (0..n).map(|_| (Vec::new(), Vec::new(), 0)).collect();
            for (pos, &idx) in idxs.iter().enumerate() {
                if out[pos].is_some() {
                    continue;
                }
                let Some(r) = self.first_serving(&st, idx) else {
                    panic!("no live replica for block {idx}");
                };
                let (positions, inners, via_replica) = &mut per_node[node_of(idx, r, n)];
                positions.push(pos);
                inners.push(inner_of(idx, r, n, self.replicas));
                if r != 0 {
                    *via_replica += 1;
                }
            }
            for (node, (positions, inners, via_replica)) in per_node.into_iter().enumerate() {
                if positions.is_empty() {
                    continue;
                }
                // On failure the node declares itself dead; the next
                // pass reroutes its positions to the surviving
                // replicas.
                if let Ok(blocks) = st.nodes[node].store.try_read(class, &inners) {
                    for (pos, block) in positions.into_iter().zip(blocks) {
                        out[pos] = Some(block);
                    }
                    self.replica_reads.fetch_add(via_replica, Ordering::Relaxed);
                }
            }
        }
        self.repair(&mut st);
        self.maybe_tick(&mut st);
        out.into_iter()
            .map(|b| b.expect("every block served from the buffer or a live replica"))
            .collect()
    }

    /// Buffers the writes for the next flush, block 0 included: a
    /// rewrite of a buffered block no reader holds in that block's
    /// buffer and any other all-zero block as the shared
    /// [`crate::zero_block`]. No node sees a write before the flush
    /// that commits it.
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        self.vectored_writes
            .fetch_add(vectored(class, writes.len()), Ordering::Relaxed);
        let mut st = self.state.lock();
        for &(idx, block) in writes {
            assert!(idx < self.block_count, "block {idx} out of range");
            assert_eq!(block.len(), BLOCK_SIZE, "partial block write");
            let slot = st.dirty.entry(idx).or_insert_with(|| (zero_block(), class));
            self.pool.overwrite(&mut slot.0, block);
            slot.1 = class;
        }
    }

    /// Commits the buffer as one or more epochs, in block order, so a
    /// buffered block 0 commits in the first, each under the write
    /// quorum (module docs, *Epochs*, *Multi-coordinator safety*).
    /// Each writable node receives its share of an epoch in ascending
    /// inner block order; its metadata writes ride ahead in a call of
    /// their own class, so the epoch record still commits after them. A
    /// [`RemoteError::Fenced`] refusal aborts at once and latches the
    /// volume read-only. Node journals are deliberately *not* flushed
    /// here: the journal is each node's durability channel, and keeping
    /// the epoch history in it is what the torn-write recovery replays.
    fn flush(&self) -> std::io::Result<()> {
        let mut st = self.state.lock();
        self.flushes.fetch_add(1, Ordering::Relaxed);
        if st.fenced {
            return Err(std::io::Error::other(
                "volume is fenced: a newer coordinator holds the lease",
            ));
        }
        if st.dirty.is_empty() {
            return Ok(());
        }
        loop {
            let end = self.epoch_end(&st);
            self.commit_epoch(&mut st, end)?;
            if st.dirty.is_empty() {
                break;
            }
        }
        self.maybe_tick(&mut st);
        Ok(())
    }

    /// Sum of the node clients' stats (so node-level `writes` shows
    /// the R-way write amplification and `bytes_on_wire` the wire
    /// traffic) plus this layer's own counters; `flushes` reports
    /// replicated flush calls.
    fn stats(&self) -> StoreStats {
        let st = self.state.lock();
        let mut stats = st
            .nodes
            .iter()
            .map(|nd| &nd.store)
            .chain(st.spares.iter())
            .fold(StoreStats::default(), |acc, node| acc.merge(&node.stats()));
        stats.flushes = self.flushes.load(Ordering::Relaxed);
        stats.vectored_reads += self.vectored_reads.load(Ordering::Relaxed);
        stats.vectored_writes += self.vectored_writes.load(Ordering::Relaxed);
        stats.replica_reads += self.replica_reads.load(Ordering::Relaxed);
        stats.rebuilds += self.rebuilds.load(Ordering::Relaxed);
        stats.nodes_revived += self.nodes_revived.load(Ordering::Relaxed);
        stats.read_repairs += self.read_repairs.load(Ordering::Relaxed);
        stats.rebuild_backlog += st.progress().0 as u64;
        // The node clients already contribute their fenced-write
        // rejections; the latch itself shows as one more.
        stats.fenced += u64::from(st.fenced);
        stats
    }

    fn label(&self) -> &'static str {
        "replicated"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RemoteOptions, SimStore};
    use netsim::{LinkConfig, SimClock};
    use std::sync::Arc;

    fn volume(blocks: u64, nodes: usize, replicas: usize, spares: usize) -> ReplicatedStore {
        let clock = SimClock::new();
        let node_bc = ReplicatedStore::node_block_count(blocks, nodes, replicas);
        let make = |_i: usize| {
            RemoteStore::serve_local(
                SimStore::untimed(node_bc),
                &clock,
                LinkConfig::instant(),
                RemoteOptions::default(),
            )
        };
        ReplicatedStore::new(
            (0..nodes).map(make).collect(),
            (0..spares).map(make).collect(),
            blocks,
            replicas,
        )
    }

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    #[test]
    fn an_unshared_buffered_block_is_overwritten_in_place() {
        crate::check_overwrite_in_place(&volume(32, 3, 2, 0), 5);
    }

    #[test]
    fn placement_is_a_bijection_onto_distinct_nodes() {
        let (n, replicas, bc) = (4usize, 2usize, 37u64);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..bc {
            let nodes: Vec<usize> = (0..replicas).map(|r| node_of(idx, r, n)).collect();
            assert_eq!(
                nodes.iter().collect::<std::collections::HashSet<_>>().len(),
                replicas,
                "replicas of {idx} must land on distinct nodes"
            );
            for r in 0..replicas {
                let slot = (node_of(idx, r, n), inner_of(idx, r, n, replicas));
                assert!(seen.insert(slot), "slot collision at {slot:?}");
                assert!(
                    slot.1 < epoch_slot(bc, n, replicas),
                    "data below the epoch slot"
                );
            }
        }
    }

    #[test]
    fn round_trips_and_commits_epochs() {
        let store = volume(32, 4, 2, 0);
        for i in 0..32u64 {
            store.write_block(i, &block_of(i as u8 + 1));
        }
        assert_eq!(store.epoch(), 0, "writes are buffered before flush");
        store.flush().unwrap();
        assert_eq!(store.epoch(), 1);
        for i in 0..32u64 {
            assert_eq!(store.read_block(i)[0], i as u8 + 1);
        }
        store.flush().unwrap();
        assert_eq!(store.epoch(), 1, "clean flush commits nothing");
        let stats = store.stats();
        assert_eq!(stats.replica_reads, 0);
        assert_eq!(stats.rebuilds, 0);
        // 32 logical writes × 2 replicas reached the nodes.
        assert_eq!(
            stats.writes,
            64 + 4,
            "R× amplification plus 4 epoch records"
        );
    }

    /// Block 0, the filesystem's superblock, is buffered like every
    /// other block: no node sees it before the flush, and the flush
    /// commits it to every replica under the epoch.
    #[test]
    fn block_zero_reaches_the_nodes_only_in_an_epoch() {
        let (clock, backing) = shared_backing(16, 4, 2);
        let store = ReplicatedStore::new(shared_clients(&clock, &backing), vec![], 16, 2);
        let before = store.stats();
        store.write_block(0, &block_of(0xD1));
        let after = store.stats();
        assert_eq!(
            (after.rpc_calls, after.writes),
            (before.rpc_calls, before.writes),
            "block 0 sent before the flush"
        );
        store.flush().unwrap();
        assert_eq!(store.epoch(), 1);
        for r in 0..2 {
            let (node, inner) = (node_of(0, r, 4), inner_of(0, r, 4, 2));
            assert_eq!(
                backing[node].0.read_block(inner),
                block_of(0xD1),
                "replica {r}"
            );
        }
    }

    #[test]
    fn node_death_fails_over_and_rebuilds_onto_the_spare() {
        let store = volume(32, 4, 2, 1);
        for i in 0..32u64 {
            store.write_block(i, &block_of(i as u8 + 1));
        }
        store.flush().unwrap();
        store.kill_node(2);
        for i in 0..32u64 {
            assert_eq!(store.read_block(i)[0], i as u8 + 1, "zero failed reads");
        }
        let stats = store.stats();
        assert_eq!(stats.rebuilds, 1, "spare took the dead node's place");
        assert!(stats.replica_reads >= 1, "the detecting read failed over");
        assert_eq!(store.live_nodes(), 4);
        assert_eq!(store.spare_count(), 0);
        // The rebuilt node serves its share: kill another node.
        store.kill_node(3);
        for i in 0..32u64 {
            assert_eq!(store.read_block(i)[0], i as u8 + 1, "degraded reads");
        }
        assert_eq!(store.live_nodes(), 3, "no spare left: degraded");
    }

    /// Failover reads ride the same link class as primary reads: with
    /// one node of four dead (no spare, so nothing rebuilds), the median
    /// per-read virtual latency stays within 2× of the healthy volume's
    /// and no read fails.
    #[test]
    fn failover_reads_stay_near_healthy_latency() {
        const BLOCKS: u64 = 64;
        let data: Vec<Vec<u8>> = (0..BLOCKS).map(|i| block_of(i as u8 + 1)).collect();
        let median_read = |dead: Option<usize>| {
            let clock = SimClock::new();
            let node_bc = ReplicatedStore::node_block_count(BLOCKS, 4, 2);
            let nodes = (0..4)
                .map(|_| {
                    RemoteStore::serve_local(
                        SimStore::untimed(node_bc),
                        &clock,
                        LinkConfig::ethernet_100mbps(),
                        RemoteOptions::default(),
                    )
                })
                .collect();
            let store = ReplicatedStore::new(nodes, Vec::new(), BLOCKS, 2);
            let writes: Vec<(u64, &[u8])> = (0..BLOCKS).zip(data.iter().map(|b| &b[..])).collect();
            store.write_blocks(&writes);
            store.flush().unwrap();
            if let Some(node) = dead {
                store.kill_node(node);
            }
            let mut latencies: Vec<Duration> = (0..BLOCKS)
                .map(|i| {
                    let before = clock.now();
                    assert_eq!(store.read_block(i), data[i as usize], "zero failed reads");
                    clock.now() - before
                })
                .collect();
            latencies.sort_unstable();
            latencies[(latencies.len() - 1) / 2]
        };
        let (healthy, degraded) = (median_read(None), median_read(Some(1)));
        assert!(
            degraded <= healthy * 2,
            "failover must serve reads at near-healthy latency: p50 {degraded:?} vs {healthy:?}"
        );
    }

    /// Chained placement hands node 1 logical blocks 3 and 4 at inner
    /// 3 and 2: in logical order that is a step down and a second seek.
    /// The flush sends each node its writes in inner order, so the pair
    /// is one run, and the epoch record behind it the only other seek.
    #[test]
    fn flush_writes_each_node_in_block_order() {
        let model = crate::DiskModel::quantum_fireball_ct10();
        let (blocks, n, replicas) = (12u64, 3usize, 2usize);
        let node_bc = ReplicatedStore::node_block_count(blocks, n, replicas);
        let clocks: Vec<SimClock> = (0..n).map(|_| SimClock::new()).collect();
        let nodes = clocks
            .iter()
            .map(|clock| {
                RemoteStore::serve_local(
                    SimStore::new(clock, model, node_bc),
                    clock,
                    LinkConfig::instant(),
                    RemoteOptions::default(),
                )
            })
            .collect();
        let store = ReplicatedStore::new(nodes, Vec::new(), blocks, replicas);
        assert_eq!((node_of(3, 1, n), inner_of(3, 1, n, replicas)), (1, 3));
        assert_eq!((node_of(4, 0, n), inner_of(4, 0, n, replicas)), (1, 2));
        store.write_blocks(&[(3, &block_of(3)), (4, &block_of(4))]);
        let before = clocks[1].now();
        store.flush().unwrap();
        assert_eq!(
            clocks[1].now() - before,
            model.run_cost(2) + model.run_cost(1),
            "one seek for the pair, one for the epoch record"
        );
        assert_eq!(store.read_block(3), block_of(3));
        assert_eq!(store.read_block(4), block_of(4));
    }

    #[test]
    fn write_amplification_is_r_times() {
        let r1 = volume(16, 4, 1, 0);
        let r2 = volume(16, 4, 2, 0);
        for store in [&r1, &r2] {
            for i in 0..16u64 {
                store.write_block(i, &block_of(7));
            }
            store.flush().unwrap();
        }
        let (w1, w2) = (r1.stats(), r2.stats());
        assert_eq!(w2.writes - 4, (w1.writes - 4) * 2, "data writes double");
        assert!(
            w2.bytes_on_wire > w1.bytes_on_wire * 3 / 2,
            "wire traffic grows"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        volume(8, 2, 2, 0).read_block(8);
    }

    /// Shared backing for two coordinators: each node is one store +
    /// one lease, and every coordinator gets its own `serve_shared`
    /// connection per node.
    type SharedNode = (std::sync::Arc<SimStore>, std::sync::Arc<crate::NodeLease>);

    fn shared_backing(blocks: u64, nodes: usize, replicas: usize) -> (SimClock, Vec<SharedNode>) {
        let clock = SimClock::new();
        let node_bc = ReplicatedStore::node_block_count(blocks, nodes, replicas);
        let backing = (0..nodes)
            .map(|_| {
                (
                    std::sync::Arc::new(SimStore::untimed(node_bc)),
                    std::sync::Arc::new(crate::NodeLease::default()),
                )
            })
            .collect();
        (clock, backing)
    }

    fn shared_clients(clock: &SimClock, backing: &[SharedNode]) -> Vec<RemoteStore> {
        faulty_clients(clock, backing, RemoteOptions::default(), None)
    }

    /// [`shared_clients`] under `opts`, with `faults` on node 2's link
    /// when given.
    fn faulty_clients(
        clock: &SimClock,
        backing: &[SharedNode],
        opts: RemoteOptions,
        faults: Option<&netsim::FaultPlan>,
    ) -> Vec<RemoteStore> {
        backing
            .iter()
            .enumerate()
            .map(|(m, (store, lease))| {
                RemoteStore::serve_shared(
                    std::sync::Arc::clone(store) as std::sync::Arc<dyn BlockStore>,
                    std::sync::Arc::clone(lease),
                    clock,
                    LinkConfig::instant(),
                    opts,
                    faults.filter(|_| m == 2),
                )
            })
            .collect()
    }

    /// Timeouts short enough that a partition declares a node dead
    /// after 200 ms of virtual time.
    fn short_timeouts() -> RemoteOptions {
        RemoteOptions {
            timeout: Duration::from_millis(10),
            deadline: Duration::from_millis(200),
        }
    }

    #[test]
    fn fenced_coordinator_latches_read_only_and_reacquires() {
        let ttl = Duration::from_millis(1);
        let (clock, backing) = shared_backing(16, 4, 2);
        // Coordinator A owns the volume and commits epoch 1.
        let a = ReplicatedStore::new(shared_clients(&clock, &backing), vec![], 16, 2);
        a.try_acquire_lease(1, ttl).unwrap();
        for i in 0..16u64 {
            a.write_block(i, &block_of(i as u8 + 1));
        }
        a.flush().unwrap();
        assert_eq!(a.epoch(), 1);
        // A's lease expires; coordinator B acquires on the raw clients
        // *before* mounting (mount recovery itself writes), then
        // commits epoch 2.
        clock.advance(Duration::from_secs(1));
        let b_clients = shared_clients(&clock, &backing);
        for c in &b_clients {
            c.try_acquire_lease(2, ttl).unwrap();
        }
        let b = ReplicatedStore::new(b_clients, vec![], 16, 2);
        assert_eq!(b.epoch(), 1, "B mounts A's committed history");
        b.write_block(5, &block_of(0xB5));
        b.flush().unwrap();
        assert_eq!(b.epoch(), 2);
        // A, surviving with its stale token, tries to write: the flush
        // is fenced, nothing of it lands, and A latches read-only.
        a.write_block(7, &block_of(0xA7));
        assert!(a.flush().is_err());
        assert!(a.is_fenced());
        assert!(a.stats().fenced >= 1);
        assert!(a.flush().is_err(), "fenced flush fails without retrying");
        // Reads still serve (B's committed data, not A's dead letter).
        assert_eq!(b.read_block(5)[0], 0xB5);
        // B's lease expires; A re-acquires, discards its losing
        // writes, and adopts the committed epoch 2 before resuming.
        clock.advance(Duration::from_secs(1));
        a.reacquire().unwrap();
        assert!(!a.is_fenced());
        assert_eq!(a.epoch(), 2);
        assert_eq!(a.read_block(7)[0], 8, "A's fenced write was discarded");
        a.write_block(7, &block_of(0xAA));
        a.flush().unwrap();
        assert_eq!(a.epoch(), 3);
        assert_eq!(a.read_block(7)[0], 0xAA);
    }

    #[test]
    fn revived_stale_replica_schedules_a_read_repair() {
        let clock = SimClock::new();
        let node_bc = ReplicatedStore::node_block_count(16, 4, 2);
        let opts = short_timeouts();
        let plan = netsim::FaultPlan::seeded(42);
        let mut nodes: Vec<RemoteStore> = (0..3)
            .map(|_| {
                RemoteStore::serve_local(
                    SimStore::untimed(node_bc),
                    &clock,
                    LinkConfig::instant(),
                    opts,
                )
            })
            .collect();
        nodes.insert(
            2,
            RemoteStore::serve_shared(
                Arc::new(SimStore::untimed(node_bc)),
                Arc::default(),
                &clock,
                LinkConfig::instant(),
                opts,
                Some(&plan),
            ),
        );
        let store = ReplicatedStore::new(nodes, vec![], 16, 2);
        for i in 0..16u64 {
            store.write_block(i, &block_of(i as u8 + 1));
        }
        store.flush().unwrap();
        // Partition node 2; the detecting read times it out into
        // probation and fails over.
        plan.partition(clock.now(), clock.now() + Duration::from_secs(60));
        assert_eq!(store.read_block(2)[0], 3, "failover serves the read");
        assert_eq!(store.probation_nodes(), 1);
        // Quorum flush: epoch 2 commits without node 2.
        store.write_block(6, &block_of(0x66));
        store.flush().unwrap();
        assert_eq!(store.epoch(), 2);
        // Heal; the revival probe finds node 2's epoch record behind
        // the committed epoch and schedules a read-repair re-sync.
        clock.advance(Duration::from_secs(61));
        store.pump_rebuild();
        let stats = store.stats();
        assert_eq!(stats.read_repairs, 1, "stale revival counted");
        assert!(stats.nodes_revived >= 1);
        assert_eq!(store.rebuild_backlog(), 0);
        assert_eq!(store.live_nodes(), 4);
        for i in 0..16u64 {
            let want = if i == 6 { 0x66 } else { i as u8 + 1 };
            assert_eq!(store.read_block(i)[0], want);
        }
    }

    /// A background rebuild copies a call's worth of blocks at a time:
    /// one read per source node and one write to the target a chunk,
    /// not a read and a write per block.
    #[test]
    fn rebuild_makes_one_call_per_source_per_chunk() {
        const BLOCKS: u64 = 3_072;
        let clock = SimClock::new();
        let node_bc = ReplicatedStore::node_block_count(BLOCKS, 3, 2);
        let make = |_| {
            RemoteStore::serve_local(
                SimStore::untimed(node_bc),
                &clock,
                LinkConfig::ethernet_100mbps(),
                RemoteOptions::default(),
            )
        };
        let store = ReplicatedStore::new((0..3).map(make).collect(), vec![make(3)], BLOCKS, 2);
        let block = |i: u64| block_of((i % 251) as u8 + 1);
        for i in 0..BLOCKS {
            store.write_block(i, &block(i));
        }
        store.flush().unwrap();
        store.kill_node(1);
        assert_eq!(
            store.read_block(1),
            block(1),
            "the detecting read fails over"
        );
        let (calls, copied) = (store.stats().rpc_calls, store.rebuild_backlog());
        store.pump_rebuild();
        let calls = store.stats().rpc_calls - calls;
        let per_tick = RebuildConfig::default().blocks_per_tick as u64;
        assert_eq!(store.rebuild_backlog(), 0);
        assert!(
            calls <= 3 * copied.div_ceil(per_tick) + 1,
            "{calls} calls to copy {copied} blocks"
        );
        assert_eq!(store.stats().rebuilds, 1);
        for i in 0..BLOCKS {
            assert_eq!(store.read_block(i), block(i));
        }
    }

    /// A shared-node volume whose first coordinator committed
    /// `block_of(i + 1)` at every block `i` as epoch 1 and is gone,
    /// ready for a test to tamper with the backing stores and remount.
    fn committed_backing(
        blocks: u64,
        nodes: usize,
        replicas: usize,
    ) -> (SimClock, Vec<SharedNode>) {
        let (clock, backing) = shared_backing(blocks, nodes, replicas);
        let store =
            ReplicatedStore::new(shared_clients(&clock, &backing), vec![], blocks, replicas);
        for i in 0..blocks {
            store.write_block(i, &block_of(i as u8 + 1));
        }
        store.flush().unwrap();
        (clock, backing)
    }

    /// An idle spare sized for a 16-block, 4-node, R = 2 volume.
    fn spare(clock: &SimClock) -> RemoteStore {
        let node_bc = ReplicatedStore::node_block_count(16, 4, 2);
        RemoteStore::serve_local(
            SimStore::untimed(node_bc),
            clock,
            LinkConfig::instant(),
            RemoteOptions::default(),
        )
    }

    fn assert_reads_committed(store: &ReplicatedStore, blocks: u64) {
        for i in 0..blocks {
            assert_eq!(store.read_block(i), block_of(i as u8 + 1), "block {i}");
        }
    }

    #[test]
    fn mount_resyncs_a_stale_live_node_in_place() {
        let (clock, backing) = committed_backing(16, 4, 2);
        let slot = epoch_slot(16, 4, 2);
        // Node 1 missed the commit: its record reads as epoch 0, and
        // its copy of block 1 (replica 0) is garbage.
        let inner = inner_of(1, 0, 4, 2);
        backing[1].0.write_block(slot, &block_of(0));
        backing[1].0.write_block(inner, &block_of(0xEE));
        let store = ReplicatedStore::new(shared_clients(&clock, &backing), vec![], 16, 2);
        assert_eq!(store.stats().rebuilds, 1, "rebuilt before new returned");
        assert_eq!((store.live_nodes(), store.rebuild_backlog()), (4, 0));
        assert_eq!(decode_epoch(&backing[1].0.read_block(slot)), 1);
        assert_eq!(backing[1].0.read_block(inner), block_of(2));
        assert_reads_committed(&store, 16);
    }

    #[test]
    fn mount_rebuilds_a_disconnected_node_onto_the_spare() {
        let (clock, backing) = committed_backing(16, 4, 2);
        let clients = shared_clients(&clock, &backing);
        clients[2].kill_server();
        let store = ReplicatedStore::new(clients, vec![spare(&clock)], 16, 2);
        assert_eq!(store.spare_count(), 0);
        assert_eq!(store.stats().rebuilds, 1, "the spare was rebuilt at mount");
        assert_eq!(store.live_nodes(), 4);
        // With node 3 gone too, blocks 2, 6, 10 and 14 (nodes 2 and 3)
        // read from the spare alone.
        store.kill_node(3);
        assert_reads_committed(&store, 16);
    }

    #[test]
    fn mount_puts_a_timed_out_node_in_probation_and_keeps_the_spare() {
        let (clock, backing) = committed_backing(16, 4, 2);
        // Node 2 missed the commit, and its link is partitioned at
        // mount.
        backing[2].0.write_block(epoch_slot(16, 4, 2), &block_of(0));
        let plan = netsim::FaultPlan::seeded(42);
        let clients = faulty_clients(&clock, &backing, short_timeouts(), Some(&plan));
        plan.partition(clock.now(), clock.now() + Duration::from_secs(60));
        let store = ReplicatedStore::new(clients, vec![spare(&clock)], 16, 2);
        assert_eq!(store.probation_nodes(), 1);
        assert_eq!(store.spare_count(), 1, "a timeout spends no spare");
        assert_reads_committed(&store, 16);
        // Heal; the revival probe finds node 2 behind and re-syncs it.
        clock.advance(Duration::from_secs(61));
        store.pump_rebuild();
        let stats = store.stats();
        assert_eq!((stats.read_repairs, stats.rebuilds), (1, 1));
        assert_eq!((store.live_nodes(), store.spare_count()), (4, 1));
        assert_reads_committed(&store, 16);
    }

    #[test]
    #[should_panic(expected = "no fresh replica")]
    fn mount_without_a_fresh_replica_panics() {
        let (clock, backing) = committed_backing(12, 3, 2);
        // Nodes 0 and 1 both missed the commit, and they hold block 0's
        // only two replicas.
        for (store, _) in &backing[..2] {
            store.write_block(epoch_slot(12, 3, 2), &block_of(0));
        }
        ReplicatedStore::new(shared_clients(&clock, &backing), vec![], 12, 2);
    }

    /// A rebuild write refused by a newer coordinator's fence is not a
    /// death: the tick stops instead of retrying it forever, and the
    /// copy resumes once this coordinator holds the lease again.
    #[test]
    fn fenced_rebuild_write_waits_for_reacquire() {
        let ttl = Duration::from_millis(1);
        let (clock, backing) = shared_backing(16, 4, 2);
        let plan = netsim::FaultPlan::seeded(42);
        let clients = faulty_clients(&clock, &backing, short_timeouts(), Some(&plan));
        let a = ReplicatedStore::new(clients, vec![], 16, 2);
        a.try_acquire_lease(1, ttl).unwrap();
        for i in 0..16u64 {
            a.write_block(i, &block_of(i as u8 + 1));
        }
        a.flush().unwrap();
        // Node 2 misses epoch 2 behind a partition.
        plan.partition(clock.now(), clock.now() + Duration::from_secs(60));
        assert_eq!(a.read_block(2)[0], 3);
        a.write_block(6, &block_of(0x66));
        a.flush().unwrap();
        // The link heals, A's lease lapses, and B takes every node.
        clock.advance(Duration::from_secs(61));
        let b_clients = shared_clients(&clock, &backing);
        for c in &b_clients {
            c.try_acquire_lease(2, ttl).unwrap();
        }
        // A revives node 2 behind, and its re-sync write is fenced.
        a.pump_rebuild();
        assert_eq!(a.stats().read_repairs, 1);
        assert_eq!(a.live_nodes(), 3);
        assert!(a.rebuild_backlog() > 0);
        // B's lease lapses; A re-acquires, and the copy completes.
        clock.advance(Duration::from_secs(1));
        a.reacquire().unwrap();
        a.pump_rebuild();
        assert_eq!((a.live_nodes(), a.rebuild_backlog()), (4, 0));
        for i in 0..16u64 {
            let want = if i == 6 { 0x66 } else { i as u8 + 1 };
            assert_eq!(a.read_block(i)[0], want);
        }
    }

    mod epoch_props {
        use super::*;
        use discfs_crypto::rng::check::check;

        /// Arbitrary bytes — wrong-sized, empty, random — never
        /// panic and never read as a committed epoch.
        #[test]
        fn arbitrary_bytes_decode_to_epoch_zero() {
            check("arbitrary_bytes_decode_to_epoch_zero", 48, |src| {
                let data = src.vec(0..2 * BLOCK_SIZE, |src| src.any::<u8>());
                assert_eq!(decode_epoch(&data), 0);
            });
        }

        /// A truncated (torn) epoch record reads as epoch 0.
        #[test]
        fn truncated_record_decodes_to_zero() {
            check("truncated_record_decodes_to_zero", 48, |src| {
                let block = epoch_record(src.range(1u64..u64::MAX));
                assert_eq!(decode_epoch(&block[..src.range(0..BLOCK_SIZE)]), 0);
            });
        }

        /// Any single bit flip in the covered prefix (magic, epoch,
        /// checksum) invalidates the record: it reads as epoch 0,
        /// never as a wrong epoch, and never panics.
        #[test]
        fn bit_flipped_record_decodes_to_zero() {
            check("bit_flipped_record_decodes_to_zero", 48, |src| {
                let mut block = epoch_record(src.range(1u64..u64::MAX));
                block[src.range(0usize..48)] ^= 1 << src.range(0u32..8);
                assert_eq!(decode_epoch(&block), 0);
            });
        }
    }
}
