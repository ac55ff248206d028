//! `ffs` — an inode-based Unix filesystem over a simulated block device.
//!
//! This crate plays two roles in the DisCFS reproduction:
//!
//! 1. **The `FFS` baseline** of the paper's Figures 7–12: benchmarks run
//!    directly against this filesystem to obtain the "local file
//!    system" series.
//! 2. **The backing store** for the user-level NFS servers (CFS-NE and
//!    DisCFS) — the paper's prototype stored files in the server's
//!    local filesystem, identified by inode numbers; our `discfs` crate
//!    does the same, with the generation numbers the paper lists as
//!    future work.
//!
//! The design is a deliberately classic Berkeley-style layout on 8 KB
//! blocks: superblock, inode/block bitmaps, a fixed inode table, then
//! data blocks. Files grow through 12 direct pointers, one single- and
//! one double-indirect block. Directories store real `.`/`..` entries.
//! An [`fsck`][Ffs::check]-style invariant checker backs the property
//! tests.
//!
//! **Allocation groups**, the role of FFS's cylinder groups (McKusick
//! et al., "A Fast File System for UNIX", 1984). The data region is
//! split into equal groups of 1 024 blocks (8 MiB), the last taking the
//! remainder, and the inode table into as many ranges;
//! [`FsConfig::small`] is one group, [`FsConfig::standard`] 31. The
//! groups follow from the geometry the superblock records, so nothing
//! about them is on disk. A new directory's inode goes in the group
//! with the fewest used data blocks (BSD's dirpref), a file's or
//! symlink's in its directory's group. A block goes right after the
//! file's previous block when that is mapped, otherwise first-free
//! from the start of the inode's group (blkpref). So a directory's
//! block heads a group and its files follow it in the order they were
//! written, and a large file stays one ascending run across groups with
//! its pointer blocks inline: there is no per-file limit per group.
//!
//! # Storage backends
//!
//! The filesystem is written against the [`BlockStore`] trait from the
//! `store` crate rather than a concrete device. Pick a backend at
//! format time:
//!
//! * [`Ffs::format_in_memory`] / [`Ffs::format_timed`] — the
//!   historical constructors: an in-memory simulated disk, untimed or
//!   charging the paper's Quantum Fireball timing model.
//! * [`Ffs::format_backend`] — any [`StoreBackend`]: `SimTimed`,
//!   `SimInstant`, `FileJournal` (persistent, write-ahead journaled;
//!   call [`Ffs::sync`] to apply the WAL), or `EncryptedJournal`
//!   (the same journaled storage, ChaCha20-encrypted at rest).
//! * Composable wrappers nest around any of the above:
//!   `StoreBackend::Cached` (a sharded write-back LRU buffer cache —
//!   hot reads become refcounted handle clones and never touch the
//!   backend) and `StoreBackend::Sharded` (one volume striped `i % N`
//!   across N inner stores with per-shard locks and parallel flush).
//! * [`Ffs::format_on`] — any hand-built `Arc<dyn BlockStore>`,
//!   including custom wrappers like `store::EncryptedStore`.
//!
//! **Hot-path note:** a store read returns shared `Bytes` handles, and
//! the filesystem's read path consumes them without copying per block
//! at the store layer — on in-memory and cache-hit paths a
//! block read allocates **no block**, only its 32-byte handle
//! (`crates/store/tests/zero_copy.rs` pins this with a counting
//! allocator). A write on `FileJournal` is on the journal file when
//! the call returns: one append per store call.
//!
//! # The pipelined file path
//!
//! File reads and writes do not loop the store per block: each
//! operation resolves its whole block mapping first, then moves the
//! extent — one block or many — in **one store call**
//! (`BlockStore::read` / `write`). Partial head and tail blocks are
//! read-modify-written through `read_block_into`, and the RMW'd
//! buffers ride in the same write as the full blocks, in ascending
//! file order — so the journal records of a journaled backend are the
//! records, in the order, of a per-block loop. What each backend makes
//! of the one call (one subcall per involved shard, one journal
//! append, readahead on one-block reads, one seek per contiguous run)
//! is in the `store` crate docs, "One I/O path".
//!
//! Shutdown/flush ordering: `Ffs::sync` flushes before writing the
//! clean marker and flushes again after. Every store call has finished
//! when it returns (a sharded backend runs it on the caller's thread),
//! so the clean marker can never overtake a write.
//!
//! # In-core caches
//!
//! `Ffs` keeps two bounded LRU caches in the state its one lock
//! guards ([`Ffs::cache_stats`] counts their hits, misses and
//! evictions; there is nothing to configure):
//!
//! * the **name cache** — for up to 256 directories, the parsed entry
//!   list, by directory inode. LOOKUP and the existence checks of
//!   CREATE / MKDIR / SYMLINK / LINK / UNLINK / RMDIR / RENAME search
//!   it after the usual inode checks (`BadInode`, `NotDir`); a miss
//!   reads the directory's blocks once.
//! * the **pointer-block cache** — for up to 64 indirect and
//!   double-indirect blocks, the 8 KiB image, by block number. Block
//!   mapping, truncation and the recovery sweep read single pointers
//!   out of it; a miss reads the block once.
//!
//! **Write-through, always.** The store is current after every
//! operation, so `fsck`, remount, crash replay and the recovery sweep
//! see exactly what they saw without the caches, and eviction just
//! forgets. The only writer of directory blocks (`write_dir`) installs
//! the list it wrote; a mutation takes the list out of the cache, edits
//! it and hands it back, so a mutation that fails half way leaves the
//! cache without the directory rather than with something the store
//! does not hold. A pointer is set by patching the cached image and
//! writing that image out — no read-back, no re-encoding — and a
//! truncation clears a whole table with one write. Freeing an inode
//! drops its name-cache entry; freeing a block drops its image;
//! allocating a pointer block installs the zero image the allocator
//! just wrote. [`Ffs::check`] answers from the store, not from the
//! caches: it reads pointer blocks itself and lists directories with
//! READDIR.
//!
//! **What it buys** (benchmark seed 7; CHANGES.md has the tables). On
//! the timed disk a warm LOOKUP costs no disk time, so the head stays
//! on the file blocks: the Figure 12 walk (`meta_walk`: READDIR, then
//! LOOKUP + READ per file) went from a 14 ms seek on every one of its
//! 784 operations (14 756 µs per operation) to two seeks per directory,
//! 32 a cycle (1 299 µs): its tree makes the 16 directories before
//! their files, and with one allocation cursor their blocks sat
//! together, away from the files. With allocation groups each
//! directory's block heads its own run of files, and the walk pays one
//! seek per directory (1 012 µs; disk 852 → 565 µs per operation). On
//! a remote volume a READ behind an indirect pointer is one RPC instead
//! of two (`repl_mixed`: 1.62 → 0.63 RPCs per operation, 61 → 28 µs
//! under the lock).
//!
//! **READDIR still reads the disk**, and refreshes the name cache from
//! what it read — as 4.4BSD's name cache serves `namei`, not
//! `getdirentries`. Serving READDIR from the cache too was measured.
//! Since the directory's block heads the run of its files' blocks,
//! that saves one block transfer per directory, not a seek: the walk
//! drops from 1 012 to 1 001 µs per operation (disk 565 → 554), and
//! DisCFS/CFS-NE reads 1.121 in virtual time against 1.120. (Before
//! allocation groups it saved a seek as well, 1 299 → 732 µs, and the
//! ratio reached 1.173, outside the benchmark's 0.85–1.15 check: with
//! the disk nearly gone, the 200 µs KeyNote charge on the third of the
//! walk's decisions that miss the 128-entry policy cache was 15 % of
//! what was left.) CI runs the traced walk on every PR.
//!
//! # Persistence lifecycle
//!
//! A volume is a long-lived entity: format once, then mount on every
//! later life. The constructors split three ways:
//!
//! * **format** ([`Ffs::format_on`] and friends) — creates a fresh
//!   volume. Since the store now carries a checksummed superblock,
//!   the `format_*` paths *refuse* to touch a store that already
//!   holds one (the pre-mount behavior of silently reformatting — and
//!   destroying — an existing `FileJournal` directory is gone);
//!   [`Ffs::force_format_on`] is the explicit eraser.
//! * **mount** ([`Ffs::mount_on`] / [`Ffs::mount_backend`]) — reopens
//!   an existing volume: validates the superblock (magic, version,
//!   SHA-256 checksum, geometry against the store size — garbage
//!   fails closed with a [`MountError`]) and rebuilds in-memory state
//!   from disk.
//! * **open-or-format** ([`Ffs::open_or_format`] /
//!   [`Ffs::open_or_format_backend`]) — mounts when a superblock is
//!   present, formats when the store is virgin; a *damaged*
//!   superblock is still an error, never a silent reformat.
//!
//! Durability is sync-granular: [`Ffs::sync`] writes the in-memory
//! inode/block bitmaps to their durable regions, flushes the backend
//! (journaled backends apply their WAL; write-back caches write their
//! dirty blocks down first), marks the superblock clean, and flushes
//! once more — the flush *before* the clean marker guarantees the
//! marker can never reach the journal ahead of a mutation it claims
//! to cover, even through a `StoreBackend::Cached` composition. A
//! mount of a clean volume trusts the durable bitmaps; the
//! first mutation after a sync flips the superblock dirty, so a mount
//! after an unclean shutdown runs an fsck-style recovery sweep
//! instead: the inode table is authoritative, bitmaps are rebuilt
//! from it, directory entries pointing at lost inodes are dropped,
//! orphaned inodes/blocks are freed, and link counts are repaired —
//! landing on the last consistent state. On the `FileJournal` backend
//! every write is also journaled *before* [`Ffs::sync`], so an
//! acknowledged write survives a crash unless the journal record
//! itself was torn; the crash-injection tests truncate the journal at
//! every byte offset to pin that behavior down.
//!
//! The on-disk superblock layout (block 0) is documented in the
//! crate-private `sb` module: magic `FFSDISC1`, version, geometry
//! (`total_blocks`, `inode_count`, bitmap/inode-table/data offsets),
//! the sync tick, the clean flag, and a SHA-256 checksum over the
//! header.
//!
//! # Example
//!
//! ```
//! use ffs::{Ffs, FsConfig};
//!
//! let fs = Ffs::format_in_memory(FsConfig::small());
//! let root = fs.root();
//! let ino = fs.create(root, "hello.txt", 0o644, 0, 0).unwrap();
//! fs.write(ino, 0, b"hello world").unwrap();
//! assert_eq!(fs.read(ino, 0, 5).unwrap(), b"hello");
//! fs.check().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod check;
mod fs;
mod inode;
mod sb;
#[cfg(test)]
mod tests;

pub use cache::CacheStats;
pub use fs::{Attr, DirEntry, Ffs, FsConfig, FsStats, Ino, SetAttr};
pub use inode::FileKind;
pub use sb::MountError;
pub use store::{BlockStore, IoClass, RemoteOptions, StoreBackend, StoreStats, BLOCK_SIZE};

/// Errors returned by filesystem operations (errno-flavored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No such file or directory.
    NoEnt,
    /// Entry already exists.
    Exists,
    /// Operation requires a directory.
    NotDir,
    /// Operation cannot apply to a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Out of data blocks or inodes.
    NoSpace,
    /// Name too long or contains `/` or NUL.
    BadName,
    /// The handle's generation number is outdated (file was deleted and
    /// the inode reused) — NFS `ESTALE`.
    Stale,
    /// Inode number out of range or not allocated.
    BadInode,
    /// File too large for the pointer geometry.
    TooBig,
    /// Operation not supported on this file type.
    BadType,
    /// Cannot move a directory into its own subtree.
    InvalidMove,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NoEnt => "no such file or directory",
            FsError::Exists => "file exists",
            FsError::NotDir => "not a directory",
            FsError::IsDir => "is a directory",
            FsError::NotEmpty => "directory not empty",
            FsError::NoSpace => "no space left on device",
            FsError::BadName => "invalid file name",
            FsError::Stale => "stale file handle",
            FsError::BadInode => "invalid inode",
            FsError::TooBig => "file too large",
            FsError::BadType => "inappropriate file type",
            FsError::InvalidMove => "invalid directory move",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for FsError {}
