//! What each workload does, independent of the system it runs on: the
//! files it needs ([`Layout`]) and the operations it issues
//! ([`OpStream`]). Operations name files by index into the layout, so
//! the same seeded stream drives DisCFS, the CFS-NE baseline and a bare
//! `Ffs` replay, and expected results come from the generator alone.

use crate::gen::Rng;

/// Bytes per block: the NFSv2 transfer size and the FFS block size.
pub const BLOCK: u32 = 8192;

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Sequential 8 KiB READs of one large file, 8 in flight.
    SeqRead,
    /// Truncate, then sequential 8 KiB WRITEs, 8 in flight.
    SeqWrite,
    /// READDIR/LOOKUP/READ over a tree of small files, one at a time.
    MetaWalk,
    /// Connect, submit a delegation chain, read, disconnect.
    SessionSetup,
    /// A reader and a random overwriter on the full local store stack.
    StackMixed,
    /// Random reads and writes on a replicated remote volume.
    ReplMixed,
}

impl WorkloadKind {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::SeqRead,
        WorkloadKind::SeqWrite,
        WorkloadKind::MetaWalk,
        WorkloadKind::SessionSetup,
        WorkloadKind::StackMixed,
        WorkloadKind::ReplMixed,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SeqRead => "seq_read",
            WorkloadKind::SeqWrite => "seq_write",
            WorkloadKind::MetaWalk => "meta_walk",
            WorkloadKind::SessionSetup => "session_setup",
            WorkloadKind::StackMixed => "stack_mixed",
            WorkloadKind::ReplMixed => "repl_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests each connection keeps in flight (what that many biods
    /// would do); 1 is what `find | wc` does.
    pub fn window(self) -> usize {
        match self {
            WorkloadKind::SeqRead | WorkloadKind::SeqWrite | WorkloadKind::ReplMixed => 8,
            WorkloadKind::StackMixed => 4,
            WorkloadKind::MetaWalk | WorkloadKind::SessionSetup => 1,
        }
    }
}

/// Sizes of every workload. [`Scale::full`] is the benchmark;
/// [`Scale::tiny`] keeps the crate's own tests fast in debug builds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Blocks of the `seq_read`/`seq_write` file (4096 = 32 MiB).
    pub seq_blocks: u32,
    /// Directories of the `meta_walk` tree.
    pub tree_dirs: u32,
    /// Files per directory.
    pub tree_files: u32,
    /// Nominal bytes per tree file.
    pub tree_file_len: u32,
    /// Nominal bytes of the file `session_setup` reads.
    pub session_file_len: u32,
    /// Blocks of each of the two `stack_mixed` files (2048 = 16 MiB).
    pub stack_blocks: u32,
    /// `stack_mixed` block-cache capacity in blocks (1024 = 8 MiB).
    pub stack_cache_blocks: usize,
    /// `stack_mixed` writes between syncs. A sync stalls whatever is in
    /// flight (7 operations); syncs are spaced so those stay under
    /// 0.5 % of all operations, clear of the 99th percentile. At 0.8 %
    /// the percentile sat on the knee between ordinary latency and
    /// stall and flipped from run to run.
    pub stack_sync_every: u32,
    /// Blocks of the `repl_mixed` file.
    pub repl_blocks: u32,
    /// `repl_mixed` writes between syncs (spaced as for `stack_mixed`).
    pub repl_sync_every: u32,
    /// Operations of the DisCFS-over-CFS-NE comparison.
    pub paper_ops: usize,
    /// Operations replayed on a bare `Ffs`.
    pub replay_ops: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            seq_blocks: 4096,
            tree_dirs: 16,
            tree_files: 24,
            tree_file_len: 2048,
            session_file_len: 4096,
            stack_blocks: 2048,
            stack_cache_blocks: 1024,
            stack_sync_every: 2048,
            repl_blocks: 2048,
            repl_sync_every: 512,
            paper_ops: 2000,
            replay_ops: 4000,
        }
    }

    /// Small sizes with the same shape (cache smaller than the working
    /// set, more handles than policy-cache entries is not preserved).
    pub fn tiny() -> Scale {
        Scale {
            seq_blocks: 24,
            tree_dirs: 2,
            tree_files: 3,
            tree_file_len: 2048,
            session_file_len: 4096,
            stack_blocks: 24,
            stack_cache_blocks: 16,
            stack_sync_every: 8,
            repl_blocks: 24,
            repl_sync_every: 8,
            paper_ops: 40,
            replay_ops: 40,
        }
    }
}

/// How far a small file's size may lie from its nominal size.
pub const SMALL_FILE_JITTER: u32 = 256;

/// One file a workload needs before it starts.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Index into [`Layout::dirs`], or `None` for the export root.
    pub dir: Option<u32>,
    /// File name.
    pub name: String,
    /// Bytes, filled with the version-0 pattern.
    pub len: u32,
}

/// The directory tree a workload needs before it starts.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Directories directly under the export root.
    pub dirs: Vec<String>,
    /// Files, in creation order.
    pub files: Vec<FileSpec>,
}

impl Layout {
    /// The layout of `kind` for `seed`. Names carry seed-derived
    /// suffixes of fixed length, so the tree's shape does not depend on
    /// the seed while its names do; small files are their nominal size
    /// give or take [`SMALL_FILE_JITTER`] bytes, so message sizes, and
    /// with them the modelled time, are the seed's too.
    pub fn for_workload(kind: WorkloadKind, scale: &Scale, seed: u64) -> Layout {
        let mut rng = Rng::new(seed, 100);
        let mut sizes = Rng::new(seed, 101);
        let mut small = |nominal: u32| {
            nominal - SMALL_FILE_JITTER + sizes.below(2 * SMALL_FILE_JITTER as u64 + 1) as u32
        };
        let mut name = |stem: &str| format!("{stem}-{:08x}", rng.next_u64() as u32);
        let root_file = |name: String, len: u32| FileSpec {
            dir: None,
            name,
            len,
        };
        let mut layout = Layout::default();
        match kind {
            WorkloadKind::SeqRead => layout
                .files
                .push(root_file(name("seq"), scale.seq_blocks * BLOCK)),
            WorkloadKind::SeqWrite => layout.files.push(root_file(name("out"), 0)),
            WorkloadKind::MetaWalk => {
                for d in 0..scale.tree_dirs {
                    layout.dirs.push(name(&format!("d{d:02}")));
                    for f in 0..scale.tree_files {
                        layout.files.push(FileSpec {
                            dir: Some(d),
                            name: name(&format!("f{f:02}")),
                            len: small(scale.tree_file_len),
                        });
                    }
                }
            }
            WorkloadKind::SessionSetup => layout
                .files
                .push(root_file(name("shared"), small(scale.session_file_len))),
            WorkloadKind::StackMixed => {
                layout
                    .files
                    .push(root_file(name("a"), scale.stack_blocks * BLOCK));
                layout
                    .files
                    .push(root_file(name("b"), scale.stack_blocks * BLOCK));
            }
            WorkloadKind::ReplMixed => layout
                .files
                .push(root_file(name("r"), scale.repl_blocks * BLOCK)),
        }
        layout
    }

    /// Blocks of file `file` (a short file counts as one).
    pub fn blocks_of(&self, file: u32) -> u32 {
        self.files[file as usize].len.div_ceil(BLOCK)
    }

    /// Names the generator put in directory `dir`, sorted.
    pub fn names_in(&self, dir: u32) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .files
            .iter()
            .filter(|f| f.dir == Some(dir))
            .map(|f| f.name.as_str())
            .collect();
        names.sort_unstable();
        names
    }
}

/// One client-visible operation. `version` is what the generator knows
/// the block holds (READ) or will hold (WRITE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// READ `len` bytes at the start of `block`.
    Read {
        /// File index.
        file: u32,
        /// Block index.
        block: u32,
        /// Bytes.
        len: u32,
        /// Expected content version.
        version: u32,
    },
    /// WRITE `len` bytes at the start of `block`.
    Write {
        /// File index.
        file: u32,
        /// Block index.
        block: u32,
        /// Bytes (a whole block, except when filling a short file).
        len: u32,
        /// Content version written.
        version: u32,
    },
    /// SETATTR size 0.
    Truncate {
        /// File index.
        file: u32,
    },
    /// LOOKUP the file's name in its directory.
    Lookup {
        /// File index.
        file: u32,
    },
    /// READDIR a whole directory.
    Readdir {
        /// Directory index.
        dir: u32,
    },
    /// Sync the server volume. Not an RPC (NFSv2 has no COMMIT): the
    /// load thread calls the server directly, and it is not counted as
    /// an operation.
    Sync,
}

impl Op {
    /// Whether the operation changes the volume.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. } | Op::Truncate { .. })
    }
}

/// An operation and whether it closes a cycle: a unit of work whose
/// virtual-time cost repeats, over which `virtual_us_per_op` is taken.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The operation.
    pub op: Op,
    /// True on the last operation of a cycle.
    pub ends_cycle: bool,
}

/// An endless, seeded sequence of operations.
pub trait OpStream: Send {
    /// The next operation.
    fn next_step(&mut self) -> Step;
}

/// Sequential reads of file `file`, wrapping at its end.
pub struct SeqReadStream {
    file: u32,
    blocks: u32,
    pos: u32,
    /// Whether a pass over the file is a cycle (false for a connection
    /// that is not the cycle owner).
    marks: bool,
}

impl SeqReadStream {
    /// Reads `blocks` blocks of `file` in order, forever.
    pub fn new(file: u32, blocks: u32, marks: bool) -> SeqReadStream {
        SeqReadStream {
            file,
            blocks,
            pos: 0,
            marks,
        }
    }
}

impl OpStream for SeqReadStream {
    fn next_step(&mut self) -> Step {
        let block = self.pos;
        self.pos = (self.pos + 1) % self.blocks;
        Step {
            op: Op::Read {
                file: self.file,
                block,
                len: BLOCK,
                version: 0,
            },
            ends_cycle: self.marks && self.pos == 0,
        }
    }
}

/// Truncate, then extend file 0 block by block; each pass writes a new
/// version.
pub struct SeqWriteStream {
    blocks: u32,
    /// `None` before the pass's truncate, then the next block.
    pos: Option<u32>,
    version: u32,
}

impl SeqWriteStream {
    /// Passes of `blocks` writes each.
    pub fn new(blocks: u32) -> SeqWriteStream {
        SeqWriteStream {
            blocks,
            pos: None,
            version: 1,
        }
    }

    /// `(blocks written in the current pass, their version)`: what the
    /// file must hold once every issued operation has completed.
    pub fn expected(&self) -> (u32, u32) {
        (self.pos.unwrap_or(self.blocks), self.current_version())
    }

    fn current_version(&self) -> u32 {
        match self.pos {
            // Between passes the file still holds the finished pass.
            None => self.version - 1,
            Some(_) => self.version,
        }
    }
}

impl OpStream for SeqWriteStream {
    fn next_step(&mut self) -> Step {
        let Some(block) = self.pos else {
            self.pos = Some(0);
            return Step {
                op: Op::Truncate { file: 0 },
                ends_cycle: false,
            };
        };
        let op = Op::Write {
            file: 0,
            block,
            len: BLOCK,
            version: self.version,
        };
        let last = block + 1 == self.blocks;
        if last {
            self.pos = None;
            self.version += 1;
        } else {
            self.pos = Some(block + 1);
        }
        Step {
            op,
            ends_cycle: last,
        }
    }
}

/// The Figure 12 walk: READDIR each directory, then LOOKUP and READ
/// every file in it, forever.
pub struct WalkStream {
    cycle: Vec<Op>,
    pos: usize,
}

impl WalkStream {
    /// The walk over `layout`.
    pub fn new(layout: &Layout) -> WalkStream {
        let mut cycle = Vec::new();
        for dir in 0..layout.dirs.len() as u32 {
            cycle.push(Op::Readdir { dir });
            for (file, spec) in layout.files.iter().enumerate() {
                if spec.dir == Some(dir) {
                    let file = file as u32;
                    cycle.push(Op::Lookup { file });
                    cycle.push(Op::Read {
                        file,
                        block: 0,
                        len: spec.len,
                        version: 0,
                    });
                }
            }
        }
        WalkStream { cycle, pos: 0 }
    }

    /// Operations per walk.
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }
}

impl OpStream for WalkStream {
    fn next_step(&mut self) -> Step {
        let op = self.cycle[self.pos];
        self.pos = (self.pos + 1) % self.cycle.len();
        Step {
            op,
            ends_cycle: self.pos == 0,
        }
    }
}

/// Random whole-block reads and writes of one file, with a sync every
/// `sync_every` writes. The stream keeps the shadow copy: the version
/// every block holds once all issued operations have completed. A
/// cycle runs from one sync to the next, so every cycle holds the same
/// numbers of reads, writes and syncs.
pub struct RandomStream {
    file: u32,
    rng: Rng,
    shadow: Vec<u32>,
    /// Reads in every ten operations (0 = writes only).
    reads_per_ten: u32,
    group: Vec<bool>,
    sync_every: u32,
    writes_since_sync: u32,
}

impl RandomStream {
    /// Operations on `blocks` blocks of `file`; exactly `reads_per_ten`
    /// of every ten are reads, in seeded order, so the mix does not
    /// vary with the seed.
    pub fn new(
        file: u32,
        blocks: u32,
        reads_per_ten: u32,
        sync_every: u32,
        rng: Rng,
    ) -> RandomStream {
        RandomStream {
            file,
            rng,
            shadow: vec![0; blocks as usize],
            reads_per_ten,
            group: Vec::new(),
            sync_every,
            writes_since_sync: 0,
        }
    }

    /// The version each block must hold at the end.
    pub fn shadow(&self) -> &[u32] {
        &self.shadow
    }
}

impl OpStream for RandomStream {
    fn next_step(&mut self) -> Step {
        if self.writes_since_sync == self.sync_every {
            self.writes_since_sync = 0;
            return Step {
                op: Op::Sync,
                ends_cycle: true,
            };
        }
        if self.group.is_empty() {
            self.group = (0..10).map(|i| i < self.reads_per_ten).collect();
            self.rng.shuffle(&mut self.group);
        }
        let is_read = self.group.pop().expect("group refilled above");
        let block = self.rng.below(self.shadow.len() as u64) as u32;
        let slot = &mut self.shadow[block as usize];
        let op = if is_read {
            Op::Read {
                file: self.file,
                block,
                len: BLOCK,
                version: *slot,
            }
        } else {
            *slot += 1;
            self.writes_since_sync += 1;
            Op::Write {
                file: self.file,
                block,
                len: BLOCK,
                version: *slot,
            }
        };
        Step {
            op,
            ends_cycle: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_well_formed() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
            assert!(kind
                .name()
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }

    #[test]
    fn layouts_keep_their_shape_across_seeds() {
        let scale = Scale::full();
        let a = Layout::for_workload(WorkloadKind::MetaWalk, &scale, 1);
        let b = Layout::for_workload(WorkloadKind::MetaWalk, &scale, 2);
        let again = Layout::for_workload(WorkloadKind::MetaWalk, &scale, 1);
        assert_eq!(a.files.len(), 16 * 24);
        assert_eq!(a.dirs, again.dirs);
        assert_ne!(a.dirs, b.dirs);
        assert!(a
            .files
            .iter()
            .zip(&b.files)
            .all(|(x, y)| x.dir == y.dir && x.name.len() == y.name.len()));
        assert!(a
            .files
            .iter()
            .all(|f| f.len.abs_diff(2048) <= SMALL_FILE_JITTER));
        assert!(a.files.iter().zip(&b.files).any(|(x, y)| x.len != y.len));
        assert!(a
            .files
            .iter()
            .zip(&again.files)
            .all(|(x, y)| x.len == y.len));
        assert_eq!(a.names_in(3).len(), 24);
        let seq = Layout::for_workload(WorkloadKind::SeqRead, &scale, 1);
        assert_eq!(seq.blocks_of(0), 4096);
    }

    #[test]
    fn walk_visits_every_file_once_per_cycle() {
        let layout = Layout::for_workload(WorkloadKind::MetaWalk, &Scale::full(), 7);
        let mut walk = WalkStream::new(&layout);
        assert_eq!(walk.cycle_len(), 16 + 2 * 16 * 24);
        let steps: Vec<Step> = (0..walk.cycle_len()).map(|_| walk.next_step()).collect();
        assert!(steps.last().unwrap().ends_cycle);
        assert_eq!(steps.iter().filter(|s| s.ends_cycle).count(), 1);
        let reads = steps
            .iter()
            .filter(|s| matches!(s.op, Op::Read { .. }))
            .count();
        assert_eq!(reads, 16 * 24);
        assert_eq!(walk.next_step().op, Op::Readdir { dir: 0 });
    }

    #[test]
    fn seq_write_passes_truncate_then_extend() {
        let mut s = SeqWriteStream::new(3);
        assert_eq!(s.expected(), (3, 0));
        assert_eq!(s.next_step().op, Op::Truncate { file: 0 });
        assert_eq!(s.expected(), (0, 1));
        for block in 0..3 {
            let step = s.next_step();
            assert_eq!(
                step.op,
                Op::Write {
                    file: 0,
                    block,
                    len: BLOCK,
                    version: 1
                }
            );
            assert_eq!(step.ends_cycle, block == 2);
        }
        assert_eq!(s.expected(), (3, 1));
        assert_eq!(s.next_step().op, Op::Truncate { file: 0 });
        assert!(matches!(s.next_step().op, Op::Write { version: 2, .. }));
        assert_eq!(s.expected(), (1, 2));
    }

    #[test]
    fn random_stream_keeps_its_mix_exact_and_its_shadow_true() {
        let mut s = RandomStream::new(0, 16, 7, 4, Rng::new(5, 0));
        let mut shadow = [0u32; 16];
        let (mut reads, mut writes, mut syncs) = (0, 0, 0);
        for _ in 0..1000 {
            match s.next_step().op {
                Op::Read { block, version, .. } => {
                    assert_eq!(version, shadow[block as usize]);
                    reads += 1;
                }
                Op::Write { block, version, .. } => {
                    shadow[block as usize] += 1;
                    assert_eq!(version, shadow[block as usize]);
                    writes += 1;
                }
                Op::Sync => syncs += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(s.shadow(), &shadow[..]);
        assert_eq!(syncs, writes / 4);
        let mix = reads as f64 / (reads + writes) as f64;
        assert!((mix - 0.7).abs() < 0.01, "{mix}");
        // Same seed, same stream.
        let mut a = RandomStream::new(0, 16, 7, 4, Rng::new(5, 0));
        let mut b = RandomStream::new(0, 16, 7, 4, Rng::new(5, 0));
        assert!((0..100).all(|_| a.next_step().op == b.next_step().op));
    }
}
