//! `fsck`-style consistency checking.
//!
//! [`Ffs::check`] walks the whole filesystem and verifies the structural
//! invariants. It backs the property tests: after any random sequence
//! of operations the filesystem must still check clean.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::fs::{Ffs, Ino};
use crate::inode::{FileKind, NDIRECT, PTRS_PER_BLOCK};
use store::BLOCK_SIZE;

impl Ffs {
    /// Verifies filesystem invariants, returning a list of violations.
    ///
    /// Checked invariants:
    ///
    /// 1. The root inode (1) is an allocated directory; inode 0 stays
    ///    reserved.
    /// 2. Every block referenced by an allocated inode lies in the data
    ///    area, is marked allocated, and is referenced exactly once.
    /// 3. No allocated data block is unreferenced (no leaks) and the
    ///    free counters match the bitmaps.
    /// 4. Every allocated inode is reachable from the root; directory
    ///    `.`/`..` entries are correct; entries point at allocated
    ///    inodes; no duplicate names.
    /// 5. `nlink` equals the number of directory entries referencing
    ///    the inode (counting `.` and `..`).
    /// 6. No file references blocks beyond its size.
    /// 7. Block 0 holds a valid superblock whose geometry matches the
    ///    mounted layout; when the volume is clean (no mutation since
    ///    the last sync), the durable on-disk bitmaps equal the
    ///    in-memory ones.
    ///
    /// # Errors
    ///
    /// A vector of human-readable violation descriptions.
    pub fn check(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        let (inode_bitmap, block_bitmap, free_blocks, free_inodes, dirty) = self.bitmaps();
        let data_start = self.data_start();

        // Superblock invariants.
        match crate::sb::Superblock::from_block(&self.disk.read_block_meta(0)) {
            Err(e) => problems.push(format!("superblock unreadable: {e}")),
            Ok(sb) => {
                let layout = self.layout();
                if sb.total_blocks != layout.total_blocks
                    || sb.inode_count != self.inode_count
                    || sb.ibmap_start != layout.ibmap_start
                    || sb.bbmap_start != layout.bbmap_start
                    || sb.itable_start != layout.itable_start
                    || sb.data_start != layout.data_start
                {
                    problems.push("superblock geometry disagrees with mounted layout".to_string());
                }
                if sb.clean == dirty {
                    problems.push(format!(
                        "superblock clean flag {} disagrees with in-memory dirty state {dirty}",
                        sb.clean
                    ));
                }
                if !dirty {
                    let durable_inodes =
                        self.read_bitmap_region(layout.ibmap_start, self.inode_count as u64);
                    let durable_blocks =
                        self.read_bitmap_region(layout.bbmap_start, layout.total_blocks);
                    if durable_inodes != inode_bitmap {
                        problems.push("clean volume: durable inode bitmap is stale".to_string());
                    }
                    if durable_blocks != block_bitmap {
                        problems.push("clean volume: durable block bitmap is stale".to_string());
                    }
                }
            }
        }

        if !inode_bitmap[0] {
            problems.push("inode 0 must stay reserved".to_string());
        }
        if !inode_bitmap[1] {
            problems.push("root inode not allocated".to_string());
        }

        // Pass 1: block references from every allocated inode.
        let mut block_refs: HashMap<u64, Vec<Ino>> = HashMap::new();
        let mut reference = |block: u64, ino: Ino, problems: &mut Vec<String>| {
            if block < data_start || block >= block_bitmap.len() as u64 {
                problems.push(format!("inode {ino} references out-of-range block {block}"));
                return;
            }
            if !block_bitmap[block as usize] {
                problems.push(format!("inode {ino} references free block {block}"));
            }
            block_refs.entry(block).or_default().push(ino);
        };

        let mut allocated_inodes = Vec::new();
        for ino in 1..self.inode_count {
            if !inode_bitmap[ino as usize] {
                continue;
            }
            let inode = self.read_inode(ino);
            if !inode.is_allocated() {
                problems.push(format!("inode {ino} in bitmap but record is free"));
                continue;
            }
            if FileKind::from_mode(inode.mode).is_none() {
                problems.push(format!("inode {ino} has invalid mode {:o}", inode.mode));
                continue;
            }
            allocated_inodes.push(ino);

            let max_fbn = inode.size.div_ceil(BLOCK_SIZE as u64);
            let check_fbn = |fbn: u64, ino: Ino, problems: &mut Vec<String>| {
                if fbn >= max_fbn {
                    problems.push(format!(
                        "inode {ino} has block at file offset {fbn} beyond size {}",
                        inode.size
                    ));
                }
            };

            for (slot, &ptr) in inode.direct.iter().enumerate() {
                if ptr != 0 {
                    reference(ptr as u64, ino, &mut problems);
                    check_fbn(slot as u64, ino, &mut problems);
                }
            }
            if inode.indirect != 0 {
                reference(inode.indirect as u64, ino, &mut problems);
                let table = self.read_ptr_block_for_check(inode.indirect as u64);
                for (i, &ptr) in table.iter().enumerate() {
                    if ptr != 0 {
                        reference(ptr as u64, ino, &mut problems);
                        check_fbn((NDIRECT + i) as u64, ino, &mut problems);
                    }
                }
            }
            if inode.double_indirect != 0 {
                reference(inode.double_indirect as u64, ino, &mut problems);
                let outer = self.read_ptr_block_for_check(inode.double_indirect as u64);
                for (o, &mid) in outer.iter().enumerate() {
                    if mid == 0 {
                        continue;
                    }
                    reference(mid as u64, ino, &mut problems);
                    let table = self.read_ptr_block_for_check(mid as u64);
                    for (i, &ptr) in table.iter().enumerate() {
                        if ptr != 0 {
                            reference(ptr as u64, ino, &mut problems);
                            check_fbn(
                                (NDIRECT + PTRS_PER_BLOCK + o * PTRS_PER_BLOCK + i) as u64,
                                ino,
                                &mut problems,
                            );
                        }
                    }
                }
            }
        }

        // Double references.
        for (block, owners) in &block_refs {
            if owners.len() > 1 {
                problems.push(format!(
                    "block {block} referenced {} times: {owners:?}",
                    owners.len()
                ));
            }
        }

        // Leaks and counter consistency.
        let mut allocated_data_blocks = 0u64;
        for block in data_start..block_bitmap.len() as u64 {
            let marked = block_bitmap[block as usize];
            let referenced = block_refs.contains_key(&block);
            if marked {
                allocated_data_blocks += 1;
            }
            if marked && !referenced {
                problems.push(format!("block {block} allocated but unreferenced (leak)"));
            }
        }
        let total_data = block_bitmap.len() as u64 - data_start;
        if free_blocks != total_data - allocated_data_blocks {
            problems.push(format!(
                "free block counter {free_blocks} disagrees with bitmap {}",
                total_data - allocated_data_blocks
            ));
        }
        let allocated_count = inode_bitmap.iter().skip(1).filter(|&&b| b).count() as u32;
        if free_inodes != self.inode_count - 1 - allocated_count {
            problems.push(format!(
                "free inode counter {free_inodes} disagrees with bitmap {}",
                self.inode_count - 1 - allocated_count
            ));
        }

        // Pass 2: directory tree walk from the root.
        let mut entry_refs: HashMap<Ino, u32> = HashMap::new();
        let mut reachable: HashSet<Ino> = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((1u32, 1u32)); // (dir, parent)
        reachable.insert(1);
        while let Some((dir, parent)) = queue.pop_front() {
            let entries = match self.readdir(dir) {
                Ok(e) => e,
                Err(e) => {
                    problems.push(format!("directory {dir} unreadable: {e}"));
                    continue;
                }
            };
            let mut seen_names = HashSet::new();
            let mut has_dot = false;
            let mut has_dotdot = false;
            for entry in &entries {
                if !seen_names.insert(entry.name.clone()) {
                    problems.push(format!(
                        "directory {dir} has duplicate entry {:?}",
                        entry.name
                    ));
                }
                *entry_refs.entry(entry.ino).or_insert(0) += 1;
                match entry.name.as_str() {
                    "." => {
                        has_dot = true;
                        if entry.ino != dir {
                            problems.push(format!("directory {dir} '.' points to {}", entry.ino));
                        }
                    }
                    ".." => {
                        has_dotdot = true;
                        if entry.ino != parent {
                            problems.push(format!(
                                "directory {dir} '..' points to {} (parent {parent})",
                                entry.ino
                            ));
                        }
                    }
                    _ => {
                        if entry.ino == 0
                            || entry.ino >= self.inode_count
                            || !inode_bitmap[entry.ino as usize]
                        {
                            problems.push(format!(
                                "directory {dir} entry {:?} points to bad inode {}",
                                entry.name, entry.ino
                            ));
                            continue;
                        }
                        let child = self.read_inode(entry.ino);
                        if child.kind() == FileKind::Directory {
                            if !reachable.insert(entry.ino) {
                                problems.push(format!(
                                    "directory {} linked from two parents",
                                    entry.ino
                                ));
                            } else {
                                queue.push_back((entry.ino, dir));
                            }
                        } else {
                            reachable.insert(entry.ino);
                        }
                    }
                }
            }
            if !has_dot || !has_dotdot {
                problems.push(format!("directory {dir} missing '.' or '..'"));
            }
        }

        // Orphans and link counts.
        for &ino in &allocated_inodes {
            if !reachable.contains(&ino) {
                problems.push(format!("inode {ino} allocated but unreachable from root"));
            }
            let inode = self.read_inode(ino);
            let refs = entry_refs.get(&ino).copied().unwrap_or(0);
            if inode.nlink != refs {
                problems.push(format!(
                    "inode {ino} nlink {} but {} directory references",
                    inode.nlink, refs
                ));
            }
        }

        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// Reads a pointer block without touching the timing model (checker
    /// traffic must not perturb benchmarks).
    fn read_ptr_block_for_check(&self, block: u64) -> Vec<u32> {
        let data = self.disk.read_block_meta(block);
        data.chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }
}
