//! On-disk inode format.
//!
//! Inodes are 256 bytes, 32 per 8 KB block. Geometry: 12 direct block
//! pointers, one single-indirect and one double-indirect pointer; with
//! 8 KB blocks and 4-byte pointers that allows files up to
//! 12·8K + 2048·8K + 2048²·8K ≈ 32 GB — far beyond anything the
//! benchmarks need. Pointer value 0 means "hole" (block 0 holds the
//! superblock and can never be file data).

use store::BLOCK_SIZE;

/// Size of one serialized inode.
pub(crate) const INODE_SIZE: usize = 256;
/// Inodes per filesystem block.
pub(crate) const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;
/// Number of direct block pointers.
pub(crate) const NDIRECT: usize = 12;
/// Pointers per indirect block.
pub(crate) const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 4;

/// File type, stored in the high bits of `mode` like Unix `S_IFMT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

impl FileKind {
    /// The `S_IFMT` bits for this kind.
    pub fn mode_bits(self) -> u32 {
        match self {
            FileKind::Regular => 0o100000,
            FileKind::Directory => 0o040000,
            FileKind::Symlink => 0o120000,
        }
    }

    /// Extracts the kind from a full mode word.
    pub(crate) fn from_mode(mode: u32) -> Option<FileKind> {
        match mode & 0o170000 {
            0o100000 => Some(FileKind::Regular),
            0o040000 => Some(FileKind::Directory),
            0o120000 => Some(FileKind::Symlink),
            _ => None,
        }
    }
}

/// An in-memory inode image (serialized to 256 bytes on disk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Inode {
    /// Type + permission bits.
    pub mode: u32,
    /// Owner user id.
    pub uid: u32,
    /// Owner group id.
    pub gid: u32,
    /// Link count.
    pub nlink: u32,
    /// File size in bytes.
    pub size: u64,
    /// Access time (filesystem ticks).
    pub atime: u64,
    /// Modification time (filesystem ticks).
    pub mtime: u64,
    /// Change time (filesystem ticks).
    pub ctime: u64,
    /// Generation number: increments each time the inode is reused, so
    /// stale NFS handles can be detected (the fix the paper's §5 calls
    /// for).
    pub generation: u32,
    /// Direct block pointers.
    pub(crate) direct: [u32; NDIRECT],
    /// Single-indirect block pointer.
    pub(crate) indirect: u32,
    /// Double-indirect block pointer.
    pub(crate) double_indirect: u32,
}

impl Inode {
    /// An empty (freed) inode with a retained generation number.
    pub(crate) fn empty(generation: u32) -> Inode {
        Inode {
            mode: 0,
            uid: 0,
            gid: 0,
            nlink: 0,
            size: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            generation,
            direct: [0; NDIRECT],
            indirect: 0,
            double_indirect: 0,
        }
    }

    /// Whether the inode is allocated (mode 0 means free).
    pub(crate) fn is_allocated(&self) -> bool {
        self.mode != 0
    }

    /// The file kind.
    ///
    /// # Panics
    ///
    /// Panics on a free inode; callers check allocation first.
    pub(crate) fn kind(&self) -> FileKind {
        FileKind::from_mode(self.mode).expect("allocated inode has a valid kind")
    }

    /// Serializes to the on-disk form.
    pub(crate) fn to_bytes(&self) -> [u8; INODE_SIZE] {
        let mut out = [0u8; INODE_SIZE];
        out[0..4].copy_from_slice(&self.mode.to_be_bytes());
        out[4..8].copy_from_slice(&self.uid.to_be_bytes());
        out[8..12].copy_from_slice(&self.gid.to_be_bytes());
        out[12..16].copy_from_slice(&self.nlink.to_be_bytes());
        out[16..24].copy_from_slice(&self.size.to_be_bytes());
        out[24..32].copy_from_slice(&self.atime.to_be_bytes());
        out[32..40].copy_from_slice(&self.mtime.to_be_bytes());
        out[40..48].copy_from_slice(&self.ctime.to_be_bytes());
        out[48..52].copy_from_slice(&self.generation.to_be_bytes());
        for (i, ptr) in self.direct.iter().enumerate() {
            out[52 + i * 4..56 + i * 4].copy_from_slice(&ptr.to_be_bytes());
        }
        out[100..104].copy_from_slice(&self.indirect.to_be_bytes());
        out[104..108].copy_from_slice(&self.double_indirect.to_be_bytes());
        out
    }

    /// Deserializes from the on-disk form.
    pub(crate) fn from_bytes(data: &[u8]) -> Inode {
        assert!(data.len() >= INODE_SIZE, "short inode record");
        let u32_at =
            |off: usize| u32::from_be_bytes(data[off..off + 4].try_into().expect("4 bytes"));
        let u64_at =
            |off: usize| u64::from_be_bytes(data[off..off + 8].try_into().expect("8 bytes"));
        let mut direct = [0u32; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u32_at(52 + i * 4);
        }
        Inode {
            mode: u32_at(0),
            uid: u32_at(4),
            gid: u32_at(8),
            nlink: u32_at(12),
            size: u64_at(16),
            atime: u64_at(24),
            mtime: u64_at(32),
            ctime: u64_at(40),
            generation: u32_at(48),
            direct,
            indirect: u32_at(100),
            double_indirect: u32_at(104),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut ino = Inode::empty(7);
        ino.mode = FileKind::Regular.mode_bits() | 0o644;
        ino.uid = 1000;
        ino.gid = 100;
        ino.nlink = 2;
        ino.size = 123456789;
        ino.atime = 1;
        ino.mtime = 2;
        ino.ctime = 3;
        ino.direct[0] = 42;
        ino.direct[11] = 99;
        ino.indirect = 1000;
        ino.double_indirect = 2000;
        let bytes = ino.to_bytes();
        assert_eq!(Inode::from_bytes(&bytes), ino);
    }

    #[test]
    fn kind_bits() {
        assert_eq!(FileKind::from_mode(0o100644), Some(FileKind::Regular));
        assert_eq!(FileKind::from_mode(0o040755), Some(FileKind::Directory));
        assert_eq!(FileKind::from_mode(0o120777), Some(FileKind::Symlink));
        assert_eq!(FileKind::from_mode(0o644), None);
    }

    #[test]
    fn empty_is_free() {
        assert!(!Inode::empty(3).is_allocated());
        assert_eq!(Inode::empty(3).generation, 3);
    }

    #[test]
    fn geometry_fits_block() {
        assert_eq!(INODES_PER_BLOCK * INODE_SIZE, BLOCK_SIZE);
        assert_eq!(PTRS_PER_BLOCK, 2048);
    }
}
