//! NFSv2 wire protocol definitions (RFC 1094) plus the MOUNT protocol.

use ffs::FileKind;
use onc_rpc::{Decoder, Encoder, XdrError};

/// The NFS program number.
pub const NFS_PROGRAM: u32 = 100003;
/// NFS protocol version implemented here.
pub const NFS_VERSION: u32 = 2;
/// The MOUNT program number.
pub(crate) const MOUNT_PROGRAM: u32 = 100005;
/// MOUNT protocol version.
pub(crate) const MOUNT_VERSION: u32 = 1;

/// NFSv2 procedure numbers.
#[allow(missing_docs)]
pub mod proc_nfs {
    pub(crate) const NULL: u32 = 0;
    pub const GETATTR: u32 = 1;
    pub const SETATTR: u32 = 2;
    pub(crate) const ROOT: u32 = 3;
    pub const LOOKUP: u32 = 4;
    pub(crate) const READLINK: u32 = 5;
    pub const READ: u32 = 6;
    pub(crate) const WRITECACHE: u32 = 7;
    pub const WRITE: u32 = 8;
    pub(crate) const CREATE: u32 = 9;
    pub(crate) const REMOVE: u32 = 10;
    pub(crate) const RENAME: u32 = 11;
    pub(crate) const LINK: u32 = 12;
    pub(crate) const SYMLINK: u32 = 13;
    pub(crate) const MKDIR: u32 = 14;
    pub(crate) const RMDIR: u32 = 15;
    pub const READDIR: u32 = 16;
    pub(crate) const STATFS: u32 = 17;
}

/// MOUNT procedure numbers.
#[allow(missing_docs)]
pub(crate) mod proc_mount {
    pub(crate) const NULL: u32 = 0;
    pub(crate) const MNT: u32 = 1;
    pub(crate) const UMNT: u32 = 3;
}

/// Maximum data per READ/WRITE call (NFSv2 limit).
pub(crate) const MAX_DATA: usize = 8192;

/// NFSv2 status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum NfsStat {
    Ok = 0,
    Perm = 1,
    NoEnt = 2,
    Io = 5,
    Acces = 13,
    Exist = 17,
    NotDir = 20,
    IsDir = 21,
    FBig = 27,
    NoSpc = 28,
    RoFs = 30,
    NameTooLong = 63,
    NotEmpty = 66,
    DQuot = 69,
    Stale = 70,
}

impl NfsStat {
    /// Decodes from the wire value.
    pub fn from_u32(v: u32) -> Result<NfsStat, XdrError> {
        Ok(match v {
            0 => NfsStat::Ok,
            1 => NfsStat::Perm,
            2 => NfsStat::NoEnt,
            5 => NfsStat::Io,
            13 => NfsStat::Acces,
            17 => NfsStat::Exist,
            20 => NfsStat::NotDir,
            21 => NfsStat::IsDir,
            27 => NfsStat::FBig,
            28 => NfsStat::NoSpc,
            30 => NfsStat::RoFs,
            63 => NfsStat::NameTooLong,
            66 => NfsStat::NotEmpty,
            69 => NfsStat::DQuot,
            70 => NfsStat::Stale,
            _ => return Err(XdrError::BadValue),
        })
    }
}

impl From<ffs::FsError> for NfsStat {
    fn from(e: ffs::FsError) -> NfsStat {
        match e {
            ffs::FsError::NoEnt => NfsStat::NoEnt,
            ffs::FsError::Exists => NfsStat::Exist,
            ffs::FsError::NotDir => NfsStat::NotDir,
            ffs::FsError::IsDir => NfsStat::IsDir,
            ffs::FsError::NotEmpty => NfsStat::NotEmpty,
            ffs::FsError::NoSpace => NfsStat::NoSpc,
            ffs::FsError::BadName => NfsStat::NameTooLong,
            ffs::FsError::Stale => NfsStat::Stale,
            ffs::FsError::BadInode => NfsStat::Stale,
            ffs::FsError::TooBig => NfsStat::FBig,
            ffs::FsError::BadType => NfsStat::Io,
            ffs::FsError::InvalidMove => NfsStat::Acces,
        }
    }
}

impl std::fmt::Display for NfsStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A handle as credentials name it; see [`FHandle::credential_string`].
struct CredentialName {
    ino: u32,
    generation: u32,
}

impl std::fmt::Display for CredentialName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.ino, self.generation)
    }
}

/// The opaque 32-byte NFSv2 file handle.
///
/// Layout: `fsid (4) ‖ inode (4) ‖ generation (4) ‖ zeros`. The paper's
/// prototype used bare inode numbers and notes that *"a possible
/// solution would be to build a handle from the inode number and a
/// generation number, similar to the 4.4 BSD NFS implementation"* —
/// which is exactly what we do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FHandle(pub [u8; 32]);

impl FHandle {
    /// Builds a handle from volume id, inode and generation.
    pub fn pack(fsid: u32, ino: u32, generation: u32) -> FHandle {
        let mut h = [0u8; 32];
        h[0..4].copy_from_slice(&fsid.to_be_bytes());
        h[4..8].copy_from_slice(&ino.to_be_bytes());
        h[8..12].copy_from_slice(&generation.to_be_bytes());
        FHandle(h)
    }

    /// Splits a handle into `(fsid, ino, generation)`.
    pub fn unpack(&self) -> (u32, u32, u32) {
        let fsid = u32::from_be_bytes(self.0[0..4].try_into().expect("4 bytes"));
        let ino = u32::from_be_bytes(self.0[4..8].try_into().expect("4 bytes"));
        let generation = u32::from_be_bytes(self.0[8..12].try_into().expect("4 bytes"));
        (fsid, ino, generation)
    }

    /// The handle string used inside DisCFS credentials (`HANDLE ==
    /// "..."` conditions). The paper used the bare inode number; we use
    /// `ino.generation` so recycled inodes never inherit credentials.
    pub fn credential_string(&self) -> String {
        self.credential_name().to_string()
    }

    /// [`Self::credential_string`] as a `Display` value, for callers
    /// that write it into a buffer of their own.
    pub fn credential_name(&self) -> impl std::fmt::Display {
        let (_, ino, generation) = self.unpack();
        CredentialName { ino, generation }
    }

    fn encode(&self, e: &mut Encoder) {
        e.put_opaque_fixed(&self.0);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<FHandle, XdrError> {
        let bytes = d.get_opaque_fixed(32)?;
        Ok(FHandle(bytes.try_into().expect("32 bytes")))
    }
}

/// NFSv2 file types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FType {
    Regular = 1,
    Directory = 2,
    Symlink = 5,
}

impl From<FileKind> for FType {
    fn from(k: FileKind) -> FType {
        match k {
            FileKind::Regular => FType::Regular,
            FileKind::Directory => FType::Directory,
            FileKind::Symlink => FType::Symlink,
        }
    }
}

/// An NFSv2 timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeVal {
    /// Seconds.
    pub(crate) secs: u32,
    /// Microseconds.
    pub(crate) usecs: u32,
}

/// NFSv2 file attributes (`fattr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fattr {
    /// File type.
    pub ftype: FType,
    /// Full mode word (type bits + permissions).
    pub mode: u32,
    /// Link count.
    pub nlink: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Size in bytes.
    pub size: u32,
    /// Preferred block size.
    pub blocksize: u32,
    /// Device number (unused: 0).
    pub rdev: u32,
    /// Blocks used.
    pub blocks: u32,
    /// Filesystem id.
    pub fsid: u32,
    /// Inode number.
    pub fileid: u32,
    /// Last access.
    pub atime: TimeVal,
    /// Last modification.
    pub mtime: TimeVal,
    /// Last status change.
    pub ctime: TimeVal,
}

impl Fattr {
    /// Builds NFS attributes from filesystem attributes.
    pub(crate) fn from_attr(fsid: u32, attr: &ffs::Attr) -> Fattr {
        Fattr {
            ftype: attr.kind.into(),
            mode: attr.kind.mode_bits() | attr.mode,
            nlink: attr.nlink,
            uid: attr.uid,
            gid: attr.gid,
            size: attr.size.min(u32::MAX as u64) as u32,
            blocksize: ffs::BLOCK_SIZE as u32,
            rdev: 0,
            blocks: (attr.size.div_ceil(ffs::BLOCK_SIZE as u64)) as u32,
            fsid,
            fileid: attr.ino,
            atime: TimeVal {
                secs: attr.atime as u32,
                usecs: 0,
            },
            mtime: TimeVal {
                secs: attr.mtime as u32,
                usecs: 0,
            },
            ctime: TimeVal {
                secs: attr.ctime as u32,
                usecs: 0,
            },
        }
    }

    /// Encodes the attribute block.
    pub fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.ftype as u32);
        e.put_u32(self.mode);
        e.put_u32(self.nlink);
        e.put_u32(self.uid);
        e.put_u32(self.gid);
        e.put_u32(self.size);
        e.put_u32(self.blocksize);
        e.put_u32(self.rdev);
        e.put_u32(self.blocks);
        e.put_u32(self.fsid);
        e.put_u32(self.fileid);
        e.put_u32(self.atime.secs);
        e.put_u32(self.atime.usecs);
        e.put_u32(self.mtime.secs);
        e.put_u32(self.mtime.usecs);
        e.put_u32(self.ctime.secs);
        e.put_u32(self.ctime.usecs);
    }

    /// Decodes an attribute block.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Fattr, XdrError> {
        let ftype = match d.get_u32()? {
            1 => FType::Regular,
            2 => FType::Directory,
            5 => FType::Symlink,
            _ => return Err(XdrError::BadValue),
        };
        Ok(Fattr {
            ftype,
            mode: d.get_u32()?,
            nlink: d.get_u32()?,
            uid: d.get_u32()?,
            gid: d.get_u32()?,
            size: d.get_u32()?,
            blocksize: d.get_u32()?,
            rdev: d.get_u32()?,
            blocks: d.get_u32()?,
            fsid: d.get_u32()?,
            fileid: d.get_u32()?,
            atime: TimeVal {
                secs: d.get_u32()?,
                usecs: d.get_u32()?,
            },
            mtime: TimeVal {
                secs: d.get_u32()?,
                usecs: d.get_u32()?,
            },
            ctime: TimeVal {
                secs: d.get_u32()?,
                usecs: d.get_u32()?,
            },
        })
    }
}

/// Settable attributes (`sattr`): `u32::MAX` means "do not set".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sattr {
    /// Permission bits or `u32::MAX`.
    pub mode: u32,
    /// Uid or `u32::MAX`.
    pub uid: u32,
    /// Gid or `u32::MAX`.
    pub gid: u32,
    /// Size or `u32::MAX`.
    pub size: u32,
    /// Atime or `{u32::MAX, u32::MAX}`.
    pub atime: TimeVal,
    /// Mtime or `{u32::MAX, u32::MAX}`.
    pub mtime: TimeVal,
}

impl Sattr {
    /// An sattr that changes nothing.
    pub fn unchanged() -> Sattr {
        Sattr {
            mode: u32::MAX,
            uid: u32::MAX,
            gid: u32::MAX,
            size: u32::MAX,
            atime: TimeVal {
                secs: u32::MAX,
                usecs: u32::MAX,
            },
            mtime: TimeVal {
                secs: u32::MAX,
                usecs: u32::MAX,
            },
        }
    }

    /// An sattr setting only the mode (used at CREATE/MKDIR).
    pub fn with_mode(mode: u32) -> Sattr {
        Sattr {
            mode,
            ..Sattr::unchanged()
        }
    }

    /// Converts to the filesystem's update type.
    pub(crate) fn to_setattr(self) -> ffs::SetAttr {
        let opt = |v: u32| if v == u32::MAX { None } else { Some(v) };
        ffs::SetAttr {
            mode: opt(self.mode),
            uid: opt(self.uid),
            gid: opt(self.gid),
            size: opt(self.size).map(|s| s as u64),
            atime: opt(self.atime.secs).map(|s| s as u64),
            mtime: opt(self.mtime.secs).map(|s| s as u64),
        }
    }

    /// Encodes the sattr block.
    pub fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.mode);
        e.put_u32(self.uid);
        e.put_u32(self.gid);
        e.put_u32(self.size);
        e.put_u32(self.atime.secs);
        e.put_u32(self.atime.usecs);
        e.put_u32(self.mtime.secs);
        e.put_u32(self.mtime.usecs);
    }

    /// Decodes an sattr block.
    pub(crate) fn decode(d: &mut Decoder<'_>) -> Result<Sattr, XdrError> {
        Ok(Sattr {
            mode: d.get_u32()?,
            uid: d.get_u32()?,
            gid: d.get_u32()?,
            size: d.get_u32()?,
            atime: TimeVal {
                secs: d.get_u32()?,
                usecs: d.get_u32()?,
            },
            mtime: TimeVal {
                secs: d.get_u32()?,
                usecs: d.get_u32()?,
            },
        })
    }
}

/// `diropargs`: a directory handle and a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirOpArgs {
    /// The directory.
    pub dir: FHandle,
    /// The entry name.
    pub name: String,
}

impl DirOpArgs {
    /// Encodes the pair.
    pub fn encode(&self, e: &mut Encoder) {
        self.dir.encode(e);
        e.put_string(&self.name);
    }

    /// Decodes the pair.
    pub fn decode(d: &mut Decoder<'_>) -> Result<DirOpArgs, XdrError> {
        Ok(DirOpArgs {
            dir: FHandle::decode(d)?,
            name: d.get_string()?,
        })
    }
}

/// One READDIR entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReaddirEntry {
    /// Inode number.
    pub fileid: u32,
    /// Entry name.
    pub name: String,
    /// Opaque continuation cookie.
    pub(crate) cookie: u32,
}

/// Result of STATFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatfsRes {
    /// Optimal transfer size.
    pub(crate) tsize: u32,
    /// Block size.
    pub(crate) bsize: u32,
    /// Total blocks.
    pub blocks: u32,
    /// Free blocks.
    pub(crate) bfree: u32,
    /// Blocks available to non-privileged users.
    pub(crate) bavail: u32,
}

impl StatfsRes {
    /// Encodes the info block.
    pub(crate) fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.tsize);
        e.put_u32(self.bsize);
        e.put_u32(self.blocks);
        e.put_u32(self.bfree);
        e.put_u32(self.bavail);
    }

    /// Decodes the info block.
    #[cfg(test)]
    pub(crate) fn decode(d: &mut Decoder<'_>) -> Result<StatfsRes, XdrError> {
        Ok(StatfsRes {
            tsize: d.get_u32()?,
            bsize: d.get_u32()?,
            blocks: d.get_u32()?,
            bfree: d.get_u32()?,
            bavail: d.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fhandle_pack_unpack() {
        let h = FHandle::pack(7, 666240, 3);
        assert_eq!(h.unpack(), (7, 666240, 3));
        assert_eq!(h.credential_string(), "666240.3");
    }

    #[test]
    fn fattr_round_trip() {
        let attr = Fattr {
            ftype: FType::Regular,
            mode: 0o100644,
            nlink: 2,
            uid: 10,
            gid: 20,
            size: 12345,
            blocksize: 8192,
            rdev: 0,
            blocks: 2,
            fsid: 1,
            fileid: 42,
            atime: TimeVal { secs: 1, usecs: 2 },
            mtime: TimeVal { secs: 3, usecs: 4 },
            ctime: TimeVal { secs: 5, usecs: 6 },
        };
        let mut e = Encoder::new();
        attr.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(Fattr::decode(&mut d).unwrap(), attr);
        assert!(d.is_exhausted());
    }

    #[test]
    fn sattr_round_trip_and_conversion() {
        let s = Sattr::with_mode(0o600);
        let mut e = Encoder::new();
        s.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(Sattr::decode(&mut d).unwrap(), s);

        let set = s.to_setattr();
        assert_eq!(set.mode, Some(0o600));
        assert_eq!(set.uid, None);
        assert_eq!(set.size, None);
    }

    #[test]
    fn diropargs_round_trip() {
        let args = DirOpArgs {
            dir: FHandle::pack(1, 2, 3),
            name: "paper.tex".into(),
        };
        let mut e = Encoder::new();
        args.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(DirOpArgs::decode(&mut d).unwrap(), args);
    }

    #[test]
    fn nfsstat_values_match_rfc() {
        assert_eq!(NfsStat::from_u32(70).unwrap(), NfsStat::Stale);
        assert_eq!(NfsStat::from_u32(13).unwrap(), NfsStat::Acces);
        assert!(NfsStat::from_u32(999).is_err());
    }

    #[test]
    fn fs_error_mapping() {
        assert_eq!(NfsStat::from(ffs::FsError::NoEnt), NfsStat::NoEnt);
        assert_eq!(NfsStat::from(ffs::FsError::Stale), NfsStat::Stale);
        assert_eq!(NfsStat::from(ffs::FsError::NotEmpty), NfsStat::NotEmpty);
    }
}
