//! A plain NFS export of an [`ffs::Ffs`] volume.
//!
//! This is the unmodified user-level server: no credential checks, no
//! encryption. It is the paper's CFS-NE baseline (CFS with encryption
//! off, §5), and `discfs` reuses it as the storage-access layer beneath
//! its KeyNote enforcement.

use std::sync::Arc;

use ffs::{Ffs, FsError};

use crate::proto::{DirOpArgs, FHandle, Fattr, NfsStat, ReaddirEntry, Sattr, StatfsRes, MAX_DATA};
use crate::service::{NfsService, RequestCtx};

/// NFS service over a local `Ffs` volume.
pub struct FfsService {
    fs: Arc<Ffs>,
    fsid: u32,
}

impl FfsService {
    /// Exports `fs` under filesystem id `fsid`.
    pub fn new(fs: Arc<Ffs>, fsid: u32) -> FfsService {
        FfsService { fs, fsid }
    }

    /// The exported volume.
    pub fn fs(&self) -> &Arc<Ffs> {
        &self.fs
    }

    /// The filesystem id baked into handles.
    pub fn fsid(&self) -> u32 {
        self.fsid
    }

    /// Validates a handle and returns the inode number.
    pub fn resolve_handle(&self, fh: &FHandle) -> Result<u32, NfsStat> {
        let (fsid, ino, generation) = fh.unpack();
        if fsid != self.fsid {
            return Err(NfsStat::Stale);
        }
        self.fs
            .validate_handle(ino, generation)
            .map_err(NfsStat::from)?;
        Ok(ino)
    }

    /// Builds the handle for an inode.
    pub fn handle_for(&self, ino: u32) -> Result<FHandle, NfsStat> {
        let attr = self.fs.getattr(ino).map_err(NfsStat::from)?;
        Ok(FHandle::pack(self.fsid, ino, attr.generation))
    }

    fn fattr_for(&self, ino: u32) -> Result<Fattr, NfsStat> {
        let attr = self.fs.getattr(ino).map_err(NfsStat::from)?;
        Ok(Fattr::from_attr(self.fsid, &attr))
    }
}

impl NfsService for FfsService {
    fn mount(&self, _ctx: &RequestCtx, path: &str) -> Result<FHandle, NfsStat> {
        let ino = self.fs.resolve_path(path).map_err(NfsStat::from)?;
        self.handle_for(ino)
    }

    fn getattr(&self, _ctx: &RequestCtx, fh: &FHandle) -> Result<Fattr, NfsStat> {
        let ino = self.resolve_handle(fh)?;
        self.fattr_for(ino)
    }

    fn setattr(&self, _ctx: &RequestCtx, fh: &FHandle, sattr: &Sattr) -> Result<Fattr, NfsStat> {
        let ino = self.resolve_handle(fh)?;
        self.fs
            .setattr(ino, sattr.to_setattr())
            .map_err(NfsStat::from)?;
        self.fattr_for(ino)
    }

    fn lookup(&self, _ctx: &RequestCtx, args: &DirOpArgs) -> Result<(FHandle, Fattr), NfsStat> {
        let dir = self.resolve_handle(&args.dir)?;
        let ino = self.fs.lookup(dir, &args.name).map_err(NfsStat::from)?;
        Ok((self.handle_for(ino)?, self.fattr_for(ino)?))
    }

    fn readlink(&self, _ctx: &RequestCtx, fh: &FHandle) -> Result<String, NfsStat> {
        let ino = self.resolve_handle(fh)?;
        self.fs.readlink(ino).map_err(NfsStat::from)
    }

    fn read(
        &self,
        _ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        count: u32,
    ) -> Result<(Fattr, Vec<u8>), NfsStat> {
        let ino = self.resolve_handle(fh)?;
        let data = self
            .fs
            .read(ino, offset as u64, count.min(MAX_DATA as u32) as usize)
            .map_err(NfsStat::from)?;
        Ok((self.fattr_for(ino)?, data))
    }

    fn write(
        &self,
        _ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        data: &[u8],
    ) -> Result<Fattr, NfsStat> {
        let ino = self.resolve_handle(fh)?;
        self.fs
            .write(ino, offset as u64, data)
            .map_err(NfsStat::from)?;
        self.fattr_for(ino)
    }

    fn create(
        &self,
        _ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        let dir = self.resolve_handle(&args.dir)?;
        let mode = if sattr.mode == u32::MAX {
            0o644
        } else {
            sattr.mode
        };
        let ino = self
            .fs
            .create(dir, &args.name, mode, 0, 0)
            .map_err(NfsStat::from)?;
        Ok((self.handle_for(ino)?, self.fattr_for(ino)?))
    }

    fn remove(&self, _ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        let dir = self.resolve_handle(&args.dir)?;
        self.fs.unlink(dir, &args.name).map_err(NfsStat::from)
    }

    fn rename(&self, _ctx: &RequestCtx, from: &DirOpArgs, to: &DirOpArgs) -> Result<(), NfsStat> {
        let from_dir = self.resolve_handle(&from.dir)?;
        let to_dir = self.resolve_handle(&to.dir)?;
        self.fs
            .rename(from_dir, &from.name, to_dir, &to.name)
            .map_err(NfsStat::from)
    }

    fn link(&self, _ctx: &RequestCtx, from: &FHandle, to: &DirOpArgs) -> Result<(), NfsStat> {
        let ino = self.resolve_handle(from)?;
        let to_dir = self.resolve_handle(&to.dir)?;
        self.fs.link(ino, to_dir, &to.name).map_err(NfsStat::from)
    }

    fn symlink(
        &self,
        _ctx: &RequestCtx,
        args: &DirOpArgs,
        target: &str,
        _sattr: &Sattr,
    ) -> Result<(), NfsStat> {
        let dir = self.resolve_handle(&args.dir)?;
        self.fs
            .symlink(dir, &args.name, target, 0, 0)
            .map(|_| ())
            .map_err(NfsStat::from)
    }

    fn mkdir(
        &self,
        _ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        let dir = self.resolve_handle(&args.dir)?;
        let mode = if sattr.mode == u32::MAX {
            0o755
        } else {
            sattr.mode
        };
        let ino = self
            .fs
            .mkdir(dir, &args.name, mode, 0, 0)
            .map_err(NfsStat::from)?;
        Ok((self.handle_for(ino)?, self.fattr_for(ino)?))
    }

    fn rmdir(&self, _ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        let dir = self.resolve_handle(&args.dir)?;
        self.fs.rmdir(dir, &args.name).map_err(NfsStat::from)
    }

    fn readdir(
        &self,
        _ctx: &RequestCtx,
        fh: &FHandle,
        cookie: u32,
        count: u32,
    ) -> Result<(Vec<ReaddirEntry>, bool), NfsStat> {
        let ino = self.resolve_handle(fh)?;
        let entries = self.fs.readdir(ino).map_err(NfsStat::from)?;
        let mut out = Vec::new();
        let mut bytes = 16usize; // bool terminator + eof
        let mut idx = cookie as usize;
        while idx < entries.len() {
            let entry = &entries[idx];
            // Wire size estimate: marker + fileid + string + cookie.
            let entry_bytes = 4 + 4 + 4 + entry.name.len().div_ceil(4) * 4 + 4;
            if bytes + entry_bytes > count as usize && !out.is_empty() {
                break;
            }
            bytes += entry_bytes;
            out.push(ReaddirEntry {
                fileid: entry.ino,
                name: entry.name.clone(),
                cookie: (idx + 1) as u32,
            });
            idx += 1;
        }
        let eof = idx >= entries.len();
        Ok((out, eof))
    }

    fn statfs(&self, _ctx: &RequestCtx, fh: &FHandle) -> Result<StatfsRes, NfsStat> {
        self.resolve_handle(fh)?;
        let stats = self.fs.statfs();
        Ok(StatfsRes {
            tsize: MAX_DATA as u32,
            bsize: stats.block_size,
            blocks: stats.total_blocks as u32,
            bfree: stats.free_blocks as u32,
            bavail: stats.free_blocks as u32,
        })
    }
}

/// Convenience conversion used in tests.
impl From<FsError> for Box<NfsStat> {
    fn from(e: FsError) -> Box<NfsStat> {
        Box::new(NfsStat::from(e))
    }
}
