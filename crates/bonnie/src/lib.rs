//! A Bonnie benchmark port plus the paper's filesystem-search workload.
//!
//! The paper's evaluation (§6) runs two workloads against FFS, CFS-NE
//! and DisCFS:
//!
//! * **Bonnie** on a 100 MB file — sequential output per-character
//!   (Figure 7), per-block (Figure 8), rewrite (Figure 9); sequential
//!   input per-character (Figure 10) and per-block (Figure 11).
//!   Bonnie's random-seek phase is not ported: the paper shows no
//!   figure for it.
//! * **Filesystem search** (Figure 12) — "a simple script that goes
//!   through every .c and .h file of the OpenBSD kernel source code and
//!   counts the number of lines, words and bytes" (i.e. `wc`).
//!
//! Workloads run against anything implementing [`BenchFs`]/[`BenchFile`];
//! the benchmark harness provides one adapter for the local `ffs`
//! volume (the FFS series) and one for the two NFS mounts (CFS-NE and
//! DisCFS).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod phases;
pub mod search;
pub mod srctree;

pub use phases::{
    seq_input_block, seq_input_char, seq_output_block, seq_output_char, seq_rewrite, PhaseResult,
};
pub use search::{search, SearchTotals};
pub use srctree::{generate_tree, TreeSpec};

/// An open file under benchmark: positional reads and writes.
///
/// Implementations panic on I/O errors — a benchmark with failing I/O
/// has no meaningful result, so error plumbing would only obscure the
/// measured path.
pub trait BenchFile {
    /// Writes `data` at byte `offset`.
    fn write_at(&mut self, offset: u64, data: &[u8]);
    /// Reads up to `len` bytes at `offset` (short reads signal EOF).
    fn read_at(&mut self, offset: u64, len: usize) -> Vec<u8>;
}

/// A filesystem under benchmark.
pub trait BenchFs {
    /// Creates (or truncates) a file, returning it opened.
    fn create<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a>;
    /// Opens an existing file.
    fn open<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a>;
    /// Creates a directory (parents must exist).
    fn mkdir(&mut self, path: &str);
    /// Writes a whole file in one call.
    fn write_file(&mut self, path: &str, data: &[u8]);
    /// Reads a whole file.
    fn read_file(&mut self, path: &str) -> Vec<u8>;
    /// Lists a directory: `(name, is_dir)`, excluding `.`/`..`.
    fn readdir(&mut self, path: &str) -> Vec<(String, bool)>;
    /// Removes a file (benchmark cleanup between phases).
    fn remove(&mut self, path: &str);
    /// Makes completed writes durable (reboot-cycle benchmarks sync
    /// before tearing a world down). No-op where not meaningful.
    fn sync(&mut self) {}
}

/// An in-memory reference implementation used by this crate's own tests.
#[derive(Default)]
pub struct MemFs {
    files: std::collections::BTreeMap<String, Vec<u8>>,
    dirs: std::collections::BTreeSet<String>,
}

impl MemFs {
    /// An empty in-memory filesystem.
    pub fn new() -> MemFs {
        MemFs::default()
    }
}

/// A cursor into a [`MemFs`] file.
pub struct MemFile<'a> {
    data: &'a mut Vec<u8>,
}

impl BenchFile for MemFile<'_> {
    fn write_at(&mut self, offset: u64, data: &[u8]) {
        let end = offset as usize + data.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[offset as usize..end].copy_from_slice(data);
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Vec<u8> {
        let start = (offset as usize).min(self.data.len());
        let end = (start + len).min(self.data.len());
        self.data[start..end].to_vec()
    }
}

impl BenchFs for MemFs {
    fn create<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let entry = self.files.entry(path.to_string()).or_default();
        entry.clear();
        Box::new(MemFile { data: entry })
    }

    fn open<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let entry = self
            .files
            .get_mut(path)
            .unwrap_or_else(|| panic!("open of missing file {path}"));
        Box::new(MemFile { data: entry })
    }

    fn mkdir(&mut self, path: &str) {
        self.dirs.insert(path.trim_matches('/').to_string());
    }

    fn write_file(&mut self, path: &str, data: &[u8]) {
        self.files.insert(path.to_string(), data.to_vec());
    }

    fn read_file(&mut self, path: &str) -> Vec<u8> {
        self.files
            .get(path)
            .unwrap_or_else(|| panic!("read of missing file {path}"))
            .clone()
    }

    fn readdir(&mut self, path: &str) -> Vec<(String, bool)> {
        let prefix = {
            let trimmed = path.trim_matches('/');
            if trimmed.is_empty() {
                String::new()
            } else {
                format!("{trimmed}/")
            }
        };
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for dir in &self.dirs {
            if let Some(rest) = dir.strip_prefix(&prefix) {
                if !rest.is_empty() && !rest.contains('/') && seen.insert(rest.to_string()) {
                    out.push((rest.to_string(), true));
                }
            }
        }
        for file in self.files.keys() {
            let trimmed = file.trim_matches('/');
            if let Some(rest) = trimmed.strip_prefix(&prefix) {
                if !rest.is_empty() && !rest.contains('/') && seen.insert(rest.to_string()) {
                    out.push((rest.to_string(), false));
                }
            }
        }
        out
    }

    fn remove(&mut self, path: &str) {
        self.files.remove(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_roundtrip() {
        let mut fs = MemFs::new();
        fs.mkdir("src");
        fs.write_file("src/a.c", b"int main(){}");
        assert_eq!(fs.read_file("src/a.c"), b"int main(){}");
        let listing = fs.readdir("");
        assert_eq!(listing, vec![("src".to_string(), true)]);
        let inner = fs.readdir("src");
        assert_eq!(inner, vec![("a.c".to_string(), false)]);
    }

    #[test]
    fn memfile_positional_io() {
        let mut fs = MemFs::new();
        {
            let mut f = fs.create("f");
            f.write_at(0, b"hello world");
            f.write_at(6, b"WORLD");
            assert_eq!(f.read_at(0, 11), b"hello WORLD");
            assert_eq!(f.read_at(100, 5), b"");
        }
    }
}
