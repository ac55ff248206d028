//! Deterministic synthetic source tree, standing in for the OpenBSD
//! kernel sources used by the paper's Figure 12 search workload.
//!
//! The generator is seeded and uses its own xorshift PRNG so the tree is
//! bit-for-bit identical across platforms and toolchains — the
//! search totals can therefore be asserted exactly in tests.

use crate::BenchFs;

/// Shape parameters for the synthetic tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    /// Top-level directories (like `sys/kern`, `sys/dev`, …).
    pub dirs: usize,
    /// Source files per directory (half `.c`, half `.h`).
    pub files_per_dir: usize,
    /// Average file size in bytes.
    pub avg_file_size: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl TreeSpec {
    /// A kernel-sized tree: ~1000 files, ~8 MB total.
    pub fn kernel_like() -> TreeSpec {
        TreeSpec {
            dirs: 32,
            files_per_dir: 30,
            avg_file_size: 8 * 1024,
            seed: 0x0B5D,
        }
    }

    /// A small tree for unit tests and CI.
    pub fn small() -> TreeSpec {
        TreeSpec {
            dirs: 4,
            files_per_dir: 6,
            avg_file_size: 1024,
            seed: 0x0B5D,
        }
    }
}

/// Minimal xorshift64* PRNG (deterministic across platforms).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const IDENTIFIERS: [&str; 16] = [
    "buf", "proc", "vnode", "inode", "softc", "mbuf", "pcb", "uio", "ccb", "xfer", "sc", "flags",
    "error", "len", "addr", "dev",
];

const TYPES: [&str; 8] = [
    "int",
    "void",
    "char *",
    "size_t",
    "u_int32_t",
    "struct proc *",
    "off_t",
    "daddr_t",
];

/// Emits one pseudo-C line.
fn push_line(out: &mut String, rng: &mut XorShift) {
    match rng.below(5) {
        0 => {
            out.push('\t');
            out.push_str(TYPES[rng.below(TYPES.len())]);
            out.push(' ');
            out.push_str(IDENTIFIERS[rng.below(IDENTIFIERS.len())]);
            out.push_str(" = ");
            out.push_str(&rng.below(65536).to_string());
            out.push_str(";\n");
        }
        1 => {
            out.push_str("\tif (");
            out.push_str(IDENTIFIERS[rng.below(IDENTIFIERS.len())]);
            out.push_str(" != NULL) {\n\t\treturn (");
            out.push_str(&rng.below(128).to_string());
            out.push_str(");\n\t}\n");
        }
        2 => {
            out.push_str("/* ");
            for _ in 0..rng.below(8) + 2 {
                out.push_str(IDENTIFIERS[rng.below(IDENTIFIERS.len())]);
                out.push(' ');
            }
            out.push_str("*/\n");
        }
        3 => {
            out.push_str("#define ");
            out.push_str(&IDENTIFIERS[rng.below(IDENTIFIERS.len())].to_uppercase());
            out.push('_');
            out.push_str(&rng.below(64).to_string());
            out.push('\t');
            out.push_str(&format!("0x{:04x}\n", rng.below(65536)));
        }
        _ => {
            out.push('\t');
            out.push_str(IDENTIFIERS[rng.below(IDENTIFIERS.len())]);
            out.push('(');
            out.push_str(IDENTIFIERS[rng.below(IDENTIFIERS.len())]);
            out.push_str(", ");
            out.push_str(IDENTIFIERS[rng.below(IDENTIFIERS.len())]);
            out.push_str(");\n");
        }
    }
}

/// Generates the tree under `root` (which must exist); returns total
/// bytes written across all `.c`/`.h` files.
pub fn generate_tree(fs: &mut dyn BenchFs, root: &str, spec: &TreeSpec) -> u64 {
    let mut rng = XorShift(spec.seed | 1);
    let mut total = 0u64;
    let root = root.trim_end_matches('/');
    for d in 0..spec.dirs {
        let dir = if root.is_empty() {
            format!("sub{d:03}")
        } else {
            format!("{root}/sub{d:03}")
        };
        fs.mkdir(&dir);
        for f in 0..spec.files_per_dir {
            let ext = if f % 2 == 0 { "c" } else { "h" };
            let path = format!("{dir}/file{f:03}.{ext}");
            // Size varies ±50% around the average.
            let target = spec.avg_file_size / 2 + rng.below(spec.avg_file_size);
            let mut content = String::with_capacity(target + 128);
            content.push_str(&format!("/* generated: {path} */\n"));
            while content.len() < target {
                push_line(&mut content, &mut rng);
            }
            total += content.len() as u64;
            fs.write_file(&path, content.as_bytes());
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchFs, MemFs};

    #[test]
    fn deterministic_generation() {
        let mut fs1 = MemFs::new();
        let mut fs2 = MemFs::new();
        let spec = TreeSpec::small();
        let t1 = generate_tree(&mut fs1, "", &spec);
        let t2 = generate_tree(&mut fs2, "", &spec);
        assert_eq!(t1, t2);
        assert_eq!(
            fs1.read_file("sub000/file000.c"),
            fs2.read_file("sub000/file000.c")
        );
    }

    #[test]
    fn different_seed_different_tree() {
        let mut fs1 = MemFs::new();
        let mut fs2 = MemFs::new();
        let mut spec = TreeSpec::small();
        generate_tree(&mut fs1, "", &spec);
        spec.seed = 999;
        generate_tree(&mut fs2, "", &spec);
        assert_ne!(
            fs1.read_file("sub000/file000.c"),
            fs2.read_file("sub000/file000.c")
        );
    }

    #[test]
    fn shape_matches_spec() {
        let mut fs = MemFs::new();
        let spec = TreeSpec::small();
        let total = generate_tree(&mut fs, "", &spec);
        let dirs = fs.readdir("");
        assert_eq!(dirs.len(), spec.dirs);
        let files = fs.readdir("sub000");
        assert_eq!(files.len(), spec.files_per_dir);
        // Roughly avg_file_size per file.
        let expected = (spec.dirs * spec.files_per_dir * spec.avg_file_size) as u64;
        assert!(
            total > expected / 2 && total < expected * 2,
            "total = {total}"
        );
    }

    #[test]
    fn files_look_like_c() {
        let mut fs = MemFs::new();
        generate_tree(&mut fs, "", &TreeSpec::small());
        let content = String::from_utf8(fs.read_file("sub001/file001.h")).unwrap();
        assert!(content.starts_with("/* generated:"));
        assert!(content.lines().count() > 3);
    }
}
