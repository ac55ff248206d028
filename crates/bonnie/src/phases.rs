//! The Bonnie phases, faithful to Bonnie 1.x's structure.

use crate::BenchFile;

/// The stdio buffer size modeled for the per-character phases: Bonnie's
/// `putc`/`getc` go through the C library, which batches into 1 KB
/// writes on the paper's vintage systems.
pub const STDIO_BUF: usize = 1024;

/// The block size for block phases (NFSv2's 8 KB transfer size).
pub const BLOCK: usize = 8192;

/// One phase's outcome: bytes moved (time is measured by the harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseResult {
    /// Bytes read or written.
    pub bytes: u64,
    /// I/O calls issued.
    pub calls: u64,
}

/// Deterministic byte for position `i` (verifiable content).
fn pattern_byte(i: u64) -> u8 {
    (i.wrapping_mul(31).wrapping_add(7) % 251) as u8
}

/// Figure 7 — sequential output per character: Bonnie's `putc` loop.
///
/// Each byte goes through a modeled stdio buffer that flushes every
/// [`STDIO_BUF`] bytes, exercising the per-call overhead the figure
/// contrasts across filesystems.
pub fn seq_output_char(file: &mut dyn BenchFile, total: u64) -> PhaseResult {
    let mut buf = Vec::with_capacity(STDIO_BUF);
    let mut offset = 0u64;
    let mut calls = 0u64;
    for i in 0..total {
        buf.push(pattern_byte(i));
        if buf.len() == STDIO_BUF {
            file.write_at(offset, &buf);
            offset += buf.len() as u64;
            calls += 1;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        file.write_at(offset, &buf);
        calls += 1;
    }
    PhaseResult {
        bytes: total,
        calls,
    }
}

/// Figure 8 — sequential output per block: 8 KB `write()` calls.
pub fn seq_output_block(file: &mut dyn BenchFile, total: u64) -> PhaseResult {
    let block: Vec<u8> = (0..BLOCK as u64).map(pattern_byte).collect();
    let mut offset = 0u64;
    let mut calls = 0u64;
    while offset < total {
        let len = ((total - offset) as usize).min(BLOCK);
        file.write_at(offset, &block[..len]);
        offset += len as u64;
        calls += 1;
    }
    PhaseResult {
        bytes: total,
        calls,
    }
}

/// Figure 9 — sequential rewrite: read a block, dirty one byte, write
/// it back (Bonnie's "rewrite" pass: a read+write per block).
pub fn seq_rewrite(file: &mut dyn BenchFile, total: u64) -> PhaseResult {
    let mut offset = 0u64;
    let mut calls = 0u64;
    while offset < total {
        let len = ((total - offset) as usize).min(BLOCK);
        let mut block = file.read_at(offset, len);
        if block.is_empty() {
            break;
        }
        block[0] = block[0].wrapping_add(1);
        file.write_at(offset, &block);
        offset += block.len() as u64;
        calls += 2;
    }
    PhaseResult {
        bytes: offset,
        calls,
    }
}

/// Figure 10 — sequential input per character: Bonnie's `getc` loop
/// (1 KB stdio refills; every byte inspected).
pub fn seq_input_char(file: &mut dyn BenchFile, total: u64) -> (PhaseResult, u64) {
    let mut offset = 0u64;
    let mut checksum = 0u64;
    let mut calls = 0u64;
    while offset < total {
        let len = ((total - offset) as usize).min(STDIO_BUF);
        let chunk = file.read_at(offset, len);
        if chunk.is_empty() {
            break;
        }
        calls += 1;
        for b in &chunk {
            checksum = checksum.wrapping_add(*b as u64);
        }
        offset += chunk.len() as u64;
    }
    (
        PhaseResult {
            bytes: offset,
            calls,
        },
        checksum,
    )
}

/// Figure 11 — sequential input per block: 8 KB `read()` calls.
pub fn seq_input_block(file: &mut dyn BenchFile, total: u64) -> (PhaseResult, u64) {
    let mut offset = 0u64;
    let mut checksum = 0u64;
    let mut calls = 0u64;
    while offset < total {
        let len = ((total - offset) as usize).min(BLOCK);
        let chunk = file.read_at(offset, len);
        if chunk.is_empty() {
            break;
        }
        calls += 1;
        checksum = checksum.wrapping_add(chunk[0] as u64 + chunk[chunk.len() - 1] as u64);
        offset += chunk.len() as u64;
    }
    (
        PhaseResult {
            bytes: offset,
            calls,
        },
        checksum,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchFs, MemFs};

    const SIZE: u64 = 100 * 1024 + 37; // intentionally unaligned

    #[test]
    fn output_then_input_round_trips() {
        let mut fs = MemFs::new();
        {
            let mut f = fs.create("bonnie");
            let out = seq_output_char(&mut *f, SIZE);
            assert_eq!(out.bytes, SIZE);
        }
        {
            let mut f = fs.open("bonnie");
            let (input, checksum) = seq_input_char(&mut *f, SIZE);
            assert_eq!(input.bytes, SIZE);
            let expected: u64 = (0..SIZE).map(|i| pattern_byte(i) as u64).sum();
            assert_eq!(checksum, expected, "data corrupted in flight");
        }
    }

    #[test]
    fn block_output_writes_every_byte() {
        let mut fs = MemFs::new();
        {
            let mut f = fs.create("bonnie");
            let out = seq_output_block(&mut *f, SIZE);
            assert_eq!(out.bytes, SIZE);
            assert_eq!(out.calls, SIZE.div_ceil(BLOCK as u64));
        }
        assert_eq!(fs.read_file("bonnie").len() as u64, SIZE);
    }

    #[test]
    fn rewrite_preserves_length_and_dirties() {
        let mut fs = MemFs::new();
        {
            let mut f = fs.create("bonnie");
            seq_output_block(&mut *f, SIZE);
        }
        let before = fs.read_file("bonnie");
        {
            let mut f = fs.open("bonnie");
            let res = seq_rewrite(&mut *f, SIZE);
            assert_eq!(res.bytes, SIZE);
        }
        let after = fs.read_file("bonnie");
        assert_eq!(before.len(), after.len());
        assert_ne!(before, after, "rewrite must dirty blocks");
        // Only first byte of each block changed.
        assert_eq!(before[1], after[1]);
    }

    #[test]
    fn block_input_reads_whole_file() {
        let mut fs = MemFs::new();
        {
            let mut f = fs.create("bonnie");
            seq_output_block(&mut *f, SIZE);
        }
        let mut f = fs.open("bonnie");
        let (res, _) = seq_input_block(&mut *f, SIZE);
        assert_eq!(res.bytes, SIZE);
    }

    #[test]
    fn stdio_buffering_batches_calls() {
        let mut fs = MemFs::new();
        let mut f = fs.create("bonnie");
        let res = seq_output_char(&mut *f, 10 * STDIO_BUF as u64);
        assert_eq!(
            res.calls, 10,
            "putc loop must batch through the stdio buffer"
        );
    }
}
