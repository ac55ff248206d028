//! The four-block ChaCha20 keystream step against the per-block loop,
//! on the wall clock (release builds only).
//!
//! `apply_keystream` computes four blocks per step in a loop the
//! compiler is expected to vectorise, and that expectation is the only
//! reason the four-block path exists. Against `block()` called once per
//! 64 bytes, in the same process (the host drifts ±30 % between runs),
//! it must be at least 1.3× faster on 8 KiB (1.8-1.9× where it was
//! written); if a toolchain stops widening the lane loop this fails
//! instead of the data path quietly halving its speed. Best of five
//! rounds a side so a scheduler hiccup cannot set the ratio.

use std::time::Instant;

use discfs_crypto::chacha20::ChaCha20;

#[test]
#[cfg_attr(debug_assertions, ignore = "wall clock: release only")]
fn four_block_step_beats_the_per_block_loop() {
    let cipher = ChaCha20::new(&[7; 32], &[9; 12]);
    let mut data = vec![0x5Au8; 8192];
    let iters = 2000;
    let mut best_us = |f: &mut dyn FnMut(&mut [u8])| {
        (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    f(std::hint::black_box(&mut data));
                }
                start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let stepped = best_us(&mut |d| cipher.apply_keystream(1, d));
    let per_block = best_us(&mut |d| {
        for (counter, chunk) in (1u32..).zip(d.chunks_mut(64)) {
            for (b, k) in chunk.iter_mut().zip(cipher.block(counter)) {
                *b ^= k;
            }
        }
    });
    let speedup = per_block / stepped;
    assert!(
        speedup >= 1.3,
        "the four-block keystream step must be >= 1.3x the per-block loop, got {speedup:.2}x \
         ({stepped:.2} us vs {per_block:.2} us on 8 KiB)"
    );
}
