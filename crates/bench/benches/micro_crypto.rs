//! Micro-benchmarks for the crypto substrate: the primitive operations
//! underlying credential verification and channel protection, and the
//! integrity checksum that frames what they protect.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use discfs_crypto::chacha20::ChaCha20;
use discfs_crypto::chacha20poly1305::ChaCha20Poly1305;
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::poly1305::Poly1305;
use discfs_crypto::sha256::Sha256;
use discfs_crypto::sha512::Sha512;
use discfs_crypto::x25519;
use discfs_crypto::Digest;
use onc_rpc::frame;

fn bench_hashes(c: &mut Criterion) {
    let data = vec![0xA5u8; 8192];
    let mut group = c.benchmark_group("hash_8k");
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("sha256", |b| b.iter(|| Sha256::digest(&data)));
    group.bench_function("sha512", |b| b.iter(|| Sha512::digest(&data)));
    group.finish();
}

fn bench_aead(c: &mut Criterion) {
    let aead = ChaCha20Poly1305::new(&[7; 32]);
    let nonce = [9u8; 12];
    let block = vec![0x5Au8; 8192];
    let sealed = aead.seal(&nonce, b"", &block);
    let mut group = c.benchmark_group("esp_record_8k");
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("seal", |b| b.iter(|| aead.seal(&nonce, b"", &block)));
    group.bench_function("open", |b| {
        b.iter(|| aead.open(&nonce, b"", &sealed).unwrap())
    });
    group.finish();
}

/// The two halves of the AEAD on their own, so a change in
/// `esp_record_8k` can be attributed to one of them.
fn bench_aead_kernels(c: &mut Criterion) {
    let cipher = ChaCha20::new(&[7; 32], &[9; 12]);
    let mut block = vec![0x5Au8; 8192];
    let mut group = c.benchmark_group("chacha20_8k");
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("apply_keystream", |b| {
        b.iter(|| cipher.apply_keystream(1, &mut block))
    });
    group.finish();

    let mut group = c.benchmark_group("poly1305_8k");
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("mac", |b| b.iter(|| Poly1305::mac(&[7; 32], &block)));
    group.finish();
}

/// Keystream figure (asserted): `apply_keystream` computes four blocks
/// per step in a loop the compiler is expected to vectorise, and that
/// expectation is the only reason the four-block path exists. Against
/// `block()` called once per 64 bytes, in the same process, it must be
/// at least 1.3× faster on 8 KiB (1.8-1.9× where it was written); if a
/// toolchain stops widening the lane loop this fails instead of the
/// data path quietly halving its speed. Best of five rounds a side so a
/// scheduler hiccup cannot set the ratio.
fn figure_keystream_step(_c: &mut Criterion) {
    println!("\n== PR 14 figure: four-block keystream step vs one block() per 64 bytes ==");
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
    println!(
        "  8 KiB: apply_keystream {stepped:.2} us, per-block {per_block:.2} us ({speedup:.2}x)"
    );
    assert!(
        speedup >= 1.3,
        "the four-block keystream step must be >= 1.3x the per-block loop, got {speedup:.2}x"
    );
}

/// The integrity checksum on one block, alone and as the RPC framing
/// uses it (encode, then decode through a `FrameDecoder`).
fn bench_frame_checksum(c: &mut Criterion) {
    let block = vec![0x5Au8; 8192];
    let mut group = c.benchmark_group("frame_checksum_8k");
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("checksum64", |b| b.iter(|| frame::checksum64(&block)));
    group.bench_function("encode_decode", |b| {
        b.iter(|| {
            let mut decoder = frame::FrameDecoder::new();
            decoder.feed(frame::encode_frame(&block).into()).unwrap();
            decoder.pop_frame()
        })
    });
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let key = SigningKey::from_seed(&[7; 32]);
    let msg = b"Authorizer: ... Licensees: ... Conditions: ...";
    let sig = key.sign(msg);
    let mut group = c.benchmark_group("ed25519");
    group.sample_size(20);
    group.bench_function("sign", |b| b.iter(|| key.sign(msg)));
    group.bench_function("verify", |b| {
        b.iter(|| key.public().verify(msg, &sig).unwrap())
    });
    group.finish();
}

fn bench_dh(c: &mut Criterion) {
    let scalar = [0x77u8; 32];
    let peer = x25519::public_key(&[0x99u8; 32]);
    let mut group = c.benchmark_group("x25519");
    group.sample_size(20);
    group.bench_function("shared_secret", |b| {
        b.iter(|| x25519::x25519(&scalar, &peer))
    });
    group.finish();
}

criterion_group!(
    micro_crypto,
    bench_hashes,
    bench_aead,
    bench_aead_kernels,
    figure_keystream_step,
    bench_frame_checksum,
    bench_signatures,
    bench_dh
);
criterion_main!(micro_crypto);
