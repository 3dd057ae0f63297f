//! SHA-256, Merkle tree, and DetRng throughput.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fi_crypto::merkle::MerkleTree;
use fi_crypto::sha256::{available_backends, compress_many_with, INITIAL_STATE};
use fi_crypto::{sha256, DetRng, Hash256, KeyedDomain};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sha256");
    for size in [64usize, 1_024, 65_536] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| black_box(sha256(&data)))
        });
    }
    group.finish();
}

/// The multi-lane layer per backend, as elements per second: raw
/// compressions (`compress_many`, lanes in and out of memory each call) and
/// path-walk hashes (`walk_paths`, two compressions each under the audit
/// domain) for a full tile and for the single lane sequential ingest walks.
/// 1e9 / thrpt is the ns per compression / per hash DESIGN.md §13 tabulates.
fn bench_lanes(c: &mut Criterion) {
    const LANES: usize = 4_096;
    const LEVELS: u32 = 64;
    let domain = KeyedDomain::new("fileinsurer/audit-node");
    let blocks: Vec<[u8; 64]> = (0..LANES).map(|i| [i as u8; 64]).collect();
    let leaves: Vec<Hash256> = (0..LANES as u32)
        .map(|lane| sha256(&lane.to_be_bytes()))
        .collect();
    let mut group = c.benchmark_group("crypto/lanes");
    for &backend in available_backends() {
        group.throughput(Throughput::Elements(LANES as u64));
        group.bench_function(BenchmarkId::new("compress_many", backend.name()), |b| {
            let mut states = vec![INITIAL_STATE; LANES];
            b.iter(|| compress_many_with(backend, black_box(&mut states), &blocks))
        });
        for lanes in [LANES, 1] {
            group.throughput(Throughput::Elements(lanes as u64 * u64::from(LEVELS)));
            let id = format!("walk_paths/{lanes}x{LEVELS}");
            group.bench_function(BenchmarkId::new(id, backend.name()), |b| {
                let mut nodes = leaves[..lanes].to_vec();
                b.iter(|| domain.walk_paths_with(backend, black_box(&mut nodes), LEVELS))
            });
        }
    }
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/merkle");
    for leaves in [64usize, 1_024] {
        let chunks: Vec<Vec<u8>> = (0..leaves).map(|i| vec![i as u8; 64]).collect();
        group.bench_with_input(BenchmarkId::new("build", leaves), &leaves, |b, _| {
            b.iter(|| black_box(MerkleTree::from_leaves(chunks.iter())))
        });
        let tree = MerkleTree::from_leaves(chunks.iter());
        group.bench_with_input(BenchmarkId::new("prove+verify", leaves), &leaves, |b, _| {
            let root = tree.root();
            let mut i = 0usize;
            b.iter(|| {
                let proof = tree.prove(i % leaves).unwrap();
                i += 1;
                black_box(proof.verify(&root, &chunks[(i - 1) % leaves]))
            })
        });
    }
    group.finish();
}

fn bench_detrng(c: &mut Criterion) {
    c.bench_function("crypto/detrng/next_u64", |b| {
        let mut rng = DetRng::from_seed_label(7, "bench");
        b.iter(|| black_box(rng.next_u64()))
    });
    c.bench_function("crypto/detrng/sample_exp", |b| {
        let mut rng = DetRng::from_seed_label(8, "bench");
        b.iter(|| black_box(rng.sample_exp(10.0)))
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}
criterion_group! {
    name = benches;
    config = quick();
    targets = bench_sha256, bench_lanes, bench_merkle, bench_detrng
}
criterion_main!(benches);
