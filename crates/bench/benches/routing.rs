//! Experiment C-4 (DESIGN.md): O(1) full-topology routing vs Chord-style
//! O(log N) finger-table lookups.
//!
//! Paper claim (§II.A): storing "the complete topology metadata on every
//! node instead of partial 'finger tables' as in Chord" decreases lookups
//! from O(log N) to O(1). We measure (a) routing-table lookup time and
//! (b) the number of *network hops* a Chord lookup would take — each hop
//! is an RPC in a real deployment, so hops dominate real latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use li_bench::chord::ChordBaseline;
use li_commons::ring::{HashRing, NodeId};
use std::hint::black_box;

fn node_ids(n: u16) -> Vec<NodeId> {
    (0..n).map(NodeId).collect()
}

fn bench_routing(c: &mut Criterion) {
    println!("\n=== C-4: O(1) consistent-hash routing vs Chord O(log N) ===");
    println!("paper: full topology metadata -> O(1); Chord finger tables -> O(log N) hops\n");
    println!("{:>8} | {:>14} | {:>16}", "nodes", "chord avg hops", "voldemort hops");

    let mut group = c.benchmark_group("routing_chord_vs_o1");
    for &n in &[8u16, 64, 256, 1024] {
        let ring = HashRing::balanced(u32::from(n) * 4, &node_ids(n)).unwrap();
        let chord = ChordBaseline::new(&node_ids(n));

        // Hop-count series (the paper's asymptotic claim).
        let keys: Vec<Vec<u8>> = (0..2000)
            .map(|i| format!("member:{i}").into_bytes())
            .collect();
        let total_hops: u64 = keys.iter().map(|k| u64::from(chord.lookup(k).1)).sum();
        let avg_hops = total_hops as f64 / keys.len() as f64;
        println!("{n:>8} | {avg_hops:>14.2} | {:>16}", "0 (local)");

        group.bench_with_input(BenchmarkId::new("voldemort_o1", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let key = &keys[i % keys.len()];
                i += 1;
                black_box(ring.preference_list(key, 3).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("chord_logn", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let key = &keys[i % keys.len()];
                i += 1;
                black_box(chord.lookup(key))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_routing
}
criterion_main!(benches);
