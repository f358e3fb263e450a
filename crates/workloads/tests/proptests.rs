//! Property tests over the workload suite: the DTT transformation must be
//! semantics-preserving under *any* runtime configuration, and kernel
//! helpers must satisfy their algebraic properties.

use dtt_core::{Config, Granularity};
use dtt_workloads::bzip2::compress_block;
use dtt_workloads::gzip::lz77_tokens;
use dtt_workloads::parser::parse_sentence;
use dtt_workloads::twolf::{net_hpwl, pack_xy};
use dtt_workloads::vpr::{critical_path, manhattan};
use dtt_workloads::{suite, Scale};
use proptest::prelude::*;

fn configs() -> impl Strategy<Value = Config> {
    (
        0usize..3, // workers
        prop_oneof![
            Just(Granularity::Exact),
            Just(Granularity::Word),
            Just(Granularity::Line)
        ],
        prop::bool::ANY, // suppress silent stores
        prop::bool::ANY, // coalesce
        1usize..8,       // queue capacity
    )
        .prop_map(|(workers, g, suppress, coalesce, queue)| {
            Config::default()
                .with_workers(workers)
                .with_granularity(g)
                .with_silent_store_suppression(suppress)
                .with_coalescing(coalesce)
                .with_queue_capacity(queue)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The flagship invariant under arbitrary configurations, on the two
    /// kernels with the most intricate DTT plumbing.
    #[test]
    fn mcf_and_equake_preserve_semantics(cfg in configs()) {
        for w in suite(Scale::Test).into_iter().take(2) {
            prop_assert_eq!(
                w.run_baseline(),
                w.run_dtt(cfg.clone()).digest,
                "{} diverged under {:?}", w.name(), cfg
            );
        }
    }
}

proptest! {
    /// BWT+MTF+RLE output length is bounded by 2n and deterministic.
    #[test]
    fn compress_block_bounds(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let (len, sum) = compress_block(&data);
        prop_assert!(len as usize <= 2 * data.len());
        prop_assert_eq!((len, sum), compress_block(&data));
    }

    /// LZ77 emits at most one token per input byte, and token count is
    /// monotone under pure repetition (a doubled input never needs more
    /// than twice the tokens plus one).
    #[test]
    fn lz77_token_bounds(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let tokens = lz77_tokens(&data);
        prop_assert!(tokens.len() <= data.len());
        let mut doubled = data.clone();
        doubled.extend_from_slice(&data);
        let tokens2 = lz77_tokens(&doubled);
        prop_assert!(tokens2.len() <= 2 * tokens.len() + 1);
    }

    /// Parse scores are at least the all-singles score (the DP maximizes).
    #[test]
    fn parse_score_dominates_singles(
        weights in prop::collection::vec(1u32..1000, 4..32),
        tokens in prop::collection::vec(0u16..4, 0..16),
    ) {
        let singles: i64 = tokens.iter().map(|&t| weights[t as usize] as i64).sum();
        prop_assert!(parse_sentence(&weights, &tokens) >= singles);
    }

    /// HPWL is translation-invariant and zero for single-cell nets.
    #[test]
    fn hpwl_properties(
        xs in prop::collection::vec((0u32..200, 0u32..200), 1..8),
        dx in 0u32..50,
        dy in 0u32..50,
    ) {
        let pos: Vec<u64> = xs.iter().map(|&(x, y)| pack_xy(x, y)).collect();
        let moved: Vec<u64> = xs.iter().map(|&(x, y)| pack_xy(x + dx, y + dy)).collect();
        let net: Vec<u32> = (0..pos.len() as u32).collect();
        prop_assert_eq!(net_hpwl(&pos, &net), net_hpwl(&moved, &net));
        prop_assert_eq!(net_hpwl(&pos, &net[..1]), 0);
    }

    /// Manhattan distance is a metric (symmetry + triangle inequality).
    #[test]
    fn manhattan_is_a_metric(
        a in (0u32..1000, 0u32..1000),
        b in (0u32..1000, 0u32..1000),
        c in (0u32..1000, 0u32..1000),
    ) {
        let (pa, pb, pc) = (pack_xy(a.0, a.1), pack_xy(b.0, b.1), pack_xy(c.0, c.1));
        prop_assert_eq!(manhattan(pa, pb), manhattan(pb, pa));
        prop_assert_eq!(manhattan(pa, pa), 0);
        prop_assert!(manhattan(pa, pc) <= manhattan(pa, pb) + manhattan(pb, pc));
    }

    /// Critical path never decreases when an edge is added.
    #[test]
    fn critical_path_monotone_in_edges(
        n in 3usize..12,
        seed_edges in prop::collection::vec((0u32..11, 1u32..12), 1..20),
    ) {
        let pos: Vec<u64> = (0..n).map(|i| pack_xy(i as u32 * 3, i as u32)).collect();
        let mut edges: Vec<(u32, u32)> = seed_edges
            .into_iter()
            .filter(|&(u, v)| (u as usize) < n && (v as usize) < n && u < v)
            .collect();
        if edges.is_empty() {
            edges.push((0, 1));
        }
        edges.sort_unstable();
        edges.dedup();
        let mut arrival = vec![0u64; n];
        let full = critical_path(&pos, &edges, &mut arrival);
        let partial = critical_path(&pos, &edges[..edges.len() - 1], &mut arrival);
        prop_assert!(full >= partial);
    }
}
