//! Multi-threaded tracked-store throughput: the sharded hot path vs the
//! single-lock (`mem_shards = 1`) serialized ablation.
//!
//! Each thread owns an [`dtt_core::Accessor`] and hammers changing stores
//! into a disjoint chunk of one unwatched array — the pure store fast path
//! (stripe lock + shadow compare + trigger read-lookup, no state lock).
//! With `mem_shards = 1` every store from every thread serializes on the
//! single stripe lock — the ablation for the pre-sharding runtime, whose
//! global state lock covered the *entire* tracked-store path; with enough
//! shards the chunks map to disjoint stripe locks and threads never touch
//! shared mutable state on the store path.
//!
//! Two results are reported:
//!
//! * the **measured** wall-clock table — on a multi-core host the 4-thread
//!   sharded row shows the real scaling; on a single-core host all
//!   configurations collapse to one thread's throughput (time-slicing
//!   serializes everything, so the locking scheme cannot matter);
//! * a **modeled** multi-core projection from measured single-thread
//!   per-store cost: a lock held for the whole store path caps aggregate
//!   throughput at `1 / t_store` no matter the thread count, while disjoint
//!   shards scale at `T / t_store` — the standard serialization bound, with
//!   both `t_store` values measured, not assumed.
//!
//! The bulk (`write_slice`) store path is measured by the repo benchmark's
//! `store_bulk` workload and `mem.bulk_*` layer metrics (`perf/`).
//!
//! Usage: `store_throughput [--smoke]` — `--smoke` runs a fast CI-sized
//! configuration (same code paths, unreliable timings).

use std::sync::Barrier;
use std::time::Instant;

use dtt_bench::{fmt_speedup, BenchRecord, Table};
use dtt_core::{Config, Runtime};

/// Elements per thread; 512 u64s = 4 KiB = 64 stripes per chunk, so chunks
/// land on disjoint stripe locks whenever the shard count covers
/// `threads * 64` stripes.
const CHUNK: usize = 512;

/// Shard count for the sharded configurations: enough that each of 4
/// threads' 64 stripes get private locks. (The `Config` default scales
/// with the host core count and can be smaller on small boxes.)
const SHARDS: usize = 256;

/// Runs `threads` accessor threads of `iters` changing stores each over
/// disjoint chunks and returns aggregate Mstores/s.
fn run(threads: usize, shards: usize, iters: usize) -> f64 {
    let cfg = Config::default().with_mem_shards(shards);
    let mut rt = Runtime::new(cfg, ());
    let xs = rt.alloc_array::<u64>(threads * CHUNK).unwrap();
    let start_gate = Barrier::new(threads + 1);
    let done_gate = Barrier::new(threads + 1);
    let mut secs = 0.0;
    std::thread::scope(|s| {
        let rt = &rt;
        let (start_gate, done_gate) = (&start_gate, &done_gate);
        for t in 0..threads {
            s.spawn(move || {
                let mut acc = rt.accessor();
                let chunk = xs.slice(t * CHUNK, (t + 1) * CHUNK);
                start_gate.wait();
                // Every store changes its cell (cell i sees i+1, CHUNK+i+1,
                // ...), so none are silent-suppressed.
                for i in 0..iters {
                    acc.write(chunk, i % CHUNK, (i + 1) as u64);
                }
                done_gate.wait();
            });
        }
        start_gate.wait();
        let t0 = Instant::now();
        done_gate.wait();
        secs = t0.elapsed().as_secs_f64();
    });
    let c = rt.stats();
    let expect = (threads * iters) as u64;
    assert_eq!(
        c.counters().tracked_stores,
        expect,
        "lost stores at {threads} threads / {shards} shards"
    );
    assert_eq!(c.counters().silent_stores, 0);
    (threads * iters) as f64 / secs / 1e6
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 20_000 } else { 2_000_000 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = Table::new(vec![
        "threads".into(),
        "shards=1 Mst/s".into(),
        format!("shards={SHARDS} Mst/s"),
        "speedup".into(),
    ]);
    let mut measured_1t_sharded = 0.0;
    let mut measured_1t_serial = 0.0;
    let mut measured_4t_ratio = 0.0;
    for threads in [1usize, 2, 4] {
        let serialized = run(threads, 1, iters);
        let sharded = run(threads, SHARDS, iters);
        if threads == 1 {
            measured_1t_serial = serialized;
            measured_1t_sharded = sharded;
        }
        if threads == 4 {
            measured_4t_ratio = sharded / serialized;
        }
        table.row(vec![
            threads.to_string(),
            format!("{serialized:.1}"),
            format!("{sharded:.1}"),
            fmt_speedup(sharded / serialized),
        ]);
    }
    let mode = if smoke { " (smoke)" } else { "" };
    table.print(&format!(
        "store throughput, measured on {cores} core(s): sharded vs single-lock{mode}"
    ));

    // Serialization model from the measured single-thread costs: a lock held
    // across the store path caps aggregate throughput at 1/t_store however
    // many threads run (the pre-sharding global lock covered the whole
    // path), while stores on disjoint shards share no lock and scale with
    // the core count.
    let modeled = 4.0 * measured_1t_sharded / measured_1t_serial;
    println!(
        "single-thread cost: {:.1} ns/store under the single lock, {:.1} ns/store sharded",
        1e3 / measured_1t_serial,
        1e3 / measured_1t_sharded
    );
    println!(
        "modeled 4-core, 4-thread speedup over the single-lock baseline: {}",
        fmt_speedup(modeled)
    );
    println!(
        "measured 4-thread speedup on this {cores}-core host: {}",
        fmt_speedup(measured_4t_ratio)
    );
    if cores < 4 {
        println!("note: with fewer cores than threads, time-slicing serializes every");
        println!("configuration equally, so the measured column cannot separate them;");
        println!("the modeled line is the serialization bound from measured costs.");
    }

    let record = BenchRecord {
        benchmark: "store_throughput".into(),
        config: format!("threads=[1,2,4] shards={SHARDS}-vs-1 iters={iters}{mode}"),
        ns_per_op: 1e3 / measured_1t_sharded,
        modeled_speedup: modeled,
        host_cores: cores,
    };
    match record.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write bench record: {e}"),
    }
}
