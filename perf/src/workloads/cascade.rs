//! `cascade`: what the serve engine does per put, minus the server. A
//! `ServedKeyed` view (16 shard-rows x 32 slots over 2^20 keys) in-process
//! and deferred; each op applies one seeded put, refreshes the SUM -> TOTAL
//! -> AVG chain, and reads the key's row aggregate and the global cells.

use std::time::Instant;

use dtt_core::Config;
use dtt_workloads::ServedKeyed;

use super::{Rep, RepArgs, Stopwatch};
use crate::rng::{Fnv, Rng};
use crate::span::Tracer;

const ROWS: usize = 16;
const COLS: usize = 32;
const KEY_SPACE: u64 = 1 << 20;
/// Ops per latency sample (~0.3 ms, 1536 samples per repetition): one op is
/// ~2 us, too short to time alone, and a short sample's tail measures the
/// host's interrupts.
const OPS_PER_SAMPLE: u64 = 128;
/// Ops per repetition: ~0.5 s on the 2-core reference host.
const OPS: u64 = 1536 * OPS_PER_SAMPLE;

pub fn rep(args: &RepArgs) -> Rep {
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0, 0, args.trace);
    let mut rep = Rep::default();
    let seed = args.seed;

    let mut view = ServedKeyed::build(Config::default(), ROWS, COLS, KEY_SPACE);
    let map = view.key_map();
    let mut rng = Rng::new(seed, 4);
    let mut hash = Fnv::default();
    let mut grid = [[0i64; COLS]; ROWS];
    let mut row_sums = [0i64; ROWS];
    let mut total = 0i64;
    let mut op = |n: u64, tr: &mut Tracer, rep: &mut Rep| {
        let r = rng.next_u64();
        hash.push(r);
        let (key, value) = (r % KEY_SPACE, ((r >> 32) % 1000) as i64);
        let (row, col) = map.slot_of(key);
        let delta = value - grid[row][col];
        grid[row][col] = value;
        row_sums[row] += delta;
        total += delta;

        tr.next_op();
        tr.begin("op");
        tr.begin("served.apply");
        view.apply(&[(key, value)]);
        tr.end();
        tr.begin("served.refresh");
        let refreshed = view.refresh();
        tr.end();
        tr.begin("served.read");
        let (row_sum, cells) = (view.read_key_row(key), view.read());
        tr.end();
        tr.end();

        let avg = total / (ROWS * COLS) as i64;
        if refreshed.is_err()
            || row_sum != row_sums[row]
            || cells.total != total
            || cells.avg != avg
        {
            rep.fail(|| {
                format!(
                    "seed {seed} op {n}: refresh {refreshed:?}, row {row_sum}/total {}/avg {} vs model {}/{total}/{avg}",
                    cells.total, cells.avg, row_sums[row]
                )
            });
        }
    };

    let ops = args.ops(OPS, OPS_PER_SAMPLE);
    let warm = (ops / 20).max(1);
    {
        let mut untraced = Tracer::off();
        for n in 0..warm {
            op(n, &mut untraced, &mut rep);
        }
    }
    rep.setup_s = t0.elapsed().as_secs_f64();

    rep.samples_us.reserve((ops / OPS_PER_SAMPLE) as usize);
    let watch = Stopwatch::start();
    let mut last = Instant::now();
    for n in 0..ops {
        op(warm + n, &mut tr, &mut rep);
        if (n + 1) % OPS_PER_SAMPLE == 0 {
            let now = Instant::now();
            rep.samples_us.push((now - last).as_secs_f64() * 1e6);
            last = now;
        }
    }
    (rep.timed_s, rep.cpu_s) = watch.stop();

    rep.ops = ops;
    rep.stream_hash = hash.finish();
    rep.counters = view.runtime_mut().stats().fields();
    rep.tracers.push(tr);
    rep
}
