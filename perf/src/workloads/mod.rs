//! The seven workloads. Each one is a function that runs **one repetition**:
//! build a fresh runtime or server, warm it up, run a fixed, seeded op count
//! in a timed section, and check every output against a plain model. The
//! runner (`crate::run`) repeats it and takes medians.

use std::time::Instant;

use dtt_serve::ServeStatsSnapshot;

use crate::host;
use crate::span::Tracer;

mod cascade;
mod dispatch;
mod kernels;
pub mod serve;
mod store_bulk;
mod store_scalar;

/// What one repetition is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RepArgs {
    pub seed: u64,
    /// Op counts ÷ 20, same code paths and oracles.
    pub smoke: bool,
    /// Record spans around the calls into each layer.
    pub trace: bool,
}

impl RepArgs {
    /// The repetition's op count: `full`, or a twentieth of it under
    /// `--smoke` (kept a multiple of `unit` and at least one unit).
    pub fn ops(&self, full: u64, unit: u64) -> u64 {
        if self.smoke {
            (full / 20 / unit).max(1) * unit
        } else {
            full
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time before the timed section: build, register, watch, initial
    /// refresh, server start to first `Pong`, pre-population, warm-up.
    pub setup_s: f64,
    pub timed_s: f64,
    /// Process CPU over the timed section.
    pub cpu_s: f64,
    /// Ops attempted in the timed section.
    pub ops: u64,
    pub failed: u64,
    /// Seed and index of the first op that failed its oracle.
    pub first_failure: Option<String>,
    /// One latency sample per workload-defined unit, in microseconds.
    pub samples_us: Vec<f64>,
    /// Fingerprint of the generated op stream (seed determinism).
    pub stream_hash: u64,
    /// `StatsSnapshot::fields()` of the runtime(s) the repetition drove;
    /// empty where the runtime is out of reach (inside the server).
    pub counters: Vec<(&'static str, u64)>,
    /// `Server::stats()` at the end of a serve repetition.
    pub serve: Option<ServeStatsSnapshot>,
    /// `(reference seconds, DTT seconds)` per part, where a non-DTT
    /// reference implementation exists (`kernels` only).
    pub pairs: Vec<(f64, f64)>,
    pub tracers: Vec<Tracer>,
}

impl Rep {
    /// Counts one failed op and keeps the first one's description.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Wall and process-CPU clocks over a timed section.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: host::cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, cpu seconds)` since [`Stopwatch::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, host::cpu_seconds() - self.cpu)
    }
}

/// Adds `from`'s counters into `into`, field by field.
pub fn add_counters(into: &mut Vec<(&'static str, u64)>, from: Vec<(&'static str, u64)>) {
    if into.is_empty() {
        *into = from;
        return;
    }
    for (slot, (name, value)) in into.iter_mut().zip(from) {
        debug_assert_eq!(slot.0, name);
        slot.1 += value;
    }
}

/// A busy integer loop the optimiser cannot fold: the stand-in for "real
/// work" in tthread bodies and on the main thread.
#[inline(never)]
pub fn spin(mut x: u64, steps: u32) -> u64 {
    for _ in 0..steps {
        x = std::hint::black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    x
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Closed loop or in-process loop, and how many clients drive it.
    pub shape: &'static str,
    /// Deferred executor, no thread but the caller's: the program counters
    /// must repeat exactly for a seed, and the repetitions are measured on
    /// one CPU (`host::Pinned`).
    pub single_threaded: bool,
    pub rep: fn(&RepArgs) -> Rep,
}

pub const ALL: [Workload; 7] = [
    Workload {
        name: "kernels",
        why: "The paper's reproduction: all 16 kernels, baseline vs deferred DTT, every core layer with real bodies.",
        shape: "in-process loop, 1 thread",
        single_threaded: true,
        rep: kernels::rep,
    },
    Workload {
        name: "store_scalar",
        why: "Scalar tracked accesses, 80% of stores silent: mem/filter/trigger/ctx do the work; dispatch, graph, serve none.",
        shape: "in-process loop, 1 thread",
        single_threaded: true,
        rep: store_scalar::rep,
    },
    Workload {
        name: "store_bulk",
        why: "Bulk write_slice/read_all over one watched array: the lane-compare store path, p50 = the skip, p95 = the recompute.",
        shape: "in-process loop, 1 thread",
        single_threaded: true,
        rep: store_bulk::rep,
    },
    Workload {
        name: "dispatch",
        why: "One worker, 7 us bodies overlapped with main-thread work: trigger, enqueue, wake, detached run, commit, join.",
        shape: "in-process loop, 1 main thread + 1 runtime worker",
        single_threaded: false,
        rep: dispatch::rep,
    },
    Workload {
        name: "cascade",
        why: "Keyed view in-process: graph cascade, wave dedup, cutoff and ~15 join skips per put; no transport, no worker.",
        shape: "in-process loop, 1 thread",
        single_threaded: true,
        rep: cascade::rep,
    },
    Workload {
        name: "serve_put",
        why: "Write path over TCP end to end: proto, conn sweep, admission gate, mailbox, engine batch, refresh, reply.",
        shape: "closed loop, min(2, nproc) connections, one client thread each",
        single_threaded: false,
        rep: serve::rep_put,
    },
    Workload {
        name: "serve_get",
        why: "Read path over TCP: same transport and mailbox, no runtime work; a core change must leave it flat.",
        shape: "closed loop, min(2, nproc) connections, one client thread each",
        single_threaded: false,
        rep: serve::rep_get,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> RepArgs {
        RepArgs {
            seed,
            smoke: true,
            trace: false,
        }
    }

    #[test]
    fn smoke_op_counts_are_a_twentieth_in_whole_units() {
        assert_eq!(smoke(1).ops(1 << 24, 4096), (1 << 24) / 20 / 4096 * 4096);
        assert_eq!(smoke(1).ops(10, 64), 64);
        let full = RepArgs {
            smoke: false,
            ..smoke(1)
        };
        assert_eq!(full.ops(800, 1), 800);
    }

    /// Same seed, same op stream; another seed, another stream — on every
    /// workload whose inputs are generated (the kernels' inputs are the
    /// suite's own; the seed only orders them).
    #[test]
    fn op_streams_are_a_function_of_the_seed() {
        for w in ALL
            .iter()
            .filter(|w| w.name != "kernels" && !w.name.starts_with("serve"))
        {
            let (a, b, c) = (
                (w.rep)(&smoke(11)),
                (w.rep)(&smoke(11)),
                (w.rep)(&smoke(12)),
            );
            assert_eq!(a.stream_hash, b.stream_hash, "{}", w.name);
            assert_ne!(a.stream_hash, c.stream_hash, "{}", w.name);
            assert_eq!(a.failed, 0, "{}: {:?}", w.name, a.first_failure);
            if w.single_threaded {
                assert_eq!(a.counters, b.counters, "{}", w.name);
            }
        }
    }

    #[test]
    fn serve_smoke_repetitions_pass_their_oracles() {
        for name in ["serve_put", "serve_get"] {
            let w = find(name).unwrap();
            let (a, b) = ((w.rep)(&smoke(5)), (w.rep)(&smoke(5)));
            assert_eq!(a.failed, 0, "{name}: {:?}", a.first_failure);
            assert_eq!(a.stream_hash, b.stream_hash);
            assert_eq!(a.ops as usize, a.samples_us.len());
            let s = a.serve.expect("serve repetitions carry server stats");
            assert!(s.admission_conserved() && s.lifecycle_conserved());
        }
    }

    #[test]
    fn a_wrong_output_is_counted_and_located() {
        let mut rep = Rep::default();
        rep.fail(|| "seed 3 op 17: sum 4 != 5".to_string());
        rep.fail(|| "later".to_string());
        assert_eq!(rep.failed, 2);
        assert_eq!(
            rep.first_failure.as_deref(),
            Some("seed 3 op 17: sum 4 != 5")
        );
    }
}
