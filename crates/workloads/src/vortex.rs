//! `vortex` — object-oriented database with derived indexes (after SPEC
//! 255.vortex).
//!
//! vortex mutates an in-memory object store and continually re-derives
//! lookup structures. Real transaction mixes are dominated by *upserts
//! that do not change the stored value* (re-inserting the current state of
//! an object), so index maintenance is largely redundant. Fields are laid
//! out column-major; each index is a tthread watching its field's column
//! and rebuilding a bucket directory.

use dtt_core::{Config, Runtime, TrackedArray};
use dtt_trace::{NoProbe, Probe, Trace, TraceBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::suite::{DttRun, Scale, Workload};
use crate::util::{self, Digest};

const FIELD_BASE: u64 = 0x1000_0000;
const FIELD_STRIDE: u64 = 0x100_0000;
const INDEX_BASE: u64 = 0x2000_0000;

const FIELDS: usize = 3;
const BUCKETS: usize = 64;

/// One transaction: a batch of field upserts.
#[derive(Debug, Clone)]
struct Txn {
    /// `(field, object, value)` — silent when the value is unchanged.
    writes: Vec<(usize, usize, u64)>,
    /// Index probes issued after the transaction: `(field, bucket)`.
    queries: Vec<(usize, usize)>,
}

/// The vortex workload instance.
#[derive(Debug, Clone)]
pub struct Vortex {
    objects: usize,
    fields0: Vec<Vec<u64>>,
    txns: Vec<Txn>,
}

/// Rebuilds the bucket directory of one field column: entry `b` counts the
/// objects whose value hashes to bucket `b`, folded with a rolling digest
/// so ordering matters.
pub fn build_index(column: &[u64]) -> Vec<u64> {
    let mut dir = vec![0u64; BUCKETS];
    for (obj, &v) in column.iter().enumerate() {
        let b = (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize % BUCKETS;
        dir[b] = dir[b].wrapping_mul(31).wrapping_add(obj as u64 ^ v);
    }
    dir
}

impl Vortex {
    /// Generates the instance for `scale` (deterministic).
    pub fn new(scale: Scale) -> Self {
        let (objects, txns_n, writes_per_txn, queries_per_txn, change_period) = match scale {
            Scale::Test => (48, 12, 6, 4, 3),
            Scale::Train => (1_024, 80, 24, 256, 3),
            Scale::Reference => (4_096, 160, 32, 384, 3),
        };
        let mut rng = StdRng::seed_from_u64(0x766f_7274 + objects as u64);
        let fields0: Vec<Vec<u64>> = (0..FIELDS)
            .map(|_| (0..objects).map(|_| rng.gen_range(0..1_000)).collect())
            .collect();
        let mut fields = fields0.clone();
        let txns = (0..txns_n)
            .map(|t| {
                let mut writes = Vec::with_capacity(writes_per_txn);
                for w in 0..writes_per_txn {
                    let f = rng.gen_range(0..FIELDS);
                    let o = rng.gen_range(0..objects);
                    // Most upserts re-store the object's current state; on
                    // the change period one write per transaction really
                    // updates a field.
                    if w == 0 && t % change_period == change_period - 1 {
                        let v = rng.gen_range(0..1_000);
                        fields[f][o] = v;
                        writes.push((f, o, v));
                    } else {
                        writes.push((f, o, fields[f][o]));
                    }
                }
                let queries = (0..queries_per_txn)
                    .map(|_| (rng.gen_range(0..FIELDS), rng.gen_range(0..BUCKETS)))
                    .collect();
                Txn { writes, queries }
            })
            .collect();
        Vortex {
            objects,
            fields0,
            txns,
        }
    }

    /// Objects in the store.
    pub fn objects(&self) -> usize {
        self.objects
    }

    fn kernel<P: Probe>(&self, p: &mut P, tts: &[u32]) -> u64 {
        let mut fields = self.fields0.clone();
        let mut indexes: Vec<Vec<u64>> = vec![vec![0; BUCKETS]; FIELDS];
        let mut digest = Digest::new();
        // Program initialization: load the object store.
        for (f, column) in fields.iter().enumerate() {
            for (o, &v) in column.iter().enumerate() {
                util::store_u64(p, 0, FIELD_BASE + f as u64 * FIELD_STRIDE, o, v);
            }
        }
        for txn in &self.txns {
            for &(f, o, v) in &txn.writes {
                util::store_u64(p, 1, FIELD_BASE + f as u64 * FIELD_STRIDE, o, v);
                fields[f][o] = v;
            }
            // Index maintenance: one region per field index.
            for (f, column) in fields.iter().enumerate() {
                p.region_begin(tts[f]);
                for (o, &v) in column.iter().enumerate() {
                    util::load_u64(p, 2, FIELD_BASE + f as u64 * FIELD_STRIDE, o, v);
                }
                p.compute(4 * self.objects as u64);
                indexes[f] = build_index(column);
                util::store_u64(p, 3, INDEX_BASE + f as u64 * FIELD_STRIDE, 0, indexes[f][0]);
                p.region_end(tts[f]);
                p.join(tts[f]);
            }
            // Query phase: probe the directories.
            let mut answer = 0u64;
            for &(f, b) in &txn.queries {
                let v =
                    util::load_u64(p, 4, INDEX_BASE + f as u64 * FIELD_STRIDE, b, indexes[f][b]);
                answer = answer.wrapping_mul(31).wrapping_add(v);
                p.compute(12);
            }
            digest.push_u64(answer);
        }
        digest.finish()
    }
}

/// Untracked state of the DTT implementation.
struct VortexUser {
    indexes: Vec<Vec<u64>>,
    scratch: Vec<u64>,
}

impl Workload for Vortex {
    fn name(&self) -> &'static str {
        "vortex"
    }

    fn spec_inspiration(&self) -> &'static str {
        "255.vortex"
    }

    fn description(&self) -> &'static str {
        "object-store index maintenance; most transactional upserts re-store unchanged values"
    }

    fn run_baseline(&self) -> u64 {
        let tts: Vec<u32> = (0..FIELDS as u32).collect();
        self.kernel(&mut NoProbe, &tts)
    }

    fn run_dtt(&self, cfg: Config) -> DttRun {
        let objects = self.objects;
        let mut rt = Runtime::new(
            cfg,
            VortexUser {
                indexes: vec![vec![0; BUCKETS]; FIELDS],
                scratch: Vec::new(),
            },
        );
        let columns: Vec<TrackedArray<u64>> = self
            .fields0
            .iter()
            .map(|c| rt.alloc_array_from(c).expect("arena sized for workload"))
            .collect();
        let mut tts = Vec::with_capacity(FIELDS);
        for (f, &column) in columns.iter().enumerate() {
            let tt = rt.register(&format!("index_field_{f}"), move |ctx| {
                let mut scratch = std::mem::take(&mut ctx.user_mut().scratch);
                ctx.read_all_into(column, &mut scratch);
                let dir = build_index(&scratch);
                let user = ctx.user_mut();
                user.scratch = scratch;
                user.indexes[f] = dir;
                let _ = objects;
            });
            rt.watch(tt, column.range()).expect("region in arena");
            rt.mark_dirty(tt).expect("registered tthread");
            tts.push(tt);
        }

        let mut digest = Digest::new();
        for txn in &self.txns {
            rt.with(|ctx| {
                for &(f, o, v) in &txn.writes {
                    ctx.write(columns[f], o, v);
                }
            });
            for &tt in &tts {
                util::must_join(&mut rt, tt);
            }
            let answer = rt.with(|ctx| {
                let mut answer = 0u64;
                for &(f, b) in &txn.queries {
                    answer = answer
                        .wrapping_mul(31)
                        .wrapping_add(ctx.user().indexes[f][b]);
                }
                answer
            });
            digest.push_u64(answer);
        }
        util::dtt_run_report(&rt, digest.finish())
    }

    fn trace(&self) -> Trace {
        let mut b = TraceBuilder::new();
        let tts: Vec<u32> = (0..FIELDS)
            .map(|f| {
                let tt = b.declare_tthread(&format!("index_field_{f}"));
                b.declare_watch(
                    tt,
                    FIELD_BASE + f as u64 * FIELD_STRIDE,
                    8 * self.objects as u64,
                );
                tt
            })
            .collect();
        self.kernel(&mut b, &tts);
        b.finish().expect("kernel emits a well-formed trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_deterministic_and_value_sensitive() {
        let col = vec![1, 2, 3, 4, 5];
        assert_eq!(build_index(&col), build_index(&col));
        let mut changed = col.clone();
        changed[2] = 99;
        assert_ne!(build_index(&col), build_index(&changed));
    }

    #[test]
    fn dtt_matches_baseline() {
        let w = Vortex::new(Scale::Test);
        assert_eq!(w.run_baseline(), w.run_dtt(Config::default()).digest);
    }

    #[test]
    fn dtt_matches_baseline_parallel() {
        let w = Vortex::new(Scale::Test);
        assert_eq!(
            w.run_baseline(),
            w.run_dtt(Config::default().with_workers(2)).digest
        );
    }

    #[test]
    fn silent_upserts_skip_index_maintenance() {
        let w = Vortex::new(Scale::Test);
        let run = w.run_dtt(Config::default());
        let skips: u64 = run.tthreads.iter().map(|t| t.skips).sum();
        let execs: u64 = run.tthreads.iter().map(|t| t.executions).sum();
        assert!(skips > execs, "skips={skips} execs={execs}");
        assert!(run.stats.counters().silent_stores > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            Vortex::new(Scale::Test).run_baseline(),
            Vortex::new(Scale::Test).run_baseline()
        );
    }
}
