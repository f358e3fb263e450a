//! `spreadsheet` — materialized-view recalculation over a grid of cells.
//!
//! The classic incremental-computation workload: a spreadsheet keeps a
//! chain of derived aggregates (per-row SUMs, a grand TOTAL, an AVG cell)
//! over a grid, and a stream of interactive edits lands on individual
//! cells. A batch engine recomputes every stage after every edit; the DTT
//! engine lets the stages *trigger each other* through the dependency
//! graph: an edit fires only its row's SUM tthread, whose commit cascades
//! to TOTAL, whose commit cascades to AVG — and the wave stops early
//! wherever a stage recomputes to the same value (early cutoff).
//!
//! The edit mix is tuned so every wave shape occurs: value edits ripple
//! all three stages (AVG often recomputes silently — a depth-2 cutoff),
//! sum-preserving swaps change the grid but leave the row SUM silent (the
//! wave dies at depth 0 with no cascade at all), and plain rewrites are
//! silent at the grid and never trigger anything.

use dtt_core::{Config, Runtime, TthreadId};
use dtt_trace::{NoProbe, Probe, Trace, TraceBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::suite::{DttRun, Scale, Workload};
use crate::util::{self, Digest};

const GRID_BASE: u64 = 0x1000_0000;
const ROWSUM_BASE: u64 = 0x2000_0000;
const TOTAL_BASE: u64 = 0x3000_0000;
const AVG_BASE: u64 = 0x4000_0000;

/// One edit step: writes applied to cells of a single row.
#[derive(Debug, Clone)]
struct Edit {
    row: usize,
    /// `(col, value)` stores, applied in order.
    writes: Vec<(usize, i64)>,
}

/// The spreadsheet workload instance: initial grid plus edit schedule.
#[derive(Debug, Clone)]
pub struct Spreadsheet {
    rows: usize,
    cols: usize,
    grid0: Vec<i64>,
    edits: Vec<Edit>,
}

impl Spreadsheet {
    /// Generates the instance for `scale` (deterministic).
    pub fn new(scale: Scale) -> Self {
        let (rows, cols, steps) = match scale {
            Scale::Test => (4, 32, 60),
            Scale::Train => (16, 32, 400),
            Scale::Reference => (64, 64, 2_000),
        };
        let mut rng = StdRng::seed_from_u64(0x5370_7264 + (rows * cols) as u64);
        let grid0: Vec<i64> = (0..rows * cols).map(|_| rng.gen_range(0..100)).collect();

        // Edit schedule, replayed against a shadow grid so silent edits are
        // genuinely silent and swaps genuinely preserve the row sum.
        // Mix: 1/10 value edits, 6/10 swaps, 3/10 silent rewrites.
        let mut grid = grid0.clone();
        let mut edits = Vec::with_capacity(steps);
        for _ in 0..steps {
            let r = rng.gen_range(0..rows);
            let roll: u32 = rng.gen_range(0..10);
            let writes = if roll == 0 {
                // Value edit: nudge one cell by a small nonzero delta. The
                // row sum and total always change; the AVG cell (integer
                // mean per cell) usually does not — a depth-2 cutoff.
                let c = rng.gen_range(0..cols);
                let mut delta = rng.gen_range(1..=3i64);
                if rng.gen_range(0..2u32) == 0 {
                    delta = -delta;
                }
                vec![(c, grid[r * cols + c] + delta)]
            } else if roll <= 6 {
                // Swap two unequal cells in the row: both stores change the
                // grid, but the row SUM recomputes to the same value.
                let mut a = rng.gen_range(0..cols);
                let mut b = rng.gen_range(0..cols);
                for _ in 0..8 {
                    if a != b && grid[r * cols + a] != grid[r * cols + b] {
                        break;
                    }
                    a = rng.gen_range(0..cols);
                    b = rng.gen_range(0..cols);
                }
                vec![(a, grid[r * cols + b]), (b, grid[r * cols + a])]
            } else {
                // Silent rewrite: store the value already there.
                let c = rng.gen_range(0..cols);
                vec![(c, grid[r * cols + c])]
            };
            for &(c, v) in &writes {
                grid[r * cols + c] = v;
            }
            edits.push(Edit { row: r, writes });
        }
        Spreadsheet {
            rows,
            cols,
            grid0,
            edits,
        }
    }

    /// Grid dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of edit steps.
    pub fn steps(&self) -> usize {
        self.edits.len()
    }

    /// The baseline/traced kernel: recompute every stage after every edit.
    /// Each row SUM is its own region (`tt_rows[r]`), mirroring the
    /// one-tthread-per-row runtime structure, so the simulator can skip
    /// the rows an edit did not touch.
    fn kernel<P: Probe>(&self, p: &mut P, tt_rows: &[u32], tt_total: u32, tt_avg: u32) -> u64 {
        let (rows, cols) = (self.rows, self.cols);
        let cells = (rows * cols) as i64;
        let mut grid = self.grid0.clone();
        let mut row_sums = vec![0i64; rows];
        let mut digest = Digest::new();
        // Program initialization: populate the grid.
        for (i, &v) in grid.iter().enumerate() {
            util::store_u64(p, 0, GRID_BASE, i, v as u64);
        }
        // One initial recompute pass (no digest) before the edit stream,
        // mirroring the runtime's forced initial mark-dirty joins so the
        // simulator's region-instance counts align with the software
        // runtime's execution counts.
        for edit in std::iter::once(None).chain(self.edits.iter().map(Some)) {
            if let Some(edit) = edit {
                for &(c, v) in &edit.writes {
                    util::store_u64(p, 1, GRID_BASE, edit.row * cols + c, v as u64);
                    grid[edit.row * cols + c] = v;
                }
            }

            // Stage 1: every row SUM, every step, one region per row.
            for (r, slot) in row_sums.iter_mut().enumerate() {
                p.region_begin(tt_rows[r]);
                let mut s = 0i64;
                for c in 0..cols {
                    let i = r * cols + c;
                    s += util::load_u64(p, 2, GRID_BASE, i, grid[i] as u64) as i64;
                }
                *slot = s;
                util::store_u64(p, 3, ROWSUM_BASE, r, s as u64);
                p.compute(cols as u64);
                p.region_end(tt_rows[r]);
                p.join(tt_rows[r]);
            }

            // Stage 2: grand total.
            p.region_begin(tt_total);
            let mut total = 0i64;
            for (r, &s) in row_sums.iter().enumerate() {
                total += util::load_u64(p, 4, ROWSUM_BASE, r, s as u64) as i64;
            }
            util::store_u64(p, 5, TOTAL_BASE, 0, total as u64);
            p.compute(rows as u64);
            p.region_end(tt_total);
            p.join(tt_total);

            // Stage 3: integer mean per cell.
            p.region_begin(tt_avg);
            let t = util::load_u64(p, 6, TOTAL_BASE, 0, total as u64) as i64;
            let avg = t / cells;
            util::store_u64(p, 7, AVG_BASE, 0, avg as u64);
            p.compute(1);
            p.region_end(tt_avg);
            p.join(tt_avg);

            if edit.is_some() {
                digest.push_u64(total as u64);
                digest.push_u64(avg as u64);
            }
        }
        digest.finish()
    }
}

impl Workload for Spreadsheet {
    fn name(&self) -> &'static str {
        "spreadsheet"
    }

    fn spec_inspiration(&self) -> &'static str {
        "materialized-view maintenance (paper §2 motivating pattern)"
    }

    fn description(&self) -> &'static str {
        "grid edits ripple a SUM→TOTAL→AVG tthread chain; early cutoff stops silent waves"
    }

    fn run_baseline(&self) -> u64 {
        let tt_rows: Vec<u32> = (0..self.rows as u32).collect();
        self.kernel(
            &mut NoProbe,
            &tt_rows,
            self.rows as u32,
            self.rows as u32 + 1,
        )
    }

    fn run_dtt(&self, cfg: Config) -> DttRun {
        let (rows, cols) = (self.rows, self.cols);
        let cells = (rows * cols) as i64;
        let mut rt = Runtime::new(cfg, ());
        let grid = rt
            .alloc_matrix::<i64>(rows, cols)
            .expect("arena sized for workload");
        let row_sums = rt
            .alloc_array::<i64>(rows)
            .expect("arena sized for workload");
        let total_cell = rt.alloc_array::<i64>(1).expect("arena sized for workload");
        let avg_cell = rt.alloc_array::<i64>(1).expect("arena sized for workload");

        // Populate the grid before any watches exist, so initialization
        // raises nothing.
        rt.with(|ctx| {
            for r in 0..rows {
                for c in 0..cols {
                    ctx.set(grid.at(r, c), self.grid0[r * cols + c]);
                }
            }
        });

        // Stage 1: one SUM tthread per row, each watching only its row.
        let row_tts: Vec<TthreadId> = (0..rows)
            .map(|r| {
                let id = rt.register(&format!("row_sum{r}"), move |ctx| {
                    let mut s = 0i64;
                    for c in 0..cols {
                        s += ctx.get(grid.at(r, c));
                    }
                    ctx.write(row_sums, r, s);
                });
                rt.watch(id, grid.row_range(r)).expect("region in arena");
                util::declare_output(&mut rt, id, row_sums.range_of(r, r + 1));
                id
            })
            .collect();

        // Stage 2: grand total over the row sums.
        let total_tt = rt.register("total", move |ctx| {
            let mut t = 0i64;
            for r in 0..rows {
                t += ctx.read(row_sums, r);
            }
            ctx.write(total_cell, 0, t);
        });
        rt.watch(total_tt, row_sums.range())
            .expect("region in arena");
        util::declare_output(&mut rt, total_tt, total_cell.range());

        // Stage 3: integer mean per cell.
        let avg_tt = rt.register("avg", move |ctx| {
            let t = ctx.read(total_cell, 0);
            ctx.write(avg_cell, 0, t / cells);
        });
        rt.watch(avg_tt, total_cell.range())
            .expect("region in arena");
        util::declare_output(&mut rt, avg_tt, avg_cell.range());

        // Initial recomputation in topological order.
        for &tt in &row_tts {
            rt.mark_dirty(tt).expect("registered tthread");
            util::must_join(&mut rt, tt);
        }
        rt.mark_dirty(total_tt).expect("registered tthread");
        util::must_join(&mut rt, total_tt);
        rt.mark_dirty(avg_tt).expect("registered tthread");
        util::must_join(&mut rt, avg_tt);

        let mut digest = Digest::new();
        for edit in &self.edits {
            rt.with(|ctx| {
                for &(c, v) in &edit.writes {
                    ctx.set(grid.at(edit.row, c), v);
                }
            });
            // Joins in topological order let each stage's commit cascade
            // to the next before it is joined.
            util::must_join(&mut rt, row_tts[edit.row]);
            util::must_join(&mut rt, total_tt);
            util::must_join(&mut rt, avg_tt);
            let (t, a) = rt.with(|ctx| (ctx.read(total_cell, 0), ctx.read(avg_cell, 0)));
            digest.push_u64(t as u64);
            digest.push_u64(a as u64);
        }
        util::dtt_run_report(&rt, digest.finish())
    }

    fn trace(&self) -> Trace {
        let mut b = TraceBuilder::new();
        let tt_rows: Vec<u32> = (0..self.rows)
            .map(|r| b.declare_tthread(&format!("row_sum{r}")))
            .collect();
        let tt_total = b.declare_tthread("total");
        let tt_avg = b.declare_tthread("avg");
        for (r, &tt) in tt_rows.iter().enumerate() {
            b.declare_watch(
                tt,
                GRID_BASE + 8 * (r * self.cols) as u64,
                8 * self.cols as u64,
            );
        }
        b.declare_watch(tt_total, ROWSUM_BASE, 8 * self.rows as u64);
        b.declare_watch(tt_avg, TOTAL_BASE, 8);
        self.kernel(&mut b, &tt_rows, tt_total, tt_avg);
        b.finish().expect("kernel emits a well-formed trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtt_core::Config;

    #[test]
    fn dtt_matches_baseline() {
        let w = Spreadsheet::new(Scale::Test);
        assert_eq!(w.run_baseline(), w.run_dtt(Config::default()).digest);
    }

    #[test]
    fn dtt_matches_baseline_parallel() {
        let w = Spreadsheet::new(Scale::Test);
        let base = w.run_baseline();
        assert_eq!(base, w.run_dtt(Config::default().with_workers(2)).digest);
    }

    #[test]
    fn cascades_flow_through_the_chain() {
        let w = Spreadsheet::new(Scale::Test);
        let run = w.run_dtt(Config::default());
        let c = run.stats.counters();
        assert!(c.cascades > 0, "value edits must cascade row→total→avg");
        assert!(
            c.cascade_cutoffs > 0,
            "the integer AVG must absorb some totals silently"
        );
        assert_eq!(
            c.cascades,
            c.cascade_enqueues + c.cascade_coalesced + c.cascade_cutoffs,
            "wave conservation"
        );
    }

    #[test]
    fn trace_is_well_formed() {
        let w = Spreadsheet::new(Scale::Test);
        let tr = w.trace();
        let (rows, _) = w.dims();
        let mut expected: Vec<String> = (0..rows).map(|r| format!("row_sum{r}")).collect();
        expected.push("total".to_string());
        expected.push("avg".to_string());
        assert_eq!(tr.tthread_names(), &expected);
        assert_eq!(tr.watches().len(), rows + 2);
        assert!(tr.instructions() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            Spreadsheet::new(Scale::Test).run_baseline(),
            Spreadsheet::new(Scale::Test).run_baseline()
        );
    }
}
