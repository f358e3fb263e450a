//! `served` — long-lived, servable variants of the multi-stage workloads.
//!
//! The batch workloads ([`crate::Spreadsheet`], [`crate::Pipeline`]) own
//! their runtime for the length of one scripted run. The serve front-end
//! (`dtt-serve`) instead needs the same dependency-graph views as
//! *long-lived state*: client writes batch into tracked stores, tthreads
//! maintain the derived aggregates, and reads are answered from the
//! last-committed derived cells. This module packages the two view shapes
//! for that lifecycle:
//!
//! * [`ServedSheet`] — grid → per-row SUM tthreads → TOTAL → AVG (the
//!   `spreadsheet` chain);
//! * [`ServedPipeline`] — raw samples → CLAMP → per-BUCKET sums → PEAK
//!   (the `pipeline` chain);
//! * [`ServedKeyed`] — a logical `key_space` (millions of keys) folded
//!   onto the sheet grid via [`KeyMap`], so `Put {key}`/`Get {key}`
//!   address per-shard-row tthread-maintained aggregates.
//!
//! Both expose the same verbs: `apply` a write to tracked input,
//! `refresh` the derived chain (joins in topological order, propagating
//! poison/timeout errors to the caller instead of panicking — the serve
//! engine repairs and retries), and cheap reads of the derived cells.
//! Unlike the batch kernels, `refresh` returns a [`dtt_core::Result`]: a
//! wedged tthread is a condition the front-end degrades around, not a
//! test failure.

use dtt_core::{Config, Runtime, TrackedArray, TrackedMatrix, TthreadId};

use crate::pipeline::{register_stages, Stages};
use crate::util;

/// A read of the sheet's derived cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SheetView {
    /// Grand total over the grid.
    pub total: i64,
    /// Integer mean per cell.
    pub avg: i64,
}

/// The long-lived spreadsheet view: a tracked grid whose per-row SUM,
/// TOTAL and AVG aggregates are maintained by cascading tthreads.
pub struct ServedSheet {
    rt: Runtime<()>,
    rows: usize,
    cols: usize,
    grid: TrackedMatrix<i64>,
    row_sums: TrackedArray<i64>,
    total_cell: TrackedArray<i64>,
    avg_cell: TrackedArray<i64>,
    /// The chain in topological order (row SUMs, TOTAL, AVG), built once:
    /// `refresh` runs per served put and must not allocate.
    order: Vec<TthreadId>,
}

impl ServedSheet {
    /// Builds the view: allocates the grid (zero-filled), registers the
    /// SUM → TOTAL → AVG chain and runs the initial recomputation.
    pub fn build(cfg: Config, rows: usize, cols: usize) -> Self {
        let cells = (rows * cols) as i64;
        let mut rt = Runtime::new(cfg, ());
        let grid = rt
            .alloc_matrix::<i64>(rows, cols)
            .expect("arena sized for view");
        let row_sums = rt.alloc_array::<i64>(rows).expect("arena sized for view");
        let total_cell = rt.alloc_array::<i64>(1).expect("arena sized for view");
        let avg_cell = rt.alloc_array::<i64>(1).expect("arena sized for view");

        let mut order: Vec<TthreadId> = (0..rows)
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

        let avg_tt = rt.register("avg", move |ctx| {
            let t = ctx.read(total_cell, 0);
            ctx.write(avg_cell, 0, t / cells);
        });
        rt.watch(avg_tt, total_cell.range())
            .expect("region in arena");
        util::declare_output(&mut rt, avg_tt, avg_cell.range());
        order.extend([total_tt, avg_tt]);

        let mut sheet = ServedSheet {
            rt,
            rows,
            cols,
            grid,
            row_sums,
            total_cell,
            avg_cell,
            order,
        };
        for &tt in &sheet.order {
            sheet.rt.mark_dirty(tt).expect("registered tthread");
        }
        // A fault plan or an impossible body deadline can wedge even this
        // initial refresh; the view is then born degraded (all-zero
        // derived cells) and the serve engine's repair loop owns it.
        let _ = sheet.refresh();
        sheet
    }

    /// Grid dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Applies a batch of `(row, col, value)` stores in one tracked
    /// region; out-of-range coordinates wrap, so any client key is valid.
    pub fn apply(&mut self, writes: &[(usize, usize, i64)]) {
        self.apply_iter(writes.iter().copied());
    }

    /// [`ServedSheet::apply`] over any `(row, col, value)` source, so the
    /// keyed view maps its keys inside the same tracked region instead of
    /// collecting an intermediate batch.
    fn apply_iter(&mut self, writes: impl Iterator<Item = (usize, usize, i64)>) {
        let (rows, cols, grid) = (self.rows, self.cols, self.grid);
        self.rt.with(|ctx| {
            for (r, c, v) in writes {
                ctx.set(grid.at(r % rows, c % cols), v);
            }
        });
    }

    /// Joins the chain in topological order so every commit cascades
    /// before its consumer is joined. Errors (poisoned/timed-out
    /// tthreads) propagate; the caller repairs via
    /// [`ServedSheet::runtime_mut`] and retries.
    pub fn refresh(&mut self) -> dtt_core::Result<()> {
        let ServedSheet { rt, order, .. } = self;
        for &tt in order.iter() {
            rt.join(tt)?;
        }
        Ok(())
    }

    /// Reads the derived cells (no refresh: last-committed state).
    pub fn read(&mut self) -> SheetView {
        let (total_cell, avg_cell) = (self.total_cell, self.avg_cell);
        let (total, avg) = self
            .rt
            .with(|ctx| (ctx.read(total_cell, 0), ctx.read(avg_cell, 0)));
        SheetView { total, avg }
    }

    /// Reads one row's tthread-maintained SUM (no refresh); out-of-range
    /// rows wrap, matching [`ServedSheet::apply`].
    pub fn read_row(&mut self, row: usize) -> i64 {
        let (rows, row_sums) = (self.rows, self.row_sums);
        self.rt.with(|ctx| ctx.read(row_sums, row % rows))
    }

    /// Snapshot of every row SUM (last-committed), for degraded-read
    /// caches.
    pub fn rows_snapshot(&mut self) -> Vec<i64> {
        let (rows, row_sums) = (self.rows, self.row_sums);
        self.rt
            .with(|ctx| (0..rows).map(|r| ctx.read(row_sums, r)).collect())
    }

    /// The underlying runtime, for stats, drain and repair verbs.
    pub fn runtime_mut(&mut self) -> &mut Runtime<()> {
        &mut self.rt
    }

    /// Consumes the view, returning the runtime for a final shutdown.
    pub fn into_runtime(self) -> Runtime<()> {
        self.rt
    }
}

/// A read of the pipeline's derived cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineView {
    /// Maximum bucket sum.
    pub peak: i64,
}

/// The long-lived pipeline view: tracked raw samples whose CLAMP →
/// BUCKET → PEAK stages are maintained by cascading tthreads (the batch
/// [`crate::Pipeline`]'s stages, recomputing only what changed).
pub struct ServedPipeline {
    rt: Runtime<()>,
    samples: usize,
    input: TrackedArray<i64>,
    peak_cell: TrackedArray<i64>,
    /// CLAMP, BUCKET and PEAK, in topological order.
    tthreads: [TthreadId; 3],
}

impl ServedPipeline {
    /// Builds the view: allocates `samples` zeroed inputs, registers the
    /// CLAMP → BUCKET → PEAK chain and runs the initial recomputation.
    pub fn build(cfg: Config, samples: usize, buckets: usize) -> Self {
        let mut rt = Runtime::new(cfg, ());
        let input = rt
            .alloc_array::<i64>(samples)
            .expect("arena sized for view");
        let Stages {
            tthreads,
            peak_cell,
        } = register_stages(&mut rt, input, buckets);
        let mut pipe = ServedPipeline {
            rt,
            samples,
            input,
            peak_cell,
            tthreads,
        };
        for tt in tthreads {
            pipe.rt.mark_dirty(tt).expect("registered tthread");
        }
        // Tolerate a wedged initial refresh (see [`ServedSheet::build`]).
        let _ = pipe.refresh();
        pipe
    }

    /// Number of raw samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Applies a batch of `(index, value)` raw-sample stores in one
    /// tracked region; indices wrap, so any client key is valid.
    pub fn apply(&mut self, writes: &[(usize, i64)]) {
        let (n, input) = (self.samples, self.input);
        self.rt.with(|ctx| {
            for &(i, v) in writes {
                ctx.write(input, i % n, v);
            }
        });
    }

    /// Joins the chain in topological order; errors propagate for the
    /// caller to repair (see [`ServedSheet::refresh`]).
    pub fn refresh(&mut self) -> dtt_core::Result<()> {
        for tt in self.tthreads {
            self.rt.join(tt)?;
        }
        Ok(())
    }

    /// Reads the derived peak (no refresh: last-committed state).
    pub fn read(&mut self) -> PipelineView {
        let peak_cell = self.peak_cell;
        let peak = self.rt.with(|ctx| ctx.read(peak_cell, 0));
        PipelineView { peak }
    }

    /// The underlying runtime, for stats, drain and repair verbs.
    pub fn runtime_mut(&mut self) -> &mut Runtime<()> {
        &mut self.rt
    }

    /// Consumes the view, returning the runtime for a final shutdown.
    pub fn into_runtime(self) -> Runtime<()> {
        self.rt
    }
}

/// The deterministic logical-key → shard-slot mapping of a
/// [`ServedKeyed`] view, small and `Copy` so front-end handlers can map
/// keys to shard-rows (for degraded-read caches) without touching the
/// runtime.
///
/// `key_space` logical keys fold onto `rows × cols` physical slots in
/// row-major order: `slot = key % (rows * cols)`, `row = slot / cols`.
/// Many logical keys share a slot (that is the point — millions of keys
/// over a bounded arena); within a slot, last write wins, and each
/// shard-row's aggregate is tthread-maintained over whatever its slots
/// hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyMap {
    /// Shard-rows in the backing grid.
    pub rows: usize,
    /// Slots per shard-row.
    pub cols: usize,
    /// Logical keys addressable by clients.
    pub key_space: u64,
}

impl KeyMap {
    /// The physical `(row, col)` slot a logical key folds onto.
    pub fn slot_of(&self, key: u64) -> (usize, usize) {
        let cells = (self.rows * self.cols).max(1) as u64;
        let slot = (key % self.key_space.max(1)) % cells;
        ((slot as usize) / self.cols, (slot as usize) % self.cols)
    }

    /// The shard-row a logical key's aggregate lives in.
    pub fn row_of(&self, key: u64) -> usize {
        self.slot_of(key).0
    }
}

/// The keyed store view: a `key_space` of logical keys (millions) folded
/// onto a `rows × cols` tracked grid, with the same SUM → TOTAL → AVG
/// tthread chain as [`ServedSheet`] maintaining one aggregate per
/// shard-row plus the global cells. `Put {key}` writes the key's slot;
/// `Get {key}` reads the key's *shard-row* aggregate — the paper's
/// skip path means an untouched row costs nothing to keep fresh, so the
/// served key space scales with traffic, not with key count.
///
/// Keyed writes are commutative across rows (PAPERS.md, "Flexible
/// Support for Fast Parallel Commutative Updates"): independent keyed
/// puts coalesce into one tracked-store batch with no ordering cost, and
/// only the rows the batch actually touched recompute.
pub struct ServedKeyed {
    sheet: ServedSheet,
    map: KeyMap,
}

impl ServedKeyed {
    /// Builds the view over a `rows × cols` grid serving `key_space`
    /// logical keys.
    pub fn build(cfg: Config, rows: usize, cols: usize, key_space: u64) -> Self {
        let sheet = ServedSheet::build(cfg, rows, cols);
        ServedKeyed {
            map: KeyMap {
                rows,
                cols,
                key_space: key_space.max(1),
            },
            sheet,
        }
    }

    /// The key → slot mapping (copyable; share it with handlers).
    pub fn key_map(&self) -> KeyMap {
        self.map
    }

    /// Applies a batch of `(key, value)` keyed puts in one tracked
    /// region. Keys fold per [`KeyMap`]; every client key is valid.
    pub fn apply(&mut self, writes: &[(u64, i64)]) {
        let map = self.map;
        self.sheet.apply_iter(writes.iter().map(|&(k, v)| {
            let (r, c) = map.slot_of(k);
            (r, c, v)
        }));
    }

    /// Joins the chain in topological order; errors propagate for the
    /// caller to repair (see [`ServedSheet::refresh`]).
    pub fn refresh(&mut self) -> dtt_core::Result<()> {
        self.sheet.refresh()
    }

    /// Reads the global derived cells (total/avg; no refresh).
    pub fn read(&mut self) -> SheetView {
        self.sheet.read()
    }

    /// Reads the tthread-maintained aggregate of `key`'s shard-row.
    pub fn read_key_row(&mut self, key: u64) -> i64 {
        let row = self.map.row_of(key);
        self.sheet.read_row(row)
    }

    /// Snapshot of every shard-row aggregate (last-committed), the
    /// degraded-read cache's keyed half.
    pub fn rows_snapshot(&mut self) -> Vec<i64> {
        self.sheet.rows_snapshot()
    }

    /// The underlying runtime, for stats, drain and repair verbs.
    pub fn runtime_mut(&mut self) -> &mut Runtime<()> {
        self.sheet.runtime_mut()
    }

    /// Consumes the view, returning the runtime for a final shutdown.
    pub fn into_runtime(self) -> Runtime<()> {
        self.sheet.into_runtime()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheet_serves_fresh_aggregates() {
        let mut sheet = ServedSheet::build(Config::default(), 4, 8);
        assert_eq!(sheet.read(), SheetView { total: 0, avg: 0 });
        sheet.apply(&[(0, 0, 10), (1, 3, 22), (3, 7, 64)]);
        sheet.refresh().unwrap();
        assert_eq!(sheet.read().total, 96);
        assert_eq!(sheet.read().avg, 96 / 32);
        // Wrapping keys: (4, 8) lands on (0, 0).
        sheet.apply(&[(4, 8, 42)]);
        sheet.refresh().unwrap();
        assert_eq!(sheet.read().total, 96 - 10 + 42);
    }

    #[test]
    fn sheet_skips_silent_batches() {
        let mut sheet = ServedSheet::build(Config::default(), 2, 4);
        sheet.apply(&[(0, 0, 5)]);
        sheet.refresh().unwrap();
        let execs0 = sheet.runtime_mut().stats().counters().executions;
        // Rewriting the same value is silent: no tthread runs.
        sheet.apply(&[(0, 0, 5)]);
        sheet.refresh().unwrap();
        let c = sheet.runtime_mut().stats();
        assert_eq!(c.counters().executions, execs0);
        assert!(c.counters().skips > 0);
    }

    #[test]
    fn pipeline_serves_fresh_peak_with_clamping() {
        let mut pipe = ServedPipeline::build(Config::default(), 16, 4);
        pipe.apply(&[(0, 50), (4, 30), (1, 500)]);
        pipe.refresh().unwrap();
        // Bucket 0 holds samples 0,4,8,12 → 50+30; sample 1 saturates at 99.
        assert_eq!(pipe.read().peak, 99);
        pipe.apply(&[(8, 40)]);
        pipe.refresh().unwrap();
        assert_eq!(pipe.read().peak, 120);
    }

    #[test]
    fn keyed_view_folds_keys_and_serves_row_aggregates() {
        // 4 rows x 8 cols = 32 slots serving a 1M key space.
        let mut keyed = ServedKeyed::build(Config::default(), 4, 8, 1 << 20);
        let map = keyed.key_map();
        assert_eq!(map.slot_of(0), (0, 0));
        assert_eq!(map.slot_of(9), (1, 1));
        // Keys 32 apart share a slot: last write wins.
        assert_eq!(map.slot_of(5), map.slot_of(37));

        keyed.apply(&[(0, 10), (9, 7), (5, 100)]);
        keyed.refresh().unwrap();
        assert_eq!(keyed.read_key_row(0), 110); // row 0: slots 0 and 5
        assert_eq!(keyed.read_key_row(9), 7); // row 1: slot 9
        assert_eq!(keyed.read().total, 117);

        // Slot collision: key 37 overwrites key 5's slot.
        keyed.apply(&[(37, 1)]);
        keyed.refresh().unwrap();
        assert_eq!(keyed.read_key_row(5), 11);
        assert_eq!(keyed.rows_snapshot(), vec![11, 7, 0, 0]);
    }

    #[test]
    fn keyed_rows_skip_when_untouched() {
        let mut keyed = ServedKeyed::build(Config::default(), 4, 8, 1 << 20);
        keyed.apply(&[(0, 3)]);
        keyed.refresh().unwrap();
        let execs0 = keyed.runtime_mut().stats().counters().executions;
        // A put to a different shard-row must not recompute row 0's SUM
        // more than the cascade requires; an identical rewrite is silent.
        keyed.apply(&[(0, 3)]);
        keyed.refresh().unwrap();
        let c = keyed.runtime_mut().stats();
        assert_eq!(c.counters().executions, execs0);
        assert!(c.counters().skips > 0);
    }

    #[test]
    fn served_views_work_with_workers_and_drain() {
        use std::time::Duration;
        let mut sheet = ServedSheet::build(Config::default().with_workers(2), 4, 8);
        sheet.apply(&[(2, 2, 7)]);
        sheet.refresh().unwrap();
        assert_eq!(sheet.read().total, 7);
        sheet.runtime_mut().drain(Duration::from_secs(10)).unwrap();
        // Still servable (deferred) after a drain.
        sheet.apply(&[(2, 3, 3)]);
        sheet.refresh().unwrap();
        assert_eq!(sheet.read().total, 10);
        sheet
            .into_runtime()
            .shutdown(Duration::from_secs(10))
            .unwrap();
    }
}
