//! The incremental computation graph: tthreads that trigger tthreads.
//!
//! The runtime already closes the single-tthread loop — a committed
//! non-silent store re-enters trigger detection and can retrigger its own
//! writer. This module applies that elimination *transitively*: when one
//! tthread's committed writes land in another tthread's trigger region,
//! the commit raises the downstream slot through the ordinary CAS status
//! machine, turning the runtime into a DICE-style incremental dataflow
//! engine. Three pieces live here:
//!
//! * **The versioned edge map.** Each tthread's *watch* regions (the
//!   reader side) are mirrored out of the trigger table, and its declared
//!   *output* regions (the writer side, [`crate::runtime::Runtime::declare_output`])
//!   are recorded alongside. An edge `W → R` exists when an output region
//!   of `W` overlaps a watch region of `R` at the configured granularity.
//! * **Per-epoch wave deduplication.** Every commit (and every inline
//!   body execution) opens a new *wave epoch*. A downstream tthread is
//!   raised at most once per epoch, no matter how many of the commit's
//!   stores land in its trigger regions: later hits are absorbed as
//!   `wave_dedups` without touching the status machine (beyond setting
//!   the rerun flag on a mid-commit claimant, which keeps view freshness
//!   exact — see `DepGraph::begin_wave`).
//! * **Cycle detection.** Installing a watch or declaring an output runs
//!   a DFS over the declared edge map under the state lock; an edge that
//!   would close a cross-tthread cycle is rejected with
//!   [`crate::error::Error::TriggerCycle`] instead of being allowed to
//!   livelock the wave. Self-loops (a tthread watching its own output)
//!   are *not* rejected: that is the established self-retrigger pattern,
//!   bounded by [`crate::config::Config::commit_retry_cap`], which also
//!   backstops dynamic cycles the declared map cannot see.
//!
//! The fourth piece — **early cutoff** — closes each wave epoch when its
//! execution ends (inline run or commit): a cascade-driven
//! recomputation whose stores are fully silent (zero
//! non-silent lines) stops the wave and is counted as a transitive skip
//! (`cascade_cutoffs`): silent stores raise nothing, so a fully silent
//! commit has nothing to propagate.

use crate::addr::{AddrRange, Granularity};
use crate::tthread::TthreadId;

/// A declared dependency edge of the incremental computation graph:
/// `writer`'s declared output region overlaps `reader`'s trigger region,
/// so `writer`'s non-silent commits raise `reader`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// The upstream tthread whose declared output feeds the edge.
    pub writer: TthreadId,
    /// The downstream tthread whose watch region receives it.
    pub reader: TthreadId,
}

/// The dependency-graph half of the runtime state: region mirrors for the
/// declared edge map, plus the per-tthread wave bookkeeping (raise epoch
/// and wave depth). Lives inside `State` — every access happens under the
/// state lock, which already serializes commits, watch installation and
/// trigger raising.
#[derive(Debug)]
pub(crate) struct DepGraph {
    /// Trigger-match granularity; region overlap is evaluated after
    /// rounding to it, matching what the trigger table will actually do.
    granularity: Granularity,
    /// Declared output regions per tthread (writer side of edges).
    outputs: Vec<Vec<AddrRange>>,
    /// Mirror of the installed watch regions per tthread (reader side).
    watches: Vec<Vec<AddrRange>>,
    /// Wave epoch a tthread was last cascade-raised in (0 = never).
    last_raise: Vec<u64>,
    /// Wave depth of a tthread's most recent cascade raise; reset to 0
    /// when the raised execution commits (or when an external store
    /// re-dirties it at depth 0).
    depth: Vec<u32>,
    /// Current wave epoch; bumped once per commit replay and once per
    /// inline body execution, so dedup is per *commit*, not per store.
    epoch: u64,
}

impl DepGraph {
    pub(crate) fn new(granularity: Granularity) -> Self {
        DepGraph {
            granularity,
            outputs: Vec::new(),
            watches: Vec::new(),
            last_raise: Vec::new(),
            depth: Vec::new(),
            epoch: 0,
        }
    }

    /// Grows every per-tthread vector to cover index `idx`.
    pub(crate) fn ensure(&mut self, idx: usize) {
        if self.outputs.len() <= idx {
            let len = idx + 1;
            self.outputs.resize_with(len, Vec::new);
            self.watches.resize_with(len, Vec::new);
            self.last_raise.resize(len, 0);
            self.depth.resize(len, 0);
        }
    }

    /// Opens a new wave epoch (one commit replay or one inline body).
    pub(crate) fn begin_wave(&mut self) {
        self.epoch += 1;
    }

    /// Whether `id` was already cascade-raised in the current epoch.
    pub(crate) fn raised_this_epoch(&self, id: TthreadId) -> bool {
        self.last_raise[id.index()] == self.epoch
    }

    /// Records a cascade raise of `id` at wave depth `depth` in the
    /// current epoch. Deeper waves win so the depth reported at cutoff is
    /// the longest chain that reached the tthread.
    pub(crate) fn mark_raised(&mut self, id: TthreadId, depth: u32) {
        let i = id.index();
        self.last_raise[i] = self.epoch;
        self.depth[i] = self.depth[i].max(depth);
    }

    /// The wave depth of `id`'s most recent cascade raise (0 = raised
    /// externally, or never).
    pub(crate) fn wave_depth(&self, id: TthreadId) -> u32 {
        self.depth[id.index()]
    }

    /// Clears `id`'s wave depth after its raised execution committed (the
    /// wave either continued through the commit's own raises or stopped).
    pub(crate) fn clear_depth(&mut self, id: TthreadId) {
        self.depth[id.index()] = 0;
    }

    /// Mirrors a watch installation (reader side of the edge map).
    pub(crate) fn add_watch(&mut self, id: TthreadId, range: AddrRange) {
        self.ensure(id.index());
        self.watches[id.index()].push(range);
    }

    /// Removes one mirrored watch (the first region equal to `range`).
    pub(crate) fn remove_watch(&mut self, id: TthreadId, range: AddrRange) {
        self.ensure(id.index());
        let regions = &mut self.watches[id.index()];
        if let Some(pos) = regions.iter().position(|r| *r == range) {
            regions.swap_remove(pos);
        }
    }

    /// Records a declared output region (writer side of the edge map).
    pub(crate) fn add_output(&mut self, id: TthreadId, range: AddrRange) {
        self.ensure(id.index());
        self.outputs[id.index()].push(range);
    }

    /// Removes one declared output (undo for a rejected edge).
    pub(crate) fn remove_output(&mut self, id: TthreadId, range: AddrRange) {
        let regions = &mut self.outputs[id.index()];
        if let Some(pos) = regions.iter().position(|r| *r == range) {
            regions.swap_remove(pos);
        }
    }

    fn overlaps(&self, a: &AddrRange, b: &AddrRange) -> bool {
        a.round_to(self.granularity)
            .intersects(&b.round_to(self.granularity))
    }

    /// Whether the declared edge `writer → reader` exists (cross-tthread
    /// only: self-loops are the retry-cap-governed self-retrigger path).
    fn has_edge(&self, writer: usize, reader: usize) -> bool {
        if writer == reader {
            return false;
        }
        self.outputs[writer].iter().any(|out| {
            self.watches[reader]
                .iter()
                .any(|watch| self.overlaps(out, watch))
        })
    }

    /// Every declared edge, writer-major.
    pub(crate) fn edges(&self) -> Vec<GraphEdge> {
        let n = self.outputs.len();
        let mut edges = Vec::new();
        for w in 0..n {
            for r in 0..n {
                if self.has_edge(w, r) {
                    edges.push(GraphEdge {
                        writer: TthreadId::new(w as u32),
                        reader: TthreadId::new(r as u32),
                    });
                }
            }
        }
        edges
    }

    /// DFS over the declared edge map looking for a cycle through
    /// `start`. Returns the cycle path (starting and ending at `start`,
    /// in wave order) if one exists. Called under the state lock whenever
    /// an edge endpoint changes — the graph is small (tens of tthreads)
    /// and edges are recomputed from the region mirrors, so no separate
    /// adjacency structure needs maintaining.
    pub(crate) fn find_cycle(&self, start: TthreadId) -> Option<Vec<TthreadId>> {
        let n = self.outputs.len();
        let s = start.index();
        // Iterative DFS with an explicit path stack so the cycle can be
        // reported in wave order.
        let mut visited = vec![false; n];
        let mut path: Vec<usize> = vec![s];
        let mut iters: Vec<usize> = vec![0];
        while let Some(&node) = path.last() {
            let next = iters.last_mut().expect("stacks move in lockstep");
            let mut advanced = false;
            while *next < n {
                let cand = *next;
                *next += 1;
                if !self.has_edge(node, cand) {
                    continue;
                }
                if cand == s {
                    let mut cycle: Vec<TthreadId> =
                        path.iter().map(|&i| TthreadId::new(i as u32)).collect();
                    cycle.push(start);
                    return Some(cycle);
                }
                if !visited[cand] {
                    visited[cand] = true;
                    path.push(cand);
                    iters.push(0);
                    advanced = true;
                    break;
                }
            }
            if !advanced && path.last() == Some(&node) {
                path.pop();
                iters.pop();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn g() -> DepGraph {
        let mut g = DepGraph::new(Granularity::Exact);
        g.ensure(3);
        g
    }

    fn range(start: u64, len: u64) -> AddrRange {
        AddrRange::new(Addr::new(start), len)
    }

    #[test]
    fn edges_require_overlap_between_output_and_watch() {
        let mut g = g();
        g.add_output(TthreadId::new(0), range(0, 8));
        g.add_watch(TthreadId::new(1), range(4, 8));
        g.add_watch(TthreadId::new(2), range(100, 8));
        let edges = g.edges();
        assert_eq!(
            edges,
            vec![GraphEdge {
                writer: TthreadId::new(0),
                reader: TthreadId::new(1),
            }]
        );
    }

    #[test]
    fn self_loops_are_not_edges() {
        let mut g = g();
        g.add_output(TthreadId::new(0), range(0, 8));
        g.add_watch(TthreadId::new(0), range(0, 8));
        assert!(g.edges().is_empty());
        assert!(g.find_cycle(TthreadId::new(0)).is_none());
    }

    #[test]
    fn word_granularity_widens_overlap() {
        let mut g = DepGraph::new(Granularity::Word);
        g.ensure(1);
        // Disjoint at byte granularity, same 8-byte word.
        g.add_output(TthreadId::new(0), range(0, 1));
        g.add_watch(TthreadId::new(1), range(2, 1));
        assert_eq!(g.edges().len(), 1);
    }

    #[test]
    fn three_node_cycle_is_found_in_wave_order() {
        let mut g = g();
        for (writer, region) in [(0u32, 0u64), (1, 16), (2, 32)] {
            g.add_output(TthreadId::new(writer), range(region, 8));
        }
        // 0 → 1 → 2 → 0.
        g.add_watch(TthreadId::new(1), range(0, 8));
        g.add_watch(TthreadId::new(2), range(16, 8));
        g.add_watch(TthreadId::new(0), range(32, 8));
        let cycle = g.find_cycle(TthreadId::new(0)).expect("cycle exists");
        let ids: Vec<u32> = cycle.iter().map(|id| id.index() as u32).collect();
        assert_eq!(ids, vec![0, 1, 2, 0]);
        // Removing any edge endpoint breaks it.
        g.remove_watch(TthreadId::new(2), range(16, 8));
        assert!(g.find_cycle(TthreadId::new(0)).is_none());
    }

    #[test]
    fn diamond_is_acyclic() {
        let mut g = g();
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3: a join, not a cycle.
        g.add_output(TthreadId::new(0), range(0, 8));
        g.add_output(TthreadId::new(1), range(16, 8));
        g.add_output(TthreadId::new(2), range(24, 8));
        g.add_watch(TthreadId::new(1), range(0, 8));
        g.add_watch(TthreadId::new(2), range(0, 8));
        g.add_watch(TthreadId::new(3), range(16, 16));
        for t in 0..4 {
            assert!(g.find_cycle(TthreadId::new(t)).is_none(), "node {t}");
        }
        assert_eq!(g.edges().len(), 4);
    }

    #[test]
    fn wave_epoch_dedups_per_commit() {
        let mut g = g();
        let t = TthreadId::new(1);
        g.begin_wave();
        assert!(!g.raised_this_epoch(t));
        g.mark_raised(t, 1);
        assert!(g.raised_this_epoch(t));
        assert_eq!(g.wave_depth(t), 1);
        // Deeper raises win; shallower ones don't regress the depth.
        g.mark_raised(t, 3);
        g.mark_raised(t, 2);
        assert_eq!(g.wave_depth(t), 3);
        // A new epoch clears the dedup but not the depth…
        g.begin_wave();
        assert!(!g.raised_this_epoch(t));
        assert_eq!(g.wave_depth(t), 3);
        // …which only the committed execution clears.
        g.clear_depth(t);
        assert_eq!(g.wave_depth(t), 0);
    }

    #[test]
    fn removing_an_output_undoes_the_edge() {
        let mut g = g();
        g.add_output(TthreadId::new(0), range(0, 8));
        g.add_watch(TthreadId::new(1), range(0, 8));
        assert_eq!(g.edges().len(), 1);
        g.remove_output(TthreadId::new(0), range(0, 8));
        assert!(g.edges().is_empty());
    }
}
