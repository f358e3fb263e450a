//! The trigger table: mapping store addresses to the tthreads they fire.
//!
//! The hardware analogue is an associative structure consulted by every
//! store. We index watched regions by fixed-size address *buckets* so that a
//! store consults only the regions near it, keeping tracked stores O(1) in
//! the common case.
//!
//! The table is append-only: a tthread's regions are attached when it is
//! set up ([`TriggerTable::watch`]) and stay for the runtime's life. The
//! runtime keeps it in its locked state, so `watch` and every store's
//! [`TriggerTable::lookup_with`] run under the state lock. The lookup is
//! allocation-free — callers supply a reusable [`LookupScratch`] whose
//! generation-stamped seen-marks replace the per-store dedup set.

use std::collections::HashMap;

use crate::addr::{AddrRange, Granularity};
use crate::tthread::TthreadId;

const BUCKET_SHIFT: u32 = 8; // 256-byte buckets

/// One trigger match produced by a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerHit {
    /// The tthread to fire.
    pub tthread: TthreadId,
    /// Whether the store's *precise* byte range overlapped the watched
    /// region. `false` means this is a false trigger introduced by coarse
    /// granularity.
    pub precise: bool,
}

#[derive(Debug, Clone)]
struct Region {
    range: AddrRange,
    rounded: AddrRange,
    tthread: TthreadId,
}

/// Reusable per-caller lookup state, making the per-store trigger lookup
/// allocation-free after warmup.
///
/// A store spanning several buckets can see the same region index more than
/// once; instead of collecting seen indices into a set (allocating, and
/// quadratic in the span), each lookup stamps `marks[region]` with the
/// current `generation` and skips already-stamped regions. Bumping the
/// generation invalidates every mark in O(1).
///
/// # Examples
///
/// ```
/// use dtt_core::addr::{Addr, AddrRange, Granularity};
/// use dtt_core::trigger::{LookupScratch, TriggerTable};
/// use dtt_core::tthread::TthreadId;
///
/// let mut table = TriggerTable::new(Granularity::Exact);
/// table.watch(TthreadId::new(0), AddrRange::new(Addr::new(0), 1024));
/// let mut scratch = LookupScratch::new();
/// table.lookup_with(AddrRange::new(Addr::new(100), 8), &mut scratch);
/// assert_eq!(scratch.hits().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct LookupScratch {
    /// `marks[i] == generation` ⇔ region `i` was already visited by the
    /// current lookup.
    marks: Vec<u32>,
    /// Stamp of the lookup in progress; `0` is never a valid stamp.
    generation: u32,
    /// Matches produced by the most recent lookup.
    pub(crate) hits: Vec<TriggerHit>,
}

impl LookupScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The matches produced by the most recent
    /// [`TriggerTable::lookup_with`] call.
    pub fn hits(&self) -> &[TriggerHit] {
        &self.hits
    }
}

/// Watched-region index consulted on every tracked store.
///
/// The table observes stores at a fixed [`Granularity`] chosen at
/// construction: both watched regions and incoming stores are rounded to
/// that granularity before matching, which is exactly how a word- or
/// line-grained hardware trigger mechanism behaves.
#[derive(Debug, Clone)]
pub struct TriggerTable {
    granularity: Granularity,
    regions: Vec<Region>,
    buckets: HashMap<u64, Vec<u32>>,
}

impl TriggerTable {
    /// Creates an empty table observing stores at `granularity`.
    pub fn new(granularity: Granularity) -> Self {
        TriggerTable {
            granularity,
            regions: Vec::new(),
            buckets: HashMap::new(),
        }
    }

    /// Watches `range` on behalf of `tthread`.
    ///
    /// Watching an empty range is a no-op that still succeeds (nothing can
    /// ever match it).
    pub fn watch(&mut self, tthread: TthreadId, range: AddrRange) {
        let rounded = range.round_to(self.granularity);
        let idx = self.regions.len() as u32;
        self.regions.push(Region {
            range,
            rounded,
            tthread,
        });
        for b in bucket_span(rounded) {
            self.buckets.entry(b).or_default().push(idx);
        }
    }

    /// Leaves in `scratch.hits()` (cleared first) the tthreads fired by a
    /// store to `store_range`, deduplicated by tthread. A hit is `precise`
    /// if any of the tthread's matched regions precisely overlaps the
    /// store. Allocation-free once `scratch` has grown to the table.
    pub fn lookup_with(&self, store_range: AddrRange, scratch: &mut LookupScratch) {
        scratch.hits.clear();
        let rounded = store_range.round_to(self.granularity);
        if rounded.is_empty() || self.buckets.is_empty() {
            return;
        }
        if scratch.marks.len() < self.regions.len() {
            scratch.marks.resize(self.regions.len(), 0);
        }
        scratch.generation = scratch.generation.wrapping_add(1);
        if scratch.generation == 0 {
            // Stamp wraparound: clear the marks so stale stamps from 2^32
            // lookups ago cannot alias.
            scratch.marks.fill(0);
            scratch.generation = 1;
        }
        let generation = scratch.generation;
        for b in bucket_span(rounded) {
            let Some(ids) = self.buckets.get(&b) else {
                continue;
            };
            for &idx in ids {
                let mark = &mut scratch.marks[idx as usize];
                if *mark == generation {
                    continue;
                }
                *mark = generation;
                let region = &self.regions[idx as usize];
                if !region.rounded.intersects(&rounded) {
                    continue;
                }
                let precise = region.range.intersects(&store_range);
                match scratch
                    .hits
                    .iter_mut()
                    .find(|h| h.tthread == region.tthread)
                {
                    Some(h) => h.precise |= precise,
                    None => scratch.hits.push(TriggerHit {
                        tthread: region.tthread,
                        precise,
                    }),
                }
            }
        }
    }
}

fn bucket_span(range: AddrRange) -> impl Iterator<Item = u64> {
    let first = range.start().raw() >> BUCKET_SHIFT;
    let last = if range.is_empty() {
        first
    } else {
        (range.end().raw() - 1) >> BUCKET_SHIFT
    };
    first..=last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(Addr::new(start), len)
    }

    /// The hits of one lookup through fresh scratch.
    fn fired(t: &TriggerTable, store: AddrRange) -> Vec<TriggerHit> {
        let mut scratch = LookupScratch::new();
        t.lookup_with(store, &mut scratch);
        scratch.hits
    }

    #[test]
    fn store_inside_watch_fires_precisely() {
        let mut t = TriggerTable::new(Granularity::Exact);
        let tt = TthreadId::new(0);
        t.watch(tt, r(100, 50));
        let hits = fired(&t, r(120, 4));
        assert_eq!(
            hits,
            vec![TriggerHit {
                tthread: tt,
                precise: true
            }]
        );
    }

    #[test]
    fn store_outside_watch_misses() {
        let mut t = TriggerTable::new(Granularity::Exact);
        t.watch(TthreadId::new(0), r(100, 50));
        assert!(fired(&t, r(150, 4)).is_empty());
        assert!(fired(&t, r(96, 4)).is_empty());
    }

    #[test]
    fn adjacent_store_at_line_granularity_is_false_trigger() {
        let mut t = TriggerTable::new(Granularity::Line);
        let tt = TthreadId::new(3);
        t.watch(tt, r(0, 8));
        // Store to bytes 32..36: same 64-byte line, no precise overlap.
        let hits = fired(&t, r(32, 4));
        assert_eq!(
            hits,
            vec![TriggerHit {
                tthread: tt,
                precise: false
            }]
        );
        // Store in the next line: no hit at all.
        assert!(fired(&t, r(64, 4)).is_empty());
    }

    #[test]
    fn multiple_regions_same_tthread_dedup() {
        let mut t = TriggerTable::new(Granularity::Exact);
        let tt = TthreadId::new(1);
        t.watch(tt, r(0, 16));
        t.watch(tt, r(8, 16));
        let hits = fired(&t, r(8, 8));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].precise);
    }

    #[test]
    fn multiple_tthreads_all_fire() {
        let mut t = TriggerTable::new(Granularity::Exact);
        t.watch(TthreadId::new(0), r(0, 16));
        t.watch(TthreadId::new(1), r(8, 16));
        let mut hits = fired(&t, r(8, 4));
        hits.sort_by_key(|h| h.tthread);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn large_region_spanning_buckets() {
        let mut t = TriggerTable::new(Granularity::Exact);
        let tt = TthreadId::new(0);
        t.watch(tt, r(0, 10_000));
        assert_eq!(fired(&t, r(9_999, 1)).len(), 1);
        assert_eq!(fired(&t, r(512, 8)).len(), 1);
        assert!(fired(&t, r(10_000, 1)).is_empty());
    }

    #[test]
    fn store_spanning_region_boundary_hits() {
        let mut t = TriggerTable::new(Granularity::Exact);
        t.watch(TthreadId::new(0), r(100, 8));
        // Store 96..104 straddles the start of the region.
        assert_eq!(fired(&t, r(96, 8)).len(), 1);
    }

    #[test]
    fn empty_watch_never_fires() {
        let mut t = TriggerTable::new(Granularity::Line);
        t.watch(TthreadId::new(0), r(100, 0));
        assert!(fired(&t, r(100, 4)).is_empty());
    }

    #[test]
    fn empty_store_never_fires() {
        let mut t = TriggerTable::new(Granularity::Line);
        t.watch(TthreadId::new(0), r(100, 8));
        assert!(fired(&t, r(100, 0)).is_empty());
    }

    #[test]
    fn word_granularity_rounding() {
        let mut t = TriggerTable::new(Granularity::Word);
        let tt = TthreadId::new(0);
        t.watch(tt, r(8, 4)); // watches word [8,16)
        let hits = fired(&t, r(13, 1)); // same word, outside precise range
        assert_eq!(
            hits,
            vec![TriggerHit {
                tthread: tt,
                precise: false
            }]
        );
        assert!(fired(&t, r(16, 1)).is_empty());
    }

    #[test]
    fn lookup_with_matches_lookup_across_reuse() {
        let mut t = TriggerTable::new(Granularity::Line);
        for i in 0..32u32 {
            t.watch(TthreadId::new(i % 8), r((i as u64) * 96, 80));
        }
        let mut scratch = LookupScratch::new();
        for start in (0..4096u64).step_by(40) {
            for len in [1u64, 8, 100, 700] {
                let store = r(start, len);
                t.lookup_with(store, &mut scratch);
                let mut fresh = fired(&t, store);
                let mut reused = scratch.hits().to_vec();
                fresh.sort_by_key(|h| h.tthread);
                reused.sort_by_key(|h| h.tthread);
                assert_eq!(fresh, reused, "mismatch at store {store}");
            }
        }
    }

    #[test]
    fn scratch_generation_wraparound_stays_correct() {
        let mut t = TriggerTable::new(Granularity::Exact);
        let tt = TthreadId::new(0);
        t.watch(tt, r(0, 512)); // spans buckets 0 and 1
        let mut scratch = LookupScratch::new();
        // Force the stamp to the wraparound boundary.
        scratch.generation = u32::MAX - 1;
        scratch.marks = vec![u32::MAX - 1; 1];
        for _ in 0..4 {
            t.lookup_with(r(200, 112), &mut scratch);
            assert_eq!(scratch.hits().len(), 1, "lost hit near wraparound");
        }
    }
}
