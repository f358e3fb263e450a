//! The hierarchical watched-address filter.
//!
//! Every changing tracked store must answer "could any watch match this
//! range?" before touching the trigger table. The table lookup walks
//! address buckets; the filter answers the common *no* from one or two
//! word loads instead.
//!
//! # Structure
//!
//! Two bitmap levels, both plain `u64` words sized to the arena — no
//! wrapping, so distinct pages never alias:
//!
//! * **Level 1 — pages.** One bit per 4 KiB page, allocated eagerly (the
//!   default 4 GiB arena needs 128 KiB of zeroed words). A store whose
//!   pages carry no bit exits after one load per page word — for the
//!   overwhelmingly common single-page store, exactly one load.
//! * **Level 2 — lines.** One word per watched page holding one bit per
//!   64-byte line (64 lines × 64 B = 4 KiB). Line words live in lazily
//!   allocated chunks, so a huge arena with a handful of watches only
//!   materializes the chunks those watches touch. A store that lands on a
//!   watched page but misses every watched *line* exits here, still
//!   without a table lookup.
//!
//! # Correctness contract
//!
//! The filter must never under-approximate: a probe miss must *prove* the
//! trigger table would find no hit. The table matches rounded ranges —
//! `rounded(store) ∩ rounded(watch)` at the configured
//! [`Granularity`] — while the probe tests the store's *raw* line cover,
//! so [`WatchFilter::watch`] sets bits for the watch's rounded range padded
//! outward by `width − 1` bytes. If the rounded ranges share a byte, that
//! byte lies within `width − 1` bytes of the raw store, so the padded watch
//! cover overlaps the raw store and shares one of its lines. Probe hits are
//! allowed to be spurious (the table settles precision); the proptest
//! below pins the no-false-negative direction.
//!
//! The filter lives in the runtime's locked state beside the trigger
//! table: `watch` sets bits and every probe reads them under the state
//! lock. Watches are never removed, so bits are only ever set.

use crate::addr::{AddrRange, Granularity};

/// Bytes per level-1 page (4 KiB): one page bit covers 64 line bits.
const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;

/// Bytes per level-2 line (matches the memory stripe and obs region size).
const LINE_SHIFT: u32 = 6;

/// Pages per lazily allocated line-word chunk (8192 pages = 64 KiB of
/// line words covering 32 MiB of arena).
const LINE_CHUNK_SHIFT: u32 = 13;
const LINE_CHUNK_PAGES: u64 = 1 << LINE_CHUNK_SHIFT;

/// Where a store-side probe exited the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FilterProbe {
    /// No page bit set: the cheapest exit, one load per page word (one
    /// load total for a single-page store).
    MissPage,
    /// A page bit was set but no watched line overlaps the store: exits at
    /// level 2, still without a trigger-table lookup.
    MissLine,
    /// A watched line overlaps the store; the caller must consult the
    /// trigger table (which may still find no precise hit).
    Hit,
}

impl FilterProbe {
    /// Whether the probe proves no trigger can match (either miss level).
    #[inline]
    pub(crate) fn is_miss(self) -> bool {
        !matches!(self, FilterProbe::Hit)
    }
}

/// The two-level watched-address filter. See the module docs.
#[derive(Debug)]
pub(crate) struct WatchFilter {
    /// Level 1: bit `p & 63` of word `p >> 6` covers page `p`.
    pages: Box<[u64]>,
    /// Level 2: one line-bit word per page, in lazily allocated chunks of
    /// [`LINE_CHUNK_PAGES`] pages.
    lines: Vec<Option<Box<[u64]>>>,
    /// Pages covered by the arena capacity.
    npages: u64,
}

/// Bits `lo..=hi` (both ≤ 63) of a 64-bit word.
#[inline]
fn bit_span(lo: u32, hi: u32) -> u64 {
    debug_assert!(lo <= hi && hi < 64);
    let span = hi - lo;
    if span >= 63 {
        u64::MAX
    } else {
        ((1u64 << (span + 1)) - 1) << lo
    }
}

/// Line bits of page `page` covered by the byte interval `[first, last]`
/// (inclusive); the interval must overlap the page.
#[inline]
fn line_mask_within_page(first: u64, last: u64, page: u64) -> u64 {
    let page_first = page << PAGE_SHIFT;
    let page_last = page_first + PAGE_BYTES - 1;
    let lo = ((first.max(page_first) >> LINE_SHIFT) & 63) as u32;
    let hi = ((last.min(page_last) >> LINE_SHIFT) & 63) as u32;
    bit_span(lo, hi)
}

impl WatchFilter {
    /// Creates a filter covering an arena of `capacity` bytes with no
    /// watches set.
    pub(crate) fn new(capacity: u64) -> Self {
        let npages = capacity.div_ceil(PAGE_BYTES);
        let page_words = npages.div_ceil(64) as usize;
        let line_chunks = npages.div_ceil(LINE_CHUNK_PAGES) as usize;
        WatchFilter {
            pages: vec![0; page_words].into_boxed_slice(),
            lines: vec![None; line_chunks],
            npages,
        }
    }

    /// The line-bit word of `page`, materializing its chunk.
    fn line_word(&mut self, page: u64) -> &mut u64 {
        let pages_in_chunk =
            (self.npages - (page & !(LINE_CHUNK_PAGES - 1))).min(LINE_CHUNK_PAGES) as usize;
        let chunk = self.lines[(page >> LINE_CHUNK_SHIFT) as usize]
            .get_or_insert_with(|| vec![0; pages_in_chunk].into_boxed_slice());
        &mut chunk[(page & (LINE_CHUNK_PAGES - 1)) as usize]
    }

    /// The line-bit word of `page` if its chunk exists.
    #[inline]
    fn line_word_opt(&self, page: u64) -> Option<u64> {
        let chunk = self.lines[(page >> LINE_CHUNK_SHIFT) as usize].as_ref()?;
        Some(chunk[(page & (LINE_CHUNK_PAGES - 1)) as usize])
    }

    /// The filter cover of a watch on `range` at `granularity`, as an
    /// inclusive byte interval: the rounded range padded outward by
    /// `width − 1` bytes (how far store-side rounding can reach toward the
    /// watch), clamped to the filter's page coverage.
    fn padded_span(&self, range: AddrRange, granularity: Granularity) -> Option<(u64, u64)> {
        let rounded = range.round_to(granularity);
        if rounded.is_empty() || self.npages == 0 {
            return None;
        }
        let pad = (granularity.width() - 1) as u64;
        let first = rounded.start().raw().saturating_sub(pad);
        let limit = self.npages << PAGE_SHIFT;
        if first >= limit {
            return None;
        }
        let last = (rounded.end().raw() - 1).saturating_add(pad).min(limit - 1);
        Some((first, last))
    }

    /// Sets the filter bits covering a watch on `range` at `granularity`.
    pub(crate) fn watch(&mut self, range: AddrRange, granularity: Granularity) {
        let Some((first, last)) = self.padded_span(range, granularity) else {
            return;
        };
        let p0 = first >> PAGE_SHIFT;
        let p1 = last >> PAGE_SHIFT;
        for p in p0..=p1 {
            *self.line_word(p) |= line_mask_within_page(first, last, p);
        }
        for w in (p0 >> 6)..=(p1 >> 6) {
            let lo = if w == p0 >> 6 { (p0 & 63) as u32 } else { 0 };
            let hi = if w == p1 >> 6 { (p1 & 63) as u32 } else { 63 };
            self.pages[w as usize] |= bit_span(lo, hi);
        }
    }

    /// Store-side membership probe over the *raw* store range. A miss
    /// proves the trigger table holds no watch whose rounded range can
    /// intersect the store's rounded range; a hit sends the caller to the
    /// table.
    #[inline]
    pub(crate) fn probe(&self, range: AddrRange) -> FilterProbe {
        if range.is_empty() {
            return FilterProbe::MissPage;
        }
        let first = range.start().raw();
        let last = range.end().raw() - 1;
        let p0 = first >> PAGE_SHIFT;
        let p1 = last >> PAGE_SHIFT;
        if p1 >= self.npages {
            // Out of the filter's coverage (stores are bounds-checked
            // upstream, so this is defensive): over-approximate.
            return FilterProbe::Hit;
        }
        if p0 == p1 {
            // The common case — a store inside one page: a single page-bit
            // load decides the unwatched-traffic exit.
            if self.pages[(p0 >> 6) as usize] & (1u64 << (p0 & 63)) == 0 {
                return FilterProbe::MissPage;
            }
            let Some(lw) = self.line_word_opt(p0) else {
                return FilterProbe::Hit;
            };
            if lw & line_mask_within_page(first, last, p0) == 0 {
                return FilterProbe::MissLine;
            }
            return FilterProbe::Hit;
        }
        let mut descended = false;
        for p in p0..=p1 {
            if self.pages[(p >> 6) as usize] & (1u64 << (p & 63)) == 0 {
                continue;
            }
            descended = true;
            let Some(lw) = self.line_word_opt(p) else {
                return FilterProbe::Hit;
            };
            if lw & line_mask_within_page(first, last, p) != 0 {
                return FilterProbe::Hit;
            }
        }
        if descended {
            FilterProbe::MissLine
        } else {
            FilterProbe::MissPage
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::trigger::{LookupScratch, TriggerTable};
    use crate::tthread::TthreadId;
    use proptest::prelude::*;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(Addr::new(start), len)
    }

    #[test]
    fn distinct_pages_never_alias() {
        // The seed's single-word filter wrapped page indices mod 64, so a
        // watch on page 0 slow-pathed every store to pages 64, 128, ...;
        // the sized bitmap keeps them apart.
        let mut f = WatchFilter::new(1 << 30);
        f.watch(r(0, 64), Granularity::Exact);
        assert_eq!(f.probe(r(16, 8)), FilterProbe::Hit);
        for aliased_page in [64u64, 128, 192, 1024] {
            let addr = aliased_page * PAGE_BYTES + 16;
            assert_eq!(
                f.probe(r(addr, 8)),
                FilterProbe::MissPage,
                "page {aliased_page} aliased a watch on page 0"
            );
        }
    }

    #[test]
    fn line_level_separates_traffic_within_a_watched_page() {
        let mut f = WatchFilter::new(1 << 20);
        // Watch line 0 of page 3.
        f.watch(r(3 * PAGE_BYTES, 64), Granularity::Exact);
        // Same page, line 32: descends to level 2 and misses there.
        assert_eq!(
            f.probe(r(3 * PAGE_BYTES + 32 * 64, 8)),
            FilterProbe::MissLine
        );
        // Same line: hit.
        assert_eq!(f.probe(r(3 * PAGE_BYTES + 8, 4)), FilterProbe::Hit);
        // Different page: level-1 exit.
        assert_eq!(f.probe(r(2 * PAGE_BYTES, 8)), FilterProbe::MissPage);
    }

    #[test]
    fn coarse_granularity_covers_the_rounded_watch() {
        // At Block(256) a store sharing the watch's block matches the
        // table even when it's far outside the raw watch range; the filter
        // cover must span the whole rounded watch or it would under-filter.
        let g = Granularity::Block(256);
        let mut f = WatchFilter::new(1 << 20);
        let watch = r(4200, 64); // rounds to [4096, 4352)
        f.watch(watch, g);
        // 104 bytes before the raw watch, same 256-byte block.
        let store = r(4096, 1);
        assert!(
            store.round_to(g).intersects(&watch.round_to(g)),
            "test premise: the table would match"
        );
        assert_eq!(f.probe(store), FilterProbe::Hit);
        // Past the padded cover ([4096-255, 4352+255)) but on the same
        // page: the page bit is set, the line bit is not.
        assert_eq!(f.probe(r(4700, 1)), FilterProbe::MissLine);
    }

    #[test]
    fn empty_and_out_of_cover_ranges() {
        let mut f = WatchFilter::new(PAGE_BYTES);
        assert_eq!(f.probe(r(100, 0)), FilterProbe::MissPage);
        // Beyond the filter's coverage: defensive over-approximation.
        assert_eq!(f.probe(r(PAGE_BYTES * 2, 8)), FilterProbe::Hit);
        // Watching outside the cover is a no-op, not a panic.
        f.watch(r(PAGE_BYTES * 2, 8), Granularity::Exact);
        f.watch(r(0, 0), Granularity::Exact);
        assert_eq!(f.probe(r(0, 8)), FilterProbe::MissPage);
    }

    #[test]
    fn multi_page_store_descends_only_on_watched_pages() {
        let mut f = WatchFilter::new(1 << 20);
        f.watch(r(5 * PAGE_BYTES + 100, 8), Granularity::Exact);
        // A store spanning pages 4..=6 must hit via page 5.
        assert_eq!(
            f.probe(r(4 * PAGE_BYTES + 4000, 2 * PAGE_BYTES)),
            FilterProbe::Hit
        );
        // Pages 0..=2: clean level-1 miss.
        assert_eq!(f.probe(r(100, 2 * PAGE_BYTES)), FilterProbe::MissPage);
    }

    /// Strategy mirroring the table's granularity space, `Block` included
    /// (widths above 64 are what force the watch-side padding).
    fn granularities() -> impl Strategy<Value = Granularity> {
        prop_oneof![
            Just(Granularity::Exact),
            Just(Granularity::Word),
            Just(Granularity::Line),
            (0u32..=10).prop_map(|s| Granularity::Block(1 << s)),
        ]
    }

    const PROP_ARENA: u64 = 1 << 18; // 64 pages

    fn ranges() -> impl Strategy<Value = AddrRange> {
        (0u64..PROP_ARENA, 1u64..300).prop_map(|(s, l)| r(s, l.min(PROP_ARENA - s).max(1)))
    }

    proptest! {
        /// Filter consistency: whenever the trigger table would match a
        /// store, the filter probe hits — no false negatives at either
        /// level.
        #[test]
        fn probe_never_misses_a_table_match(
            g in granularities(),
            watches in proptest::collection::vec(ranges(), 1..8),
            stores in proptest::collection::vec(ranges(), 1..32),
        ) {
            let mut table = TriggerTable::new(g);
            let mut filter = WatchFilter::new(PROP_ARENA);
            for (i, w) in watches.iter().enumerate() {
                table.watch(TthreadId::new(i as u32), *w);
                filter.watch(*w, g);
            }
            let mut scratch = LookupScratch::new();
            for s in &stores {
                table.lookup_with(*s, &mut scratch);
                if !scratch.hits().is_empty() {
                    prop_assert_eq!(
                        filter.probe(*s), FilterProbe::Hit,
                        "false negative for store {} against {:?} at {}", s, watches, g
                    );
                }
            }
        }
    }
}
