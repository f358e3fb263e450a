//! Redundant-computation measurement.
//!
//! The paper argues that redundant loads imply *redundant computation*:
//! whole slices of the program recompute results whose inputs have not
//! changed. In a DTT-annotated trace that slice structure is explicit — the
//! regions — so redundancy can be measured exactly: a region instance is
//! redundant when **no watched byte changed value** since the region's
//! previous execution. [`RedundancyProfiler`] reports the fraction of
//! dynamic instructions spent in redundant region instances (R-Fig.2) and
//! the per-tthread silent-store statistics behind R-Tab.2.

use std::collections::HashMap;
use std::fmt;

use dtt_trace::{Event, Trace, TthreadIndex};

/// Per-tthread redundancy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TthreadRedundancy {
    /// Dynamic region instances observed.
    pub instances: u64,
    /// Instances whose watched inputs were unchanged (skippable).
    pub redundant_instances: u64,
    /// Instructions inside all instances.
    pub instructions: u64,
    /// Instructions inside redundant instances.
    pub redundant_instructions: u64,
    /// Stores that hit a watched range of this tthread.
    pub watched_stores: u64,
    /// Watched stores that did not change the value (silent).
    pub silent_watched_stores: u64,
}

impl TthreadRedundancy {
    /// Fraction of watched stores that were silent.
    pub fn silent_fraction(&self) -> f64 {
        fraction(self.silent_watched_stores, self.watched_stores)
    }
}

fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Whole-trace redundancy report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RedundancyProfile {
    /// Total dynamic instructions in the trace.
    pub total_instructions: u64,
    /// Per-tthread counters, indexed by [`TthreadIndex`].
    pub tthreads: Vec<TthreadRedundancy>,
}

impl RedundancyProfile {
    /// Instructions in redundant region instances, over all tthreads.
    pub fn redundant_instructions(&self) -> u64 {
        self.tthreads.iter().map(|t| t.redundant_instructions).sum()
    }

    /// Fraction of *all* dynamic instructions that were redundant
    /// computation — the quantity eliminated by DTT.
    pub fn redundant_fraction(&self) -> f64 {
        fraction(self.redundant_instructions(), self.total_instructions)
    }
}

impl fmt::Display for RedundancyProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} instructions redundant ({:.1}%) across {} tthreads",
            self.redundant_instructions(),
            self.total_instructions,
            100.0 * self.redundant_fraction(),
            self.tthreads.len()
        )
    }
}

/// Streaming redundant-computation profiler.
///
/// Maintains shadow memory to decide whether each store to a watched range
/// changed the value; a region instance whose tthread saw no changing
/// watched store since its previous instance is redundant.
///
/// The first instance of each region is conservatively counted as *not*
/// redundant (its result has never been computed).
#[derive(Debug)]
pub struct RedundancyProfiler {
    shadow: HashMap<u64, (u32, u64)>,
    dirty: Vec<bool>,
    in_region: Option<TthreadIndex>,
    current_redundant: bool,
    profile: RedundancyProfile,
    watches: Vec<dtt_trace::Watch>,
}

impl RedundancyProfiler {
    /// Creates a profiler for a trace with the given header.
    pub fn new(trace: &Trace) -> Self {
        let n = trace.tthread_names().len();
        RedundancyProfiler {
            shadow: HashMap::new(),
            // Every tthread starts dirty: its first instance must run.
            dirty: vec![true; n],
            in_region: None,
            current_redundant: false,
            profile: RedundancyProfile {
                total_instructions: 0,
                tthreads: vec![TthreadRedundancy::default(); n],
            },
            watches: trace.watches().to_vec(),
        }
    }

    /// Profiles a whole trace in one call.
    pub fn profile(trace: &Trace) -> RedundancyProfile {
        let mut p = Self::new(trace);
        for e in trace.events() {
            p.observe(e);
        }
        p.finish()
    }

    /// Feeds one event.
    pub fn observe(&mut self, event: &Event) {
        self.profile.total_instructions += event.instructions();
        match *event {
            Event::Store {
                addr, size, value, ..
            } => {
                let changed = self.shadow.get(&addr) != Some(&(size, value));
                self.shadow.insert(addr, (size, value));
                for w in &self.watches {
                    if w.overlaps(addr, size) {
                        let t = &mut self.profile.tthreads[w.tthread as usize];
                        t.watched_stores += 1;
                        if changed {
                            self.dirty[w.tthread as usize] = true;
                        } else {
                            t.silent_watched_stores += 1;
                        }
                    }
                }
            }
            Event::Load {
                addr, size, value, ..
            } => {
                // Loads publish observed values into shadow memory so that a
                // later store of the same value is recognized as silent even
                // if the tracer never saw the original store.
                self.shadow.entry(addr).or_insert((size, value));
            }
            Event::RegionBegin { tthread } => {
                self.in_region = Some(tthread);
                let idx = tthread as usize;
                self.current_redundant = !self.dirty[idx];
                let t = &mut self.profile.tthreads[idx];
                t.instances += 1;
                if self.current_redundant {
                    t.redundant_instances += 1;
                }
                // The instance consumes the accumulated triggers.
                self.dirty[idx] = false;
            }
            Event::RegionEnd { .. } => {
                self.in_region = None;
            }
            Event::Join { .. } => {}
            Event::Compute(_) => {}
        }
        if let Some(t) = self.in_region {
            // Attribute instruction counts of in-region events (the marker
            // itself contributes zero).
            let n = event.instructions();
            if n > 0 {
                let entry = &mut self.profile.tthreads[t as usize];
                entry.instructions += n;
                if self.current_redundant {
                    entry.redundant_instructions += n;
                }
            }
        }
    }

    /// Returns the accumulated profile.
    pub fn finish(self) -> RedundancyProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtt_trace::TraceBuilder;

    /// Two iterations: store (changing), region, then silent store, region.
    /// The second instance is redundant.
    #[test]
    fn silent_iteration_is_redundant() {
        let mut b = TraceBuilder::new();
        let t = b.declare_tthread("t");
        b.declare_watch(t, 0x100, 8);
        for round in 0..2 {
            // Same value both rounds: round 0 changes (cold), round 1 silent.
            b.store_event(1, 0x100, 8, 42);
            b.region_begin_checked(t).unwrap();
            b.compute_event(100);
            b.region_end_checked(t).unwrap();
            b.join_event(t);
            let _ = round;
        }
        let tr = b.finish().unwrap();
        let p = RedundancyProfiler::profile(&tr);
        let tt = p.tthreads[0];
        assert_eq!(tt.instances, 2);
        assert_eq!(tt.redundant_instances, 1);
        assert_eq!(tt.instructions, 200);
        assert_eq!(tt.redundant_instructions, 100);
        assert_eq!(tt.watched_stores, 2);
        assert_eq!(tt.silent_watched_stores, 1);
        // total = 2 stores + 200 compute
        assert_eq!(p.total_instructions, 202);
        assert!((p.redundant_fraction() - 100.0 / 202.0).abs() < 1e-12);
    }

    #[test]
    fn changing_store_makes_instance_non_redundant() {
        let mut b = TraceBuilder::new();
        let t = b.declare_tthread("t");
        b.declare_watch(t, 0, 8);
        for v in [1u64, 2, 3] {
            b.store_event(1, 0, 8, v);
            b.region_begin_checked(t).unwrap();
            b.compute_event(10);
            b.region_end_checked(t).unwrap();
        }
        let tr = b.finish().unwrap();
        let p = RedundancyProfiler::profile(&tr);
        assert_eq!(p.tthreads[0].redundant_instances, 0);
    }

    #[test]
    fn first_instance_never_redundant() {
        let mut b = TraceBuilder::new();
        let t = b.declare_tthread("t");
        b.declare_watch(t, 0, 8);
        b.region_begin_checked(t).unwrap();
        b.compute_event(5);
        b.region_end_checked(t).unwrap();
        b.region_begin_checked(t).unwrap();
        b.compute_event(5);
        b.region_end_checked(t).unwrap();
        let tr = b.finish().unwrap();
        let p = RedundancyProfiler::profile(&tr);
        assert_eq!(p.tthreads[0].instances, 2);
        // No store at all between instances: the second is redundant.
        assert_eq!(p.tthreads[0].redundant_instances, 1);
    }

    #[test]
    fn unwatched_store_does_not_dirty() {
        let mut b = TraceBuilder::new();
        let t = b.declare_tthread("t");
        b.declare_watch(t, 0x100, 8);
        b.region_begin_checked(t).unwrap();
        b.region_end_checked(t).unwrap();
        b.store_event(1, 0x900, 8, 1); // outside the watch
        b.region_begin_checked(t).unwrap();
        b.compute_event(50);
        b.region_end_checked(t).unwrap();
        let tr = b.finish().unwrap();
        let p = RedundancyProfiler::profile(&tr);
        assert_eq!(p.tthreads[0].redundant_instances, 1);
        assert_eq!(p.tthreads[0].watched_stores, 0);
    }

    #[test]
    fn loads_seed_shadow_memory() {
        let mut b = TraceBuilder::new();
        let t = b.declare_tthread("t");
        b.declare_watch(t, 0x100, 8);
        b.load_event(1, 0x100, 8, 7); // value 7 observed
        b.region_begin_checked(t).unwrap();
        b.region_end_checked(t).unwrap();
        b.store_event(2, 0x100, 8, 7); // silent w.r.t. the observed value
        b.region_begin_checked(t).unwrap();
        b.region_end_checked(t).unwrap();
        let tr = b.finish().unwrap();
        let p = RedundancyProfiler::profile(&tr);
        assert_eq!(p.tthreads[0].silent_watched_stores, 1);
        assert_eq!(p.tthreads[0].redundant_instances, 1);
    }

    #[test]
    fn two_tthreads_independent() {
        let mut b = TraceBuilder::new();
        let ta = b.declare_tthread("a");
        let tb = b.declare_tthread("b");
        b.declare_watch(ta, 0x0, 8);
        b.declare_watch(tb, 0x100, 8);
        // Dirty only A.
        b.store_event(1, 0x0, 8, 1);
        for t in [ta, tb] {
            b.region_begin_checked(t).unwrap();
            b.compute_event(10);
            b.region_end_checked(t).unwrap();
        }
        // Second round: dirty only B with a *changing* store.
        b.store_event(1, 0x100, 8, 9);
        for t in [ta, tb] {
            b.region_begin_checked(t).unwrap();
            b.compute_event(10);
            b.region_end_checked(t).unwrap();
        }
        let tr = b.finish().unwrap();
        let p = RedundancyProfiler::profile(&tr);
        assert_eq!(p.tthreads[ta as usize].redundant_instances, 1); // round 2
        assert_eq!(p.tthreads[tb as usize].redundant_instances, 0); // dirty both rounds
    }

    #[test]
    fn display_is_informative() {
        let tr = {
            let mut b = TraceBuilder::new();
            b.compute_event(10);
            b.finish().unwrap()
        };
        let p = RedundancyProfiler::profile(&tr);
        assert!(p.to_string().contains("instructions redundant"));
    }
}
