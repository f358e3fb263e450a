//! Shared helpers: digesting, probed memory access, DTT run plumbing.

use dtt_core::{AddrRange, Error, Runtime, TthreadId};
use dtt_trace::{Probe, SiteId};

use crate::suite::{DttRun, TthreadReport};

/// FNV-1a accumulator for order-sensitive output digests.
///
/// # Examples
///
/// ```
/// use dtt_workloads::util::Digest;
/// let mut d = Digest::new();
/// d.push_u64(1);
/// d.push_f64(2.5);
/// let a = d.finish();
/// let mut e = Digest::new();
/// e.push_u64(1);
/// e.push_f64(2.5);
/// assert_eq!(a, e.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Creates a fresh accumulator.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds a `u64` into the digest.
    pub fn push_u64(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        self.0 = h;
    }

    /// Folds an `f64` into the digest (by bit pattern).
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Returns the accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Reads `v` while reporting the load to the probe; returns `v`.
#[inline]
pub fn load_f64<P: Probe>(p: &mut P, site: SiteId, base: u64, idx: usize, v: f64) -> f64 {
    p.load(site, base + 8 * idx as u64, 8, v.to_bits());
    v
}

/// Reads `v` (u64) while reporting the load to the probe; returns `v`.
#[inline]
pub fn load_u64<P: Probe>(p: &mut P, site: SiteId, base: u64, idx: usize, v: u64) -> u64 {
    p.load(site, base + 8 * idx as u64, 8, v);
    v
}

/// Reads `v` (u32) while reporting the load to the probe; returns `v`.
#[inline]
pub fn load_u32<P: Probe>(p: &mut P, site: SiteId, base: u64, idx: usize, v: u32) -> u32 {
    p.load(site, base + 4 * idx as u64, 4, v as u64);
    v
}

/// Reads `v` (u8) while reporting the load to the probe; returns `v`.
#[inline]
pub fn load_u8<P: Probe>(p: &mut P, site: SiteId, base: u64, idx: usize, v: u8) -> u8 {
    p.load(site, base + idx as u64, 1, v as u64);
    v
}

/// Reports a store of an `f64` to the probe.
#[inline]
pub fn store_f64<P: Probe>(p: &mut P, site: SiteId, base: u64, idx: usize, v: f64) {
    p.store(site, base + 8 * idx as u64, 8, v.to_bits());
}

/// Reports a store of a `u64` to the probe.
#[inline]
pub fn store_u64<P: Probe>(p: &mut P, site: SiteId, base: u64, idx: usize, v: u64) {
    p.store(site, base + 8 * idx as u64, 8, v);
}

/// Reports a store of a `u32` to the probe.
#[inline]
pub fn store_u32<P: Probe>(p: &mut P, site: SiteId, base: u64, idx: usize, v: u32) {
    p.store(site, base + 4 * idx as u64, 4, v as u64);
}

/// Reports a store of a `u8` to the probe.
#[inline]
pub fn store_u8<P: Probe>(p: &mut P, site: SiteId, base: u64, idx: usize, v: u8) {
    p.store(site, base + idx as u64, 1, v as u64);
}

/// Collects the standard [`DttRun`] report from a finished runtime.
pub fn dtt_run_report<U: Send + 'static>(rt: &Runtime<U>, digest: u64) -> DttRun {
    let report = rt.report();
    let name = |id: TthreadId| report.tthreads[id.index()].name.clone();
    let edges = report
        .edges
        .iter()
        .map(|e| (name(e.writer), name(e.reader)))
        .collect();
    let tthreads = report
        .tthreads
        .iter()
        .map(|t| TthreadReport {
            name: t.name.clone(),
            executions: t.executions,
            skips: t.skips,
            triggers: t.triggers,
        })
        .collect();
    DttRun {
        digest,
        stats: report.stats,
        tthreads,
        edges,
        obs: rt.is_observing().then(|| rt.obs_drain()),
    }
}

/// Declares `range` as `tt`'s output region, tolerating a
/// [`Error::TriggerCycle`] rejection. Coarse trigger granularities can
/// alias neighboring aggregate cells into one line and close *false*
/// cycles in the declared edge map; the declared edges are advisory
/// (cascades flow through the trigger table either way), so the workload
/// drops the declaration instead of failing. Any other error is a bug.
pub fn declare_output<U: Send + 'static>(rt: &mut Runtime<U>, tt: TthreadId, range: AddrRange) {
    match rt.declare_output(tt, range) {
        Ok(()) | Err(Error::TriggerCycle { .. }) => {}
        Err(other) => panic!("declaring a registered tthread's output region failed: {other:?}"),
    }
}

/// Joins `tt` and panics with a workload-labelled message on failure
/// (workload code only ever joins ids it registered).
pub fn must_join<U: Send + 'static>(rt: &mut Runtime<U>, tt: TthreadId) {
    rt.join(tt)
        .expect("joining a registered tthread cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtt_trace::TraceBuilder;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.push_u64(1);
        a.push_u64(2);
        let mut b = Digest::new();
        b.push_u64(2);
        b.push_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_distinguishes_float_bits() {
        let mut a = Digest::new();
        a.push_f64(0.0);
        let mut b = Digest::new();
        b.push_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn probed_loads_emit_events_and_pass_through() {
        let mut b = TraceBuilder::new();
        assert_eq!(load_f64(&mut b, 1, 0x100, 2, 1.5), 1.5);
        assert_eq!(load_u64(&mut b, 1, 0x200, 0, 9), 9);
        assert_eq!(load_u32(&mut b, 1, 0x300, 1, 7), 7);
        assert_eq!(load_u8(&mut b, 1, 0x400, 3, 255), 255);
        store_f64(&mut b, 2, 0x100, 2, 2.5);
        store_u64(&mut b, 2, 0x200, 0, 1);
        store_u32(&mut b, 2, 0x300, 1, 2);
        store_u8(&mut b, 2, 0x400, 3, 3);
        let tr = b.finish().unwrap();
        assert_eq!(tr.loads(), 4);
        assert_eq!(tr.stores(), 4);
        // Addresses scale with the element size.
        let ev = tr.events();
        assert!(format!("{:?}", ev[0]).contains("272")); // 0x100 + 16
    }
}
