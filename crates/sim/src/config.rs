//! Simulated machine configuration.

use std::fmt;

use dtt_memsim::HierarchyConfig;

/// Parameters of the simulated DTT machine (reconstructed Table 1).
///
/// The model is trace-driven and in-order: each non-memory instruction costs
/// [`MachineConfig::cpi`] cycles, each memory access costs its cache-
/// hierarchy latency, and the DTT structures (thread status table, thread
/// queue, spawn path) add the explicit overheads below.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Cycles per non-memory instruction on every context.
    pub cpi: f64,
    /// Total hardware contexts, including the main thread's. `contexts - 1`
    /// spare contexts execute tthreads; with `contexts == 1` every tthread
    /// runs inline on the main context.
    pub contexts: usize,
    /// Cycles between a trigger firing and the tthread starting on a spare
    /// context (enqueue, dispatch, register setup).
    pub spawn_overhead: u64,
    /// Extra cycles charged to the storing context per store for the
    /// trigger lookup/compare (0 models fully hidden hardware checks).
    pub trigger_check_overhead: u64,
    /// Capacity of the pending-tthread queue; triggers arriving beyond it
    /// force the tthread to run inline on the main context.
    pub queue_capacity: usize,
    /// Trigger observation granularity in bytes (power of two; 1 = precise,
    /// 8 = word, 64 = cache line).
    pub granularity_bytes: u32,
    /// Whether stores compare old/new values and suppress triggers for
    /// silent stores.
    pub suppress_silent_stores: bool,
    /// Give every context its own private L1 (CMP-style) instead of one
    /// shared L1 (SMT-style). Private L1s isolate the main thread from
    /// tthread cache pressure but cost offloaded tthreads their warm-up.
    pub private_l1: bool,
    /// Thread status table capacity: tthreads registered beyond this many
    /// entries are *unmanaged* — the hardware cannot track them, so their
    /// regions always execute inline on the main context.
    pub tst_capacity: usize,
    /// Data-cache hierarchy (L2/L3/memory always shared).
    pub hierarchy: HierarchyConfig,
}

impl Default for MachineConfig {
    /// The default machine: 2 contexts (one spare for tthreads), 100-cycle
    /// spawn path, 16-entry thread queue, word-granularity triggers,
    /// silent-store suppression on, and the default three-level hierarchy.
    fn default() -> Self {
        MachineConfig {
            cpi: 1.0,
            contexts: 2,
            spawn_overhead: 100,
            trigger_check_overhead: 0,
            queue_capacity: 16,
            granularity_bytes: 8,
            suppress_silent_stores: true,
            private_l1: false,
            tst_capacity: 256,
            hierarchy: HierarchyConfig::default(),
        }
    }
}

impl MachineConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` or `queue_capacity` is zero, `cpi` is not
    /// positive and finite, or `granularity_bytes` is not a power of two.
    pub fn validate(&self) {
        assert!(self.contexts >= 1, "at least one context is required");
        assert!(self.tst_capacity >= 1, "tst capacity must be nonzero");
        assert!(self.queue_capacity >= 1, "queue capacity must be nonzero");
        assert!(
            self.cpi.is_finite() && self.cpi > 0.0,
            "cpi must be positive and finite"
        );
        assert!(
            self.granularity_bytes.is_power_of_two(),
            "granularity must be a power of two"
        );
    }

    /// Builder-style setter for `contexts`.
    pub fn with_contexts(mut self, contexts: usize) -> Self {
        self.contexts = contexts;
        self
    }

    /// Builder-style setter for `spawn_overhead`.
    pub fn with_spawn_overhead(mut self, cycles: u64) -> Self {
        self.spawn_overhead = cycles;
        self
    }

    /// Builder-style setter for `queue_capacity`.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Builder-style setter for `granularity_bytes`.
    pub fn with_granularity_bytes(mut self, bytes: u32) -> Self {
        self.granularity_bytes = bytes;
        self
    }

    /// Builder-style setter for `suppress_silent_stores`.
    pub fn with_silent_store_suppression(mut self, on: bool) -> Self {
        self.suppress_silent_stores = on;
        self
    }

    /// Builder-style setter for `private_l1`.
    pub fn with_private_l1(mut self, private: bool) -> Self {
        self.private_l1 = private;
        self
    }

    /// Builder-style setter for `tst_capacity`.
    pub fn with_tst_capacity(mut self, capacity: usize) -> Self {
        self.tst_capacity = capacity;
        self
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = &self.hierarchy;
        writeln!(f, "contexts              {}", self.contexts)?;
        writeln!(f, "base CPI              {}", self.cpi)?;
        writeln!(f, "tthread spawn         {} cycles", self.spawn_overhead)?;
        writeln!(
            f,
            "trigger check         {} cycles/store",
            self.trigger_check_overhead
        )?;
        writeln!(f, "thread queue          {} entries", self.queue_capacity)?;
        writeln!(f, "trigger granularity   {} B", self.granularity_bytes)?;
        writeln!(
            f,
            "silent-store suppress {}",
            if self.suppress_silent_stores {
                "on"
            } else {
                "off"
            }
        )?;
        writeln!(f, "TST capacity          {} tthreads", self.tst_capacity)?;
        writeln!(
            f,
            "L1 layout             {}",
            if self.private_l1 {
                "private per context"
            } else {
                "shared"
            }
        )?;
        writeln!(
            f,
            "L1D                   {} KiB {}-way, {}-cycle",
            h.l1.size_bytes() / 1024,
            h.l1.ways(),
            h.l1_latency
        )?;
        writeln!(
            f,
            "L2                    {} KiB {}-way, {}-cycle",
            h.l2.size_bytes() / 1024,
            h.l2.ways(),
            h.l2_latency
        )?;
        if let Some(l3) = h.l3 {
            writeln!(
                f,
                "L3                    {} KiB {}-way, {}-cycle",
                l3.size_bytes() / 1024,
                l3.ways(),
                h.l3_latency
            )?;
        }
        write!(f, "memory                {}-cycle", h.memory_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        MachineConfig::default().validate();
    }

    #[test]
    fn builders_apply() {
        let cfg = MachineConfig::default()
            .with_contexts(4)
            .with_spawn_overhead(500)
            .with_queue_capacity(2)
            .with_granularity_bytes(64)
            .with_silent_store_suppression(false);
        assert_eq!(cfg.contexts, 4);
        assert_eq!(cfg.spawn_overhead, 500);
        assert_eq!(cfg.queue_capacity, 2);
        assert_eq!(cfg.granularity_bytes, 64);
        assert!(!cfg.suppress_silent_stores);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn zero_contexts_rejected() {
        MachineConfig::default().with_contexts(0).validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_granularity_rejected() {
        MachineConfig::default()
            .with_granularity_bytes(12)
            .validate();
    }

    #[test]
    fn display_covers_machine_rows() {
        let text = MachineConfig::default().to_string();
        for needle in ["contexts", "spawn", "queue", "L1D", "L2", "L3", "memory"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
