//! Shape guards for the paper's headline claims, at test scale: if a
//! refactoring breaks the reproduction (mcf no longer wins, suppression no
//! longer load-bearing, granularity no longer costs twolf), these fail.

/// Tiny local harness over the facade crate (the experiment tables
/// themselves are `dtt-cli experiment <id>`, which the root package does not
/// depend on).
mod bench_support {
    use dtt::sim::{simulate, MachineConfig, SimMode};
    use dtt::workloads::{suite, Scale};

    pub fn speedups(cfg: &MachineConfig) -> Vec<(String, f64)> {
        suite(Scale::Test)
            .into_iter()
            .map(|w| {
                let trace = w.trace();
                let base = simulate(cfg, &trace, SimMode::Baseline);
                let dtt = simulate(cfg, &trace, SimMode::Dtt);
                (w.name().to_string(), base.speedup_over(&dtt))
            })
            .collect()
    }

    pub fn speedup_of(cfg: &MachineConfig, name: &str) -> f64 {
        let w = suite(Scale::Test)
            .into_iter()
            .find(|w| w.name() == name)
            .expect("workload exists");
        let trace = w.trace();
        let base = simulate(cfg, &trace, SimMode::Baseline);
        let dtt = simulate(cfg, &trace, SimMode::Dtt);
        base.speedup_over(&dtt)
    }
}
use dtt::sim::MachineConfig;

#[test]
fn every_benchmark_speeds_up_on_the_default_machine() {
    for (name, s) in bench_support::speedups(&MachineConfig::default()) {
        assert!(s >= 1.0, "{name} regressed below baseline: {s:.2}x");
    }
}

/// The flagship claim, at the scale the experiments run at: mcf's
/// potential refresh is overwhelmingly redundant and the simulated
/// speedup is a multiple, not a percentage. (Train scale: this is the
/// slowest test in the suite, a few seconds in debug builds.)
#[test]
fn mcf_flagship_speedup_holds_at_train_scale() {
    use dtt::sim::{simulate, SimMode};
    use dtt::workloads::{Mcf, Scale, Workload};
    let mcf = Mcf::new(Scale::Train);
    let trace = mcf.trace();
    let cfg = MachineConfig::default();
    let base = simulate(&cfg, &trace, SimMode::Baseline);
    let dtt = simulate(&cfg, &trace, SimMode::Dtt);
    let speedup = base.speedup_over(&dtt);
    assert!(
        speedup > 4.0,
        "mcf must stay a multiple-x speedup (paper: 5.9x), got {speedup:.2}x"
    );
    assert!(
        dtt.skip_rate() > 0.9,
        "mcf's refresh must be >90% skippable, got {:.1}%",
        100.0 * dtt.skip_rate()
    );
}

#[test]
fn silent_store_suppression_is_load_bearing() {
    let on = bench_support::speedup_of(&MachineConfig::default(), "mcf");
    let off = bench_support::speedup_of(
        &MachineConfig::default().with_silent_store_suppression(false),
        "mcf",
    );
    // Without suppression the benefit over baseline must largely vanish
    // (it can even go negative: triggers fire on every watched store).
    assert!(
        off - 1.0 < 0.5 * (on - 1.0),
        "mcf without suppression should lose most of its benefit: on={on:.2} off={off:.2}"
    );
}

#[test]
fn huge_spawn_overhead_erases_gains_somewhere() {
    let cheap = bench_support::speedups(&MachineConfig::default().with_spawn_overhead(0));
    let dear = bench_support::speedups(&MachineConfig::default().with_spawn_overhead(100_000));
    let hurt = cheap
        .iter()
        .zip(&dear)
        .filter(|((_, c), (_, d))| d < c)
        .count();
    assert!(
        hurt >= cheap.len() / 2,
        "100k-cycle spawns should hurt most benchmarks: {hurt}/{}",
        cheap.len()
    );
    assert!(
        dear.iter().any(|(_, d)| *d < 1.0),
        "some benchmark should drop below baseline under extreme spawn cost"
    );
}

#[test]
fn line_granularity_never_helps() {
    let precise = bench_support::speedups(&MachineConfig::default().with_granularity_bytes(1));
    let coarse = bench_support::speedups(&MachineConfig::default().with_granularity_bytes(64));
    for ((name, p), (_, c)) in precise.iter().zip(&coarse) {
        assert!(
            *c <= *p * 1.01 + 1e-9,
            "{name}: coarse granularity should never beat precise (p={p:.3}, c={c:.3})"
        );
    }
}

#[test]
fn tiny_tst_degrades_multi_tthread_benchmarks() {
    let full = bench_support::speedup_of(&MachineConfig::default(), "bzip2");
    let tiny = bench_support::speedup_of(&MachineConfig::default().with_tst_capacity(1), "bzip2");
    assert!(
        tiny < full,
        "bzip2 (8 tthreads at test scale) must lose benefit with a 1-entry TST: {tiny:.2} !< {full:.2}"
    );
}
