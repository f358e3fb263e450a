//! `dtt-cli experiment <id>` — the reproduction itself: every reconstructed
//! table, figure and ablation of the HPCA'11 evaluation is one function from
//! a [`Scale`] to the text it prints, listed in [`EXPERIMENTS`]. The outputs
//! are recorded in EXPERIMENTS.md; DESIGN.md §4 maps the ids to the paper.

use std::time::Instant;

use dtt_core::Config;
use dtt_profile::{LoadProfiler, RedundancyProfiler};
use dtt_sim::{simulate, MachineConfig, SimMode, SimResult};
use dtt_trace::Trace;
use dtt_workloads::{suite, Scale, Workload};

use crate::args::Args;
use crate::{commands, CliError};

/// One entry of the experiment catalogue.
struct Experiment {
    id: &'static str,
    title: &'static str,
    /// Scale used when `--scale` is not given: train keeps traces to a few
    /// million events; the coalescing ablation is about the counter blow-up,
    /// not absolute time, so test scale keeps its uncoalesced runs quick.
    default_scale: Scale,
    run: fn(Scale) -> String,
}

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = {
    use Scale::{Reference, Test, Train};
    const fn e(id: &'static str, title: &'static str, default_scale: Scale, run: fn(Scale) -> String) -> Experiment {
        Experiment { id, title, default_scale, run }
    }
    &[
        e("table1_machine", "R-Tab.1  simulated machine configuration", Train, table1_machine),
        e("fig1_redundant_loads", "R-Fig.1  redundant loads per benchmark (paper: 78% mean)", Train, fig1_redundant_loads),
        e("fig2_redundant_computation", "R-Fig.2  redundant computation per benchmark", Train, fig2_redundant_computation),
        e("table2_benchmarks", "R-Tab.2  tthread characteristics (software runtime)", Train, table2_benchmarks),
        e("fig5_speedup", "R-Fig.5  HEADLINE: speedup per benchmark (paper: max 5.9x, avg 46%)", Train, fig5_speedup),
        e("fig6_breakdown", "R-Fig.6  elimination-only vs +overlap decomposition", Train, fig6_breakdown),
        e("fig7_spawn_overhead", "R-Fig.7  spawn-overhead sensitivity sweep", Train, fig7_spawn_overhead),
        e("fig8_contexts", "R-Fig.8  hardware-context sweep", Train, fig8_contexts),
        e("fig9_granularity", "R-Fig.9  trigger granularity + false triggers", Train, fig9_granularity),
        e("fig10_queue_size", "R-Fig.10 thread-queue capacity sweep", Train, fig10_queue_size),
        e("table3_instructions", "R-Tab.3  dynamic instructions eliminated", Train, table3_instructions),
        e("fig11_energy", "R-Fig.11 activity-based energy proxy", Train, fig11_energy),
        e("fig12_wallclock", "R-Fig.12 measured wall-clock of the software runtime", Reference, fig12_wallclock),
        e("fig13_memory_latency", "R-Fig.13 memory-latency sensitivity (extension)", Train, fig13_memory_latency),
        e("ablation_suppression", "Abl.1    silent-store suppression on/off", Train, ablation_suppression),
        e("ablation_coalescing", "Abl.2    trigger coalescing on/off", Test, ablation_coalescing),
        e("ablation_private_l1", "Abl.3    shared vs private L1 for tthread contexts", Train, ablation_private_l1),
        e("ablation_tst_capacity", "Abl.4    thread status table capacity sweep", Train, ablation_tst_capacity),
        e("ablation_prefetch", "Abl.5    next-line L1 prefetching", Train, ablation_prefetch),
    ]
};

/// The known experiment ids (for the unknown-id error).
pub(crate) fn ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id).collect()
}

/// `dtt-cli experiment list` / `dtt-cli experiment <id> [--scale S]`
pub(crate) fn command(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["scale"])?;
    args.expect_positionals(2)?;
    let id = args.positional(1, "experiment id")?;
    if id == "list" {
        return Ok(catalogue());
    }
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| CliError::UnknownExperiment(id.to_owned()))?;
    let scale = commands::scale_option(args)?.unwrap_or(experiment.default_scale);
    Ok((experiment.run)(scale))
}

fn catalogue() -> String {
    let row = |e: &Experiment| format!("  {:<28} {} [{}]\n", e.id, e.title, e.default_scale);
    format!(
        "== experiment catalogue ==\n\
         run each with: dtt-cli experiment <id> [--scale test|train|ref]\n\n{}\n\
         perf/run.sh   the repo benchmark: per-layer micro metrics + seven end-to-end workloads\n",
        EXPERIMENTS.iter().map(row).collect::<String>()
    )
}

/// Geometric mean of strictly positive values; `0` for an empty slice.
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Formats a ratio as `N.NNx`.
fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage with one decimal.
fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The default simulated machine (R-Tab.1), the starting point of every variant.
fn machine() -> MachineConfig {
    MachineConfig::default()
}

/// Builds the full suite and the annotated trace of every workload.
fn suite_with_traces(scale: Scale) -> Vec<(Box<dyn Workload>, Trace)> {
    let traced = |w: Box<dyn Workload>| {
        let trace = w.trace();
        (w, trace)
    };
    suite(scale).into_iter().map(traced).collect()
}

/// Replays one trace on both machines and returns `[baseline, dtt]`.
fn run_pair(cfg: &MachineConfig, trace: &Trace) -> [SimResult; 2] {
    [SimMode::Baseline, SimMode::Dtt].map(|mode| simulate(cfg, trace, mode))
}

/// A minimal fixed-width table printer: first column left-aligned, the rest
/// right-aligned. Headers and rows are given as `|`-separated cells.
struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(headers: &str) -> Self {
        Table {
            headers: headers.split('|').map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; panics if its width differs from the header's.
    fn row(&mut self, cells: &str) {
        let cells: Vec<String> = cells.split('|').map(str::to_owned).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a summary row: `label`, then `-` in every column except the
    /// `(column, value)` pairs given.
    fn summary(&mut self, label: &str, values: &[(usize, String)]) {
        let mut cells = vec!["-".to_string(); self.headers.len()];
        cells[0] = label.to_string();
        for (col, value) in values {
            cells[*col] = value.clone();
        }
        self.rows.push(cells);
    }

    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let first = format!("{:<w$}", cells[0], w = widths[0]);
            let rest = cells.iter().zip(&widths).skip(1);
            rest.fold(first, |line, (cell, &w)| format!("{line}  {cell:>w$}")) + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let rows: String = self.rows.iter().map(|row| fmt_row(row)).collect();
        fmt_row(&self.headers) + &rule + "\n" + &rows
    }

    /// The rendered table under a title banner, followed by a blank line.
    fn titled(&self, title: &str) -> String {
        format!("== {title} ==\n{}\n", self.render())
    }
}

/// One machine variant's result on one trace.
struct Run {
    speedup: f64,
    dtt: SimResult,
}

/// A second column per variant: header suffix and the cell for one run.
type VariantColumn = (&'static str, fn(&Run) -> String);
/// A column after the variants: header and the cell for one row's workload,
/// trace and runs.
type TrailingColumn = (&'static str, fn(&dyn Workload, &Trace, &[Run]) -> String);

/// Trailing cell: relative change from the first variant's speedup to the second's.
fn delta(_: &dyn Workload, _: &Trace, runs: &[Run]) -> String {
    format!("{:+.1}%", 100.0 * (runs[1].speedup / runs[0].speedup - 1.0))
}

/// The machine-parameter sweep every sensitivity figure and simulator
/// ablation shares: one row per trace, one speedup column per variant (each
/// against the baseline of the same machine), a geomean row underneath.
fn sweep(
    scale: Scale,
    title: &str,
    variants: &[(String, MachineConfig)],
    also: Option<VariantColumn>,
    trailing: &[TrailingColumn],
) -> String {
    let mut headers = vec!["benchmark".to_string()];
    for (label, _) in variants {
        match also {
            None => headers.push(label.clone()),
            Some((suffix, _)) => {
                headers.extend([format!("{label} speedup"), format!("{label} {suffix}")])
            }
        }
    }
    headers.extend(trailing.iter().map(|(header, _)| header.to_string()));
    let mut table = Table::new(&headers.join("|"));
    let mut columns = vec![Vec::new(); variants.len()];
    for (w, trace) in suite_with_traces(scale) {
        let runs: Vec<Run> = variants
            .iter()
            .map(|(_, cfg)| {
                let [base, dtt] = run_pair(cfg, &trace);
                let speedup = base.speedup_over(&dtt);
                Run { speedup, dtt }
            })
            .collect();
        let mut row = vec![w.name().to_string()];
        for (column, run) in columns.iter_mut().zip(&runs) {
            column.push(run.speedup);
            row.push(fmt_speedup(run.speedup));
            row.extend(also.map(|(_, cell)| cell(run)));
        }
        row.extend(trailing.iter().map(|(_, cell)| cell(&*w, &trace, &runs)));
        table.row(&row.join("|"));
    }
    let stride = 1 + usize::from(also.is_some());
    let geomeans: Vec<(usize, String)> = columns
        .iter()
        .enumerate()
        .map(|(i, column)| (1 + i * stride, fmt_speedup(geomean(column))))
        .collect();
    table.summary("geomean", &geomeans);
    table.titled(title)
}

/// R-Tab.1 — the simulated machine (the paper's processor-parameters table).
fn table1_machine(_: Scale) -> String {
    let machine = commands::machine(&Args::default()).expect("the default machine is valid");
    format!("== R-Tab.1: simulated machine configuration ==\n{machine}")
}

/// R-Fig.1 — the motivating characterization: fraction of dynamic loads that
/// fetch the value most recently loaded from or stored to that address
/// (paper abstract: 78% of all loads).
fn fig1_redundant_loads(scale: Scale) -> String {
    let mut table = Table::new("benchmark|loads|redundant|fraction");
    let mut fractions = Vec::new();
    for (w, trace) in suite_with_traces(scale) {
        let p = LoadProfiler::profile(&trace);
        fractions.push(p.redundant_fraction());
        let fraction = fmt_pct(p.redundant_fraction());
        let (name, loads, redundant) = (w.name(), p.total_loads, p.redundant_loads);
        table.row(&format!("{name}|{loads}|{redundant}|{fraction}"));
    }
    let mean = fmt_pct(mean(&fractions));
    table.summary("mean", &[(3, mean.clone())]);
    table.titled("R-Fig.1: redundant loads per benchmark")
        + &format!("paper: 78% of all loads are redundant; measured mean {mean}\n")
}

/// R-Fig.2 — how much *computation* is redundant: instructions in region
/// instances whose watched inputs did not change (what DTT can eliminate).
fn fig2_redundant_computation(scale: Scale) -> String {
    let mut table =
        Table::new("benchmark|instructions|redundant|fraction|redundant region instances");
    let mut fractions = Vec::new();
    for (w, trace) in suite_with_traces(scale) {
        let p = RedundancyProfiler::profile(&trace);
        fractions.push(p.redundant_fraction());
        let instances: u64 = p.tthreads.iter().map(|t| t.instances).sum();
        let redundant: u64 = p.tthreads.iter().map(|t| t.redundant_instances).sum();
        table.row(&format!(
            "{}|{}|{}|{}|{redundant}/{instances}",
            w.name(),
            p.total_instructions,
            p.redundant_instructions(),
            fmt_pct(p.redundant_fraction()),
        ));
    }
    table.summary("mean", &[(3, fmt_pct(mean(&fractions)))]);
    table.titled("R-Fig.2: redundant computation per benchmark")
}

/// R-Tab.2 — per-benchmark DTT characteristics from the software runtime.
fn table2_benchmarks(scale: Scale) -> String {
    let mut table =
        Table::new("benchmark|spec model|tthreads|tracked stores|silent|triggers/kstore|skip rate");
    for w in suite(scale) {
        let run = w.run_dtt(Config::default());
        table.row(&format!(
            "{}|{}|{}|{}|{}|{:.1}|{}",
            w.name(),
            w.spec_inspiration(),
            run.tthreads.len(),
            run.stats.counters().tracked_stores,
            fmt_pct(run.stats.silent_store_fraction()),
            run.stats.triggers_per_kilo_store(),
            fmt_pct(run.stats.skip_fraction()),
        ));
    }
    table.titled("R-Tab.2: benchmark characteristics (software DTT runtime, deferred executor)")
}

/// R-Fig.5 — the headline result: simulated speedup of DTT over the baseline
/// on the default machine. Paper reference points (abstract): up to 5.9×
/// (mcf), averaging 46% across the modified C SPEC benchmarks.
fn fig5_speedup(scale: Scale) -> String {
    let mut table = Table::new("benchmark|base cycles|dtt cycles|speedup|regions skipped");
    let mut speedups = Vec::new();
    for (w, trace) in suite_with_traces(scale) {
        let [base, dtt] = run_pair(&machine(), &trace);
        let speedup = base.speedup_over(&dtt);
        speedups.push(speedup);
        table.row(&format!(
            "{}|{}|{}|{}|{}",
            w.name(),
            base.cycles,
            dtt.cycles,
            fmt_speedup(speedup),
            fmt_pct(dtt.skip_rate()),
        ));
    }
    let geo = fmt_speedup(geomean(&speedups));
    table.summary("geomean", &[(3, geo.clone())]);
    let max = fmt_speedup(speedups.iter().cloned().fold(f64::MIN, f64::max));
    table.titled("R-Fig.5: DTT speedup over baseline (default machine)")
        + &format!("paper: up to 5.9x (mcf), average +46%; measured max {max} / geomean {geo}\n")
}

/// R-Fig.6 — where the speedup comes from: redundancy elimination alone
/// (contexts = 1, every dirty region runs inline) versus elimination plus
/// parallel overlap (contexts = 2, dirty regions offload to a spare context).
fn fig6_breakdown(scale: Scale) -> String {
    let variants = [("elimination only", 1), ("+ overlap", 2)]
        .map(|(label, c)| (label.to_string(), machine().with_contexts(c)));
    let title = "R-Fig.6: speedup decomposition (elimination vs elimination+overlap)";
    sweep(scale, title, &variants, None, &[("overlap share", delta)])
}

/// R-Fig.7 — sensitivity to the tthread spawn overhead, from free to 10k
/// cycles of trigger-to-start latency.
fn fig7_spawn_overhead(scale: Scale) -> String {
    let variants = [0u64, 10, 100, 1_000, 10_000]
        .map(|s| (format!("{s} cyc"), machine().with_spawn_overhead(s)));
    let title = "R-Fig.7: speedup vs tthread spawn overhead";
    sweep(scale, title, &variants, None, &[])
}

/// R-Fig.8 — sensitivity to hardware contexts (contexts − 1 spare contexts
/// run tthreads).
fn fig8_contexts(scale: Scale) -> String {
    let variants = [1usize, 2, 4, 8].map(|c| (format!("{c} ctx"), machine().with_contexts(c)));
    let title = "R-Fig.8: speedup vs hardware contexts";
    sweep(scale, title, &variants, None, &[])
}

/// R-Fig.9 — trigger granularity: byte vs word (8 B) vs cache line (64 B).
/// Coarser observation is cheaper hardware but fires tthreads for stores
/// that merely *neighbour* the watched data.
fn fig9_granularity(scale: Scale) -> String {
    let variants = [1u32, 8, 64].map(|g| (format!("{g}B"), machine().with_granularity_bytes(g)));
    let false_triggers: VariantColumn = ("false trig", |run| {
        let triggers: u64 = run.dtt.tthreads.iter().map(|t| t.triggers).sum();
        let false_triggers: u64 = run.dtt.tthreads.iter().map(|t| t.false_triggers).sum();
        fmt_pct(false_triggers as f64 / triggers.max(1) as f64)
    });
    let title = "R-Fig.9: trigger granularity (speedup and false-trigger fraction)";
    sweep(scale, title, &variants, Some(false_triggers), &[])
}

/// R-Fig.10 — thread-queue capacity: overflowed triggers force the tthread
/// to run inline on the main context.
fn fig10_queue_size(scale: Scale) -> String {
    let four = machine().with_contexts(4);
    let variants =
        [1usize, 2, 4, 16, 64].map(|q| (format!("q={q}"), four.clone().with_queue_capacity(q)));
    let overflows: TrailingColumn = ("overflows@q=1", |_, _, runs| {
        runs[0].dtt.queue_overflows.to_string()
    });
    let title = "R-Fig.10: speedup vs thread-queue capacity (4-context machine)";
    sweep(scale, title, &variants, None, &[overflows])
}

/// R-Tab.3 — the fraction of the baseline's dynamic instruction stream that
/// the DTT machine never executes (skipped region instances).
fn table3_instructions(scale: Scale) -> String {
    let mut table = Table::new("benchmark|baseline instr|dtt executed|dtt skipped|reduction");
    let mut reductions = Vec::new();
    for (w, trace) in suite_with_traces(scale) {
        let [base, dtt] = run_pair(&machine(), &trace);
        reductions.push(dtt.instruction_reduction());
        table.row(&format!(
            "{}|{}|{}|{}|{}",
            w.name(),
            base.instructions_executed,
            dtt.instructions_executed,
            dtt.instructions_skipped,
            fmt_pct(dtt.instruction_reduction()),
        ));
    }
    table.summary("mean", &[(4, fmt_pct(mean(&reductions)))]);
    table.titled("R-Tab.3: dynamic instruction reduction")
}

/// R-Fig.11 — activity-based energy: DTT removes instructions and cache
/// activity and pays a small per-store comparison cost.
fn fig11_energy(scale: Scale) -> String {
    let mut table = Table::new("benchmark|baseline nJ|dtt nJ|compare nJ|saving");
    let mut savings = Vec::new();
    for (w, trace) in suite_with_traces(scale) {
        let [base, dtt] = run_pair(&machine(), &trace);
        let saving = 1.0 - dtt.energy_pj / base.energy_pj;
        savings.push(saving);
        table.row(&format!(
            "{}|{:.1}|{:.1}|{:.1}|{}",
            w.name(),
            base.energy_pj / 1000.0,
            dtt.energy_pj / 1000.0,
            dtt.compares as f64 * 2.0 / 1000.0, // compare_pj default
            fmt_pct(saving),
        ));
    }
    table.summary("mean", &[(4, fmt_pct(mean(&savings)))]);
    table.titled("R-Fig.11: energy proxy (activity model)")
}

/// R-Fig.12 — measured wall-clock speedup of the *software* DTT runtime:
/// baseline vs the deferred executor vs a 2-worker parallel executor. Below
/// reference scale the timings are CI-sized and unreliable; the repeated,
/// baselined version is the `kernels` workload of `perf/`.
fn fig12_wallclock(scale: Scale) -> String {
    fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        (value, start.elapsed().as_secs_f64())
    }
    let mut table = Table::new(
        "benchmark|baseline ms|dtt ms|dtt 2-worker ms|speedup|parallel speedup|skip %|accesses|ns/access",
    );
    let mut speedups = Vec::new();
    for w in suite(scale) {
        let name = w.name();
        let (digest, base) = timed(|| w.run_baseline());
        let (run, dtt) = timed(|| w.run_dtt(Config::default()));
        let (run_par, par) = timed(|| w.run_dtt(Config::default().with_workers(2)));
        assert_eq!(digest, run.digest, "{name}: dtt digest mismatch");
        assert_eq!(digest, run_par.digest, "{name}: parallel digest mismatch");
        speedups.push(base / dtt);
        // What the deferred run paid per tracked access, bodies included: a
        // kernel that loses to its baseline with a high skip rate is losing
        // on access cost, not on elimination.
        let c = run.stats.counters();
        let accesses = c.tracked_loads + c.tracked_stores;
        table.row(&format!(
            "{name}|{:.1}|{:.1}|{:.1}|{}|{}|{}|{accesses}|{:.1}",
            base * 1000.0,
            dtt * 1000.0,
            par * 1000.0,
            fmt_speedup(base / dtt),
            fmt_speedup(base / par),
            fmt_pct(run.stats.skip_fraction()),
            dtt * 1e9 / accesses.max(1) as f64,
        ));
    }
    table.summary("geomean", &[(4, fmt_speedup(geomean(&speedups)))]);
    let mode = match scale {
        Scale::Reference => String::new(),
        smaller => format!(", {smaller} scale"),
    };
    table.titled(&format!(
        "R-Fig.12: measured wall-clock (software runtime{mode})"
    )) + "note: software tracked stores add overhead the proposed hardware would hide;\n\
          the deferred-executor column is the honest software-DTT comparison.\n"
}

/// R-Fig.13 (extension) — memory-latency sensitivity: DTT removes loads
/// along with instructions, so its advantage grows with slower memory.
fn fig13_memory_latency(scale: Scale) -> String {
    let variants = [50u64, 100, 200, 400, 800].map(|latency| {
        let mut cfg = machine();
        cfg.hierarchy.memory_latency = latency;
        (format!("{latency} cyc mem"), cfg)
    });
    let title = "R-Fig.13 (extension): speedup vs memory latency";
    sweep(scale, title, &variants, None, &[])
}

/// Ablation: silent-store suppression. Without value-comparing stores every
/// store to a watched range triggers its tthreads ("recompute on any write");
/// this is how much of DTT's benefit comes from *silence detection*.
fn ablation_suppression(scale: Scale) -> String {
    let off = machine().with_silent_store_suppression(false);
    let variants = [
        ("suppress on".to_string(), machine()),
        ("suppress off".to_string(), off),
    ];
    let benefit_lost: TrailingColumn = ("benefit lost", |_, _, runs| {
        fmt_pct(1.0 - (runs[1].speedup - 1.0) / (runs[0].speedup - 1.0).max(1e-9))
    });
    let silent_stores: TrailingColumn = ("silent stores", |w, _, _| {
        fmt_pct(w.run_dtt(Config::default()).stats.silent_store_fraction())
    });
    let title = "Ablation: silent-store suppression on vs off";
    let trailing = [benefit_lost, silent_stores];
    sweep(scale, title, &variants, None, &trailing)
        + "without suppression, skipping only happens when *no* store touched the\n\
           watched data at all; benchmarks whose stores are mostly silent lose the most.\n"
}

/// Ablation: trigger coalescing in the software runtime's parallel executor.
/// Without it every changing store to a watched range enqueues another
/// instance of the tthread, flooding the bounded queue.
fn ablation_coalescing(scale: Scale) -> String {
    let mut table =
        Table::new("benchmark|execs (coalesced)|execs (raw)|blow-up|enqueues raw|overflows raw");
    for w in suite(scale) {
        let name = w.name();
        let cfg = Config::default().with_workers(2).with_queue_capacity(8);
        let with = w.run_dtt(cfg.clone());
        let without = w.run_dtt(cfg.with_coalescing(false));
        assert_eq!(with.digest, without.digest, "{name}: coalescing changed it");
        let e_with: u64 = with.tthreads.iter().map(|t| t.executions).sum();
        let e_without: u64 = without.tthreads.iter().map(|t| t.executions).sum();
        table.row(&format!(
            "{name}|{e_with}|{e_without}|{:.1}x|{}|{}",
            e_without as f64 / e_with.max(1) as f64,
            without.stats.counters().enqueues,
            without.stats.counters().queue_overflows,
        ));
    }
    table.titled(&format!(
        "Ablation: trigger coalescing (parallel executor, {scale} scale)"
    )) + "coalescing merges repeated triggers of a pending tthread into one execution;\n\
          without it the same recomputation runs once per triggering store.\n"
}

/// Ablation: where the spare contexts' L1s live. A shared L1 (SMT-style)
/// lets offloaded tthreads reuse the main thread's cache state; private L1s
/// (CMP-style) isolate it but cost every offloaded execution an L2 refill.
fn ablation_private_l1(scale: Scale) -> String {
    let shared = machine().with_contexts(4);
    let variants = [
        ("shared L1".to_string(), shared.clone()),
        ("private L1".to_string(), shared.with_private_l1(true)),
    ];
    let title = "Ablation: shared vs private L1 for tthread contexts (4-context machine)";
    sweep(scale, title, &variants, None, &[("delta", delta)])
}

/// Ablation: thread-status-table capacity. The hardware cannot track the
/// triggers of tthreads beyond the TST, so their regions always execute:
/// bzip2 (24 tthreads) and ammp/gzip (16) lose as the table shrinks.
fn ablation_tst_capacity(scale: Scale) -> String {
    let variants =
        [1usize, 4, 8, 16, 32].map(|t| (format!("tst={t}"), machine().with_tst_capacity(t)));
    let tthreads: TrailingColumn = ("tthreads", |_, trace, _| {
        trace.tthread_names().len().to_string()
    });
    let title = "Ablation: thread status table capacity";
    sweep(scale, title, &variants, None, &[tthreads])
}

/// Ablation: next-line L1 prefetching accelerates the streaming region
/// bodies the *baseline* must always execute, so it narrows DTT's advantage:
/// the better memory latency is hidden, the less there is to skip (the
/// inverse of R-Fig.13).
fn ablation_prefetch(scale: Scale) -> String {
    let mut prefetching = machine();
    prefetching.hierarchy.prefetch_next_line = true;
    let variants = [
        ("no prefetch".to_string(), machine()),
        ("next-line prefetch".to_string(), prefetching),
    ];
    let title = "Ablation: next-line L1 prefetching";
    sweep(scale, title, &variants, None, &[("delta", delta)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<String, CliError> {
        crate::dispatch(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn every_experiment_runs_at_test_scale_and_names_every_workload() {
        let workloads = suite(Scale::Test);
        for e in EXPERIMENTS {
            let out = (e.run)(Scale::Test);
            assert!(out.starts_with("== "), "{}: no title banner", e.id);
            if e.id == "table1_machine" {
                assert!(out.contains("contexts") && out.contains("L1D"), "{out}");
                continue;
            }
            for name in workloads.iter().map(|w| w.name()) {
                let rows = out.lines().filter(|l| l.split(' ').next() == Some(name));
                assert_eq!(rows.count(), 1, "{}: rows for {name} in\n{out}", e.id);
            }
        }
    }

    #[test]
    fn list_prints_each_id_once_and_unknown_ids_error_with_the_catalogue() {
        let list = cli(&["experiment", "list"]).unwrap();
        assert_eq!(EXPERIMENTS.len(), 19);
        let err = cli(&["experiment", "nope"]).unwrap_err();
        assert!(matches!(err, CliError::UnknownExperiment(_)));
        for e in EXPERIMENTS {
            assert_eq!(list.matches(&format!(" {} ", e.id)).count(), 1, "{}", e.id);
            assert!(err.to_string().contains(e.id), "{err}");
        }
    }

    #[test]
    fn command_takes_the_scale_option_and_nothing_else() {
        let out = cli(&["experiment", "fig8_contexts", "--scale", "test"]).unwrap();
        assert!(out.contains("R-Fig.8") && out.contains("geomean"));
        for bad in [
            &["experiment", "fig8_contexts", "--scale", "huge"][..],
            &["experiment", "fig8_contexts", "extra"],
            &["experiment", "fig8_contexts", "--smoke=1"],
            &["experiment"],
        ] {
            assert!(matches!(cli(bad), Err(CliError::Args(_))), "{bad:?}");
        }
    }

    #[test]
    fn sweep_reproduces_a_hand_computed_geomean_row() {
        let variants = [1usize, 4].map(|c| (format!("c{c}"), machine().with_contexts(c)));
        let traces = suite_with_traces(Scale::Test);
        // By hand: the n-th root of the product of cycle ratios, per variant.
        let by_hand = variants.each_ref().map(|(_, cfg)| {
            let ratios = traces.iter().map(|(_, trace)| {
                let [base, dtt] = run_pair(cfg, trace);
                assert_eq!((base.mode, dtt.mode), (SimMode::Baseline, SimMode::Dtt));
                base.cycles as f64 / dtt.cycles as f64
            });
            let root = ratios.product::<f64>().powf(1.0 / traces.len() as f64);
            format!("{root:.2}x")
        });
        let title = "two variants";
        let out = sweep(Scale::Test, title, &variants, None, &[("delta", delta)]);
        let lines: Vec<&str> = out.lines().collect();
        let cells = |line: &str| {
            line.split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines[0], "== two variants ==");
        assert_eq!(cells(lines[1]), ["benchmark", "c1", "c4", "delta"]);
        assert_eq!(cells(lines[3])[0], "mcf");
        // Banner, header, rule, one row per trace, the geomean row, a blank.
        assert_eq!(lines.len(), traces.len() + 5);
        let geomean_row = cells(lines[traces.len() + 3]);
        assert_eq!(geomean_row, ["geomean", &by_hand[0], &by_hand[1], "-"]);
    }

    #[test]
    fn geomean_and_formatters_match_hand_calc() {
        assert_eq!(fmt_speedup(5.901), "5.90x");
        assert_eq!(fmt_pct(0.785), "78.5%");
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new("a|value");
        t.row("longname|1");
        t.row("x|22");
        t.summary("sum", &[(1, "23".into())]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "{text}");
        assert_eq!(lines[2], "longname      1");
        assert_eq!(lines[4], "sum          23");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        Table::new("a").row("1|2");
    }
}
