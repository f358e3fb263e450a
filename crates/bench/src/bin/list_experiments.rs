//! Prints the experiment catalogue: every binary in this crate, what it
//! reproduces, and the paper reference point where one exists.

fn main() {
    println!("== dtt-bench experiment catalogue ==");
    println!("run each with: cargo run --release -p dtt-bench --bin <name>\n");
    let rows: &[(&str, &str)] = &[
        ("table1_machine", "R-Tab.1  simulated machine configuration"),
        (
            "fig1_redundant_loads",
            "R-Fig.1  redundant loads per benchmark (paper: 78% mean)",
        ),
        (
            "fig2_redundant_computation",
            "R-Fig.2  redundant computation per benchmark",
        ),
        (
            "table2_benchmarks",
            "R-Tab.2  tthread characteristics (software runtime)",
        ),
        (
            "fig5_speedup",
            "R-Fig.5  HEADLINE: speedup per benchmark (paper: max 5.9x, avg 46%)",
        ),
        (
            "fig6_breakdown",
            "R-Fig.6  elimination-only vs +overlap decomposition",
        ),
        (
            "fig7_spawn_overhead",
            "R-Fig.7  spawn-overhead sensitivity sweep",
        ),
        ("fig8_contexts", "R-Fig.8  hardware-context sweep"),
        (
            "fig9_granularity",
            "R-Fig.9  trigger granularity + false triggers",
        ),
        ("fig10_queue_size", "R-Fig.10 thread-queue capacity sweep"),
        (
            "table3_instructions",
            "R-Tab.3  dynamic instructions eliminated",
        ),
        ("fig11_energy", "R-Fig.11 activity-based energy proxy"),
        (
            "fig12_wallclock",
            "R-Fig.12 measured wall-clock of the software runtime",
        ),
        (
            "fig13_memory_latency",
            "R-Fig.13 memory-latency sensitivity (extension)",
        ),
        (
            "ablation_suppression",
            "Abl.1    silent-store suppression on/off",
        ),
        ("ablation_coalescing", "Abl.2    trigger coalescing on/off"),
        (
            "ablation_private_l1",
            "Abl.3    shared vs private L1 for tthread contexts",
        ),
        (
            "ablation_tst_capacity",
            "Abl.4    thread status table capacity sweep",
        ),
        ("ablation_prefetch", "Abl.5    next-line L1 prefetching"),
    ];
    for (name, what) in rows {
        println!("  {name:<28} {what}");
    }
    println!(
        "\nperf/run.sh   the repo benchmark: per-layer micro metrics + seven end-to-end workloads"
    );
}
