//! The CLI subcommands.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};

use dtt_core::{Config, Granularity};
use dtt_obs::ObsReport;
use dtt_profile::{LoadProfiler, RedundancyProfiler, StoreProfiler};
use dtt_sim::{simulate, MachineConfig, SimMode};
use dtt_trace::Trace;
use dtt_workloads::{suite, Scale, Workload};

use crate::args::{ArgError, Args};
use crate::CliError;

/// The `--scale` option, if given.
pub(crate) fn scale_option(args: &Args) -> Result<Option<Scale>, CliError> {
    match args.get("scale") {
        None => Ok(None),
        Some("test") => Ok(Some(Scale::Test)),
        Some("train") => Ok(Some(Scale::Train)),
        Some("ref") | Some("reference") => Ok(Some(Scale::Reference)),
        Some(other) => Err(ArgError::BadValue {
            option: "scale".into(),
            value: other.into(),
        }
        .into()),
    }
}

fn parse_scale(args: &Args) -> Result<Scale, CliError> {
    Ok(scale_option(args)?.unwrap_or(Scale::Train))
}

fn parse_granularity(args: &Args) -> Result<Granularity, CliError> {
    match args.get("granularity") {
        None | Some("exact") => Ok(Granularity::Exact),
        Some("word") => Ok(Granularity::Word),
        Some("line") => Ok(Granularity::Line),
        Some(other) => match other.parse::<u32>() {
            Ok(b) if b.is_power_of_two() => Ok(Granularity::Block(b)),
            _ => Err(ArgError::BadValue {
                option: "granularity".into(),
                value: other.into(),
            }
            .into()),
        },
    }
}

fn find_workload(args: &Args, scale: Scale) -> Result<Box<dyn Workload>, CliError> {
    let name = args.positional(1, "workload").map_err(CliError::Args)?;
    suite(scale)
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| CliError::UnknownWorkload(name.to_owned()))
}

/// The options [`machine_from_args`] reads (`simulate`, `replay`, `machine`).
pub(crate) const MACHINE_OPTIONS: [&str; 7] = [
    "contexts",
    "spawn",
    "queue",
    "granularity-bytes",
    "no-suppress",
    "private-l1",
    "tst",
];

fn machine_from_args(args: &Args) -> Result<MachineConfig, CliError> {
    let cfg = MachineConfig::default()
        .with_contexts(args.get_parsed("contexts", 2usize)?)
        .with_spawn_overhead(args.get_parsed("spawn", 100u64)?)
        .with_queue_capacity(args.get_parsed("queue", 16usize)?)
        .with_granularity_bytes(args.get_parsed("granularity-bytes", 8u32)?)
        .with_silent_store_suppression(!args.flag("no-suppress"))
        .with_private_l1(args.flag("private-l1"))
        .with_tst_capacity(args.get_parsed("tst", 256usize)?);
    cfg.validate();
    Ok(cfg)
}

/// `dtt-cli list`
pub fn list(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["scale"]).map_err(CliError::Args)?;
    let mut out = String::from("workload  modelled on         redundancy structure\n");
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for w in suite(Scale::Test) {
        let _ = writeln!(
            out,
            "{:<9} {:<19} {}",
            w.name(),
            w.spec_inspiration(),
            w.description()
        );
    }
    Ok(out)
}

/// `dtt-cli run <workload>`
pub fn run(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["scale", "workers", "granularity", "no-suppress"])
        .map_err(CliError::Args)?;
    let scale = parse_scale(args)?;
    let w = find_workload(args, scale)?;
    let cfg = Config::default()
        .with_workers(args.get_parsed("workers", 0usize)?)
        .with_granularity(parse_granularity(args)?)
        .with_silent_store_suppression(!args.flag("no-suppress"));
    let baseline = w.run_baseline();
    let run = w.run_dtt(cfg);
    let check = if baseline == run.digest {
        "ok"
    } else {
        "MISMATCH"
    };
    let mut out = String::new();
    let _ = writeln!(out, "workload {} at {scale} scale", w.name());
    let _ = writeln!(out, "digest check: {check} (0x{baseline:016x})");
    let _ = writeln!(out, "\nper-tthread:");
    for t in &run.tthreads {
        let _ = writeln!(
            out,
            "  {:<24} {:>8} executions  {:>8} skips  {:>8} triggers",
            t.name, t.executions, t.skips, t.triggers
        );
    }
    let _ = writeln!(out, "\n{}", run.stats);
    Ok(out)
}

/// `dtt-cli profile <workload>`
pub fn profile(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["scale", "top"])
        .map_err(CliError::Args)?;
    let scale = parse_scale(args)?;
    let w = find_workload(args, scale)?;
    let trace = w.trace();
    profile_trace(&trace, w.name(), args.get_parsed("top", 5usize)?)
}

fn profile_trace(trace: &Trace, label: &str, top: usize) -> Result<String, CliError> {
    let loads = LoadProfiler::profile(trace);
    let redundancy = RedundancyProfiler::profile(trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile of {label}: {} events, {} instructions",
        trace.events().len(),
        trace.instructions()
    );
    let _ = writeln!(out, "redundant loads: {loads}");
    let _ = writeln!(out, "redundant computation: {redundancy}");
    let _ = writeln!(out, "\ntop redundant load sites (tthread candidates):");
    for (site, stats) in loads.hottest_sites().into_iter().take(top) {
        let _ = writeln!(
            out,
            "  site {:<4} {:>10} loads, {:>9} redundant ({:.1}%)",
            site,
            stats.loads,
            stats.redundant,
            100.0 * stats.redundant_fraction()
        );
    }
    let stores = StoreProfiler::profile(trace);
    let _ = writeln!(out, "\nsilent stores: {stores}");
    let _ = writeln!(
        out,
        "top trigger-candidate store sites (mixed silent/changing):"
    );
    for (site, stats) in stores.candidate_sites().into_iter().take(top) {
        let _ = writeln!(
            out,
            "  site {:<4} {:>10} stores, {:>5.1}% silent, {:>8} addresses",
            site,
            stats.stores,
            100.0 * stats.silent_fraction(),
            stats.addresses
        );
    }
    let _ = writeln!(out, "\nper-tthread redundancy:");
    for (i, t) in redundancy.tthreads.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<24} {:>6}/{:<6} instances redundant, {:>4.1}% silent watched stores",
            trace.tthread_names()[i],
            t.redundant_instances,
            t.instances,
            100.0 * t.silent_fraction()
        );
    }
    Ok(out)
}

/// `dtt-cli simulate <workload>`
pub fn simulate_cmd(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[&["scale"][..], &MACHINE_OPTIONS].concat())?;
    let scale = parse_scale(args)?;
    let w = find_workload(args, scale)?;
    let trace = w.trace();
    simulate_trace(&trace, w.name(), &machine_from_args(args)?)
}

fn simulate_trace(trace: &Trace, label: &str, cfg: &MachineConfig) -> Result<String, CliError> {
    let base = simulate(cfg, trace, SimMode::Baseline);
    let dtt = simulate(cfg, trace, SimMode::Dtt);
    let mut out = String::new();
    let _ = writeln!(out, "simulating {label} on:\n{cfg}\n");
    let _ = writeln!(out, "baseline machine:\n{base}\n");
    let _ = writeln!(out, "dtt machine:\n{dtt}\n");
    let _ = writeln!(out, "speedup: {:.2}x", base.speedup_over(&dtt));
    Ok(out)
}

/// `dtt-cli obs <metrics|timeline|top> <workload>`
pub fn obs(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["scale", "workers", "top", "out"])
        .map_err(CliError::Args)?;
    let mode = args.positional(1, "obs mode").map_err(CliError::Args)?;
    let scale = parse_scale(args)?;
    let name = args.positional(2, "workload").map_err(CliError::Args)?;
    let w = suite(scale)
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| CliError::UnknownWorkload(name.to_owned()))?;
    let cfg = Config::default()
        .with_workers(args.get_parsed("workers", 0usize)?)
        .with_observability(true);
    let run = w.run_dtt(cfg);
    let rec = run.obs.unwrap_or_default();
    let names: Vec<String> = run.tthreads.iter().map(|t| t.name.clone()).collect();
    match mode {
        "metrics" => {
            let report = ObsReport::from_recording(&rec);
            Ok(dtt_obs::prometheus::render(&run.stats, Some(&report)))
        }
        "timeline" => {
            let text = dtt_obs::chrome::render(&rec, &names);
            let traced = dtt_obs::validate_chrome_trace(&text)
                .unwrap_or_else(|e| panic!("generated an invalid Chrome trace: {e}"));
            match args.get("out") {
                Some(path) => {
                    std::fs::write(path, &text)?;
                    Ok(format!(
                        "wrote {traced} trace events ({} lifecycle events, {} dropped) \
                         for {} to {path}\n\
                         open in https://ui.perfetto.dev or chrome://tracing\n",
                        rec.events.len(),
                        rec.dropped,
                        w.name()
                    ))
                }
                None => Ok(text),
            }
        }
        "top" => {
            let report = ObsReport::from_recording(&rec).with_names(names);
            Ok(report.top_report(args.get_parsed("top", 10usize)?))
        }
        other => Err(ArgError::BadValue {
            option: "obs mode".into(),
            value: other.into(),
        }
        .into()),
    }
}

/// `dtt-cli trace <workload> --out FILE`
pub fn trace_cmd(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["scale", "out"])
        .map_err(CliError::Args)?;
    let scale = parse_scale(args)?;
    let w = find_workload(args, scale)?;
    let path = args
        .get("out")
        .ok_or(CliError::Args(ArgError::MissingValue("out".into())))?;
    let trace = w.trace();
    let file = File::create(path)?;
    dtt_trace::write_trace(&trace, BufWriter::new(file))?;
    Ok(format!(
        "wrote {} events ({} instructions) for {} to {path}\n",
        trace.events().len(),
        trace.instructions(),
        w.name()
    ))
}

/// `dtt-cli replay --input FILE`
pub fn replay(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[&["input", "top"][..], &MACHINE_OPTIONS].concat())?;
    let path = args
        .get("input")
        .ok_or(CliError::Args(ArgError::MissingValue("input".into())))?;
    let file = File::open(path)?;
    let trace = dtt_trace::read_trace(BufReader::new(file)).map_err(CliError::Trace)?;
    let mut out = profile_trace(&trace, path, args.get_parsed("top", 5usize)?)?;
    out.push('\n');
    out.push_str(&simulate_trace(&trace, path, &machine_from_args(args)?)?);
    Ok(out)
}

/// `dtt-cli machine`
pub fn machine(args: &Args) -> Result<String, CliError> {
    args.expect_only(&MACHINE_OPTIONS)?;
    Ok(format!("{}\n", machine_from_args(args)?))
}

/// `dtt-cli chaos [--seed N] [--runs K] [--no-shrink]`
///
/// Runs seeded randomized fault schedules against the runtime and checks
/// the chaos invariants after each. On a violation the error report names
/// the seed, the minimal shrunk fault schedule (unless `--no-shrink`), and
/// a copy-paste replay command.
pub fn chaos(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["seed", "runs", "no-shrink"])
        .map_err(CliError::Args)?;
    let seed = args.get_parsed("seed", 1u64)?;
    let runs = args.get_parsed("runs", 8usize)?;
    match dtt_chaos::run_many(seed, runs) {
        Ok(summaries) => {
            let mut out = String::new();
            for s in &summaries {
                let _ = writeln!(out, "{}", s.line());
            }
            let _ = writeln!(
                out,
                "chaos: {runs} run(s) from seed {seed} passed all invariants"
            );
            Ok(out)
        }
        Err(failure) => {
            let mut report = failure.to_string();
            if !args.flag("no-shrink") {
                let minimal = dtt_chaos::shrink(&failure.config);
                let armed: Vec<&str> = minimal
                    .plan
                    .armed_points()
                    .into_iter()
                    .map(|p| p.name())
                    .collect();
                let _ = write!(
                    report,
                    "\n  shrunk: ops={} armed=[{}]",
                    minimal.ops,
                    armed.join(", ")
                );
            }
            Err(CliError::Chaos(report))
        }
    }
}

/// `dtt-cli graph <workload> [--scale S] [--workers N]`
///
/// Runs the workload and summarizes its dependency graph: the declared
/// writer→reader edge map and the trigger-wave counters (cascades, how
/// each cascade resolved, per-epoch dedups, rejected cycles). Only the
/// multi-stage kernels declare edges; single-stage kernels print an empty
/// edge map and zero cascades.
pub fn graph(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["scale", "workers"])
        .map_err(CliError::Args)?;
    let scale = parse_scale(args)?;
    let w = find_workload(args, scale)?;
    let cfg = Config::default().with_workers(args.get_parsed("workers", 0usize)?);
    let baseline = w.run_baseline();
    let run = w.run_dtt(cfg);
    let check = if baseline == run.digest {
        "ok"
    } else {
        "MISMATCH"
    };
    let mut out = String::new();
    let _ = writeln!(out, "workload {} at {scale} scale", w.name());
    let _ = writeln!(out, "digest check: {check} (0x{baseline:016x})");
    let _ = writeln!(out, "\ndependency edges ({}):", run.edges.len());
    if run.edges.is_empty() {
        let _ = writeln!(out, "  (none declared — single-stage kernel)");
    }
    for (writer, reader) in &run.edges {
        let _ = writeln!(out, "  {writer} -> {reader}");
    }
    let c = run.stats.counters();
    let _ = writeln!(out, "\ntrigger waves:");
    let _ = writeln!(out, "  cascades           {:>10}", c.cascades);
    let _ = writeln!(out, "  cascade enqueues   {:>10}", c.cascade_enqueues);
    let _ = writeln!(out, "  cascade coalesced  {:>10}", c.cascade_coalesced);
    let _ = writeln!(out, "  cascade cutoffs    {:>10}", c.cascade_cutoffs);
    let _ = writeln!(out, "  wave dedups        {:>10}", c.wave_dedups);
    let _ = writeln!(
        out,
        "  cycles rejected    {:>10}",
        c.trigger_cycles_rejected
    );
    if c.cascades > 0 {
        let _ = writeln!(
            out,
            "  cutoff fraction    {:>9.1}%",
            100.0 * c.cascade_cutoffs as f64 / c.cascades as f64
        );
    }
    Ok(out)
}

/// The options of `serve`, which `load --self` accepts as well: what
/// [`serve_config_from_args`] reads, plus the run length.
pub(crate) const SERVE_OPTIONS: [&str; 8] = [
    "port",
    "duration-ms",
    "max-inflight",
    "queue",
    "deadline-ms",
    "view",
    "event-workers",
    "key-space",
];

/// Builds a [`dtt_serve::ServeConfig`] from the `serve`/`load --self`
/// option set, starting from the defaults.
pub(crate) fn serve_config_from_args(args: &Args) -> Result<dtt_serve::ServeConfig, CliError> {
    let mut cfg = dtt_serve::ServeConfig::default();
    cfg.addr = format!("127.0.0.1:{}", args.get_parsed("port", 0u16)?);
    cfg.max_inflight = args.get_parsed("max-inflight", cfg.max_inflight)?;
    cfg.queue_cap = args.get_parsed("queue", cfg.queue_cap)?.max(1);
    cfg.deadline = std::time::Duration::from_millis(
        args.get_parsed("deadline-ms", cfg.deadline.as_millis() as u64)?,
    );
    cfg.event_workers = args.get_parsed("event-workers", cfg.event_workers)?.max(1);
    cfg.key_space = args.get_parsed("key-space", cfg.key_space)?.max(1);
    cfg.view = match args.get("view") {
        None | Some("sheet") => dtt_serve::ViewKind::Sheet,
        Some("pipeline") => dtt_serve::ViewKind::Pipeline,
        Some("keyed") => dtt_serve::ViewKind::Keyed,
        Some(other) => {
            return Err(ArgError::BadValue {
                option: "view".into(),
                value: other.into(),
            }
            .into())
        }
    };
    Ok(cfg)
}

fn serve_stats_block(stats: &dtt_serve::ServeStatsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "request lifecycle:");
    for (name, value) in stats.fields() {
        let _ = writeln!(out, "  {name:<22} {value:>10}");
    }
    let _ = writeln!(
        out,
        "  conservation: admission {}, lifecycle {}",
        if stats.admission_conserved() {
            "ok"
        } else {
            "VIOLATED"
        },
        if stats.lifecycle_conserved() {
            "ok"
        } else {
            "VIOLATED"
        },
    );
    out
}

/// `dtt-cli serve [--port N] [--duration-ms N] [--max-inflight N]
///                [--queue N] [--deadline-ms N] [--view sheet|pipeline|keyed]
///                [--event-workers N] [--key-space N]`
///
/// Runs the overload-safe front-end for `--duration-ms` (0 serves until
/// the process is killed), then drains and prints the request-lifecycle
/// counters with their conservation verdicts.
pub fn serve(args: &Args) -> Result<String, CliError> {
    args.expect_only(&SERVE_OPTIONS)?;
    args.expect_positionals(1)?;
    let duration_ms = args.get_parsed("duration-ms", 1_000u64)?;
    let cfg = serve_config_from_args(args)?;
    let inflight = cfg.max_inflight;
    let queue = cfg.queue_cap;
    let deadline = cfg.deadline;
    let mut server = dtt_serve::Server::start(cfg)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serving on {} (inflight {}, queue {}, deadline {:?})",
        server.local_addr(),
        inflight,
        queue,
        deadline
    );
    // The CLI prints only after the run, so announce on stdout directly
    // for anyone waiting to connect.
    println!("dtt-serve listening on {}", server.local_addr());
    if duration_ms == 0 {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(duration_ms));
    server.shutdown(std::time::Duration::from_secs(30))?;
    let _ = writeln!(out, "drained after {duration_ms} ms");
    out.push_str(&serve_stats_block(&server.stats()));
    Ok(out)
}

/// `dtt-cli load --addr HOST:PORT [--rate N] [--conns N] [--duration-ms N]
///               [--write-tenths N] [--keyed] [--key-space N]`
/// `dtt-cli load --self [serve options] [load options]`
///
/// Open-loop load generator (latency measured from scheduled send
/// instants). With `--self` it starts an in-process server first, drives
/// it, drains it, and prints both sides — the CI smoke path. `--keyed`
/// switches reads to `GetKey` shard-row lookups (implied by
/// `--view keyed`).
pub fn load(args: &Args) -> Result<String, CliError> {
    let own = ["addr", "self", "rate", "conns", "write-tenths", "keyed"];
    args.expect_only(&[&own[..], &SERVE_OPTIONS].concat())?;
    args.expect_positionals(1)?;
    let self_serve = args.flag("self");
    let mut server = if self_serve {
        Some(dtt_serve::Server::start(serve_config_from_args(args)?)?)
    } else {
        None
    };
    let addr = match (&server, args.get("addr")) {
        (Some(s), _) => s.local_addr().to_string(),
        (None, Some(addr)) => addr.to_owned(),
        (None, None) => {
            return Err(ArgError::MissingValue("addr".into()).into());
        }
    };
    let load_cfg = dtt_serve::LoadConfig {
        addr,
        conns: args.get_parsed("conns", 4usize)?.max(1),
        rate: args.get_parsed("rate", 1_000u64)?.max(1),
        duration: std::time::Duration::from_millis(args.get_parsed("duration-ms", 1_000u64)?),
        write_tenths: args.get_parsed("write-tenths", 7u32)?.min(10),
        keyed: args.flag("keyed") || args.get("view") == Some("keyed"),
        key_space: args.get_parsed("key-space", 512u64)?.max(1),
        ..dtt_serve::LoadConfig::default()
    };
    let report = dtt_serve::load::run(&load_cfg)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "load: {} conns at {} req/s for {:?} against {}",
        load_cfg.conns, load_cfg.rate, load_cfg.duration, load_cfg.addr
    );
    let _ = writeln!(
        out,
        "sent {} | ok {} | shed {} | degraded {} | dropped {} | errors {}",
        report.sent, report.ok, report.shed, report.degraded, report.dropped, report.errors
    );
    let _ = writeln!(
        out,
        "throughput {:.0} resp/s | p50 {:.2} ms | p99 {:.2} ms | goodput {:.1}%",
        report.response_throughput(),
        report.latency_ns(0.50) as f64 / 1e6,
        report.latency_ns(0.99) as f64 / 1e6,
        100.0 * report.goodput_fraction()
    );
    if let Some(server) = server.as_mut() {
        server.shutdown(std::time::Duration::from_secs(30))?;
        out.push_str(&serve_stats_block(&server.stats()));
    }
    Ok(out)
}
