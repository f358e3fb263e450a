//! # dtt-cli — command-line interface to the DTT toolchain
//!
//! ```text
//! dtt-cli list                               # the benchmark suite
//! dtt-cli run <workload> [--scale S] [--workers N] [--granularity G] [--no-suppress]
//! dtt-cli profile <workload> [--scale S] [--top N]
//! dtt-cli simulate <workload> [--scale S] [--contexts N] [--spawn C]
//!                             [--queue Q] [--granularity-bytes G] [--no-suppress]
//! dtt-cli trace <workload> --out FILE [--scale S]
//! dtt-cli replay --input FILE [simulate options]
//! dtt-cli obs <metrics|timeline|top> <workload> [--scale S] [--workers N]
//!                                               [--out FILE] [--top N]
//! dtt-cli graph <workload> [--scale S] [--workers N]
//! dtt-cli chaos [--seed N] [--runs K] [--no-shrink]  # seeded fault injection
//! dtt-cli serve [--port N] [--duration-ms N] [--max-inflight N] [--queue N]
//!               [--deadline-ms N] [--view sheet|pipeline|keyed]
//!               [--event-workers N] [--key-space N]  # overload-safe front-end
//! dtt-cli load [--addr A | --self [serve options]] [--rate N] [--conns N]
//!              [--duration-ms N] [--write-tenths N] [--keyed] [--key-space N]
//! dtt-cli machine [simulate options]         # the simulated machine
//! dtt-cli experiment list                    # the reproduction's catalogue
//! dtt-cli experiment <id> [--scale S]        # one table, figure or ablation
//! ```
//!
//! All commands are exposed as library functions returning their output as
//! a `String`, so the test suite drives them without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
mod experiments;

use std::fmt;

pub use args::{ArgError, Args};

/// Top-level CLI errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Argument parsing / validation failed.
    Args(ArgError),
    /// The named workload does not exist.
    UnknownWorkload(String),
    /// The named command does not exist.
    UnknownCommand(String),
    /// The named experiment does not exist.
    UnknownExperiment(String),
    /// A file operation failed.
    Io(std::io::Error),
    /// A trace file failed to decode.
    Trace(dtt_trace::ReadError),
    /// A chaos run violated an invariant (the report carries the seed, the
    /// shrunk schedule and a replay command).
    Chaos(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownWorkload(w) => {
                write!(
                    f,
                    "unknown workload {w:?}; run `dtt-cli list` for the suite"
                )
            }
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; run `dtt-cli help`")
            }
            CliError::UnknownExperiment(id) => {
                write!(
                    f,
                    "unknown experiment {id:?}; known: {}",
                    experiments::ids().join(", ")
                )
            }
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Trace(e) => write!(f, "{e}"),
            CliError::Chaos(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Usage text printed by `help` and on errors.
pub const USAGE: &str = "\
dtt-cli — data-triggered threads toolchain

USAGE:
  dtt-cli list
  dtt-cli run <workload>      [--scale test|train|ref] [--workers N]
                              [--granularity exact|word|line] [--no-suppress]
  dtt-cli profile <workload>  [--scale S] [--top N]
  dtt-cli simulate <workload> [--scale S] [--contexts N] [--spawn CYCLES]
                              [--queue N] [--granularity-bytes N] [--no-suppress]
                              [--private-l1] [--tst N]
  dtt-cli trace <workload>    --out FILE [--scale S]
  dtt-cli replay              --input FILE [simulate options]
  dtt-cli obs metrics  <workload>  [--scale S] [--workers N]
  dtt-cli obs timeline <workload>  [--scale S] [--workers N] [--out FILE]
  dtt-cli obs top      <workload>  [--scale S] [--workers N] [--top N]
  dtt-cli graph <workload>    [--scale S] [--workers N]
  dtt-cli chaos               [--seed N] [--runs K] [--no-shrink]
  dtt-cli serve               [--port N] [--duration-ms N] [--max-inflight N]
                              [--queue N] [--deadline-ms N]
                              [--view sheet|pipeline|keyed]
                              [--event-workers N] [--key-space N]
  dtt-cli load                --addr HOST:PORT | --self [serve options]
                              [--rate N] [--conns N] [--duration-ms N]
                              [--write-tenths N] [--keyed] [--key-space N]
  dtt-cli machine             [simulate options]
  dtt-cli experiment list
  dtt-cli experiment <id>     [--scale S]
  dtt-cli help
";

/// Dispatches a command line (without the program name) and returns the
/// text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing what went wrong; the binary prints it
/// to stderr and exits nonzero.
pub fn dispatch<I: IntoIterator<Item = String>>(raw: I) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let command = match args.positional(0, "command") {
        Ok(c) => c.to_owned(),
        Err(_) => return Ok(USAGE.to_owned()),
    };
    match command.as_str() {
        "list" => commands::list(&args),
        "run" => commands::run(&args),
        "profile" => commands::profile(&args),
        "simulate" => commands::simulate_cmd(&args),
        "trace" => commands::trace_cmd(&args),
        "replay" => commands::replay(&args),
        "obs" => commands::obs(&args),
        "graph" => commands::graph(&args),
        "chaos" => commands::chaos(&args),
        "serve" => commands::serve(&args),
        "load" => commands::load(&args),
        "machine" => commands::machine(&args),
        "experiment" => experiments::command(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        dispatch(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help"]).unwrap().contains("dtt-cli"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            run(&["frobnicate"]),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn list_names_the_whole_suite() {
        let out = run(&["list"]).unwrap();
        for name in [
            "mcf",
            "equake",
            "art",
            "ammp",
            "bzip2",
            "gzip",
            "parser",
            "twolf",
            "vpr",
            "mesa",
            "vortex",
            "crafty",
            "gap",
            "perlbmk",
            "spreadsheet",
            "pipeline",
        ] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn run_reports_skip_stats() {
        let out = run(&["run", "mcf", "--scale", "test"]).unwrap();
        assert!(out.contains("digest check"));
        assert!(out.contains("skips"));
    }

    #[test]
    fn run_rejects_unknown_workload() {
        assert!(matches!(
            run(&["run", "doom", "--scale", "test"]),
            Err(CliError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn profile_reports_redundancy() {
        let out = run(&["profile", "gzip", "--scale", "test", "--top", "3"]).unwrap();
        assert!(out.contains("redundant"));
        assert!(out.contains("site"));
    }

    #[test]
    fn simulate_reports_speedup() {
        let out = run(&["simulate", "twolf", "--scale", "test", "--contexts", "4"]).unwrap();
        assert!(out.contains("speedup"));
    }

    #[test]
    fn machine_prints_configuration() {
        let out = run(&["machine"]).unwrap();
        assert!(out.contains("contexts"));
        assert!(out.contains("L1D"));
    }

    #[test]
    fn trace_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("dtt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mesa.dttrace");
        let path_str = path.to_str().unwrap();
        let out = run(&["trace", "mesa", "--scale", "test", "--out", path_str]).unwrap();
        assert!(out.contains("events"));
        let out = run(&["replay", "--input", path_str]).unwrap();
        assert!(out.contains("speedup"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn obs_metrics_exposes_prometheus_counters() {
        let out = run(&["obs", "metrics", "mcf", "--scale", "test"]).unwrap();
        assert!(out.contains("# TYPE dtt_tracked_stores_total counter"));
        assert!(out.contains("# TYPE dtt_obs_coalesce_ratio gauge"));
        assert!(out.contains("dtt_obs_body_seconds_bucket{le=\"+Inf\"}"));
    }

    #[test]
    fn obs_timeline_emits_a_valid_chrome_trace() {
        let out = run(&["obs", "timeline", "parser", "--scale", "test"]).unwrap();
        let events = dtt_obs::validate_chrome_trace(&out).expect("trace validates");
        assert!(events > 10, "only {events} trace events");
    }

    #[test]
    fn obs_top_reports_hot_regions() {
        let out = run(&["obs", "top", "gzip", "--scale", "test", "--top", "3"]).unwrap();
        assert!(out.starts_with("obs:"));
        assert!(out.contains("per-tthread"));
        assert!(out.contains("hot regions"));
    }

    #[test]
    fn graph_summarizes_the_edge_map_and_waves() {
        let out = run(&["graph", "spreadsheet", "--scale", "test"]).unwrap();
        assert!(out.contains("digest check: ok"));
        assert!(out.contains("total -> avg"), "missing edge:\n{out}");
        assert!(out.contains("cascades"));
        assert!(out.contains("cutoff fraction"));
    }

    #[test]
    fn graph_on_a_single_stage_kernel_reports_no_edges() {
        let out = run(&["graph", "mcf", "--scale", "test"]).unwrap();
        assert!(out.contains("(none declared — single-stage kernel)"));
    }

    #[test]
    fn chaos_runs_pinned_seeds_and_reports() {
        let out = run(&["chaos", "--seed", "101", "--runs", "2"]).unwrap();
        assert!(
            out.contains("seed  101: ok"),
            "missing per-run line:\n{out}"
        );
        assert!(out.contains("2 run(s) from seed 101 passed all invariants"));
    }

    #[test]
    fn serve_runs_drains_and_conserves() {
        let out = run(&["serve", "--port", "0", "--duration-ms", "50"]).unwrap();
        assert!(out.contains("serving on 127.0.0.1:"), "{out}");
        assert!(out.contains("drained after 50 ms"), "{out}");
        assert!(
            out.contains("conservation: admission ok, lifecycle ok"),
            "{out}"
        );
    }

    #[test]
    fn load_self_serve_reports_both_sides() {
        let out = run(&[
            "load",
            "--self",
            "--rate",
            "400",
            "--conns",
            "2",
            "--duration-ms",
            "150",
        ])
        .unwrap();
        assert!(out.contains("throughput"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("serve_accepts"), "{out}");
        assert!(
            out.contains("conservation: admission ok, lifecycle ok"),
            "{out}"
        );
    }

    #[test]
    fn load_without_addr_or_self_errors() {
        assert!(matches!(
            run(&["load", "--rate", "100"]),
            Err(CliError::Args(ArgError::MissingValue(_)))
        ));
    }

    #[test]
    fn chaos_rejects_foreign_options() {
        assert!(matches!(
            run(&["chaos", "--workers", "2"]),
            Err(CliError::Args(ArgError::UnknownOption(_)))
        ));
    }

    #[test]
    fn obs_rejects_unknown_mode() {
        assert!(matches!(
            run(&["obs", "frobnicate", "mcf"]),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn bad_option_is_reported() {
        assert!(matches!(
            run(&["run", "mcf", "--bogus", "1"]),
            Err(CliError::Args(ArgError::UnknownOption(_)))
        ));
        assert!(matches!(
            run(&["run", "mcf", "--bogus"]),
            Err(CliError::Args(ArgError::MissingValue(_)))
        ));
    }

    #[test]
    fn serve_options_reach_the_config_in_both_forms() {
        let parse = |raw: &[&str]| Args::parse(raw.iter().map(|s| s.to_string())).unwrap();
        for raw in [
            &["serve", "--event-workers", "4", "--key-space", "64"][..],
            &["serve", "--event-workers=4", "--key-space=64"],
        ] {
            let cfg = commands::serve_config_from_args(&parse(raw)).unwrap();
            assert_eq!((cfg.event_workers, cfg.key_space), (4, 64), "{raw:?}");
        }
        for raw in [
            &["load", "--self", "--key-space", "notanumber"][..],
            &["load", "--self", "--key-space=notanumber"],
            &["load", "--self", "--event-workers", "nope"],
            &["serve", "--event-workers=nope"],
        ] {
            assert!(
                matches!(run(raw), Err(CliError::Args(ArgError::BadValue { .. }))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn serve_and_load_reject_stray_positionals() {
        for raw in [&["serve", "4"][..], &["load", "--self", "64"]] {
            assert!(
                matches!(
                    run(raw),
                    Err(CliError::Args(ArgError::UnexpectedArgument(_)))
                ),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn usage_mentions_every_option_a_command_accepts() {
        let others = [
            "scale",
            "workers",
            "granularity",
            "top",
            "out",
            "input",
            "seed",
            "runs",
            "no-shrink",
            "addr",
            "self",
            "rate",
            "conns",
            "write-tenths",
            "keyed",
        ];
        let shared = commands::MACHINE_OPTIONS
            .iter()
            .chain(&commands::SERVE_OPTIONS);
        for option in shared.chain(&others) {
            assert!(USAGE.contains(&format!("--{option}")), "--{option}");
        }
        assert!(USAGE.contains("sheet|pipeline|keyed"));
        assert!(USAGE.contains("experiment <id>"));
    }
}
