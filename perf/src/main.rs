//! `perf` — the repo's benchmark: seven seeded workloads, checked against
//! plain models, measured end to end and layer by layer from outside the
//! program. See `perf/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! perf run [--seed <n>] [--trace] [--smoke] [--workload <name>] [--reps <n>] [--out <file>]
//!                                                                every workload, each in a fresh child process
//! perf check <a.json>[:<set>] <b.json>[:<set>]                    compare two result files against the bounds
//! ```
//!
//! No environment variables, no other knobs.

mod check;
mod host;
mod json;
mod layers;
mod rng;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use run::RunArgs;

/// Where traces and result files go: `perf/out/`, beside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn benchmark_json() -> Result<Json, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--flag value` pairs and bare `--flag`s, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }

    fn present(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn workload(&mut self) -> Result<Option<&'static workloads::Workload>, String> {
        match self.value("--workload")? {
            None => Ok(None),
            Some(name) => workloads::find(&name).map(Some).ok_or_else(|| {
                let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; one of {}", names.join(", "))
            }),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

/// One workload in this process. Prints the readable lines, the result-file
/// entry (`detail {...}`), and last the driver's JSON line.
fn one(mut flags: Flags) -> Result<bool, String> {
    let args = RunArgs {
        workload: flags.workload()?.ok_or("--workload is required")?,
        seed: flags.parsed("--seed")?.ok_or("--seed is required")?,
        seconds: flags.parsed("--seconds")?.ok_or("--seconds is required")?,
        trace: match flags.value("--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke: flags.present("--smoke"),
        reps: flags.parsed("--reps")?,
    };
    flags.finish()?;
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let outcome = run::run(&args);
    outcome.print();
    println!("detail {}", outcome.detail());
    println!("{}", outcome.contract_line());
    Ok(outcome.correct())
}

/// Every workload (or one), each in a fresh child process so that peak RSS
/// and per-process hash seeds do not leak from one to the next.
fn all(mut flags: Flags) -> Result<bool, String> {
    let only = flags.workload()?;
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let reps: Option<usize> = flags.parsed("--reps")?;
    let (trace, smoke) = (flags.present("--trace"), flags.present("--smoke"));
    let out: Option<PathBuf> = flags.value("--out")?.map(PathBuf::from);
    flags.finish()?;
    let seconds = benchmark_json()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;

    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut entries = Vec::new();
    let mut correct = true;
    println!("host: {}", host::facts());
    for w in workloads::ALL
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name, "--seed", &seed.to_string()]);
        child.args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
        if smoke {
            child.arg("--smoke");
        }
        if let Some(n) = reps {
            child.args(["--reps", &n.to_string()]);
        }
        let output = child
            .output()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut detail = None;
        for line in stdout.lines() {
            match line.strip_prefix("detail ") {
                Some(json) => detail = Some(Json::parse(json)?),
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        correct &= output.status.success();
        match detail {
            Some(d) => entries.push((w.name, d)),
            None => {
                return Err(format!(
                    "{}: the child printed no result ({})",
                    w.name, output.status
                ))
            }
        }
    }

    if let Some(path) = out {
        let set = Json::obj([
            ("seed", Json::from(seed)),
            ("trace", Json::Bool(trace)),
            ("smoke", Json::Bool(smoke)),
            ("workloads", Json::obj(entries)),
        ]);
        let mut sets = match std::fs::read_to_string(&path) {
            Err(_) => Vec::new(),
            Ok(text) => Json::parse(&text)?
                .get("sets")
                .and_then(Json::as_array)
                .ok_or(format!("{}: not a result file", path.display()))?
                .to_vec(),
        };
        sets.push(set);
        let doc = Json::obj([("host", host::facts()), ("sets", Json::Arr(sets))]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("check takes two result files".into());
    };
    let bounds = check::bounds_from(&benchmark_json()?)?;
    check::check(
        &bounds,
        &check::Selected::load(a)?,
        &check::Selected::load(b)?,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => all(Flags(args[1..].to_vec())),
        Some("check") => compare(&args[1..]),
        _ => one(Flags(args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            eprintln!("usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("       perf run [--seed <n>] [--trace] [--smoke] [--workload <name>] [--reps <n>] [--out <file>]");
            eprintln!("       perf check <a.json>[:<set>] <b.json>[:<set>]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(list: Option<&Json>, first: &str, second: &str) -> Vec<(String, String)> {
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        list.and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|item| (text(item, first), text(item, second)))
            .collect()
    }

    /// `BENCHMARK.json` promises the driver one metric list per kind of run
    /// and a `why` per workload; the runs must print exactly those.
    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        let doc = benchmark_json().expect("BENCHMARK.json at the repo root");
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let outcome = run::run(&RunArgs {
                workload: workloads::find("cascade").unwrap(),
                seed: 1,
                seconds: 1.0,
                trace,
                smoke: true,
                reps: None,
            });
            assert!(outcome.correct(), "{:?}", outcome.first_failure);
            let line = outcome.contract_line();
            let printed: Vec<(String, String)> = line
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(printed, pairs(doc.get(key), "name", "unit"), "{key}");
        }
        let declared: Vec<_> = workloads::ALL
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, pairs(doc.get("workloads"), "name", "why"));
    }
}
