//! The documents cite each other: code, CHANGES.md and the docs name
//! EXPERIMENTS.md sections by their experiment id (`R-Fig.12`,
//! `R-model-check`) and DESIGN.md sections by number (`DESIGN.md §9`).
//! DESIGN.md also names source files and items in them
//! (`filter.rs::WatchFilter`). These tests keep every such citation
//! resolving, and keep DESIGN.md and EXPERIMENTS.md inside their size
//! budgets, so that growing either or deleting cited code is a red test
//! rather than a review note.

use std::fs;
use std::path::{Path, PathBuf};

/// DESIGN.md describes the current design; history belongs in
/// EXPERIMENTS.md's appendix.
const DESIGN_MAX_BYTES: u64 = 35_000;
/// EXPERIMENTS.md keeps results, one table per retired measurement.
const EXPERIMENTS_MAX_BYTES: u64 = 50_000;

/// Directories whose `.rs` and `.md` files may cite.
const CITING_DIRS: &[&str] = &["crates", "src", "tests", "shims", "examples"];
/// Single files that may cite.
const CITING_FILES: &[&str] = &[
    "CHANGES.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "README.md",
    "ROADMAP.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// Words of the form `R-…` that are prose, not experiment ids.
const NOT_IDS: &[&str] = &["R-id", "R-ids"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// Every `.rs`/`.md` file under `dir`, skipping build output.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "md") {
            out.push(path);
        }
    }
}

/// `(display path, contents)` of every file that may cite.
fn citing_files() -> Vec<(String, String)> {
    let root = root();
    let mut paths = Vec::new();
    for dir in CITING_DIRS {
        walk(&root.join(dir), &mut paths);
    }
    paths.extend(
        CITING_FILES
            .iter()
            .map(|f| root.join(f))
            .filter(|p| p.exists()),
    );
    paths
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            let shown = p.strip_prefix(&root).unwrap_or(&p).display().to_string();
            (shown, text)
        })
        .collect()
}

/// The experiment ids in `line`: `R-Fig.N`, `R-Tab.N`, or `R-` and
/// lowercase words joined by `-` (`R-access-path`). An `R-` that follows
/// a letter, digit or `_` is part of another word (`OR-reduce`).
fn experiment_ids(line: &str) -> Vec<String> {
    let b = line.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut ids = Vec::new();
    let mut i = 0;
    while let Some(at) = line[i..].find("R-").map(|k| i + k) {
        i = at + 2;
        if at > 0 && word(b[at - 1]) {
            continue;
        }
        let rest = &line[at + 2..];
        let end = if rest.starts_with("Fig.") || rest.starts_with("Tab.") {
            let digits = rest[4..].bytes().take_while(u8::is_ascii_digit).count();
            if digits == 0 {
                continue;
            }
            4 + digits
        } else {
            if !rest.bytes().next().is_some_and(|c| c.is_ascii_lowercase()) {
                continue;
            }
            let part = |c: &u8| c.is_ascii_lowercase() || c.is_ascii_digit();
            let mut end = rest.bytes().take_while(part).count();
            while rest[end..].starts_with('-') && rest.as_bytes().get(end + 1).is_some_and(part) {
                end += 1 + rest[end + 1..].bytes().take_while(part).count();
            }
            end
        };
        let id = &line[at..at + 2 + end];
        if !NOT_IDS.contains(&id) {
            ids.push(id.to_string());
        }
        i = at + 2 + end;
    }
    ids
}

/// The section numbers `line` cites: `DESIGN.md §N` and any `/§M` after
/// it; inside DESIGN.md itself, every `§N`.
fn design_sections(line: &str, in_design: bool) -> Vec<u32> {
    let number = |s: &str| -> Option<(u32, usize)> {
        let n = s.bytes().take_while(u8::is_ascii_digit).count();
        s[..n].parse().ok().map(|v| (v, n))
    };
    let mut found = Vec::new();
    if in_design {
        for (at, _) in line.match_indices('§') {
            if let Some((n, _)) = number(&line[at + '§'.len_utf8()..]) {
                found.push(n);
            }
        }
        return found;
    }
    for (at, _) in line.match_indices("DESIGN.md §") {
        let mut rest = &line[at + "DESIGN.md §".len()..];
        while let Some((n, len)) = number(rest) {
            found.push(n);
            rest = &rest[len..];
            match rest.strip_prefix("/§") {
                Some(next) => rest = next,
                None => break,
            }
        }
    }
    found
}

/// The source citations in `line`: each backtick span that is a path
/// ending in `.rs`, alone or followed by `::Name`, as `(path, name)`.
fn source_citations(line: &str) -> Vec<(&str, Option<&str>)> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    line.split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| {
            let (path, name) = match span.split_once("::") {
                Some((path, name)) => (path, Some(name)),
                None => (span, None),
            };
            let is_path = path.ends_with(".rs") && path.len() > 3 && path.chars().all(path_char);
            (is_path && name.is_none_or(ident)).then_some((path, name))
        })
        .collect()
}

/// Whether `source` declares `name` as a `fn`, `struct`, `enum`, `trait`,
/// `const`, `type` or `mod`.
fn declares(source: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    ["fn", "struct", "enum", "trait", "const", "type", "mod"]
        .iter()
        .any(|kw| {
            let decl = format!("{kw} {name}");
            source.match_indices(&decl).any(|(at, _)| {
                let before = source[..at].chars().next_back();
                let after = source[at + decl.len()..].chars().next();
                !before.is_some_and(ident) && !after.is_some_and(ident)
            })
        })
}

#[test]
fn every_cited_source_file_and_item_exists() {
    assert_eq!(
        source_citations("see `mem.rs::store_walk`, `tests/a.rs`, `x.rs::A::b`, `Ctx::set`"),
        [("mem.rs", Some("store_walk")), ("tests/a.rs", None)]
    );
    assert!(declares("pub(crate) fn store_walk<'a>(", "store_walk"));
    assert!(!declares("fn store_walker()", "store_walk"));
    let sources: Vec<(String, String)> = citing_files()
        .into_iter()
        .filter(|(shown, _)| shown.ends_with(".rs"))
        .collect();
    let mut missing = Vec::new();
    for (n, line) in read("DESIGN.md").lines().enumerate() {
        for (path, name) in source_citations(line) {
            let files: Vec<&String> = sources
                .iter()
                .filter(|(shown, _)| shown == path || shown.ends_with(&format!("/{path}")))
                .map(|(_, text)| text)
                .collect();
            let cited = match name {
                Some(name) => format!("{path}::{name}"),
                None => path.to_string(),
            };
            if files.is_empty() {
                missing.push(format!("DESIGN.md:{}: {cited} (no such file)", n + 1));
            } else if name.is_some_and(|name| !files.iter().any(|text| declares(text, name))) {
                missing.push(format!("DESIGN.md:{}: {cited} (not declared there)", n + 1));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md cites source that does not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_cited_experiment_id_names_a_heading() {
    let headings: Vec<String> = read("EXPERIMENTS.md")
        .lines()
        .filter(|l| l.starts_with('#'))
        .flat_map(experiment_ids)
        .collect();
    assert!(headings.iter().any(|h| h == "R-Fig.12"), "no headings read");
    let mut missing = Vec::new();
    for (path, text) in citing_files() {
        for (n, line) in text.lines().enumerate() {
            for id in experiment_ids(line) {
                if !headings.contains(&id) {
                    missing.push(format!("{path}:{}: {id}", n + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "experiment ids with no EXPERIMENTS.md heading:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_cited_design_section_exists() {
    let sections: Vec<u32> = read("DESIGN.md")
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|l| l.split_once(". ").and_then(|(n, _)| n.parse().ok()))
        .collect();
    assert_eq!(
        sections,
        (1..=11).collect::<Vec<u32>>(),
        "DESIGN.md's numbered sections"
    );
    let mut missing = Vec::new();
    for (path, text) in citing_files() {
        for (n, line) in text.lines().enumerate() {
            for s in design_sections(line, path == "DESIGN.md") {
                if !sections.contains(&s) {
                    missing.push(format!("{path}:{}: §{s}", n + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md sections cited but absent:\n{}",
        missing.join("\n")
    );
}

#[test]
fn design_and_experiments_stay_inside_their_budgets() {
    for (doc, max) in [
        ("DESIGN.md", DESIGN_MAX_BYTES),
        ("EXPERIMENTS.md", EXPERIMENTS_MAX_BYTES),
    ] {
        let len = fs::metadata(root().join(doc)).expect(doc).len();
        assert!(
            len <= max,
            "{doc} is {len} bytes, over its {max}-byte budget"
        );
    }
}

#[test]
fn the_id_scanner_reads_ids_and_skips_words() {
    assert_eq!(
        experiment_ids("see R-Fig.12 and (R-access-path), R-Tab.3: R-chaos."),
        ["R-Fig.12", "R-access-path", "R-Tab.3", "R-chaos"]
    );
    assert!(experiment_ids("OR-reduced, R-Fig.N, R-2, an R-id, XR-foo").is_empty());
    assert_eq!(
        design_sections("DESIGN.md §2/§5/§6 and §9", false),
        [2, 5, 6]
    );
    assert_eq!(design_sections("as §10 says, §4", true), [10, 4]);
}
