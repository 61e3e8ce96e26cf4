//! # rtft-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! | Target | Artefact |
//! |---|---|
//! | `cargo bench -p rtft-bench --bench table1` | Table 1 (experiment parameters) |
//! | `… --bench table2_mjpeg` | Table 2, MJPEG block |
//! | `… --bench table2_adpcm` | Table 2, ADPCM block |
//! | `… --bench table2_h264` | Table 2 extension (H.264; paper omitted it for space) |
//! | `… --bench table3` | Table 3 (vs distance-function approach) |
//! | `… --bench ablations` | E9 ablations (deadlock demo, threshold sweep, detector split) |
//! | `… --bench overhead` | Per-op framework cost + metrics on/off ablation |
//! | `… --bench hetero` | E16 sampled-checker frontier (detection bound vs compute, k sweep) |
//!
//! Figures 1–2 are structural diagrams regenerated by
//! `examples/network_topology.rs` as Graphviz DOT.
//!
//! Every campaign runs on the deterministic simulation engine, so all
//! numbers are reproducible; measured-vs-paper comparisons are recorded in
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod campaign;
pub mod hetero;
pub mod paper;
pub mod report;
pub mod tables;

use rtft_apps::networks::App;
use rtft_core::{Replicator, ReplicatorConfig, Selector, SelectorConfig};
use rtft_kpn::{ChannelBehavior, Payload, Token};
use rtft_rtc::sizing::SizingReport;
use rtft_rtc::TimeNs;

/// Measured per-operation wall-clock cost of the framework channels,
/// Table 2's "Runtime" overhead row.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOverhead {
    /// Nanoseconds per replicator write+read pair.
    pub replicator_ns: f64,
    /// Nanoseconds per selector write+read pair.
    pub selector_ns: f64,
}

/// Times the channel state machines with a simple hot loop (the
/// `overhead` bench provides the rigorous numbers; this quick variant
/// feeds the Table 2 printout).
pub fn measure_runtime_overhead(iterations: u64) -> RuntimeOverhead {
    let tok = |seq| Token::new(seq, TimeNs::ZERO, Payload::U64(seq));

    let mut replicator = Replicator::new("bench", ReplicatorConfig::new([4, 4]));
    let start = std::time::Instant::now();
    for i in 0..iterations {
        let _ = replicator.try_write(0, tok(i), TimeNs::from_ns(i));
        let _ = replicator.try_read(0, TimeNs::from_ns(i));
        let _ = replicator.try_read(1, TimeNs::from_ns(i));
    }
    let replicator_ns = start.elapsed().as_nanos() as f64 / iterations as f64;

    let mut selector = Selector::new("bench", SelectorConfig::new([4, 4], 3));
    let start = std::time::Instant::now();
    for i in 0..iterations {
        let _ = selector.try_write(0, tok(i), TimeNs::from_ns(i));
        let _ = selector.try_write(1, tok(i), TimeNs::from_ns(i));
        let _ = selector.try_read(0, TimeNs::from_ns(i));
    }
    let selector_ns = start.elapsed().as_nanos() as f64 / iterations as f64;

    RuntimeOverhead {
        replicator_ns,
        selector_ns,
    }
}

/// Memory overhead of the framework channels (state only, tokens
/// excluded), Table 2's "Memory" row.
#[derive(Debug, Clone, Copy)]
pub struct MemoryOverhead {
    /// Replicator bookkeeping bytes.
    pub replicator_bytes: usize,
    /// Selector bookkeeping bytes.
    pub selector_bytes: usize,
    /// Tokens of queue storage at the replicator (|R₁| + |R₂|).
    pub replicator_tokens: u64,
    /// Tokens of queue storage at the selector (max(|S₁|, |S₂|)).
    pub selector_tokens: u64,
}

/// Computes the memory overhead for an application profile.
pub fn memory_overhead(app: App) -> MemoryOverhead {
    let sizing = SizingReport::analyze(&app.profile().model).expect("bounded profile");
    MemoryOverhead {
        replicator_bytes: Replicator::state_bytes(),
        selector_bytes: Selector::state_bytes(),
        replicator_tokens: sizing.replicator_capacity[0] + sizing.replicator_capacity[1],
        selector_tokens: sizing.selector_queue_size(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::path::{Path, PathBuf};

    #[test]
    fn runtime_overhead_is_sub_microsecond() {
        // The paper reports 2.1–5 µs per op on a 533 MHz in-order core; a
        // modern host must be far below that, and in any case well below
        // the token periods (30 ms / 6.3 ms).
        let o = measure_runtime_overhead(100_000);
        assert!(o.replicator_ns < 5_000.0, "{}", o.replicator_ns);
        assert!(o.selector_ns < 5_000.0, "{}", o.selector_ns);
    }

    #[test]
    fn memory_overhead_matches_paper_scale() {
        let m = memory_overhead(App::Mjpeg);
        // Paper: 1.5 KB replicator / 2.1 KB selector state. Ours is a Rust
        // struct of counters — same order, strictly smaller.
        assert!(m.replicator_bytes <= 1_536);
        assert!(m.selector_bytes <= 2_100);
        assert_eq!(m.replicator_tokens, 5, "|R1|+|R2| = 2+3");
        assert_eq!(m.selector_tokens, 6, "max(|S1|,|S2|)");
    }

    /// The workspace root.
    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// A file under the workspace root, as text.
    fn read(path: &str) -> String {
        std::fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Every `.rs` file under `dir` (relative to the root), recursively.
    fn rust_files(dir: &str, out: &mut Vec<String>) {
        let entries = std::fs::read_dir(root().join(dir)).unwrap_or_else(|e| panic!("{dir}: {e}"));
        for entry in entries {
            let name = entry.expect("dir entry").file_name();
            let path = format!("{dir}/{}", name.to_string_lossy());
            if root().join(&path).is_dir() {
                rust_files(&path, out);
            } else if path.ends_with(".rs") {
                out.push(path);
            }
        }
    }

    /// `(name, one-line reason)` for each `pub fn` that no other file
    /// names but the docs quote as an entry point, so it stays public.
    const NAMED_ONLY_AT_HOME: &[(&str, &str)] = &[];

    /// Every library crate's `pub fn` is named by some other file in
    /// `crates/`, `tests/`, `examples/` or `rtbench/src` (as a whole word):
    /// a public function nobody outside its file calls is either private
    /// or dead, and a library crate's `dead_code` lint cannot tell.
    #[test]
    fn every_pub_fn_is_named_outside_its_file() {
        let mut files = Vec::new();
        for dir in ["crates", "tests", "examples", "rtbench/src"] {
            rust_files(dir, &mut files);
        }
        let texts: Vec<String> = files.iter().map(|f| read(f)).collect();
        let words: Vec<HashSet<&str>> = texts
            .iter()
            .map(|t| {
                t.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .collect()
            })
            .collect();
        let is_lib = |f: &str| f.starts_with("crates/") && f.split('/').nth(2) == Some("src");

        let mut unnamed = Vec::new();
        for (i, file) in files.iter().enumerate().filter(|(_, f)| is_lib(f)) {
            for after in texts[i].split("pub fn ").skip(1) {
                let name: String = after
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let named_elsewhere = words
                    .iter()
                    .enumerate()
                    .any(|(j, w)| j != i && w.contains(name.as_str()));
                let allowed = NAMED_ONLY_AT_HOME.iter().any(|(n, _)| *n == name);
                if !named_elsewhere && !allowed {
                    unnamed.push(format!("{file}: {name}"));
                }
            }
        }
        assert!(
            files.iter().any(|f| f == "crates/bench/src/lib.rs"),
            "the walk must reach this file"
        );
        assert!(
            unnamed.is_empty(),
            "pub fns no other file names (demote or delete them):\n{}",
            unnamed.join("\n")
        );
    }

    /// Every `--bench <name>` the docs cite is a `[[bench]]` of this crate
    /// and every `--bin <name>` a `[[bin]]` of the examples package, so a
    /// deleted or renamed target cannot leave a dead command behind.
    #[test]
    fn docs_name_only_targets_that_exist() {
        // The `name = "…"` of every `section` table of a manifest.
        let targets = |manifest: &str, section: &str| -> Vec<String> {
            read(manifest)
                .split(section)
                .skip(1)
                .filter_map(|table| {
                    let name = table.lines().find(|l| l.trim_start().starts_with("name"))?;
                    Some(name.split('"').nth(1)?.to_owned())
                })
                .collect()
        };
        let benches = targets("crates/bench/Cargo.toml", "[[bench]]");
        let bins = targets("examples/Cargo.toml", "[[bin]]");
        assert!(benches.iter().any(|b| b == "table1"), "{benches:?}");
        assert!(bins.iter().any(|b| b == "quickstart"), "{bins:?}");

        for doc in [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = read(doc);
            for (flag, known) in [("--bench", &benches), ("--bin", &bins)] {
                // `--benches` / `--bins` are other flags: a name follows
                // only after whitespace.
                for after in text.split(flag).skip(1) {
                    if !after.starts_with(char::is_whitespace) {
                        continue;
                    }
                    let name: String = after
                        .trim_start()
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    assert!(
                        known.contains(&name),
                        "{doc}: `{flag} {name}` names no target"
                    );
                }
            }
        }
    }
}
