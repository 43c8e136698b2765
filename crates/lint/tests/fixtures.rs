//! Golden fixture tests: each rule fires on its positive example,
//! respects waivers, and stays quiet on the clean counter-example —
//! plus a baseline round-trip and a self-run over the real workspace.

use std::path::{Path, PathBuf};
use xsi_lint::baseline::Baseline;
use xsi_lint::source::SourceFile;
use xsi_lint::{LintConfig, Report, Suppression};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root")
        .to_path_buf()
}

fn run_fixture(baseline: Option<Baseline>) -> Report {
    let config = LintConfig {
        root: fixture_root(),
        baseline,
        deny_all: true,
    };
    xsi_lint::run(&config).expect("fixture tree is readable")
}

/// Live (unsuppressed) findings for one rule, as (path, line) pairs.
fn live(report: &Report, rule: &str) -> Vec<(String, u32)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed.is_none())
        .map(|f| (f.path.clone(), f.line))
        .collect()
}

fn count_suppressed(report: &Report, rule: &str, how: Suppression) -> usize {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed == Some(how))
        .count()
}

#[test]
fn hash_iter_fires_respects_waiver_and_sort() {
    let r = run_fixture(None);
    let hits = live(&r, "hash-iter");
    assert_eq!(
        hits.len(),
        1,
        "exactly the unsorted escaping iteration: {hits:?}"
    );
    assert_eq!(hits[0].0, "crates/core/src/lib.rs");
    assert_eq!(count_suppressed(&r, "hash-iter", Suppression::Waived), 1);
}

#[test]
fn dense_side_table_fires_respects_waiver_and_ignores_clean_forms() {
    let r = run_fixture(None);
    let hits = live(&r, "dense-side-table");
    assert_eq!(
        hits.len(),
        1,
        "exactly the handle-keyed HashMap field: {hits:?}"
    );
    assert_eq!(hits[0].0, "crates/core/src/partition.rs");
    assert_eq!(
        count_suppressed(&r, "dense-side-table", Suppression::Waived),
        1
    );
    // Not baselineable: freezing today's counts must not hide it.
    let frozen = Baseline::from_counts(r.ratchet_counts.clone());
    let second = run_fixture(Some(frozen));
    assert_eq!(live(&second, "dense-side-table").len(), 1);
}

#[test]
fn panic_rules_fire_and_accept_contract_prefixes() {
    let r = run_fixture(None);
    // lib.rs's unwrap_positive + the maintainer fixture's lookup helper.
    assert_eq!(
        live(&r, "panic-unwrap").len(),
        2,
        "{:?}",
        live(&r, "panic-unwrap")
    );
    // `expect("present")` fires; `expect("invariant: …")` does not.
    assert_eq!(
        live(&r, "panic-expect").len(),
        1,
        "{:?}",
        live(&r, "panic-expect")
    );
    assert_eq!(
        live(&r, "slice-index").len(),
        1,
        "{:?}",
        live(&r, "slice-index")
    );
}

#[test]
fn obs_coverage_fires_on_uninstrumented_entry_point_only() {
    let r = run_fixture(None);
    let hits = live(&r, "obs-coverage");
    // In the engine: one uninstrumented mutation entry point + one
    // uninstrumented `&self` freeze + one uninstrumented `&self`
    // publisher (snapshot and report entry points are
    // receiver-agnostic). The kernel's one hit is checked below.
    assert_eq!(hits.len(), 4, "{hits:?}");
    let in_engine = hits
        .iter()
        .filter(|h| h.0 == "crates/core/src/engine.rs")
        .count();
    assert_eq!(in_engine, 3, "{hits:?}");
    assert!(r.findings.iter().any(|f| f.rule == "obs-coverage"
        && f.suppressed.is_none()
        && f.message.contains("publish_uninstrumented")));
    assert_eq!(count_suppressed(&r, "obs-coverage", Suppression::Waived), 3);
}

#[test]
fn obs_coverage_fires_in_kernel_respects_waiver_and_is_not_baselineable() {
    const KERNEL: &str = "crates/core/src/kernel.rs";
    let r = run_fixture(None);
    let hits: Vec<_> = live(&r, "obs-coverage")
        .into_iter()
        .filter(|h| h.0 == KERNEL)
        .collect();
    // Exactly the uninstrumented loop; the instrumented one and the
    // `Partition`-free queue plumbing stay quiet.
    assert_eq!(hits, vec![(KERNEL.to_string(), 15)]);
    let waived = r
        .findings
        .iter()
        .filter(|f| {
            f.rule == "obs-coverage"
                && f.path == KERNEL
                && f.suppressed == Some(Suppression::Waived)
        })
        .count();
    assert_eq!(waived, 1);
    // Not baselineable: freezing today's counts must not hide it.
    let frozen = Baseline::from_counts(r.ratchet_counts.clone());
    let second = run_fixture(Some(frozen));
    assert_eq!(live(&second, "obs-coverage").len(), 4);
}

#[test]
fn mem_accounting_fires_respects_waiver_and_is_not_baselineable() {
    let r = run_fixture(None);
    let hits = live(&r, "mem-accounting");
    // Exactly Leaky.spill; the waived Transient.memo, the directly
    // accounted struct, and the one-helper-level route are quiet.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "crates/core/src/mem.rs");
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "mem-accounting" && f.suppressed.is_none())
        .expect("the live finding just counted");
    assert!(f.message.contains("Leaky.spill"), "{}", f.message);
    assert_eq!(
        count_suppressed(&r, "mem-accounting", Suppression::Waived),
        1
    );
    // Not baselineable: freezing today's counts must not hide it.
    let frozen = Baseline::from_counts(r.ratchet_counts.clone());
    let second = run_fixture(Some(frozen));
    assert_eq!(live(&second, "mem-accounting").len(), 1);
}

#[test]
fn hygiene_rules_fire() {
    let r = run_fixture(None);
    let unsafe_hits = live(&r, "forbid-unsafe");
    assert_eq!(unsafe_hits.len(), 1, "{unsafe_hits:?}");
    assert_eq!(unsafe_hits[0].0, "crates/nofb/src/lib.rs");
    assert_eq!(live(&r, "hot-assert").len(), 1);
    assert_eq!(live(&r, "todo").len(), 1);
    // The reason-less waiver is reported, not silently honoured.
    assert_eq!(live(&r, "bad-waiver").len(), 1);
}

#[test]
fn panic_reach_fires_waives_and_ratchets_per_entry_point() {
    let r = run_fixture(None);
    let hits = live(&r, "panic-reach");
    // Exactly `entry_reaches_unwrap` → `lookup` → unwrap; the waived
    // twin is suppressed and `entry_clean` only reaches a
    // contract-prefixed expect.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "crates/core/src/akindex/maintain.rs");
    assert_eq!(count_suppressed(&r, "panic-reach", Suppression::Waived), 1);
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "panic-reach" && f.suppressed.is_none())
        .expect("the live finding just counted");
    assert!(f.message.contains("entry_reaches_unwrap"), "{}", f.message);
    assert!(
        f.message.contains("lookup"),
        "chain rendered: {}",
        f.message
    );
    assert_eq!(
        f.ratchet_key.as_deref(),
        Some("crates/core/src/akindex/maintain.rs#AkIndex::entry_reaches_unwrap"),
        "ratchets per (entry point, rule), not per file"
    );
    // Baselineable: freezing today's counts hides the debt…
    let frozen = Baseline::from_counts(r.ratchet_counts.clone());
    let second = run_fixture(Some(frozen));
    assert_eq!(live(&second, "panic-reach").len(), 0);
}

/// panic-reach over one in-memory engine file, no baseline: the live
/// findings' messages.
fn panic_reach_messages(src: &str) -> Vec<String> {
    let parsed = SourceFile::parse(
        "crates/core/src/engine.rs".to_string(),
        fixture_root().join("crates/core/src/engine.rs"),
        src,
    );
    let config = LintConfig {
        root: fixture_root(),
        baseline: None,
        deny_all: true,
    };
    xsi_lint::run_on_sources(&config, &[parsed])
        .findings
        .into_iter()
        .filter(|f| f.rule == "panic-reach" && f.suppressed.is_none())
        .map(|f| f.message)
        .collect()
}

#[test]
fn wrapped_call_keeps_its_call_edge() {
    // rustfmt wraps a long call one argument per line with a trailing
    // comma; that comma is not a second argument, so the call resolves
    // to the one-argument `step` (which unwraps), not the two-argument
    // one.
    let msgs = panic_reach_messages(
        "impl UpdateEngine {\n\
         \tpub fn entry(&self, a: &A, x: Option<u32>) -> u32 {\n\
         \t\ta.step(\n\
         \t\t\tx,\n\
         \t\t)\n\
         \t}\n\
         }\n\
         impl A {\n\
         \tfn step(&self, x: Option<u32>) -> u32 {\n\
         \t\tx.unwrap()\n\
         \t}\n\
         }\n\
         impl B {\n\
         \tfn step(&self, x: Option<u32>, y: u32) -> u32 {\n\
         \t\tx.map_or(y, |v| v)\n\
         \t}\n\
         }\n",
    );
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(
        msgs[0].contains("entry") && msgs[0].contains("A::step"),
        "{msgs:?}"
    );
}

#[test]
fn wrapped_signature_keeps_its_arity() {
    // A signature wrapped one parameter per line ends in a trailing
    // comma; `A::step` still takes one argument besides `self`, so the
    // one-argument call reaches it (and its unwrap) as well as `C::step`.
    let msgs = panic_reach_messages(
        "impl UpdateEngine {\n\
         \tpub fn entry(&self, a: &A, x: Option<u32>) -> u32 {\n\
         \t\ta.step(x)\n\
         \t}\n\
         }\n\
         impl A {\n\
         \tfn step(\n\
         \t\t&self,\n\
         \t\tx: Option<u32>,\n\
         \t) -> u32 {\n\
         \t\tx.unwrap()\n\
         \t}\n\
         }\n\
         impl C {\n\
         \tfn step(&self, x: Option<u32>) -> u32 {\n\
         \t\tx.unwrap_or(0)\n\
         \t}\n\
         }\n",
    );
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("A::step"), "{msgs:?}");
}

#[test]
fn store_discipline_fires_direct_and_one_level_down() {
    let r = run_fixture(None);
    let hits = live(&r, "store-discipline");
    // raw_touch's direct hit, via_helper's call site, and view.rs's
    // raw peek; the waived reads and the accessor-routed fns are quiet.
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(r
        .findings
        .iter()
        .any(|f| f.rule == "store-discipline" && f.message.contains("one level down")));
    assert_eq!(
        count_suppressed(&r, "store-discipline", Suppression::Waived),
        2
    );
    // Not baselineable: freezing today's counts must not hide it.
    let frozen = Baseline::from_counts(r.ratchet_counts.clone());
    let second = run_fixture(Some(frozen));
    assert_eq!(live(&second, "store-discipline").len(), 3);
}

#[test]
fn cow_discipline_fires_on_bypass_and_respects_waiver() {
    let r = run_fixture(None);
    let hits = live(&r, "cow-discipline");
    // Exactly swap_in's whole-handle replacement; recycle's `&mut`
    // take is waived and the make_mut route is clean.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "crates/core/src/akindex/mod.rs");
    assert_eq!(
        count_suppressed(&r, "cow-discipline", Suppression::Waived),
        1
    );
}

#[test]
fn dead_waiver_flags_the_stale_allow() {
    let r = run_fixture(None);
    let hits = live(&r, "dead-waiver");
    // Exactly view.rs's cow-discipline waiver over a plain field read;
    // every other fixture waiver suppresses at least one finding.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "crates/core/src/view.rs");
}

#[test]
fn stale_baseline_flags_gone_files_and_zeroed_counts() {
    let json = r#"{
  "version": 1,
  "entries": {
    "crates/core/src/gone.rs": { "slice-index": 3 },
    "crates/core/src/lib.rs": { "panic-unwrap": 99 }
  }
}"#;
    let stale = Baseline::parse(json).expect("handcrafted baseline parses");
    let r = run_fixture(Some(stale));
    let hits = live(&r, "stale-baseline");
    // `gone.rs` no longer exists; lib.rs still has a live unwrap, so
    // only the vanished file is stale.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "crates/core/src/gone.rs");

    let json = r#"{
  "version": 1,
  "entries": {
    "crates/core/src/engine.rs": { "panic-unwrap": 4 }
  }
}"#;
    let zeroed = Baseline::parse(json).expect("handcrafted baseline parses");
    let r = run_fixture(Some(zeroed));
    let hits = live(&r, "stale-baseline");
    // engine.rs exists but has no unwraps at all: the count dropped to
    // zero and the entry must be pruned.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "crates/core/src/engine.rs");
}

#[test]
fn update_baseline_prunes_stale_entries() {
    // `from_counts` only writes groups with at least one live finding,
    // so a re-freeze drops vanished files and zeroed rules — the
    // mechanism `--update-baseline` relies on.
    let r = run_fixture(None);
    let frozen = Baseline::from_counts(r.ratchet_counts.clone());
    assert!(frozen.entries().keys().all(|k| !k.contains("gone")));
    assert!(frozen
        .entries()
        .values()
        .all(|rules| rules.values().all(|&n| n > 0)));
    // And a second run under the fresh freeze reports nothing stale.
    let second = run_fixture(Some(frozen));
    assert_eq!(
        live(&second, "stale-baseline").len(),
        0,
        "fresh freeze is never stale"
    );
}

#[test]
fn baseline_round_trips_and_suppresses() {
    let first = run_fixture(None);
    let frozen = Baseline::from_counts(first.ratchet_counts.clone());
    let json = frozen.to_json();
    let reparsed = Baseline::parse(&json).expect("self-written baseline parses");
    assert_eq!(reparsed.to_json(), json, "parse∘to_json is a fixpoint");

    let second = run_fixture(Some(reparsed));
    // Every ratcheted finding is now baselined…
    assert_eq!(live(&second, "panic-unwrap").len(), 0);
    assert_eq!(live(&second, "panic-expect").len(), 0);
    assert_eq!(live(&second, "slice-index").len(), 0);
    assert!(second.count(Some(Suppression::Baselined)) >= 3);
    // …but non-ratcheted rules still fire.
    assert_eq!(live(&second, "hash-iter").len(), 1);
    assert_eq!(live(&second, "forbid-unsafe").len(), 1);
}

#[test]
fn workspace_self_run_is_clean_under_deny_all() {
    let root = workspace_root();
    let baseline_path = root.join("lint-baseline.json");
    let text = std::fs::read_to_string(&baseline_path).expect("committed ratchet baseline");
    let config = LintConfig {
        root,
        baseline: Some(Baseline::parse(&text).expect("committed baseline parses")),
        deny_all: true,
    };
    let report = xsi_lint::run(&config).expect("workspace is readable");
    let fatal: Vec<String> = report
        .fatal(true)
        .map(|f| format!("{}:{} [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        fatal.is_empty(),
        "self-run must be clean:\n{}",
        fatal.join("\n")
    );
}

#[test]
fn reintroducing_a_reachable_unwrap_under_an_engine_entry_fails_the_lint() {
    // The interprocedural regression guard: a NEW pub entry point in
    // engine.rs whose helper unwraps has no per-entry baseline key, so
    // it must come out live and fatal even under the committed ratchet.
    let root = workspace_root();
    let path = root.join("crates/core/src/engine.rs");
    let mut src = std::fs::read_to_string(&path).expect("engine.rs exists");
    src.push_str(
        "\nimpl RegressionProbe {\n\
         \tpub fn regression_entry(&self, x: Option<u32>) -> u32 {\n\
         \t\tself.fetch_unchecked(x)\n\
         \t}\n\
         \tfn fetch_unchecked(&self, x: Option<u32>) -> u32 {\n\
         \t\tx.unwrap()\n\
         \t}\n\
         }\n",
    );
    let parsed = SourceFile::parse("crates/core/src/engine.rs".to_string(), path, &src);
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("committed ratchet baseline");
    let config = LintConfig {
        root,
        baseline: Some(Baseline::parse(&text).expect("committed baseline parses")),
        deny_all: true,
    };
    let report = xsi_lint::run_on_sources(&config, &[parsed]);
    let fatal: Vec<&xsi_lint::Finding> = report
        .fatal(true)
        .filter(|f| f.rule == "panic-reach" && f.message.contains("regression_entry"))
        .collect();
    assert!(
        !fatal.is_empty(),
        "a reachable unwrap under a new engine entry point must fail the lint"
    );
}

#[test]
fn reintroducing_hash_iteration_into_simple_ak_fails_the_lint() {
    // The PR 2 regression: SimpleAkIndex once let HashMap order pick
    // block ids. Appending such code to today's file must be caught.
    let root = workspace_root();
    let path = root.join("crates/core/src/akindex/simple.rs");
    let mut src = std::fs::read_to_string(&path).expect("simple.rs exists");
    src.push_str(
        "\npub fn regression(&self) -> Vec<u32> {\n\
         \tlet mut out = Vec::new();\n\
         \tfor (&b, _) in &self.members {\n\
         \t\tout.push(b);\n\
         \t}\n\
         \tout\n\
         }\n",
    );
    let parsed = SourceFile::parse("crates/core/src/akindex/simple.rs".to_string(), path, &src);
    let config = LintConfig {
        root,
        baseline: None,
        deny_all: true,
    };
    let report = xsi_lint::run_on_sources(&config, &[parsed]);
    let hits = live(&report, "hash-iter");
    assert!(
        !hits.is_empty(),
        "raw members iteration must trip hash-iter"
    );
}
