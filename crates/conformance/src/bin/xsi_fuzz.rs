//! `xsi-fuzz` — the conformance lab's command-line front end.
//!
//! ```text
//! xsi-fuzz [--seed N] [--cases N | --soak DUR] [--k N]
//!          [--cyclic-only | --acyclic-only]
//!          [--shrink-budget N] [--out DIR]
//! xsi-fuzz --replay FILE
//! xsi-fuzz --mutation-smoke [--seed N] [--out DIR]
//! xsi-fuzz --postmortem-selftest [--out DIR]
//! ```
//!
//! * **fuzz mode** (default): runs `--cases` seed-derived scenarios
//!   (seed `base + i`; cyclic and acyclic alternate unless pinned), or
//!   as many as fit in `--soak 60s`/`2m`. On the first failure it
//!   shrinks, writes `repro-<seed>.txt` (replay) and `repro-<seed>.rs`
//!   (regression test) under `--out`, prints the replay, and exits 1.
//! * **replay mode**: re-runs a reproducer file. Exit 0 when the lab
//!   passes — or, for fault-injected reproducers, when the lab still
//!   catches the planted fault — else 1.
//! * **mutation-smoke mode**: plants each [`FaultSpec`] in turn, proves
//!   the lab convicts it, shrinks to ≤ 10 ops, writes the reproducer,
//!   re-parses it, and verifies the replay fails deterministically with
//!   the same check. Exits 0 only if every planted bug is caught.
//! * **postmortem-selftest mode**: plants a panic under an open span,
//!   proves the black-box hook captured it (message, location, span
//!   stack), writes the JSONL dump, and re-parses every line. Exits 0
//!   only when the whole capture → dump → parse loop closes; CI runs
//!   this so a broken black box cannot lurk until the first real crash.
//!
//! All randomness is SplitMix64 on the given seed; two runs with the
//! same flags are identical.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::time::{Duration, Instant};
use xsi_conformance::{
    generate_scenario, run_scenario, run_scenario_traced, shrink, silence_panics, FaultSpec,
    GenConfig, Scenario,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cyclicity {
    Alternate,
    CyclicOnly,
    AcyclicOnly,
}

struct Args {
    seed: u64,
    cases: usize,
    soak: Option<Duration>,
    k: usize,
    cyclicity: Cyclicity,
    shrink_budget: usize,
    out: std::path::PathBuf,
    replay: Option<std::path::PathBuf>,
    mutation_smoke: bool,
    postmortem_selftest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: xsi-fuzz [--seed N] [--cases N | --soak DUR] [--k N]\n\
         \x20               [--cyclic-only | --acyclic-only] [--shrink-budget N] [--out DIR]\n\
         \x20      xsi-fuzz --replay FILE\n\
         \x20      xsi-fuzz --mutation-smoke [--seed N] [--out DIR]\n\
         \x20      xsi-fuzz --postmortem-selftest [--out DIR]"
    );
    std::process::exit(2)
}

fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    if let Some(m) = s.strip_suffix('m') {
        m.parse::<u64>().ok().map(|v| Duration::from_secs(v * 60))
    } else {
        let secs = s.strip_suffix('s').unwrap_or(s);
        secs.parse::<u64>().ok().map(Duration::from_secs)
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        cases: 100,
        soak: None,
        k: 2,
        cyclicity: Cyclicity::Alternate,
        shrink_budget: 800,
        out: "target/conformance".into(),
        replay: None,
        mutation_smoke: false,
        postmortem_selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--seed" => {
                let v = value("--seed");
                args.seed = xsi_workload::parse_seed(&v).unwrap_or_else(|| {
                    eprintln!("bad --seed {v:?}");
                    usage()
                });
            }
            "--cases" => {
                args.cases = value("--cases").parse().unwrap_or_else(|_| usage());
            }
            "--soak" => {
                let v = value("--soak");
                args.soak = Some(parse_duration(&v).unwrap_or_else(|| {
                    eprintln!("bad --soak {v:?} (use 45s or 2m)");
                    usage()
                }));
            }
            "--k" => args.k = value("--k").parse().unwrap_or_else(|_| usage()),
            "--cyclic-only" => args.cyclicity = Cyclicity::CyclicOnly,
            "--acyclic-only" => args.cyclicity = Cyclicity::AcyclicOnly,
            "--shrink-budget" => {
                args.shrink_budget = value("--shrink-budget").parse().unwrap_or_else(|_| usage());
            }
            "--out" => args.out = value("--out").into(),
            "--replay" => args.replay = Some(value("--replay").into()),
            "--mutation-smoke" => args.mutation_smoke = true,
            "--postmortem-selftest" => args.postmortem_selftest = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    silence_panics(); // expected panics become shrinkable failures
    let code = if let Some(path) = &args.replay {
        replay_mode(path)
    } else if args.mutation_smoke {
        mutation_smoke(&args)
    } else if args.postmortem_selftest {
        postmortem_selftest(&args.out)
    } else {
        fuzz(&args)
    };
    std::process::exit(code);
}

fn config_for(case: usize, args: &Args) -> GenConfig {
    let cyclic = match args.cyclicity {
        Cyclicity::Alternate => case % 2 == 1,
        Cyclicity::CyclicOnly => true,
        Cyclicity::AcyclicOnly => false,
    };
    let mut cfg = GenConfig::small(cyclic);
    cfg.k = args.k;
    cfg
}

fn fuzz(args: &Args) -> i32 {
    let start = Instant::now();
    let mut case = 0usize;
    let mut applied = 0usize;
    let mut checks = 0usize;
    loop {
        match args.soak {
            Some(d) => {
                if start.elapsed() >= d {
                    break;
                }
            }
            None => {
                if case >= args.cases {
                    break;
                }
            }
        }
        let seed = args.seed.wrapping_add(case as u64);
        let scenario = generate_scenario(seed, &config_for(case, args));
        match run_scenario(&scenario) {
            Ok(report) => {
                applied += report.applied;
                checks += report.checks;
            }
            Err(failure) => {
                println!("case {case} (seed {seed:#x}) FAILED: {failure}");
                return report_failure(&scenario, args);
            }
        }
        case += 1;
    }
    println!(
        "ok: {case} scenarios, {applied} ops applied, {checks} oracle checks, {:.1}s",
        start.elapsed().as_secs_f64()
    );
    0
}

/// Proves the postmortem black box end to end on a planted panic: the
/// silent hook (installed by `silence_panics` in `main`) must capture
/// message, location, and the open span stack; the JSONL dump must
/// write; and every written line must re-parse with the in-repo JSON
/// reader. Exit 0 only when the whole loop closes.
fn postmortem_selftest(out: &std::path::Path) -> i32 {
    use xsi_core::obs::json::Json;
    use xsi_core::obs::postmortem;
    use xsi_core::obs::span::{self, SpanGuard, SpanKind};

    postmortem::clear();
    span::begin_collection();
    let unwound = std::panic::catch_unwind(|| {
        let _sp = SpanGuard::enter(SpanKind::Op);
        panic!("postmortem selftest: planted panic");
    });
    let _ = span::end_collection();
    if unwound.is_ok() {
        eprintln!("postmortem-selftest: the planted panic did not fire");
        return 1;
    }
    let Some(cap) = postmortem::last_capture() else {
        eprintln!("postmortem-selftest: the hook did not capture the panic");
        return 1;
    };
    if !cap.message.contains("planted panic") {
        eprintln!(
            "postmortem-selftest: wrong message captured: {:?}",
            cap.message
        );
        return 1;
    }
    if cap.location.is_empty() {
        eprintln!("postmortem-selftest: no panic location captured");
        return 1;
    }
    if cap.open_spans.is_empty() {
        eprintln!("postmortem-selftest: open span stack empty (hook ran after unwind?)");
        return 1;
    }
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("postmortem-selftest: cannot create {}: {e}", out.display());
        return 1;
    }
    let path = out.join("postmortem-selftest.jsonl");
    let tail = vec!["{\"event\":\"selftest\"}".to_string()];
    let written =
        match postmortem::write_blackbox(&path, Some(&cap), &tail, Some("{\"total_bytes\":0}")) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("postmortem-selftest: black box write failed: {e}");
                return 1;
            }
        };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("postmortem-selftest: cannot re-read the black box: {e}");
            return 1;
        }
    };
    let mut kinds = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match Json::parse(line) {
            Ok(v) => kinds.push(
                v.get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            ),
            Err(e) => {
                eprintln!("postmortem-selftest: line {} does not parse: {e}", i + 1);
                return 1;
            }
        }
    }
    if kinds.len() != written || kinds.first().map(String::as_str) != Some("panic") {
        eprintln!("postmortem-selftest: dump shape wrong: {kinds:?} ({written} written)");
        return 1;
    }
    if !kinds.iter().any(|k| k == "trace") || !kinds.iter().any(|k| k == "mem-report") {
        eprintln!("postmortem-selftest: dump missing trace/mem-report lines: {kinds:?}");
        return 1;
    }
    println!(
        "postmortem-selftest: ok ({} lines, {} open spans) at {}",
        written,
        cap.open_spans.len(),
        path.display()
    );
    0
}

/// Shrinks a failing scenario and writes the reproducer pair; always
/// returns exit code 1.
fn report_failure(scenario: &Scenario, args: &Args) -> i32 {
    let Some(result) = shrink(scenario, args.shrink_budget) else {
        println!("warning: failure did not reproduce during shrinking");
        return 1;
    };
    println!(
        "shrunk to {} ops / {} base nodes in {} probes; now fails with: {}",
        result.scenario.ops.len(),
        result.scenario.base_labels.len(),
        result.probes,
        result.failure
    );
    // Re-run the shrunken scenario with the flight recorder on so the
    // reproducer carries the engine's own account of the failing op.
    let (_, trace) = run_scenario_traced(&result.scenario);
    // Panic failures also get the black box: the silent hook captured
    // the traced re-run's panic site + open spans, and the flight tail
    // above is exactly the pre-crash record stream.
    if let Some(cap) = xsi_core::obs::postmortem::last_capture() {
        let bb = args.out.join("blackbox.jsonl");
        match xsi_core::obs::postmortem::write_blackbox(&bb, Some(&cap), &trace, None) {
            Ok(lines) => println!("black box ({lines} lines): {}", bb.display()),
            Err(e) => println!("warning: could not write the black box: {e}"),
        }
    }
    match write_repro(
        &result.scenario,
        &result.failure.to_string(),
        &trace,
        &args.out,
    ) {
        Ok((txt, _rs)) => {
            println!("reproducer: {}", txt.display());
            println!("replay with: xsi-fuzz --replay {}", txt.display());
        }
        Err(e) => println!("warning: could not write reproducer: {e}"),
    }
    println!("--- replay ---\n{}", result.scenario.to_replay());
    1
}

fn write_repro(
    scenario: &Scenario,
    failure: &str,
    trace: &[String],
    out: &std::path::Path,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    std::fs::create_dir_all(out)?;
    let fault_tag = match scenario.fault {
        Some(FaultSpec::SkipMerge) => "-skip-merge",
        Some(FaultSpec::DropEdgeDelete { .. }) => "-drop-edge-delete",
        None => "",
    };
    let stem = format!("repro-{:#x}{fault_tag}", scenario.seed);
    let txt = out.join(format!("{stem}.txt"));
    let rs = out.join(format!("{stem}.rs"));
    let mut body = scenario.to_replay();
    if !trace.is_empty() {
        body.push_str(&format!(
            "# flight-recorder trace: last {} engine records before the conviction\n\
             # (informational; `--replay` re-derives and cross-checks it)\n",
            trace.len()
        ));
        for line in trace {
            body.push_str(&format!("trace {line}\n"));
        }
    }
    std::fs::File::create(&txt)?.write_all(body.as_bytes())?;
    let test_name = format!("repro_{:x}{}", scenario.seed, fault_tag.replace('-', "_"));
    std::fs::File::create(&rs)?
        .write_all(scenario.to_regression_test(&test_name, failure).as_bytes())?;
    Ok((txt, rs))
}

fn replay_mode(path: &std::path::Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let scenario = match Scenario::parse_replay(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", path.display());
            return 2;
        }
    };
    let embedded = Scenario::embedded_trace(&text);
    let (outcome, regenerated) = run_scenario_traced(&scenario);
    // A still-failing replay must regenerate the trace the reproducer
    // carries: the run is deterministic, so any divergence means the
    // engine no longer takes the recorded path. A passing replay (the
    // bug was fixed) runs further than the recorded conviction, so the
    // embedded trace is informational only there.
    if !embedded.is_empty() && outcome.is_err() && embedded != regenerated {
        println!(
            "replay FAILED: regenerated trace ({} records) diverges from the embedded one ({})",
            regenerated.len(),
            embedded.len()
        );
        for (i, (e, r)) in embedded.iter().zip(regenerated.iter()).enumerate() {
            if e != r {
                println!("  first divergence at trace line {i}:\n    embedded:    {e}\n    regenerated: {r}");
                break;
            }
        }
        return 1;
    }
    match (scenario.fault.is_some(), outcome) {
        (false, Ok(report)) => {
            println!(
                "replay ok: {} ops applied, {} checks",
                report.applied, report.checks
            );
            0
        }
        (false, Err(f)) => {
            println!("replay FAILED: {f}");
            1
        }
        (true, Err(f)) => {
            println!("replay ok: planted fault still caught ({f})");
            0
        }
        (true, Ok(_)) => {
            println!("replay FAILED: planted fault was NOT caught");
            1
        }
    }
}

/// Proves the lab catches planted maintenance bugs and shrinks them to
/// tiny deterministic reproducers. This is the credibility check the
/// whole lab rests on — see ISSUE acceptance criteria.
fn mutation_smoke(args: &Args) -> i32 {
    let faults = [
        ("skip-merge", FaultSpec::SkipMerge),
        ("drop-edge-delete", FaultSpec::DropEdgeDelete { period: 2 }),
    ];
    let mut failures = 0;
    for (name, fault) in faults {
        match smoke_one(name, fault, args) {
            Ok(summary) => println!("mutation-smoke [{name}]: {summary}"),
            Err(e) => {
                println!("mutation-smoke [{name}]: FAILED — {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("mutation-smoke: all planted bugs caught, shrunk and replayed");
        0
    } else {
        1
    }
}

fn smoke_one(name: &str, fault: FaultSpec, args: &Args) -> Result<String, String> {
    // 1. Find a convicting scenario.
    let mut found = None;
    for case in 0..200usize {
        let seed = args.seed.wrapping_add(case as u64);
        let mut scenario = generate_scenario(seed, &config_for(case, args));
        scenario.fault = Some(fault);
        if run_scenario(&scenario).is_err() {
            found = Some(scenario);
            break;
        }
    }
    let scenario = found.ok_or_else(|| format!("{name} was not convicted within 200 seeds"))?;

    // 2. Shrink and enforce the acceptance bound.
    let result = shrink(&scenario, args.shrink_budget)
        .ok_or_else(|| "failure vanished during shrinking".to_string())?;
    if result.scenario.ops.len() > 10 {
        return Err(format!(
            "shrunk reproducer has {} ops (acceptance bound is 10)",
            result.scenario.ops.len()
        ));
    }

    // 3. Write the reproducer (with its flight-recorder trace) and
    //    replay it from disk.
    let (_, trace) = run_scenario_traced(&result.scenario);
    if trace.is_empty() {
        return Err("traced re-run produced an empty flight-recorder trace".into());
    }
    let (txt, rs) = write_repro(
        &result.scenario,
        &result.failure.to_string(),
        &trace,
        &args.out,
    )
    .map_err(|e| format!("cannot write reproducer: {e}"))?;
    let text = std::fs::read_to_string(&txt).map_err(|e| e.to_string())?;
    if Scenario::embedded_trace(&text).is_empty() {
        return Err("written reproducer carries no trace section".into());
    }
    let replayed = Scenario::parse_replay(&text).map_err(|e| format!("reproducer reparse: {e}"))?;
    let (o1, t1) = run_scenario_traced(&replayed);
    let f1 = o1.err().ok_or("replayed reproducer passed")?;
    let (o2, t2) = run_scenario_traced(&replayed);
    let f2 = o2.err().ok_or("second replay passed")?;
    if f1 != f2 {
        return Err(format!("replay is not deterministic: {f1} vs {f2}"));
    }
    if f1.check != result.failure.check {
        return Err(format!(
            "replay convicted by {} but shrink recorded {}",
            f1.check, result.failure.check
        ));
    }
    if t1 != t2 {
        return Err("replayed traces diverge between identical runs".into());
    }
    if t1 != trace {
        return Err("replayed trace diverges from the embedded one".into());
    }

    Ok(format!(
        "caught as '{}', shrunk {} → {} ops in {} probes, {} trace records, replayed from {} (test: {})",
        result.failure.check,
        scenario.ops.len(),
        result.scenario.ops.len(),
        result.probes,
        trace.len(),
        txt.display(),
        rs.display(),
    ))
}
