//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
//!     [--repeat N] [--out DIR]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! end-to-end run (`--trace 0`) and the traced per-layer run
//! (`--trace 1`). `--repeat N` runs the selection N times, interleaved,
//! on seeds S, S+1, …, S+N−1 (S from `--seed`) and prints the median,
//! quartiles and spread of every metric. Each run prints
//! `workload metric value unit n=samples` lines; a single run of a
//! single workload ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `results.json` and
//! one Chrome trace per traced run go to `--out`
//! (default `benchmark/target/results`).
//!
//! Exit codes: 0 all outputs correct, 1 some check failed, 2 bad
//! arguments, 3 the run could not start (input fingerprint mismatch,
//! set-up failure, unwritable output).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use xsi_benchmark::stats::{median, quartiles, spread};
use xsi_benchmark::{run, Outcome, Plan, PLANS};

struct Args {
    plans: Vec<Plan>,
    seed: u64,
    seconds: f64,
    e2e: bool,
    layers: bool,
    repeat: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        plans: Vec::new(),
        seed: 42,
        seconds: 10.0,
        e2e: true,
        layers: true,
        repeat: 1,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/results")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let plan = Plan::by_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = PLANS.iter().map(|p| p.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?;
                args.plans.push(plan);
            }
            "--seed" => {
                let v = value()?;
                args.seed = xsi_workload::parse_seed(&v).ok_or(format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {v:?} (0 < S <= 600)"))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => (args.e2e, args.layers) = (true, false),
                "1" => (args.e2e, args.layers) = (false, true),
                v => return Err(format!("bad --trace {v:?} (0 or 1)")),
            },
            "--repeat" => {
                let v = value()?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|&n| (1..=100).contains(&n))
                    .ok_or(format!("bad --repeat {v:?} (1..=100)"))?;
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--help" | "-h" => {
                return Err(
                    "usage: xsi-benchmark [--workload NAME]... [--seed N] [--seconds S] \
                            [--trace 0|1] [--repeat N] [--out DIR]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if args.plans.is_empty() {
        args.plans = PLANS.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xsi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("xsi-benchmark: cannot create {}: {e}", args.out.display());
        return ExitCode::from(3);
    }
    let mut outcomes = Vec::new();
    for rep in 0..args.repeat {
        for plan in &args.plans {
            let seed = args.seed.wrapping_add(rep);
            let outcome = match run(plan, seed, args.seconds, args.e2e, args.layers) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("xsi-benchmark: {}: {e}", plan.name);
                    return ExitCode::from(3);
                }
            };
            print_outcome(&outcome);
            if let Some(trace) = &outcome.trace {
                let path = args
                    .out
                    .join(format!("trace-{}-seed{seed}.json", plan.name));
                if let Err(e) = std::fs::write(&path, trace) {
                    eprintln!("xsi-benchmark: cannot write {}: {e}", path.display());
                    return ExitCode::from(3);
                }
            }
            outcomes.push(outcome);
        }
    }
    if args.repeat > 1 {
        print_repeat_summary(&outcomes);
    }
    let results = args.out.join("results.json");
    if let Err(e) = std::fs::write(&results, results_json(&args, &outcomes)) {
        eprintln!("xsi-benchmark: cannot write {}: {e}", results.display());
        return ExitCode::from(3);
    }
    if let [only] = outcomes.as_slice() {
        println!("{}", result_line(only));
    }
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_outcome(o: &Outcome) {
    println!(
        "{:<12} step: {}; primary: {}; secondary: {}",
        o.plan.name, o.plan.step, o.plan.primary, o.plan.secondary
    );
    for m in o.metrics.iter().chain(&o.details) {
        println!(
            "{:<12} {:<34} {:>16.4} {:<7} n={:<7} {}",
            o.plan.name, m.name, m.value, m.unit, m.samples, m.note
        );
    }
    println!(
        "{:<12} seed={} fingerprint=graph:{:#018x},doc:{:#018x} attempted={} failed={}",
        o.plan.name, o.seed, o.fingerprint.graph, o.fingerprint.doc, o.attempted, o.failed
    );
    for f in &o.failures {
        println!("{:<12} FAILED {f}", o.plan.name);
    }
}

fn print_repeat_summary(outcomes: &[Outcome]) {
    let mut series: BTreeMap<(&str, &str), (Vec<f64>, &str)> = BTreeMap::new();
    for o in outcomes {
        for m in &o.metrics {
            series
                .entry((o.plan.name, m.name.as_str()))
                .or_insert_with(|| (Vec::new(), m.unit))
                .0
                .push(m.value);
        }
    }
    println!("repeat summary: median, quartiles and spread (q3 - q1) / median per metric");
    for ((workload, name), (mut values, unit)) in series {
        values.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&values);
        println!(
            "{workload:<12} {name:<34} median={:<14.4} q1={:<14.4} q3={:<14.4} spread={:>6.2}% n={} {unit}",
            median(&values),
            q1,
            q3,
            100.0 * spread(&values),
            values.len()
        );
    }
}

/// The run's result as one JSON line.
fn result_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn results_json(args: &Args, outcomes: &[Outcome]) -> String {
    let mut s = format!(
        "{{\n  \"schema\": \"xsi-benchmark-results-v1\",\n  \"seconds\": {},\n  \"runs\": [",
        args.seconds
    );
    for (i, o) in outcomes.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"workload\": {}, \"seed\": {}, \"fingerprint\": {{\"graph\": \"{:#018x}\", \"doc\": \"{:#018x}\"}}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}],\n     \"digests\": {{{}}},\n     \"metrics\": [",
            if i > 0 { "," } else { "" },
            json_str(o.plan.name),
            o.seed,
            o.fingerprint.graph,
            o.fingerprint.doc,
            o.correct(),
            o.attempted,
            o.failed,
            o.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
            o.digests
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{v:#018x}\""))
                .collect::<Vec<_>>()
                .join(", "),
        );
        for (j, m) in o.metrics.iter().chain(&o.details).enumerate() {
            let _ = write!(
                s,
                "{}\n       {{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}, \"note\": {}}}",
                if j > 0 { "," } else { "" },
                json_str(&m.name),
                m.value,
                json_str(m.unit),
                m.samples,
                json_str(&m.note)
            );
        }
        s.push_str("]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}
