//! Every workload, end-to-end and traced, on scale-0.01 documents: all
//! checks pass, every metric `BENCHMARK.json` lists is reported, and the
//! deterministic outputs repeat exactly.

use xsi_benchmark::{run, Outcome, PLANS};

/// Metric names listed under `section` in the repository's
/// `BENCHMARK.json` (its sections are in the order workloads,
/// end_to_end, per_layer).
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &text[start..];
    let end = if section == "end_to_end" {
        rest.find("\"per_layer\"")
            .expect("per_layer follows end_to_end")
    } else {
        rest.len()
    };
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(o: &Outcome) -> Vec<String> {
    o.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_runs_clean_and_reports_every_listed_metric() {
    let (e2e, layers) = (listed("end_to_end"), listed("per_layer"));
    assert!(e2e.contains(&"setup_s".to_string()));
    for plan in PLANS {
        let plan = plan.at_scale(0.01);
        let a = run(&plan, 42, 0.05, true, false).expect("end-to-end run starts");
        assert!(a.correct(), "{}: {:?}", plan.name, a.failures);
        assert_eq!(names(&a), e2e, "{}: end-to-end metrics", plan.name);
        assert!(
            a.metrics.iter().all(|m| m.value > 0.0),
            "{}: a zero metric",
            plan.name
        );

        let b = run(&plan, 42, 0.05, false, true).expect("traced run starts");
        assert!(b.correct(), "{}: {:?}", plan.name, b.failures);
        assert_eq!(names(&b), layers, "{}: per-layer metrics", plan.name);
        let trace = b.trace.as_deref().expect("traced run dumps its spans");
        assert!(trace.contains("\"format\":\"xsi-chrome-trace-v1\""));
        let coverage = b.metrics.iter().find(|m| m.name == "trace.coverage_pct");
        assert!(
            coverage.is_some_and(|m| m.value >= 95.0),
            "{}: coverage",
            plan.name
        );

        // Deterministic outputs repeat exactly under the same seed.
        let again = run(&plan, 42, 0.05, false, true).expect("traced run starts");
        assert_eq!(b.digests, again.digests, "{}: digests", plan.name);
        for name in [
            "oneindex.blocks",
            "akindex.blocks",
            "kernel.oneindex.elems_per_op",
        ] {
            let value = |o: &Outcome| o.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            assert_eq!(value(&b), value(&again), "{}: {name}", plan.name);
        }
    }
}
