//! Runs every experiment binary in sequence, saving each table under
//! `target/experiments/`. This regenerates the data behind every figure
//! and table in EXPERIMENTS.md.
//!
//! Usage: `run_all [--scale 0.25] [--pairs 1000] [--subgraphs 200]
//!         [--seed 42] [--outdir target/experiments]`
//!
//! Defaults are sized to finish in a few minutes; pass `--scale 1.0
//! --pairs 5000 --subgraphs 500` for paper-scale runs.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::Command;
use xsi_bench::Args;

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 0.25);
    let pairs = args.usize("pairs", 1000);
    let ak_pairs = args.usize("ak-pairs", pairs.min(1000));
    let subgraphs = args.usize("subgraphs", 200);
    let seed = args.u64("seed", 42);
    let outdir = args
        .str("outdir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"));
    args.finish();
    std::fs::create_dir_all(&outdir).expect("create output directory");

    let bin_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let scale_s = scale.to_string();
    let pairs_s = pairs.to_string();
    let ak_pairs_s = ak_pairs.to_string();
    let subgraphs_s = subgraphs.to_string();
    let seed_s = seed.to_string();

    let jobs: Vec<(&str, Vec<&str>)> = vec![
        ("dataset_stats", vec!["--scale", &scale_s]),
        ("fig05_worstcase", vec![]),
        (
            "fig09_imdb_quality",
            vec!["--scale", &scale_s, "--pairs", &pairs_s],
        ),
        (
            "fig10_xmark_quality",
            vec!["--scale", &scale_s, "--pairs", &pairs_s],
        ),
        (
            "fig11_times",
            vec!["--scale", &scale_s, "--pairs", &pairs_s],
        ),
        (
            "fig12_subgraph",
            vec!["--scale", &scale_s, "--subgraphs", &subgraphs_s],
        ),
        (
            "fig13_ak_simple_quality",
            vec!["--scale", &scale_s, "--pairs", &ak_pairs_s],
        ),
        (
            "table1_ak_reconstruction",
            vec!["--scale", &scale_s, "--pairs", &ak_pairs_s],
        ),
        (
            "table2_ak_times",
            vec!["--scale", &scale_s, "--pairs", &ak_pairs_s],
        ),
        ("table3_ak_storage", vec!["--scale", &scale_s]),
        (
            "theorem1_check",
            vec!["--scale", &scale_s, "--pairs", &ak_pairs_s],
        ),
        ("ablation_simple_memo", vec!["--scale", &scale_s]),
    ];

    for (name, extra) in jobs {
        let csv = outdir.join(format!("{name}.csv"));
        let mut cmd = Command::new(bin_dir.join(name));
        // fig05 is a fixed construction and reads no seed.
        if name != "fig05_worstcase" {
            cmd.args(["--seed", &seed_s]);
        }
        cmd.args(extra)
            .args(["--out", csv.to_str().expect("utf-8 path")]);
        println!("\n──── {name} ────");
        let status = cmd.status().unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        assert!(status.success(), "{name} failed with {status}");
    }
    println!("\nAll experiments done; CSVs in {}", outdir.display());
}
