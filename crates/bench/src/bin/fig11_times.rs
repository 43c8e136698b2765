//! **Figure 11** — average running times of the 1-index maintenance
//! algorithms over the mixed-update workload, per dataset.
//!
//! The paper's result: split/merge costs more than bare propagate (the
//! extra merge phase), but far less than propagate once the amortized
//! reconstruction cost is factored in; cyclicity barely affects
//! split/merge (Figure 5 cases are rare).
//!
//! Usage: `fig11_times [--scale 1.0] [--pairs 5000] [--seed 42]
//!         [--out fig11.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{run_mixed_updates_1index, Algo1, Args, Table};
use xsi_graph::Graph;
use xsi_workload::{generate_imdb, generate_xmark, EdgePool, ImdbParams, XmarkParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let pairs = args.usize("pairs", 5000);
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let datasets: Vec<(String, Box<dyn Fn() -> Graph>)> = vec![
        (
            "XMark(1)".into(),
            Box::new(move || generate_xmark(&XmarkParams::new(scale, 1.0, seed))),
        ),
        (
            "XMark(0.5)".into(),
            Box::new(move || generate_xmark(&XmarkParams::new(scale, 0.5, seed))),
        ),
        (
            "XMark(0.2)".into(),
            Box::new(move || generate_xmark(&XmarkParams::new(scale, 0.2, seed))),
        ),
        (
            "XMark(0)".into(),
            Box::new(move || generate_xmark(&XmarkParams::new(scale, 0.0, seed))),
        ),
        (
            "IMDB".into(),
            Box::new(move || generate_imdb(&ImdbParams::new(scale, seed))),
        ),
    ];

    let mut t = Table::new(
        "Figure 11: average per-update time (µs) of 1-index algorithms",
        &[
            "dataset",
            "split/merge",
            "propagate",
            "propagate+amortized rebuild",
            "rebuilds",
        ],
    );
    for (name, make) in &datasets {
        // Never sample quality mid-run (sample_every > pairs): timing only.
        let run = |algo: Algo1| {
            let mut g = make();
            let mut pool = EdgePool::extract(&mut g, 0.2, seed);
            run_mixed_updates_1index(&mut g, &mut pool, pairs, pairs + 1, algo)
        };
        let sm = run(Algo1::SplitMerge);
        let pr = run(Algo1::Propagate);
        let pr_rb = run(Algo1::PropagateWithRebuild);
        t.row(&[
            name.clone(),
            format!("{:.1}", sm.avg_update().as_secs_f64() * 1e6),
            format!("{:.1}", pr.avg_update().as_secs_f64() * 1e6),
            format!("{:.1}", pr_rb.avg_update_with_rebuild().as_secs_f64() * 1e6),
            pr_rb.rebuild_count.to_string(),
        ]);
        eprintln!("{name} done");
    }
    t.print();
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
