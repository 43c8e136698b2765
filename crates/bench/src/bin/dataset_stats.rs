//! Prints the generated datasets' vital statistics next to the numbers
//! the paper reports for the originals (Section 7), so the substitution
//! documented in DESIGN.md §3 can be checked at a glance.
//!
//! Usage: `dataset_stats [--scale 1.0] [--seed 42]`

#![forbid(unsafe_code)]

use xsi_bench::{Args, Table};
use xsi_core::OneIndex;
use xsi_graph::EdgeKind;
use xsi_workload::{generate_imdb, generate_xmark, ImdbParams, XmarkParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        &format!("Generated datasets at scale {scale} (paper originals in brackets)"),
        &[
            "dataset",
            "dnodes",
            "dedges",
            "IDREF",
            "acyclic",
            "min 1-index",
        ],
    );
    for c in [1.0, 0.5, 0.2, 0.0] {
        let g = generate_xmark(&XmarkParams::new(scale, c, seed));
        let idx = OneIndex::build(&g);
        t.row(&[
            format!("XMark({c})"),
            format!("{} [167865]", g.node_count()),
            format!("{} [198612]", g.edge_count()),
            format!("{} [30747]", g.edge_count_of_kind(EdgeKind::IdRef)),
            format!("{}", xsi_graph::is_acyclic(&g)),
            format!("{}", idx.block_count()),
        ]);
    }
    let g = generate_imdb(&ImdbParams::new(scale, seed));
    let idx = OneIndex::build(&g);
    t.row(&[
        "IMDB".into(),
        format!("{} [272567]", g.node_count()),
        format!("{} [285221]", g.edge_count()),
        format!("{} [12654]", g.edge_count_of_kind(EdgeKind::IdRef)),
        format!("{}", xsi_graph::is_acyclic(&g)),
        format!("{}", idx.block_count()),
    ]);
    t.print();
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
