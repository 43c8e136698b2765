//! **Table 3** — storage requirement of the split/merge algorithm's
//! refinement-tree representation versus a stand-alone A(k)-index, under
//! the paper's 4-bytes-per-unit cost model (XMark and IMDB, k = 2..5).
//!
//! The paper's result: additional storage 0.6 % → 13 % (XMark) and
//! 0.6 % → 11.6 % (IMDB) as k goes 2 → 5 — always below 15 %, because
//! interior levels shrink rapidly.
//!
//! Usage: `table3_ak_storage [--scale 1.0] [--seed 42] [--out table3.csv]`

#![forbid(unsafe_code)]

use xsi_bench::{Args, Table};
use xsi_core::AkIndex;
use xsi_workload::{generate_imdb, generate_xmark, ImdbParams, XmarkParams};

fn main() {
    let args = Args::parse_env();
    let scale = args.f64("scale", 1.0);
    let seed = args.u64("seed", 42);
    let out = args.str("out");
    args.finish();

    let mut t = Table::new(
        "Table 3: storage of the refinement tree vs stand-alone A(k) (KB)",
        &["row", "k=2", "k=3", "k=4", "k=5"],
    );
    for dataset in ["XMark", "IMDB"] {
        let g = match dataset {
            "XMark" => generate_xmark(&XmarkParams::new(scale, 1.0, seed)),
            _ => generate_imdb(&ImdbParams::new(scale, seed)),
        };
        let mut stand_alone = vec![format!("stand-alone A(k) ({dataset})")];
        let mut chain = vec![format!("A(0) to A(k) ({dataset})")];
        let mut overhead = vec![format!("additional storage ({dataset})")];
        for k in 2..=5 {
            let idx = AkIndex::build(&g, k);
            let r = idx.storage_report();
            stand_alone.push(format!("{}", r.stand_alone_bytes() / 1024));
            chain.push(format!("{}", r.chain_bytes() / 1024));
            overhead.push(format!("{:.1}%", r.overhead_fraction() * 100.0));
        }
        t.row(&stand_alone);
        t.row(&chain);
        t.row(&overhead);
    }
    t.print();
    if let Some(out) = out {
        xsi_bench::write_csv(&t, std::path::Path::new(out)).expect("write csv");
    }
}
