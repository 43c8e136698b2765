//! Exports a generated dataset as an XML document — for eyeballing the
//! schema, feeding `index_explorer`, or interop with other XML tooling.
//!
//! Usage: `export_xml [--dataset xmark|imdb|dblp] [--scale 0.01]
//!         [--cyclicity 1.0] [--seed 42] [--out dataset.xml]`

#![forbid(unsafe_code)]

use xsi_bench::Args;
use xsi_workload::{
    generate_dblp, generate_imdb, generate_xmark, DblpParams, ImdbParams, XmarkParams,
};
use xsi_xml::{serialize, SerializeOptions};

fn main() {
    let args = Args::parse_env();
    let dataset = args.str("dataset").unwrap_or("xmark");
    let scale = args.f64("scale", 0.01);
    let seed = args.u64("seed", 42);
    let cyclicity = args.f64("cyclicity", 1.0);
    let out = args.str("out");
    args.finish();
    let g = match dataset {
        "xmark" => generate_xmark(&XmarkParams::new(scale, cyclicity, seed)),
        "imdb" => generate_imdb(&ImdbParams::new(scale, seed)),
        "dblp" => generate_dblp(&DblpParams::new(scale, seed)),
        other => panic!("unknown dataset {other:?} (expected xmark, imdb or dblp)"),
    };
    let xml = serialize(&g, &SerializeOptions::default()).expect("generated graphs are trees");
    match out {
        Some(path) => {
            std::fs::write(path, &xml).expect("write output file");
            eprintln!(
                "wrote {path}: {} dnodes, {} dedges, {} bytes",
                g.node_count(),
                g.edge_count(),
                xml.len()
            );
        }
        None => print!("{xml}"),
    }
}
