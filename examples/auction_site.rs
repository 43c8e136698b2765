//! A live auction site: the workload the paper's introduction motivates.
//!
//! Generates an XMark-style auction database and one engine holding the
//! 1-index and an A(3)-index over it, then simulates site activity —
//! users watch and un-watch auctions (IDREF edge churn) and whole new
//! auctions are listed and retired (subgraph addition/removal) — while
//! the engine keeps both indexes maintained incrementally. Every few
//! steps the example verifies that the maintained 1-index is still
//! exactly the minimum... which on this cyclic graph Theorem 1 does not
//! even promise (only minimality), yet the experiment of Figure 10
//! shows it holds in practice; the A(3) chain is guaranteed minimum
//! (Theorem 2).
//!
//! Run with: `cargo run --release --example auction_site`

use xsi_core::{check, AkIndex, IndexHandle, OneIndex, UpdateEngine, UpdateOp};
use xsi_graph::{extract_subtree, EdgeKind};
use xsi_query::{eval_ak_validated, eval_graph, eval_one_index, PathExpr};
use xsi_workload::{collect_subtree_roots, generate_xmark, EdgePool, XmarkParams};

/// The index registered under `h`, as its concrete family.
fn family<T: 'static>(engine: &UpdateEngine, h: IndexHandle) -> &T {
    let idx = engine.index(h).as_any().downcast_ref();
    idx.expect("registered as this family")
}

/// The 1-index's size beside the minimum's.
fn one_quality(engine: &UpdateEngine, h: IndexHandle) -> (usize, usize, f64) {
    let blocks = engine.index(h).block_count();
    let min = OneIndex::build(engine.graph()).block_count();
    (blocks, min, check::quality(blocks, min))
}

fn main() {
    let mut g = generate_xmark(&XmarkParams::new(0.05, 1.0, 7));
    let mut pool = EdgePool::extract(&mut g, 0.2, 7);
    let one = OneIndex::build(&g);
    let ak = AkIndex::build(&g, 3);
    println!(
        "auction site: {} dnodes, {} dedges | 1-index {} inodes, A(3) {} inodes",
        g.node_count(),
        g.edge_count(),
        one.block_count(),
        ak.block_count()
    );
    let mut engine = UpdateEngine::new(g);
    let h_one = engine.register(Box::new(one));
    let h_ak = engine.register(Box::new(ak));

    // Phase 1: reference churn — people watch/unwatch auctions.
    for step in 1..=200 {
        let (u, v) = pool.next_insert().expect("pool has edges");
        engine.insert_edge(u, v, EdgeKind::IdRef).unwrap();
        let (u, v) = pool.next_delete().expect("graph has idrefs");
        engine.delete_edge(u, v).unwrap();
        if step % 50 == 0 {
            let (blocks, min, quality) = one_quality(&engine, h_one);
            println!(
                "  after {step:3} watch/unwatch pairs: 1-index {blocks} (minimum {min}, quality {quality:.4})"
            );
        }
    }

    // Phase 2: auctions are retired and new ones listed. The engine
    // keeps both indexes in step: a retirement is one `RemoveNode`
    // batch, a listing one subgraph addition (Figure 6 batching for the
    // 1-index, per-edge maintenance for the A(3) chain).
    let roots = collect_subtree_roots(engine.graph(), "open_auction", 20, 7);
    println!("\nretiring and re-listing {} auctions…", roots.len());
    let mut retired = Vec::new();
    for &r in &roots {
        let (sub, members) = extract_subtree(engine.graph(), r);
        let removal: Vec<UpdateOp> = members
            .into_iter()
            .map(|node| UpdateOp::RemoveNode { node })
            .collect();
        engine.apply_batch(&removal).unwrap();
        retired.push(sub);
    }
    for sub in &retired {
        engine.add_subgraph(sub).unwrap();
    }
    let (blocks, min, quality) = one_quality(&engine, h_one);
    println!("after re-listing: 1-index {blocks} inodes (minimum {min}, quality {quality:.4})");
    let g = engine.graph();
    let ak: &AkIndex = family(&engine, h_ak);
    assert_eq!(ak.canonical(), AkIndex::build(g, 3).canonical());
    println!(
        "after re-listing: A(3) {} inodes, the minimum",
        ak.block_count()
    );

    // Phase 3: the queries a site actually runs, answered via the indexes.
    let one: &OneIndex = family(&engine, h_one);
    for q in [
        "/site/people/person/name",
        "/site/open_auctions/open_auction/seller/person",
        "//watch/open_auction",
        "/site/regions/*/item",
    ] {
        let expr = PathExpr::parse(q).unwrap();
        let direct = eval_graph(g, &expr);
        let via_one = eval_one_index(g, one, &expr);
        let via_ak = eval_ak_validated(g, ak, &expr);
        assert_eq!(direct, via_one, "1-index answer differs on {q}");
        assert_eq!(direct, via_ak, "validated A(3) answer differs on {q}");
        println!("query {q:55} -> {} nodes (all engines agree)", direct.len());
    }
}
