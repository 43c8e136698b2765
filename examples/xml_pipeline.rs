//! End-to-end XML pipeline: parse a bibliography document with IDREF
//! citations into a data graph, index it in an engine, add a newly
//! published paper as a *subgraph addition* (Figure 6), query the
//! citation structure, and serialize the updated database back to XML.
//!
//! A bibliography is the paper's own example of a naturally *acyclic*
//! data graph ("a paper can only reference papers that appear earlier in
//! time"), so Theorem 1 guarantees the maintained 1-index is the unique
//! minimum throughout.
//!
//! Run with: `cargo run --example xml_pipeline`

use xsi_core::{OneIndex, UpdateEngine};
use xsi_graph::{is_acyclic, DetachedSubgraph, EdgeKind};
use xsi_query::{eval_graph, eval_one_index, PathExpr};
use xsi_xml::{parse_str, serialize, ParseOptions, SerializeOptions};

const BIBLIOGRAPHY: &str = r#"
<bibliography>
  <paper id="pt87">
    <title>Three Partition Refinement Algorithms</title>
    <year>1987</year>
  </paper>
  <paper id="ms99">
    <title>Index Structures for Path Expressions</title>
    <year>1999</year>
    <cites><cite ref="pt87"/></cites>
  </paper>
  <paper id="ksbg02">
    <title>Exploiting Local Similarity for Indexing Paths</title>
    <year>2002</year>
    <cites><cite ref="ms99"/><cite ref="pt87"/></cites>
  </paper>
</bibliography>
"#;

fn main() {
    // Parse: IDREF `ref` attributes become reference dedges.
    let parsed = parse_str(BIBLIOGRAPHY, &ParseOptions::default()).unwrap();
    let g = parsed.graph;
    assert!(is_acyclic(&g), "citations only point backwards in time");
    println!(
        "parsed bibliography: {} dnodes, {} dedges ({} citations)",
        g.node_count(),
        g.edge_count(),
        g.edge_count_of_kind(EdgeKind::IdRef)
    );

    let idx = OneIndex::build(&g);
    println!("minimum 1-index: {} inodes", idx.block_count());
    let mut engine = UpdateEngine::new(g);
    let h = engine.register(Box::new(idx));

    // A new paper is published, citing two existing ones: model it as a
    // detached subgraph plus outgoing boundary IDREFs (Figure 6).
    let mut paper = DetachedSubgraph::new();
    let root = paper.add_node("paper", None);
    let title = paper.add_node(
        "title",
        Some("Incremental Maintenance of XML Structural Indexes".into()),
    );
    let year = paper.add_node("year", Some("2004".into()));
    let cites = paper.add_node("cites", None);
    let c1 = paper.add_node("cite", None);
    let c2 = paper.add_node("cite", None);
    paper.add_edge(root, title, EdgeKind::Child);
    paper.add_edge(root, year, EdgeKind::Child);
    paper.add_edge(root, cites, EdgeKind::Child);
    paper.add_edge(cites, c1, EdgeKind::Child);
    paper.add_edge(cites, c2, EdgeKind::Child);
    let g = engine.graph();
    let bib = g.succ(g.root()).next().expect("bibliography element");
    paper.incoming.push((bib, root, EdgeKind::Child));
    paper
        .outgoing
        .push((c1, parsed.ids["ms99"], EdgeKind::IdRef));
    paper
        .outgoing
        .push((c2, parsed.ids["ksbg02"], EdgeKind::IdRef));

    let stats = engine.add_subgraph(&paper).unwrap().stats;
    let (g, idx) = (engine.graph(), engine.index(h).as_any());
    let idx = idx.downcast_ref::<OneIndex>().expect("the 1-index");
    println!(
        "added new paper as a subgraph: {} splits, {} merges, 1-index now {} inodes",
        stats.splits,
        stats.merges,
        idx.block_count()
    );
    // Theorem 1: still the unique minimum on this acyclic graph.
    assert_eq!(idx.canonical(), OneIndex::build(g).canonical());

    // Query through the maintained index: which papers cite something?
    let q = PathExpr::parse("/bibliography/paper/cites/cite/paper/title").unwrap();
    let cited = eval_one_index(g, idx, &q);
    assert_eq!(cited, eval_graph(g, &q));
    println!("\ncited papers (via 1-index):");
    for n in cited {
        println!("  {}", g.value(n).unwrap_or("?"));
    }

    // Serialize the updated database back out.
    let xml = serialize(g, &SerializeOptions::default()).unwrap();
    println!("\nupdated document ({} bytes):\n{xml}", xml.len());
    // Round trip sanity: re-parsing yields the same graph size.
    let re = parse_str(&xml, &ParseOptions::default()).unwrap();
    assert_eq!(re.graph.node_count(), g.node_count());
    assert_eq!(re.graph.edge_count(), g.edge_count());
}
