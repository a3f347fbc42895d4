//! Peek inside the translation: prints the artifacts the paper's figures
//! show — the catalog XQGM (Fig. 5), the affected-keys graph (Figs. 9-11),
//! the generated trigger plan (the Fig. 16 analog), and the
//! session-level `EXPLAIN TRIGGER` statement over a live trigger.
//!
//! ```text
//! cargo run --example trigger_explain
//! ```

use quark_core::akgraph::{create_ak_graph, AkSide};
use quark_core::angraph::{build_affected, Needs, SideNeeds};
use quark_core::spec::XmlEvent;
use quark_core::xqgm::fixtures::{catalog_path_graph, product_vendor_db};
use quark_core::xqgm::{normalize, Graph};
use quark_core::Mode;

fn main() {
    let db = product_vendor_db();

    // --- Figure 5: the catalog view as XQGM -------------------------
    let mut g = Graph::new();
    let (top, _) = catalog_path_graph(&mut g);
    println!("== Path graph for view('catalog')/product (Figure 5A) ==");
    println!("{}", g.explain(top, &db));

    let (mut graph, root) = normalize(&g, top, &db).expect("normalize");
    println!(
        "canonical key of the product level: columns {:?}\n",
        graph.key(root, &db).expect("key")
    );

    // --- Figures 9-11: the affected-keys graph for ΔVENDOR ----------
    let ak = create_ak_graph(&mut graph, root, "vendor", AkSide::Delta, &db)
        .expect("akgraph")
        .expect("vendor affects the view");
    println!("== G_Δkey for UPDATE on vendor (Figure 11) ==");
    println!("{}", graph.explain(ak.op, &db));
    println!(
        "invariant join columns: path graph {:?} = affected keys {:?}\n",
        ak.cols_in_o, ak.cols_in_ak
    );

    // --- Figure 16 analog: the generated trigger body ----------------
    let mut pg = quark_core::PathGraph {
        graph,
        root,
        node_col: 1,
        attr_cols: std::collections::HashMap::from([("name".to_string(), 0)]),
    };
    let affected = build_affected(
        &mut pg,
        "vendor",
        XmlEvent::Update,
        Needs {
            old: SideNeeds { node: false },
            new: SideNeeds { node: true },
        },
        Mode::GroupedAgg,
        &db,
    )
    .expect("angraph")
    .expect("plan");
    println!("== Generated trigger plan for (vendor, UPDATE) — the Fig. 16 analog ==");
    println!("{}", affected.plan.explain());
    println!("output layout: {:?}\n", affected.layout);

    // --- EXPLAIN TRIGGER through the session front door ---------------
    let session = quark_xquery::session(product_vendor_db(), quark_core::Mode::Grouped);
    session
        .execute(
            r#"create view catalog as {
                 <catalog>{
                   for $prodname in distinct(view("default")/product/row/pname)
                   let $products := view("default")/product/row[./pname = $prodname]
                   let $vendors := view("default")/vendor/row[./pid = $products/pid]
                   where count($vendors) >= 2
                   return <product name={$prodname}>
                     { for $vendor in $vendors return <vendor>{$vendor/*}</vendor> }
                   </product>
                 }</catalog>
               }"#,
        )
        .expect("view");
    session
        .register_action("notify", |_, _| Ok(()))
        .expect("action");
    session
        .execute(
            "create trigger Notify after update on view('catalog')/product \
             where OLD_NODE/@name = 'CRT 15' do notify(NEW_NODE)",
        )
        .expect("trigger");
    println!("\n== EXPLAIN TRIGGER Notify (session statement) ==");
    match session.execute("EXPLAIN TRIGGER Notify").expect("explain") {
        quark_core::StatementResult::Explain(text) => println!("{text}"),
        other => unreachable!("EXPLAIN returns Explain, got {other:?}"),
    }
}
