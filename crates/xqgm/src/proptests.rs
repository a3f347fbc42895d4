//! Property tests: the driver-restricted compiler must agree with
//! full-evaluate-then-filter on arbitrary drivers and database contents,
//! and `Value`'s total order must behave like one.

use proptest::prelude::*;

use quark_relational::exec::execute_query;
use quark_relational::plan::{PhysicalPlan, PlanOp};
use quark_relational::{row, Database, Value};

use crate::compile::{compile_restricted, Driver};
use crate::eval::evaluate;
use crate::fixtures::{catalog_cols, catalog_path_graph, product_vendor_db};
use crate::graph::Graph;
use crate::keys::normalize;

fn arb_vendor_rows() -> impl Strategy<Value = Vec<(String, String, f64)>> {
    let vids = prop::sample::select(vec!["Amazon", "Bestbuy", "Circuit", "Buy.com", "Filene"]);
    let pids = prop::sample::select(vec!["P1", "P2", "P3", "P4", "P5"]);
    proptest::collection::vec((vids, pids, 1.0..500.0f64), 0..12).prop_map(|rows| {
        let mut seen = std::collections::HashSet::new();
        rows.into_iter()
            .filter(|(v, p, _)| seen.insert((v.to_string(), p.to_string())))
            .map(|(v, p, c)| (v.to_string(), p.to_string(), c))
            .collect()
    })
}

fn arb_driver_names() -> impl Strategy<Value = Vec<&'static str>> {
    proptest::collection::vec(
        prop::sample::select(vec!["CRT 15", "LCD 19", "OLED 42", "Nope"]),
        0..4,
    )
}

fn db_with(rows: &[(String, String, f64)]) -> Database {
    let db = product_vendor_db();
    // Extra products so P4/P5 vendor rows join somewhere.
    db.load(
        "product",
        vec![
            vec![Value::str("P4"), Value::str("OLED 42"), Value::str("LG")],
            vec![Value::str("P5"), Value::str("CRT 15"), Value::str("Sony")],
        ],
    )
    .expect("load products");
    for (v, p, c) in rows {
        // Skip duplicates against the fixture's base rows.
        let key = [Value::str(v.as_str()), Value::str(p.as_str())];
        if db.table("vendor").expect("vendor").get(&key).is_none() {
            db.load(
                "vendor",
                vec![vec![key[0].clone(), key[1].clone(), Value::Double(*c)]],
            )
            .expect("load vendor");
        }
    }
    db
}

proptest! {
    // Pinned seed + case count: CI runs (no env overrides set) are
    // deterministic; PROPTEST_SEED still overrides for manual fuzz sweeps.
    #![proptest_config(ProptestConfig {
        cases: 64,
        rng_seed: Some(0x1cde_2005_0002),
        ..ProptestConfig::default()
    })]

    /// compile_restricted(G, key, driver) ≡ filter(evaluate(G), key ∈ driver),
    /// for arbitrary vendor contents and driver key sets.
    #[test]
    fn restricted_compile_agrees_with_filtered_eval(
        rows in arb_vendor_rows(),
        names in arb_driver_names(),
    ) {
        let db = db_with(&rows);
        let mut g = Graph::new();
        let (top, _) = catalog_path_graph(&mut g);
        let (ng, root) = normalize(&g, top, &db).expect("normalize");

        let driver_rows: Vec<_> = {
            let mut uniq: Vec<&str> = Vec::new();
            for n in &names {
                if !uniq.contains(n) {
                    uniq.push(n);
                }
            }
            uniq.into_iter().map(|n| row([Value::str(n)])).collect()
        };
        let driver = Driver {
            plan: PhysicalPlan::new(PlanOp::Values { arity: 1, rows: driver_rows.clone() }, vec![]).into_ref(),
            cols: vec![0],
        };
        let key = ng.key(root, &db).expect("key").to_vec();
        let plan = compile_restricted(&ng, root, &key, &driver, &db).expect("compile");
        let mut got = execute_query(&db, &plan).expect("execute");

        let names_set: std::collections::HashSet<Value> =
            driver_rows.iter().map(|r| r[0].clone()).collect();
        let mut expected: Vec<_> = evaluate(&ng, root, &db)
            .expect("evaluate")
            .into_iter()
            .filter(|r| names_set.contains(&r[catalog_cols::PNAME]))
            .collect();

        got.sort();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// Value's Ord is a total order consistent with Eq (sorting twice is
    /// stable; equal values hash equally).
    #[test]
    fn value_total_order_consistency(
        ints in proptest::collection::vec(any::<i64>(), 0..8),
        floats in proptest::collection::vec(any::<f64>(), 0..8),
        strs in proptest::collection::vec("[a-z]{0,6}", 0..8),
    ) {
        let mut vals: Vec<Value> = Vec::new();
        vals.extend(ints.into_iter().map(Value::Int));
        vals.extend(floats.into_iter().map(Value::Double));
        vals.extend(strs.into_iter().map(Value::from));
        vals.push(Value::Null);
        let mut a = vals.clone();
        a.sort();
        let mut b = a.clone();
        b.sort();
        prop_assert_eq!(&a, &b);
        // Eq ⇒ equal hashes.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for w in a.windows(2) {
            if w[0] == w[1] {
                let mut h0 = DefaultHasher::new();
                let mut h1 = DefaultHasher::new();
                w[0].hash(&mut h0);
                w[1].hash(&mut h1);
                prop_assert_eq!(h0.finish(), h1.finish());
            }
        }
    }
}
