//! Shared helpers for the integration suite: the paper's catalog system
//! behind a [`Session`] front door, with a recording notification action.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use quark_core::relational::{Database, Value};
use quark_core::xml::XmlNodeRef;
use quark_core::xqgm::fixtures::{catalog_path_graph, product_vendor_db};
use quark_core::xqgm::{normalize, Graph};
use quark_core::{
    ActionCall, Mode, PathGraph, Quark, Session, StatementError, StatementResult, XmlView,
};
use quark_xquery::XQueryFrontend;

#[allow(dead_code)] // each test binary compiles this module; not all use it
pub mod reference;

/// One recorded firing: `(trigger name, params)`.
pub type Firing = (String, Vec<Value>);

/// A log of action invocations shared with the system.
#[derive(Clone, Default)]
pub struct Log(pub Arc<Mutex<Vec<Firing>>>);

impl Log {
    #[allow(dead_code)] // each test binary compiles this module separately
    pub fn take(&self) -> Vec<Firing> {
        std::mem::take(&mut self.0.lock().unwrap())
    }

    pub fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The Figure-2 schema and data, as statements (the durability suite runs exactly
/// this text on a durable session and on its in-memory oracle).
#[allow(dead_code)] // each test binary compiles this module separately
pub const SETUP: &[&str] = &[
    "CREATE TABLE product (pid TEXT PRIMARY KEY, pname TEXT, mfr TEXT)",
    "CREATE TABLE vendor (vid TEXT, pid TEXT, price DOUBLE, \
     PRIMARY KEY (vid, pid))",
    "INSERT INTO product VALUES ('P1', 'CRT 15', 'Samsung'), \
     ('P2', 'LCD 19', 'LG'), ('P3', 'OLED 42', 'LG')",
    "INSERT INTO vendor VALUES ('Amazon', 'P1', 100.0), \
     ('Bestbuy', 'P1', 120.0), ('Amazon', 'P2', 250.0), \
     ('Buy.com', 'P2', 240.0), ('Bestbuy', 'P3', 899.0)",
];

/// The paper's Figure-3 view, through the XQuery frontend.
#[allow(dead_code)]
pub const CATALOG_VIEW: &str = r#"
    create view catalog as {
      <catalog>{
        for $prodname in distinct(view("default")/product/row/pname)
        let $products := view("default")/product/row[./pname = $prodname]
        let $vendors := view("default")/vendor/row[./pid = $products/pid]
        where count($vendors) >= 2
        return <product name={$prodname}>
          { for $vendor in $vendors return <vendor>{$vendor/*}</vendor> }
        </product>
      }</catalog>
    }"#;

#[allow(dead_code)]
pub const TRIGGERS: &[&str] = &[
    "CREATE TRIGGER NotifyP1 AFTER Update ON view('catalog')/product \
     WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)",
    "CREATE TRIGGER NotifyGone AFTER Delete ON view('catalog')/product \
     DO notify(OLD_NODE)",
];

/// Build the catalog Path graph (`view('catalog')/product`) over `db`.
#[allow(dead_code)] // each test binary compiles this module separately
pub fn catalog_path(db: &Database) -> PathGraph {
    let mut g = Graph::new();
    let (top, _) = catalog_path_graph(&mut g);
    let (graph, root) = normalize(&g, top, db).expect("normalize");
    let mut attr_cols = HashMap::new();
    attr_cols.insert("name".to_string(), 0);
    PathGraph {
        graph,
        root,
        node_col: 1,
        attr_cols,
    }
}

/// A session over the Figure-2 database with the catalog view registered
/// (programmatically, from the hand-built fixture path graph — the same
/// shape the textual Figure-3 view lowers to) and a `notify` action that
/// records firings. DDL and data changes go through `session.execute`.
#[allow(dead_code)] // each test binary compiles this module; not all use it
pub fn catalog_system(mode: Mode) -> (Session, Log) {
    let db = product_vendor_db();
    let pg = catalog_path(&db);
    let mut quark = Quark::new(db, mode);
    quark.register_view(XmlView::new("catalog").with_anchor("product", pg));
    let session = Session::with_frontend(quark, Box::new(XQueryFrontend));
    let log = Log::default();
    let sink = log.clone();
    session
        .register_action("notify", move |_db: &Database, call: &ActionCall| {
            sink.0
                .lock()
                .unwrap()
                .push((call.trigger.clone(), call.params.clone()));
            Ok(())
        })
        .expect("register notify");
    (session, log)
}

/// First XML param of a firing.
#[allow(dead_code)]
pub fn node_param(firing: &Firing) -> XmlNodeRef {
    match &firing.1[0] {
        Value::Xml(x) => x.clone(),
        other => panic!("expected XML param, got {other:?}"),
    }
}

#[allow(dead_code)]
pub fn all_modes() -> [Mode; 3] {
    [Mode::Ungrouped, Mode::Grouped, Mode::GroupedAgg]
}

/// One-vendor price update through the statement surface (a keyed UPDATE).
#[allow(dead_code)]
pub fn update_price(
    session: &mut Session,
    vid: &str,
    pid: &str,
    price: f64,
) -> Result<(), StatementError> {
    session
        .execute(&format!(
            "UPDATE vendor SET price = {price:?} WHERE vid = '{vid}' AND pid = '{pid}'"
        ))
        .map(|_| ())
}

/// The `group:` line of `EXPLAIN TRIGGER trigger`: member count, set id
/// and set count.
#[allow(dead_code)]
pub fn group_line(session: &Session, trigger: &str) -> String {
    let StatementResult::Explain(text) = session
        .execute(&format!("EXPLAIN TRIGGER {trigger}"))
        .expect("explain")
    else {
        panic!("expected Explain");
    };
    let line = text.lines().find(|l| l.starts_with("group: "));
    line.expect("a group line").to_string()
}
