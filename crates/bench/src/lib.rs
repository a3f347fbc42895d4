//! `quark-bench`: workload generation and measurement harness reproducing
//! the paper's evaluation (§6 and Appendix G).
//!
//! The experimental setup follows Table 2: a relational hierarchy of
//! configurable *depth* whose leaf table plays the vendor role; an XML
//! view nesting children inside parents with the `count(…) ≥ 2` predicate
//! on the lowest level; N structurally similar XML triggers on the
//! top-level element differing only in the name constant they watch; and
//! a measurement loop of independent single-row UPDATEs to the leaf table,
//! reporting the average wall time per update.
//!
//! Everything is driven through the [`Session`] statement surface: schema
//! DDL, trigger DDL and the measured UPDATEs are all text — as in the
//! paper, where the client speaks SQL to DB2 and the trigger language to
//! the translation layer. Keyed UPDATE statements compile to index probes,
//! so the measured cost stays the trigger-processing cost.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use quark_core::relational::expr::BinOp;
use quark_core::relational::{Database, Result, Value};
use quark_core::Session;
use quark_xquery::viewtree::{LevelSpec, TopBinding, ViewSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use quark_core::Mode;

/// Workload parameters (Table 2).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Hierarchy depth (≥ 2; default 3).
    pub depth: usize,
    /// Number of rows in the leaf table (default 64 k).
    pub leaf_count: usize,
    /// Leaf tuples per top-level XML element (default 64).
    pub fanout: usize,
    /// Number of structurally similar XML triggers (default 10 000).
    pub triggers: usize,
    /// How many of them watch the element the updates hit (default 20).
    pub satisfied: usize,
    /// Translation mode under test.
    pub mode: Mode,
    /// Action: `true` inserts the full NEW_NODE serialization into the temp
    /// table; `false` inserts a constant-size digest (Appendix G's
    /// max-row trick to keep insert cost constant across parameters).
    pub full_action: bool,
}

impl WorkloadSpec {
    /// Paper defaults (Table 2 bold values).
    pub fn paper_default(mode: Mode) -> Self {
        WorkloadSpec {
            depth: 3,
            leaf_count: 64 * 1024,
            fanout: 64,
            triggers: 10_000,
            satisfied: 20,
            mode,
            full_action: true,
        }
    }

    /// Scaled-down defaults for CI and `figures --quick` runs.
    pub fn quick(mode: Mode) -> Self {
        WorkloadSpec {
            depth: 2,
            leaf_count: 4 * 1024,
            fanout: 16,
            triggers: 100,
            satisfied: 5,
            mode,
            full_action: true,
        }
    }
}

/// A built workload ready for measurement.
pub struct Workload {
    /// The session driving the system (triggers installed).
    pub session: Session,
    /// Spec it was built from.
    pub spec: WorkloadSpec,
    /// Leaf table name.
    pub leaf_table: String,
    /// Leaf primary keys living under the watched top element.
    pub hot_leaves: Vec<i64>,
    /// Time spent creating all XML triggers (parse + translate).
    pub trigger_creation: Duration,
    /// Time to create the first (group-defining) trigger — the paper's
    /// compile-time observation (§6, ~100 ms on their hardware).
    pub first_trigger_compile: Duration,
    rng: StdRng,
    update_seq: i64,
}

/// Split `fanout` into `levels` integer branching factors whose product is
/// `fanout` (Table 2 uses powers of two, which split exactly).
pub fn split_fanout(fanout: usize, levels: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(levels);
    let mut remaining = fanout.max(1);
    for i in 0..levels.saturating_sub(1) {
        let target = (remaining as f64).powf(1.0 / (levels - i) as f64).round() as usize;
        let mut b = target.max(1).min(remaining);
        while b > 1 && !remaining.is_multiple_of(b) {
            b -= 1;
        }
        out.push(b);
        remaining /= b;
    }
    out.push(remaining);
    out
}

/// Table name of level `i` (0 = top).
fn table_name(i: usize) -> String {
    format!("t{i}")
}

/// The `CREATE TRIGGER` statement for bench trigger `name` watching
/// `watched` (shared with the `quarkbench` load generator so both install
/// identical triggers).
pub fn trigger_statement(name: &str, watched: &str) -> String {
    format!(
        "create trigger {name} after update on view('bench')/e0 \
         where OLD_NODE/@name = '{watched}' do insertTemp(NEW_NODE)"
    )
}

/// Name constant watched by the `i`-th of `spec.triggers` triggers: the
/// first `spec.satisfied` watch the hot element, the rest cycle through
/// the other top elements.
pub fn watched_name(spec: &WorkloadSpec, i: usize) -> String {
    let top_count = (spec.leaf_count / spec.fanout).max(1);
    if i < spec.satisfied {
        "name_0_0".to_string()
    } else {
        format!(
            "name_0_{}",
            1 + (i - spec.satisfied) % (top_count.max(2) - 1)
        )
    }
}

/// Build the hierarchy schema, data, view and triggers — all through one
/// [`Session`].
pub fn build(spec: WorkloadSpec) -> Result<Workload> {
    assert!(spec.depth >= 2, "hierarchy depth must be ≥ 2");
    assert!(spec.satisfied <= spec.triggers.max(1));
    let session = quark_xquery::session(Database::new(), spec.mode);
    let levels = spec.depth;
    let branching = split_fanout(spec.fanout, levels - 1);
    let top_count = (spec.leaf_count / spec.fanout).max(1);

    // Schema: t0(id, name, price); ti(id, parent, name, price).
    for i in 0..levels {
        let parent_col = if i > 0 { "parent INT, " } else { "" };
        session.execute(&format!(
            "CREATE TABLE {} (id INT PRIMARY KEY, {parent_col}name TEXT, price DOUBLE)",
            table_name(i)
        ))?;
        if i > 0 {
            session.execute(&format!("CREATE INDEX ON {} (parent)", table_name(i)))?;
        }
    }

    // Data: level row counts are top_count * prod(branching[..i]). Bulk
    // populated via the trigger-free load path (a warehouse load, not a
    // statement workload).
    let mut counts = vec![top_count];
    for b in &branching {
        counts.push(counts.last().expect("non-empty") * b);
    }
    for (i, &n) in counts.iter().enumerate() {
        let parent_count = if i == 0 { 0 } else { counts[i - 1] };
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|k| {
                let mut row = vec![Value::Int(k as i64)];
                if i > 0 {
                    row.push(Value::Int((k % parent_count) as i64));
                }
                row.push(Value::str(format!("name_{i}_{k}")));
                row.push(Value::Double(100.0 + (k % 97) as f64));
                row
            })
            .collect();
        session.database_mut().load(&table_name(i), rows)?;
    }

    // View: a chain with count(leaf children) ≥ 2 on the leaf's parent.
    // Bench views are generated programmatically (depths beyond what the
    // textual recognizer accepts), so they register through the system.
    let view = chain_view_spec(levels);
    let xml_view = view.build(&session.database())?;
    session.quark_mut().register_view(xml_view);

    // Temp-table action (§6.1: "insert the entire NEW_NODE into a
    // temporary table").
    session.execute("CREATE TABLE __temp (seq INT PRIMARY KEY, content TEXT)")?;
    let full = spec.full_action;
    let counter = std::sync::Arc::new(std::sync::Mutex::new(0i64));
    // Declared write set: the action inserts into `__temp`, which the
    // workload's updates then latch exclusive; an undeclared write would
    // fail the statement.
    session.register_action_with_writes("insertTemp", ["__temp"], move |db, call| {
        let mut c = counter.lock().expect("temp counter");
        *c += 1;
        let content = match (&call.params[0], full) {
            (Value::Xml(x), true) => x.to_xml(),
            (Value::Xml(x), false) => x.element_count().to_string(),
            (other, _) => other.to_string(),
        };
        db.insert_row("__temp", vec![Value::Int(*c), Value::str(content)])
    })?;

    // Triggers: `satisfied` watch the hot element (t0 row 0); the rest are
    // spread over the other top elements.
    let mut first_trigger_compile = Duration::ZERO;
    let start = Instant::now();
    for i in 0..spec.triggers {
        let stmt = trigger_statement(&format!("xt_{i}"), &watched_name(&spec, i));
        let t0 = Instant::now();
        session.execute(&stmt)?;
        if i == 0 {
            first_trigger_compile = t0.elapsed();
        }
    }
    let trigger_creation = start.elapsed();

    // Hot leaves: leaf rows whose ancestor chain reaches t0 row 0. Every
    // level count is a multiple of `top_count`, so the chained modulos
    // collapse: leaf k sits under top element `k % top_count`.
    let leaf_table = table_name(levels - 1);
    let leaf_total = *counts.last().expect("non-empty");
    let hot_leaves: Vec<i64> = (0..leaf_total)
        .step_by(top_count)
        .map(|k| k as i64)
        .collect();
    debug_assert_eq!(hot_leaves.len(), spec.fanout.min(leaf_total));

    Ok(Workload {
        session,
        spec,
        leaf_table,
        hot_leaves,
        trigger_creation,
        first_trigger_compile,
        rng: StdRng::seed_from_u64(0x5eed),
        update_seq: 0,
    })
}

/// The chain view spec for a given depth: elements `e0 … e{d-1}`,
/// `name` attribute at the top, `name`+`price` scalars at the leaf,
/// `count ≥ 2` on the leaf's parent.
pub fn chain_view_spec(levels: usize) -> ViewSpec {
    fn level(i: usize, levels: usize) -> LevelSpec {
        let leaf = i == levels - 1;
        LevelSpec {
            element: format!("e{i}"),
            table: table_name(i),
            parent_fk: (i > 0).then(|| "parent".to_string()),
            attrs: vec![("name".into(), "name".into())],
            // The leaf exposes every column (`{$vendor/*}` in Fig. 3),
            // making the view injective w.r.t. the leaf table so the
            // Appendix-F optimizations apply, as in the paper's setup: a
            // leaf UPDATE skips the `OLD_NODE ≠ NEW_NODE` guard and builds
            // no OLD node for a trigger that does not read it. The upper
            // levels expose only `name`, so their tables are not injective.
            scalars: if leaf {
                vec![("*".into(), "*".into())]
            } else {
                vec![]
            },
            child_count: (i == levels - 2).then_some((BinOp::Ge, 2)),
            child: (!leaf).then(|| Box::new(level(i + 1, levels))),
        }
    }
    ViewSpec {
        name: "bench".into(),
        root_element: "doc".into(),
        binding: TopBinding::Rows,
        top: level(0, levels),
    }
}

impl Workload {
    /// The underlying system (trigger/group counts).
    pub fn quark(&self) -> quark_core::session::QuarkRead<'_> {
        self.session.quark()
    }

    /// Perform one independent single-row UPDATE on a hot leaf through the
    /// statement surface; returns the elapsed statement time (parse +
    /// statement + all trigger processing). The keyed WHERE clause
    /// compiles to a primary-key probe.
    pub fn one_update(&mut self) -> Result<Duration> {
        let leaf = self.hot_leaves[self.rng.gen_range(0..self.hot_leaves.len())];
        self.update_seq += 1;
        let new_price = 50.0 + (self.update_seq % 1000) as f64 / 7.0;
        let stmt = format!(
            "UPDATE {} SET price = {new_price:?} WHERE id = {leaf}",
            self.leaf_table
        );
        let start = Instant::now();
        self.session.execute(&stmt)?;
        Ok(start.elapsed())
    }

    /// Average per-update time over `n` updates (the paper uses 100).
    pub fn measure(&mut self, n: usize) -> Result<Duration> {
        let mut total = Duration::ZERO;
        for _ in 0..n {
            total += self.one_update()?;
        }
        Ok(total / n as u32)
    }

    /// Rows accumulated in the temp table (sanity checks).
    pub fn temp_rows(&self) -> usize {
        self.session
            .database()
            .table("__temp")
            .map(|t| t.len())
            .unwrap_or(0)
    }
}

/// Parameters for the sharded multi-writer workload.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// Number of pairwise-disjoint shards.
    pub shards: usize,
    /// Rows per shard table.
    pub rows: usize,
    /// XML triggers per shard (all watching the shard's hot row).
    pub triggers: usize,
    /// Translation mode.
    pub mode: Mode,
}

impl ShardSpec {
    /// Small defaults for CI-scale contention experiments.
    pub fn quick(shards: usize, mode: Mode) -> Self {
        ShardSpec {
            shards,
            rows: 256,
            triggers: 8,
            mode,
        }
    }
}

/// A sharded multi-writer system: `shards` pairwise-disjoint trigger
/// systems inside one session (see [`build_sharded`]).
pub struct ShardedWorkload {
    /// Session driving all shards.
    pub session: Session,
    /// Spec it was built from.
    pub spec: ShardSpec,
}

/// Build `spec.shards` disjoint single-level trigger systems in one
/// session: shard `h` is `m{h}(id, name, price)` behind the XML view
/// `shard{h}`, with `spec.triggers` XML triggers whose `audit{h}` action
/// (declared write set `{audit{h}}`) appends the fired node into the
/// `audit{h}` table. The write footprint of a statement against `m{h}`
/// is therefore bounded and disjoint from every other shard's, so
/// writers on distinct shards take non-overlapping latch sets and run
/// in parallel; writers on the same shard serialize on its latches.
pub fn build_sharded(spec: ShardSpec) -> Result<ShardedWorkload> {
    let session = quark_xquery::session(Database::new(), spec.mode);
    for h in 0..spec.shards {
        session.execute(&format!(
            "CREATE TABLE m{h} (id INT PRIMARY KEY, name TEXT, price DOUBLE)"
        ))?;
        let rows: Vec<Vec<Value>> = (0..spec.rows)
            .map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::str(format!("row_{h}_{k}")),
                    Value::Double(100.0),
                ]
            })
            .collect();
        session.database_mut().load(&format!("m{h}"), rows)?;

        let view = ViewSpec {
            name: format!("shard{h}"),
            root_element: "doc".into(),
            binding: TopBinding::Rows,
            top: LevelSpec {
                element: "item".into(),
                table: format!("m{h}"),
                parent_fk: None,
                attrs: vec![("name".into(), "name".into())],
                scalars: vec![("*".into(), "*".into())],
                child_count: None,
                child: None,
            },
        };
        let xml_view = view.build(&session.database())?;
        session.quark_mut().register_view(xml_view);

        session.execute(&format!(
            "CREATE TABLE audit{h} (seq INT PRIMARY KEY, content TEXT)"
        ))?;
        let seq = std::sync::Arc::new(std::sync::Mutex::new(0i64));
        let audit_table = format!("audit{h}");
        let target = audit_table.clone();
        session.register_action_with_writes(
            audit_table.clone(),
            [audit_table.clone()],
            move |db, call| {
                let mut s = seq.lock().expect("audit seq");
                *s += 1;
                let content = match &call.params[0] {
                    Value::Xml(x) => x.to_xml(),
                    other => other.to_string(),
                };
                db.insert_row(&target, vec![Value::Int(*s), Value::str(content)])
            },
        )?;

        for i in 0..spec.triggers {
            session.execute(&format!(
                "create trigger s{h}_t{i} after update on view('shard{h}')/item \
                 where OLD_NODE/@name = 'row_{h}_0' do audit{h}(NEW_NODE)"
            ))?;
        }
    }
    Ok(ShardedWorkload { session, spec })
}

/// Build `spec.shards` trigger systems whose write footprints are
/// pairwise disjoint but which all **read** one shared `hub` table — the
/// paper's shared-subview shape, where many views hang off a common
/// ancestor. Shard `h` is a two-level view `sr{h}`: top element over the
/// shared `hub(id, name, price)` table, child element over
/// `m{h}(id, parent, name, price)`, with `spec.triggers` triggers on the
/// top element watching `hub_0` whose `audit{h}` action (declared write
/// set) appends the fired node into `audit{h}`.
///
/// An UPDATE against `m{h}` must join through `hub` to find its affected
/// top elements, so its footprint is `{m{h}, audit{h}}` on the write side
/// and `{hub, constants}` on the read side: shards overlap **only on read
/// tables**. Under exclusive-only latching these writers serialize on
/// `hub`; with shared read latches they admit concurrently (and a
/// single-writer run records zero latch conflicts).
pub fn build_shared_read(spec: ShardSpec) -> Result<ShardedWorkload> {
    let session = quark_xquery::session(Database::new(), spec.mode);
    let hub_rows = 4.max(spec.rows / 64);
    session.execute("CREATE TABLE hub (id INT PRIMARY KEY, name TEXT, price DOUBLE)")?;
    let rows: Vec<Vec<Value>> = (0..hub_rows)
        .map(|k| {
            vec![
                Value::Int(k as i64),
                Value::str(format!("hub_{k}")),
                Value::Double(10.0),
            ]
        })
        .collect();
    session.database_mut().load("hub", rows)?;

    for h in 0..spec.shards {
        session.execute(&format!(
            "CREATE TABLE m{h} (id INT PRIMARY KEY, parent INT, name TEXT, price DOUBLE)"
        ))?;
        session.execute(&format!("CREATE INDEX ON m{h} (parent)"))?;
        let rows: Vec<Vec<Value>> = (0..spec.rows)
            .map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::Int((k % hub_rows) as i64),
                    Value::str(format!("row_{h}_{k}")),
                    Value::Double(100.0),
                ]
            })
            .collect();
        session.database_mut().load(&format!("m{h}"), rows)?;

        let view = ViewSpec {
            name: format!("sr{h}"),
            root_element: "doc".into(),
            binding: TopBinding::Rows,
            top: LevelSpec {
                element: "e0".into(),
                table: "hub".into(),
                parent_fk: None,
                attrs: vec![("name".into(), "name".into())],
                scalars: vec![],
                child_count: None,
                child: Some(Box::new(LevelSpec {
                    element: "e1".into(),
                    table: format!("m{h}"),
                    parent_fk: Some("parent".into()),
                    attrs: vec![("name".into(), "name".into())],
                    scalars: vec![("*".into(), "*".into())],
                    child_count: None,
                    child: None,
                })),
            },
        };
        let xml_view = view.build(&session.database())?;
        session.quark_mut().register_view(xml_view);

        session.execute(&format!(
            "CREATE TABLE audit{h} (seq INT PRIMARY KEY, content TEXT)"
        ))?;
        let seq = std::sync::Arc::new(std::sync::Mutex::new(0i64));
        let audit_table = format!("audit{h}");
        let target = audit_table.clone();
        session.register_action_with_writes(
            audit_table.clone(),
            [audit_table.clone()],
            move |db, call| {
                let mut s = seq.lock().expect("audit seq");
                *s += 1;
                let content = match &call.params[0] {
                    Value::Xml(x) => x.to_xml(),
                    other => other.to_string(),
                };
                db.insert_row(&target, vec![Value::Int(*s), Value::str(content)])
            },
        )?;

        for i in 0..spec.triggers {
            session.execute(&format!(
                "create trigger sr{h}_t{i} after update on view('sr{h}')/e0 \
                 where OLD_NODE/@name = 'hub_0' do audit{h}(NEW_NODE)"
            ))?;
        }
    }
    Ok(ShardedWorkload { session, spec })
}

impl ShardedWorkload {
    /// Keyed UPDATE against shard `shard`'s hot row; `seq` varies the
    /// written price deterministically.
    pub fn update_stmt(&self, shard: usize, seq: i64) -> String {
        let price = 50.0 + (seq % 1000) as f64 / 7.0;
        format!("UPDATE m{shard} SET price = {price:?} WHERE id = 0")
    }

    /// Keyed SELECT against shard `shard`.
    pub fn select_stmt(&self, shard: usize, id: i64) -> String {
        format!("SELECT name FROM m{shard} WHERE id = {id}")
    }

    /// Rows accumulated in shard `shard`'s audit table.
    pub fn audit_rows(&self, shard: usize) -> usize {
        self.session
            .database()
            .table(&format!("audit{shard}"))
            .map(|t| t.len())
            .unwrap_or(0)
    }
}

pub mod ablation;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_workload_fires_only_its_shard() {
        let w = build_sharded(ShardSpec::quick(2, Mode::Grouped)).unwrap();
        w.session.execute(&w.update_stmt(0, 1)).unwrap();
        assert_eq!(w.audit_rows(0), w.spec.triggers);
        assert_eq!(w.audit_rows(1), 0);
        // Single-threaded disjoint writes never contend.
        assert_eq!(w.session.quark().stats().latch_conflicts, 0);
    }

    #[test]
    fn shared_read_shards_overlap_only_on_reads() {
        let w = build_shared_read(ShardSpec::quick(2, Mode::Grouped)).unwrap();
        w.session.execute(&w.update_stmt(0, 1)).unwrap();
        // Row 0 of m0 hangs under hub_0, so every shard-0 trigger fires.
        assert_eq!(w.audit_rows(0), w.spec.triggers);
        assert_eq!(w.audit_rows(1), 0);
        let stats = w.session.quark().stats();
        // The hub is only read, so a lone writer never contends …
        assert_eq!(stats.latch_conflicts, 0);
        // … and the statement latched `hub` (+ constants) shared while
        // taking `m0`/`audit0` exclusive.
        assert!(stats.latch_shared_acquisitions >= 1, "{stats:?}");
        assert!(stats.latch_exclusive_acquisitions >= 2, "{stats:?}");
    }

    #[test]
    fn split_fanout_products_match() {
        for fanout in [16usize, 32, 64, 128, 256, 1024] {
            for levels in 1..=4 {
                let parts = split_fanout(fanout, levels);
                assert_eq!(parts.len(), levels);
                assert_eq!(parts.iter().product::<usize>(), fanout, "{fanout} {levels}");
            }
        }
    }

    #[test]
    fn quick_workload_fires_satisfied_triggers() {
        let mut spec = WorkloadSpec::quick(Mode::Grouped);
        spec.leaf_count = 256;
        spec.triggers = 10;
        spec.satisfied = 3;
        let mut w = build(spec).unwrap();
        assert!(!w.hot_leaves.is_empty());
        let before = w.temp_rows();
        w.one_update().unwrap();
        // Exactly the satisfied triggers insert one row each.
        assert_eq!(w.temp_rows() - before, 3);
    }

    #[test]
    fn all_modes_agree_on_firings() {
        let mut counts = Vec::new();
        for mode in [Mode::Ungrouped, Mode::Grouped, Mode::GroupedAgg] {
            let mut spec = WorkloadSpec::quick(mode);
            spec.leaf_count = 256;
            spec.triggers = 8;
            spec.satisfied = 2;
            let mut w = build(spec).unwrap();
            for _ in 0..5 {
                w.one_update().unwrap();
            }
            counts.push(w.temp_rows());
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
        assert_eq!(counts[0], 10); // 5 updates × 2 satisfied
    }

    #[test]
    fn depth_three_workload_works() {
        let mut spec = WorkloadSpec::quick(Mode::GroupedAgg);
        spec.depth = 3;
        spec.leaf_count = 512;
        spec.fanout = 16;
        spec.triggers = 4;
        spec.satisfied = 1;
        let mut w = build(spec).unwrap();
        let before = w.temp_rows();
        w.one_update().unwrap();
        assert_eq!(w.temp_rows() - before, 1);
    }

    #[test]
    fn grouped_sql_trigger_count_is_constant_in_xml_triggers() {
        let mut spec = WorkloadSpec::quick(Mode::Grouped);
        spec.leaf_count = 256;
        spec.triggers = 50;
        let w = build(spec).unwrap();
        let grouped_sql = w.quark().sql_trigger_count();

        let mut spec2 = spec;
        spec2.triggers = 200;
        let w2 = build(spec2).unwrap();
        assert_eq!(grouped_sql, w2.quark().sql_trigger_count());

        let mut spec3 = spec;
        spec3.mode = Mode::Ungrouped;
        spec3.triggers = 50;
        let w3 = build(spec3).unwrap();
        assert!(w3.quark().sql_trigger_count() >= 50 * grouped_sql / 2);
    }
}
