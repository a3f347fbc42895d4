//! Core-blob serialization: the view/trigger layer of a [`Quark`] system,
//! persisted into the storage catalog at every checkpoint and decoded by
//! [`Quark::open`] on restart.
//!
//! What round-trips: the translation mode and options, every registered
//! view (anchor path graphs via [`quark_xqgm::wire`]), every trigger group
//! — constants sets, members, and the generated SQL triggers with their
//! compiled plans — the XML-trigger registry, and the compile cache. What
//! does *not*: action **functions** are closures and must be re-registered
//! by the application after reopening (handlers resolve actions by name at
//! firing time, so order doesn't matter until the first firing).
//!
//! Decoding **re-arms** each group: the SQL-trigger handlers are rebuilt
//! from their persisted plan/residual/source-event ingredients and
//! installed on the recovered database, so a warm restart performs zero
//! delta-graph translations ([`Quark::translations`] stays 0). Each
//! decoded plan is verified against its persisted `EXPLAIN` rendering —
//! a codec drift or corruption that slipped past the storage CRCs fails
//! recovery instead of firing a silently wrong plan.
//!
//! Encoding iterates every map in sorted order, so equal systems produce
//! byte-equal blobs.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use quark_relational::wire::{Dec, Enc};
use quark_relational::{Error, Event, Result, SqlTrigger, Value};

use crate::angraph::{AffectedLayout, AffectedNodePlan, AnOptions};
use crate::condition::{CondValue, Condition, NodePath, NodeRef, Step};
use crate::events::SourceEvent;
use crate::spec::{ActionParam, PathGraph, XmlView};

use super::{CacheEntry, Group, Member, Members, Mode, Quark, SqlTriggerMeta, TriggerRecord};

/// Blob format version; bumped on any layout change.
const VERSION: u8 = 1;

fn bad(msg: &str) -> Error {
    Error::Storage(format!("core decode: {msg}"))
}

// ---------------------------------------------------------------------
// Leaf codecs
// ---------------------------------------------------------------------

fn opt_str(enc: &mut Enc, s: Option<&str>) {
    match s {
        Some(s) => {
            enc.bool(true);
            enc.str(s);
        }
        None => enc.bool(false),
    }
}

fn opt_str_dec(dec: &mut Dec) -> Result<Option<String>> {
    Ok(if dec.bool()? { Some(dec.str()?) } else { None })
}

fn opt_col(enc: &mut Enc, c: Option<usize>) {
    match c {
        Some(c) => {
            enc.bool(true);
            enc.u32(c as u32);
        }
        None => enc.bool(false),
    }
}

fn opt_col_dec(dec: &mut Dec) -> Result<Option<usize>> {
    Ok(if dec.bool()? {
        Some(dec.u32()? as usize)
    } else {
        None
    })
}

fn attr_map(enc: &mut Enc, m: &HashMap<String, usize>) {
    let mut entries: Vec<(&String, &usize)> = m.iter().collect();
    entries.sort();
    enc.u32(entries.len() as u32);
    for (name, &col) in entries {
        enc.str(name);
        enc.u32(col as u32);
    }
}

fn attr_map_dec(dec: &mut Dec) -> Result<HashMap<String, usize>> {
    let n = dec.u32()?;
    let mut m = HashMap::with_capacity(n as usize);
    for _ in 0..n {
        let name = dec.str()?;
        m.insert(name, dec.u32()? as usize);
    }
    Ok(m)
}

fn event_tag(e: Event) -> u8 {
    match e {
        Event::Insert => 0,
        Event::Update => 1,
        Event::Delete => 2,
    }
}

fn event_from_tag(t: u8) -> Result<Event> {
    Ok(match t {
        0 => Event::Insert,
        1 => Event::Update,
        2 => Event::Delete,
        t => return Err(bad(&format!("unknown event tag {t}"))),
    })
}

fn node_ref_tag(r: NodeRef) -> u8 {
    match r {
        NodeRef::Old => 0,
        NodeRef::New => 1,
        NodeRef::Context => 2,
    }
}

fn node_ref_from_tag(t: u8) -> Result<NodeRef> {
    Ok(match t {
        0 => NodeRef::Old,
        1 => NodeRef::New,
        2 => NodeRef::Context,
        t => return Err(bad(&format!("unknown node-ref tag {t}"))),
    })
}

fn encode_opt_cond(enc: &mut Enc, c: &Option<Box<Condition>>) -> Result<()> {
    match c {
        Some(c) => {
            enc.bool(true);
            encode_condition(enc, c)
        }
        None => {
            enc.bool(false);
            Ok(())
        }
    }
}

fn decode_opt_cond(dec: &mut Dec) -> Result<Option<Box<Condition>>> {
    Ok(if dec.bool()? {
        Some(Box::new(decode_condition(dec)?))
    } else {
        None
    })
}

fn encode_path(enc: &mut Enc, p: &NodePath) -> Result<()> {
    enc.u8(node_ref_tag(p.base));
    enc.u32(p.steps.len() as u32);
    for step in &p.steps {
        match step {
            Step::Child(name, pred) => {
                enc.u8(0);
                enc.str(name);
                encode_opt_cond(enc, pred)?;
            }
            Step::Descendant(name, pred) => {
                enc.u8(1);
                enc.str(name);
                encode_opt_cond(enc, pred)?;
            }
            Step::Attr(name) => {
                enc.u8(2);
                enc.str(name);
            }
        }
    }
    Ok(())
}

fn decode_path(dec: &mut Dec) -> Result<NodePath> {
    let base = node_ref_from_tag(dec.u8()?)?;
    let n = dec.u32()?;
    let mut steps = Vec::with_capacity(n as usize);
    for _ in 0..n {
        steps.push(match dec.u8()? {
            0 => {
                let name = dec.str()?;
                Step::Child(name, decode_opt_cond(dec)?)
            }
            1 => {
                let name = dec.str()?;
                Step::Descendant(name, decode_opt_cond(dec)?)
            }
            2 => Step::Attr(dec.str()?),
            t => return Err(bad(&format!("unknown path-step tag {t}"))),
        });
    }
    Ok(NodePath { base, steps })
}

fn encode_cond_value(enc: &mut Enc, v: &CondValue) -> Result<()> {
    match v {
        CondValue::Path(p) => {
            enc.u8(0);
            encode_path(enc, p)
        }
        CondValue::Const(c) => {
            enc.u8(1);
            enc.value(c)
        }
        CondValue::Param(i) => {
            enc.u8(2);
            enc.u32(*i as u32);
            Ok(())
        }
        CondValue::Count(p) => {
            enc.u8(3);
            encode_path(enc, p)
        }
    }
}

fn decode_cond_value(dec: &mut Dec) -> Result<CondValue> {
    Ok(match dec.u8()? {
        0 => CondValue::Path(decode_path(dec)?),
        1 => CondValue::Const(dec.value()?),
        2 => CondValue::Param(dec.u32()? as usize),
        3 => CondValue::Count(decode_path(dec)?),
        t => return Err(bad(&format!("unknown cond-value tag {t}"))),
    })
}

fn encode_condition(enc: &mut Enc, c: &Condition) -> Result<()> {
    match c {
        Condition::True => {
            enc.u8(0);
            Ok(())
        }
        Condition::Cmp { left, op, right } => {
            enc.u8(1);
            encode_cond_value(enc, left)?;
            enc.binop(*op);
            encode_cond_value(enc, right)
        }
        Condition::Exists(p) => {
            enc.u8(2);
            encode_path(enc, p)
        }
        Condition::And(a, b) => {
            enc.u8(3);
            encode_condition(enc, a)?;
            encode_condition(enc, b)
        }
        Condition::Or(a, b) => {
            enc.u8(4);
            encode_condition(enc, a)?;
            encode_condition(enc, b)
        }
        Condition::Not(a) => {
            enc.u8(5);
            encode_condition(enc, a)
        }
    }
}

fn decode_condition(dec: &mut Dec) -> Result<Condition> {
    Ok(match dec.u8()? {
        0 => Condition::True,
        1 => {
            let left = decode_cond_value(dec)?;
            let op = dec.binop()?;
            let right = decode_cond_value(dec)?;
            Condition::Cmp { left, op, right }
        }
        2 => Condition::Exists(decode_path(dec)?),
        3 => Condition::And(
            Box::new(decode_condition(dec)?),
            Box::new(decode_condition(dec)?),
        ),
        4 => Condition::Or(
            Box::new(decode_condition(dec)?),
            Box::new(decode_condition(dec)?),
        ),
        5 => Condition::Not(Box::new(decode_condition(dec)?)),
        t => return Err(bad(&format!("unknown condition tag {t}"))),
    })
}

fn encode_param(enc: &mut Enc, p: &ActionParam) -> Result<()> {
    match p {
        ActionParam::OldNode => {
            enc.u8(0);
            Ok(())
        }
        ActionParam::NewNode => {
            enc.u8(1);
            Ok(())
        }
        ActionParam::Const(v) => {
            enc.u8(2);
            enc.value(v)
        }
    }
}

fn decode_param(dec: &mut Dec) -> Result<ActionParam> {
    Ok(match dec.u8()? {
        0 => ActionParam::OldNode,
        1 => ActionParam::NewNode,
        2 => ActionParam::Const(dec.value()?),
        t => return Err(bad(&format!("unknown action-param tag {t}"))),
    })
}

fn encode_source_event(enc: &mut Enc, s: &SourceEvent) {
    enc.str(&s.table);
    enc.u8(event_tag(s.event));
    match &s.relevant_cols {
        Some(cols) => {
            enc.bool(true);
            enc.u32(cols.len() as u32);
            for &c in cols {
                enc.u32(c as u32);
            }
        }
        None => enc.bool(false),
    }
}

fn decode_source_event(dec: &mut Dec) -> Result<SourceEvent> {
    let table = dec.str()?;
    let event = event_from_tag(dec.u8()?)?;
    let relevant_cols = if dec.bool()? {
        let n = dec.u32()?;
        let mut cols = BTreeSet::new();
        for _ in 0..n {
            cols.insert(dec.u32()? as usize);
        }
        Some(cols)
    } else {
        None
    };
    Ok(SourceEvent {
        table,
        event,
        relevant_cols,
    })
}

fn encode_layout(enc: &mut Enc, l: &AffectedLayout) {
    enc.u32(l.key_len as u32);
    opt_col(enc, l.old_node);
    opt_col(enc, l.new_node);
    attr_map(enc, &l.old_attrs);
    attr_map(enc, &l.new_attrs);
}

fn decode_layout(dec: &mut Dec) -> Result<AffectedLayout> {
    Ok(AffectedLayout {
        key_len: dec.u32()? as usize,
        old_node: opt_col_dec(dec)?,
        new_node: opt_col_dec(dec)?,
        old_attrs: attr_map_dec(dec)?,
        new_attrs: attr_map_dec(dec)?,
    })
}

// ---------------------------------------------------------------------
// The blob
// ---------------------------------------------------------------------

/// Serialize the view/trigger layer of `q` (everything [`Quark`] holds
/// beyond the relational database, minus the action closures).
pub(crate) fn encode_core(q: &Quark) -> Result<Vec<u8>> {
    let mut enc = Enc::new();
    enc.u8(VERSION);
    enc.u8(match q.mode {
        Mode::Ungrouped => 0,
        Mode::Grouped => 1,
        Mode::GroupedAgg => 2,
    });
    let o = q.options;
    enc.bool(o.pruned_transitions);
    enc.bool(o.injective_opt);
    enc.bool(o.use_skeletons);
    enc.bool(o.agg_compensation);
    enc.u64(q.group_counter as u64);
    // The *external* schema generation: what cache keys embed. The raw
    // database counter does not survive recovery (the rebuilt database
    // re-counts only the surviving DDL), so the external generation is the
    // durable clock and `internal_ddl` is re-based against it on decode.
    enc.i64(q.db.schema_generation() as i64 - q.internal_ddl);
    enc.u64(q.compile_cache_hits);
    enc.bool(q.compile_cache_enabled);

    // Views.
    let mut views: Vec<&XmlView> = q.views.values().collect();
    views.sort_by(|a, b| a.name.cmp(&b.name));
    enc.u32(views.len() as u32);
    for v in views {
        enc.str(&v.name);
        let mut anchors: Vec<(&String, &PathGraph)> = v.anchors.iter().collect();
        anchors.sort_by(|a, b| a.0.cmp(b.0));
        enc.u32(anchors.len() as u32);
        for (name, pg) in anchors {
            enc.str(name);
            quark_xqgm::wire::encode_graph(&mut enc, &pg.kg.graph, pg.root)?;
            enc.u32(pg.node_col as u32);
            attr_map(&mut enc, &pg.attr_cols);
        }
    }

    // Groups.
    let mut groups: Vec<&Group> = q.groups.values().collect();
    groups.sort_by(|a, b| a.signature.cmp(&b.signature));
    enc.u32(groups.len() as u32);
    for g in groups {
        enc.str(&g.signature);
        opt_str(&mut enc, g.constants_table.as_deref());
        // Constants arity: every set of a group has the same width (the
        // group signature fixes the condition shape).
        let n_consts = g.sets.keys().next().map_or(0, |k| k.len());
        enc.u32(n_consts as u32);
        let mut sets: Vec<(&Vec<Value>, i64)> = g.sets.iter().map(|(k, &v)| (k, v)).collect();
        sets.sort_by_key(|&(_, id)| id);
        enc.u32(sets.len() as u32);
        for (consts, id) in sets {
            enc.i64(id);
            enc.values(consts)?;
        }
        enc.i64(g.next_set);
        {
            let members = g.members.lock().expect("members");
            let mut by_set: Vec<(&i64, &Vec<Member>)> = members.iter().collect();
            by_set.sort_by_key(|(id, _)| **id);
            enc.u32(by_set.len() as u32);
            for (&id, list) in by_set {
                enc.i64(id);
                enc.u32(list.len() as u32);
                for m in list {
                    enc.str(&m.trigger);
                    enc.str(&m.function);
                    enc.u32(m.params.len() as u32);
                    for p in &m.params {
                        encode_param(&mut enc, p)?;
                    }
                }
            }
        }
        enc.u32(g.sql_triggers.len() as u32);
        for t in &g.sql_triggers {
            enc.str(&t.name);
            enc.str(&t.table);
            enc.u8(event_tag(t.event));
            enc.str(&t.plan);
            enc.plan(&t.plan_ref)?;
            match &t.residual {
                Some(c) => {
                    enc.bool(true);
                    encode_condition(&mut enc, c)?;
                }
                None => enc.bool(false),
            }
            encode_source_event(&mut enc, &t.src);
        }
        enc.u32(g.footprint.len() as u32);
        for table in &g.footprint {
            enc.str(table);
        }
        enc.u32(g.trigger_count as u32);
        opt_str(&mut enc, g.cache_key.as_deref());
    }

    // XML-trigger registry.
    let mut triggers: Vec<(&String, &TriggerRecord)> = q.triggers.iter().collect();
    triggers.sort_by(|a, b| a.0.cmp(b.0));
    enc.u32(triggers.len() as u32);
    for (name, r) in triggers {
        enc.str(name);
        enc.str(&r.group_signature);
        enc.i64(r.set_id);
    }

    // Compile cache.
    let mut cache: Vec<(&String, &CacheEntry)> = q.compile_cache.iter().collect();
    cache.sort_by(|a, b| a.0.cmp(b.0));
    enc.u32(cache.len() as u32);
    for (key, entry) in cache {
        enc.str(key);
        enc.u32(entry.refs as u32);
        let mut plans: Vec<(&String, &Option<AffectedNodePlan>)> = entry.plans.iter().collect();
        plans.sort_by(|a, b| a.0.cmp(b.0));
        enc.u32(plans.len() as u32);
        for (table, plan) in plans {
            enc.str(table);
            match plan {
                Some(anp) => {
                    enc.bool(true);
                    enc.plan(&anp.plan)?;
                    encode_layout(&mut enc, &anp.layout);
                }
                None => enc.bool(false),
            }
        }
    }

    Ok(enc.into_bytes())
}

/// Decode a blob written by [`encode_core`] into `q` (a fresh system whose
/// database already holds the recovered tables), re-arming every group's
/// SQL triggers on the database.
pub(crate) fn decode_core(q: &mut Quark, bytes: &[u8]) -> Result<()> {
    let mut dec = Dec::new(bytes);
    let version = dec.u8()?;
    if version != VERSION {
        return Err(bad(&format!("unsupported core-blob version {version}")));
    }
    q.mode = match dec.u8()? {
        0 => Mode::Ungrouped,
        1 => Mode::Grouped,
        2 => Mode::GroupedAgg,
        t => return Err(bad(&format!("unknown mode tag {t}"))),
    };
    q.options = AnOptions {
        pruned_transitions: dec.bool()?,
        injective_opt: dec.bool()?,
        use_skeletons: dec.bool()?,
        agg_compensation: dec.bool()?,
    };
    q.group_counter = dec.u64()? as usize;
    let external_gen = dec.i64()?;
    q.compile_cache_hits = dec.u64()?;
    q.compile_cache_enabled = dec.bool()?;

    // Views.
    let n_views = dec.u32()?;
    let mut views = HashMap::with_capacity(n_views as usize);
    for _ in 0..n_views {
        let name = dec.str()?;
        let n_anchors = dec.u32()?;
        let mut anchors = HashMap::with_capacity(n_anchors as usize);
        for _ in 0..n_anchors {
            let anchor = dec.str()?;
            let (graph, root) = quark_xqgm::wire::decode_graph(&mut dec)?;
            // Persisted graphs are already normalized, so re-deriving keys
            // is idempotent: no columns are appended and the persisted
            // node/attr column indices stay valid.
            let (kg, root) = quark_xqgm::KeyedGraph::normalize(&graph, root, &q.db)?;
            let node_col = dec.u32()? as usize;
            let attr_cols = attr_map_dec(&mut dec)?;
            anchors.insert(
                anchor,
                PathGraph {
                    kg,
                    root,
                    node_col,
                    attr_cols,
                },
            );
        }
        views.insert(name.clone(), XmlView { name, anchors });
    }
    q.views = Arc::new(views);

    // Groups — decode, verify, re-arm.
    let n_groups = dec.u32()?;
    let mut groups = HashMap::with_capacity(n_groups as usize);
    for _ in 0..n_groups {
        let signature = dec.str()?;
        let constants_table = opt_str_dec(&mut dec)?;
        let n_consts = dec.u32()? as usize;
        let n_sets = dec.u32()?;
        let mut sets = HashMap::with_capacity(n_sets as usize);
        for _ in 0..n_sets {
            let id = dec.i64()?;
            sets.insert(dec.values()?, id);
        }
        let next_set = dec.i64()?;
        let n_member_sets = dec.u32()?;
        let mut by_set: HashMap<i64, Vec<Member>> = HashMap::with_capacity(n_member_sets as usize);
        for _ in 0..n_member_sets {
            let id = dec.i64()?;
            let n = dec.u32()?;
            let mut list = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let trigger = dec.str()?;
                let function = dec.str()?;
                let n_params = dec.u32()?;
                let mut params = Vec::with_capacity(n_params as usize);
                for _ in 0..n_params {
                    params.push(decode_param(&mut dec)?);
                }
                list.push(Member {
                    trigger,
                    function,
                    params,
                });
            }
            by_set.insert(id, list);
        }
        let members: Members = Arc::new(Mutex::new(by_set));
        let n_triggers = dec.u32()?;
        let mut sql_triggers = Vec::with_capacity(n_triggers as usize);
        for _ in 0..n_triggers {
            let name = dec.str()?;
            let table = dec.str()?;
            let event = event_from_tag(dec.u8()?)?;
            let plan = dec.str()?;
            let plan_ref = dec.plan()?;
            let residual = if dec.bool()? {
                Some(decode_condition(&mut dec)?)
            } else {
                None
            };
            let src = decode_source_event(&mut dec)?;
            // Verify the decoded plan against its persisted rendering: a
            // codec drift (or corruption past the storage CRCs) must fail
            // recovery, not fire a silently different plan.
            if plan_ref.explain() != plan {
                return Err(bad(&format!(
                    "re-armed plan for SQL trigger `{name}` does not match \
                     its persisted rendering"
                )));
            }
            sql_triggers.push(SqlTriggerMeta {
                name,
                table,
                event,
                plan,
                plan_ref,
                residual,
                src,
            });
        }
        let n_footprint = dec.u32()?;
        let mut footprint = BTreeSet::new();
        for _ in 0..n_footprint {
            footprint.insert(dec.str()?);
        }
        let trigger_count = dec.u32()? as usize;
        let cache_key = opt_str_dec(&mut dec)?;

        // Re-arm: rebuild each handler from its persisted ingredients and
        // install it on the recovered database — no translation runs.
        for t in &sql_triggers {
            let body = q.make_handler(
                Arc::clone(&t.plan_ref),
                t.residual.clone(),
                t.src.clone(),
                Arc::clone(&members),
                n_consts,
            );
            q.db.create_trigger(SqlTrigger {
                name: t.name.clone(),
                table: t.table.clone(),
                event: t.event,
                body,
            })?;
        }

        groups.insert(
            signature.clone(),
            Group {
                signature,
                constants_table,
                members,
                sets,
                next_set,
                sql_triggers,
                footprint,
                trigger_count,
                cache_key,
            },
        );
    }
    q.groups = Arc::new(groups);

    // XML-trigger registry.
    let n_records = dec.u32()?;
    let mut triggers = HashMap::with_capacity(n_records as usize);
    for _ in 0..n_records {
        let name = dec.str()?;
        let group_signature = dec.str()?;
        let set_id = dec.i64()?;
        triggers.insert(
            name,
            TriggerRecord {
                group_signature,
                set_id,
            },
        );
    }
    q.triggers = Arc::new(triggers);

    // Compile cache.
    let n_entries = dec.u32()?;
    let mut cache = HashMap::with_capacity(n_entries as usize);
    for _ in 0..n_entries {
        let key = dec.str()?;
        let refs = dec.u32()? as usize;
        let n_plans = dec.u32()?;
        let mut plans = HashMap::with_capacity(n_plans as usize);
        for _ in 0..n_plans {
            let table = dec.str()?;
            let plan = if dec.bool()? {
                let plan = dec.plan()?;
                let layout = decode_layout(&mut dec)?;
                Some(AffectedNodePlan { plan, layout })
            } else {
                None
            };
            plans.insert(table, plan);
        }
        cache.insert(key, CacheEntry { plans, refs });
    }
    q.compile_cache = Arc::new(cache);

    dec.finish()?;

    // All recovery DDL has run (tables and indexes in `Quark::open`, the
    // trigger re-arms above don't bump the generation): re-base the
    // internal-DDL offset so the external generation continues from the
    // persisted value and persisted cache keys keep matching.
    q.internal_ddl = q.db.schema_generation() as i64 - external_gen;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Action, TriggerSpec, XmlEvent};
    use quark_relational::expr::BinOp;
    use quark_relational::Database;

    fn catalog_path(db: &Database) -> PathGraph {
        let mut g = quark_xqgm::Graph::new();
        let (top, _) = quark_xqgm::fixtures::catalog_path_graph(&mut g);
        let (kg, root) = quark_xqgm::KeyedGraph::normalize(&g, top, db).expect("normalize");
        let mut attr_cols = HashMap::new();
        attr_cols.insert("name".to_string(), 0);
        PathGraph {
            kg,
            root,
            node_col: 1,
            attr_cols,
        }
    }

    /// A grouped system with two triggers in one group (two constants
    /// sets) — exercises views, constants tables, members, sql triggers
    /// and the compile cache.
    fn demo() -> Quark {
        let db = quark_xqgm::fixtures::product_vendor_db();
        let pg = catalog_path(&db);
        let mut q = Quark::new(db, Mode::Grouped);
        q.register_view(XmlView::new("catalog").with_anchor("product", pg));
        q.register_action("notify", |_, _| Ok(())).unwrap();
        for (i, product) in ["P1", "P2"].iter().enumerate() {
            q.create_trigger(TriggerSpec {
                name: format!("t{i}"),
                event: XmlEvent::Update,
                view: "catalog".into(),
                anchor: "product".into(),
                condition: Condition::cmp(
                    NodePath::attr(NodeRef::New, "name"),
                    BinOp::Eq,
                    *product,
                ),
                action: Action {
                    function: "notify".into(),
                    params: vec![ActionParam::NewNode],
                },
            })
            .unwrap();
        }
        q
    }

    /// Simulate recovery: clone the database (keeping base + constants
    /// tables), strip its triggers, and decode the blob into a fresh
    /// system seeded with the *wrong* mode.
    fn reopen(q: &Quark, blob: &[u8]) -> Quark {
        let mut db = q.database().clone();
        let names: Vec<String> = db.triggers().map(|t| t.name.clone()).collect();
        for name in names {
            db.drop_trigger(&name).unwrap();
        }
        let mut q2 = Quark::new(db, Mode::Ungrouped);
        decode_core(&mut q2, blob).unwrap();
        q2
    }

    #[test]
    fn core_blob_round_trips_and_rearms() {
        let q = demo();
        let blob = encode_core(&q).unwrap();
        let q2 = reopen(&q, &blob);
        // Persisted mode wins over the open-time seed.
        assert_eq!(q2.mode(), Mode::Grouped);
        assert_eq!(q2.options(), q.options());
        assert_eq!(q2.xml_trigger_count(), 2);
        assert_eq!(q2.group_count(), 1);
        assert_eq!(q2.sql_trigger_count(), q.sql_trigger_count());
        assert_eq!(q2.compile_cache_len(), q.compile_cache_len());
        assert_eq!(q2.translations(), 0, "re-arming must not translate");
        // The re-armed artifacts render identically.
        assert_eq!(
            q.explain_trigger("t0").unwrap(),
            q2.explain_trigger("t0").unwrap()
        );
        // A third structurally similar trigger joins the recovered group
        // without translation (fast path still works after decode).
        let mut q2 = q2;
        q2.create_trigger(TriggerSpec {
            name: "t3".into(),
            event: XmlEvent::Update,
            view: "catalog".into(),
            anchor: "product".into(),
            condition: Condition::cmp(NodePath::attr(NodeRef::New, "name"), BinOp::Eq, "P3"),
            action: Action {
                function: "notify".into(),
                params: vec![ActionParam::NewNode],
            },
        })
        .unwrap();
        assert_eq!(q2.group_count(), 1);
        assert_eq!(q2.translations(), 0);
    }

    #[test]
    fn encoding_is_deterministic() {
        let blob_a = encode_core(&demo()).unwrap();
        let blob_b = encode_core(&demo()).unwrap();
        assert_eq!(blob_a, blob_b);
        // Golden bytes: the blob embeds `BinOp`, `JoinKind` and optional-
        // expression tags from `quark_relational::wire`; a change to any
        // tag table is a persisted-format change and must bump `VERSION`.
        assert_eq!(
            (blob_a.len(), quark_storage::crc::crc32(&blob_a)),
            (34_825, 0x2220_f8b4),
            "core blob bytes changed"
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let q = demo();
        let mut blob = encode_core(&q).unwrap();
        blob[0] = 99;
        let mut db = q.database().clone();
        let names: Vec<String> = db.triggers().map(|t| t.name.clone()).collect();
        for name in names {
            db.drop_trigger(&name).unwrap();
        }
        let mut q2 = Quark::new(db, Mode::Grouped);
        let err = decode_core(&mut q2, &blob).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let q = demo();
        let blob = encode_core(&q).unwrap();
        let mut db = q.database().clone();
        let names: Vec<String> = db.triggers().map(|t| t.name.clone()).collect();
        for name in names {
            db.drop_trigger(&name).unwrap();
        }
        let mut q2 = Quark::new(db, Mode::Grouped);
        assert!(decode_core(&mut q2, &blob[..blob.len() - 4]).is_err());
    }
}
