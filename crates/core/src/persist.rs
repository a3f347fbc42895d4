//! Core-blob serialization: the view/trigger layer of a [`Quark`] system,
//! persisted into the storage catalog at every checkpoint and decoded by
//! [`Quark::open`] on restart. The byte format is the [`Encode`]/[`Decode`]
//! impls below, over the one codec in [`quark_relational::wire`] (its
//! module docs state the rules every format follows).
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
//! Every map is written in key order, so equal systems produce byte-equal
//! blobs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use quark_relational::wire::{Dec, Decode, Enc, Encode, WireTag};
use quark_relational::{Error, Result, SqlTrigger, Value};
use quark_xqgm::wire::{decode_graph, encode_graph};

use crate::angraph::{AffectedLayout, AffectedNodePlan, AnOptions};
use crate::condition::{CondValue, Condition, NodePath, NodeRef, Step};
use crate::events::SourceEvent;
use crate::session::ObjectKind;
use crate::spec::{ActionParam, PathGraph, XmlView};

use super::{CacheEntry, Group, Member, Mode, Quark, SqlTriggerMeta, TriggerRecord};

/// Blob format version; bumped on any layout change.
const VERSION: u8 = 1;

fn bad(msg: &str) -> Error {
    Error::Storage(format!("core decode: {msg}"))
}

// ---------------------------------------------------------------------
// Tag tables
// ---------------------------------------------------------------------

impl WireTag for Mode {
    const TAGS: &'static [(Self, u8)] = &[
        (Mode::Ungrouped, 0),
        (Mode::Grouped, 1),
        (Mode::GroupedAgg, 2),
    ];
}

impl WireTag for NodeRef {
    const TAGS: &'static [(Self, u8)] =
        &[(NodeRef::Old, 0), (NodeRef::New, 1), (NodeRef::Context, 2)];
}

/// Not part of the blob: the wire protocol's `CREATED`/`DROPPED` frames
/// carry it, and a tag table lives in the crate that owns the enum.
impl WireTag for ObjectKind {
    const TAGS: &'static [(Self, u8)] = &[
        (ObjectKind::Table, 0),
        (ObjectKind::Index, 1),
        (ObjectKind::View, 2),
        (ObjectKind::Trigger, 3),
    ];
}

// ---------------------------------------------------------------------
// Conditions, action parameters, source events, layouts
// ---------------------------------------------------------------------

impl Encode for Step {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Step::Child(name, pred) => {
                enc.u8(0);
                enc.put(name);
                enc.put(pred);
            }
            Step::Descendant(name, pred) => {
                enc.u8(1);
                enc.put(name);
                enc.put(pred);
            }
            Step::Attr(name) => {
                enc.u8(2);
                enc.put(name);
            }
        }
    }
}

impl Decode for Step {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => Step::Child(dec.get()?, dec.get()?),
            1 => Step::Descendant(dec.get()?, dec.get()?),
            2 => Step::Attr(dec.get()?),
            t => return Err(bad(&format!("unknown path-step tag {t}"))),
        })
    }
}

impl Encode for NodePath {
    fn encode(&self, enc: &mut Enc) {
        enc.tag(self.base);
        enc.put(&self.steps);
    }
}

impl Decode for NodePath {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(NodePath {
            base: dec.tag()?,
            steps: dec.get()?,
        })
    }
}

impl Encode for CondValue {
    fn encode(&self, enc: &mut Enc) {
        match self {
            CondValue::Path(p) => {
                enc.u8(0);
                enc.put(p);
            }
            CondValue::Const(c) => {
                enc.u8(1);
                enc.put(c);
            }
            CondValue::Param(i) => {
                enc.u8(2);
                enc.put(i);
            }
            CondValue::Count(p) => {
                enc.u8(3);
                enc.put(p);
            }
        }
    }
}

impl Decode for CondValue {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => CondValue::Path(dec.get()?),
            1 => CondValue::Const(dec.get()?),
            2 => CondValue::Param(dec.get()?),
            3 => CondValue::Count(dec.get()?),
            t => return Err(bad(&format!("unknown cond-value tag {t}"))),
        })
    }
}

impl Encode for Condition {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Condition::True => {
                enc.u8(0);
            }
            Condition::Cmp { left, op, right } => {
                enc.u8(1);
                enc.put(left);
                enc.tag(*op);
                enc.put(right);
            }
            Condition::Exists(p) => {
                enc.u8(2);
                enc.put(p);
            }
            Condition::And(a, b) => {
                enc.u8(3);
                enc.put(a);
                enc.put(b);
            }
            Condition::Or(a, b) => {
                enc.u8(4);
                enc.put(a);
                enc.put(b);
            }
            Condition::Not(a) => {
                enc.u8(5);
                enc.put(a);
            }
        }
    }
}

impl Decode for Condition {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => Condition::True,
            1 => Condition::Cmp {
                left: dec.get()?,
                op: dec.tag()?,
                right: dec.get()?,
            },
            2 => Condition::Exists(dec.get()?),
            3 => Condition::And(dec.get()?, dec.get()?),
            4 => Condition::Or(dec.get()?, dec.get()?),
            5 => Condition::Not(dec.get()?),
            t => return Err(bad(&format!("unknown condition tag {t}"))),
        })
    }
}

impl Encode for ActionParam {
    fn encode(&self, enc: &mut Enc) {
        match self {
            ActionParam::OldNode => enc.u8(0),
            ActionParam::NewNode => enc.u8(1),
            ActionParam::Const(v) => {
                enc.u8(2);
                enc.put(v);
            }
        }
    }
}

impl Decode for ActionParam {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => ActionParam::OldNode,
            1 => ActionParam::NewNode,
            2 => ActionParam::Const(dec.get()?),
            t => return Err(bad(&format!("unknown action-param tag {t}"))),
        })
    }
}

impl Encode for SourceEvent {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.table);
        enc.tag(self.event);
        enc.put(&self.relevant_cols);
    }
}

impl Decode for SourceEvent {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(SourceEvent {
            table: dec.get()?,
            event: dec.tag()?,
            relevant_cols: dec.get()?,
        })
    }
}

impl Encode for AffectedLayout {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.key_len);
        enc.put(&self.old_node);
        enc.put(&self.new_node);
        enc.put(&self.old_attrs);
        enc.put(&self.new_attrs);
    }
}

impl Decode for AffectedLayout {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(AffectedLayout {
            key_len: dec.get()?,
            old_node: dec.get()?,
            new_node: dec.get()?,
            old_attrs: dec.get()?,
            new_attrs: dec.get()?,
        })
    }
}

impl Encode for AffectedNodePlan {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.plan);
        enc.put(&self.layout);
    }
}

impl Decode for AffectedNodePlan {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(AffectedNodePlan {
            plan: dec.get()?,
            layout: dec.get()?,
        })
    }
}

// ---------------------------------------------------------------------
// Views, groups, registries
// ---------------------------------------------------------------------

/// Decoding needs the database (see `decode_core`), so views only encode.
impl Encode for PathGraph {
    fn encode(&self, enc: &mut Enc) {
        encode_graph(enc, &self.kg.graph, self.root);
        enc.put(&self.node_col);
        enc.put(&self.attr_cols);
    }
}

impl Encode for XmlView {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.name);
        enc.put(&self.anchors);
    }
}

impl Encode for Member {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.trigger);
        enc.put(&self.function);
        enc.put(&self.params);
    }
}

impl Decode for Member {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(Member {
            trigger: dec.get()?,
            function: dec.get()?,
            params: dec.get()?,
        })
    }
}

impl Encode for SqlTriggerMeta {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.name);
        enc.put(&self.table);
        enc.tag(self.event);
        enc.put(&self.plan);
        enc.put(&self.plan_ref);
        enc.put(&self.residual);
        enc.put(&self.src);
    }
}

impl Decode for SqlTriggerMeta {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        let t = SqlTriggerMeta {
            name: dec.get()?,
            table: dec.get()?,
            event: dec.tag()?,
            plan: dec.get()?,
            plan_ref: dec.get()?,
            residual: dec.get()?,
            src: dec.get()?,
        };
        // Verify the decoded plan against its persisted rendering: a codec
        // drift (or corruption past the storage CRCs) must fail recovery,
        // not fire a silently different plan.
        if t.plan_ref.explain() != t.plan {
            return Err(bad(&format!(
                "re-armed plan for SQL trigger `{}` does not match its persisted rendering",
                t.name
            )));
        }
        Ok(t)
    }
}

impl Group {
    /// Constants arity: every set of a group has the same width (the
    /// group signature fixes the condition shape).
    fn n_consts(&self) -> usize {
        self.sets.keys().next().map_or(0, |k| k.len())
    }
}

impl Encode for Group {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.signature);
        enc.put(&self.constants_table);
        enc.put(&self.n_consts());
        let mut sets: Vec<(i64, &Vec<Value>)> = self.sets.iter().map(|(k, &id)| (id, k)).collect();
        sets.sort_by_key(|&(id, _)| id);
        enc.put(&sets);
        enc.put(&self.next_set);
        enc.put(&*self.members.lock().expect("members"));
        enc.put(&self.sql_triggers);
        enc.put(&self.footprint);
        enc.put(&self.trigger_count);
        enc.put(&self.cache_key);
    }
}

impl Decode for Group {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        let signature = dec.get()?;
        let constants_table = dec.get()?;
        let n_consts: usize = dec.get()?;
        let by_id: Vec<(i64, Vec<Value>)> = dec.get()?;
        let ordered = by_id.windows(2).all(|pair| pair[0].0 < pair[1].0);
        let sets: HashMap<Vec<Value>, i64> = by_id.into_iter().map(|(id, k)| (k, id)).collect();
        let group = Group {
            signature,
            constants_table,
            sets,
            next_set: dec.get()?,
            members: Arc::new(Mutex::new(dec.get()?)),
            sql_triggers: dec.get()?,
            footprint: dec.get()?,
            trigger_count: dec.get()?,
            cache_key: dec.get()?,
        };
        if !ordered || group.n_consts() != n_consts {
            return Err(bad("constants sets out of order or of the wrong width"));
        }
        Ok(group)
    }
}

impl Encode for TriggerRecord {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.group_signature);
        enc.put(&self.set_id);
    }
}

impl Decode for TriggerRecord {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(TriggerRecord {
            group_signature: dec.get()?,
            set_id: dec.get()?,
        })
    }
}

impl Encode for CacheEntry {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.refs);
        enc.put(&self.plans);
    }
}

impl Decode for CacheEntry {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(CacheEntry {
            refs: dec.get()?,
            plans: dec.get()?,
        })
    }
}

/// The values of a registry keyed by its values' own names, in name order
/// (the name is written once, as the value's first field).
fn by_name<T>(registry: &HashMap<String, T>) -> Vec<&T> {
    let mut entries: Vec<(&String, &T)> = registry.iter().collect();
    entries.sort_by_key(|&(name, _)| name);
    entries.into_iter().map(|(_, value)| value).collect()
}

/// The inverse of [`by_name`]: names must ascend strictly.
fn keyed<T>(values: Vec<T>, name: impl Fn(&T) -> &String) -> Result<Arc<HashMap<String, T>>> {
    if !values
        .windows(2)
        .all(|pair| name(&pair[0]) < name(&pair[1]))
    {
        return Err(bad("registry names out of order"));
    }
    let entries = values.into_iter().map(|v| (name(&v).clone(), v));
    Ok(Arc::new(entries.collect()))
}

// ---------------------------------------------------------------------
// The blob
// ---------------------------------------------------------------------

/// Serialize the view/trigger layer of `q` (everything [`Quark`] holds
/// beyond the relational database, minus the action closures).
pub(crate) fn encode_core(q: &Quark) -> Result<Vec<u8>> {
    let mut enc = Enc::new();
    enc.u8(VERSION);
    enc.tag(q.mode);
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
    enc.put(&by_name(&q.views));
    enc.put(&by_name(&q.groups));
    enc.put(&*q.triggers);
    enc.put(&*q.compile_cache);
    enc.into_bytes()
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
    q.mode = dec.tag()?;
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

    let db = &q.db;
    let views = dec.seq(|dec, _| {
        let name: String = dec.get()?;
        let anchors = dec.seq(|dec, _| {
            let anchor: String = dec.get()?;
            let (graph, root) = decode_graph(dec)?;
            // Persisted graphs are already normalized, so re-deriving keys
            // is idempotent: no columns are appended and the persisted
            // node/attr column indices stay valid.
            let (kg, root) = quark_xqgm::KeyedGraph::normalize(&graph, root, db)?;
            let path = PathGraph {
                kg,
                root,
                node_col: dec.get()?,
                attr_cols: dec.get()?,
            };
            Ok((anchor, path))
        })?;
        if !anchors.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            return Err(bad("view anchors out of order"));
        }
        let anchors = anchors.into_iter().collect();
        Ok(XmlView { name, anchors })
    })?;
    q.views = keyed(views, |v| &v.name)?;
    q.groups = keyed(dec.get()?, |g: &Group| &g.signature)?;
    q.triggers = Arc::new(dec.get()?);
    q.compile_cache = Arc::new(dec.get()?);
    dec.finish()?;

    // Re-arm: rebuild each handler from its persisted ingredients and
    // install it on the recovered database — no translation runs.
    for g in by_name(&q.groups) {
        for t in &g.sql_triggers {
            let body = q.make_handler(
                Arc::clone(&t.plan_ref),
                t.residual.clone(),
                t.src.clone(),
                Arc::clone(&g.members),
                g.n_consts(),
            );
            q.db.create_trigger(SqlTrigger {
                name: t.name.clone(),
                table: t.table.clone(),
                event: t.event,
                body,
            })?;
        }
    }

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
        // The blob also carries the compiled plans, so a change to what the
        // translator emits moves this golden without a format change: a
        // blob written by an earlier translator still decodes, and its
        // plans run and fire as they did.
        assert_eq!(
            (blob_a.len(), quark_storage::crc::crc32(&blob_a)),
            (33_609, 0x9ac8_276c),
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

    /// View and anchor counts larger than the bytes left are refused by
    /// `Dec::seq` before anything is reserved.
    #[test]
    fn oversized_counts_are_refused_before_reserving() {
        let q = demo();
        let blob = encode_core(&q).unwrap();
        // version, mode, four option flags, three 8-byte counters, one flag.
        let views = 1 + 1 + 4 + 3 * 8 + 1;
        let anchors = views + 4 + 4 + "catalog".len();
        for count in [views, anchors] {
            let mut blob = blob.clone();
            blob[count..count + 4].fill(0xFF);
            let mut q2 = Quark::new(q.database().clone(), Mode::Grouped);
            let err = decode_core(&mut q2, &blob).unwrap_err();
            assert!(err.to_string().contains("sequence of 4294967295 items"));
        }
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
