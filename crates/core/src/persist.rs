//! Core-blob serialization: the view/trigger layer of a [`Quark`] system,
//! persisted into the storage catalog at every checkpoint and decoded by
//! [`Quark::open`] on restart. The byte format is the [`Encode`]/[`Decode`]
//! impls below, over the one codec in [`quark_relational::wire`] (its
//! module docs state the rules every format follows).
//!
//! What the blob holds: the mode, every registered view (anchor path
//! graphs via [`quark_xqgm::wire`]) and every trigger group — signature,
//! constants-table name, action parameters, next set id, member lists (set
//! id → trigger and function names), SQL triggers with their compiled
//! plans, footprint. Each fact is written once: a set's constants are its
//! constants-table row (in the table's image), and the XML-trigger index is
//! rebuilt from the member lists ([`trigger_index`]). Action **functions**
//! are closures and must be re-registered after reopening (handlers
//! resolve actions by name at firing time).
//!
//! Decoding **re-arms** each group: the SQL-trigger handlers are rebuilt
//! from their persisted plan and source event and
//! installed on the recovered database through the same function
//! `CREATE TRIGGER` installs a new group with, so a warm restart performs
//! zero delta-graph translations ([`Quark::translations`] stays 0). Each
//! decoded plan is verified against its persisted `EXPLAIN` rendering —
//! a codec drift or corruption that slipped past the storage CRCs fails
//! recovery instead of firing a silently wrong plan.
//!
//! Every map is written in key order, so equal systems produce byte-equal
//! blobs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use quark_relational::wire::{Dec, Decode, Enc, Encode, WireTag};
use quark_relational::{Error, Result, Value};
use quark_xqgm::wire::{decode_graph, encode_graph};

use crate::events::SourceEvent;
use crate::session::ObjectKind;
use crate::spec::{ActionParam, PathGraph, XmlView};

use super::{Group, Member, Mode, Quark, SqlTriggerMeta, TriggerRecord};

/// Blob format version; bumped on any layout change. A blob of any other
/// version is refused by name: no reader of an older layout is kept.
const VERSION: u8 = 5;

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
// Action parameters, source events
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Views, groups, registries
// ---------------------------------------------------------------------

/// Decoding needs the database (see `decode_core`), so views only encode.
impl Encode for PathGraph {
    fn encode(&self, enc: &mut Enc) {
        encode_graph(enc, &self.graph, self.root);
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
    }
}

impl Decode for Member {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(Member {
            trigger: dec.get()?,
            function: dec.get()?,
        })
    }
}

impl Encode for SqlTriggerMeta {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.name);
        enc.put(&self.plan);
        enc.put(&self.plan_ref);
        enc.put(&self.src);
    }
}

impl Decode for SqlTriggerMeta {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        let t = SqlTriggerMeta {
            name: dec.get()?,
            plan: dec.get()?,
            plan_ref: dec.get()?,
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

impl Encode for Group {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.signature);
        enc.put(&self.constants_table);
        enc.put(&self.params);
        enc.put(&self.next_set);
        enc.put(&*self.members.lock().expect("members"));
        enc.put(&self.sql_triggers);
        enc.put(&self.footprint);
    }
}

impl Decode for Group {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(Group {
            signature: dec.get()?,
            constants_table: dec.get()?,
            params: dec.get()?,
            next_set: dec.get()?,
            members: Arc::new(Mutex::new(dec.get()?)),
            sql_triggers: dec.get()?,
            footprint: dec.get()?,
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

/// The XML-trigger index of `q`'s decoded groups, checked against the
/// recovered constants tables: each trigger is a member once, of a set
/// that has a constants row (set 0 in a group without a constants table)
/// and lies below its group's next set id.
fn trigger_index(q: &Quark) -> Result<HashMap<String, TriggerRecord>> {
    let mut index = HashMap::new();
    for g in q.groups.values() {
        let constants = (g.constants_table.as_deref())
            .map(|ct| q.db.table(ct))
            .transpose()?;
        for (&set_id, list) in g.members.lock().expect("members").iter() {
            let has_row = (constants.as_ref())
                .map_or(set_id == 0, |t| t.get(&[Value::Int(set_id)]).is_some());
            let fault = [
                (!has_row, "has no constants row"),
                (list.is_empty(), "has no member"),
                (set_id >= g.next_set, "is not below the next set id"),
            ];
            if let Some((_, fault)) = fault.into_iter().find(|f| f.0) {
                return Err(bad(&format!("set {set_id} {fault}")));
            }
            for m in list {
                let record = TriggerRecord {
                    group_signature: g.signature.clone(),
                    set_id,
                };
                if index.insert(m.trigger.clone(), record).is_some() {
                    return Err(bad(&format!("trigger `{}` is a member twice", m.trigger)));
                }
            }
        }
    }
    Ok(index)
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
    enc.u64(q.group_counter as u64);
    enc.put(&by_name(&q.views));
    enc.put(&by_name(&q.groups));
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
    q.group_counter = dec.u64()? as usize;

    let db = &q.db;
    let views = dec.seq(|dec, _| {
        let name: String = dec.get()?;
        let anchors = dec.seq(|dec, _| {
            let anchor: String = dec.get()?;
            let (graph, root) = decode_graph(dec)?;
            // Persisted graphs are already normalized, so normalizing
            // again appends no columns and the persisted node/attr column
            // indices stay valid; it runs as validation, refusing what a
            // damaged catalog can hold (a column an input lacks, Union
            // branches of different widths, an Unnest). Keys are derived
            // from the graph, not persisted.
            let (graph, root) = quark_xqgm::normalize(&graph, root, db)?;
            let path = PathGraph {
                graph,
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
    dec.finish()?;
    q.triggers = Arc::new(trigger_index(q)?);

    // Re-arm: rebuild each handler from its persisted ingredients and
    // install it on the recovered database — no translation runs.
    for g in by_name(&q.groups) {
        super::translate::install(&mut q.db, &q.actions, g)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Condition, NodePath, NodeRef};
    use crate::spec::{Action, TriggerSpec, XmlEvent};
    use quark_relational::expr::{BinOp, Expr};
    use quark_relational::Database;

    fn catalog_path(db: &Database) -> PathGraph {
        let mut g = quark_xqgm::Graph::new();
        let (top, _) = quark_xqgm::fixtures::catalog_path_graph(&mut g);
        let (graph, root) = quark_xqgm::normalize(&g, top, db).expect("normalize");
        let mut attr_cols = HashMap::new();
        attr_cols.insert("name".to_string(), 0);
        PathGraph {
            graph,
            root,
            node_col: 1,
            attr_cols,
        }
    }

    /// Trigger `name` of the demo group: `NEW_NODE/@name = product`,
    /// calling `notify(NEW_NODE)`.
    fn watch(name: &str, product: &str) -> TriggerSpec {
        TriggerSpec {
            name: name.into(),
            event: XmlEvent::Update,
            view: "catalog".into(),
            anchor: "product".into(),
            condition: Condition::cmp(NodePath::attr(NodeRef::New, "name"), BinOp::Eq, product),
            action: Action {
                function: "notify".into(),
                params: vec![ActionParam::NewNode],
            },
        }
    }

    /// A grouped system with two triggers in one group (two constants
    /// sets) — exercises views, constants tables, members and sql
    /// triggers.
    fn demo() -> Quark {
        let db = quark_xqgm::fixtures::product_vendor_db();
        let pg = catalog_path(&db);
        let mut q = Quark::new(db, Mode::Grouped);
        q.register_view(XmlView::new("catalog").with_anchor("product", pg));
        q.register_action("notify", |_, _| Ok(())).unwrap();
        for (i, product) in ["P1", "P2"].iter().enumerate() {
            q.create_trigger(watch(&format!("t{i}"), product)).unwrap();
        }
        q
    }

    /// Simulate recovery: clone the database (keeping base + constants
    /// tables), strip its triggers, and decode the blob into a fresh
    /// system seeded with the *wrong* mode.
    fn try_reopen(q: &Quark, blob: &[u8]) -> Result<Quark> {
        let mut db = q.database().clone();
        let names: Vec<String> = db.triggers().map(|t| t.name.clone()).collect();
        for name in names {
            db.drop_trigger(&name).unwrap();
        }
        let mut q2 = Quark::new(db, Mode::Ungrouped);
        decode_core(&mut q2, blob)?;
        Ok(q2)
    }

    fn reopen(q: &Quark, blob: &[u8]) -> Quark {
        try_reopen(q, blob).unwrap()
    }

    /// The demo's one group.
    fn group(q: &mut Quark) -> &mut Group {
        let groups = Arc::make_mut(&mut q.groups);
        groups.values_mut().next().expect("one group")
    }

    #[test]
    fn core_blob_round_trips_and_rearms() {
        let q = demo();
        let blob = encode_core(&q).unwrap();
        let q2 = reopen(&q, &blob);
        // Persisted mode wins over the open-time seed.
        assert_eq!(q2.mode(), Mode::Grouped);
        assert_eq!(q2.xml_trigger_count(), 2);
        assert_eq!(q2.group_count(), 1);
        assert_eq!(q2.sql_trigger_count(), q.sql_trigger_count());
        assert_eq!(q2.translations(), 0, "re-arming must not translate");
        // The re-armed artifacts render identically.
        assert_eq!(
            q.explain_trigger("t0").unwrap(),
            q2.explain_trigger("t0").unwrap()
        );
        // A third structurally similar trigger joins the recovered group
        // without translation (fast path still works after decode).
        let mut q2 = q2;
        q2.create_trigger(watch("t3", "P3")).unwrap();
        assert_eq!(q2.group_count(), 1);
        assert_eq!(q2.translations(), 0);
    }

    /// A trigger joining an existing group adds its set id, its trigger
    /// name and its function name to the blob, and no copy of the
    /// signature, the action parameters or the constants: those live once,
    /// in the group and in the constants table.
    #[test]
    fn a_joining_trigger_adds_only_its_names_and_set() {
        let mut q = demo();
        let before = encode_core(&q).unwrap().len();
        q.create_trigger(watch("t2", "Zenith 99")).unwrap();
        let blob = encode_core(&q).unwrap();
        let name = |s: &str| 4 + s.len();
        // A new set: its id, its list's count, then the member.
        let new_set = 8 + 4 + name("t2") + name("notify");
        assert_eq!(blob.len(), before + new_set);
        assert!(!blob.windows(9).any(|w| w == b"Zenith 99"));

        // A trigger in an existing set adds the member alone.
        q.create_trigger(watch("t22", "Zenith 99")).unwrap();
        let shared = encode_core(&q).unwrap().len();
        assert_eq!(shared, blob.len() + name("t22") + name("notify"));
        assert_eq!(q.constants_row_count(), 3);
        let q2 = reopen(&q, &encode_core(&q).unwrap());
        assert_eq!(q2.xml_trigger_count(), 4);
        assert_eq!(
            q.explain_trigger("t22").unwrap(),
            q2.explain_trigger("t22").unwrap()
        );
    }

    /// The trigger index is rebuilt from the member lists, so a blob whose
    /// lists name a trigger twice, or put a member in a set with no
    /// constants row or at or above the next set id, is refused.
    #[test]
    fn member_lists_that_break_the_index_are_refused() {
        let refused = |tamper: &dyn Fn(&mut Quark)| {
            let mut q = demo();
            tamper(&mut q);
            let blob = encode_core(&q).unwrap();
            let err = try_reopen(&q, &blob).err().expect("refused");
            err.to_string()
        };
        let member = |trigger: &str| Member {
            trigger: trigger.into(),
            function: "notify".into(),
        };
        let twice = refused(&|q| {
            let members = Arc::clone(&group(q).members);
            members
                .lock()
                .unwrap()
                .get_mut(&1)
                .unwrap()
                .push(member("t0"));
        });
        assert!(twice.contains("trigger `t0` is a member twice"), "{twice}");
        let no_row = refused(&|q| {
            let ct = group(q).constants_table.clone().unwrap();
            let set_1 = Expr::eq(Expr::col(0), Expr::lit(1i64));
            q.database().unload_where(&ct, &set_1).unwrap();
        });
        assert!(no_row.contains("set 1 has no constants row"), "{no_row}");
        let at_next = refused(&|q| group(q).next_set = 1);
        assert!(
            at_next.contains("set 1 is not below the next set id"),
            "{at_next}"
        );
        let empty = refused(&|q| {
            let members = Arc::clone(&group(q).members);
            members.lock().unwrap().get_mut(&1).unwrap().clear();
        });
        assert!(empty.contains("set 1 has no member"), "{empty}");
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
            (27_128, 0xb171_1c0c),
            "core blob bytes changed"
        );
    }

    /// Any version byte but [`VERSION`] is refused by name: 1 to 4, the
    /// retired layouts, included (4 still carried an optional condition
    /// beside each SQL trigger's plan).
    #[test]
    fn unknown_version_is_rejected() {
        let q = demo();
        let mut db = q.database().clone();
        let names: Vec<String> = db.triggers().map(|t| t.name.clone()).collect();
        for name in names {
            db.drop_trigger(&name).unwrap();
        }
        for version in [1, 2, 3, 4, 99] {
            let mut blob = encode_core(&q).unwrap();
            blob[0] = version;
            let mut q2 = Quark::new(db.clone(), Mode::Grouped);
            let err = decode_core(&mut q2, &blob).unwrap_err();
            let expected = format!("unsupported core-blob version {version}");
            assert!(err.to_string().contains(&expected), "{err}");
        }
    }

    /// View and anchor counts larger than the bytes left are refused by
    /// `Dec::seq` before anything is reserved.
    #[test]
    fn oversized_counts_are_refused_before_reserving() {
        let q = demo();
        let blob = encode_core(&q).unwrap();
        // version, mode, the 8-byte group counter.
        let views = 1 + 1 + 8;
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
