//! The Quark active-system façade (§3.2, Figure 6).
//!
//! `Quark` owns the relational database, the registered XML views, the
//! action-function registry, and the trigger groups: registration,
//! creation and drop of triggers, `EXPLAIN TRIGGER`, `MATERIALIZE`, and the
//! latch footprints of write statements. Creating an XML trigger runs the
//! translation pipeline of the private `translate` child module:
//!
//! ```text
//! parse → compose path → event pushdown → affected-node graph generation
//!       → trigger grouping → trigger pushdown → SQL triggers
//! ```
//!
//! and commits its result here. In the two grouped modes, a trigger that
//! is structurally similar to an existing group (§5.1) skips translation
//! entirely: it only inserts its constants into the group's *constants
//! table* — which is why trigger creation cost amortizes and why firing
//! cost is independent of the number of XML triggers (Fig. 17). Grouping
//! is the only sharing: every new group, and in UNGROUPED mode every
//! trigger, is translated from its view.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use quark_relational::expr::Expr;
use quark_relational::plan::PlanRef;
use quark_relational::{Database, Error, Result, Value};

use crate::events::SourceEvent;
use crate::spec::{ActionParam, PathGraph, TriggerSpec, XmlView};

/// The translation pipeline (Figs. 12, 14–16; §5.1–5.2). A child module so
/// it can build this module's private group structures.
#[path = "translate.rs"]
mod translate;

/// Serialization of the view/trigger layer (the storage catalog's "core
/// blob"). A child module so it can reach this module's private group
/// structures.
#[path = "persist.rs"]
pub(crate) mod persist;

/// Static analysis over the installed trigger program (`ANALYZE
/// TRIGGERS`). A child module so it can walk the private group registry.
#[path = "analysis.rs"]
pub mod analysis;

/// Translation strategy (the three systems compared in §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One set of SQL triggers per XML trigger (no sharing).
    Ungrouped,
    /// Constants-table grouping (§5.1).
    Grouped,
    /// Grouping plus old-aggregate compensation (§5.2).
    GroupedAgg,
}

/// An action invocation delivered to a registered action function.
#[derive(Debug, Clone)]
pub struct ActionCall {
    /// Name of the XML trigger that fired.
    pub trigger: String,
    /// Parameter values (bound `OLD_NODE`/`NEW_NODE`/constants).
    pub params: Vec<Value>,
}

/// A registered action function. Takes `&Database`: actions run inside a
/// trigger cascade, where the session layer holds per-table latches rather
/// than exclusive access (every data-change entry point of [`Database`] is
/// interior-mutable).
pub type ActionFn = Arc<dyn Fn(&Database, &ActionCall) -> Result<()> + Send + Sync>;

/// A registered action plus its declared write set.
#[derive(Clone)]
struct ActionEntry {
    f: ActionFn,
    /// Tables the action may write: empty for [`Quark::register_action`],
    /// the declared set for [`Quark::register_action_with_writes`]. The
    /// footprint of a write that can reach the action latches them
    /// exclusive, and a write outside them fails its statement.
    writes: BTreeSet<String>,
}

type ActionRegistry = Arc<Mutex<HashMap<String, ActionEntry>>>;

/// The tables whose statement latches a write statement holds from
/// admission to commit: its target table plus every table read or
/// written by the trigger groups its cascade can reach
/// ([`Quark::write_footprint`]), partitioned by latch mode. Admission
/// ([`Database::latch`]) takes them one table at a time, in name order,
/// which keeps concurrent writers deadlock-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// A statically bounded footprint. `write` holds every table the
    /// statement or its cascade can mutate (the DML target plus declared
    /// action write sets, chased transitively) — latched exclusive.
    /// `read` holds tables the cascade only scans while firing (view
    /// sources, constants tables, join build sides) — latched shared, so
    /// writers whose footprints overlap solely on read tables still run
    /// in parallel. The two sets are disjoint: a table both scanned and
    /// mutated is in `write`.
    Tables {
        /// Tables the statement or its cascade can mutate — latched
        /// exclusive.
        write: BTreeSet<String>,
        /// Tables the cascade only scans while firing — latched shared.
        read: BTreeSet<String>,
    },
    /// Not statically boundable: a raw SQL trigger — one installed on the
    /// database directly, not generated for a trigger group — is
    /// reachable, and its body may touch any table, so the session latches
    /// every table of the database exclusive for the write.
    Global,
}

/// Per-trigger bookkeeping shared with SQL-trigger handlers.
struct Member {
    trigger: String,
    function: String,
}

/// Constants set id → its member triggers, in creation order.
type Members = Arc<Mutex<HashMap<i64, Vec<Member>>>>;

/// A trigger group (§5.1). A set's constants are its row of the constants
/// table (primary key `set_id`, every `c{i}` column indexed); a group
/// without a constants table has one set, 0.
#[derive(Clone)]
struct Group {
    signature: String,
    constants_table: Option<String>,
    /// The action's parameters, taken from the group's first trigger: the
    /// signature fixes the action's shape, so every member has these.
    params: Vec<ActionParam>,
    members: Members,
    next_set: i64,
    sql_triggers: Vec<SqlTriggerMeta>,
    /// Every base table the group's compiled plans read or write —
    /// transitively through shared subplans — plus the constants table.
    /// Recorded at translation time; the session's footprint analysis
    /// unions it into any write statement that can fire this group.
    footprint: BTreeSet<String>,
}

impl Group {
    /// Union of the member actions' declared write sets. An unregistered
    /// action adds nothing: a firing that reaches it fails its statement,
    /// and registering it is a global write, which drops every memoized
    /// footprint. Distinct action names first: a group's 10 000 members
    /// mostly share one action, which then costs one registry lookup and
    /// one set union.
    fn declared_writes(&self, actions: &HashMap<String, ActionEntry>) -> BTreeSet<String> {
        let members = self.members.lock().expect("members");
        let functions: BTreeSet<&str> = members
            .values()
            .flatten()
            .map(|m| m.function.as_str())
            .collect();
        functions
            .into_iter()
            .filter_map(|function| actions.get(function))
            .flat_map(|entry| entry.writes.iter().cloned())
            .collect()
    }
}

/// Where an XML trigger is: its group and constants set. Not persisted:
/// an open rebuilds it from the groups' member lists.
#[derive(Clone)]
struct TriggerRecord {
    group_signature: String,
    set_id: i64,
}

/// One SQL trigger generated for a group, with its compiled plan rendered
/// for `EXPLAIN TRIGGER` and the handler ingredients kept for persistence:
/// re-arming a recovered group rebuilds each handler from `plan_ref` and
/// `src` without re-running translation. `src` names the table and event
/// the trigger is installed on.
#[derive(Clone)]
struct SqlTriggerMeta {
    name: String,
    plan: String,
    plan_ref: PlanRef,
    src: SourceEvent,
}

/// The active XML-view system.
///
/// The relational database is private: statement execution goes through
/// [`Session::execute`](crate::session::Session::execute), with
/// [`Quark::database`] for inspection.
///
/// `Clone` produces a consistent copy of the whole system — tables,
/// trigger registrations, views and groups (plans are `Arc`-shared, so the
/// copy is shallow where it can be: a catalog cell per table, no row). The
/// session layer clones it to publish a read snapshot, and a latched
/// commit clones the published one only while a reader holds it. The
/// action registry and group membership tables are reference-shared with
/// the original (they are behind `Arc<Mutex<…>>` already); a clone used
/// purely for reading never touches them mutably.
#[derive(Clone)]
pub struct Quark {
    db: Database,
    /// The registries below are `Arc`-shared copy-on-write (mutated via
    /// `Arc::make_mut` under the session's global exclusive mode), so a
    /// `Quark::clone` — a published snapshot, or a commit folding around a
    /// held one — costs a refcount bump per registry, not a deep copy.
    views: Arc<HashMap<String, XmlView>>,
    actions: ActionRegistry,
    groups: Arc<HashMap<String, Group>>,
    triggers: Arc<HashMap<String, TriggerRecord>>,
    mode: Mode,
    group_counter: usize,
    /// Groups translated since this system was created or opened: one per
    /// new group. Warm restarts assert this stays zero: every group is
    /// re-armed from its persisted rendering, never re-translated.
    translations: u64,
    /// Durable-storage engine, attached by [`Quark::open`]. `None` for an
    /// in-memory system. `Arc`-shared so read snapshots (`Quark::clone`)
    /// observe the same counters.
    storage: Option<Arc<quark_storage::StorageEngine>>,
}

impl Quark {
    /// Create a system over a database, with the given translation mode:
    /// the one translation setting. It decides whether triggers share
    /// groups (§5.1) and whether old aggregates are compensated (§5.2);
    /// every other optimization applies wherever the view and the
    /// trigger's needs allow.
    pub fn new(db: Database, mode: Mode) -> Self {
        Quark {
            db,
            views: Arc::new(HashMap::new()),
            actions: Arc::new(Mutex::new(HashMap::new())),
            groups: Arc::new(HashMap::new()),
            triggers: Arc::new(HashMap::new()),
            mode,
            group_counter: 0,
            translations: 0,
            storage: None,
        }
    }

    /// Open (or create) a durable system rooted at directory `path`.
    ///
    /// A fresh directory starts an empty system with durability attached;
    /// an existing one is recovered to its last committed statement
    /// boundary: base tables are rebuilt from the checkpointed table images,
    /// the committed WAL tail is applied on top one statement at a time, so
    /// the log is never held in memory (torn or corrupt trailing records are
    /// discarded), and every registered view and trigger group is re-armed
    /// from its persisted rendering — no view is re-translated (see
    /// [`Quark::translations`]). A replayed log is then folded into a
    /// checkpoint, so the next open replays nothing.
    ///
    /// Action *functions* are closures and cannot be persisted; re-register
    /// them after opening ([`Quark::register_action`]). Triggers fire lazily
    /// — an action is resolved by name at firing time — so registration
    /// order does not matter as long as it precedes the first firing.
    ///
    /// For an existing database the persisted translation mode is
    /// authoritative: `mode` only seeds a fresh one, and a trigger created
    /// after the open translates under the persisted mode.
    ///
    /// Durability is fsync-on-commit ([`quark_storage::SyncMode::Always`]);
    /// use [`Quark::open_with`] to trade that for speed in tests.
    pub fn open(path: impl AsRef<std::path::Path>, mode: Mode) -> Result<Self> {
        Quark::open_with(path, mode, quark_storage::SyncMode::Always)
    }

    /// [`Quark::open`] with an explicit WAL sync mode.
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        mode: Mode,
        sync: quark_storage::SyncMode,
    ) -> Result<Self> {
        let start = std::time::Instant::now();
        // The storage engine rebuilds the relational layer: checkpointed
        // tables, then the committed WAL tail on top.
        let (engine, (db, core_blob)) = quark_storage::StorageEngine::open(path.as_ref(), sync)?;

        // Rebuild the view/trigger layer from the persisted core blob.
        let fresh = core_blob.is_none();
        let mut quark = Quark::new(db, mode);
        if let Some(blob) = core_blob {
            persist::decode_core(&mut quark, &blob)?;
        }

        // Fold a replayed WAL tail (or a fresh directory) into a checkpoint
        // immediately, so reopening is idempotent and the log stays short.
        let replayed = engine.replayed_frames() > 0;
        quark.storage = Some(Arc::new(engine));
        if fresh || replayed {
            quark.checkpoint()?;
        }
        quark
            .storage
            .as_ref()
            .expect("attached above")
            .set_recovery_ms(start.elapsed().as_millis() as u64);
        Ok(quark)
    }

    /// The attached durable-storage engine, if any.
    pub fn storage(&self) -> Option<&Arc<quark_storage::StorageEngine>> {
        self.storage.as_ref()
    }

    /// Checkpoint the durable store (no-op without one): every table is
    /// written to its image file, the full view/trigger state is serialized
    /// into the catalog, and the WAL is truncated. The caller
    /// must be at a statement boundary (the session layer checkpoints at
    /// global commits, and once the log reaches
    /// [`CHECKPOINT_LOG_BYTES`](crate::session::CHECKPOINT_LOG_BYTES)).
    pub fn checkpoint(&self) -> Result<()> {
        let Some(engine) = &self.storage else {
            return Ok(());
        };
        let blob = persist::encode_core(self)?;
        engine.checkpoint(&self.db, blob)
    }

    /// Shared view of the underlying relational database (inspection,
    /// oracle baselines). Data changes should go through the statement
    /// surface — [`Session::execute`](crate::session::Session::execute).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database (the session's commit
    /// fold, DDL and `DatabaseWrite`).
    pub(crate) fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// A copy of the system whose database refuses every data change
    /// ([`Database::read_only_clone`]): what the session publishes.
    pub(crate) fn read_only_clone(&self) -> Quark {
        Quark {
            db: self.db.read_only_clone(),
            views: Arc::clone(&self.views),
            actions: Arc::clone(&self.actions),
            groups: Arc::clone(&self.groups),
            triggers: Arc::clone(&self.triggers),
            storage: self.storage.clone(),
            ..*self
        }
    }

    /// Tear down the system, keeping the database (baselines that strip
    /// the translated triggers and install their own).
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Translation mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Register an XML view (its anchors become monitorable paths).
    pub fn register_view(&mut self, view: XmlView) {
        Arc::make_mut(&mut self.views).insert(view.name.clone(), view);
    }

    /// Look up a registered view.
    pub fn view(&self, name: &str) -> Option<&XmlView> {
        self.views.get(name)
    }

    /// The path graph of `view('view')/anchor`.
    fn anchor(&self, view: &str, anchor: &str) -> Result<&PathGraph> {
        self.views
            .get(view)
            .ok_or_else(|| Error::Plan(format!("unknown view `{view}`")))?
            .anchors
            .get(anchor)
            .ok_or_else(|| Error::Plan(format!("view `{view}` has no element `{anchor}`")))
    }

    /// Register an action function callable from trigger DO clauses. The
    /// action writes no table: it is [`Quark::register_action_with_writes`]
    /// with an empty write set, so a write whose cascade can reach it keeps
    /// a bounded [`Footprint`], and a table write from its body fails the
    /// statement that fired it with `Error::OutsideFootprint`.
    pub fn register_action(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&Database, &ActionCall) -> Result<()> + Send + Sync + 'static,
    ) -> Result<()> {
        self.register_action_with_writes(name, [] as [&str; 0], f)
    }

    /// Register an action that declares the tables it may write. A write
    /// whose cascade can reach the action latches them exclusive, on top
    /// of its own [`Footprint`]. The declaration is enforced: a write
    /// outside it is refused with `Error::OutsideFootprint`, which fails
    /// and undoes the statement that fired the action. Duplicate
    /// registrations are rejected with [`Error::ActionExists`] (silently
    /// replacing a closure that installed triggers still reference would
    /// change their behavior behind their back).
    pub fn register_action_with_writes(
        &mut self,
        name: impl Into<String>,
        writes: impl IntoIterator<Item = impl Into<String>>,
        f: impl Fn(&Database, &ActionCall) -> Result<()> + Send + Sync + 'static,
    ) -> Result<()> {
        let name = name.into();
        let mut registry = self.actions.lock().expect("action registry");
        if registry.contains_key(&name) {
            return Err(Error::ActionExists(name));
        }
        let writes = writes.into_iter().map(Into::into).collect();
        registry.insert(
            name,
            ActionEntry {
                f: Arc::new(f),
                writes,
            },
        );
        Ok(())
    }

    /// Number of XML triggers registered.
    pub fn xml_trigger_count(&self) -> usize {
        self.triggers.len()
    }

    /// Number of SQL triggers generated (the paper's scalability concern).
    pub fn sql_trigger_count(&self) -> usize {
        self.db.trigger_count()
    }

    /// Number of trigger groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Execution-counter snapshot of the underlying database: statement and
    /// firing counts plus the executor's `rows_scanned` / `index_probes`
    /// observability counters — the probe-not-scan evidence behind the
    /// flat firing-latency curves. When a durable
    /// store is attached, its counters (`wal_bytes_written`, `wal_fsyncs`,
    /// `checkpoints`, `recovery_ms`) are merged in.
    pub fn stats(&self) -> quark_relational::Stats {
        let mut stats = self.db.stats();
        if let Some(engine) = &self.storage {
            stats.wal_bytes_written = engine.wal_bytes_written();
            stats.wal_fsyncs = engine.wal_fsyncs();
            stats.group_commit_batches = engine.group_commit_batches();
            stats.checkpoints = engine.checkpoints();
            stats.recovery_ms = engine.recovery_ms();
        }
        stats
    }

    /// How many trigger groups this system has translated since it was
    /// created or opened: one per new group (`build_affected` once per
    /// source table), so N UNGROUPED triggers cost N. Zero after a warm
    /// restart: recovered groups are re-armed from their persisted
    /// renderings, not re-translated.
    pub fn translations(&self) -> u64 {
        self.translations
    }

    /// Always 0: nothing serves a translation but the translator. Kept
    /// because `quarkbench` reads it.
    pub fn compile_cache_hits(&self) -> u64 {
        0
    }

    /// Create an XML trigger: the paper's `CREATE TRIGGER … AFTER Event ON
    /// view('v')/anchor WHERE Condition DO action(params)`.
    ///
    /// The first trigger of a group is translated from borrowed state
    /// first; only then is the group committed — constants table, SQL
    /// triggers, registration — so a trigger that fails to translate
    /// changes nothing. Every trigger, the first included, then joins its
    /// group.
    pub fn create_trigger(&mut self, spec: TriggerSpec) -> Result<()> {
        if self.triggers.contains_key(&spec.name) {
            return Err(Error::TriggerExists(spec.name));
        }
        let template = self.anchor(&spec.view, &spec.anchor)?;

        let (signature, cond, consts) = translate::group_key(&spec, self.mode);
        if !self.groups.contains_key(&signature) {
            let cx = translate::Context {
                db: &self.db,
                mode: self.mode,
                group_id: self.group_counter,
            };
            let new = translate::translate_group(
                &cx,
                &spec,
                template,
                signature.clone(),
                &cond,
                &consts,
            )?;
            self.commit_group(new)?;
        }
        self.join_group(spec, signature, consts)
    }

    /// Commit a translated group with no members: create its constants
    /// table, install its SQL triggers and register it.
    fn commit_group(&mut self, new: translate::NewGroup) -> Result<()> {
        let group = new.group;
        if let Some(schema) = new.constants {
            let (name, width) = (schema.name.clone(), schema.columns.len() - 1);
            self.db.create_table(schema)?;
            for i in 0..width {
                self.db.create_index(&name, &format!("c{i}"))?;
            }
        }
        translate::install(&mut self.db, &self.actions, &group)?;
        self.group_counter += 1;
        self.translations += 1;
        Arc::make_mut(&mut self.groups).insert(group.signature.clone(), group);
        Ok(())
    }

    /// Add a trigger to its group (§5.1): a new constants set adds one
    /// constants-table row; nothing is recompiled. An existing set is found
    /// through the constants table: a probe of its `c0` index, then the
    /// rest of the row compared.
    fn join_group(
        &mut self,
        spec: TriggerSpec,
        signature: String,
        consts: Vec<Value>,
    ) -> Result<()> {
        let group = Arc::make_mut(&mut self.groups)
            .get_mut(&signature)
            .expect("the group exists or was just committed");
        let existing = match &group.constants_table {
            Some(ct) => {
                let table = self.db.table(ct)?;
                let rows = table.index_lookup(1, &consts[0])?;
                rows.iter().find_map(|row| match &row[0] {
                    Value::Int(id) if row[1..] == consts[..] => Some(*id),
                    _ => None,
                })
            }
            // The one set, once the group's first trigger has made it.
            None => (group.next_set > 0).then_some(0),
        };
        let set_id = match existing {
            Some(id) => id,
            None => {
                let id = group.next_set;
                if let Some(ct) = &group.constants_table {
                    let row = std::iter::once(Value::Int(id)).chain(consts).collect();
                    self.db.load(ct, vec![row])?;
                }
                group.next_set += 1;
                id
            }
        };
        let member = Member {
            trigger: spec.name.clone(),
            function: spec.action.function,
        };
        let mut members = group.members.lock().expect("members");
        members.entry(set_id).or_default().push(member);
        let record = TriggerRecord {
            group_signature: signature,
            set_id,
        };
        Arc::make_mut(&mut self.triggers).insert(spec.name, record);
        Ok(())
    }

    /// Drop an XML trigger. The group's SQL triggers are removed once the
    /// last member leaves; when the last member of a *set* leaves a
    /// still-live group, the set's constants-table row is removed so it
    /// stops joining on every subsequent firing. A drop that fails — say,
    /// a group SQL trigger already gone with its table — changes nothing,
    /// so it fails the same way again.
    pub fn drop_trigger(&mut self, name: &str) -> Result<()> {
        let record = self
            .triggers
            .get(name)
            .ok_or_else(|| Error::UnknownTrigger(name.to_string()))?;
        let (signature, set_id) = (record.group_signature.clone(), record.set_id);
        let group = self
            .groups
            .get(&signature)
            .ok_or_else(|| Error::Plan("trigger group missing".into()))?;
        let mut members = group.members.lock().expect("members");
        let last_of_set =
            (members.get(&set_id)).is_some_and(|l| l.iter().all(|m| m.trigger == name));
        let last_member = last_of_set && members.len() == 1;
        // Every step that can fail runs before anything changes, so a drop
        // that fails leaves the trigger and its group as they were.
        if last_member {
            if let Some(t) = (group.sql_triggers.iter()).find(|t| !self.db.has_trigger(&t.name)) {
                return Err(Error::UnknownTrigger(t.name.clone()));
            }
            if let Some(ct) = (group.constants_table.as_ref()).filter(|ct| !self.db.has_table(ct)) {
                return Err(Error::UnknownTable(ct.clone()));
            }
        } else if let (true, Some(ct)) = (last_of_set, &group.constants_table) {
            self.db
                .unload_where(ct, &Expr::eq(Expr::col(0), Expr::lit(set_id)))?;
        }
        if last_of_set {
            members.remove(&set_id);
        } else if let Some(list) = members.get_mut(&set_id) {
            list.retain(|m| m.trigger != name);
        }
        drop(members);
        Arc::make_mut(&mut self.triggers).remove(name);
        if last_member {
            // Checked above: every one of these exists.
            let group = Arc::make_mut(&mut self.groups).remove(&signature);
            let group = group.expect("checked above");
            for t in &group.sql_triggers {
                self.db.drop_trigger(&t.name)?;
            }
            if let Some(ct) = &group.constants_table {
                self.db.drop_table(ct)?;
            }
        }
        Ok(())
    }

    /// Drop a base table — refused, before anything changes, while a
    /// registered view or an XML trigger's group reads it: a view graph or
    /// a compiled plan over a missing table could neither fire nor be
    /// re-armed by a reopen. The error names the first such view (by
    /// name), else the first such trigger. A table named with
    /// [`RESERVED_PREFIX`](crate::session::RESERVED_PREFIX) is refused too:
    /// the engine drops its own tables with their group. There is no `DROP
    /// VIEW`, so a table a view reads stays.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let view = self
            .views
            .values()
            .filter(|v| {
                v.anchors
                    .values()
                    .any(|pg| pg.graph.base_tables(pg.root).iter().any(|t| t == name))
            })
            .map(|v| &v.name)
            .min();
        let trigger = self
            .triggers
            .iter()
            .filter(|(_, r)| {
                self.groups
                    .get(&r.group_signature)
                    .is_some_and(|g| g.footprint.contains(name))
            })
            .map(|(t, _)| t)
            .min();
        let user = match (view, trigger) {
            (Some(v), _) => format!("view `{v}`"),
            (None, Some(t)) => format!("trigger `{t}`"),
            (None, None) => {
                crate::session::refuse_reserved(name)?;
                return self.db.drop_table(name);
            }
        };
        Err(Error::Plan(format!(
            "cannot drop table `{name}`: {user} reads it"
        )))
    }

    /// Test hook: drop table `name` and its SQL triggers without
    /// [`Quark::drop_table`]'s checks, so that dropping an XML trigger
    /// whose group watched it fails.
    #[doc(hidden)]
    pub fn drop_table_unchecked_for_test(&mut self, name: &str) -> Result<()> {
        self.db.drop_table(name)
    }

    /// Render the translation artifacts behind an XML trigger: its group,
    /// constants, and every generated SQL trigger with its compiled plan —
    /// the `EXPLAIN TRIGGER` statement of the session surface.
    pub fn explain_trigger(&self, name: &str) -> Result<String> {
        use std::fmt::Write;
        let record = self
            .triggers
            .get(name)
            .ok_or_else(|| Error::UnknownTrigger(name.to_string()))?;
        let group = self
            .groups
            .get(&record.group_signature)
            .ok_or_else(|| Error::Plan("trigger group missing".into()))?;
        let members = group.members.lock().expect("members");
        let (triggers, sets) = (members.values().map(Vec::len).sum::<usize>(), members.len());
        drop(members);
        let mut out = String::new();
        let _ = writeln!(out, "XML trigger `{name}` (mode {:?})", self.mode);
        let _ = writeln!(
            out,
            "group: {triggers} member trigger(s), set {} of {sets}",
            record.set_id
        );
        match &group.constants_table {
            Some(ct) => {
                let table = self.db.table(ct).ok();
                let row = (table.as_ref()).and_then(|t| t.get(&[Value::Int(record.set_id)]));
                let consts = row.map_or(&[][..], |row| &row[1..]);
                let rows = table.as_ref().map_or(0, |t| t.len());
                let _ = writeln!(out, "constants: {consts:?} in table `{ct}` ({rows} row(s))");
            }
            None => {
                let _ = writeln!(out, "constants: none (condition fully compiled)");
            }
        }
        // The declared footprint the session's latch analysis uses when a
        // write can fire this group: the group's recorded read set, plus
        // the union of member actions' declared write sets.
        let _ = writeln!(
            out,
            "read footprint: {:?} (latched shared)",
            group.footprint
        );
        let writes = group.declared_writes(&self.actions.lock().expect("action registry"));
        let _ = writeln!(out, "write footprint: {writes:?} (latched exclusive)");
        let _ = writeln!(out, "SQL triggers ({}):", group.sql_triggers.len());
        for t in &group.sql_triggers {
            let _ = writeln!(out, "  {} AFTER {} ON {}", t.name, t.src.event, t.src.table);
            for line in t.plan.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        Ok(out)
    }

    /// Materialize the monitored nodes of `view('view')/anchor` against the
    /// current database state, in canonical key order — the `MATERIALIZE`
    /// statement of the session surface. Read-only: concurrent sessions run
    /// it against an immutable snapshot.
    pub fn materialize(&self, view: &str, anchor: &str) -> Result<Vec<quark_xml::XmlNodeRef>> {
        let nodes = crate::oracle::materialize(self.anchor(view, anchor)?, &self.db)?;
        let mut keyed: Vec<(Vec<Value>, quark_xml::XmlNodeRef)> = nodes.into_iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(keyed.into_iter().map(|(_, n)| n).collect())
    }

    /// What a write to `target` can set off: every table the cascade can
    /// *mutate* — the target plus declared action write sets, chased
    /// because writes fire further triggers — and every group it can fire
    /// on the way. `None` as soon as a raw SQL trigger — one installed
    /// directly on the database, an arbitrary closure — is reachable.
    fn cascade_closure(&self, target: &str) -> Option<(BTreeSet<String>, Vec<&Group>)> {
        // Group-generated SQL triggers are transparent: map them back to
        // their groups. Anything else on a reachable table is opaque.
        let group_of: HashMap<&str, &Group> = self
            .groups
            .values()
            .flat_map(|g| g.sql_triggers.iter().map(move |t| (t.name.as_str(), g)))
            .collect();
        let actions = self.actions.lock().expect("action registry");
        let mut written: BTreeSet<String> = BTreeSet::new();
        let mut reached: BTreeMap<&str, &Group> = BTreeMap::new();
        let mut queue: Vec<String> = vec![target.to_string()];
        while let Some(t) = queue.pop() {
            if !written.insert(t.clone()) {
                continue;
            }
            for trig in self.db.triggers().filter(|tr| tr.table == t) {
                let group = *group_of.get(trig.name.as_str())?;
                if reached.insert(&group.signature, group).is_none() {
                    queue.extend(group.declared_writes(&actions));
                }
            }
        }
        Some((written, reached.into_values().collect()))
    }

    /// Compute the latch [`Footprint`] of a write statement targeting
    /// `table`: the tables its cascade can mutate form the exclusive `write`
    /// side, the recorded footprints of the groups it can fire (plan
    /// sources, constants tables) the shared `read` side — or
    /// [`Footprint::Global`] when nothing bounds what the cascade touches.
    pub fn write_footprint(&self, table: &str) -> Footprint {
        let Some((write, reached)) = self.cascade_closure(table) else {
            return Footprint::Global;
        };
        // A table both scanned and mutated needs the exclusive latch; keep
        // the sets disjoint so admission sees one mode per table.
        let read = reached
            .iter()
            .flat_map(|g| &g.footprint)
            .filter(|t| !write.contains(*t))
            .cloned()
            .collect();
        Footprint::Tables { write, read }
    }

    /// Total rows across all live constants tables (leak checks: dropping
    /// the last trigger of a set must remove its row).
    pub fn constants_row_count(&self) -> usize {
        self.groups
            .values()
            .filter_map(|g| g.constants_table.as_deref())
            .filter_map(|ct| self.db.table(ct).ok())
            .map(|t| t.len())
            .sum()
    }
}
