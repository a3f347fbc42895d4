//! The Quark active-system façade (§3.2, Figure 6).
//!
//! `Quark` owns the relational database, the registered XML views, the
//! action-function registry, and the trigger groups. Creating an XML
//! trigger runs the full translation pipeline:
//!
//! ```text
//! parse → compose path → event pushdown → affected-node graph generation
//!       → trigger grouping → trigger pushdown → SQL triggers
//! ```
//!
//! In the two grouped modes, a trigger that is structurally similar to an
//! existing group (§5.1) skips translation entirely: it only inserts its
//! constants into the group's *constants table* — which is why trigger
//! creation cost amortizes and why firing cost is independent of the
//! number of XML triggers (Fig. 17).
//!
//! Two further compile-path caches live here:
//!
//! * within one group's translation, the affected-node plan is built once
//!   per source *table* and shared by that table's INSERT/UPDATE/DELETE
//!   source events ([`build_affected`] depends only on the table, the XML
//!   event, the needs and the options — not on the relational event);
//! * across groups and views, a **compile cache** keyed on the canonical
//!   structure of the monitored path graph (plus event, needs, options and
//!   the database's schema generation) reuses the per-table plans, so a
//!   `CREATE TRIGGER` forming a new group over an already-translated view
//!   shape — or over a structurally equal view under another name — skips
//!   delta-graph construction entirely. Entries are reference-counted by
//!   the groups using them and evicted when the last such group is
//!   dropped.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use quark_relational::expr::{BinOp, Expr};
use quark_relational::plan::{JoinKind, PhysicalPlan, PlanOp, PlanRef, SortKey, TableEpoch};
use quark_relational::{
    ColumnDef, ColumnType, Database, Error, Result, Row, SqlTrigger, TableSchema, TriggerBody,
    Value,
};

use crate::angraph::{build_affected, AffectedNodePlan, AnOptions, Needs, SideNeeds};
use crate::condition::{CondLayout, Condition, NodeRef};
use crate::events::{source_events, SourceEvent};
use crate::spec::{Action, ActionParam, PathGraph, TriggerSpec, XmlEvent, XmlView};

/// Serialization of the view/trigger layer (the storage catalog's "core
/// blob"). A child module so it can reach this module's private group and
/// cache structures.
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
    /// Tables the action may write, if declared
    /// ([`Quark::register_action_with_writes`]). `None` means the body is
    /// opaque: any write whose cascade can reach this action has an
    /// unbounded footprint ([`Footprint::Global`]).
    writes: Option<BTreeSet<String>>,
}

type ActionRegistry = Arc<Mutex<HashMap<String, ActionEntry>>>;

/// The set of per-table latches a write statement must hold: the
/// statement's target table plus every table read or written by the
/// trigger groups its cascade can reach ([`Quark::write_footprint`]),
/// partitioned by latch mode.
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
    /// Not statically boundable: a raw SQL trigger (opaque body) or an
    /// action without a declared write set is reachable, so the session
    /// latches every table of the database exclusive for the write.
    Global,
}

/// Per-trigger bookkeeping shared with SQL-trigger handlers.
#[derive(Clone)]
struct Member {
    trigger: String,
    function: String,
    params: Vec<ActionParam>,
}

type Members = Arc<Mutex<HashMap<i64, Vec<Member>>>>;

#[derive(Clone)]
struct Group {
    signature: String,
    constants_table: Option<String>,
    members: Members,
    /// constants vector → set id
    sets: HashMap<Vec<Value>, i64>,
    next_set: i64,
    sql_triggers: Vec<SqlTriggerMeta>,
    /// Every base table the group's compiled plans read or write —
    /// transitively through shared subplans — plus the constants table.
    /// Recorded at translation time; the session's footprint analysis
    /// unions it into any write statement that can fire this group.
    footprint: BTreeSet<String>,
    trigger_count: usize,
    /// Compile-cache entry this group holds a reference on.
    cache_key: Option<String>,
}

impl Group {
    /// Union of the member actions' declared write sets; `None` if any
    /// member action is unregistered or undeclared (opaque). Distinct
    /// action names first: a group's 10 000 members mostly share one
    /// action, which then costs one registry lookup and one set union.
    fn declared_writes(&self, actions: &HashMap<String, ActionEntry>) -> Option<BTreeSet<String>> {
        let members = self.members.lock().expect("members");
        let functions: BTreeSet<&str> = members
            .values()
            .flatten()
            .map(|m| m.function.as_str())
            .collect();
        let mut writes = BTreeSet::new();
        for function in functions {
            writes.extend(actions.get(function)?.writes.as_ref()?.iter().cloned());
        }
        Some(writes)
    }
}

/// One compile-cache entry: the affected-node plan per source table for one
/// (view structure, event, needs, options, schema generation) signature.
#[derive(Clone)]
struct CacheEntry {
    /// `None` = the table cannot affect the monitored path.
    plans: HashMap<String, Option<AffectedNodePlan>>,
    /// Live groups holding a reference; the entry is evicted at zero.
    /// (Schema changes need no sweep: the key embeds the external schema
    /// generation, so entries built against an older schema simply stop
    /// matching and die with their groups.)
    refs: usize,
}

#[derive(Clone)]
struct TriggerRecord {
    group_signature: String,
    set_id: i64,
}

/// One SQL trigger generated for a group, with its compiled plan rendered
/// for `EXPLAIN TRIGGER` and the handler ingredients kept for persistence:
/// re-arming a recovered group rebuilds each handler from `plan_ref` /
/// `residual` / `src` without re-running translation.
#[derive(Clone)]
struct SqlTriggerMeta {
    name: String,
    table: String,
    event: quark_relational::Event,
    plan: String,
    plan_ref: PlanRef,
    residual: Option<Condition>,
    src: SourceEvent,
}

/// The active XML-view system.
///
/// The relational database is private: statement execution goes through
/// [`Session::execute`](crate::session::Session::execute) by default, with
/// [`Quark::database`] / [`Quark::database_mut`] as the escape hatches for
/// inspection and programmatic access.
///
/// `Clone` produces a consistent copy of the whole system — tables,
/// trigger registrations, views, groups and compile cache (plans are
/// `Arc`-shared, so the copy is shallow where it can be). The session
/// layer clones under its write lock to publish immutable read snapshots
/// for concurrent `SELECT`/`EXPLAIN`/`MATERIALIZE`. The action registry
/// and group membership tables are reference-shared with the original
/// (they are behind `Arc<Mutex<…>>` already); a clone used purely for
/// reading never touches them mutably.
#[derive(Clone)]
pub struct Quark {
    db: Database,
    /// The registries below are `Arc`-shared copy-on-write (mutated via
    /// `Arc::make_mut` under the session's global exclusive mode), so
    /// publishing a read snapshot — `Quark::clone` at a write commit —
    /// costs a refcount bump per registry, not a deep copy.
    views: Arc<HashMap<String, XmlView>>,
    actions: ActionRegistry,
    groups: Arc<HashMap<String, Group>>,
    triggers: Arc<HashMap<String, TriggerRecord>>,
    mode: Mode,
    options: AnOptions,
    group_counter: usize,
    /// Per-system compile cache (see the module docs).
    compile_cache: Arc<HashMap<String, CacheEntry>>,
    compile_cache_enabled: bool,
    compile_cache_hits: u64,
    /// Schema-generation bumps caused by this system's own bookkeeping DDL
    /// (constants tables and their indexes). Subtracting them from the
    /// database's counter yields the *external* generation, which is stable
    /// across group creation and therefore usable as a cache-key component.
    /// Signed: recovery re-bases it so the external generation continues
    /// from the persisted value even though the rebuilt database's raw
    /// counter restarts from the recovery DDL count.
    internal_ddl: i64,
    /// Count of actual delta-graph translations (`build_affected` runs for
    /// a new group). Warm restarts assert this stays zero: every group is
    /// re-armed from its persisted rendering, never re-translated.
    translations: u64,
    /// Durable-storage engine, attached by [`Quark::open`]. `None` for an
    /// in-memory system. `Arc`-shared so read snapshots (`Quark::clone`)
    /// observe the same counters.
    storage: Option<Arc<quark_storage::StorageEngine>>,
}

impl Quark {
    /// Create a system over a database, with the given translation mode.
    pub fn new(db: Database, mode: Mode) -> Self {
        let options = AnOptions {
            agg_compensation: mode == Mode::GroupedAgg,
            ..AnOptions::default()
        };
        Quark {
            db,
            views: Arc::new(HashMap::new()),
            actions: Arc::new(Mutex::new(HashMap::new())),
            groups: Arc::new(HashMap::new()),
            triggers: Arc::new(HashMap::new()),
            mode,
            options,
            group_counter: 0,
            compile_cache: Arc::new(HashMap::new()),
            compile_cache_enabled: true,
            compile_cache_hits: 0,
            internal_ddl: 0,
            translations: 0,
            storage: None,
        }
    }

    /// Open (or create) a durable system rooted at directory `path`.
    ///
    /// A fresh directory starts an empty system with durability attached;
    /// an existing one is recovered to its last committed statement
    /// boundary: base tables are rebuilt from the checkpointed table images,
    /// the committed WAL tail is replayed on top (torn or corrupt trailing
    /// records are discarded), and every registered view, trigger group and
    /// compile-cache entry is re-armed from its persisted rendering — no
    /// view is re-translated (see [`Quark::translations`]).
    ///
    /// Action *functions* are closures and cannot be persisted; re-register
    /// them after opening ([`Quark::register_action`]). Triggers fire lazily
    /// — an action is resolved by name at firing time — so registration
    /// order does not matter as long as it precedes the first firing.
    ///
    /// For an existing database the persisted translation mode and options
    /// are authoritative; `mode` only seeds a fresh one.
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
        let (engine, recovered) = quark_storage::StorageEngine::open(path.as_ref(), sync)?;

        // Rebuild the relational layer: checkpointed tables, then the
        // committed WAL tail on top.
        let mut db = Database::new();
        for t in &recovered.tables {
            db.create_table(t.schema.clone())?;
            for &col in &t.indexes {
                let column = t.schema.columns[col].name.clone();
                db.create_index(&t.schema.name, &column)?;
            }
            if !t.rows.is_empty() {
                let rows = t.rows.iter().map(|r| r.to_vec()).collect();
                db.load(&t.schema.name, rows)?;
            }
        }
        for batch in &recovered.redo_batches {
            db.apply_redo(batch)?;
        }

        // Rebuild the view/trigger layer from the persisted core blob.
        let fresh = recovered.core_blob.is_none();
        let mut quark = Quark::new(db, mode);
        if let Some(blob) = &recovered.core_blob {
            persist::decode_core(&mut quark, blob)?;
        }

        quark.db.set_redo_capture(true);
        quark.storage = Some(Arc::new(engine));
        // Fold a replayed WAL tail (or a fresh directory) into a checkpoint
        // immediately, so reopening is idempotent and the log stays short.
        if fresh || !recovered.redo_batches.is_empty() {
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
    /// written to its image file, the full view/trigger/compile-cache state
    /// is serialized into the catalog, and the WAL is truncated. The caller
    /// must be at a statement boundary (the session layer checkpoints at
    /// global commits).
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

    /// Mutable access to the underlying database: the programmatic escape
    /// hatch for bulk loading and fixture setup. Statements executed
    /// through it still fire the translated triggers.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Tear down the system, keeping the database (baselines that strip
    /// the translated triggers and install their own).
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Override translation options (ablations).
    pub fn set_options(&mut self, options: AnOptions) {
        self.options = options;
    }

    /// Current translation options.
    pub fn options(&self) -> AnOptions {
        self.options
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

    /// Register an action function callable from trigger DO clauses.
    /// Duplicate registrations are rejected with [`Error::ActionExists`]
    /// (silently replacing a closure that installed triggers still
    /// reference would change their behavior behind their back).
    pub fn register_action(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&Database, &ActionCall) -> Result<()> + Send + Sync + 'static,
    ) -> Result<()> {
        self.insert_action(name.into(), Arc::new(f), None)
    }

    /// Register an action that declares the tables it may write. Writes
    /// whose cascades reach only declared actions keep a bounded
    /// [`Footprint`] and can run in parallel with disjoint writers; an
    /// undeclared action ([`Quark::register_action`]) makes such writes
    /// latch every table instead. The declaration is a *promise*: writing
    /// outside it is not checked.
    pub fn register_action_with_writes(
        &mut self,
        name: impl Into<String>,
        writes: impl IntoIterator<Item = impl Into<String>>,
        f: impl Fn(&Database, &ActionCall) -> Result<()> + Send + Sync + 'static,
    ) -> Result<()> {
        let writes = writes.into_iter().map(Into::into).collect();
        self.insert_action(name.into(), Arc::new(f), Some(writes))
    }

    fn insert_action(
        &mut self,
        name: String,
        f: ActionFn,
        writes: Option<BTreeSet<String>>,
    ) -> Result<()> {
        let mut registry = self.actions.lock().expect("action registry");
        if registry.contains_key(&name) {
            return Err(Error::ActionExists(name));
        }
        registry.insert(name, ActionEntry { f, writes });
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

    /// How many delta-graph translations (`build_affected` runs) this
    /// system has performed. Zero after a warm restart: recovered groups
    /// are re-armed from their persisted renderings, not re-translated.
    pub fn translations(&self) -> u64 {
        self.translations
    }

    /// Number of live compile-cache entries (each referenced by ≥ 1 group).
    pub fn compile_cache_len(&self) -> usize {
        self.compile_cache.len()
    }

    /// How many new-group translations were served from the compile cache.
    pub fn compile_cache_hits(&self) -> u64 {
        self.compile_cache_hits
    }

    /// Enable or disable the compile cache (on by default). Differential
    /// tests compare a caching system against an uncached one; disabling
    /// also clears existing entries so no stale plan can be served, and
    /// releases every group's cache reference — otherwise a group dropped
    /// after re-enabling would decrement a *recreated* entry it never
    /// referenced and evict it from under its live users.
    pub fn set_compile_cache_enabled(&mut self, enabled: bool) {
        self.compile_cache_enabled = enabled;
        if !enabled {
            Arc::make_mut(&mut self.compile_cache).clear();
            for group in Arc::make_mut(&mut self.groups).values_mut() {
                group.cache_key = None;
            }
        }
    }

    /// Canonical signature of one translation input: an id-independent
    /// serialization of the monitored path graph plus everything else
    /// `build_affected` depends on. Structurally equal views under
    /// different names produce equal signatures — and share compiled plans.
    fn cache_signature(&self, template: &PathGraph, event: XmlEvent, needs: Needs) -> String {
        use std::fmt::Write;
        let mut sig = String::new();
        let mut seq: HashMap<usize, usize> = HashMap::new();
        canonical_graph(&template.kg, template.root, &mut seq, &mut sig);
        let mut attrs: Vec<(&String, &usize)> = template.attr_cols.iter().collect();
        attrs.sort();
        let o = self.options;
        let gen = self.db.schema_generation() as i64 - self.internal_ddl;
        let _ = write!(
            sig,
            "|node={} attrs={attrs:?} key={:?} event={event:?} needs=({},{}) \
             opts=({},{},{},{}) gen={gen}",
            template.node_col,
            template.key(),
            needs.old.node,
            needs.new.node,
            o.pruned_transitions,
            o.injective_opt,
            o.use_skeletons,
            o.agg_compensation,
        );
        sig
    }

    /// Create an XML trigger: the paper's `CREATE TRIGGER … AFTER Event ON
    /// view('v')/anchor WHERE Condition DO action(params)`.
    pub fn create_trigger(&mut self, spec: TriggerSpec) -> Result<()> {
        if self.triggers.contains_key(&spec.name) {
            return Err(Error::TriggerExists(spec.name));
        }
        let view = self
            .views
            .get(&spec.view)
            .ok_or_else(|| Error::Plan(format!("unknown view `{}`", spec.view)))?;
        let template = view
            .anchors
            .get(&spec.anchor)
            .ok_or_else(|| {
                Error::Plan(format!(
                    "view `{}` has no element `{}`",
                    spec.view, spec.anchor
                ))
            })?
            .clone();

        let grouped = self.mode != Mode::Ungrouped;
        let (cond, consts) = if grouped {
            spec.condition.extract_constants()
        } else {
            (spec.condition.clone(), Vec::new())
        };
        let signature = if grouped {
            format!(
                "{}|{}|{}|{:?}|{:?}",
                spec.view,
                spec.anchor,
                spec.event,
                cond,
                shape_of(&spec.action)
            )
        } else {
            format!("ungrouped|{}", spec.name)
        };

        if let Some(group) = Arc::make_mut(&mut self.groups).get_mut(&signature) {
            // Fast path (§5.1): join an existing group — one constants-table
            // row, no recompilation.
            let set_id = match group.sets.get(&consts) {
                Some(&id) => id,
                None => {
                    let id = group.next_set;
                    group.next_set += 1;
                    group.sets.insert(consts.clone(), id);
                    if let Some(ct) = &group.constants_table {
                        let mut row = vec![Value::Int(id)];
                        row.extend(consts.iter().cloned());
                        self.db.load(ct, vec![row])?;
                    }
                    id
                }
            };
            group
                .members
                .lock()
                .expect("members")
                .entry(set_id)
                .or_default()
                .push(Member {
                    trigger: spec.name.clone(),
                    function: spec.action.function.clone(),
                    params: spec.action.params.clone(),
                });
            group.trigger_count += 1;
            Arc::make_mut(&mut self.triggers).insert(
                spec.name,
                TriggerRecord {
                    group_signature: signature,
                    set_id,
                },
            );
            return Ok(());
        }

        self.translate_new_group(spec, template, signature, cond, consts, grouped)
    }

    /// Full translation for the first trigger of a group.
    fn translate_new_group(
        &mut self,
        spec: TriggerSpec,
        template: PathGraph,
        signature: String,
        cond: Condition,
        consts: Vec<Value>,
        grouped: bool,
    ) -> Result<()> {
        let group_id = self.group_counter;
        self.group_counter += 1;

        // Which node values does this group actually need?
        let attr_names: Vec<&str> = template.attr_cols.keys().map(String::as_str).collect();
        let uses = |p: &ActionParam, which: &ActionParam| {
            std::mem::discriminant(p) == std::mem::discriminant(which)
        };
        let action_old = spec
            .action
            .params
            .iter()
            .any(|p| uses(p, &ActionParam::OldNode));
        let action_new = spec
            .action
            .params
            .iter()
            .any(|p| uses(p, &ActionParam::NewNode));
        let needs = Needs {
            old: SideNeeds {
                node: action_old || cond.needs_node_content(NodeRef::Old, &attr_names),
            },
            new: SideNeeds {
                node: action_new || cond.needs_node_content(NodeRef::New, &attr_names),
            },
        };

        // Constants table for the group. Its DDL is internal bookkeeping:
        // count the schema-generation bumps so the compile cache can key on
        // the *external* generation, which stays put across group creation.
        let constants_table = if grouped && !consts.is_empty() {
            let name = format!("__quark_const_{group_id}");
            let mut columns = vec![ColumnDef::new("set_id", ColumnType::Int)];
            for (i, v) in consts.iter().enumerate() {
                let ty = match v {
                    Value::Int(_) => ColumnType::Int,
                    Value::Double(_) => ColumnType::Double,
                    Value::Bool(_) => ColumnType::Bool,
                    _ => ColumnType::Str,
                };
                columns.push(ColumnDef::new(format!("c{i}"), ty));
            }
            self.db
                .create_table(TableSchema::new(name.clone(), columns, &["set_id"])?)?;
            self.internal_ddl += 1;
            // Every constant column gets an index so the generated trigger
            // probes instead of scanning (or hashing) all constants rows.
            for i in 0..consts.len() {
                self.db.create_index(&name, &format!("c{i}"))?;
                self.internal_ddl += 1;
            }
            Some(name)
        } else {
            None
        };

        let members: Members = Arc::new(Mutex::new(HashMap::new()));
        let set_id: i64 = 0;
        members.lock().expect("members").insert(
            set_id,
            vec![Member {
                trigger: spec.name.clone(),
                function: spec.action.function.clone(),
                params: spec.action.params.clone(),
            }],
        );
        if let Some(ct) = &constants_table {
            let mut row = vec![Value::Int(set_id)];
            row.extend(consts.iter().cloned());
            self.db.load(ct, vec![row])?;
        }

        // Event pushdown on the composed path graph.
        let events = source_events(&template.kg.graph, template.root, spec.event, &self.db)?;

        // Affected-node plans, one per source *table* — `build_affected`
        // does not depend on the relational event, so a table's
        // INSERT/UPDATE/DELETE source events share one plan. Served from
        // the compile cache when an equal (view structure, event, needs,
        // options, schema generation) signature was translated before.
        let cache_key = self.cache_signature(&template, spec.event, needs);
        let plans: HashMap<String, Option<AffectedNodePlan>> = match self
            .compile_cache_enabled
            .then(|| self.compile_cache.get(&cache_key))
            .flatten()
        {
            Some(entry) => {
                self.compile_cache_hits += 1;
                entry.plans.clone()
            }
            None => {
                self.translations += 1;
                // One shared arena for every table's delta graphs: the
                // hash-consed graph reuses each (operator, source-variant)
                // subplan by reference instead of recloning the template
                // per source-event combination.
                let mut pg = template;
                let mut built: HashMap<String, Option<AffectedNodePlan>> = HashMap::new();
                for src in &events {
                    if built.contains_key(&src.table) {
                        continue;
                    }
                    let plan = build_affected(
                        &mut pg,
                        &src.table,
                        spec.event,
                        needs,
                        self.options,
                        &self.db,
                    )?;
                    built.insert(src.table.clone(), plan);
                }
                built
            }
        };

        // Stack the group-specific condition/constants join, once per
        // table, and generate one SQL trigger per source event.
        let mut per_table: HashMap<String, (PlanRef, Option<Condition>, String)> = HashMap::new();
        let mut sql_triggers = Vec::new();
        for src in events {
            let Some(Some(affected)) = plans.get(&src.table) else {
                continue;
            };
            let (plan, residual, plan_explain) = match per_table.get(&src.table) {
                Some(hit) => hit.clone(),
                None => {
                    let (plan, residual) = self.attach_condition(
                        Arc::clone(&affected.plan),
                        &affected.layout,
                        &cond,
                        constants_table.as_deref(),
                        consts.len(),
                        &self.db,
                    )?;
                    let explain = plan.explain();
                    let value = (plan, residual, explain);
                    per_table.insert(src.table.clone(), value.clone());
                    value
                }
            };

            let trigger_name = format!("__quark_g{group_id}_{}_{}", src.table, src.event);
            let body = self.make_handler(
                Arc::clone(&plan),
                residual.clone(),
                src.clone(),
                Arc::clone(&members),
                consts.len(),
            );
            self.db.create_trigger(SqlTrigger {
                name: trigger_name.clone(),
                table: src.table.clone(),
                event: src.event,
                body,
            })?;
            sql_triggers.push(SqlTriggerMeta {
                name: trigger_name,
                table: src.table.clone(),
                event: src.event,
                plan: plan_explain,
                plan_ref: plan,
                residual,
                src,
            });
        }

        // The group's source-table footprint: every base table its stacked
        // plans touch (transitively through shared subplans — the plan walk
        // deduplicates on subplan identity), plus the constants table the
        // generated triggers join on every firing.
        let mut footprint: BTreeSet<String> = BTreeSet::new();
        for (table, (plan, _, _)) in &per_table {
            footprint.insert(table.clone());
            footprint.extend(plan.table_footprint());
        }
        if let Some(ct) = &constants_table {
            footprint.insert(ct.clone());
        }

        // Take (or create) the group's compile-cache reference.
        let cache_ref = if self.compile_cache_enabled {
            match Arc::make_mut(&mut self.compile_cache).get_mut(&cache_key) {
                Some(entry) => entry.refs += 1,
                None => {
                    Arc::make_mut(&mut self.compile_cache)
                        .insert(cache_key.clone(), CacheEntry { plans, refs: 1 });
                }
            }
            Some(cache_key)
        } else {
            None
        };

        // Register the group and the trigger.
        let mut sets = HashMap::new();
        sets.insert(consts, set_id);
        // For ungrouped mode, make the signature unique per trigger so no
        // sharing occurs (done by caller via the signature string).
        Arc::make_mut(&mut self.groups).insert(
            signature.clone(),
            Group {
                signature: signature.clone(),
                constants_table,
                members,
                sets,
                next_set: 1,
                sql_triggers,
                footprint,
                trigger_count: 1,
                cache_key: cache_ref,
            },
        );
        Arc::make_mut(&mut self.triggers).insert(
            spec.name,
            TriggerRecord {
                group_signature: signature,
                set_id,
            },
        );
        Ok(())
    }

    /// Stack the condition (and constants join) on top of the affected-node
    /// plan. Output layout: `[set_id, old_node, new_node, c_0 … c_{k-1}]`.
    /// Returns the plan plus a residual condition to evaluate per row in
    /// the handler when relational compilation was not possible.
    fn attach_condition(
        &self,
        affected: PlanRef,
        layout: &crate::angraph::AffectedLayout,
        cond: &Condition,
        constants_table: Option<&str>,
        n_consts: usize,
        db: &Database,
    ) -> Result<(PlanRef, Option<Condition>)> {
        let affected_arity = affected.arity(db)?;
        let old_expr = layout
            .old_node
            .map(Expr::col)
            .unwrap_or_else(|| Expr::lit(Value::Null));
        let new_expr = layout
            .new_node
            .map(Expr::col)
            .unwrap_or_else(|| Expr::lit(Value::Null));

        let (joined, base_layout, param_cols, set_expr): (PlanRef, CondLayout, Vec<usize>, Expr) =
            match constants_table {
                Some(ct) => {
                    // Join with the constants table (Fig. 14/15): hash-join
                    // on a pushable `path = const` equality when one exists,
                    // else nested-loop.
                    let params: Vec<usize> =
                        (0..n_consts).map(|i| affected_arity + 1 + i).collect();
                    let cl = CondLayout {
                        old_node: layout.old_node,
                        new_node: layout.new_node,
                        old_attrs: layout.old_attrs.clone(),
                        new_attrs: layout.new_attrs.clone(),
                        params: params.clone(),
                    };
                    let join = match pushable_equality(cond) {
                        Some((_, param_idx)) => {
                            // Probe the constants table through its index:
                            // cost per update stays proportional to the
                            // affected nodes, not to the number of XML
                            // triggers (Fig. 17's flat GROUPED curve).
                            let key_expr = compile_cond_value_for_join(cond, layout)?;
                            let op = PlanOp::IndexJoin {
                                table: ct.to_string(),
                                epoch: TableEpoch::Current,
                                probe: vec![(1 + param_idx, key_expr)],
                                kind: JoinKind::Inner,
                                filter: None,
                            };
                            PhysicalPlan::new(op, vec![affected]).into_ref()
                        }
                        None => {
                            let const_scan = PlanOp::TableScan {
                                table: ct.to_string(),
                                epoch: TableEpoch::Current,
                            };
                            let const_scan = PhysicalPlan::new(const_scan, vec![]).into_ref();
                            let op = PlanOp::NestedLoopJoin {
                                predicate: None,
                                kind: JoinKind::Inner,
                            };
                            PhysicalPlan::new(op, vec![affected, const_scan]).into_ref()
                        }
                    };
                    (join, cl, params, Expr::col(affected_arity))
                }
                None => {
                    let cl = CondLayout {
                        old_node: layout.old_node,
                        new_node: layout.new_node,
                        old_attrs: layout.old_attrs.clone(),
                        new_attrs: layout.new_attrs.clone(),
                        params: vec![],
                    };
                    (affected, cl, vec![], Expr::lit(0i64))
                }
            };

        // Apply the full condition relationally when possible.
        let (filtered, residual) = match cond.compile(&base_layout) {
            Ok(predicate) => (
                PhysicalPlan::new(PlanOp::Filter { predicate }, vec![joined]).into_ref(),
                None,
            ),
            Err(_) => (joined, Some(cond.clone())),
        };

        // Final projection [set_id, old, new, params…], sorted by set id.
        let mut exprs = vec![set_expr, old_expr, new_expr];
        exprs.extend(param_cols.into_iter().map(Expr::col));
        let projected = PhysicalPlan::new(PlanOp::Project { exprs }, vec![filtered]).into_ref();
        let keys = vec![SortKey::asc(0)];
        let sorted = PhysicalPlan::new(PlanOp::Sort { keys }, vec![projected]).into_ref();
        Ok((sorted, residual))
    }

    /// Build the SQL-trigger body: relevance check, plan execution,
    /// residual filtering, and action activation.
    fn make_handler(
        &self,
        plan: PlanRef,
        residual: Option<Condition>,
        src: SourceEvent,
        members: Members,
        n_consts: usize,
    ) -> TriggerBody {
        let actions = Arc::clone(&self.actions);
        TriggerBody::Native(Arc::new(move |db, trans| {
            // Column-level relevance (event pushdown's UPDATE(o, C)).
            if !src.statement_relevant(&trans.inserted, &trans.deleted) {
                return Ok(());
            }
            let rows: Vec<Row> =
                quark_relational::exec::execute_with_transitions(db, &plan, trans)?;
            for row in rows {
                let Value::Int(set_id) = row[0] else {
                    return Err(Error::Eval("set_id must be an integer".into()));
                };
                let old = match &row[1] {
                    Value::Xml(x) => Some(x.clone()),
                    _ => None,
                };
                let new = match &row[2] {
                    Value::Xml(x) => Some(x.clone()),
                    _ => None,
                };
                let params: Vec<Value> = row[3..3 + n_consts.min(row.len() - 3)].to_vec();
                if let Some(cond) = &residual {
                    if !cond.eval(old.as_ref(), new.as_ref(), &params)? {
                        continue;
                    }
                }
                let firing: Vec<Member> = members
                    .lock()
                    .expect("members")
                    .get(&set_id)
                    .cloned()
                    .unwrap_or_default();
                for m in firing {
                    let f = actions
                        .lock()
                        .expect("actions")
                        .get(&m.function)
                        .map(|e| Arc::clone(&e.f))
                        .ok_or_else(|| {
                            Error::Plan(format!("unregistered action `{}`", m.function))
                        })?;
                    let call = ActionCall {
                        trigger: m.trigger.clone(),
                        params: m
                            .params
                            .iter()
                            .map(|p| match p {
                                ActionParam::OldNode => {
                                    old.clone().map(Value::Xml).unwrap_or(Value::Null)
                                }
                                ActionParam::NewNode => {
                                    new.clone().map(Value::Xml).unwrap_or(Value::Null)
                                }
                                ActionParam::Const(v) => v.clone(),
                            })
                            .collect(),
                    };
                    f(db, &call)?;
                }
            }
            Ok(())
        }))
    }

    /// Drop an XML trigger. The group's SQL triggers are removed once the
    /// last member leaves; when the last member of a *set* leaves a
    /// still-live group, the set's constants-table row is removed so it
    /// stops joining on every subsequent firing.
    pub fn drop_trigger(&mut self, name: &str) -> Result<()> {
        let record = Arc::make_mut(&mut self.triggers)
            .remove(name)
            .ok_or_else(|| Error::UnknownTrigger(name.to_string()))?;
        let (remove_group, remove_set) = {
            let group = Arc::make_mut(&mut self.groups)
                .get_mut(&record.group_signature)
                .ok_or_else(|| Error::Plan("trigger group missing".into()))?;
            let mut members = group.members.lock().expect("members");
            let set_empty = match members.get_mut(&record.set_id) {
                Some(list) => {
                    list.retain(|m| m.trigger != name);
                    list.is_empty()
                }
                None => false,
            };
            if set_empty {
                members.remove(&record.set_id);
            }
            group.trigger_count -= 1;
            (group.trigger_count == 0, set_empty)
        };
        if remove_group {
            let group = Arc::make_mut(&mut self.groups)
                .remove(&record.group_signature)
                .expect("checked");
            for t in &group.sql_triggers {
                self.db.drop_trigger(&t.name)?;
            }
            if let Some(ct) = &group.constants_table {
                self.db.drop_table(ct)?;
                self.internal_ddl += 1;
            }
            // Release the group's compile-cache reference; the entry is
            // evicted with its last group, so a dropped group's plans can
            // never be resurrected.
            if let Some(key) = &group.cache_key {
                let cache = Arc::make_mut(&mut self.compile_cache);
                if let Some(entry) = cache.get_mut(key) {
                    entry.refs -= 1;
                    if entry.refs == 0 {
                        cache.remove(key);
                    }
                }
            }
        } else if remove_set {
            let ct = {
                let group = Arc::make_mut(&mut self.groups)
                    .get_mut(&record.group_signature)
                    .expect("checked above");
                group.sets.retain(|_, id| *id != record.set_id);
                group.constants_table.clone()
            };
            if let Some(ct) = ct {
                let set_id = record.set_id;
                self.db
                    .unload_where(&ct, &Expr::eq(Expr::col(0), Expr::lit(set_id)))?;
            }
        }
        Ok(())
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
        let mut out = String::new();
        let _ = writeln!(out, "XML trigger `{name}` (mode {:?})", self.mode);
        let _ = writeln!(
            out,
            "group: {} member trigger(s), set {} of {}",
            group.trigger_count,
            record.set_id,
            group.sets.len()
        );
        match &group.constants_table {
            Some(ct) => {
                let consts = group
                    .sets
                    .iter()
                    .find(|(_, id)| **id == record.set_id)
                    .map(|(c, _)| c.clone())
                    .unwrap_or_default();
                let rows = self.db.table(ct).map(|t| t.len()).unwrap_or(0);
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
        let writes = match group.declared_writes(&self.actions.lock().expect("action registry")) {
            Some(ws) => format!("{ws:?} (latched exclusive)"),
            None => "global (member action has no declared write set)".to_string(),
        };
        let _ = writeln!(out, "write footprint: {writes}");
        let _ = writeln!(out, "SQL triggers ({}):", group.sql_triggers.len());
        for t in &group.sql_triggers {
            let _ = writeln!(out, "  {} AFTER {} ON {}", t.name, t.event, t.table);
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
        let pg = self
            .views
            .get(view)
            .ok_or_else(|| Error::Plan(format!("unknown view `{view}`")))?
            .anchors
            .get(anchor)
            .ok_or_else(|| Error::Plan(format!("view `{view}` has no element `{anchor}`")))?;
        let nodes = crate::oracle::materialize(pg, &self.db)?;
        let mut keyed: Vec<(Vec<Value>, quark_xml::XmlNodeRef)> = nodes.into_iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(keyed.into_iter().map(|(_, n)| n).collect())
    }

    /// What a write to `target` can set off: every table the cascade can
    /// *mutate* — the target plus declared action write sets, chased
    /// because writes fire further triggers — and every group it can fire
    /// on the way. `None` as soon as anything opaque is reachable: a raw SQL
    /// trigger installed directly on the database (an arbitrary closure) or
    /// a group with an undeclared member action.
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
                    queue.extend(group.declared_writes(&actions)?);
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
        // the sets disjoint so the latch manager sees one mode per table.
        let read = reached
            .iter()
            .flat_map(|g| &g.footprint)
            .filter(|t| !write.contains(*t))
            .cloned()
            .collect();
        Footprint::Tables { write, read }
    }

    /// Replace this system's versions of `tables` with `from`'s current
    /// ones (a refcount bump per table; see
    /// [`Database::adopt_tables_from`]). The session layer folds a
    /// committed writer's footprint into the published read snapshot this
    /// way instead of re-cloning the whole system.
    pub fn adopt_tables_from<I, S>(&mut self, from: &Quark, tables: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.db.adopt_tables_from(&from.db, tables);
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

/// Serialize the subgraph under `id` with DFS-order numbering, so two
/// isomorphic graphs built in the same operator order — e.g. two arenas
/// produced by registering the same view definition twice — serialize
/// identically regardless of their arena ids. Shared nodes print once and
/// are back-referenced by sequence number, keeping the output linear in
/// the DAG size.
fn canonical_graph(
    kg: &quark_xqgm::KeyedGraph,
    id: quark_xqgm::OpId,
    seq: &mut HashMap<usize, usize>,
    out: &mut String,
) {
    use std::fmt::Write;
    if let Some(&n) = seq.get(&id) {
        let _ = write!(out, "#{n};");
        return;
    }
    let n = seq.len();
    seq.insert(id, n);
    let op = kg.graph.op(id);
    let _ = write!(out, "[{n}:{:?}(", op.kind);
    for &i in &op.inputs {
        canonical_graph(kg, i, seq, out);
    }
    let _ = write!(out, ")]");
}

fn shape_of(action: &Action) -> Vec<String> {
    action
        .params
        .iter()
        .map(|p| match p {
            ActionParam::OldNode => "OLD".to_string(),
            ActionParam::NewNode => "NEW".to_string(),
            ActionParam::Const(v) => format!("CONST({v:?})"),
        })
        .collect()
}

/// Find a top-level conjunct of the form `path = Param(i)` usable as a
/// hash-join key against the constants table (Fig. 14's select→join
/// conversion).
fn pushable_equality(cond: &Condition) -> Option<(crate::condition::CondValue, usize)> {
    match cond {
        Condition::Cmp {
            left: l @ crate::condition::CondValue::Path(_),
            op: BinOp::Eq,
            right: crate::condition::CondValue::Param(i),
        } => Some((l.clone(), *i)),
        Condition::Cmp {
            left: crate::condition::CondValue::Param(i),
            op: BinOp::Eq,
            right: r @ crate::condition::CondValue::Path(_),
        } => Some((r.clone(), *i)),
        Condition::And(a, b) => pushable_equality(a).or_else(|| pushable_equality(b)),
        _ => None,
    }
}

/// Compile the pushable equality's path into a join-key expression over the
/// affected row.
fn compile_cond_value_for_join(
    cond: &Condition,
    layout: &crate::angraph::AffectedLayout,
) -> Result<Expr> {
    let (path_value, _) =
        pushable_equality(cond).ok_or_else(|| Error::Plan("no pushable equality".into()))?;
    let cl = CondLayout {
        old_node: layout.old_node,
        new_node: layout.new_node,
        old_attrs: layout.old_attrs.clone(),
        new_attrs: layout.new_attrs.clone(),
        params: vec![],
    };
    match &path_value {
        crate::condition::CondValue::Path(p) => crate::condition::compile_path_public(p, &cl),
        _ => Err(Error::Plan("pushable equality must be a path".into())),
    }
}
