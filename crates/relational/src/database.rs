//! The database: named tables, data-change statements, and statement-level
//! AFTER triggers with transition tables — the exact interface the paper
//! assumes of the underlying RDBMS (§2.3, §3.2).
//!
//! Triggers fire once per *statement* (not per row, not per transaction),
//! matching the paper's stated granularity. A firing trigger sees the Δ
//! (`INSERTED`) and ∇ (`DELETED`) transition tables of its statement and the
//! post-statement database state, and may itself execute statements (e.g.
//! the benchmark action inserts into a temporary table); cascades are capped
//! at a DB2-like nesting depth of 16. A statement is atomic, cascade
//! included: its row changes are journaled as they happen, handed to its
//! commit step as its redo if it succeeds, and undone if it or its commit
//! step fails ([`Database::statement`]).

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, LockResult, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError, TryLockResult,
};

use crate::expr::{BinOp, Expr};
use crate::schema::TableSchema;
use crate::table::{Key, Table};
use crate::value::{ColumnType, Row, Value};
use crate::wire::RedoOp;
use crate::{Error, Result};

/// Relational statement kinds, which double as trigger event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// `INSERT` statements / triggers.
    Insert,
    /// `UPDATE` statements / triggers.
    Update,
    /// `DELETE` statements / triggers.
    Delete,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Insert => f.write_str("INSERT"),
            Event::Update => f.write_str("UPDATE"),
            Event::Delete => f.write_str("DELETE"),
        }
    }
}

/// Transition tables of one statement: Δ = `inserted`, ∇ = `deleted`
/// (paper notation; DB2's `NEW_TABLE`/`OLD_TABLE`).
#[derive(Debug, Clone)]
pub struct TransitionTables {
    /// Table the statement changed.
    pub table: String,
    /// Statement kind.
    pub event: Event,
    /// Post-change versions of affected rows (empty for DELETE).
    pub inserted: Vec<Row>,
    /// Pre-change versions of affected rows (empty for INSERT).
    pub deleted: Vec<Row>,
}

/// Callback for a trigger body.
///
/// Takes `&Database`: every data-change entry point is interior-mutable
/// (per-table latches), so a cascade can run while the session layer holds
/// only a shared reference — the requirement behind footprint-scoped
/// parallel writers.
pub type NativeTriggerFn = dyn Fn(&Database, &TransitionTables) -> Result<()> + Send + Sync;

/// A statement-level AFTER trigger.
#[derive(Clone)]
pub struct SqlTrigger {
    /// Unique trigger name.
    pub name: String,
    /// Monitored table.
    pub table: String,
    /// Monitored statement kind.
    pub event: Event,
    /// What to run when fired, over the statement's transition tables. A
    /// translated XML trigger's body evaluates the generated plan (the
    /// paper's SQL trigger query) through
    /// [`crate::exec::execute_with_transitions`] and activates the actions.
    pub body: Arc<NativeTriggerFn>,
}

/// Simple execution counters, used by benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Data-change statements executed.
    pub statements: u64,
    /// Trigger bodies evaluated.
    pub triggers_fired: u64,
    /// Rows visited by full table scans — `TableScan` operators plus the
    /// scan fallback of the statement row selection (`SELECT`, `UPDATE`,
    /// `DELETE` whose predicate is not an indexed equality). Together with
    /// [`Stats::index_probes`] this lets tests assert probe-not-scan
    /// instead of inferring it from wall-clock time.
    pub rows_scanned: u64,
    /// Primary-key and secondary-index equality probes (index joins, keyed
    /// statements and indexed-equality row selections).
    pub index_probes: u64,
    /// Rows an XML-constructing projection took from its last firing's
    /// output instead of evaluating them again: one per reused row (the
    /// constructor reuse slot, `plan::ReuseSlot`). There is no miss
    /// counter.
    pub build_cache_hits: u64,
    /// Table latches a session write blocked on at admission because
    /// another writer held them in a conflicting mode (one per such table;
    /// a single admission can wait on several).
    pub latch_waits: u64,
    /// Session-write admissions that found at least one table of their
    /// footprint busy (one per admission, however many tables it waited
    /// on).
    pub latch_conflicts: u64,
    /// Tables latched in **shared** mode by footprint-latched writers (one
    /// per read-set table per acquisition) — the read side of a trigger
    /// footprint, held concurrently by overlapping writers.
    pub latch_shared_acquisitions: u64,
    /// Tables latched in **exclusive** mode by footprint-latched writers
    /// (one per write-set table per acquisition).
    pub latch_exclusive_acquisitions: u64,
    /// Statements whose execution was folded into a coalesced batch by
    /// `Session::execute_batch` (each member of a merged run counts).
    pub batched_statements: u64,
    /// Well-formed request frames decoded by the network front door
    /// (zero for in-process sessions; bumped by `quark-server`).
    pub frames_received: u64,
    /// Frames or connections the server refused: torn/oversized/CRC-bad
    /// frames, unknown tags, and admission rejections when the worker
    /// pool's accept queue was full.
    pub frames_rejected: u64,
    /// Runs of ≥ 2 same-table `INSERT`s that `Session::execute_batch`
    /// coalesced into one statement and committed (one per run), whichever
    /// door — in process or a pipelined server window — the batch came
    /// through.
    pub pipelined_batches: u64,
    /// Times a connection's pipeline window filled, so the server left the
    /// rest of the stream unread until the window executed —
    /// explicit backpressure instead of unbounded buffering.
    pub backpressure_stalls: u64,
    /// Connections currently being served by the worker pool (a gauge,
    /// not a monotonic counter).
    pub active_connections: u64,
    /// Bytes appended to the write-ahead log (zero for in-memory
    /// databases; filled in by the storage engine one layer up).
    pub wal_bytes_written: u64,
    /// `fsync` calls issued by the write-ahead log.
    pub wal_fsyncs: u64,
    /// Group-commit fsync batches: one per `fsync` of the WAL, each
    /// covering every WAL frame appended (but not yet durable) at that
    /// moment, so a commit whose frame an earlier fsync covered issues
    /// none. Under concurrent writers this stays below the
    /// committed-statement count — the whole point of group commit.
    pub group_commit_batches: u64,
    /// Checkpoints taken by the storage engine.
    pub checkpoints: u64,
    /// Wall-clock milliseconds the last recovery (warm open) took.
    pub recovery_ms: u64,
    /// Table accesses refused because they fell outside the statement's
    /// latched footprint — a write to a table not latched exclusive, or a
    /// read of a table not latched at all. The access did not happen: its
    /// statement failed with [`Error::OutsideFootprint`] and was undone.
    /// Nonzero means an action broke its declared write set or the
    /// footprint analysis has a hole.
    pub footprint_violations: u64,
}

impl Stats {
    /// Every counter as a `(name, value)` pair, in field order — what the
    /// `STATS` statement prints.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("statements", self.statements),
            ("triggers_fired", self.triggers_fired),
            ("rows_scanned", self.rows_scanned),
            ("index_probes", self.index_probes),
            ("build_cache_hits", self.build_cache_hits),
            ("latch_waits", self.latch_waits),
            ("latch_conflicts", self.latch_conflicts),
            ("latch_shared_acquisitions", self.latch_shared_acquisitions),
            (
                "latch_exclusive_acquisitions",
                self.latch_exclusive_acquisitions,
            ),
            ("batched_statements", self.batched_statements),
            ("frames_received", self.frames_received),
            ("frames_rejected", self.frames_rejected),
            ("pipelined_batches", self.pipelined_batches),
            ("backpressure_stalls", self.backpressure_stalls),
            ("active_connections", self.active_connections),
            ("wal_bytes_written", self.wal_bytes_written),
            ("wal_fsyncs", self.wal_fsyncs),
            ("group_commit_batches", self.group_commit_batches),
            ("checkpoints", self.checkpoints),
            ("recovery_ms", self.recovery_ms),
            ("footprint_violations", self.footprint_violations),
        ]
    }
}

/// The counters a [`Database`] keeps itself (the [`Stats`] fields of the
/// same names; the storage counters live in the storage engine). Every
/// layer reports through [`Database::bump`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// [`Stats::statements`].
    Statements,
    /// [`Stats::triggers_fired`].
    TriggersFired,
    /// [`Stats::rows_scanned`].
    RowsScanned,
    /// [`Stats::index_probes`].
    IndexProbes,
    /// [`Stats::build_cache_hits`].
    BuildCacheHits,
    /// [`Stats::latch_waits`].
    LatchWaits,
    /// [`Stats::latch_conflicts`].
    LatchConflicts,
    /// [`Stats::latch_shared_acquisitions`].
    LatchSharedAcquisitions,
    /// [`Stats::latch_exclusive_acquisitions`].
    LatchExclusiveAcquisitions,
    /// [`Stats::batched_statements`].
    BatchedStatements,
    /// [`Stats::frames_received`].
    FramesReceived,
    /// [`Stats::frames_rejected`].
    FramesRejected,
    /// [`Stats::pipelined_batches`].
    PipelinedBatches,
    /// [`Stats::backpressure_stalls`].
    BackpressureStalls,
    /// [`Stats::active_connections`] — a gauge: see [`Database::lower`].
    ActiveConnections,
    /// [`Stats::footprint_violations`].
    FootprintViolations,
}

/// Number of [`Counter`] variants (`FootprintViolations` is the last).
const COUNTERS: usize = Counter::FootprintViolations as usize + 1;

/// One table's slot in the catalog. `latch` is the table's statement
/// latch, level 2 of the session's lock hierarchy: a session write holds
/// it from admission to commit ([`Database::latch`]). `table` is the slot
/// lock each access takes for its own length ([`Database::table`]); row
/// data sits behind it as a copy-on-write `Arc<Table>`. Catalog changes
/// (create/drop/index) take `&mut Database` — the global exclusive level
/// — and never race with either.
struct TableCell {
    latch: RwLock<()>,
    table: RwLock<Arc<Table>>,
}

impl TableCell {
    /// A slot holding `table`, with a fresh latch.
    fn new(table: Arc<Table>) -> Self {
        TableCell {
            latch: RwLock::new(()),
            table: RwLock::new(table),
        }
    }

    /// The table's current version (a refcount bump).
    fn arc(&self) -> Arc<Table> {
        Arc::clone(&self.table.read().unwrap_or_else(|e| e.into_inner()))
    }
}

/// `lock`'s guard, taken without waiting if `try_lock` got it; otherwise
/// one more entry in `waits`, and the wait. A latch guards `()`, so its
/// poison (a panic while it was held) is ignored.
fn admit<G>(
    try_lock: TryLockResult<G>,
    lock: impl FnOnce() -> LockResult<G>,
    waits: &mut u64,
) -> G {
    match try_lock {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            *waits += 1;
            lock().unwrap_or_else(|e| e.into_inner())
        }
    }
}

/// The statement latches one session write holds (see
/// [`Database::latch`]). Dropping it releases them all — during a panic's
/// unwind too, so a cascade that panics cannot wedge other writers.
pub struct Latches<'a> {
    exclusive: Vec<RwLockWriteGuard<'a, ()>>,
    shared: Vec<RwLockReadGuard<'a, ()>>,
}

/// An in-memory relational database with statement triggers.
///
/// Every *data-change* entry point takes `&self`: per-table state lives
/// behind per-table locks (`TableCell`), so writers whose table
/// footprints are disjoint can run concurrently — the session layer
/// latches a statement's full trigger footprint ([`Database::latch`])
/// before executing it. *Catalog* changes (create/drop table, indexes,
/// trigger DDL) still take `&mut self`, which the session layer maps to
/// its global exclusive mode.
///
/// `Clone` copies tables and trigger registrations (triggers share their
/// bodies); the oracle baseline uses clones as shadow states, and the
/// session layer clones to publish concurrent read snapshots. Tables are
/// **copy-on-write** behind `Arc`, and so are the trees inside them
/// (see [`Table`]): a clone is a refcount bump per table, and a write
/// after one copies the tree path it walks — neither publishing a
/// snapshot nor the next write walks row storage.
pub struct Database {
    tables: HashMap<String, TableCell>,
    /// `Arc`-shared so publishing a read snapshot clones a pointer, not
    /// the trigger corpus; trigger DDL copies-on-write via `Arc::make_mut`.
    triggers: Arc<Vec<Arc<SqlTrigger>>>,
    trigger_names: Arc<std::collections::HashSet<String>>,
    /// Identity for the thread-local statement journal: a statement never
    /// crosses threads, but one thread may drive several database
    /// instances (oracle shadow clones), so the journal is keyed on both.
    db_id: u64,
    /// Indexed by [`Counter`]. Bumped during statement and plan execution,
    /// where only `&Database` is available, hence relaxed atomics.
    counters: [AtomicU64; COUNTERS],
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            triggers: Arc::new(Vec::new()),
            trigger_names: Arc::new(std::collections::HashSet::new()),
            db_id: NEXT_DB_ID.fetch_add(1, Ordering::Relaxed),
            counters: Default::default(),
        }
    }
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            tables: self
                .tables
                .iter()
                .map(|(name, cell)| (name.clone(), TableCell::new(cell.arc())))
                .collect(),
            triggers: Arc::clone(&self.triggers),
            trigger_names: Arc::clone(&self.trigger_names),
            db_id: NEXT_DB_ID.fetch_add(1, Ordering::Relaxed),
            counters: std::array::from_fn(|i| {
                AtomicU64::new(self.counters[i].load(Ordering::Relaxed))
            }),
        }
    }
}

/// Shared read access to one table, holding its slot lock for the
/// guard's lifetime. Dereferences to [`Table`].
pub struct TableRef<'a>(RwLockReadGuard<'a, Arc<Table>>);

impl Deref for TableRef<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        &self.0
    }
}

/// Exclusive write access to one table, holding its slot lock for the
/// guard's lifetime. Mutably dereferencing a table still shared with a
/// clone unshares it ([`Arc::make_mut`]: a refcount bump per tree, no
/// row).
struct TableWrite<'a>(RwLockWriteGuard<'a, Arc<Table>>);

impl Deref for TableWrite<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        &self.0
    }
}

impl DerefMut for TableWrite<'_> {
    fn deref_mut(&mut self) -> &mut Table {
        Arc::make_mut(&mut self.0)
    }
}

/// Global source of database-instance ids (see [`Database::db_id`]).
static NEXT_DB_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The open statement's journal per database instance on this thread.
    /// A statement and its whole cascade run on the thread that executed
    /// it, so the journal needs no cross-thread coordination — but it must
    /// not live in the (shared) `Database`, where two threads' concurrent
    /// statements would see each other's changes; and one thread may drive
    /// several instances (oracle shadow clones), hence the key.
    static JOURNALS: RefCell<HashMap<u64, Journal>> = RefCell::new(HashMap::new());
}

/// What the open statement has done to one database so far (see
/// [`Database::statement`]): the one record its redo, its undo, its
/// cascade depth and its latched footprint are read from.
#[derive(Default)]
struct Journal {
    /// Trigger firings nested inside each other right now.
    depth: usize,
    /// One entry per `apply`, in apply order: the table, and its version
    /// before the `apply`.
    applies: Vec<(Arc<TableSchema>, u64)>,
    /// Every row an `apply` removed (`false`) or added (`true`), in the
    /// order it changed, with the index of its `apply`.
    rows: Vec<(usize, bool, Row)>,
    /// The tables a session statement latched, checked on every table
    /// access; `None` for a raw [`Database`] caller.
    footprint: Option<Latched>,
}

/// The `(write, read)` tables a session statement latched, exclusive and
/// shared. Shared, so a memoized footprint reaches the journal uncopied.
pub type Latched = Arc<(BTreeSet<String>, BTreeSet<String>)>;

/// `Put` `row` into `schema`'s table, or `Del` it by key. Replayed in
/// journal order, a statement's row changes are its redo; with `put`
/// negated and in reverse order, its undo.
fn redo_op(schema: &TableSchema, put: bool, row: &Row) -> RedoOp {
    let table = schema.name.clone();
    if put {
        RedoOp::Put {
            table,
            row: Arc::clone(row),
        }
    } else {
        RedoOp::Del {
            table,
            key: schema.key_of(row).into_vec(),
        }
    }
}

impl Journal {
    /// The changes as physical redo operations: per `apply`, its removed
    /// rows by key, then its added rows — the order it made them in, so
    /// key-reshuffling updates replay correctly.
    fn redo(&self) -> Vec<RedoOp> {
        let op = |(a, put, row): &(usize, bool, Row)| redo_op(&self.applies[*a].0, *put, row);
        self.rows.iter().map(op).collect()
    }
}

/// Puts back every change made since `mark` — `(applies, rows)` lengths,
/// or `None` for the outermost statement, which also closes the journal —
/// when dropped: on an `Err` and during a panic alike, unless kept.
struct Rollback<'a> {
    db: &'a Database,
    mark: Option<(usize, usize)>,
}

impl Rollback<'_> {
    /// Keep the statement's changes, closing the journal if it opened it.
    fn keep(self) {
        if self.mark.is_none() {
            JOURNALS.with(|m| m.borrow_mut().remove(&self.db.db_id));
        }
        std::mem::forget(self);
    }
}

impl Drop for Rollback<'_> {
    fn drop(&mut self) {
        // The journal is out of the thread-local while the rows go back,
        // so a rollback is not footprint-checked. Nothing here can fail,
        // and `drop` must not panic: a statement holds `&Database`, so no
        // table it changed can be dropped before this runs, and every row
        // put back was stored in its table before.
        let db = self.db;
        let Some(mut j) = JOURNALS.with(|m| m.borrow_mut().remove(&db.db_id)) else {
            return;
        };
        let (applies, rows) = self.mark.unwrap_or_default();
        let undo: Vec<RedoOp> = (j.rows.drain(rows..).rev())
            .map(|(a, put, row)| redo_op(&j.applies[a].0, !put, &row))
            .collect();
        let _ = db.apply_redo(&undo);
        for (schema, version) in j.applies.drain(applies..).rev() {
            if let Ok(mut t) = db.table_write(&schema.name) {
                t.restore_version(version);
            }
        }
        if self.mark.is_some() {
            JOURNALS.with(|m| m.borrow_mut().insert(db.db_id, j));
        }
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .field("triggers", &self.triggers.len())
            .finish()
    }
}

const MAX_TRIGGER_DEPTH: usize = 16;

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table. Fails if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(Error::TableExists(schema.name));
        }
        self.tables.insert(
            schema.name.clone(),
            TableCell::new(Arc::new(Table::new(schema))),
        );
        Ok(())
    }

    /// Add a secondary index on `table.column`.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let mut t = self.table_write(table)?;
        let col = t.schema().col(column)?;
        t.create_index(col);
        Ok(())
    }

    /// Drop a table and any triggers attached to it.
    pub fn drop_table(&mut self, table: &str) -> Result<()> {
        self.tables
            .remove(table)
            .ok_or_else(|| Error::UnknownTable(table.to_string()))?;
        let names = Arc::make_mut(&mut self.trigger_names);
        for t in self.triggers.iter().filter(|t| t.table == table) {
            names.remove(&t.name);
        }
        Arc::make_mut(&mut self.triggers).retain(|t| t.table != table);
        Ok(())
    }

    /// Snapshot of the execution counters: statement/trigger counts plus
    /// the executor's scan/probe observability counters and the
    /// session layer's latch/batching contention counters.
    pub fn stats(&self) -> Stats {
        let c = |k: Counter| self.counters[k as usize].load(Ordering::Relaxed);
        Stats {
            statements: c(Counter::Statements),
            triggers_fired: c(Counter::TriggersFired),
            rows_scanned: c(Counter::RowsScanned),
            index_probes: c(Counter::IndexProbes),
            latch_waits: c(Counter::LatchWaits),
            latch_conflicts: c(Counter::LatchConflicts),
            latch_shared_acquisitions: c(Counter::LatchSharedAcquisitions),
            latch_exclusive_acquisitions: c(Counter::LatchExclusiveAcquisitions),
            batched_statements: c(Counter::BatchedStatements),
            frames_received: c(Counter::FramesReceived),
            frames_rejected: c(Counter::FramesRejected),
            pipelined_batches: c(Counter::PipelinedBatches),
            backpressure_stalls: c(Counter::BackpressureStalls),
            active_connections: c(Counter::ActiveConnections),
            footprint_violations: c(Counter::FootprintViolations),
            build_cache_hits: c(Counter::BuildCacheHits),
            // Storage counters live in the storage engine; `Quark::stats`
            // merges them in when the system was opened durably.
            wal_bytes_written: 0,
            wal_fsyncs: 0,
            group_commit_batches: 0,
            checkpoints: 0,
            recovery_ms: 0,
        }
    }

    /// Add `n` to one counter. The executor, statement admission, the
    /// session layer's batcher and the `quark-server` front door all
    /// report through here.
    pub fn bump(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from a gauge ([`Counter::ActiveConnections`]: a worker
    /// finished with a connection).
    pub fn lower(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_sub(n, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Statements: one latch set and one journal each
    // ------------------------------------------------------------------

    /// Admit a session write: take the statement latch of every table in
    /// `footprint`, in name order — exclusive for its `write` set, shared
    /// for a table it only reads (a table in both is taken once,
    /// exclusive) — and hold them until the returned guard drops. Every
    /// writer takes its latches in this one order, so a writer that waits
    /// for a table while holding others can never close a cycle:
    /// admission is deadlock-free, one table at a time. A parked writer
    /// blocks newer readers of its table (std's `RwLock` admits a waiting
    /// writer before later readers), so a busy read table cannot starve
    /// it. A name with no table is skipped: a statement that touches it
    /// fails with [`Error::UnknownTable`], and an action's declared write
    /// to a table not created yet latches nothing until it exists.
    ///
    /// Bumps [`Stats::latch_conflicts`] once if any table was busy,
    /// [`Stats::latch_waits`] per table it blocked on, and the shared and
    /// exclusive acquisition counters by the footprint's set sizes.
    pub fn latch(&self, footprint: &Latched) -> Latches<'_> {
        let (write, read) = &**footprint;
        let mut held = Latches {
            exclusive: Vec::with_capacity(write.len()),
            shared: Vec::with_capacity(read.len()),
        };
        let (mut read_only, mut waits) = (0, 0);
        for name in write.union(read) {
            let exclusive = write.contains(name);
            read_only += u64::from(!exclusive);
            let Some(cell) = self.tables.get(name) else {
                continue;
            };
            let latch = &cell.latch;
            if exclusive {
                let guard = admit(latch.try_write(), || latch.write(), &mut waits);
                held.exclusive.push(guard);
            } else {
                let guard = admit(latch.try_read(), || latch.read(), &mut waits);
                held.shared.push(guard);
            }
        }
        self.bump(Counter::LatchConflicts, u64::from(waits > 0));
        self.bump(Counter::LatchWaits, waits);
        self.bump(Counter::LatchSharedAcquisitions, read_only);
        self.bump(Counter::LatchExclusiveAcquisitions, write.len() as u64);
        held
    }

    /// Run `f` as one statement, cascade included, recording every row
    /// change in this thread's journal for this database as it happens.
    /// On `Ok`, the commit step, if there is one, receives the statement's
    /// changes as physical redo ops while they can still be undone (a
    /// durable session appends them to the write-ahead log here). On an
    /// `Err` or a panic — from `f` (an action's error, the cascade-depth
    /// cap, a duplicate key part-way through a multi-row `INSERT`) or from
    /// `commit` — the journal is replayed backward, leaving every table as
    /// the statement found it, version included, with nothing to publish.
    /// Every data-change entry point runs itself this way, with no commit
    /// step, so a raw [`Database`] caller's statements are atomic too.
    ///
    /// A statement started while one is open here — a cascade's own —
    /// joins it and never calls `commit`; if it fails, it puts back only
    /// its own changes, before its error reaches the trigger body.
    ///
    /// `footprint` holds the `(write, read)` tables the caller latched
    /// exclusive and shared. Every table access in `f` must be covered by
    /// them (a mutation by `write`): one that is not fails with
    /// [`Error::OutsideFootprint`] before it touches the table, so the
    /// statement fails and is undone like any other.
    pub fn statement<T, E>(
        &self,
        footprint: &Latched,
        f: impl FnOnce() -> Result<T, E>,
        commit: Option<impl FnOnce(&[RedoOp]) -> Result<(), E>>,
    ) -> Result<T, E> {
        let rollback = self.begin(|| Journal {
            footprint: Some(Arc::clone(footprint)),
            ..Journal::default()
        });
        let out = f()?;
        if let (None, Some(commit)) = (rollback.mark, commit) {
            commit(&self.journal(|j| j.redo()))?;
        }
        rollback.keep();
        Ok(out)
    }

    /// Open this thread's journal for this database — the one `fresh`
    /// builds — or join the one already open, and arm the rollback of
    /// every change made from here on.
    fn begin(&self, fresh: impl FnOnce() -> Journal) -> Rollback<'_> {
        let mark = JOURNALS.with(|m| match m.borrow_mut().entry(self.db_id) {
            Entry::Occupied(open) => Some((open.get().applies.len(), open.get().rows.len())),
            Entry::Vacant(slot) => {
                slot.insert(fresh());
                None
            }
        });
        Rollback { db: self, mark }
    }

    /// Run `edit` on this thread's open journal for this database.
    fn journal<R>(&self, edit: impl FnOnce(&mut Journal) -> R) -> R {
        JOURNALS.with(|m| edit(m.borrow_mut().get_mut(&self.db_id).expect("in a statement")))
    }

    /// Refuse accessing the existing table `name` (mutating or reading)
    /// unless the footprint of the statement open on this thread for this
    /// database instance covers it: a miss bumps `footprint_violations`
    /// and fails with [`Error::OutsideFootprint`]. Outside a session
    /// statement — programmatic access, oracle shadow clones, recovery
    /// replay, a rollback — nothing is checked. A table that does not
    /// exist is `UnknownTable` before this runs: no footprint — not even
    /// an unbounded statement's "every table" — can name it.
    fn check_access(&self, name: &str, mutating: bool) -> Result<()> {
        let covered = JOURNALS.with(|m| {
            let journal = m.borrow();
            match journal
                .get(&self.db_id)
                .and_then(|j| j.footprint.as_deref())
            {
                None => true,
                Some((write, read)) => write.contains(name) || (!mutating && read.contains(name)),
            }
        });
        if covered {
            return Ok(());
        }
        self.bump(Counter::FootprintViolations, 1);
        Err(Error::OutsideFootprint {
            table: name.to_string(),
            write: mutating,
        })
    }

    // ------------------------------------------------------------------
    // Redo replay (recovery, and a failed statement's rollback)
    // ------------------------------------------------------------------

    /// Apply a batch of redo operations verbatim: no triggers fire,
    /// nothing is journaled, and operations are idempotent (`Put` upserts,
    /// `Del` of a missing key is a no-op). Recovery replays committed WAL
    /// batches through here — the cascade's effects were logged physically
    /// when it ran, so re-firing triggers would double-apply them.
    pub fn apply_redo(&self, ops: &[RedoOp]) -> Result<()> {
        for op in ops {
            match op {
                RedoOp::Put { table, row } => {
                    let mut t = self.table_write(table)?;
                    let key = t.schema().key_of(row);
                    t.delete(&key);
                    t.insert(row.to_vec())?;
                }
                RedoOp::Del { table, key } => {
                    self.table_write(table)?.delete(key);
                }
            }
        }
        Ok(())
    }

    /// Look up a table, taking its slot lock in shared mode for the
    /// guard's lifetime. Uncontended in practice: concurrent access to the
    /// *same* table's slot only happens when a raw [`Database`] reference
    /// is read while a latched writer runs (reads through the session
    /// surface use published snapshots, which are separate instances).
    /// Inside a session statement, a table outside its latched footprint
    /// is refused with [`Error::OutsideFootprint`].
    pub fn table(&self, name: &str) -> Result<TableRef<'_>> {
        let cell = self.cell(name)?;
        self.check_access(name, false)?;
        Ok(TableRef(
            cell.table.read().unwrap_or_else(|e| e.into_inner()),
        ))
    }

    /// Exclusive table access, copy-on-write: a table still shared with a
    /// clone (a published read snapshot) is unshared on first mutable
    /// dereference and then copies the tree nodes it changes, so writers
    /// never mutate storage a snapshot reader is walking. Mutual exclusion
    /// between whole *statements* on the same table is the statement
    /// latch's job ([`Database::latch`]); this lock only protects the slot
    /// itself.
    fn table_write(&self, name: &str) -> Result<TableWrite<'_>> {
        let cell = self.cell(name)?;
        self.check_access(name, true)?;
        Ok(TableWrite(
            cell.table.write().unwrap_or_else(|e| e.into_inner()),
        ))
    }

    /// The slot of table `name`.
    fn cell(&self, name: &str) -> Result<&TableCell> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Replace this database's versions of `tables` with `from`'s current
    /// ones (a refcount bump per table; missing tables are skipped). The
    /// session layer folds a committed writer's footprint into the
    /// published snapshot this way — an `Arc` swap per table instead of a
    /// full-state clone.
    pub fn adopt_tables_from<I, S>(&mut self, from: &Database, tables: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for t in tables {
            let name = t.as_ref();
            if let Some(src) = from.tables.get(name) {
                self.tables
                    .insert(name.to_string(), TableCell::new(src.arc()));
            }
        }
    }

    /// `true` if `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    // ------------------------------------------------------------------
    // Triggers
    // ------------------------------------------------------------------

    /// Register a statement-level AFTER trigger.
    pub fn create_trigger(&mut self, trigger: SqlTrigger) -> Result<()> {
        if self.trigger_names.contains(&trigger.name) {
            return Err(Error::TriggerExists(trigger.name));
        }
        self.table(&trigger.table)?;
        Arc::make_mut(&mut self.trigger_names).insert(trigger.name.clone());
        Arc::make_mut(&mut self.triggers).push(Arc::new(trigger));
        Ok(())
    }

    /// Remove a trigger by name.
    pub fn drop_trigger(&mut self, name: &str) -> Result<()> {
        if !Arc::make_mut(&mut self.trigger_names).remove(name) {
            return Err(Error::UnknownTrigger(name.to_string()));
        }
        Arc::make_mut(&mut self.triggers).retain(|t| t.name != name);
        Ok(())
    }

    /// `true` if a SQL trigger named `name` is registered.
    pub fn has_trigger(&self, name: &str) -> bool {
        self.trigger_names.contains(name)
    }

    /// Number of registered SQL triggers (the paper's scalability axis).
    pub fn trigger_count(&self) -> usize {
        self.triggers.len()
    }

    /// Iterate the registered SQL triggers (name/table/event inspection —
    /// the footprint analysis of the session layer walks these).
    pub fn triggers(&self) -> impl Iterator<Item = &SqlTrigger> {
        self.triggers.iter().map(Arc::as_ref)
    }

    // ------------------------------------------------------------------
    // Statements (each fires AFTER triggers once)
    // ------------------------------------------------------------------
    //
    // Every entry point selects its target rows — by key, or through
    // `select_rows` — and hands them to `apply`, the one place a statement
    // changes rows, journals them and fires.

    /// `INSERT INTO table VALUES rows…` as one statement: on a duplicate
    /// key or an ill-typed row, no row is inserted and no trigger fires.
    pub fn insert(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let t = self.table_write(table)?;
        self.apply(t, Some(Event::Insert), Vec::new(), rows)
    }

    /// Single-row insert convenience.
    pub fn insert_row(&self, table: &str, row: Vec<Value>) -> Result<()> {
        self.insert(table, vec![row]).map(|_| ())
    }

    /// `UPDATE table SET … WHERE pk = key` as one statement. `assignments`
    /// are `(column index, new value)` pairs. Returns `false` when no row
    /// has that key.
    pub fn update_by_key(
        &self,
        table: &str,
        key: &[Value],
        assignments: &[(usize, Value)],
    ) -> Result<bool> {
        let t = self.table_write(table)?;
        let old = self.row_by_key(&t, key);
        let assignments: Vec<(usize, Expr)> = assignments
            .iter()
            .map(|(col, v)| (*col, Expr::Lit(v.clone())))
            .collect();
        Ok(self.update_rows(t, old, &assignments)? > 0)
    }

    /// `UPDATE table SET col = expr, … WHERE pred` as one statement, with
    /// both the predicate and the assignment right-hand sides as
    /// [`Expr`]essions over the *pre-update* row.
    ///
    /// Updates apply *simultaneously* (standard SQL statement semantics):
    /// all affected rows are removed, then all replacements inserted, so a
    /// key-reshuffling UPDATE (`SET id = id + 1`) does not depend on apply
    /// order. Evaluation errors and key collisions abort the statement
    /// atomically — no rows change and no triggers fire.
    pub fn update_expr(
        &self,
        table: &str,
        pred: Option<&Expr>,
        assignments: &[(usize, Expr)],
    ) -> Result<usize> {
        let t = self.table_write(table)?;
        let old = self.select_rows(&t, pred)?;
        self.update_rows(t, old, assignments)
    }

    /// Replace each of `old` by itself with `assignments` evaluated over it.
    fn update_rows(
        &self,
        t: TableWrite<'_>,
        old: Vec<Row>,
        assignments: &[(usize, Expr)],
    ) -> Result<usize> {
        let schema = t.schema();
        if let Some((col, _)) = assignments.iter().find(|(c, _)| *c >= schema.arity()) {
            return Err(Error::UnknownColumn(schema.name.clone(), col.to_string()));
        }
        let mut new = Vec::with_capacity(old.len());
        for r in &old {
            let mut next: Vec<Value> = r.to_vec();
            for (col, e) in assignments {
                next[*col] = e.eval(r)?;
            }
            new.push(next);
        }
        self.apply(t, Some(Event::Update), old, new)
    }

    /// `DELETE FROM table WHERE pred` as one statement, with the predicate
    /// as an [`Expr`]ession. Evaluation errors abort the statement before
    /// any row changes.
    pub fn delete_expr(&self, table: &str, pred: Option<&Expr>) -> Result<usize> {
        let t = self.table_write(table)?;
        let old = self.select_rows(&t, pred)?;
        self.apply(t, Some(Event::Delete), old, Vec::new())
    }

    /// `DELETE FROM table WHERE pk = key` as one statement.
    pub fn delete_by_key(&self, table: &str, key: &[Value]) -> Result<bool> {
        let t = self.table_write(table)?;
        let old = self.row_by_key(&t, key);
        Ok(self.apply(t, Some(Event::Delete), old, Vec::new())? > 0)
    }

    /// Bulk load without firing triggers (initial data population, like
    /// loading a warehouse before enabling triggers). All-or-nothing like
    /// [`Database::insert`].
    pub fn load(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let t = self.table_write(table)?;
        self.apply(t, None, Vec::new(), rows)
    }

    /// Maintenance deletion without firing triggers — the mirror of
    /// [`Database::load`], used for internal bookkeeping tables (e.g.
    /// removing a stale constants-table row when a grouped trigger leaves
    /// its set). Returns the number of rows removed.
    pub fn unload_where(&self, table: &str, pred: &Expr) -> Result<usize> {
        let t = self.table_write(table)?;
        let old = self.select_rows(&t, Some(pred))?;
        self.apply(t, None, old, Vec::new())
    }

    /// The row with primary key `key`, if any, as a selection of one probe.
    fn row_by_key(&self, t: &Table, key: &[Value]) -> Vec<Row> {
        self.bump(Counter::IndexProbes, 1);
        t.get(key).cloned().into_iter().collect()
    }

    /// The one row selection behind `SELECT`, `UPDATE` and `DELETE`: the
    /// rows of `t` satisfying `pred` (`None` = all), in primary-key order.
    /// A predicate that is an equality on the whole primary key or on one
    /// indexed column is answered by a probe — the probe is exactly the
    /// predicate, so no residual evaluation is needed; anything else scans.
    pub(crate) fn select_rows(&self, t: &Table, pred: Option<&Expr>) -> Result<Vec<Row>> {
        if let Some(rows) = pred.and_then(|p| probe(t, p)) {
            self.bump(Counter::IndexProbes, 1);
            return Ok(rows);
        }
        self.bump(Counter::RowsScanned, t.len() as u64);
        let mut rows = Vec::new();
        for r in t.iter() {
            let keep = match pred {
                Some(p) => p.eval(r)?.is_true(),
                None => true,
            };
            if keep {
                rows.push(Arc::clone(r));
            }
        }
        Ok(rows)
    }

    /// The one place a statement changes rows: remove every row of `old`
    /// (selected from `t` under this same guard), then insert every row of
    /// `new`, journaling the rows as they change. Then, once per statement:
    /// the statement counter and AFTER-trigger dispatch with the
    /// statement's transition tables. `event: None` is maintenance
    /// (`load`/`unload_where`): journaled, so logged, but neither counted
    /// nor fired. A failed insertion — duplicate key against an untouched
    /// row or another new row, or a type mismatch — fails the statement,
    /// and [`Database::statement`] puts every row back. Returns the number
    /// of rows affected.
    fn apply(
        &self,
        mut t: TableWrite<'_>,
        event: Option<Event>,
        old: Vec<Row>,
        new: Vec<Vec<Value>>,
    ) -> Result<usize> {
        let body = move || -> Result<usize> {
            let schema = t.schema_ref();
            let version = t.version();
            for row in &old {
                t.delete(&schema.key_of(row)).expect("selected row exists");
            }
            let mut inserted = Vec::with_capacity(new.len());
            let failed = new
                .into_iter()
                .try_for_each(|v| t.insert(v).map(|row| inserted.push(row)));
            // Triggers run against the post-statement state and may change
            // this very table: the latch is released before they fire.
            drop(t);
            self.journal(|j| {
                let at = j.applies.len();
                j.applies.push((Arc::clone(&schema), version));
                let removed = old.iter().map(|r| (at, false, Arc::clone(r)));
                let added = inserted.iter().map(|r| (at, true, Arc::clone(r)));
                j.rows.extend(removed.chain(added));
            });
            failed?;
            let affected = old.len().max(inserted.len());
            if let Some(event) = event {
                self.bump(Counter::Statements, 1);
                if affected > 0 && self.listeners(&schema.name, event).next().is_some() {
                    self.after_statement(TransitionTables {
                        table: schema.name.clone(),
                        event,
                        inserted,
                        deleted: old,
                    })?;
                }
            }
            Ok(affected)
        };
        let rollback = self.begin(Journal::default);
        let affected = body()?;
        rollback.keep();
        Ok(affected)
    }

    // ------------------------------------------------------------------
    // Trigger dispatch
    // ------------------------------------------------------------------

    /// The SQL triggers that fire on `event` against `table`, in creation
    /// order. A statement with none builds no transition tables.
    fn listeners<'a>(
        &'a self,
        table: &'a str,
        event: Event,
    ) -> impl Iterator<Item = &'a Arc<SqlTrigger>> + 'a {
        self.triggers
            .iter()
            .filter(move |t| t.table == table && t.event == event)
    }

    /// Fire the statement's listeners; there is at least one.
    fn after_statement(&self, trans: TransitionTables) -> Result<()> {
        let admitted = self.journal(|j| {
            j.depth += 1;
            j.depth <= MAX_TRIGGER_DEPTH
        });
        // A panicking body skips the decrement, but the panic unwinds
        // through the outermost statement, which drops the journal.
        let fired = if admitted {
            self.listeners(&trans.table, trans.event).try_for_each(|t| {
                self.bump(Counter::TriggersFired, 1);
                (t.body)(self, &trans)
            })
        } else {
            Err(Error::TriggerDepthExceeded)
        };
        self.journal(|j| j.depth -= 1);
        fired
    }
}

/// Collect `(column, literal)` pairs when `pred` is a pure conjunction of
/// `col = literal` equalities (either operand order). Rejects duplicate
/// columns and NULL/NaN literals, whose SQL comparison semantics (`NULL =
/// NULL` is unknown, `NaN` compares to nothing) differ from the total
/// key-equality an index probe would apply.
fn equality_pairs(pred: &Expr, out: &mut Vec<(usize, Value)>) -> bool {
    match pred {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => equality_pairs(left, out) && equality_pairs(right, out),
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            let (col, lit) = match (left.as_ref(), right.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => (*c, v),
                _ => return false,
            };
            if lit.is_null() || matches!(lit, Value::Double(d) if d.is_nan()) {
                return false;
            }
            if out.iter().any(|(seen, _)| *seen == col) {
                return false;
            }
            out.push((col, lit.clone()));
            true
        }
        _ => false,
    }
}

/// A probe literal is only equivalent to the predicate's SQL comparison
/// when its type lines up with the column's declared type (numerics are
/// interchangeable: storage order and hashing unify `Int`/`Double`).
/// Cross-kind comparisons like `str_col = 5` atomize in SQL but would
/// miss under key equality, so they fall back to the scan path.
fn probe_compatible(lit: &Value, ty: ColumnType) -> bool {
    matches!(
        (lit, ty),
        (
            Value::Int(_) | Value::Double(_),
            ColumnType::Int | ColumnType::Double
        ) | (Value::Str(_), ColumnType::Str)
            | (Value::Bool(_), ColumnType::Bool)
    )
}

/// The rows matching an indexed-equality predicate, in primary-key order:
/// the equalities cover the full primary key (one PK probe) or a single
/// secondary-indexed column (one index probe). `None` when the predicate
/// is not probeable — the caller scans.
fn probe(t: &Table, pred: &Expr) -> Option<Vec<Row>> {
    let mut pairs = Vec::new();
    if !equality_pairs(pred, &mut pairs) {
        return None;
    }
    let schema = t.schema();
    if pairs
        .iter()
        .any(|(c, v)| *c >= schema.arity() || !probe_compatible(v, schema.columns[*c].ty))
    {
        return None;
    }
    let pk = &schema.primary_key;
    if pairs.len() == pk.len() {
        let key: Option<Key> = pk
            .iter()
            .map(|c| pairs.iter().find(|(pc, _)| pc == c).map(|(_, v)| v.clone()))
            .collect();
        if let Some(key) = key {
            return Some(t.get(&key).cloned().into_iter().collect());
        }
    }
    if let [(col, value)] = pairs.as_slice() {
        if t.has_index(*col) {
            let rows = t.index_lookup(*col, value).ok()?;
            return Some(rows.into_iter().cloned().collect());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PhysicalPlan, PlanOp, TransitionSide};
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;
    use std::thread;
    use std::time::Duration;

    fn db_with_vendor() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "vendor",
                vec![
                    ColumnDef::new("vid", ColumnType::Str),
                    ColumnDef::new("pid", ColumnType::Str),
                    ColumnDef::new("price", ColumnType::Double),
                ],
                &["vid", "pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn vrow(vid: &str, pid: &str, price: f64) -> Vec<Value> {
        vec![Value::str(vid), Value::str(pid), Value::Double(price)]
    }

    /// A statement footprint writing `write` and reading `read`.
    fn latched(write: &[&str], read: &[&str]) -> Latched {
        let set = |tables: &[&str]| tables.iter().map(|t| t.to_string()).collect();
        Arc::new((set(write), set(read)))
    }

    /// `SELECT * FROM table WHERE pred`, with the index probes and the
    /// scanned rows it cost.
    fn select(db: &Database, table: &str, pred: &Expr) -> (Vec<Row>, u64, u64) {
        let before = db.stats();
        let rows = db
            .select_rows(&db.table(table).unwrap(), Some(pred))
            .unwrap();
        let after = db.stats();
        (
            rows,
            after.index_probes - before.index_probes,
            after.rows_scanned - before.rows_scanned,
        )
    }

    #[test]
    fn insert_statement_fires_insert_trigger_with_delta() {
        let mut db = db_with_vendor();
        let seen = Arc::new(Mutex::new(Vec::<usize>::new()));
        let seen2 = Arc::clone(&seen);
        db.create_trigger(SqlTrigger {
            name: "t1".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: Arc::new(move |_db, trans| {
                seen2.lock().unwrap().push(trans.inserted.len());
                assert!(trans.deleted.is_empty());
                Ok(())
            }),
        })
        .unwrap();
        // One statement inserting two rows -> one firing with |Δ| = 2.
        db.insert("vendor", vec![vrow("a", "P1", 1.0), vrow("b", "P1", 2.0)])
            .unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![2]);
        // Wrong-event triggers don't fire.
        db.update_by_key(
            "vendor",
            &[Value::str("a"), Value::str("P1")],
            &[(2, Value::Double(9.0))],
        )
        .unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![2]);
    }

    #[test]
    fn update_statement_provides_old_and_new_rows() {
        let mut db = db_with_vendor();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        let seen = Arc::new(Mutex::new(Vec::<(Value, Value)>::new()));
        let seen2 = Arc::clone(&seen);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Update,
            body: Arc::new(move |_db, trans| {
                seen2
                    .lock()
                    .unwrap()
                    .push((trans.deleted[0][2].clone(), trans.inserted[0][2].clone()));
                Ok(())
            }),
        })
        .unwrap();
        db.update_by_key(
            "vendor",
            &[Value::str("a"), Value::str("P1")],
            &[(2, Value::Double(7.5))],
        )
        .unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![(Value::Double(1.0), Value::Double(7.5))]
        );
    }

    #[test]
    fn query_trigger_reads_transition_scan() {
        let mut db = db_with_vendor();
        db.create_table(
            TableSchema::new(
                "log",
                vec![ColumnDef::new("vid", ColumnType::Str)],
                &["vid"],
            )
            .unwrap(),
        )
        .unwrap();
        let plan = PhysicalPlan::new(
            PlanOp::Project {
                exprs: vec![crate::expr::Expr::col(0)],
            },
            vec![PhysicalPlan::new(
                PlanOp::TransitionScan {
                    table: "vendor".into(),
                    side: TransitionSide::Delta,
                    pruned: false,
                },
                vec![],
            )
            .into_ref()],
        )
        .into_ref();
        db.create_trigger(SqlTrigger {
            name: "log_inserts".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: Arc::new(move |db, trans| {
                for r in crate::exec::execute_with_transitions(db, &plan, trans)? {
                    db.insert_row("log", r.to_vec())?;
                }
                Ok(())
            }),
        })
        .unwrap();
        db.insert("vendor", vec![vrow("a", "P1", 1.0), vrow("b", "P2", 2.0)])
            .unwrap();
        assert_eq!(db.table("log").unwrap().len(), 2);
    }

    #[test]
    fn load_does_not_fire_triggers() {
        let mut db = db_with_vendor();
        let fired = Arc::new(Mutex::new(0u32));
        let fired2 = Arc::clone(&fired);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: Arc::new(move |_, _| {
                *fired2.lock().unwrap() += 1;
                Ok(())
            }),
        })
        .unwrap();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        assert_eq!(*fired.lock().unwrap(), 0);
    }

    #[test]
    fn cascades_are_depth_limited() {
        let mut db = db_with_vendor();
        db.create_table(
            TableSchema::new("ping", vec![ColumnDef::new("n", ColumnType::Int)], &["n"]).unwrap(),
        )
        .unwrap();
        // Trigger re-inserts into the same table with n+1: unbounded cascade.
        db.create_trigger(SqlTrigger {
            name: "loop".into(),
            table: "ping".into(),
            event: Event::Insert,
            body: Arc::new(|db, trans| {
                let Value::Int(n) = trans.inserted[0][0] else {
                    unreachable!()
                };
                db.insert_row("ping", vec![Value::Int(n + 1)])
            }),
        })
        .unwrap();
        let err = db.insert_row("ping", vec![Value::Int(0)]).unwrap_err();
        assert_eq!(err, Error::TriggerDepthExceeded);
        assert!(
            db.table("ping").unwrap().is_empty(),
            "the cascade is undone"
        );
    }

    /// A statement and its cascade are undone whole on an `Err` and on a
    /// panic, versions included; a cascade statement whose error its
    /// trigger body swallows is undone alone, and the enclosing statement
    /// commits without it.
    #[test]
    fn statements_are_undone_whole_and_joined_ones_alone() {
        let mut db = db_with_vendor();
        db.create_table(
            TableSchema::new("log", vec![ColumnDef::new("n", ColumnType::Int)], &["n"]).unwrap(),
        )
        .unwrap();
        db.load("log", vec![vec![Value::Int(0)]]).unwrap();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        let mode = Arc::new(Mutex::new("swallow"));
        let mode2 = Arc::clone(&mode);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Update,
            body: Arc::new(move |db, _| {
                db.insert_row("log", vec![Value::Int(1)])?;
                // Row 2 goes in, then the duplicate 0 fails the statement.
                let dup = db.insert("log", vec![vec![Value::Int(2)], vec![Value::Int(0)]]);
                let mode = *mode2.lock().unwrap();
                match mode {
                    "swallow" => Ok(()),
                    "err" => dup.map(|_| ()),
                    _ => panic!("injected"),
                }
            }),
        })
        .unwrap();
        let observe = |db: &Database| {
            ["vendor", "log"].map(|name| {
                let t = db.table(name).unwrap();
                (t.version(), t.iter().cloned().collect::<Vec<_>>())
            })
        };
        let key = [Value::str("a"), Value::str("P1")];
        let update = |price: f64| db.update_by_key("vendor", &key, &[(2, Value::Double(price))]);
        let start = observe(&db);
        *mode.lock().unwrap() = "err";
        assert!(matches!(update(2.0), Err(Error::DuplicateKey { .. })));
        assert_eq!(observe(&db), start, "undone on an error");
        *mode.lock().unwrap() = "panic";
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| update(3.0)));
        assert!(unwound.is_err());
        assert_eq!(observe(&db), start, "undone on a panic");

        *mode.lock().unwrap() = "swallow";
        let mut redo = Vec::new();
        let keep = |ops: &[RedoOp]| {
            redo = ops.to_vec();
            Ok(())
        };
        let all = latched(&["vendor", "log"], &[]);
        db.statement(&all, || update(4.0), Some(keep)).unwrap();
        let log: Vec<Row> = db.table("log").unwrap().iter().cloned().collect();
        assert_eq!(log, [0, 1].map(|n| crate::row(vec![Value::Int(n)])));
        let ops: Vec<(&str, String)> = (redo.into_iter())
            .map(|op| match op {
                RedoOp::Del { table, .. } => ("Del", table),
                RedoOp::Put { table, .. } => ("Put", table),
            })
            .collect();
        let logged = [("Del", "vendor"), ("Put", "vendor"), ("Put", "log")];
        assert_eq!(ops, logged.map(|(op, t)| (op, t.to_string())));
    }

    /// Inside a statement, a table outside its footprint is refused before
    /// it is touched — a read unless latched at all, a write unless
    /// latched exclusive — and the statement is undone without reaching
    /// its commit step; a missing table is `UnknownTable`, not a
    /// violation, and a raw caller is not checked.
    #[test]
    fn an_access_outside_the_footprint_fails_the_statement() {
        let mut db = db_with_vendor();
        db.create_table(
            TableSchema::new("log", vec![ColumnDef::new("n", ColumnType::Int)], &["n"]).unwrap(),
        )
        .unwrap();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Update,
            body: Arc::new(|db, _| {
                let n = db.table("log")?.len() as i64;
                db.insert_row("log", vec![Value::Int(n)])?;
                db.table("nowhere").map(|_| ())
            }),
        })
        .unwrap();
        let key = [Value::str("a"), Value::str("P1")];
        let update = || db.update_by_key("vendor", &key, &[(2, Value::Double(2.0))]);
        let never = |_: &[RedoOp]| -> Result<()> { panic!("a refused statement commits") };
        let start = db.table("vendor").unwrap().version();
        let outside = |table: &str, write| Error::OutsideFootprint {
            table: table.into(),
            write,
        };
        let read = db.statement(&latched(&["vendor"], &[]), update, Some(never));
        assert_eq!(read, Err(outside("log", false)));
        let write = db.statement(&latched(&["vendor"], &["log"]), update, Some(never));
        assert_eq!(write, Err(outside("log", true)));
        assert_eq!(db.stats().footprint_violations, 2);
        assert_eq!(db.table("vendor").unwrap().version(), start, "undone");
        assert!(db.table("log").unwrap().is_empty(), "no row; a raw read");

        let both = latched(&["vendor", "log"], &[]);
        let missing = db.statement(&both, update, Some(never));
        assert_eq!(missing, Err(Error::UnknownTable("nowhere".into())));
        assert_eq!(db.stats().footprint_violations, 2);
    }

    /// A statement whose commit step fails — by an `Err` or by a panic —
    /// is undone whole, its cascade's writes and every version included;
    /// the statements of a cascade join the open one and never reach a
    /// commit step of their own.
    #[test]
    fn a_failed_commit_step_undoes_the_statement_and_its_cascade() {
        let mut db = db_with_vendor();
        db.create_table(
            TableSchema::new("log", vec![ColumnDef::new("n", ColumnType::Int)], &["n"]).unwrap(),
        )
        .unwrap();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        let joined_commits = Arc::new(Mutex::new(0));
        let joined = Arc::clone(&joined_commits);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Update,
            body: Arc::new(move |db, _| {
                let n = db.table("log")?.len() as i64;
                let insert = || db.insert_row("log", vec![Value::Int(n)]);
                let commit = |_: &[RedoOp]| {
                    *joined.lock().unwrap() += 1;
                    Ok(())
                };
                db.statement(&latched(&["log"], &[]), insert, Some(commit))
            }),
        })
        .unwrap();
        let observe = |db: &Database| {
            ["vendor", "log"].map(|name| {
                let t = db.table(name).unwrap();
                (t.version(), t.iter().cloned().collect::<Vec<_>>())
            })
        };
        let all = latched(&["vendor", "log"], &[]);
        let key = [Value::str("a"), Value::str("P1")];
        let update = |price: f64| db.update_by_key("vendor", &key, &[(2, Value::Double(price))]);
        let start = observe(&db);

        let full = Error::Storage("disk full".into());
        let refuse = |ops: &[RedoOp]| {
            assert_eq!(ops.len(), 3, "the update's Del and Put, the cascade's Put");
            Err(full.clone())
        };
        let refused = db.statement(&all, || update(2.0), Some(refuse));
        assert_eq!(refused, Err(full));
        assert_eq!(observe(&db), start, "undone on a commit error");
        let panics = |_: &[RedoOp]| panic!("injected");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.statement(&all, || update(3.0), Some(panics))
        }));
        assert!(unwound.is_err());
        assert_eq!(observe(&db), start, "undone on a commit panic");

        let mut logged = 0;
        let count = |ops: &[RedoOp]| {
            logged = ops.len();
            Ok(())
        };
        db.statement(&all, || update(4.0), Some(count)).unwrap();
        assert_eq!(logged, 3);
        assert_eq!(db.table("log").unwrap().len(), 1);
        assert_eq!(
            *joined_commits.lock().unwrap(),
            0,
            "joined statements never commit"
        );
    }

    #[test]
    fn duplicate_trigger_names_rejected_and_droppable() {
        let mut db = db_with_vendor();
        let body: Arc<NativeTriggerFn> = Arc::new(|_, _| Ok(()));
        let t = SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: body.clone(),
        };
        db.create_trigger(t.clone()).unwrap();
        assert!(matches!(db.create_trigger(t), Err(Error::TriggerExists(_))));
        assert_eq!(db.trigger_count(), 1);
        db.drop_trigger("t").unwrap();
        assert_eq!(db.trigger_count(), 0);
        assert!(matches!(
            db.drop_trigger("t"),
            Err(Error::UnknownTrigger(_))
        ));
    }

    #[test]
    fn update_expr_probes_primary_key_equality() {
        let db = db_with_vendor();
        db.load("vendor", vec![vrow("a", "P1", 1.0), vrow("b", "P1", 2.0)])
            .unwrap();
        let pred = Expr::bin(
            BinOp::And,
            Expr::eq(Expr::col(0), Expr::lit("a")),
            Expr::eq(Expr::col(1), Expr::lit("P1")),
        );
        let (rows, probes, scanned) = select(&db, "vendor", &pred);
        assert_eq!(rows, vec![crate::row(vrow("a", "P1", 1.0))]);
        assert_eq!((probes, scanned), (1, 0), "SELECT probes, no scan");
        let before = db.stats();
        let double = Expr::bin(BinOp::Mul, Expr::col(2), Expr::lit(2.0));
        let n = db
            .update_expr("vendor", Some(&pred), &[(2, double)])
            .unwrap();
        assert_eq!(n, 1);
        let after = db.stats();
        assert_eq!(after.rows_scanned, before.rows_scanned, "no scan");
        assert!(after.index_probes > before.index_probes);
        assert_eq!(
            db.table("vendor")
                .unwrap()
                .get(&[Value::str("a"), Value::str("P1")])
                .unwrap()[2],
            Value::Double(2.0)
        );
    }

    #[test]
    fn delete_expr_probes_secondary_index() {
        let mut db = db_with_vendor();
        db.create_index("vendor", "pid").unwrap();
        db.load(
            "vendor",
            vec![
                vrow("a", "P1", 1.0),
                vrow("b", "P1", 2.0),
                vrow("c", "P2", 3.0),
            ],
        )
        .unwrap();
        let pred = Expr::eq(Expr::col(1), Expr::lit("P1"));
        let (rows, probes, scanned) = select(&db, "vendor", &pred);
        assert_eq!(
            rows,
            vec![
                crate::row(vrow("a", "P1", 1.0)),
                crate::row(vrow("b", "P1", 2.0))
            ],
            "key order"
        );
        assert_eq!((probes, scanned), (1, 0), "SELECT probes, no scan");
        let before = db.stats();
        let n = db.delete_expr("vendor", Some(&pred)).unwrap();
        assert_eq!(n, 2);
        let after = db.stats();
        assert_eq!(after.rows_scanned, before.rows_scanned, "no scan");
        assert!(after.index_probes > before.index_probes);
        assert_eq!(db.table("vendor").unwrap().len(), 1);
    }

    #[test]
    fn probe_fast_path_skips_null_and_type_mismatched_literals() {
        let db = db_with_vendor();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        let before = db.stats();
        // `vid = NULL` is unknown for every row: must delete nothing (a
        // naive key probe on the NULL literal would behave differently).
        let pred = Expr::bin(
            BinOp::And,
            Expr::eq(Expr::col(0), Expr::lit(Value::Null)),
            Expr::eq(Expr::col(1), Expr::lit("P1")),
        );
        assert_eq!(select(&db, "vendor", &pred), (vec![], 0, 1));
        assert_eq!(db.delete_expr("vendor", Some(&pred)).unwrap(), 0);
        // A numeric literal against a string key column falls back to the
        // scan path, where SQL atomization applies.
        let pred = Expr::bin(
            BinOp::And,
            Expr::eq(Expr::col(0), Expr::lit(5i64)),
            Expr::eq(Expr::col(1), Expr::lit("P1")),
        );
        assert_eq!(select(&db, "vendor", &pred), (vec![], 0, 1));
        assert_eq!(db.delete_expr("vendor", Some(&pred)).unwrap(), 0);
        let after = db.stats();
        assert!(
            after.rows_scanned > before.rows_scanned,
            "fell back to scan"
        );
        assert_eq!(db.table("vendor").unwrap().len(), 1);
    }

    #[test]
    fn nan_equality_on_indexed_column_scans_and_matches_nothing() {
        let mut db = db_with_vendor();
        db.create_index("vendor", "price").unwrap();
        db.load(
            "vendor",
            vec![vrow("a", "P1", f64::NAN), vrow("b", "P1", 2.0)],
        )
        .unwrap();
        // SQL comparison: `NaN = NaN` is unknown, so nothing matches. A key
        // probe through the index would use total equality (NaN == NaN) and
        // wrongly delete the row — the NaN literal must force the scan.
        let pred = Expr::eq(Expr::col(2), Expr::lit(f64::NAN));
        assert_eq!(select(&db, "vendor", &pred), (vec![], 0, 2));
        let before = db.stats();
        assert_eq!(db.delete_expr("vendor", Some(&pred)).unwrap(), 0);
        let after = db.stats();
        assert!(
            after.rows_scanned > before.rows_scanned,
            "fell back to scan"
        );
        assert_eq!(after.index_probes, before.index_probes, "no index probe");
        assert_eq!(db.table("vendor").unwrap().len(), 2);
    }

    #[test]
    fn type_mismatched_indexed_equality_scans_and_atomizes() {
        let mut db = db_with_vendor();
        db.create_index("vendor", "pid").unwrap();
        db.load("vendor", vec![vrow("a", "5", 1.0), vrow("b", "P1", 2.0)])
            .unwrap();
        // `pid = 5` compares an Int literal against a TEXT column: SQL
        // atomization matches the row whose pid is '5', which an index
        // probe keyed on Int(5) would miss (probe-miss, not 1 row).
        let pred = Expr::eq(Expr::col(1), Expr::lit(5i64));
        assert_eq!(
            select(&db, "vendor", &pred),
            (vec![crate::row(vrow("a", "5", 1.0))], 0, 2)
        );
        let before = db.stats();
        assert_eq!(db.delete_expr("vendor", Some(&pred)).unwrap(), 1);
        let after = db.stats();
        assert!(
            after.rows_scanned > before.rows_scanned,
            "fell back to scan"
        );
        assert_eq!(after.index_probes, before.index_probes, "no index probe");
        assert_eq!(db.table("vendor").unwrap().len(), 1);
    }

    #[test]
    fn update_where_batches_into_one_statement() {
        let mut db = db_with_vendor();
        db.load(
            "vendor",
            vec![
                vrow("a", "P1", 1.0),
                vrow("b", "P1", 2.0),
                vrow("c", "P2", 3.0),
            ],
        )
        .unwrap();
        let firings = Arc::new(Mutex::new(Vec::<usize>::new()));
        let f2 = Arc::clone(&firings);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Update,
            body: Arc::new(move |_, trans| {
                f2.lock().unwrap().push(trans.inserted.len());
                Ok(())
            }),
        })
        .unwrap();
        let n = db
            .update_expr(
                "vendor",
                Some(&Expr::eq(Expr::col(1), Expr::lit("P1"))),
                &[(2, Expr::lit(99.0))],
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(*firings.lock().unwrap(), vec![2]);
    }

    #[test]
    fn failed_multi_row_insert_and_load_change_nothing() {
        let mut db = db_with_vendor();
        db.create_index("vendor", "pid").unwrap();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        let fired = Arc::new(Mutex::new(0u32));
        let fired2 = Arc::clone(&fired);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: Arc::new(move |_, _| {
                *fired2.lock().unwrap() += 1;
                Ok(())
            }),
        })
        .unwrap();
        /// Everything a reader, a plan or a checkpoint can see of the table.
        fn observe(db: &Database) -> (u64, Vec<usize>, Vec<Row>, Vec<Row>) {
            let t = db.table("vendor").unwrap();
            let p1 = t.index_lookup(1, &Value::str("P1")).unwrap();
            (
                t.version(),
                t.indexed_columns(),
                t.iter().cloned().collect(),
                p1.into_iter().cloned().collect(),
            )
        }
        let start = observe(&db);
        assert_eq!((start.2.len(), start.3.len()), (1, 1));
        // A new row followed by a duplicate of an existing one, and a new
        // row twice: the statement fails as a whole.
        for rows in [
            vec![vrow("b", "P1", 2.0), vrow("a", "P1", 3.0)],
            vec![vrow("c", "P1", 2.0), vrow("c", "P1", 3.0)],
        ] {
            let before = db.stats().statements;
            let err = db.insert("vendor", rows.clone()).unwrap_err();
            assert!(matches!(err, Error::DuplicateKey { .. }));
            assert!(matches!(
                db.load("vendor", rows),
                Err(Error::DuplicateKey { .. })
            ));
            assert_eq!(observe(&db), start, "no row, index entry or version stays");
            assert_eq!(db.stats().statements, before, "not counted");
        }
        assert_eq!(*fired.lock().unwrap(), 0, "no trigger fired");
        let mut redo = Vec::new();
        let insert = || db.insert("vendor", vec![vrow("d", "P2", 4.0)]);
        let keep = |ops: &[RedoOp]| {
            redo = ops.to_vec();
            Ok(())
        };
        db.statement(&latched(&["vendor"], &[]), insert, Some(keep))
            .unwrap();
        let put = RedoOp::Put {
            table: "vendor".into(),
            row: crate::row(vrow("d", "P2", 4.0)),
        };
        assert_eq!(redo, vec![put], "nothing else logged");
    }

    /// An UPDATE that moves a row onto another row's key, or makes a row
    /// ill-typed, is refused with every row and the version as they were
    /// (the key rule lived on `Table::update` before every row change went
    /// through `apply`); one that succeeds changes the table in place —
    /// the journal keeps rows, not a copy of the table.
    #[test]
    fn update_to_conflicting_key_rejected() {
        let db = db_with_vendor();
        db.load(
            "vendor",
            vec![vrow("Amazon", "P1", 100.0), vrow("Bestbuy", "P1", 120.0)],
        )
        .unwrap();
        let start = Arc::clone(&db.table("vendor").unwrap().0);
        let key = [Value::str("Amazon"), Value::str("P1")];
        let refused = |assignment: (usize, Value)| {
            let err = db.update_by_key("vendor", &key, &[assignment]).unwrap_err();
            let seen = |t: &Table| (t.version(), t.iter().cloned().collect::<Vec<_>>());
            assert_eq!(seen(&db.table("vendor").unwrap()), seen(&start));
            err
        };
        assert!(matches!(
            refused((0, Value::str("Bestbuy"))),
            Error::DuplicateKey { .. }
        ));
        assert!(matches!(
            refused((2, Value::str("cheap"))),
            Error::TypeMismatch { .. }
        ));
        drop(start);

        // Nobody else holds the table now: a key-keeping UPDATE must not
        // unshare it from itself.
        let table_at = |db: &Database| Arc::as_ptr(&db.table("vendor").unwrap().0);
        let at = table_at(&db);
        assert!(db
            .update_by_key("vendor", &key, &[(2, Value::Double(1.0))])
            .unwrap());
        assert_eq!(table_at(&db), at, "updated in place");
        let t = db.table("vendor").unwrap();
        assert_eq!(t.get(&key).unwrap()[2], Value::Double(1.0));
    }

    // ------------------------------------------------------------------
    // Statement latches (`Database::latch`)
    // ------------------------------------------------------------------

    /// A database with one `(id INT PRIMARY KEY)` table per name.
    fn latch_db(names: &[&str]) -> Database {
        let mut db = Database::new();
        for name in names {
            let cols = vec![ColumnDef::new("id", ColumnType::Int)];
            db.create_table(TableSchema::new(*name, cols, &["id"]).unwrap())
                .unwrap();
        }
        db
    }

    #[test]
    fn shared_holders_coexist() {
        let db = latch_db(&["t"]);
        let _a = db.latch(&latched(&[], &["t"]));
        assert_eq!(db.stats().latch_shared_acquisitions, 1);
        assert_eq!(db.stats().latch_exclusive_acquisitions, 0);
        let _b = db.latch(&latched(&[], &["t"]));
        assert_eq!(
            db.stats().latch_conflicts,
            0,
            "a shared holder blocked another"
        );
        assert_eq!(db.stats().latch_waits, 0);
    }

    #[test]
    fn exclusive_blocks_until_readers_drain() {
        let db = latch_db(&["t"]);
        let reader = db.latch(&latched(&[], &["t"]));
        let writer_in = AtomicBool::new(false);
        thread::scope(|s| {
            let writer = s.spawn(|| {
                let _g = db.latch(&latched(&["t"], &[]));
                writer_in.store(true, Ordering::SeqCst);
            });
            thread::sleep(Duration::from_millis(50));
            assert!(
                !writer_in.load(Ordering::SeqCst),
                "writer admitted past a live reader"
            );
            drop(reader);
            writer.join().unwrap();
        });
        assert!(writer_in.load(Ordering::SeqCst));
        assert_eq!(db.stats().latch_conflicts, 1, "the writer was contended");
        assert_eq!(db.stats().latch_waits, 1);
    }

    #[test]
    fn parked_writer_admits_before_newer_readers() {
        // Reader-preference starvation scenario: a reader holds `hub`, a
        // writer parks wanting it exclusive, then more readers arrive.
        // The newer readers must queue *behind* the parked writer, and the
        // writer must be admitted first once the original reader drains.
        let db = latch_db(&["hub"]);
        let first_reader = db.latch(&latched(&[], &["hub"]));
        let writer_in = AtomicBool::new(false);
        let late_reader_in = AtomicBool::new(false);
        thread::scope(|s| {
            let writer = s.spawn(|| {
                let _g = db.latch(&latched(&["hub"], &[]));
                assert!(
                    !late_reader_in.load(Ordering::SeqCst),
                    "a reader that arrived after the parked writer overtook it"
                );
                writer_in.store(true, Ordering::SeqCst);
            });
            // Let the writer park on `hub`.
            thread::sleep(Duration::from_millis(50));
            let late_readers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let _g = db.latch(&latched(&[], &["hub"]));
                        assert!(
                            writer_in.load(Ordering::SeqCst),
                            "late reader admitted before the older parked writer"
                        );
                        late_reader_in.store(true, Ordering::SeqCst);
                    })
                })
                .collect();
            thread::sleep(Duration::from_millis(50));
            assert!(
                !writer_in.load(Ordering::SeqCst) && !late_reader_in.load(Ordering::SeqCst),
                "nobody may pass the live first reader"
            );
            drop(first_reader);
            writer.join().unwrap();
            for r in late_readers {
                r.join().unwrap();
            }
        });
        assert!(writer_in.load(Ordering::SeqCst));
        assert!(late_reader_in.load(Ordering::SeqCst));
        assert!(db.stats().latch_conflicts >= 1, "the writer was contended");
    }

    #[test]
    fn overlapping_read_write_request_takes_exclusive() {
        let db = latch_db(&["t", "u"]);
        let g = db.latch(&latched(&["t"], &["t", "u"]));
        assert_eq!(db.stats().latch_exclusive_acquisitions, 1);
        assert_eq!(db.stats().latch_shared_acquisitions, 1); // `u` only — `t` promoted to write
        assert!(db.tables["t"].latch.try_read().is_err(), "`t` held shared");
        drop(g);
        // Everything released: an exclusive take of both must not block.
        let _g2 = db.latch(&latched(&["t", "u"], &[]));
        assert_eq!(db.stats().latch_conflicts, 0);
    }

    const LATCH_TABLES: usize = 5;

    /// One thread's worth of admissions: each a list of
    /// `(table index, is_write)` pairs, deduped write-wins into a footprint.
    fn thread_plans() -> impl Strategy<Value = Vec<Vec<Vec<(usize, bool)>>>> {
        let footprint = proptest::collection::vec((0..LATCH_TABLES, any::<bool>()), 0..4usize);
        let per_thread = proptest::collection::vec(footprint, 1..8usize);
        proptest::collection::vec(per_thread, 2..5usize)
    }

    /// The footprint `plan` names: a table both read and written is
    /// written.
    fn plan_footprint(plan: &[(usize, bool)]) -> Latched {
        let mut read = BTreeSet::new();
        let mut write = BTreeSet::new();
        for (t, is_write) in plan {
            let name = format!("t{t}");
            if *is_write {
                read.remove(&name);
                write.insert(name);
            } else if !write.contains(&name) {
                read.insert(name);
            }
        }
        Arc::new((write, read))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Random mixed read/write footprints hammered from many threads.
        /// Asserts (a) no deadlock — the run completes, (b) no two
        /// exclusive holders of one table, (c) a reader never observes a
        /// table mid-write (seqlock-style torn-write check: writers leave
        /// the per-table counter odd while holding the exclusive latch).
        #[test]
        fn mixed_footprints_admit_safely(plan in thread_plans()) {
            let names: Vec<String> = (0..LATCH_TABLES).map(|t| format!("t{t}")).collect();
            let db = &latch_db(&names.iter().map(String::as_str).collect::<Vec<_>>());
            let cells: Vec<AtomicU64> = (0..LATCH_TABLES).map(|_| AtomicU64::new(0)).collect();
            let cell = |t: &String| &cells[t[1..].parse::<usize>().unwrap()];
            thread::scope(|s| {
                for admissions in &plan {
                    s.spawn(move || {
                        for fp in admissions {
                            let footprint = plan_footprint(fp);
                            let _g = db.latch(&footprint);
                            let (write, read) = &*footprint;
                            for t in write {
                                // Odd while "writing": a second exclusive
                                // holder or a concurrent reader would see it.
                                let prev = cell(t).fetch_add(1, Ordering::SeqCst);
                                assert!(prev.is_multiple_of(2), "two exclusive holders on {t}");
                            }
                            for t in read {
                                let v = cell(t).load(Ordering::SeqCst);
                                assert!(v.is_multiple_of(2), "reader saw torn write on {t}");
                            }
                            thread::yield_now();
                            for t in read {
                                let v = cell(t).load(Ordering::SeqCst);
                                assert!(v.is_multiple_of(2), "reader saw torn write on {t}");
                            }
                            for t in write {
                                let prev = cell(t).fetch_add(1, Ordering::SeqCst);
                                assert!(prev % 2 == 1, "write counter desynced on {t}");
                            }
                        }
                    });
                }
            });
            // All guards dropped: every cell back to even.
            for c in &cells {
                prop_assert!(c.load(Ordering::SeqCst).is_multiple_of(2));
            }
        }
    }

    mod selection_proptest {
        use super::*;

        /// `t(id INT, grp TEXT, x DOUBLE)`: primary key `id` or
        /// `(id, grp)`, optionally a secondary index on `grp` or `x`.
        fn table(composite_pk: bool, index: Option<&str>, rows: &[Vec<Value>]) -> Database {
            let mut db = Database::new();
            let pk: &[&str] = if composite_pk {
                &["id", "grp"]
            } else {
                &["id"]
            };
            db.create_table(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", ColumnType::Int),
                        ColumnDef::new("grp", ColumnType::Str),
                        ColumnDef::new("x", ColumnType::Double),
                    ],
                    pk,
                )
                .unwrap(),
            )
            .unwrap();
            if let Some(col) = index {
                db.create_index("t", col).unwrap();
            }
            for r in rows {
                let _ = db.load("t", vec![r.clone()]); // duplicates dropped
            }
            db
        }

        fn arb_row() -> impl Strategy<Value = Vec<Value>> {
            (
                0..4i64,
                prop::sample::select(vec![Value::str("g0"), Value::str("g1"), Value::str("5")]),
                prop::sample::select(vec![
                    Value::Double(1.0),
                    Value::Double(3.0),
                    Value::Double(f64::NAN),
                    Value::Null,
                ]),
            )
                .prop_map(|(id, grp, x)| vec![Value::Int(id), grp, x])
        }

        /// `col op literal` (either operand order): per column, literals
        /// that hit, that miss, NULL/NaN, and of another type than the
        /// column's (numeric cross-type, and text-vs-number).
        fn arb_comparison() -> impl Strategy<Value = Expr> {
            let on = |col: usize, literals: Vec<Value>| {
                let op = prop::sample::select(vec![
                    BinOp::Eq,
                    BinOp::Eq,
                    BinOp::Eq,
                    BinOp::Lt,
                    BinOp::Ge,
                ]);
                (op, prop::sample::select(literals), any::<bool>()).prop_map(
                    move |(op, lit, flip)| {
                        if flip {
                            Expr::bin(op, Expr::lit(lit), Expr::col(col))
                        } else {
                            Expr::bin(op, Expr::col(col), Expr::lit(lit))
                        }
                    },
                )
            };
            let ids = (0..4).map(Value::Int);
            prop_oneof![
                on(
                    0,
                    ids.chain([Value::Double(3.0), Value::str("5"), Value::Null])
                        .collect()
                ),
                on(
                    1,
                    vec![
                        Value::str("g0"),
                        Value::str("g1"),
                        Value::str("5"),
                        Value::Int(5),
                        Value::Null
                    ]
                ),
                on(
                    2,
                    vec![
                        Value::Double(1.0),
                        Value::Int(3),
                        Value::Double(f64::NAN),
                        Value::Null
                    ]
                ),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

            /// SELECT, UPDATE and DELETE all pick exactly the rows a plain
            /// `Expr::eval` filter over `t.iter()` picks, in key order —
            /// whether the selection probed or scanned.
            #[test]
            fn statements_select_what_a_plain_filter_selects(
                composite_pk in any::<bool>(),
                index in prop::sample::select(vec![None, Some("grp"), Some("x")]),
                rows in prop::collection::vec(arb_row(), 0..16usize),
                conjuncts in prop::collection::vec(arb_comparison(), 1..3usize),
            ) {
                let pred = Expr::and_all(conjuncts);
                let mut db = table(composite_pk, index, &rows);
                let seen = Arc::new(Mutex::new(Vec::<Vec<Row>>::new()));
                for event in [Event::Update, Event::Delete] {
                    let seen = Arc::clone(&seen);
                    db.create_trigger(SqlTrigger {
                        name: event.to_string(),
                        table: "t".into(),
                        event,
                        body: Arc::new(move |_, trans| {
                            seen.lock().unwrap().push(trans.deleted.clone());
                            Ok(())
                        }),
                    })
                    .unwrap();
                }
                let before: Vec<Row> = db.table("t").unwrap().iter().cloned().collect();
                let hits: Vec<bool> = before
                    .iter()
                    .map(|r| pred.eval(r).unwrap().is_true())
                    .collect();
                let expected: Vec<Row> = before
                    .iter()
                    .zip(&hits)
                    .filter(|(_, hit)| **hit)
                    .map(|(r, _)| Arc::clone(r))
                    .collect();

                let selected = db.select_rows(&db.table("t").unwrap(), Some(&pred)).unwrap();
                prop_assert_eq!(&selected, &expected);

                let updated = db.clone();
                let n = updated.update_expr("t", Some(&pred), &[(2, Expr::lit(9.0))]).unwrap();
                prop_assert_eq!(n, expected.len());
                let after: Vec<Row> = updated.table("t").unwrap().iter().cloned().collect();
                let want: Vec<Row> = before
                    .iter()
                    .zip(&hits)
                    .map(|(r, hit)| {
                        let mut v = r.to_vec();
                        if *hit {
                            v[2] = Value::Double(9.0);
                        }
                        crate::row(v)
                    })
                    .collect();
                prop_assert_eq!(after, want);

                let n = db.delete_expr("t", Some(&pred)).unwrap();
                prop_assert_eq!(n, expected.len());
                let after: Vec<Row> = db.table("t").unwrap().iter().cloned().collect();
                let want: Vec<Row> = before
                    .iter()
                    .zip(&hits)
                    .filter(|(_, hit)| !**hit)
                    .map(|(r, _)| Arc::clone(r))
                    .collect();
                prop_assert_eq!(after, want);

                // Both statements handed their trigger the selected rows,
                // in key order (no firing when nothing matched).
                let fired = if expected.is_empty() { vec![] } else { vec![expected.clone(); 2] };
                prop_assert_eq!(&*seen.lock().unwrap(), &fired);
            }
        }
    }
}
