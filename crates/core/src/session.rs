//! The session front door: one statement surface for tables, views and
//! view triggers alike — shareable across threads.
//!
//! The paper's whole interface is a single declarative language — users
//! write `CREATE TRIGGER … ON view('v')/path` and ordinary SQL, and the
//! system privately rewrites the former onto the latter. [`Session`] makes
//! that the *programming* interface too: every data change, DDL statement
//! and inspection query goes through [`Session::execute`], which returns a
//! typed [`StatementResult`] and reports failures as a unified
//! [`StatementError`] with byte spans into the statement text.
//!
//! Supported statement surface:
//!
//! | statement | result |
//! |---|---|
//! | `INSERT` / `UPDATE` / `DELETE` | [`StatementResult::RowsAffected`] |
//! | `SELECT cols FROM t [WHERE …]` | [`StatementResult::Rows`] |
//! | `CREATE TABLE` / `CREATE INDEX` | [`StatementResult::Created`] |
//! | `CREATE VIEW … { XQuery }` (frontend) | [`StatementResult::Created`] |
//! | `CREATE TRIGGER … ON view('v')/path` (frontend) | [`StatementResult::Created`] |
//! | `DROP TRIGGER` / `DROP TABLE` | [`StatementResult::Dropped`] |
//! | `EXPLAIN TRIGGER name` | [`StatementResult::Explain`] |
//! | `MATERIALIZE view('v')/anchor` | [`StatementResult::Xml`] |
//! | `STATS` | [`StatementResult::Rows`] (one `counter`/`value` row each) |
//! | `ANALYZE TRIGGERS` | [`StatementResult::Analysis`] |
//!
//! Tables named with the [`RESERVED_PREFIX`] (`__quark_`) belong to the
//! engine: a statement that creates, indexes, writes or drops one is
//! refused, naming the table, before anything changes. `SELECT` may read
//! them, for observability.
//!
//! The XQuery-bodied statements (`CREATE VIEW`, `CREATE TRIGGER`) are
//! parsed by a pluggable [`StatementFrontend`] so this crate stays below
//! the XQuery frontend in the layering; `quark-xquery` provides the
//! standard implementation and a one-line constructor.
//!
//! # Concurrency model
//!
//! A `Session` is a cheap handle onto a shared system, so `execute` takes
//! `&self` and handles are `Send + Sync`. [`Session::fork`] (or a
//! [`SessionPool`]) hands out additional handles onto the same system, and
//! the statement surface splits in three:
//!
//! * **Footprint-latched writes** — every `INSERT`/`UPDATE`/`DELETE` —
//!   hold the level-1 lock *shared*, take the statement latches of the
//!   tables in the statement's trigger [`Footprint`]
//!   ([`Database::latch`]) and run the whole statement, cascade included,
//!   under them. The footprint's
//!   *write set* (the target table plus every table a reachable cascade
//!   can mutate) latches **exclusive**; its *read set* (view sources,
//!   constants tables, join build sides the firing only scans) latches
//!   **shared**. Writers with disjoint write sets run in parallel even
//!   when their read sets overlap; a writer mutating a table other
//!   cascades read still serializes against them. Every action declares
//!   its write set (empty for [`Session::register_action`]), so only a
//!   statement whose cascade can reach a raw SQL trigger — a closure
//!   installed on the database directly — has no bounded footprint; it
//!   latches **every table exclusive** instead and serializes against
//!   every other writer, on the same path. Each table's latch lives in its
//!   catalog slot, and every writer takes its latches one table at a time
//!   in name order, so a writer waiting for one table while holding
//!   others can never close a cycle: the hierarchy is deadlock-free by
//!   construction. A statement is atomic, cascade
//!   included: if it fails anywhere — an action's error or panic, the
//!   cascade-depth cap, a duplicate key part-way through a multi-row
//!   `INSERT` — its changes are undone while its latches are still held,
//!   and nothing is logged or published ([`Database::statement`]). A
//!   statement that succeeds appends its redo to the write-ahead log as
//!   one frame before its journal closes; if that append fails, the
//!   statement is undone the same way and returns the error.
//! * **Global writes** — DDL, trigger creation/drop, action registration
//!   and the `quark_mut`/`database_mut` guards: whatever can change schema,
//!   trigger topology or the action registry — take the exclusive level
//!   above the latches, draining every in-flight latched writer first, and
//!   commit by checkpoint.
//! * **Read statements** — `SELECT`, `EXPLAIN TRIGGER`, `MATERIALIZE`,
//!   `ANALYZE TRIGGERS` —
//!   run lock-free against an immutable [`Quark`] snapshot behind an
//!   `Arc`, republished by the *writers* at commit: a latched writer folds
//!   exactly its write-set tables into the current snapshot — an `Arc`
//!   swap per table, in place while no reader holds the snapshot, else
//!   into a clone of the system (a cell per table, no row: tables are
//!   persistent trees), so a held snapshot never changes — and a global
//!   writer republishes a clone of the system. So once the first
//!   read has asked for a snapshot every commit keeps it current, and a
//!   system nobody ever reads from publishes nothing. Readers therefore
//!   always observe some *statement-boundary* state, never a mid-cascade
//!   one, and never wait for a writer. A published snapshot refuses every
//!   data change; its reads count in the live system's `STATS`.
//!
//! [`Session::execute_batch`] adds batched ingestion on top: consecutive
//! `INSERT`s into the same table coalesce into one statement, so
//! transition-table construction, relevance checks and the trigger cascade
//! are paid once per batch — the paper's statement-level trigger
//! granularity makes that reduction semantically exact.
//!
//! ```
//! use quark_core::{Mode, Quark};
//! use quark_core::session::{Session, StatementResult};
//! use quark_relational::Database;
//!
//! let session = Session::new(Quark::new(Database::new(), Mode::Grouped));
//! session.execute("CREATE TABLE vendor (vid TEXT, pid TEXT, price DOUBLE, \
//!                  PRIMARY KEY (vid, pid))").unwrap();
//! session.execute("INSERT INTO vendor VALUES ('Amazon', 'P1', 100.0)").unwrap();
//! let n = session.execute("UPDATE vendor SET price = 75.0 \
//!                          WHERE vid = 'Amazon' AND pid = 'P1'").unwrap();
//! assert_eq!(n, StatementResult::RowsAffected(1));
//! let reader = session.fork(); // may live on another thread
//! let StatementResult::Rows { rows, .. } =
//!     reader.execute("SELECT price FROM vendor").unwrap() else { panic!() };
//! assert_eq!(rows[0][0], 75.0.into());
//! ```

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use quark_relational::sql::{self, Statement};
use quark_relational::{
    Counter, Database, Error, Latched, RedoOp, Result, SqlTrigger, TableSchema, Value,
};
use quark_xml::XmlNodeRef;

use crate::system::analysis::AnalysisReport;
use crate::system::{ActionCall, Footprint, Quark};

pub use quark_relational::sql::{Span, StatementError};

/// Kind of schema object a DDL statement touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// A relational table.
    Table,
    /// A secondary index.
    Index,
    /// An XML view.
    View,
    /// An XML trigger.
    Trigger,
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObjectKind::Table => "table",
            ObjectKind::Index => "index",
            ObjectKind::View => "view",
            ObjectKind::Trigger => "trigger",
        })
    }
}

/// Typed result of one executed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// Rows changed by a data-change statement.
    RowsAffected(usize),
    /// `SELECT` output, ordered by the table's primary key.
    Rows {
        /// Projected column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<quark_relational::Row>,
    },
    /// A schema object was created.
    Created {
        /// What was created.
        kind: ObjectKind,
        /// Its name.
        name: String,
    },
    /// A schema object was dropped.
    Dropped {
        /// What was dropped.
        kind: ObjectKind,
        /// Its name.
        name: String,
    },
    /// `EXPLAIN TRIGGER` rendering: the trigger's group, constants, and
    /// generated SQL triggers with their compiled plans.
    Explain(String),
    /// `MATERIALIZE view('v')/anchor`: the monitored nodes, in canonical
    /// key order.
    Xml(Vec<XmlNodeRef>),
    /// `ANALYZE TRIGGERS`: summary counts plus the rendered report of the
    /// static analysis over the installed trigger program (see
    /// [`crate::system::analysis`]).
    Analysis(AnalysisReport),
}

impl StatementResult {
    /// Rows affected, if this is a data-change result.
    pub fn rows_affected(&self) -> Option<usize> {
        match self {
            StatementResult::RowsAffected(n) => Some(*n),
            _ => None,
        }
    }
}

/// Pluggable parser for the XQuery-bodied DDL statements (`CREATE VIEW`,
/// `CREATE TRIGGER`). Implementations parse the text, lower it, register
/// the result against the system, and return the created object's name.
///
/// `Send + Sync` because one frontend instance serves every forked handle
/// of a session concurrently (implementations are stateless parsers).
///
/// `quark-xquery` provides the standard implementation (`XQueryFrontend`)
/// plus a `session(db, mode)` constructor that wires it in.
pub trait StatementFrontend: Send + Sync {
    /// Handle a `CREATE VIEW` statement; returns the view name.
    fn create_view(&self, quark: &mut Quark, text: &str) -> Result<String, StatementError>;
    /// Handle a `CREATE TRIGGER` statement; returns the trigger name.
    fn create_trigger(&self, quark: &mut Quark, text: &str) -> Result<String, StatementError>;
}

/// State shared by every handle of one session (see the module docs):
/// the authoritative system behind the two-level lock hierarchy, the
/// pluggable frontend, and the published read snapshot.
///
/// Lock ordering is `state` → table latches, in name order
/// ([`Database::latch`]) → `published` (never the reverse), so the
/// hierarchy cannot deadlock.
struct Shared {
    /// Level 1, the authoritative system. DML holds it *shared* (writers'
    /// mutual exclusion is per table, via the statement latches level 2
    /// keeps in the database's table slots); global writers —
    /// DDL, trigger DDL, action registration, the `quark_mut` /
    /// `database_mut` guards — hold it exclusively.
    state: RwLock<Quark>,
    /// Frontend for the XQuery-bodied DDL, shared by all handles.
    frontend: Option<Box<dyn StatementFrontend>>,
    /// The published read snapshot: `None` until the first
    /// [`Session::snapshot`] call builds it, and from then on kept by
    /// every commit (see `commit_tables` / `commit_global`), so whenever
    /// it is there it is the state as of the last commit. Its `Arc` is
    /// cloned only under this mutex: `commit_tables` relies on that to
    /// fold in place.
    published: Mutex<Option<Arc<Quark>>>,
    /// Memoized per-target-table footprints. Valid between global writes:
    /// only trigger DDL, schema DDL, action registration or raw database
    /// access can change a footprint or the table list, and all of those
    /// take the global mode, which clears this cache at commit.
    footprints: Mutex<HashMap<String, Latched>>,
}

impl Shared {
    /// Commit a footprint-latched write: if a snapshot is published, fold
    /// exactly `tables` into it, an `Arc` swap per table in its own cells:
    /// in place if no reader holds it (they take it only under this
    /// mutex), else into a clone of the system (no row), leaving the
    /// reader's as it was. Runs with the level-1 lock held *shared* and the
    /// writer's footprint latches still held, so the adopted tables cannot
    /// move underneath the fold; commits serialize on the mutex.
    fn commit_tables(&self, state: &Quark, tables: &BTreeSet<String>) {
        let mut cell = self.published.lock().unwrap_or_else(|e| e.into_inner());
        // Taken, so that a panic below leaves no stale snapshot behind:
        // the next read rebuilds it.
        let Some(mut snap) = cell.take() else { return };
        // The snapshot contains every commit before this one, so snapshot
        // + this writer's tables = the boundary state of this commit
        // exactly.
        let replaced = Arc::make_mut(&mut snap)
            .database_mut()
            .adopt_tables_from(state.database(), tables.iter());
        *cell = Some(snap);
        // Readers queue on this mutex: the replaced versions are freed
        // after it is released.
        drop(cell);
        drop(replaced);
    }

    /// Commit a global-mode write: anything may have changed (schema,
    /// trigger topology, action registry), so the footprint cache is
    /// cleared and a published snapshot is replaced by a read-only clone of
    /// the whole authoritative state. Runs with the level-1 lock held
    /// exclusively.
    fn commit_global(&self, state: &Quark) {
        self.footprints
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        let mut cell = self.published.lock().unwrap_or_else(|e| e.into_inner());
        if cell.take().is_some() {
            *cell = Some(Arc::new(state.read_only_clone()));
        }
    }
}

/// A handle onto a shared [`Quark`] system: the single entry point for the
/// unified textual statement surface (see the [module docs](self)).
///
/// Handles are cheap to [`fork`](Session::fork) and safe to move across
/// threads; read statements on any handle run lock-free against a
/// consistent snapshot while write statements serialize.
pub struct Session {
    shared: Arc<Shared>,
}

/// A pool of sessions over one system: the server-side entry point for
/// fielding many clients at once. Functionally a [`Session`] factory —
/// every handle it hands out shares the same write lock, compiled trigger
/// corpus and published read snapshot.
pub struct SessionPool {
    root: Session,
}

impl SessionPool {
    /// Build a pool around an existing session (takes one handle; the
    /// session's other forks keep working).
    pub fn new(session: Session) -> Self {
        SessionPool { root: session }
    }

    /// A new handle onto the shared system.
    pub fn session(&self) -> Session {
        self.root.fork()
    }

    /// Tear down the pool, returning the underlying session handle.
    pub fn into_session(self) -> Session {
        self.root
    }
}

impl fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPool").finish()
    }
}

/// Shared read guard over the session's [`Quark`] (see [`Session::quark`]).
pub struct QuarkRead<'a>(RwLockReadGuard<'a, Quark>);

impl Deref for QuarkRead<'_> {
    type Target = Quark;
    fn deref(&self) -> &Quark {
        &self.0
    }
}

/// Exclusive write guard over the session's [`Quark`]; dropping it
/// commits in global mode — the published read snapshot is replaced, the
/// footprint cache cleared and a durable store checkpointed, as after DDL
/// (see [`Session::quark_mut`]).
pub struct QuarkWrite<'a> {
    guard: RwLockWriteGuard<'a, Quark>,
    shared: &'a Shared,
}

impl Deref for QuarkWrite<'_> {
    type Target = Quark;
    fn deref(&self) -> &Quark {
        &self.guard
    }
}

impl DerefMut for QuarkWrite<'_> {
    fn deref_mut(&mut self) -> &mut Quark {
        &mut self.guard
    }
}

impl Drop for QuarkWrite<'_> {
    fn drop(&mut self) {
        // Conservatively assume the holder mutated something.
        self.shared.commit_global(&self.guard);
        // Best-effort durable point (Drop cannot report): a failed
        // checkpoint makes the log refuse, so the next write surfaces the
        // error, and a reopen's replay decides what the directory holds.
        let _ = self.guard.checkpoint();
    }
}

/// Shared read guard over the underlying [`Database`] (see
/// [`Session::database`]).
pub struct DatabaseRead<'a>(RwLockReadGuard<'a, Quark>);

impl Deref for DatabaseRead<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        self.0.database()
    }
}

/// Exclusive write guard over the underlying [`Database`] for fixtures:
/// bulk loads and raw SQL triggers. Dropping it commits in global mode,
/// as its [`QuarkWrite`] does (see [`Session::database_mut`]).
pub struct DatabaseWrite<'a>(QuarkWrite<'a>);

impl DatabaseWrite<'_> {
    /// Bulk-load rows without firing triggers ([`Database::load`]).
    pub fn load(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        self.0.database().load(table, rows)
    }

    /// Install a raw SQL trigger ([`Database::create_trigger`]): nothing
    /// bounds what its body writes, so a write that can reach it latches
    /// every table.
    pub fn create_raw_trigger(&mut self, trigger: SqlTrigger) -> Result<()> {
        self.0.database_mut().create_trigger(trigger)
    }
}

impl Session {
    /// Open a session without a view/trigger frontend: the relational
    /// statement surface plus `DROP TRIGGER` / `EXPLAIN TRIGGER` /
    /// `MATERIALIZE` over programmatically registered views.
    pub fn new(quark: Quark) -> Self {
        Session::build(quark, None)
    }

    /// Open a session with a frontend handling the XQuery-bodied DDL.
    pub fn with_frontend(quark: Quark, frontend: Box<dyn StatementFrontend>) -> Self {
        Session::build(quark, Some(frontend))
    }

    /// Flush and tear down: checkpoints the durable store (if one is
    /// attached — a no-op otherwise) so reopening recovers instantly from
    /// the catalog without replaying the log.
    ///
    /// Dropping a session *without* `close` is crash-equivalent, not
    /// lossy: every committed statement is already in the WAL.
    ///
    /// `Err` once a storage failure made the log refuse; a reopen still
    /// recovers every acknowledged statement.
    ///
    /// # Panics
    ///
    /// Panics if other handles onto this session are still alive, like
    /// [`Session::into_quark`].
    pub fn close(self) -> Result<()> {
        self.into_quark().checkpoint()
    }

    fn build(quark: Quark, frontend: Option<Box<dyn StatementFrontend>>) -> Self {
        Session {
            shared: Arc::new(Shared {
                state: RwLock::new(quark),
                frontend,
                published: Mutex::new(None),
                footprints: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// A new handle onto the same system. Forks share everything: the
    /// write lock, the trigger corpus and the published read snapshot.
    pub fn fork(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The underlying system (trigger/group/translation inspection).
    ///
    /// Holds a shared lock for the guard's lifetime: do not keep it alive
    /// across a write call on the same thread (`execute` of a data-change
    /// statement, [`Session::quark_mut`], …) — that self-deadlocks.
    pub fn quark(&self) -> QuarkRead<'_> {
        QuarkRead(self.shared.state.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Mutable access to the underlying system — the programmatic escape
    /// hatch for fixture views ([`Quark::register_view`]); statements
    /// should go through [`Session::execute`]. Holds
    /// the write lock for the guard's lifetime and invalidates the read
    /// snapshot when dropped.
    pub fn quark_mut(&self) -> QuarkWrite<'_> {
        QuarkWrite {
            guard: self.shared.state.write().unwrap_or_else(|e| e.into_inner()),
            shared: &self.shared,
        }
    }

    /// Shared view of the underlying database (inspection). The same
    /// locking caveat as [`Session::quark`] applies.
    pub fn database(&self) -> DatabaseRead<'_> {
        DatabaseRead(self.shared.state.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Fixture access to the database ([`DatabaseWrite`]). Holds the write
    /// lock for the guard's lifetime and invalidates the read snapshot when
    /// dropped.
    pub fn database_mut(&self) -> DatabaseWrite<'_> {
        DatabaseWrite(self.quark_mut())
    }

    /// Tear down the session, returning the system.
    ///
    /// # Panics
    ///
    /// Panics if other handles onto this session ([`Session::fork`],
    /// [`SessionPool`]) are still alive.
    pub fn into_quark(self) -> Quark {
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("Session::into_quark with live forked handles");
        shared.state.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Register an action function callable from trigger DO clauses
    /// (delegates to [`Quark::register_action`]). The action writes no
    /// table, so DML whose cascade can reach it keeps its bounded footprint
    /// and runs in parallel with disjoint writers; a table write from its
    /// body fails the statement. An action that writes tables declares
    /// them with [`Session::register_action_with_writes`].
    pub fn register_action(
        &self,
        name: impl Into<String>,
        f: impl Fn(&Database, &ActionCall) -> Result<()> + Send + Sync + 'static,
    ) -> Result<()> {
        self.with_write(|quark| quark.register_action(name, f))?
    }

    /// Register an action declaring the tables it may write (delegates to
    /// [`Quark::register_action_with_writes`]). The declaration is
    /// enforced: a write outside it fails its statement.
    pub fn register_action_with_writes(
        &self,
        name: impl Into<String>,
        writes: impl IntoIterator<Item = impl Into<String>>,
        f: impl Fn(&Database, &ActionCall) -> Result<()> + Send + Sync + 'static,
    ) -> Result<()> {
        self.with_write(|quark| quark.register_action_with_writes(name, writes, f))?
    }

    /// Run `f` against the authoritative state in **global mode** — the
    /// exclusive level of the lock hierarchy, which drains every in-flight
    /// footprint-latched writer first — then commit. Everything that needs
    /// `&mut Quark` funnels through here: DDL, trigger DDL and action
    /// registration. No DML does.
    ///
    /// A global commit is also the durable commit point for everything the
    /// write-ahead log does not cover: when a storage engine is attached,
    /// the whole system (schema, data, views, trigger groups) is
    /// checkpointed before the call returns, and the WAL is truncated.
    /// Global writes are rare, so paying a full checkpoint keeps the
    /// recovery protocol redo-only over base-table DML.
    fn with_write<R>(&self, f: impl FnOnce(&mut Quark) -> R) -> Result<R, Error> {
        let mut guard = self.shared.state.write().unwrap_or_else(|e| e.into_inner());
        let out = f(&mut guard);
        self.shared.commit_global(&guard);
        guard.checkpoint()?;
        Ok(out)
    }

    /// The current read snapshot: the state as of the last commit. The
    /// snapshot is maintained *by the writers* (an `Arc` swap per
    /// committed footprint table), so this is a mutex-protected pointer
    /// clone, and it never waits for a writer. It never changes: a commit
    /// while it is held clones the system to fold around it, so hold it no
    /// longer than its reads need, and its database refuses every data
    /// change. Only the first call on a
    /// system builds the snapshot itself: it takes the state lock
    /// **exclusively** (draining in-flight latched writers, so the clone
    /// sits on a statement boundary) and publishes it; every commit after
    /// that keeps it current. Returning an `Arc` means execution against
    /// it holds no lock at all.
    pub fn snapshot(&self) -> Arc<Quark> {
        let published = || {
            self.shared
                .published
                .lock()
                .unwrap_or_else(|e| e.into_inner())
        };
        if let Some(snap) = published().as_ref() {
            return Arc::clone(snap);
        }
        // Never published (or a commit panicked mid-fold): build it from
        // the authoritative state. Exclusive access, so no latched writer
        // is mid-statement during the clone — which is refcount bumps, not
        // a row-storage walk — and, with both locks held, no commit runs
        // between the clone and its publication.
        let state = self.shared.state.write().unwrap_or_else(|e| e.into_inner());
        let mut cell = published();
        // `get_or_insert_with`: another first reader may have won the race
        // for the state lock.
        Arc::clone(cell.get_or_insert_with(|| Arc::new(state.read_only_clone())))
    }

    /// Parse and execute one statement.
    ///
    /// `CREATE VIEW` / `CREATE TRIGGER` route to the frontend; everything
    /// else goes through the [`sql`] grammar, with the view-level
    /// statements (`DROP TRIGGER`, `EXPLAIN TRIGGER`, `MATERIALIZE`)
    /// interpreted against this session's trigger and view registries.
    ///
    /// Read statements (`SELECT`, `EXPLAIN TRIGGER`, `MATERIALIZE`,
    /// `ANALYZE TRIGGERS`) evaluate lock-free against the published
    /// snapshot; writes take the two-level lock hierarchy of the [module
    /// docs](self). `STATS` reads the authoritative system's counters, which
    /// its snapshots share: atomic loads under the shared level-1 lock, so
    /// it waits for DDL but never for a latched writer.
    pub fn execute(&self, text: &str) -> Result<StatementResult, StatementError> {
        // The frontend parser sees the text past leading whitespace and
        // `--` comments; its error spans are shifted back into the original.
        if let Some((kind, stripped)) = frontend_statement(text) {
            let offset = text.len() - stripped.len();
            let Some(frontend) = self.shared.frontend.as_deref() else {
                return Err(StatementError::Db(Error::Plan(format!(
                    "CREATE {} requires a session frontend \
                     (open the session via quark_xquery::session)",
                    kind.to_string().to_ascii_uppercase()
                ))));
            };
            let result = self.with_write(|quark| {
                match kind {
                    ObjectKind::View => frontend.create_view(quark, stripped),
                    _ => frontend.create_trigger(quark, stripped),
                }
                .map(|name| StatementResult::Created { kind, name })
            })?;
            return result.map_err(|e| shift_span(e, offset));
        }

        let stmt = sql::parse(text)?;
        self.execute_parsed(&stmt)
    }

    /// Execute a batch of statements, coalescing runs of consecutive
    /// `INSERT`s into the same table into **one** statement per run: row
    /// storage is touched once, one transition table is built, and the
    /// trigger cascade — relevance checks included — fires once for the
    /// whole run. The paper's statement-level trigger granularity makes
    /// the coalescing semantically exact: it is indistinguishable from the
    /// client having sent one multi-row `INSERT`. (Statement-*count*
    /// observables do change: triggers see one Δ per run.)
    ///
    /// Returns one result per input statement, in order — a coalesced
    /// `INSERT` reports the rows *it* contributed. Each statement is parsed
    /// on its own: one that does not parse fails alone and joins no run.
    /// A coalesced run is one statement, so it fails as a unit, leaving no
    /// trace, and each of its members reports the error. A failure never
    /// stops the batch: every later statement still runs. The network
    /// front door hands each pipelined window of frames to this call, so
    /// both doors answer a statement list alike.
    pub fn execute_batch<'t>(
        &self,
        statements: impl IntoIterator<Item = &'t str>,
    ) -> Vec<Result<StatementResult, StatementError>> {
        // Frontend statements (CREATE VIEW / CREATE TRIGGER) are not part
        // of the relational grammar (`None`); they go through `execute`.
        let parse = |text: &'t str| {
            (
                text,
                frontend_statement(text).is_none().then(|| sql::parse(text)),
            )
        };
        let mut todo = statements.into_iter().map(parse).peekable();
        let mut results = Vec::new();
        while let Some((text, parsed)) = todo.next() {
            let Some(Ok(Statement::Insert { table, mut rows })) = parsed else {
                results.push(match parsed {
                    None => self.execute(text),
                    Some(Ok(stmt)) => self.execute_parsed(&stmt),
                    Some(Err(e)) => Err(e),
                });
                continue;
            };
            // The maximal run of INSERTs into `table` starting here.
            let mut counts = vec![rows.len()];
            while let Some((_, Some(Ok(Statement::Insert { rows: more, .. })))) = todo.next_if(
                |(_, next)| matches!(next, Some(Ok(Statement::Insert { table: t, .. })) if *t == table),
            ) {
                counts.push(more.len());
                rows.extend(more);
            }
            let outcome = self.execute_parsed(&Statement::Insert { table, rows });
            match (counts.len(), outcome) {
                (1, outcome) => results.push(outcome),
                (n, Ok(_)) => {
                    let db = self.database();
                    db.bump(Counter::BatchedStatements, n as u64);
                    db.bump(Counter::PipelinedBatches, 1);
                    results.extend(
                        counts
                            .into_iter()
                            .map(StatementResult::RowsAffected)
                            .map(Ok),
                    );
                }
                (n, Err(e)) => results.extend(std::iter::repeat_n(Err(e), n)),
            }
        }
        results
    }

    /// Route one parsed statement (see [`Session::execute`]).
    fn execute_parsed(&self, stmt: &Statement) -> Result<StatementResult, StatementError> {
        // `DROP TABLE` is refused by `Quark::drop_table`, after the check
        // that names a view or trigger reading the table.
        if let Statement::CreateTable(TableSchema { name: table, .. })
        | Statement::CreateIndex { table, .. }
        | Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. } = stmt
        {
            refuse_reserved(table)?;
        }
        match stmt {
            // ---- read statements: lock-free against the snapshot ------
            Statement::Select {
                table,
                columns,
                filter,
            } => {
                let snap = self.snapshot();
                let (columns, rows) =
                    sql::select(snap.database(), table, columns, filter.as_ref())?;
                Ok(StatementResult::Rows { columns, rows })
            }
            Statement::ExplainTrigger(name) => Ok(StatementResult::Explain(
                self.snapshot().explain_trigger(name)?,
            )),
            Statement::Materialize { view, anchor } => Ok(StatementResult::Xml(
                self.snapshot().materialize(view, anchor)?,
            )),
            Statement::AnalyzeTriggers => Ok(StatementResult::Analysis(
                self.snapshot().analyze_triggers().report(),
            )),
            // ---- counters: the authoritative system, not the snapshot --
            Statement::Stats => {
                let quark = self.quark();
                let mut counters = quark.stats().rows();
                counters.push(("translations", quark.translations()));
                drop(quark);
                counters.sort_by_key(|&(name, _)| name);
                let rows = counters
                    .into_iter()
                    .map(|(name, v)| {
                        quark_relational::row([Value::str(name), Value::Int(v as i64)])
                    })
                    .collect();
                Ok(StatementResult::Rows {
                    columns: vec!["counter".into(), "value".into()],
                    rows,
                })
            }
            // ---- data changes: footprint-latched ----------------------
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => Ok(StatementResult::RowsAffected(
                self.execute_dml(table, stmt)?,
            )),
            // ---- DDL: global mode -------------------------------------
            Statement::CreateTable(schema) => {
                self.with_write(|quark| quark.database_mut().create_table(schema.clone()))??;
                Ok(StatementResult::Created {
                    kind: ObjectKind::Table,
                    name: schema.name.clone(),
                })
            }
            Statement::CreateIndex { table, column } => {
                self.with_write(|quark| quark.database_mut().create_index(table, column))??;
                Ok(StatementResult::Created {
                    kind: ObjectKind::Index,
                    name: format!("{table}.{column}"),
                })
            }
            Statement::DropTrigger(name) => {
                self.with_write(|quark| quark.drop_trigger(name))??;
                Ok(StatementResult::Dropped {
                    kind: ObjectKind::Trigger,
                    name: name.clone(),
                })
            }
            Statement::DropTable(name) => {
                self.with_write(|quark| quark.drop_table(name))??;
                Ok(StatementResult::Dropped {
                    kind: ObjectKind::Table,
                    name: name.clone(),
                })
            }
        }
    }

    /// Execute one data-change statement — the one DML path of the module
    /// docs: latch the statement's [`Footprint`] under the *shared* level-1
    /// lock; run statement and cascade as one [`Database::statement`]
    /// whose commit step appends its redo to the WAL; and only if both
    /// succeed, fold. A statement that fails, or whose append fails, has
    /// already been undone, so its error is returned with nothing logged
    /// or folded. A write that leaves the log at
    /// [`CHECKPOINT_LOG_BYTES`] checkpoints once it has let its latches
    /// go. An unbounded footprint
    /// ([`Footprint::Global`]) latches **every table exclusive**, which
    /// covers whatever a raw SQL trigger's body does: it only ever receives
    /// `&Database`, and every catalog change needs `&mut` (i.e. global
    /// mode). Holding every table's latch, that writer excludes every
    /// other one — exact single-writer semantics — and, parked on a table,
    /// it blocks that table's newer readers, so it cannot starve.
    fn execute_dml(&self, table: &str, stmt: &Statement) -> Result<usize, StatementError> {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        let db = state.database();
        let footprint = self.footprint_of(&state, table);
        let latch = db.latch(&footprint);
        // A table access outside `write` ∪ `read` — an action breaking its
        // declared writes, or a hole in the static analysis — fails the
        // statement and bumps `footprint_violations`. The statement's redo
        // is appended to the WAL as one frame while the statement can still
        // be undone: the statement boundary is the durability boundary.
        let log = state
            .storage()
            .map(|wal| move |ops: &[RedoOp]| Ok(wal.log_statement(ops)?));
        let outcome = db.statement(&footprint, || sql::execute_dml(db, stmt), log)?;
        // Only the write set can have changed, so only it is folded;
        // shared-latched read tables are untouched.
        self.shared.commit_tables(&state, &footprint.0);
        let log_full = log_is_full(&state);
        drop(latch);
        drop(state);
        if log_full {
            // A checkpoint needs a statement boundary: the exclusive level.
            // Another writer may have checkpointed while this one waited.
            let state = self.shared.state.write().unwrap_or_else(|e| e.into_inner());
            if log_is_full(&state) {
                // Best effort: this write's `Ok` stands, and a failure makes
                // the log refuse, so the next write reports it.
                let _ = state.checkpoint();
            }
        }
        Ok(outcome)
    }

    /// Memoized [`Quark::write_footprint`] (see `Shared::footprints`), as
    /// the `(write, read)` tables to latch: [`Footprint::Global`] becomes
    /// every table, written, once, when it is memoized. A hit clones no
    /// table-name set.
    fn footprint_of(&self, state: &Quark, table: &str) -> Latched {
        let mut cache = self
            .shared
            .footprints
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(footprint) = cache.get(table) {
            return Arc::clone(footprint);
        }
        let footprint = Arc::new(match state.write_footprint(table) {
            Footprint::Tables { write, read } => (write, read),
            Footprint::Global => {
                let every = state.database().table_names().map(String::from);
                (every.collect(), BTreeSet::new())
            }
        });
        cache.insert(table.to_string(), Arc::clone(&footprint));
        footprint
    }
}

/// The name prefix of the tables the engine creates for itself (a trigger
/// group's constants table): no user statement may create, index, write
/// or drop one.
pub const RESERVED_PREFIX: &str = "__quark_";

/// Refuse a user statement on a table named with [`RESERVED_PREFIX`].
pub(crate) fn refuse_reserved(table: &str) -> Result<()> {
    if table.starts_with(RESERVED_PREFIX) {
        return Err(Error::Plan(format!(
            "table `{table}` is reserved: `{RESERVED_PREFIX}` tables belong to the engine"
        )));
    }
    Ok(())
}

/// Length of the live WAL segment at which a latched write checkpoints
/// after it commits. Between global writes nothing else checkpoints, so
/// this bounds the log on disk and the time a reopen spends replaying it.
/// It does not bound recovery's memory: replay streams the log one frame
/// at a time.
pub const CHECKPOINT_LOG_BYTES: u64 = 128 << 20;

/// Whether `quark`'s live WAL segment has reached [`CHECKPOINT_LOG_BYTES`].
fn log_is_full(quark: &Quark) -> bool {
    quark
        .storage()
        .is_some_and(|s| s.wal_segment_bytes() >= CHECKPOINT_LOG_BYTES)
}

/// `CREATE VIEW` / `CREATE TRIGGER` — the statements the session frontend
/// parses instead of the [`sql`] grammar — as the object kind and the text
/// past leading whitespace and `--` line comments (the whole surface
/// accepts them). `None` for every other statement.
fn frontend_statement(text: &str) -> Option<(ObjectKind, &str)> {
    let stripped = strip_leading_trivia(text);
    let mut words = stripped.split_whitespace();
    if !words.next()?.eq_ignore_ascii_case("create") {
        return None;
    }
    let second = words.next()?;
    let kind = if second.eq_ignore_ascii_case("view") {
        ObjectKind::View
    } else if second.eq_ignore_ascii_case("trigger") {
        ObjectKind::Trigger
    } else {
        return None;
    };
    Some((kind, stripped))
}

/// Skip leading whitespace and `--` line comments.
fn strip_leading_trivia(text: &str) -> &str {
    let mut s = text;
    loop {
        let trimmed = s.trim_start();
        if let Some(rest) = trimmed.strip_prefix("--") {
            s = rest.split_once('\n').map(|(_, r)| r).unwrap_or("");
        } else {
            return trimmed;
        }
    }
}

/// Shift a parse-error span rightward by `offset` bytes (used after
/// parsing a trimmed suffix of the original statement text).
fn shift_span(e: StatementError, offset: usize) -> StatementError {
    match e {
        StatementError::Parse { message, span } => StatementError::Parse {
            message,
            span: Span::new(span.start + offset, span.end + offset),
        },
        db => db,
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut dbg = f.debug_struct("Session");
        match self.shared.state.try_read() {
            Ok(state) => dbg.field("mode", &state.mode()),
            Err(_) => dbg.field("mode", &"<locked>"),
        };
        dbg.field("frontend", &self.shared.frontend.is_some())
            .field("handles", &Arc::strong_count(&self.shared))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    fn session() -> Session {
        let db = quark_xqgm::fixtures::product_vendor_db();
        Session::new(Quark::new(db, Mode::Grouped))
    }

    #[test]
    fn relational_statements_work_without_a_frontend() {
        let s = session();
        let r = s
            .execute("INSERT INTO vendor VALUES ('Newegg', 'P1', 99.0)")
            .unwrap();
        assert_eq!(r, StatementResult::RowsAffected(1));
        let r = s
            .execute("SELECT vid FROM vendor WHERE pid = 'P1'")
            .unwrap();
        let StatementResult::Rows { rows, .. } = r else {
            panic!()
        };
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn frontend_statements_require_a_frontend() {
        let s = session();
        let err = s.execute("CREATE VIEW v AS { <v/> }").unwrap_err();
        assert!(err.to_string().contains("frontend"), "{err}");
        let err = s
            .execute("create trigger T after update on view('v')/x do f()")
            .unwrap_err();
        assert!(err.to_string().contains("frontend"), "{err}");
    }

    #[test]
    fn materialize_requires_a_known_view() {
        let s = session();
        let err = s.execute("MATERIALIZE view('nope')/product").unwrap_err();
        assert!(err.to_string().contains("unknown view"), "{err}");
    }

    #[test]
    fn drop_unknown_trigger_reports_db_error() {
        let s = session();
        let err = s.execute("DROP TRIGGER nope").unwrap_err();
        assert!(matches!(err, StatementError::Db(Error::UnknownTrigger(_))));
    }

    #[test]
    fn parse_errors_surface_with_spans() {
        let s = session();
        let err = s.execute("SELEC * FROM vendor").unwrap_err();
        assert!(err.span().is_some());
    }

    #[test]
    fn forks_share_writes_and_snapshots() {
        let a = session();
        let b = a.fork();
        a.execute("INSERT INTO vendor VALUES ('Newegg', 'P1', 99.0)")
            .unwrap();
        let StatementResult::Rows { rows, .. } = b
            .execute("SELECT vid FROM vendor WHERE vid = 'Newegg'")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(rows.len(), 1, "fork reads the shared write");
        // Two consecutive reads with no intervening write share one snapshot.
        let s1 = a.snapshot();
        let s2 = b.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2));
        // A write through a mutable guard invalidates it.
        drop(a.database_mut());
        let s3 = b.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s3));
    }

    #[test]
    fn session_pool_hands_out_handles() {
        let pool = SessionPool::new(session());
        let handles = [pool.session(), pool.session(), pool.session()];
        handles[0]
            .execute("INSERT INTO vendor VALUES ('Newegg', 'P1', 99.0)")
            .unwrap();
        for h in &handles {
            let StatementResult::Rows { rows, .. } = h
                .execute("SELECT vid FROM vendor WHERE vid = 'Newegg'")
                .unwrap()
            else {
                panic!()
            };
            assert_eq!(rows.len(), 1);
        }
        drop(handles);
        let _ = pool.into_session().into_quark();
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<SessionPool>();
        assert_send_sync::<Quark>();
        assert_send_sync::<Database>();
    }
}
