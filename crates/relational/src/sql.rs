//! Textual SQL statement surface: the relational half of the system's one
//! front door.
//!
//! The paper's interface is declarative text on *both* sides: users write
//! `CREATE TRIGGER … ON view('v')/path` against XML views, and the system
//! itself speaks SQL to the underlying RDBMS. This module gives the
//! embedded engine the same property — `INSERT`/`UPDATE`/`DELETE`/`SELECT`
//! plus table DDL parsed from text. The session layer routes every parsed
//! statement; this module executes the data changes and `SELECT`s as
//! single statements (each data change fires AFTER triggers exactly once,
//! like every other statement API on [`Database`]).
//!
//! Errors carry byte [`Span`]s into the statement text so the session layer
//! can report `parse error at 7..12: unknown column `prices``.
//!
//! `SELECT`, `UPDATE` and `DELETE` find their rows through the database's
//! one row selection: a `WHERE` clause that is a conjunction of equalities
//! covering the table's primary key (or one equality on an indexed column)
//! is an index probe rather than a scan — the textual surface stays fast
//! enough to drive the paper's measurement loops (§6).

use std::fmt;
use std::sync::Arc;

use crate::expr::{BinOp, Expr};
use crate::schema::TableSchema;
use crate::value::{ColumnType, Row, Value};
use crate::{ColumnDef, Database, Error};

/// A byte range into the statement text (half-open, `start..end`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the offending token.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// Construct a span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The span of the character at byte `at` of `text`. `at` is clamped
    /// to the text (end-of-input errors sit at `text.len()` and get an
    /// empty span there), and both ends widen to UTF-8 char boundaries:
    /// callers slice spans back out of the text, so a span covers whole
    /// characters even when `at` lands inside a multibyte one.
    pub fn around(text: &str, at: usize) -> Span {
        let mut start = at.min(text.len());
        while !text.is_char_boundary(start) {
            start -= 1;
        }
        let mut end = (start + 1).min(text.len());
        while !text.is_char_boundary(end) {
            end += 1;
        }
        Span::new(start, end)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// The unified top-level statement error: either a parse/bind failure with
/// the offending span, or an engine error raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementError {
    /// Syntax or name-resolution failure, anchored in the statement text.
    Parse {
        /// What went wrong.
        message: String,
        /// Offending byte range.
        span: Span,
    },
    /// Engine error from executing a well-formed statement.
    Db(Error),
}

impl StatementError {
    /// The span of a parse error, if this is one.
    pub fn span(&self) -> Option<Span> {
        match self {
            StatementError::Parse { span, .. } => Some(*span),
            StatementError::Db(_) => None,
        }
    }
}

impl fmt::Display for StatementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementError::Parse { message, span } => {
                write!(f, "parse error at {span}: {message}")
            }
            StatementError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StatementError {}

impl From<Error> for StatementError {
    fn from(e: Error) -> Self {
        StatementError::Db(e)
    }
}

impl From<StatementError> for Error {
    /// Lossy downgrade for callers whose APIs speak plain engine errors:
    /// parse errors collapse into [`Error::Plan`] with the span rendered
    /// into the message.
    fn from(e: StatementError) -> Self {
        match e {
            StatementError::Db(e) => e,
            parse @ StatementError::Parse { .. } => Error::Plan(parse.to_string()),
        }
    }
}

/// A scalar expression with column references still by *name* (bound to
/// positions against a table schema at execution time).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Literal value.
    Lit(Value),
    /// Column reference by name, with its source span.
    Col(String, Span),
    /// Binary operation (arithmetic, comparison, AND/OR).
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<SqlExpr>,
        /// Right operand.
        right: Box<SqlExpr>,
    },
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
}

/// Column list of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectCols {
    /// `SELECT *`.
    Star,
    /// Named columns with their source spans.
    Named(Vec<(String, Span)>),
}

/// A parsed statement.
///
/// `CREATE VIEW` and `CREATE TRIGGER` are *not* in this grammar: their
/// bodies are XQuery and are parsed by the session frontend one layer up.
/// Every statement parses here, but only the session routes them all: this
/// module executes data changes ([`execute_dml`]) and `SELECT`
/// ([`select`]) alone.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE t (col TYPE …, PRIMARY KEY (…))`.
    CreateTable(TableSchema),
    /// `CREATE INDEX [name] ON t (col)` — the optional name is ignored
    /// (indices are identified by table and column).
    CreateIndex {
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `DROP TABLE t`.
    DropTable(String),
    /// `DROP TRIGGER name` (an XML trigger).
    DropTrigger(String),
    /// `EXPLAIN TRIGGER name` — session-level only.
    ExplainTrigger(String),
    /// `MATERIALIZE view('v')/anchor` — session-level only.
    Materialize {
        /// View name.
        view: String,
        /// Anchor element within the view.
        anchor: String,
    },
    /// `STATS` — dump engine counters as rows; session-level only (the
    /// session merges in durable-storage counters).
    Stats,
    /// `ANALYZE TRIGGERS` — static analysis of the installed trigger
    /// program (footprint soundness, cascade termination, commutativity);
    /// session-level only (it needs the trigger-group registry).
    AnalyzeTriggers,
    /// `INSERT INTO t VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<Value>>,
    },
    /// `UPDATE t SET col = expr, … [WHERE pred]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments: column name, its span, and the value expression
        /// (evaluated against the pre-update row).
        sets: Vec<(String, Span, SqlExpr)>,
        /// Row filter (`None` = all rows).
        filter: Option<SqlExpr>,
    },
    /// `DELETE FROM t [WHERE pred]`.
    Delete {
        /// Target table.
        table: String,
        /// Row filter (`None` = all rows).
        filter: Option<SqlExpr>,
    },
    /// `SELECT cols FROM t [WHERE pred]`.
    Select {
        /// Source table.
        table: String,
        /// Projected columns.
        columns: SelectCols,
        /// Row filter.
        filter: Option<SqlExpr>,
    },
}

/// Parse one statement.
pub fn parse(text: &str) -> Result<Statement, StatementError> {
    let mut p = Cursor::new(text);
    if p.try_keyword("create") {
        if p.try_keyword("table") {
            return p.create_table();
        }
        if p.try_keyword("index") {
            return p.create_index();
        }
        return Err(p.err_here(
            "expected TABLE or INDEX after CREATE \
             (CREATE VIEW / CREATE TRIGGER are session-frontend statements)",
        ));
    }
    if p.try_keyword("drop") {
        if p.try_keyword("table") {
            let (name, _) = p.ident()?;
            p.finish()?;
            return Ok(Statement::DropTable(name));
        }
        if p.try_keyword("trigger") {
            let (name, _) = p.ident()?;
            p.finish()?;
            return Ok(Statement::DropTrigger(name));
        }
        return Err(p.err_here("expected TABLE or TRIGGER after DROP"));
    }
    if p.try_keyword("explain") {
        p.keyword("trigger")?;
        let (name, _) = p.ident()?;
        p.finish()?;
        return Ok(Statement::ExplainTrigger(name));
    }
    if p.try_keyword("materialize") {
        p.keyword("view")?;
        p.expect('(')?;
        let view = p.string()?;
        p.expect(')')?;
        p.expect('/')?;
        let (anchor, _) = p.ident()?;
        p.finish()?;
        return Ok(Statement::Materialize { view, anchor });
    }
    if p.try_keyword("insert") {
        return p.insert();
    }
    if p.try_keyword("update") {
        return p.update();
    }
    if p.try_keyword("delete") {
        return p.delete();
    }
    if p.try_keyword("select") {
        return p.select();
    }
    if p.try_keyword("stats") {
        p.finish()?;
        return Ok(Statement::Stats);
    }
    if p.try_keyword("analyze") {
        p.keyword("triggers")?;
        p.finish()?;
        return Ok(Statement::AnalyzeTriggers);
    }
    Err(p.err_here(
        "unrecognized statement (expected CREATE, DROP, INSERT, UPDATE, \
         DELETE, SELECT, EXPLAIN, MATERIALIZE, ANALYZE or STATS)",
    ))
}

/// Execute a data-change statement (`INSERT`/`UPDATE`/`DELETE`) against a
/// *shared* database reference, returning the number of rows it changed.
/// This is the entry point for footprint-latched writers: the session
/// layer acquires the statement's table latches first, then runs the
/// statement (and its cascade) while holding only `&Database`.
pub fn execute_dml(db: &Database, stmt: &Statement) -> Result<usize, StatementError> {
    match stmt {
        Statement::Insert { table, rows } => Ok(db.insert(table, rows.clone())?),
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            let schema = db.table(table)?.schema_ref();
            let mut assignments = Vec::with_capacity(sets.len());
            for (col, span, e) in sets {
                let idx = schema
                    .col(col)
                    .map_err(|_| unknown_column(col, table, *span))?;
                assignments.push((idx, bind(e, &schema, table)?));
            }
            let pred = filter
                .as_ref()
                .map(|f| bind(f, &schema, table))
                .transpose()?;
            Ok(db.update_expr(table, pred.as_ref(), &assignments)?)
        }
        Statement::Delete { table, filter } => {
            let schema = db.table(table)?.schema_ref();
            let pred = filter
                .as_ref()
                .map(|f| bind(f, &schema, table))
                .transpose()?;
            Ok(db.delete_expr(table, pred.as_ref())?)
        }
        other => Err(StatementError::Db(Error::Plan(format!(
            "not a data-change statement: {other:?}"
        )))),
    }
}

/// Execute a `SELECT` against a shared database reference, returning the
/// projected column names and the rows in primary-key order. This is the
/// read-only entry point concurrent sessions use to evaluate reads against
/// an immutable snapshot.
pub fn select(
    db: &Database,
    table: &str,
    columns: &SelectCols,
    filter: Option<&SqlExpr>,
) -> Result<(Vec<String>, Vec<Row>), StatementError> {
    let t = db.table(table)?;
    let schema = t.schema();
    let pred = filter.map(|f| bind(f, schema, table)).transpose()?;
    let (names, indices): (Vec<String>, Vec<usize>) = match columns {
        SelectCols::Star => (
            schema.columns.iter().map(|c| c.name.clone()).collect(),
            (0..schema.arity()).collect(),
        ),
        SelectCols::Named(cols) => {
            let mut names = Vec::with_capacity(cols.len());
            let mut idx = Vec::with_capacity(cols.len());
            for (c, span) in cols {
                idx.push(schema.col(c).map_err(|_| unknown_column(c, table, *span))?);
                names.push(c.clone());
            }
            (names, idx)
        }
    };
    // The selection yields primary-key order, so the output is
    // deterministic without a sort.
    let rows = db
        .select_rows(&t, pred.as_ref())?
        .iter()
        .map(|r| indices.iter().map(|&i| r[i].clone()).collect::<Row>())
        .collect();
    Ok((names, rows))
}

fn unknown_column(col: &str, table: &str, span: Span) -> StatementError {
    StatementError::Parse {
        message: format!("unknown column `{col}` in table `{table}`"),
        span,
    }
}

/// Bind named column references to positions.
fn bind(e: &SqlExpr, schema: &TableSchema, table: &str) -> Result<Expr, StatementError> {
    Ok(match e {
        SqlExpr::Lit(v) => Expr::Lit(v.clone()),
        SqlExpr::Col(name, span) => Expr::Col(
            schema
                .col(name)
                .map_err(|_| unknown_column(name, table, *span))?,
        ),
        SqlExpr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(bind(left, schema, table)?),
            right: Box::new(bind(right, schema, table)?),
        },
        SqlExpr::Not(inner) => Expr::Not(Box::new(bind(inner, schema, table)?)),
        SqlExpr::IsNull { expr, negated } => {
            let test = Expr::IsNull(Box::new(bind(expr, schema, table)?));
            if *negated {
                Expr::Not(Box::new(test))
            } else {
                test
            }
        }
    })
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Cursor<'a> {
    text: &'a str,
    input: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            text,
            input: text.as_bytes(),
            pos: 0,
        }
    }

    fn err_at(&self, span: Span, message: impl Into<String>) -> StatementError {
        StatementError::Parse {
            message: message.into(),
            span,
        }
    }

    fn err_here(&self, message: impl Into<String>) -> StatementError {
        self.err_at(Span::around(self.text, self.pos), message)
    }

    fn skip_ws(&mut self) {
        loop {
            while matches!(self.input.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.pos += 1;
            }
            // `-- line comments`
            if self.input.get(self.pos) == Some(&b'-')
                && self.input.get(self.pos + 1) == Some(&b'-')
            {
                while !matches!(self.input.get(self.pos), None | Some(b'\n')) {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn peek_is(&mut self, c: char) -> bool {
        self.peek() == Some(c as u8)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek_is(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), StatementError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected `{c}`")))
        }
    }

    fn finish(&mut self) -> Result<(), StatementError> {
        let _ = self.eat(';');
        self.skip_ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            Err(self.err_at(
                Span::new(self.pos, self.input.len()),
                "trailing input after statement",
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Span), StatementError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.input.get(self.pos) {
            if b.is_ascii_alphanumeric() || *b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err_here("expected identifier"));
        }
        let span = Span::new(start, self.pos);
        Ok((
            String::from_utf8_lossy(&self.input[start..self.pos]).into_owned(),
            span,
        ))
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let end = self.pos + kw.len();
        if end > self.input.len() {
            return false;
        }
        if !self.input[self.pos..end].eq_ignore_ascii_case(kw.as_bytes()) {
            return false;
        }
        if let Some(b) = self.input.get(end) {
            if b.is_ascii_alphanumeric() || *b == b'_' {
                return false;
            }
        }
        self.pos = end;
        true
    }

    fn keyword(&mut self, kw: &str) -> Result<(), StatementError> {
        if self.try_keyword(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected keyword `{}`", kw.to_ascii_uppercase())))
        }
    }

    fn string(&mut self) -> Result<String, StatementError> {
        self.skip_ws();
        let quote = match self.input.get(self.pos) {
            Some(b'\'') => b'\'',
            Some(b'"') => b'"',
            _ => return Err(self.err_here("expected string literal")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(&b) = self.input.get(self.pos) {
            if b == quote {
                let s = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.err_at(
            Span::new(start - 1, self.input.len()),
            "unterminated string",
        ))
    }

    fn number(&mut self) -> Result<Value, StatementError> {
        self.skip_ws();
        let start = self.pos;
        if self.input.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.input.get(self.pos) {
            if b.is_ascii_digit() {
                self.pos += 1;
            } else if b == b'.' && !is_float {
                is_float = true;
                self.pos += 1;
            } else if (b == b'e' || b == b'E') && self.pos > start {
                // exponent: e[+-]digits
                is_float = true;
                self.pos += 1;
                if matches!(self.input.get(self.pos), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
        let span = Span::new(start, self.pos);
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii");
        if is_float {
            text.parse::<f64>()
                .map(Value::Double)
                .map_err(|_| self.err_at(span, "bad float literal"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err_at(span, "bad integer literal"))
        }
    }

    fn literal(&mut self) -> Result<Value, StatementError> {
        if self.try_keyword("null") {
            return Ok(Value::Null);
        }
        if self.try_keyword("true") {
            return Ok(Value::Bool(true));
        }
        if self.try_keyword("false") {
            return Ok(Value::Bool(false));
        }
        match self.peek() {
            Some(b'\'') | Some(b'"') => Ok(Value::Str(Arc::from(self.string()?.as_str()))),
            Some(b) if b.is_ascii_digit() || b == b'-' => self.number(),
            _ => Err(self.err_here("expected literal value")),
        }
    }

    fn column_type(&mut self) -> Result<ColumnType, StatementError> {
        let (name, span) = self.ident()?;
        let ty = match name.to_ascii_lowercase().as_str() {
            "int" | "integer" | "bigint" => ColumnType::Int,
            "double" | "float" | "real" => ColumnType::Double,
            "text" | "string" | "varchar" | "char" => {
                // optional length: VARCHAR(32)
                if self.eat('(') {
                    self.number()?;
                    self.expect(')')?;
                }
                ColumnType::Str
            }
            "bool" | "boolean" => ColumnType::Bool,
            other => return Err(self.err_at(span, format!("unknown column type `{other}`"))),
        };
        Ok(ty)
    }

    // ---- statements ---------------------------------------------------

    fn create_table(&mut self) -> Result<Statement, StatementError> {
        let (name, _) = self.ident()?;
        self.expect('(')?;
        let mut columns: Vec<ColumnDef> = Vec::new();
        let mut pk: Vec<String> = Vec::new();
        loop {
            if self.try_keyword("primary") {
                self.keyword("key")?;
                self.expect('(')?;
                loop {
                    pk.push(self.ident()?.0);
                    if !self.eat(',') {
                        break;
                    }
                }
                self.expect(')')?;
            } else {
                let (col, _) = self.ident()?;
                let ty = self.column_type()?;
                if self.try_keyword("primary") {
                    self.keyword("key")?;
                    pk.push(col.clone());
                }
                columns.push(ColumnDef::new(col, ty));
            }
            if !self.eat(',') {
                break;
            }
        }
        self.expect(')')?;
        self.finish()?;
        let pk_refs: Vec<&str> = pk.iter().map(String::as_str).collect();
        let schema = TableSchema::new(name, columns, &pk_refs).map_err(StatementError::Db)?;
        Ok(Statement::CreateTable(schema))
    }

    fn create_index(&mut self) -> Result<Statement, StatementError> {
        // CREATE INDEX [name] ON table (column)
        if !self.try_keyword("on") {
            let _ = self.ident()?; // optional index name, unused
            self.keyword("on")?;
        }
        let (table, _) = self.ident()?;
        self.expect('(')?;
        let (column, _) = self.ident()?;
        self.expect(')')?;
        self.finish()?;
        Ok(Statement::CreateIndex { table, column })
    }

    fn insert(&mut self) -> Result<Statement, StatementError> {
        self.keyword("into")?;
        let (table, _) = self.ident()?;
        self.keyword("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect('(')?;
            let mut row = Vec::new();
            if !self.peek_is(')') {
                loop {
                    row.push(self.literal()?);
                    if !self.eat(',') {
                        break;
                    }
                }
            }
            self.expect(')')?;
            rows.push(row);
            if !self.eat(',') {
                break;
            }
        }
        self.finish()?;
        Ok(Statement::Insert { table, rows })
    }

    fn update(&mut self) -> Result<Statement, StatementError> {
        let (table, _) = self.ident()?;
        self.keyword("set")?;
        let mut sets = Vec::new();
        loop {
            let (col, span) = self.ident()?;
            self.expect('=')?;
            let e = self.parse_or()?;
            sets.push((col, span, e));
            if !self.eat(',') {
                break;
            }
        }
        let filter = self.opt_where()?;
        self.finish()?;
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement, StatementError> {
        self.keyword("from")?;
        let (table, _) = self.ident()?;
        let filter = self.opt_where()?;
        self.finish()?;
        Ok(Statement::Delete { table, filter })
    }

    fn select(&mut self) -> Result<Statement, StatementError> {
        let columns = if self.eat('*') {
            SelectCols::Star
        } else {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat(',') {
                    break;
                }
            }
            SelectCols::Named(cols)
        };
        self.keyword("from")?;
        let (table, _) = self.ident()?;
        let filter = self.opt_where()?;
        self.finish()?;
        Ok(Statement::Select {
            table,
            columns,
            filter,
        })
    }

    fn opt_where(&mut self) -> Result<Option<SqlExpr>, StatementError> {
        if self.try_keyword("where") {
            Ok(Some(self.parse_or()?))
        } else {
            Ok(None)
        }
    }

    // ---- expression grammar ------------------------------------------

    fn parse_or(&mut self) -> Result<SqlExpr, StatementError> {
        let mut left = self.parse_and()?;
        while self.try_keyword("or") {
            let right = self.parse_and()?;
            left = SqlExpr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<SqlExpr, StatementError> {
        let mut left = self.parse_not()?;
        while self.try_keyword("and") {
            let right = self.parse_not()?;
            left = SqlExpr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<SqlExpr, StatementError> {
        if self.try_keyword("not") {
            return Ok(SqlExpr::Not(Box::new(self.parse_not()?)));
        }
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> Result<SqlExpr, StatementError> {
        let left = self.parse_add()?;
        if self.try_keyword("is") {
            let negated = self.try_keyword("not");
            self.keyword("null")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let op = match self.peek() {
            Some(b'=') => {
                self.pos += 1;
                BinOp::Eq
            }
            Some(b'!') if self.input.get(self.pos + 1) == Some(&b'=') => {
                self.pos += 2;
                BinOp::Ne
            }
            Some(b'<') => {
                self.pos += 1;
                match self.input.get(self.pos) {
                    Some(b'=') => {
                        self.pos += 1;
                        BinOp::Le
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        BinOp::Ne
                    }
                    _ => BinOp::Lt,
                }
            }
            Some(b'>') => {
                self.pos += 1;
                if self.input.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    BinOp::Ge
                } else {
                    BinOp::Gt
                }
            }
            _ => return Ok(left),
        };
        let right = self.parse_add()?;
        Ok(SqlExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn parse_add(&mut self) -> Result<SqlExpr, StatementError> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(b'+') => BinOp::Add,
                // `--` starts a comment, not subtraction of a negative.
                Some(b'-') if self.input.get(self.pos + 1) != Some(&b'-') => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_mul()?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<SqlExpr, StatementError> {
        let mut left = self.parse_primary()?;
        loop {
            let op = match self.peek() {
                Some(b'*') => BinOp::Mul,
                Some(b'/') => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_primary()?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_primary(&mut self) -> Result<SqlExpr, StatementError> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let e = self.parse_or()?;
                self.expect(')')?;
                Ok(e)
            }
            Some(b'\'') | Some(b'"') => {
                Ok(SqlExpr::Lit(Value::Str(Arc::from(self.string()?.as_str()))))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => Ok(SqlExpr::Lit(self.number()?)),
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                if self.try_keyword("null") {
                    return Ok(SqlExpr::Lit(Value::Null));
                }
                if self.try_keyword("true") {
                    return Ok(SqlExpr::Lit(Value::Bool(true)));
                }
                if self.try_keyword("false") {
                    return Ok(SqlExpr::Lit(Value::Bool(false)));
                }
                let (name, span) = self.ident()?;
                Ok(SqlExpr::Col(name, span))
            }
            _ => Err(self.err_here("expected expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::ColumnType;

    fn vendor_db() -> Database {
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
        db.load(
            "vendor",
            vec![
                vec![Value::str("a"), Value::str("P1"), Value::Double(100.0)],
                vec![Value::str("b"), Value::str("P1"), Value::Double(120.0)],
                vec![Value::str("a"), Value::str("P2"), Value::Double(200.0)],
            ],
        )
        .unwrap();
        db
    }

    /// Parse a `CREATE TABLE` and create it.
    fn create(db: &mut Database, text: &str) {
        let Statement::CreateTable(schema) = parse(text).unwrap() else {
            panic!("not a CREATE TABLE: {text}");
        };
        db.create_table(schema).unwrap();
    }

    /// Parse and execute a data-change statement.
    fn dml(db: &Database, text: &str) -> Result<usize, StatementError> {
        execute_dml(db, &parse(text)?)
    }

    /// Parse and execute a `SELECT`: its column names and rows.
    fn query(db: &Database, text: &str) -> Result<(Vec<String>, Vec<Row>), StatementError> {
        let Statement::Select {
            table,
            columns,
            filter,
        } = parse(text)?
        else {
            panic!("not a SELECT: {text}");
        };
        select(db, &table, &columns, filter.as_ref())
    }

    #[test]
    fn create_table_with_inline_and_trailing_pk() {
        let mut db = Database::new();
        create(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
        assert_eq!(db.table("t").unwrap().schema().primary_key, vec![0]);
        create(
            &mut db,
            "create table u (a text, b text, v double, primary key (a, b));",
        );
        assert_eq!(db.table("u").unwrap().schema().primary_key, vec![0, 1]);
    }

    #[test]
    fn insert_update_delete_round_trip() {
        let db = vendor_db();
        let out = dml(
            &db,
            "INSERT INTO vendor VALUES ('c', 'P1', 90.0), ('c', 'P2', 95.0)",
        );
        assert_eq!(out, Ok(2));
        let out = dml(
            &db,
            "UPDATE vendor SET price = 75.0 WHERE vid = 'a' AND pid = 'P1'",
        );
        assert_eq!(out, Ok(1));
        assert_eq!(
            db.table("vendor")
                .unwrap()
                .get(&[Value::str("a"), Value::str("P1")])
                .unwrap()[2],
            Value::Double(75.0)
        );
        let out = dml(&db, "DELETE FROM vendor WHERE pid = 'P2'");
        assert_eq!(out, Ok(2));
        assert_eq!(db.table("vendor").unwrap().len(), 3);
    }

    #[test]
    fn keyed_update_uses_probe_and_misses_return_zero() {
        let db = vendor_db();
        let out = dml(
            &db,
            "UPDATE vendor SET price = 1.0 WHERE vid = 'zz' AND pid = 'P9'",
        );
        assert_eq!(out, Ok(0));
        let out = dml(&db, "DELETE FROM vendor WHERE vid = 'zz' AND pid = 'P9'");
        assert_eq!(out, Ok(0));
    }

    #[test]
    fn arithmetic_update_reads_pre_update_row() {
        let db = vendor_db();
        let out = dml(
            &db,
            "UPDATE vendor SET price = price + 10.0 WHERE pid = 'P1'",
        );
        assert_eq!(out, Ok(2));
        assert_eq!(
            db.table("vendor")
                .unwrap()
                .get(&[Value::str("a"), Value::str("P1")])
                .unwrap()[2],
            Value::Double(110.0)
        );
    }

    #[test]
    fn key_shifting_update_applies_simultaneously() {
        let mut db = Database::new();
        create(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
        dml(&db, "INSERT INTO t VALUES (2, 0), (4, 0), (6, 0)").unwrap();
        // Sequential apply in arbitrary order could hit 2→4 while 4 still
        // exists; simultaneous statement semantics must succeed.
        let out = dml(&db, "UPDATE t SET id = id + 2, v = v + 1");
        assert_eq!(out, Ok(3));
        let (_, rows) = query(&db, "SELECT id, v FROM t").unwrap();
        let ids: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(4), Value::Int(6), Value::Int(8)]);
        assert!(rows.iter().all(|r| r[1] == Value::Int(1)));
    }

    #[test]
    fn colliding_key_update_is_atomic() {
        let mut db = Database::new();
        create(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
        dml(&db, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)").unwrap();
        // Every row maps to id 9: duplicate replacement keys must abort
        // with NO partial changes and NO trigger firings.
        use crate::database::{Event, SqlTrigger};
        use std::sync::{Arc, Mutex};
        let fired = Arc::new(Mutex::new(0usize));
        let f2 = Arc::clone(&fired);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "t".into(),
            event: Event::Update,
            body: Arc::new(move |_, _| {
                *f2.lock().unwrap() += 1;
                Ok(())
            }),
        })
        .unwrap();
        let err = dml(&db, "UPDATE t SET id = 9, v = 99").unwrap_err();
        assert!(matches!(
            err,
            StatementError::Db(Error::DuplicateKey { .. })
        ));
        assert_eq!(*fired.lock().unwrap(), 0, "no partial firing");
        let (_, rows) = query(&db, "SELECT id, v FROM t").unwrap();
        let ids: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(rows.iter().all(|r| r[1] == Value::Int(0)), "rolled back");
    }

    #[test]
    fn select_projects_and_orders_by_key() {
        let db = vendor_db();
        let (columns, rows) = query(&db, "SELECT vid, price FROM vendor WHERE pid = 'P1'").unwrap();
        assert_eq!(columns, vec!["vid".to_string(), "price".to_string()]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::str("a"));
        assert_eq!(rows[1][0], Value::str("b"));
        let (columns, rows) = query(&db, "SELECT * FROM vendor").unwrap();
        assert_eq!(columns.len(), 3);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn parse_errors_carry_spans() {
        let db = vendor_db();
        let err = dml(&db, "UPDAT vendor SET price = 1").unwrap_err();
        let StatementError::Parse { span, .. } = err else {
            panic!("expected parse error, got {err:?}");
        };
        assert_eq!(span.start, 0);

        let text = "UPDATE vendor SET prices = 1";
        let err = dml(&db, text).unwrap_err();
        let StatementError::Parse { span, message } = err else {
            panic!("expected parse error");
        };
        assert_eq!(&text[span.start..span.end], "prices");
        assert!(message.contains("unknown column"), "{message}");
    }

    #[test]
    fn parse_error_spans_stay_on_char_boundaries() {
        // The offending token is a multibyte character: the span must
        // cover it whole (slicing the statement text at the span must not
        // panic and must return the character).
        let text = "SELECT ☃ FROM vendor";
        let err = parse(text).unwrap_err();
        let StatementError::Parse { span, .. } = err else {
            panic!("expected parse error");
        };
        assert_eq!(&text[span.start..span.end], "☃");

        // Errors positioned after multibyte string literals stay sliceable.
        let text = "INSERT INTO vendor VALUES ('héllo™', 'P9', 1.0) ✗";
        let err = parse(text).unwrap_err();
        let span = err.span().expect("parse error has a span");
        assert!(text.get(span.start..span.end).is_some(), "{span:?}");

        // Multibyte input inside a WHERE clause: the error lands on the
        // non-ASCII expression head.
        let text = "DELETE FROM vendor WHERE vid = ☃";
        let err = parse(text).unwrap_err();
        let span = err.span().expect("parse error has a span");
        assert_eq!(&text[span.start..span.end], "☃");
    }

    #[test]
    fn end_of_input_errors_have_clamped_spans() {
        // Truncated statements error at `pos == len`; the span must clamp
        // to the text (an out-of-range index here panicked once).
        for text in [
            "DROP TRIGGER",
            "DELETE FROM vendor WHERE vid =",
            "INSERT INTO vendor VALUES ('héllo™', ",
            "SELECT",
            "",
        ] {
            let err = parse(text).unwrap_err();
            let span = err.span().expect("parse error has a span");
            assert!(
                text.get(span.start..span.end).is_some(),
                "{text:?}: {span:?}"
            );
        }
    }

    #[test]
    fn span_around_covers_whole_characters() {
        let text = "a☃b"; // '☃' is bytes 1..4
        assert_eq!(Span::around(text, 0), Span::new(0, 1));
        for at in 1..4 {
            assert_eq!(Span::around(text, at), Span::new(1, 4), "at {at}");
        }
        assert_eq!(Span::around(text, 4), Span::new(4, 5));
        assert_eq!(Span::around(text, 5), Span::new(5, 5));
        assert_eq!(Span::around(text, 99), Span::new(5, 5));
    }

    #[test]
    fn mismatched_and_null_pk_literals_skip_the_probe_fast_path() {
        let mut db = Database::new();
        create(&mut db, "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
        dml(&db, "INSERT INTO t VALUES ('5', 1), ('x', 2)").unwrap();
        // `id = 5` compares an Int literal to a TEXT key. SQL atomization
        // matches the row '5'; a key probe with Int(5) would miss it and
        // report 0 rows. The statement must take the scan path.
        let before = db.stats();
        let (_, rows) = query(&db, "SELECT v FROM t WHERE id = 5").unwrap();
        assert_eq!(rows, vec![crate::row([Value::Int(1)])]);
        let after = db.stats();
        assert_eq!(after.index_probes, before.index_probes, "no probe");
        assert_eq!(after.rows_scanned - before.rows_scanned, 2, "scanned");
        let out = dml(&db, "UPDATE t SET v = 9 WHERE id = 5");
        assert_eq!(out, Ok(1));
        assert_eq!(
            db.table("t").unwrap().get(&[Value::str("5")]).unwrap()[1],
            Value::Int(9)
        );
        // NULL comparisons are unknown for every row: no matches, via the
        // generic path (a probe keyed on NULL asks the index a question
        // SQL semantics never ask).
        let (_, rows) = query(&db, "SELECT * FROM t WHERE id = NULL").unwrap();
        assert!(rows.is_empty());
        let out = dml(&db, "DELETE FROM t WHERE id = NULL");
        assert_eq!(out, Ok(0));
        assert_eq!(db.table("t").unwrap().len(), 2);
        // A literal of the key's type is one probe and no scan, for SELECT
        // as for UPDATE and DELETE.
        let before = db.stats();
        query(&db, "SELECT * FROM t WHERE id = 'x'").unwrap();
        dml(&db, "UPDATE t SET v = v + 1 WHERE id = 'x'").unwrap();
        dml(&db, "DELETE FROM t WHERE 'x' = id").unwrap();
        let after = db.stats();
        assert_eq!(after.index_probes - before.index_probes, 3);
        assert_eq!(after.rows_scanned, before.rows_scanned);
        assert_eq!(db.table("t").unwrap().len(), 1);
    }

    #[test]
    fn db_errors_pass_through() {
        let db = vendor_db();
        let err = dml(&db, "INSERT INTO nosuch VALUES (1)").unwrap_err();
        assert!(matches!(err, StatementError::Db(Error::UnknownTable(_))));
        let err = dml(&db, "INSERT INTO vendor VALUES ('a', 'P1', 1.0)").unwrap_err();
        assert!(matches!(
            err,
            StatementError::Db(Error::DuplicateKey { .. })
        ));
    }

    #[test]
    fn statements_fire_triggers_once() {
        use crate::database::{Event, SqlTrigger};
        use std::sync::{Arc, Mutex};
        let mut db = vendor_db();
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
        dml(&db, "UPDATE vendor SET price = price * 2 WHERE pid = 'P1'").unwrap();
        assert_eq!(*firings.lock().unwrap(), vec![2]);
    }

    #[test]
    fn null_handling_and_logic() {
        let mut db = Database::new();
        create(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
        dml(&db, "INSERT INTO t VALUES (1, NULL), (2, 5.0)").unwrap();
        let (_, rows) = query(&db, "SELECT id FROM t WHERE v IS NULL").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(1));
        // NULL comparisons are unknown, not true.
        let (_, rows) = query(&db, "SELECT id FROM t WHERE v < 10 OR v IS NULL").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn session_level_statements_parse_but_need_a_session() {
        let stmt = parse("EXPLAIN TRIGGER Notify").unwrap();
        assert_eq!(stmt, Statement::ExplainTrigger("Notify".into()));
        let stmt = parse("MATERIALIZE view('catalog')/product").unwrap();
        assert_eq!(
            stmt,
            Statement::Materialize {
                view: "catalog".into(),
                anchor: "product".into()
            }
        );
        let stmt = parse("ANALYZE TRIGGERS").unwrap();
        assert_eq!(stmt, Statement::AnalyzeTriggers);
        assert!(parse("ANALYZE").is_err(), "bare ANALYZE is incomplete");
    }

    #[test]
    fn drop_table_and_trigger_statements() {
        assert_eq!(
            parse("DROP TABLE vendor").unwrap(),
            Statement::DropTable("vendor".into())
        );
        assert_eq!(
            parse("DROP TRIGGER nope").unwrap(),
            Statement::DropTrigger("nope".into())
        );
    }
}
