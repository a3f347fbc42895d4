//! `quark-xquery`: the XQuery frontend of the `quark-xtrig` reproduction
//! of *"Triggers over XML Views of Relational Data"* (ICDE 2005).
//!
//! Provides, per §2.1–2.2 and Appendix D of the paper:
//!
//! * a parser for the supported XQuery subset — FLWOR expressions, element
//!   constructors, child/descendant/attribute/self axes with predicates,
//!   comparison/logical operators, `count`/`exists`/`distinct`, quantified
//!   expressions — plus the `CREATE TRIGGER` language ([`parser`]);
//! * lowering into hierarchy *view trees* and trigger specifications
//!   ([`lower`]);
//! * view trees themselves and their XQGM generation ([`viewtree`]) —
//!   also the programmatic API used by the benchmark workload generator;
//! * the [`XQueryFrontend`] that plugs these into the [`Session`]
//!   statement surface, plus the [`session()`](session) constructor that
//!   opens the one front door.
//!
//! ```
//! use quark_core::{Mode, StatementResult};
//! let db = quark_xqgm::fixtures::product_vendor_db();
//! let session = quark_xquery::session(db, Mode::Grouped);
//! session.execute(r#"
//!     create view catalog as {
//!       <catalog>{
//!         for $prodname in distinct(view("default")/product/row/pname)
//!         let $products := view("default")/product/row[./pname = $prodname]
//!         let $vendors := view("default")/vendor/row[./pid = $products/pid]
//!         where count($vendors) >= 2
//!         return <product name={$prodname}>
//!           { for $vendor in $vendors return <vendor>{$vendor/*}</vendor> }
//!         </product>
//!       }</catalog>
//!     }"#).unwrap();
//! session.register_action("notifySmith", |_, _| Ok(())).unwrap();
//! session.execute(r#"
//!     CREATE TRIGGER Notify AFTER Update
//!     ON view('catalog')/product
//!     WHERE OLD_NODE/@name = 'CRT 15'
//!     DO notifySmith(NEW_NODE)"#).unwrap();
//! let fired = session
//!     .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
//!     .unwrap();
//! assert_eq!(fired, StatementResult::RowsAffected(1));
//! ```

#![warn(missing_docs)]

pub mod lower;
pub mod parser;
pub mod viewtree;

use quark_core::session::{Session, Span, StatementError, StatementFrontend};
use quark_core::{Mode, Quark};
use quark_relational::{Database, Result};

pub use lower::{lower_condition, lower_trigger, lower_view};
pub use parser::{parse_expr, parse_trigger, parse_view, ParseError};
pub use viewtree::{LevelSpec, TopBinding, ViewSpec};

/// The standard [`StatementFrontend`]: parses `CREATE VIEW` (XQuery body)
/// and `CREATE TRIGGER` (the §2.2 language) and registers the results.
#[derive(Debug, Clone, Copy, Default)]
pub struct XQueryFrontend;

fn spanned(e: ParseError, text: &str) -> StatementError {
    StatementError::Parse {
        message: e.message,
        span: Span::around(text, e.at),
    }
}

impl StatementFrontend for XQueryFrontend {
    fn create_view(&self, quark: &mut Quark, text: &str) -> Result<String, StatementError> {
        let def = parser::parse_view(text).map_err(|e| spanned(e, text))?;
        let spec = lower::lower_view(&def).map_err(StatementError::Db)?;
        let name = spec.name.clone();
        let view = spec.build(quark.database()).map_err(StatementError::Db)?;
        quark.register_view(view);
        Ok(name)
    }

    fn create_trigger(&self, quark: &mut Quark, text: &str) -> Result<String, StatementError> {
        let def = parser::parse_trigger(text).map_err(|e| spanned(e, text))?;
        let spec = lower::lower_trigger(&def).map_err(StatementError::Db)?;
        let name = spec.name.clone();
        quark.create_trigger(spec).map_err(StatementError::Db)?;
        Ok(name)
    }
}

/// Open a [`Session`] over a fresh system with the XQuery frontend wired
/// in: the one front door (see the crate example above).
pub fn session(db: Database, mode: Mode) -> Session {
    Session::with_frontend(Quark::new(db, mode), Box::new(XQueryFrontend))
}

/// Open (or create) a **durable** session rooted at directory `path`, with
/// the XQuery frontend wired in: [`Quark::open`] recovery — tables, views
/// and trigger groups re-armed to the last committed statement boundary —
/// plus the full `CREATE VIEW` / `CREATE TRIGGER` statement surface.
/// Re-register action functions before the first trigger firing.
pub fn open_session(path: impl AsRef<std::path::Path>, mode: Mode) -> Result<Session> {
    Ok(Session::with_frontend(
        Quark::open(path, mode)?,
        Box::new(XQueryFrontend),
    ))
}

/// [`open_session`] with an explicit WAL sync mode (see
/// [`Quark::open_with`]).
pub fn open_session_with(
    path: impl AsRef<std::path::Path>,
    mode: Mode,
    sync: quark_core::storage::SyncMode,
) -> Result<Session> {
    Ok(Session::with_frontend(
        Quark::open_with(path, mode, sync)?,
        Box::new(XQueryFrontend),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_core::StatementResult;

    const CATALOG: &str = r#"
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

    #[test]
    fn figure_3_round_trip_fires_trigger() {
        use std::sync::{Arc, Mutex};

        let db = quark_xqgm::fixtures::product_vendor_db();
        let session = session(db, Mode::Grouped);
        let created = session.execute(CATALOG).unwrap();
        assert_eq!(
            created,
            StatementResult::Created {
                kind: quark_core::ObjectKind::View,
                name: "catalog".into()
            }
        );

        let fired = Arc::new(Mutex::new(Vec::<String>::new()));
        let f2 = Arc::clone(&fired);
        session
            .register_action("notifySmith", move |_, call| {
                f2.lock().unwrap().push(call.params[0].to_string());
                Ok(())
            })
            .unwrap();
        session
            .execute(
                r#"CREATE TRIGGER Notify AFTER Update
                   ON view('catalog')/product
                   WHERE OLD_NODE/@name = 'CRT 15'
                   DO notifySmith(NEW_NODE)"#,
            )
            .unwrap();

        session
            .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .unwrap();
        let log = fired.lock().unwrap();
        assert_eq!(log.len(), 1);
        assert!(log[0].contains("75"), "{log:?}");
        assert!(log[0].contains("name=\"CRT 15\""), "{log:?}");
    }

    #[test]
    fn chain_view_parses_and_builds() {
        let text = r#"
            create view report as {
              <report>{
                for $r in view("default")/region/row
                let $shops := view("default")/shop/row[./rid = $r/rid]
                where count($shops) >= 2
                return <region name={$r/name}>
                  { for $s in $shops return <shop><name>{$s/name}</name><sales>{$s/sales}</sales></shop> }
                </region>
              }</report>
            }"#;
        let def = parse_view(text).unwrap();
        let spec = lower_view(&def).unwrap();
        assert_eq!(spec.depth(), 2);
        assert!(matches!(spec.binding, TopBinding::Rows));
        assert_eq!(
            spec.top.child_count,
            Some((quark_relational::expr::BinOp::Ge, 2))
        );
        let child = spec.top.child.as_ref().unwrap();
        assert_eq!(child.table, "shop");
        assert_eq!(child.parent_fk.as_deref(), Some("rid"));
        assert_eq!(child.scalars.len(), 2);
    }

    #[test]
    fn unsupported_shapes_error_cleanly() {
        let text = r#"create view v as { <v>{ for $x in view("default")/t/row
            return <e>{ OLD_NODE/@x }</e> }</v> }"#;
        let def = parse_view(text).unwrap();
        assert!(lower_view(&def).is_err());
    }

    #[test]
    fn condition_lowering_supports_quantifiers() {
        let ast = parse_expr("some $v in NEW_NODE/vendor satisfies ./price < 100").unwrap();
        let cond = lower_condition(&ast).unwrap();
        // exists(NEW_NODE/vendor[price < 100])
        assert!(matches!(cond, quark_core::Condition::Exists(_)));
    }

    #[test]
    fn view_parse_errors_carry_spans() {
        let db = quark_xqgm::fixtures::product_vendor_db();
        let s = session(db, Mode::Grouped);
        let err = s.execute("create view broken as { <v> }").unwrap_err();
        assert!(err.span().is_some(), "{err}");
        let err = s
            .execute("create trigger T after explode on view('v')/x do f()")
            .unwrap_err();
        assert!(err.span().is_some(), "{err}");
        assert!(err.to_string().contains("explode"), "{err}");
    }
}
