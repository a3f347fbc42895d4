//! View trees: the hierarchical intermediate form between parsed XQuery
//! view definitions and XQGM.
//!
//! XML views of relational data published XPERANTO-style are, in practice,
//! parent/child hierarchies: each element level draws from one table,
//! children link to parents by foreign key, and levels may carry
//! aggregate predicates (`count(children) ≥ k`). This is exactly the shape
//! of the paper's running example (Fig. 3) and of its entire experimental
//! setup (§6.1's depth-2…5 hierarchies). The parser lowers the supported
//! XQuery subset into a [`ViewSpec`]; [`ViewSpec::build`] generates the
//! XQGM path graphs that `quark-core` translates.

use std::collections::HashMap;

use quark_core::spec::{PathGraph, XmlView};
use quark_relational::expr::{AggExpr, AggFunc, BinOp, Expr, ScalarFunc};
use quark_relational::{Database, Error, Result};
use quark_xqgm::{normalize, Graph, JoinKind, OpId};

/// How the top level binds to its table.
#[derive(Debug, Clone, PartialEq)]
pub enum TopBinding {
    /// One element per row of the top table.
    Rows,
    /// One element per distinct value of a column (Fig. 3's
    /// `for $prodname in distinct(…/pname)`); supported for depth-2 views.
    GroupBy {
        /// Grouping column name.
        column: String,
    },
}

/// One level of the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSpec {
    /// Element tag emitted for this level.
    pub element: String,
    /// Backing table.
    pub table: String,
    /// This table's foreign-key column referencing the parent's primary
    /// key (`None` at the top level).
    pub parent_fk: Option<String>,
    /// Attributes: `(attribute name, column name)`.
    pub attrs: Vec<(String, String)>,
    /// Scalar child elements: `(element name, column name)`.
    pub scalars: Vec<(String, String)>,
    /// Predicate on the number of immediate children (the paper's
    /// `count(…) ≥ 2`).
    pub child_count: Option<(BinOp, i64)>,
    /// Nested level.
    pub child: Option<Box<LevelSpec>>,
}

/// A full view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSpec {
    /// View name (`view('name')`).
    pub name: String,
    /// Document root element wrapping all top-level elements.
    pub root_element: String,
    /// Top-level binding.
    pub binding: TopBinding,
    /// Level chain, outermost first.
    pub top: LevelSpec,
}

/// Output of building one level, bottom-up.
struct LevelOut {
    op: OpId,
    /// Column with this table's parent-fk value (if any).
    fk_col: Option<usize>,
    /// Column with the constructed element.
    node_col: usize,
}

impl ViewSpec {
    /// Depth of the hierarchy.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut lvl = &self.top;
        while let Some(c) = &lvl.child {
            d += 1;
            lvl = c;
        }
        d
    }

    /// Generate the registered [`XmlView`]: a normalized path graph for the
    /// top-level element anchor (the monitorable path `view(name)/element`).
    pub fn build(&self, db: &Database) -> Result<XmlView> {
        let mut g = Graph::new();
        let (top_op, node_col, attr_cols) = match &self.binding {
            TopBinding::Rows => self.build_chain(&mut g, db)?,
            TopBinding::GroupBy { column } => self.build_grouped(&mut g, db, column)?,
        };
        let (graph, root) = normalize(&g, top_op, db)?;
        // Normalization preserves output column positions (it only appends).
        let pg = PathGraph {
            graph,
            root,
            node_col,
            attr_cols,
        };
        debug_assert!(pg.key(db).is_ok_and(|key| !key.is_empty()));
        Ok(XmlView::new(self.name.clone()).with_anchor(self.top.element.clone(), pg))
    }

    /// Row-bound chain of arbitrary depth (the §6.1 benchmark hierarchies).
    fn build_chain(
        &self,
        g: &mut Graph,
        db: &Database,
    ) -> Result<(OpId, usize, HashMap<String, usize>)> {
        let out = build_level(g, &self.top, db)?;
        let mut attr_cols = HashMap::new();
        // The top projection is [key, (fk), node, attr values…]; recompute
        // attribute positions from the level builder's convention.
        for (i, (attr, _)) in self.top.attrs.iter().enumerate() {
            attr_cols.insert(attr.clone(), out.node_col + 1 + i);
        }
        Ok((out.op, out.node_col, attr_cols))
    }

    /// Catalog-style grouped top (Fig. 3): depth must be 2.
    fn build_grouped(
        &self,
        g: &mut Graph,
        db: &Database,
        group_col: &str,
    ) -> Result<(OpId, usize, HashMap<String, usize>)> {
        let child = self
            .top
            .child
            .as_deref()
            .ok_or_else(|| Error::Plan("grouped views need a nested level".into()))?;
        if child.child.is_some() {
            return Err(Error::Plan(
                "grouped top binding supports depth-2 views (Fig. 3 shape)".into(),
            ));
        }
        let parent_table = db.table(&self.top.table)?;
        let parent_schema = parent_table.schema();
        let parent_key = single_pk(db, &self.top.table)?;
        let pk_idx = parent_schema.col(&parent_key)?;
        let group_idx = parent_schema.col(group_col)?;
        let child_table = db.table(&child.table)?;
        let child_schema = child_table.schema();
        let fk_name = child.parent_fk.as_ref().ok_or_else(|| {
            Error::Plan(format!(
                "level `{}` lacks a parent foreign key",
                child.element
            ))
        })?;
        let fk_idx = child_schema.col(fk_name)?;

        let parent = g.table(self.top.table.clone());
        let childt = g.table(child.table.clone());
        let parent_arity = parent_schema.arity();
        let join = g.equi_join(
            JoinKind::Inner,
            parent,
            childt,
            &[(pk_idx, fk_idx)],
            parent_arity,
        );

        // Child element per joined row.
        let child_el = element_expr(child, child_schema, parent_arity)?;
        let projected = g.project(
            join,
            vec![Expr::col(group_idx), child_el],
            vec![group_col.to_string(), "child".into()],
        );
        let grouped = g.group_by(
            projected,
            vec![0],
            vec![
                (
                    AggExpr::over(AggFunc::XmlAgg, Expr::col(1)),
                    "children".into(),
                ),
                (AggExpr::count_star(), "cnt".into()),
            ],
        );
        let filtered = match &self.top.child_count {
            Some((op, k)) => g.select(grouped, Expr::bin(*op, Expr::col(2), Expr::lit(*k))),
            None => grouped,
        };
        // Top element: attributes may only reference the grouping column in
        // grouped views.
        for (a, c) in &self.top.attrs {
            if c != group_col {
                return Err(Error::Plan(format!(
                    "grouped view attribute `{a}` must use the grouping column"
                )));
            }
        }
        let attrs: Vec<String> = self.top.attrs.iter().map(|(a, _)| a.clone()).collect();
        let mut args: Vec<Expr> = self.top.attrs.iter().map(|_| Expr::col(0)).collect();
        args.push(Expr::col(1));
        let node = Expr::Func(
            ScalarFunc::XmlElement {
                name: self.top.element.clone(),
                attrs,
            },
            args,
        );
        let mut attr_cols = HashMap::new();
        let mut exprs = vec![Expr::col(0), node];
        let mut names = vec![group_col.to_string(), "node".into()];
        for (i, (a, _)) in self.top.attrs.iter().enumerate() {
            exprs.push(Expr::col(0));
            names.push(format!("attr_{a}"));
            attr_cols.insert(a.clone(), 2 + i);
        }
        let top = g.project(filtered, exprs, names);
        Ok((top, 1, attr_cols))
    }
}

/// Build a row-bound level and its descendants.
///
/// Output projection convention: `[pk, fk?, node, attr values…]`.
fn build_level(g: &mut Graph, level: &LevelSpec, db: &Database) -> Result<LevelOut> {
    let schema = db.table(&level.table)?.schema().clone();
    let pk_name = single_pk(db, &level.table)?;
    let pk = schema.col(&pk_name)?;
    let base = g.table(level.table.clone());
    let arity = schema.arity();

    let (input, input_frag_col, input_cnt_col) = match &level.child {
        None => (base, None, None),
        Some(child) => {
            let child_out = build_level(g, child, db)?;
            let fk_col = child_out.fk_col.ok_or_else(|| {
                Error::Plan(format!(
                    "level `{}` lacks a parent foreign key",
                    child.element
                ))
            })?;
            // Aggregate children per fk: [fk, frag, cnt].
            let agg = g.group_by(
                child_out.op,
                vec![fk_col],
                vec![
                    (
                        AggExpr::over(AggFunc::XmlAgg, Expr::col(child_out.node_col)),
                        "children".into(),
                    ),
                    (AggExpr::count_star(), "cnt".into()),
                ],
            );
            let join = g.equi_join(JoinKind::Inner, base, agg, &[(pk, 0)], arity);
            (join, Some(arity + 1), Some(arity + 2))
        }
    };

    let filtered = match (&level.child_count, input_cnt_col) {
        (Some((op, k)), Some(cnt)) => {
            g.select(input, Expr::bin(*op, Expr::col(cnt), Expr::lit(*k)))
        }
        (Some(_), None) => {
            return Err(Error::Plan(format!(
                "level `{}` has a child-count predicate but no children",
                level.element
            )))
        }
        (None, _) => input,
    };

    let node = element_expr_with_frag(level, &schema, 0, input_frag_col)?;
    let mut exprs = vec![Expr::col(pk)];
    let mut names = vec![pk_name.clone()];
    let fk_col_out = match &level.parent_fk {
        Some(fk) => {
            let idx = schema.col(fk)?;
            exprs.push(Expr::col(idx));
            names.push(fk.clone());
            Some(exprs.len() - 1)
        }
        None => None,
    };
    let node_col = exprs.len();
    exprs.push(node);
    names.push("node".into());
    for (a, c) in &level.attrs {
        exprs.push(Expr::col(schema.col(c)?));
        names.push(format!("attr_{a}"));
    }
    let op = g.project(filtered, exprs, names);
    Ok(LevelOut {
        op,
        fk_col: fk_col_out,
        node_col,
    })
}

/// Element constructor for a leaf level at a given column offset.
fn element_expr(
    level: &LevelSpec,
    schema: &quark_relational::TableSchema,
    offset: usize,
) -> Result<Expr> {
    element_expr_inner(level, schema, offset, None)
}

/// Element constructor with an optional pre-aggregated children fragment.
fn element_expr_with_frag(
    level: &LevelSpec,
    schema: &quark_relational::TableSchema,
    offset: usize,
    frag_col: Option<usize>,
) -> Result<Expr> {
    element_expr_inner(level, schema, offset, frag_col)
}

fn element_expr_inner(
    level: &LevelSpec,
    schema: &quark_relational::TableSchema,
    offset: usize,
    frag_col: Option<usize>,
) -> Result<Expr> {
    let attrs: Vec<String> = level.attrs.iter().map(|(a, _)| a.clone()).collect();
    let mut args: Vec<Expr> = Vec::new();
    for (_, c) in &level.attrs {
        args.push(Expr::col(offset + schema.col(c)?));
    }
    for (el, c) in &level.scalars {
        if el == "*" && c == "*" {
            // `{$row/*}`: wrap every column of the backing table by name.
            for (i, col) in schema.columns.iter().enumerate() {
                args.push(Expr::Func(
                    ScalarFunc::XmlWrap(col.name.clone()),
                    vec![Expr::col(offset + i)],
                ));
            }
            continue;
        }
        args.push(Expr::Func(
            ScalarFunc::XmlWrap(el.clone()),
            vec![Expr::col(offset + schema.col(c)?)],
        ));
    }
    if let Some(f) = frag_col {
        args.push(Expr::col(f));
    }
    Ok(Expr::Func(
        ScalarFunc::XmlElement {
            name: level.element.clone(),
            attrs,
        },
        args,
    ))
}

fn single_pk(db: &Database, table: &str) -> Result<String> {
    let t = db.table(table)?;
    let schema = t.schema();
    if schema.primary_key.len() != 1 {
        return Err(Error::Plan(format!(
            "view trees require single-column primary keys; `{table}` has {}",
            schema.primary_key.len()
        )));
    }
    Ok(schema.columns[schema.primary_key[0]].name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_relational::{ColumnDef, ColumnType, Value};
    use quark_xqgm::eval::evaluate;

    /// Two-level chain: region(rid, name) ← shop(sid, rid, name, sales).
    fn chain_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            quark_relational::TableSchema::new(
                "region",
                vec![
                    ColumnDef::new("rid", ColumnType::Int),
                    ColumnDef::new("name", ColumnType::Str),
                ],
                &["rid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            quark_relational::TableSchema::new(
                "shop",
                vec![
                    ColumnDef::new("sid", ColumnType::Int),
                    ColumnDef::new("rid", ColumnType::Int),
                    ColumnDef::new("name", ColumnType::Str),
                    ColumnDef::new("sales", ColumnType::Int),
                ],
                &["sid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_index("shop", "rid").unwrap();
        db.load(
            "region",
            vec![
                vec![Value::Int(1), Value::str("north")],
                vec![Value::Int(2), Value::str("south")],
            ],
        )
        .unwrap();
        db.load(
            "shop",
            vec![
                vec![
                    Value::Int(10),
                    Value::Int(1),
                    Value::str("a"),
                    Value::Int(5),
                ],
                vec![
                    Value::Int(11),
                    Value::Int(1),
                    Value::str("b"),
                    Value::Int(7),
                ],
                vec![
                    Value::Int(12),
                    Value::Int(2),
                    Value::str("c"),
                    Value::Int(9),
                ],
            ],
        )
        .unwrap();
        db
    }

    fn chain_spec() -> ViewSpec {
        ViewSpec {
            name: "regions".into(),
            root_element: "report".into(),
            binding: TopBinding::Rows,
            top: LevelSpec {
                element: "region".into(),
                table: "region".into(),
                parent_fk: None,
                attrs: vec![("name".into(), "name".into())],
                scalars: vec![],
                child_count: Some((BinOp::Ge, 2)),
                child: Some(Box::new(LevelSpec {
                    element: "shop".into(),
                    table: "shop".into(),
                    parent_fk: Some("rid".into()),
                    attrs: vec![],
                    scalars: vec![
                        ("name".into(), "name".into()),
                        ("sales".into(), "sales".into()),
                    ],
                    child_count: None,
                    child: None,
                })),
            },
        }
    }

    #[test]
    fn chain_view_builds_and_filters() {
        let db = chain_db();
        let view = chain_spec().build(&db).unwrap();
        let pg = &view.anchors["region"];
        let rows = evaluate(&pg.graph, pg.root, &db).unwrap();
        // Only region 1 has ≥ 2 shops.
        assert_eq!(rows.len(), 1);
        let Value::Xml(node) = &rows[0][pg.node_col] else {
            panic!()
        };
        assert_eq!(node.attr("name"), Some("north"));
        assert_eq!(node.children_named("shop").count(), 2);
        let shop = node.children_named("shop").next().unwrap();
        assert_eq!(
            shop.children_named("sales").next().unwrap().text_content(),
            "5"
        );
    }

    #[test]
    fn grouped_binding_reproduces_catalog_shape() {
        let db = quark_xqgm::fixtures::product_vendor_db();
        let spec = ViewSpec {
            name: "catalog".into(),
            root_element: "catalog".into(),
            binding: TopBinding::GroupBy {
                column: "pname".into(),
            },
            top: LevelSpec {
                element: "product".into(),
                table: "product".into(),
                parent_fk: None,
                attrs: vec![("name".into(), "pname".into())],
                scalars: vec![],
                child_count: Some((BinOp::Ge, 2)),
                child: Some(Box::new(LevelSpec {
                    element: "vendor".into(),
                    table: "vendor".into(),
                    parent_fk: Some("pid".into()),
                    attrs: vec![],
                    scalars: vec![
                        ("pid".into(), "pid".into()),
                        ("vid".into(), "vid".into()),
                        ("price".into(), "price".into()),
                    ],
                    child_count: None,
                    child: None,
                })),
            },
        };
        let view = spec.build(&db).unwrap();
        let pg = &view.anchors["product"];
        let rows = evaluate(&pg.graph, pg.root, &db).unwrap();
        assert_eq!(rows.len(), 2); // CRT 15 (5 vendors) and LCD 19 (2)
        let Value::Xml(node) = &rows[0][pg.node_col] else {
            panic!()
        };
        assert_eq!(node.children_named("vendor").count(), 5);
    }

    #[test]
    fn grouped_binding_rejects_depth_three() {
        let db = quark_xqgm::fixtures::product_vendor_db();
        let mut spec = ViewSpec {
            name: "x".into(),
            root_element: "x".into(),
            binding: TopBinding::GroupBy {
                column: "pname".into(),
            },
            top: chain_spec().top,
        };
        spec.top.child.as_mut().unwrap().child = Some(Box::new(LevelSpec {
            element: "z".into(),
            table: "vendor".into(),
            parent_fk: Some("pid".into()),
            attrs: vec![],
            scalars: vec![],
            child_count: None,
            child: None,
        }));
        assert!(spec.build(&db).is_err());
    }

    #[test]
    fn composite_pk_tables_are_rejected_for_chains() {
        let db = quark_xqgm::fixtures::product_vendor_db(); // vendor pk is (vid,pid)
        let spec = ViewSpec {
            name: "v".into(),
            root_element: "v".into(),
            binding: TopBinding::Rows,
            top: LevelSpec {
                element: "vendor".into(),
                table: "vendor".into(),
                parent_fk: None,
                attrs: vec![],
                scalars: vec![],
                child_count: None,
                child: None,
            },
        };
        assert!(spec.build(&db).is_err());
    }

    #[test]
    fn depth_counts_levels() {
        assert_eq!(chain_spec().depth(), 2);
    }
}
