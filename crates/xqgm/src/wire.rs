//! Binary serialization of XQGM graphs, built on
//! [`quark_relational::wire`].
//!
//! The storage catalog persists each registered view's normalized path
//! graph so a reopened database can re-arm triggers without re-running
//! view composition. The arena is append-only and every operator's inputs
//! point at earlier ids, so encoding is a single in-order walk. Decoding
//! re-pushes operators through [`Graph`]'s typed builders; hash-consing
//! may assign different (smaller) ids than the source arena, so decoded
//! ids are remapped — including the returned root.

use quark_relational::plan::TableEpoch;
use quark_relational::wire::{Dec, Enc};
use quark_relational::{Error, Result};

use crate::graph::{Graph, JoinKind, OpId, OpKind, TableSource};

fn bad(msg: &str) -> Error {
    Error::Storage(format!("xqgm decode: {msg}"))
}

fn encode_source(enc: &mut Enc, source: &TableSource) {
    match source {
        TableSource::Base(TableEpoch::Current) => enc.u8(0),
        TableSource::Base(TableEpoch::Old) => enc.u8(1),
        TableSource::Delta { pruned } => {
            enc.u8(2);
            enc.bool(*pruned);
        }
        TableSource::Nabla { pruned } => {
            enc.u8(3);
            enc.bool(*pruned);
        }
    }
}

fn decode_source(dec: &mut Dec) -> Result<TableSource> {
    Ok(match dec.u8()? {
        0 => TableSource::Base(TableEpoch::Current),
        1 => TableSource::Base(TableEpoch::Old),
        2 => TableSource::Delta {
            pruned: dec.bool()?,
        },
        3 => TableSource::Nabla {
            pruned: dec.bool()?,
        },
        t => return Err(bad(&format!("unknown table source tag {t}"))),
    })
}

/// Serialize the whole arena of `graph` plus one distinguished `root`.
pub fn encode_graph(enc: &mut Enc, graph: &Graph, root: OpId) -> Result<()> {
    enc.u32(graph.len() as u32);
    for (_, op) in graph.iter() {
        match &op.kind {
            OpKind::Table { table, source } => {
                enc.u8(0);
                enc.str(table);
                encode_source(enc, source);
            }
            OpKind::Select { predicate } => {
                enc.u8(1);
                enc.expr(predicate)?;
            }
            OpKind::Project { exprs, names } => {
                enc.u8(2);
                enc.exprs(exprs)?;
                enc.u32(names.len() as u32);
                for n in names {
                    enc.str(n);
                }
            }
            OpKind::Join { kind, predicate } => {
                enc.u8(3);
                enc.join_kind(*kind);
                enc.opt_expr(predicate)?;
            }
            OpKind::GroupBy {
                group_cols,
                aggs,
                agg_names,
            } => {
                enc.u8(4);
                enc.u32(group_cols.len() as u32);
                for &c in group_cols {
                    enc.u32(c as u32);
                }
                enc.u32(aggs.len() as u32);
                for (a, n) in aggs.iter().zip(agg_names) {
                    enc.agg_expr(a)?;
                    enc.str(n);
                }
            }
            OpKind::Union => enc.u8(5),
            OpKind::Unnest { expr, name } => {
                enc.u8(6);
                enc.expr(expr)?;
                enc.str(name);
            }
        }
        enc.u32(op.inputs.len() as u32);
        for &i in &op.inputs {
            enc.u32(i as u32);
        }
    }
    enc.u32(root as u32);
    Ok(())
}

/// Decode a graph serialized by [`encode_graph`], returning the rebuilt
/// arena and the remapped root id.
pub fn decode_graph(dec: &mut Dec) -> Result<(Graph, OpId)> {
    let n = dec.u32()? as usize;
    let mut graph = Graph::new();
    // Hash-consing may renumber: source id → rebuilt id.
    let mut remap: Vec<OpId> = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = dec.u8()?;
        // Payload first (tag-dependent), inputs after — mirror the encoder.
        enum Payload {
            Table(String, TableSource),
            Select(quark_relational::expr::Expr),
            Project(Vec<quark_relational::expr::Expr>, Vec<String>),
            Join(JoinKind, Option<quark_relational::expr::Expr>),
            GroupBy(Vec<usize>, Vec<(quark_relational::expr::AggExpr, String)>),
            Union,
            Unnest(quark_relational::expr::Expr, String),
        }
        let payload = match tag {
            0 => {
                let table = dec.str()?;
                let source = decode_source(dec)?;
                Payload::Table(table, source)
            }
            1 => Payload::Select(dec.expr()?),
            2 => {
                let exprs = dec.exprs()?;
                let names = (0..dec.u32()?)
                    .map(|_| dec.str())
                    .collect::<Result<Vec<_>>>()?;
                if names.len() != exprs.len() {
                    return Err(bad("project name/expr arity mismatch"));
                }
                Payload::Project(exprs, names)
            }
            3 => Payload::Join(dec.join_kind()?, dec.opt_expr()?),
            4 => {
                let group_cols = (0..dec.u32()?)
                    .map(|_| dec.u32().map(|c| c as usize))
                    .collect::<Result<Vec<_>>>()?;
                let aggs = (0..dec.u32()?)
                    .map(|_| Ok((dec.agg_expr()?, dec.str()?)))
                    .collect::<Result<Vec<_>>>()?;
                Payload::GroupBy(group_cols, aggs)
            }
            5 => Payload::Union,
            6 => {
                let expr = dec.expr()?;
                let name = dec.str()?;
                Payload::Unnest(expr, name)
            }
            t => return Err(bad(&format!("unknown operator tag {t}"))),
        };
        let inputs = (0..dec.u32()?)
            .map(|_| {
                let i = dec.u32()? as usize;
                remap
                    .get(i)
                    .copied()
                    .ok_or_else(|| bad("operator input refers forward"))
            })
            .collect::<Result<Vec<OpId>>>()?;
        let arity = |want: usize| -> Result<()> {
            if inputs.len() == want {
                Ok(())
            } else {
                Err(bad("operator input arity mismatch"))
            }
        };
        let id = match payload {
            Payload::Table(table, source) => {
                arity(0)?;
                graph.table_from(table, source)
            }
            Payload::Select(pred) => {
                arity(1)?;
                graph.select(inputs[0], pred)
            }
            Payload::Project(exprs, names) => {
                arity(1)?;
                graph.project(inputs[0], exprs, names)
            }
            Payload::Join(kind, pred) => {
                arity(2)?;
                graph.join(kind, inputs[0], inputs[1], pred)
            }
            Payload::GroupBy(group_cols, aggs) => {
                arity(1)?;
                graph.group_by(inputs[0], group_cols, aggs)
            }
            Payload::Union => {
                if inputs.is_empty() {
                    return Err(bad("union with no inputs"));
                }
                graph.union(inputs)
            }
            Payload::Unnest(expr, name) => {
                arity(1)?;
                graph.unnest(inputs[0], expr, name)
            }
        };
        remap.push(id);
    }
    let root = dec.u32()? as usize;
    let root = *remap.get(root).ok_or_else(|| bad("root out of range"))?;
    Ok((graph, root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::keys::KeyedGraph;

    fn round_trip(graph: &Graph, root: OpId) -> (Graph, OpId) {
        let mut enc = Enc::new();
        encode_graph(&mut enc, graph, root).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let out = decode_graph(&mut dec).unwrap();
        dec.finish().unwrap();
        out
    }

    #[test]
    fn catalog_view_graph_round_trips() {
        let db = fixtures::product_vendor_db();
        let mut g = Graph::new();
        let (top, _) = fixtures::catalog_path_graph(&mut g);
        // Golden bytes (FNV-1a) of the Figure-3 graph: operator, join-kind,
        // binop and optional-predicate tags are a persisted format.
        let mut enc = Enc::new();
        encode_graph(&mut enc, &g, top).unwrap();
        let bytes = enc.into_bytes();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (340, 0x5688_3e75_f65e_c7fe));
        let (decoded, new_root) = round_trip(&g, top);
        // Same rendering, same structure.
        assert_eq!(g.explain(top, &db), decoded.explain(new_root, &db));
        assert_eq!(g.base_tables(top), decoded.base_tables(new_root));
    }

    #[test]
    fn normalized_graph_round_trips_and_renormalizes() {
        let db = fixtures::product_vendor_db();
        let mut g = Graph::new();
        let (top, _) = fixtures::catalog_path_graph(&mut g);
        let (kg, root) = KeyedGraph::normalize(&g, top, &db).unwrap();
        let (decoded, new_root) = round_trip(&kg.graph, root);
        // Re-normalizing an already-normalized graph must not add columns
        // (key columns are already materialized), so keys land identically.
        let (kg2, root2) = KeyedGraph::normalize(&decoded, new_root, &db).unwrap();
        assert_eq!(kg.key(root), kg2.key(root2));
        assert_eq!(
            kg.graph.arity(root, &db).unwrap(),
            kg2.graph.arity(root2, &db).unwrap()
        );
        assert_eq!(
            kg.graph.column_names(root, &db).unwrap(),
            kg2.graph.column_names(root2, &db).unwrap()
        );
    }

    #[test]
    fn shared_subgraphs_stay_shared_after_decode() {
        let db = fixtures::product_vendor_db();
        let mut g = Graph::new();
        let t = g.table("product");
        let s1 = g.select(t, quark_relational::expr::Expr::lit(true));
        let s2 = g.select(t, quark_relational::expr::Expr::lit(true));
        assert_eq!(s1, s2, "hash-consing shares identical selects");
        let u = g.union(vec![s1, s2]);
        let (decoded, new_root) = round_trip(&g, u);
        assert_eq!(decoded.len(), g.len(), "decode must not duplicate ops");
        assert_eq!(g.explain(u, &db), decoded.explain(new_root, &db));
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        let mut enc = Enc::new();
        enc.u32(1);
        enc.u8(99); // no such operator tag
        let bytes = enc.into_bytes();
        assert!(decode_graph(&mut Dec::new(&bytes)).is_err());
    }
}
