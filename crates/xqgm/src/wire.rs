//! Byte format of XQGM graphs: [`Encode`]/[`Decode`] impls for the graph
//! types over the one codec in [`quark_relational::wire`] (its module docs
//! state the rules every format follows).
//!
//! The storage catalog persists each registered view's normalized path
//! graph so a reopened database can re-arm triggers without re-running
//! view composition. The arena is append-only, hash-consed and every
//! operator's inputs point at earlier ids, so a graph is the sequence of
//! its operators in id order plus one distinguished root. Decoding pushes
//! the operators back through the hash-consing arena; an operator that
//! refers forward or repeats an earlier one is corruption.

use quark_relational::plan::TableEpoch;
use quark_relational::wire::{Dec, Decode, Enc, Encode};
use quark_relational::{Error, Result};

use crate::graph::{Graph, OpId, OpKind, Operator, TableSource};

fn bad(msg: &str) -> Error {
    Error::Storage(format!("xqgm decode: {msg}"))
}

impl Encode for TableSource {
    fn encode(&self, enc: &mut Enc) {
        match self {
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
}

impl Decode for TableSource {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
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
}

impl Encode for OpKind {
    fn encode(&self, enc: &mut Enc) {
        match self {
            OpKind::Table { table, source } => {
                enc.u8(0);
                enc.str(table);
                enc.put(source);
            }
            OpKind::Select { predicate } => {
                enc.u8(1);
                enc.put(predicate);
            }
            OpKind::Project { exprs, names } => {
                enc.u8(2);
                enc.put(exprs);
                enc.put(names);
            }
            OpKind::Join { kind, predicate } => {
                enc.u8(3);
                enc.tag(*kind);
                enc.put(predicate);
            }
            OpKind::GroupBy {
                group_cols,
                aggs,
                agg_names,
            } => {
                enc.u8(4);
                enc.put(group_cols);
                enc.put(&aggs.iter().zip(agg_names).collect::<Vec<_>>());
            }
            OpKind::Union => {
                enc.u8(5);
            }
            OpKind::Unnest { expr, name } => {
                enc.u8(6);
                enc.put(expr);
                enc.put(name);
            }
        }
    }
}

impl Decode for OpKind {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => OpKind::Table {
                table: dec.str()?,
                source: dec.get()?,
            },
            1 => OpKind::Select {
                predicate: dec.get()?,
            },
            2 => {
                let (exprs, names): (Vec<_>, Vec<_>) = dec.get()?;
                if names.len() != exprs.len() {
                    return Err(bad("project name/expr arity mismatch"));
                }
                OpKind::Project { exprs, names }
            }
            3 => OpKind::Join {
                kind: dec.tag()?,
                predicate: dec.get()?,
            },
            4 => {
                let group_cols = dec.get()?;
                let (aggs, agg_names) = dec.get::<Vec<(_, _)>>()?.into_iter().unzip();
                OpKind::GroupBy {
                    group_cols,
                    aggs,
                    agg_names,
                }
            }
            5 => OpKind::Union,
            6 => OpKind::Unnest {
                expr: dec.get()?,
                name: dec.get()?,
            },
            t => return Err(bad(&format!("unknown operator tag {t}"))),
        })
    }
}

/// Kind payload first, input ids after.
impl Encode for Operator {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.kind);
        enc.put(&self.inputs);
    }
}

/// Serialize the whole arena of `graph` plus one distinguished `root`.
pub fn encode_graph(enc: &mut Enc, graph: &Graph, root: OpId) {
    enc.put(&graph.iter().map(|(_, op)| op).collect::<Vec<_>>());
    enc.put(&root);
}

/// Decode a graph serialized by [`encode_graph`], returning the rebuilt
/// arena and its root id.
pub fn decode_graph(dec: &mut Dec) -> Result<(Graph, OpId)> {
    let mut graph = Graph::new();
    let ops = dec.seq(|dec, earlier| {
        let (kind, inputs): (OpKind, Vec<OpId>) = dec.get()?;
        if inputs.iter().any(|&i| i >= earlier.len()) {
            return Err(bad("operator input refers forward"));
        }
        let arity_ok = match kind {
            OpKind::Table { .. } => inputs.is_empty(),
            OpKind::Join { .. } => inputs.len() == 2,
            OpKind::Union => !inputs.is_empty(),
            _ => inputs.len() == 1,
        };
        if !arity_ok {
            return Err(bad("operator input arity mismatch"));
        }
        // A hash-consed arena holds no two equal operators, so each push
        // must append.
        match graph.push(Operator { kind, inputs }) {
            id if id == earlier.len() => Ok(id),
            _ => Err(bad("duplicate operator")),
        }
    })?;
    let root: OpId = dec.get()?;
    if root >= ops.len() {
        return Err(bad("root out of range"));
    }
    Ok((graph, root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::keys::normalize;

    fn round_trip(graph: &Graph, root: OpId) -> (Graph, OpId) {
        let mut enc = Enc::new();
        encode_graph(&mut enc, graph, root);
        let bytes = enc.into_bytes().unwrap();
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
        encode_graph(&mut enc, &g, top);
        let bytes = enc.into_bytes().unwrap();
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
        let (ng, root) = normalize(&g, top, &db).unwrap();
        let (decoded, new_root) = round_trip(&ng, root);
        // Re-normalizing an already-normalized graph must not add columns
        // (key columns are already materialized), so keys land identically.
        let (ng2, root2) = normalize(&decoded, new_root, &db).unwrap();
        assert_eq!(ng.key(root, &db).unwrap(), ng2.key(root2, &db).unwrap());
        assert_eq!(ng.arity(root, &db).unwrap(), ng2.arity(root2, &db).unwrap());
        assert_eq!(
            ng.column_names(root, &db).unwrap(),
            ng2.column_names(root2, &db).unwrap()
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

    /// Operator, expression and input counts larger than the bytes left are
    /// refused by `Dec::seq` before anything is reserved.
    #[test]
    fn oversized_counts_are_refused_before_reserving() {
        let payloads: [&[u8]; 3] = [
            &[0xFF, 0xFF, 0xFF, 0xFF],                // operator count
            &[1, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF], // Project: expression count
            &[1, 0, 0, 0, 5, 0xFF, 0xFF, 0xFF, 0xFF], // Union: input count
        ];
        for payload in payloads {
            let err = decode_graph(&mut Dec::new(payload)).unwrap_err();
            assert!(err.to_string().contains("sequence of 4294967295 items"));
        }
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        let mut enc = Enc::new();
        enc.u32(1);
        enc.u8(99); // no such operator tag
        let bytes = enc.into_bytes().unwrap();
        assert!(decode_graph(&mut Dec::new(&bytes)).is_err());
    }
}
