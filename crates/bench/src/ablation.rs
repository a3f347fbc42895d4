//! Ablation baselines beyond the paper's three systems.
//!
//! * [`materialized_workload`] — the §1 strawman: keep a materialized copy
//!   of the monitored nodes and recompute + diff it on every relevant
//!   statement (no translation, no affected-key computation). Its cost
//!   grows with the database, which is the paper's motivation for the
//!   unmaterialized architecture.
//! * Option toggles on the translated system (injective-check elision,
//!   skeleton sides) are exercised through
//!   [`quark_core::Quark::set_options`] by the harness. Switching skeletons
//!   off makes the OLD/NEW node sides full; the affected-key graphs stay
//!   on the skeleton, because they need only keys.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use quark_core::oracle::{diff, materialize};
use quark_core::relational::{Event, Result, SqlTrigger, TriggerBody, Value};
use quark_core::spec::PathGraph;
use quark_core::{Mode, XmlEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{build, Workload, WorkloadSpec};

/// A workload whose "trigger processing" is full re-materialization and
/// canonical-key diffing, driven by native SQL triggers on the leaf table.
pub struct MaterializedWorkload {
    /// Underlying database (no XML triggers installed).
    pub db: quark_core::relational::Database,
    leaf_table: String,
    hot_leaves: Vec<i64>,
    rng: StdRng,
    seq: i64,
    /// Count of detected view events (sanity checking).
    pub events_seen: Arc<Mutex<usize>>,
}

/// Build the materialized baseline for a spec (triggers count is ignored:
/// condition evaluation against the diff is negligible next to
/// re-materialization).
pub fn materialized_workload(spec: WorkloadSpec) -> Result<MaterializedWorkload> {
    // Reuse the standard builder for schema/data/view, then strip the
    // translated triggers and install the naive one.
    let mut inner_spec = spec;
    inner_spec.triggers = 0;
    inner_spec.satisfied = 0;
    inner_spec.mode = Mode::Grouped;
    let Workload {
        session,
        leaf_table,
        hot_leaves,
        ..
    } = build(inner_spec)?;
    let mut db = session.into_quark().into_database();

    let view_spec = crate::chain_view_spec(spec.depth);
    let xml_view = view_spec.build(&db)?;
    let pg: PathGraph = xml_view.anchors["e0"].clone();

    let events_seen = Arc::new(Mutex::new(0usize));
    let seen = Arc::clone(&events_seen);
    // Materialized state, refreshed on every firing.
    type ViewState = Option<HashMap<Vec<Value>, quark_core::xml::XmlNodeRef>>;
    let state: Arc<Mutex<ViewState>> = Arc::new(Mutex::new(Some(materialize(&pg, &db)?)));
    db.create_trigger(SqlTrigger {
        name: "materialized_maintainer".into(),
        table: leaf_table.clone(),
        event: Event::Update,
        body: TriggerBody::Native(Arc::new(move |db, _trans| {
            let after = materialize(&pg, db)?;
            let mut guard = state.lock().expect("state");
            let before = guard.take().expect("state present");
            let changes = diff(&before, &after);
            *seen.lock().expect("seen") += changes
                .iter()
                .filter(|c| c.event == XmlEvent::Update)
                .count();
            *guard = Some(after);
            Ok(())
        })),
    })?;

    Ok(MaterializedWorkload {
        db,
        leaf_table,
        hot_leaves,
        rng: StdRng::seed_from_u64(0x5eed),
        seq: 0,
        events_seen,
    })
}

impl MaterializedWorkload {
    /// One hot-leaf update through the materialized maintainer.
    pub fn one_update(&mut self) -> Result<Duration> {
        let leaf = self.hot_leaves[self.rng.gen_range(0..self.hot_leaves.len())];
        self.seq += 1;
        let start = Instant::now();
        self.db.update_by_key(
            &self.leaf_table,
            &[Value::Int(leaf)],
            &[(3, Value::Double(40.0 + (self.seq % 100) as f64))],
        )?;
        Ok(start.elapsed())
    }

    /// Average over `n` updates.
    pub fn measure(&mut self, n: usize) -> Result<Duration> {
        let mut total = Duration::ZERO;
        for _ in 0..n {
            total += self.one_update()?;
        }
        Ok(total / n as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_core::Mode;

    #[test]
    fn materialized_baseline_detects_updates() {
        let mut spec = WorkloadSpec::quick(Mode::Grouped);
        spec.leaf_count = 256;
        spec.triggers = 0;
        let mut w = materialized_workload(spec).unwrap();
        w.one_update().unwrap();
        w.one_update().unwrap();
        assert_eq!(*w.events_seen.lock().unwrap(), 2);
    }
}
