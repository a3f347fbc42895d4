//! Output checks, run after every workload. A run whose outputs are wrong
//! measured the wrong program, so any mismatch makes the result incorrect.

use std::path::Path;
use std::sync::atomic::Ordering;

use quark_core::relational::Value;
use quark_core::storage::SyncMode;
use quark_core::{Mode, Session};

use crate::loadgen::{Check, Op, Target};
use crate::workload::Tally;

fn price_of(session: &Session, table: &str, key: i64) -> Result<f64, String> {
    let db = session.database();
    let t = db.table(table).map_err(|e| e.to_string())?;
    let price_col = t.schema().col("price").map_err(|e| e.to_string())?;
    match t.get(&[Value::Int(key)]).map(|row| row[price_col].clone()) {
        Some(Value::Double(p)) => Ok(p),
        other => Err(format!("{table} row {key}: price is {other:?}")),
    }
}

fn ring_contents(session: &Session, target: &Target) -> Result<Vec<String>, String> {
    let db = session.database();
    let t = db.table(&target.ring.table).map_err(|e| e.to_string())?;
    Ok(t.iter().map(|row| row[1].to_string()).collect())
}

/// The last write each client had acknowledged: `(key, price)`.
fn last_write(ops: &[Op], tally: &Tally) -> Option<(i64, f64)> {
    match tally.last_write.map(|i| &ops[i].check) {
        Some(&Check::Write { key, price }) => Some((key, price)),
        _ => None,
    }
}

/// Checks on the live system. Every SELECT's reply was already compared
/// with its expected `name` as it arrived (`Tally::failed`).
pub fn check_live(
    session: &Session,
    targets: &[Target],
    streams: &[Vec<Op>],
    tallies: &[Tally],
) -> Result<(), String> {
    for ((target, ops), tally) in targets.iter().zip(streams).zip(tallies) {
        // Action invocations = acknowledged writes × satisfied triggers.
        let fired = target.ring.seq.load(Ordering::Relaxed);
        let want = tally.acked_writes * target.satisfied as u64;
        if fired != want {
            return Err(format!(
                "{}: {fired} action invocations, expected {} writes × {} triggers = {want}",
                target.ring.table, tally.acked_writes, target.satisfied
            ));
        }
        let Some((key, price)) = last_write(ops, tally) else {
            return Err(format!("{}: no write was acknowledged", target.table));
        };
        // Final hot-row value = last acknowledged write.
        let stored = price_of(session, &target.table, key)?;
        if stored != price {
            return Err(format!(
                "{} row {key}: price {stored}, last acknowledged write set {price}",
                target.table
            ));
        }
        // The last ring slot holds exactly the watched element as it is
        // now: the action saw the post-state of the last write.
        let slot = ((fired - 1) % target.ring.slots as u64) as i64;
        let in_ring = {
            let db = session.database();
            let ring = db.table(&target.ring.table).map_err(|e| e.to_string())?;
            ring.get(&[Value::Int(slot)])
                .map(|row| row[1].to_string())
                .ok_or_else(|| format!("{} has no slot {slot}", target.ring.table))?
        };
        let nodes = session
            .snapshot()
            .materialize(&target.view, &target.anchor)
            .map_err(|e| e.to_string())?;
        let watched = &target.watched;
        let node = nodes
            .iter()
            .find(|n| n.attr("name") == Some(watched.as_str()))
            .ok_or_else(|| format!("view {} has no element named {watched}", target.view))?;
        if node.to_xml() != in_ring {
            return Err(format!(
                "{} slot {slot} differs from MATERIALIZE of {watched}",
                target.ring.table
            ));
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
        }
    }
    Ok(())
}

/// Durability check: copy the data directory while the server is still up
/// (no shutdown checkpoint has run), reopen the copy, and require every
/// acknowledged write in it, recovered without re-translating a trigger.
/// Returns how long the reopen took.
///
/// Limit: a directory copy reads through the OS cache, so this shows that
/// acknowledged writes reached the files, not that they reached the device.
pub fn check_recovered(
    live: &Session,
    dir: &Path,
    copy: &Path,
    targets: &[Target],
    streams: &[Vec<Op>],
    tallies: &[Tally],
) -> Result<std::time::Duration, String> {
    copy_dir(dir, copy).map_err(|e| format!("copy {}: {e}", dir.display()))?;
    let t0 = std::time::Instant::now();
    let reopened = quark_xquery::open_session_with(copy, Mode::Grouped, SyncMode::Never)
        .map_err(|e| format!("reopen {}: {e}", copy.display()))?;
    let recover = t0.elapsed();
    let translations = reopened.quark().translations();
    if translations != 0 {
        return Err(format!("warm reopen re-translated {translations} groups"));
    }
    for ((target, ops), tally) in targets.iter().zip(streams).zip(tallies) {
        if let Some((key, price)) = last_write(ops, tally) {
            let stored = price_of(&reopened, &target.table, key)?;
            if stored != price {
                return Err(format!(
                    "recovered {} row {key}: price {stored}, acknowledged {price}",
                    target.table
                ));
            }
        }
        if ring_contents(&reopened, target)? != ring_contents(live, target)? {
            return Err(format!("recovered {} differs from live", target.ring.table));
        }
    }
    Ok(recover)
}
