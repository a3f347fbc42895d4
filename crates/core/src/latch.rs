//! The per-table latch table of the session write path.
//!
//! Not a lock per table: a single mode map under one mutex, with
//! **all-or-nothing admission**. [`LatchManager::acquire`] blocks (holding
//! **no** latches) until every table of the requested footprint is
//! available in its requested mode, then takes them all in one critical
//! section. Since no waiter ever holds a latch while waiting, no cycle of
//! waiters can form — deadlock freedom without imposing an acquisition
//! order on callers (footprints are `BTreeSet`s, so the order is canonical
//! anyway).
//!
//! Two modes per table, classic reader-writer semantics:
//!
//! * **exclusive** — for the *write set* of a footprint (the DML target
//!   and every table its cascade can mutate). Conflicts with any holder.
//! * **shared** — for the *read set* (view sources, constants tables, join
//!   build sides only scanned during firing). Any number of shared holders
//!   coexist; shared conflicts only with an exclusive holder.
//!
//! So writers whose footprints overlap solely on read-side tables admit
//! concurrently, while anything touching a table some holder is mutating
//! still serializes.
//!
//! # Writer priority
//!
//! Classic reader-preference starves writers: under a steady stream of
//! shared acquisitions a table's reader count never reaches zero and a
//! parked exclusive waiter waits forever. Admission therefore uses
//! **ticket seniority**: every acquisition draws a monotonic ticket on
//! arrival, and a *parked* exclusive waiter registers its ticket on each
//! table of its write set. A request (shared or exclusive) is blocked not
//! only by current holders but also by any **strictly older** registered
//! writer on one of its tables — new readers queue behind a waiting
//! writer instead of overtaking it. Seniority, not absolute priority,
//! keeps this deadlock-free: a waiter is never blocked by a *younger*
//! registration, so the globally oldest waiter is always admissible once
//! current holders drain, and tickets strictly order any would-be wait
//! cycle.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex};

use quark_relational::Latched;

/// How one table is currently held.
#[derive(Debug)]
enum Hold {
    /// One writer; conflicts with everything.
    Exclusive,
    /// `n` concurrent readers; conflicts with exclusive requests only.
    Shared(usize),
}

/// Mode map plus waiter bookkeeping, all under the one mutex.
#[derive(Default)]
struct LatchState {
    held: HashMap<String, Hold>,
    /// Tickets of parked exclusive waiters, per wanted write table. A
    /// strictly older ticket here blocks newer requests for the table
    /// (see the module docs).
    parked: HashMap<String, BTreeSet<u64>>,
    /// Monotonic arrival ticket source.
    next_ticket: u64,
}

/// The latch table (see the [module docs](self)).
#[derive(Default)]
pub struct LatchManager {
    state: Mutex<LatchState>,
    freed: Condvar,
}

impl LatchManager {
    /// A fresh latch table with nothing held.
    pub fn new() -> Self {
        Self::default()
    }

    /// Block until every table in `footprint`'s `write` set is completely
    /// free and every table in its `read` set has no exclusive holder —
    /// and no *older* parked writer wants any of them (see the module
    /// docs' writer priority) — then latch `write` tables exclusive and
    /// `read` tables shared, all in one critical section. The guard keeps
    /// the `Arc`, not a copy of the sets.
    ///
    /// A table named in both sets is treated as `write` (the caller's
    /// footprint analysis keeps the sets disjoint, but exclusive must win
    /// if they ever overlap). Contention is reported on the returned
    /// guard: [`LatchGuard::contended`] is true if any wanted table was
    /// busy on arrival, [`LatchGuard::waits`] counts the blocking waits.
    pub fn acquire<'a>(&'a self, footprint: &Latched) -> LatchGuard<'a> {
        let (write, read) = &**footprint;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        let blocked = |s: &LatchState| {
            let older_writer = |t: &String| {
                s.parked
                    .get(t)
                    .and_then(|tickets| tickets.first())
                    .is_some_and(|&oldest| oldest < ticket)
            };
            write
                .iter()
                .any(|t| s.held.contains_key(t) || older_writer(t))
                || read
                    .iter()
                    .any(|t| matches!(s.held.get(t), Some(Hold::Exclusive)) || older_writer(t))
        };
        let mut waits = 0u64;
        if blocked(&state) {
            // Park. An exclusive waiter registers its ticket so newer
            // arrivals — shared included — queue behind it instead of
            // starving it; pure readers register nothing.
            for t in write {
                state.parked.entry(t.clone()).or_default().insert(ticket);
            }
            while blocked(&state) {
                waits += 1;
                state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            // Deregister inside the same critical section that takes the
            // latches: anyone we were blocking is now blocked by the
            // exclusive holds themselves, so no wakeup is needed here.
            for t in write {
                if let Some(tickets) = state.parked.get_mut(t) {
                    tickets.remove(&ticket);
                    if tickets.is_empty() {
                        state.parked.remove(t);
                    }
                }
            }
        }
        for t in write {
            state.held.insert(t.clone(), Hold::Exclusive);
        }
        for t in shared_only(footprint) {
            match state.held.get_mut(t) {
                Some(Hold::Shared(n)) => *n += 1,
                _ => {
                    state.held.insert(t.clone(), Hold::Shared(1));
                }
            }
        }
        drop(state);
        LatchGuard {
            latches: self,
            footprint: Arc::clone(footprint),
            waits,
        }
    }
}

impl std::fmt::Debug for LatchManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatchManager").finish()
    }
}

/// The tables of `footprint` latched shared: its `read` set less the
/// tables it also writes.
fn shared_only(footprint: &Latched) -> impl Iterator<Item = &String> {
    let (write, read) = &**footprint;
    read.iter().filter(move |t| !write.contains(*t))
}

/// Releases its tables and wakes all waiters on drop — including during a
/// panic unwind, so a trigger body that panics mid-cascade cannot wedge
/// other writers' footprints.
pub struct LatchGuard<'a> {
    latches: &'a LatchManager,
    footprint: Latched,
    waits: u64,
}

impl LatchGuard<'_> {
    /// True if the acquisition found any wanted table busy and had to wait.
    pub fn contended(&self) -> bool {
        self.waits > 0
    }

    /// Number of blocking waits the acquisition performed before admission.
    pub fn waits(&self) -> u64 {
        self.waits
    }

    /// Tables held shared by this guard.
    pub fn shared_count(&self) -> u64 {
        shared_only(&self.footprint).count() as u64
    }

    /// Tables held exclusive by this guard.
    pub fn exclusive_count(&self) -> u64 {
        self.footprint.0.len() as u64
    }
}

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.latches.state.lock().unwrap_or_else(|e| e.into_inner());
        for t in &self.footprint.0 {
            state.held.remove(t);
        }
        for t in shared_only(&self.footprint) {
            match state.held.get_mut(t) {
                Some(Hold::Shared(n)) if *n > 1 => *n -= 1,
                _ => {
                    state.held.remove(t);
                }
            }
        }
        drop(state);
        self.latches.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The footprint that reads `read` and writes `write`.
    fn latched(read: &[&str], write: &[&str]) -> Latched {
        Arc::new((set(write), set(read)))
    }

    #[test]
    fn shared_holders_coexist() {
        let m = LatchManager::new();
        let a = m.acquire(&latched(&["t"], &[]));
        let b = m.acquire(&latched(&["t"], &[]));
        assert!(!a.contended());
        assert!(!b.contended());
        assert_eq!(a.shared_count(), 1);
        assert_eq!(a.exclusive_count(), 0);
    }

    #[test]
    fn exclusive_blocks_until_readers_drain() {
        let m = Arc::new(LatchManager::new());
        let reader = m.acquire(&latched(&["t"], &[]));
        let writer_in = Arc::new(AtomicBool::new(false));
        let t = {
            let m = Arc::clone(&m);
            let flag = Arc::clone(&writer_in);
            thread::spawn(move || {
                let g = m.acquire(&latched(&[], &["t"]));
                flag.store(true, Ordering::SeqCst);
                assert!(g.contended());
            })
        };
        thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !writer_in.load(Ordering::SeqCst),
            "writer admitted past a live reader"
        );
        drop(reader);
        t.join().unwrap();
        assert!(writer_in.load(Ordering::SeqCst));
    }

    #[test]
    fn parked_writer_admits_before_newer_readers() {
        // Reader-preference starvation scenario: a reader holds `hub`, a
        // writer parks wanting it exclusive, then more readers arrive.
        // Ticket seniority must queue the newer readers *behind* the parked
        // writer, and admit the writer first once the original reader
        // drains.
        let m = Arc::new(LatchManager::new());
        let first_reader = m.acquire(&latched(&["hub"], &[]));
        let writer_in = Arc::new(AtomicBool::new(false));
        let late_reader_in = Arc::new(AtomicBool::new(false));
        let writer = {
            let m = Arc::clone(&m);
            let writer_in = Arc::clone(&writer_in);
            let late_reader_in = Arc::clone(&late_reader_in);
            thread::spawn(move || {
                let g = m.acquire(&latched(&[], &["hub"]));
                assert!(
                    !late_reader_in.load(Ordering::SeqCst),
                    "a reader that arrived after the parked writer overtook it"
                );
                writer_in.store(true, Ordering::SeqCst);
                assert!(g.contended());
            })
        };
        // Let the writer park (registering its ticket on `hub`).
        thread::sleep(std::time::Duration::from_millis(50));
        let late_readers: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                let writer_in = Arc::clone(&writer_in);
                let late_reader_in = Arc::clone(&late_reader_in);
                thread::spawn(move || {
                    let _g = m.acquire(&latched(&["hub"], &[]));
                    assert!(
                        writer_in.load(Ordering::SeqCst),
                        "late reader admitted before the older parked writer"
                    );
                    late_reader_in.store(true, Ordering::SeqCst);
                })
            })
            .collect();
        thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !writer_in.load(Ordering::SeqCst) && !late_reader_in.load(Ordering::SeqCst),
            "nobody may pass the live first reader"
        );
        drop(first_reader);
        writer.join().unwrap();
        for r in late_readers {
            r.join().unwrap();
        }
        assert!(writer_in.load(Ordering::SeqCst));
        assert!(late_reader_in.load(Ordering::SeqCst));
    }

    #[test]
    fn overlapping_read_write_request_takes_exclusive() {
        let m = LatchManager::new();
        let g = m.acquire(&latched(&["t", "u"], &["t"]));
        assert_eq!(g.exclusive_count(), 1);
        assert_eq!(g.shared_count(), 1); // `u` only — `t` promoted to write
        drop(g);
        // Everything released: an exclusive take of both must not block.
        let g2 = m.acquire(&latched(&[], &["t", "u"]));
        assert!(!g2.contended());
    }

    use proptest::prelude::*;

    const TABLES: usize = 5;

    /// One thread's worth of acquisitions: each a list of
    /// `(table index, is_write)` pairs, deduped write-wins into a footprint.
    fn thread_plans() -> impl Strategy<Value = Vec<Vec<Vec<(usize, bool)>>>> {
        let footprint = proptest::collection::vec((0..TABLES, any::<bool>()), 0..4usize);
        let per_thread = proptest::collection::vec(footprint, 1..8usize);
        proptest::collection::vec(per_thread, 2..5usize)
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
            let mgr = Arc::new(LatchManager::new());
            let cells: Arc<Vec<AtomicU64>> =
                Arc::new((0..TABLES).map(|_| AtomicU64::new(0)).collect());
            let handles: Vec<_> = plan
                .into_iter()
                .map(|acquisitions| {
                    let mgr = Arc::clone(&mgr);
                    let cells = Arc::clone(&cells);
                    thread::spawn(move || {
                        for fp in acquisitions {
                            let mut read = BTreeSet::new();
                            let mut write = BTreeSet::new();
                            for (t, is_write) in &fp {
                                let name = format!("t{t}");
                                if *is_write {
                                    read.remove(&name);
                                    write.insert(name);
                                } else if !write.contains(&name) {
                                    read.insert(name);
                                }
                            }
                            let footprint: Latched = Arc::new((write, read));
                            let _g = mgr.acquire(&footprint);
                            let (write, read) = &*footprint;
                            for t in write {
                                let idx: usize = t[1..].parse().unwrap();
                                // Odd while "writing": a second exclusive
                                // holder or a concurrent reader would see it.
                                let prev = cells[idx].fetch_add(1, Ordering::SeqCst);
                                assert!(prev.is_multiple_of(2), "two exclusive holders on {t}");
                            }
                            for t in read {
                                let idx: usize = t[1..].parse().unwrap();
                                let v = cells[idx].load(Ordering::SeqCst);
                                assert!(v.is_multiple_of(2), "reader saw torn write on {t}");
                            }
                            std::thread::yield_now();
                            for t in read {
                                let idx: usize = t[1..].parse().unwrap();
                                let v = cells[idx].load(Ordering::SeqCst);
                                assert!(v.is_multiple_of(2), "reader saw torn write on {t}");
                            }
                            for t in write {
                                let idx: usize = t[1..].parse().unwrap();
                                let prev = cells[idx].fetch_add(1, Ordering::SeqCst);
                                assert!(prev % 2 == 1, "write counter desynced on {t}");
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // All guards dropped: every cell back to even.
            for c in cells.iter() {
                prop_assert!(c.load(Ordering::SeqCst).is_multiple_of(2));
            }
        }
    }
}
