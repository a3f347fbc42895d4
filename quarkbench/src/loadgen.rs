//! Stationary fixtures and seeded statement streams.
//!
//! The `quark-bench` builders append one row per firing to `__temp` /
//! `audit{h}`, so their per-statement cost drifts with run length. The
//! builders here keep the same schemas, views and trigger texts but point
//! the action at a **fixed-size ring**: `R` pre-loaded slots, and firing
//! number `seq` replaces slot `seq % R` (`delete_by_key` + `insert_row`).
//! Every table keeps its row count for the whole run, whatever its length.
//!
//! Statement texts are generated from the seed before the clock starts; the
//! program under test only ever sees the texts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quark_bench::{chain_view_spec, split_fanout, trigger_statement, watched_name, WorkloadSpec};
use quark_core::relational::{Database, Result, Value};
use quark_core::{ActionCall, Mode, Session};
use quark_xquery::{LevelSpec, TopBinding, ViewSpec};

/// SplitMix64: the one generator behind every seeded choice.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One action ring: the table, its slot count, and the firing counter.
#[derive(Clone)]
pub struct Ring {
    pub table: String,
    pub slots: usize,
    /// Firings so far; the last one wrote slot `(seq - 1) % slots`.
    pub seq: Arc<AtomicU64>,
}

impl Ring {
    /// Create the ring table with every slot pre-loaded and register
    /// `action` (declared write set: the ring) to overwrite slots in turn.
    fn install(session: &Session, table: &str, slots: usize, action: &str) -> Result<Ring> {
        session.execute(&format!(
            "CREATE TABLE {table} (seq INT PRIMARY KEY, content TEXT)"
        ))?;
        let rows = (0..slots)
            .map(|s| vec![Value::Int(s as i64), Value::str("")])
            .collect();
        session.database_mut().load(table, rows)?;
        let ring = Ring {
            table: table.to_string(),
            slots,
            seq: Arc::new(AtomicU64::new(0)),
        };
        let r = ring.clone();
        session.register_action_with_writes(action, [table], move |db, call| r.fire(db, call))?;
        Ok(ring)
    }

    /// The action body: serialize the fired node into the next slot. The
    /// ring is in the statement's exclusive write set, so firings on one
    /// ring never race.
    fn fire(&self, db: &Database, call: &ActionCall) -> Result<()> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = Value::Int((seq % self.slots as u64) as i64);
        let content = match &call.params[0] {
            Value::Xml(x) => x.to_xml(),
            other => other.to_string(),
        };
        db.delete_by_key(&self.table, std::slice::from_ref(&slot))?;
        db.insert_row(&self.table, vec![slot, Value::str(content)])
    }
}

/// What one client drives: the table it writes and reads, the keys whose
/// UPDATE fires the satisfied triggers, and where the firings land.
pub struct Target {
    pub table: String,
    /// Rows in `table`; reads pick uniformly among them.
    pub rows: usize,
    /// Prefix of the `name` column: row `k` is named `{name_prefix}{k}`.
    pub name_prefix: String,
    /// Keys whose UPDATE changes the watched element.
    pub hot_keys: Vec<i64>,
    /// Triggers that fire per write.
    pub satisfied: usize,
    pub ring: Ring,
    /// View and anchor element the triggers watch, and the `name`
    /// attribute of the one watched element.
    pub view: String,
    pub anchor: String,
    pub watched: String,
}

/// `CREATE TRIGGER` timings collected while a fixture is built.
#[derive(Default, Clone)]
pub struct TriggerTimings {
    /// The first trigger of a group: parse + translation + plan compile.
    pub first: Duration,
    /// Every later trigger (joins an existing group).
    pub later: Vec<Duration>,
    /// One of the statements, for the parse probe.
    pub sample_text: String,
}

/// A built system: the session, one target per client, and set-up facts.
pub struct Fixture {
    pub session: Session,
    pub targets: Vec<Target>,
    pub triggers: usize,
    pub timings: TriggerTimings,
}

fn create_triggers(
    session: &Session,
    timings: &mut TriggerTimings,
    texts: impl Iterator<Item = String>,
) -> Result<()> {
    for text in texts {
        let t0 = Instant::now();
        session.execute(&text)?;
        let dt = t0.elapsed();
        if timings.sample_text.is_empty() {
            timings.first = dt;
            timings.sample_text = text;
        } else {
            timings.later.push(dt);
        }
    }
    Ok(())
}

/// Parameters of the paper's Table-2 hierarchy with a ring action.
#[derive(Debug, Clone, Copy)]
pub struct HierarchySpec {
    pub depth: usize,
    pub leaves: usize,
    pub fanout: usize,
    pub triggers: usize,
    pub satisfied: usize,
    pub ring_slots: usize,
}

/// The `quark_bench::build` system — same tables, data, view and trigger
/// statements — with `insertTemp` writing into a `ring_slots`-slot ring.
pub fn build_hierarchy(spec: HierarchySpec) -> Result<Fixture> {
    assert!(spec.depth >= 2 && spec.satisfied <= spec.triggers);
    let session = quark_xquery::session(Database::new(), Mode::Grouped);
    let branching = split_fanout(spec.fanout, spec.depth - 1);
    let top_count = (spec.leaves / spec.fanout).max(1);
    let mut counts = vec![top_count];
    for b in &branching {
        counts.push(counts.last().expect("non-empty") * b);
    }
    for (i, &n) in counts.iter().enumerate() {
        let parent_col = if i > 0 { "parent INT, " } else { "" };
        session.execute(&format!(
            "CREATE TABLE t{i} (id INT PRIMARY KEY, {parent_col}name TEXT, price DOUBLE)"
        ))?;
        if i > 0 {
            session.execute(&format!("CREATE INDEX ON t{i} (parent)"))?;
        }
        let parents = if i == 0 { 0 } else { counts[i - 1] };
        let rows = (0..n)
            .map(|k| {
                let mut row = vec![Value::Int(k as i64)];
                if i > 0 {
                    row.push(Value::Int((k % parents) as i64));
                }
                row.push(Value::str(format!("name_{i}_{k}")));
                row.push(Value::Double(100.0 + (k % 97) as f64));
                row
            })
            .collect();
        session.database_mut().load(&format!("t{i}"), rows)?;
    }
    let view = chain_view_spec(spec.depth).build(&session.database())?;
    session.quark_mut().register_view(view);
    let ring = Ring::install(&session, "__temp", spec.ring_slots, "insertTemp")?;

    // `watched_name` only reads these fields of the paper's spec type.
    let naming = WorkloadSpec {
        depth: spec.depth,
        leaf_count: spec.leaves,
        fanout: spec.fanout,
        triggers: spec.triggers,
        satisfied: spec.satisfied,
        mode: Mode::Grouped,
        full_action: true,
    };
    let mut timings = TriggerTimings::default();
    create_triggers(
        &session,
        &mut timings,
        (0..spec.triggers)
            .map(|i| trigger_statement(&format!("xt_{i}"), &watched_name(&naming, i))),
    )?;

    // Every level count is a multiple of `top_count`, so leaf `k` sits
    // under top element `k % top_count`; element 0 is the watched one.
    let leaf_level = spec.depth - 1;
    let leaf_rows = counts[leaf_level];
    Ok(Fixture {
        session,
        targets: vec![Target {
            table: format!("t{leaf_level}"),
            rows: leaf_rows,
            name_prefix: format!("name_{leaf_level}_"),
            hot_keys: (0..leaf_rows)
                .step_by(top_count)
                .map(|k| k as i64)
                .collect(),
            satisfied: spec.satisfied,
            ring,
            view: "bench".into(),
            anchor: "e0".into(),
            watched: "name_0_0".into(),
        }],
        triggers: spec.triggers,
        timings,
    })
}

/// Parameters of the sharded single-level system with ring actions.
#[derive(Debug, Clone, Copy)]
pub struct ShardedSpec {
    pub shards: usize,
    pub rows: usize,
    pub triggers: usize,
    pub ring_slots: usize,
}

/// The `quark_bench::build_sharded` system inside `session` — shard `h` is
/// `m{h}` behind view `shard{h}` with `spec.triggers` triggers watching row
/// 0 — with `audit{h}` writing into a ring. Pass an in-memory session, or
/// a durable one from `quark_xquery::open_session_with`.
pub fn build_sharded(session: Session, spec: ShardedSpec) -> Result<Fixture> {
    let mut targets = Vec::with_capacity(spec.shards);
    let mut timings = TriggerTimings::default();
    for h in 0..spec.shards {
        session.execute(&format!(
            "CREATE TABLE m{h} (id INT PRIMARY KEY, name TEXT, price DOUBLE)"
        ))?;
        let rows = (0..spec.rows)
            .map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::str(format!("row_{h}_{k}")),
                    Value::Double(100.0),
                ]
            })
            .collect();
        session.database_mut().load(&format!("m{h}"), rows)?;
        let view = ViewSpec {
            name: format!("shard{h}"),
            root_element: "doc".into(),
            binding: TopBinding::Rows,
            top: LevelSpec {
                element: "item".into(),
                table: format!("m{h}"),
                parent_fk: None,
                attrs: vec![("name".into(), "name".into())],
                scalars: vec![("*".into(), "*".into())],
                child_count: None,
                child: None,
            },
        }
        .build(&session.database())?;
        session.quark_mut().register_view(view);
        let ring = Ring::install(
            &session,
            &format!("audit{h}"),
            spec.ring_slots,
            &format!("audit{h}"),
        )?;
        create_triggers(
            &session,
            &mut timings,
            (0..spec.triggers).map(|i| {
                format!(
                    "create trigger s{h}_t{i} after update on view('shard{h}')/item \
                     where OLD_NODE/@name = 'row_{h}_0' do audit{h}(NEW_NODE)"
                )
            }),
        )?;
        targets.push(Target {
            table: format!("m{h}"),
            rows: spec.rows,
            name_prefix: format!("row_{h}_"),
            hot_keys: vec![0],
            satisfied: spec.triggers,
            ring,
            view: format!("shard{h}"),
            anchor: "item".into(),
            watched: format!("row_{h}_0"),
        });
    }
    Ok(Fixture {
        session,
        targets,
        triggers: spec.shards * spec.triggers,
        timings,
    })
}

/// One pre-generated statement and what a correct reply looks like.
pub struct Op {
    pub text: String,
    pub check: Check,
}

/// The reply a statement must get.
pub enum Check {
    /// A keyed UPDATE of `key`: one row affected; afterwards the row's
    /// price is `price`.
    Write { key: i64, price: f64 },
    /// A keyed SELECT: exactly one row whose `name` is this.
    Read { name: String },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self.check, Check::Write { .. })
    }
}

/// `len` statements for one client: `reads_per_1000` ‰ keyed SELECTs on
/// uniformly chosen rows, the rest keyed UPDATEs spread evenly over the hot
/// keys, shuffled — so every run has exactly the same mix whatever the seed.
///
/// Every UPDATE sets a price no other statement of the stream sets (and no
/// loaded row has), so a write always changes the watched element and fires
/// every satisfied trigger, also when the timed loop wraps around the stream.
pub fn statement_stream(
    rng: &mut Rng,
    target: &Target,
    len: usize,
    reads_per_1000: usize,
) -> Vec<Op> {
    let reads = len * reads_per_1000 / 1000;
    assert!(
        len - reads >= 2 * target.hot_keys.len(),
        "each hot key needs two writes, or a wrap repeats its price"
    );
    let base = 50.0 + rng.below(1_000) as f64 + 1.0 / 32.0;
    let mut ops: Vec<Op> = (0..len)
        .map(|i| {
            if i < reads {
                let id = rng.below(target.rows as u64);
                Op {
                    text: format!("SELECT name FROM {} WHERE id = {id}", target.table),
                    check: Check::Read {
                        name: format!("{}{id}", target.name_prefix),
                    },
                }
            } else {
                let key = target.hot_keys[i % target.hot_keys.len()];
                let price = base + i as f64 / 16.0;
                Op {
                    text: format!(
                        "UPDATE {} SET price = {price:?} WHERE id = {key}",
                        target.table
                    ),
                    check: Check::Write { key, price },
                }
            }
        })
        .collect();
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_counts(session: &Session) -> Vec<(String, usize)> {
        let db = session.database();
        let mut counts: Vec<(String, usize)> = db
            .table_names()
            .map(|t| (t.to_string(), db.table(t).expect("listed table").len()))
            .collect();
        counts.sort();
        counts
    }

    fn drive(fixture: &Fixture, ops: usize) {
        let mut rng = Rng::new(3);
        for target in &fixture.targets {
            for op in statement_stream(&mut rng, target, ops, 0) {
                fixture.session.execute(&op.text).expect("keyed update");
            }
        }
    }

    /// Ten times the operations leave every table the size it was: the
    /// rings wrap instead of growing.
    #[test]
    fn table_sizes_do_not_depend_on_run_length() {
        let hierarchy = || {
            build_hierarchy(HierarchySpec {
                depth: 3,
                leaves: 256,
                fanout: 16,
                triggers: 12,
                satisfied: 3,
                ring_slots: 8,
            })
            .expect("hierarchy")
        };
        let sharded = || {
            build_sharded(
                quark_xquery::session(Database::new(), Mode::Grouped),
                ShardedSpec {
                    shards: 2,
                    rows: 32,
                    triggers: 4,
                    ring_slots: 8,
                },
            )
            .expect("sharded")
        };
        for build in [&hierarchy as &dyn Fn() -> Fixture, &sharded] {
            let (short, long) = (build(), build());
            let fresh = row_counts(&short.session);
            drive(&short, 40);
            drive(&long, 400);
            assert_eq!(row_counts(&short.session), fresh);
            assert_eq!(row_counts(&long.session), fresh);
            for (s, l) in short.targets.iter().zip(&long.targets) {
                let fired = |t: &Target| t.ring.seq.load(Ordering::Relaxed);
                assert_eq!(fired(s), 40 * s.satisfied as u64);
                assert_eq!(fired(l), 400 * l.satisfied as u64);
            }
        }
    }

    #[test]
    fn streams_repeat_for_a_seed_and_keep_the_mix() {
        let fixture = build_sharded(
            quark_xquery::session(Database::new(), Mode::Grouped),
            ShardedSpec {
                shards: 1,
                rows: 64,
                triggers: 1,
                ring_slots: 4,
            },
        )
        .expect("sharded");
        let texts = |seed| -> Vec<String> {
            statement_stream(&mut Rng::new(seed), &fixture.targets[0], 200, 500)
                .into_iter()
                .map(|op| op.text)
                .collect()
        };
        assert_eq!(texts(11), texts(11));
        assert_ne!(texts(11), texts(12));
        for seed in [11, 12] {
            let reads = texts(seed)
                .iter()
                .filter(|t| t.starts_with("SELECT"))
                .count();
            assert_eq!(reads, 100);
        }
    }
}
