//! Static analysis over the installed trigger program — the `ANALYZE
//! TRIGGERS` statement of the session surface.
//!
//! Since the footprint-latched write path landed, the whole concurrency
//! story rests on one claim: the [`Footprint`](super::Footprint) a session
//! latches for a write statement covers every table the statement and its
//! trigger cascade can touch. Which tables a cascade *writes* and which
//! groups it reaches is one computation, shared with the scheduler (the
//! cascade closure in [`system`](super), over declared action write sets);
//! what this module re-derives is the *read* side — from the compiled plan
//! DAGs (`PhysicalPlan::table_footprint`) instead of the footprint
//! recorded at translation time — and it layers two classic
//! active-database analyses (termination and commutativity of the trigger
//! set) on the same facts. Three passes:
//!
//! 1. **Footprint soundness** — for every group, the recorded latch-time
//!    footprint is compared against the union of its compiled plans' table
//!    walks; for every trigger-bearing table, what
//!    [`Quark::write_footprint`] would latch is compared against the reads
//!    of the same closure's groups, recomputed from their plans. A table a
//!    plan can touch that the latch analysis misses is an **error** (a
//!    silent data race); a table latched but unreachable is a **warning**
//!    (needless serialization). An unbounded closure (a raw SQL trigger)
//!    claims nothing: the session latches every table for it.
//! 2. **Cascade termination** — the trigger dependency graph (group →
//!    tables written → groups affected) is checked for cycles. A cycle
//!    whose writes can only change what reachable groups *read* — never a
//!    table that actually bears their SQL triggers — is **provably
//!    bounded** (the cascade cannot re-fire through it); a cycle through
//!    trigger-bearing tables is **potentially non-terminating** and only
//!    the runtime cascade depth cap bounds it.
//! 3. **Conflict / commutativity matrix** — for every group pair, whether
//!    DML hitting the two groups commutes (disjoint write sets, no
//!    write↔read overlap): the expected-parallelism report for a workload.
//!
//! A child module of [`system`](super) (like `persist`) so it can walk the
//! private group registry. The static claim is enforced at run time as
//! well: `quark-relational` refuses every table access outside the
//! statement's latched footprint with `Error::OutsideFootprint`.

use std::collections::BTreeSet;

use super::{Group, Quark};

/// How bad one soundness finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The latch analysis misses a table a compiled plan can touch: a
    /// write admitted under this footprint is a potential data race.
    Error,
    /// Harmless but wasteful: a needlessly latched table.
    Warning,
}

/// One footprint-soundness finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Error or warning.
    pub severity: Severity,
    /// What the finding is about (a group label or a DML target table).
    pub subject: String,
    /// Human-readable description.
    pub message: String,
}

/// Everything the analyzer derives about one trigger group, recomputed
/// from the compiled plan DAG and the action registry — *not* from the
/// footprint recorded at translation time (that recording is what pass 1
/// audits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupFacts {
    /// Display label: the group's member XML triggers.
    pub label: String,
    /// Tables bearing this group's generated SQL triggers — writing one of
    /// these actually fires the group.
    pub trigger_tables: BTreeSet<String>,
    /// Every table the group's compiled plans can read, recomputed by
    /// walking the plan DAGs, plus the constants table.
    pub plan_reads: BTreeSet<String>,
    /// The read footprint recorded at translation time — what the session
    /// latches shared when this group can fire.
    pub recorded_footprint: BTreeSet<String>,
    /// Union of the member actions' declared write sets (an action
    /// registered without one writes nothing).
    pub declared_writes: BTreeSet<String>,
}

/// One cycle in the trigger dependency graph (a strongly connected
/// component that can re-enter itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// Labels of the groups on the cycle, in sorted order.
    pub groups: Vec<String>,
    /// `true` if the cycle is **provably bounded**: no group in it writes
    /// a table bearing another cycle member's SQL triggers, so the cascade
    /// cannot re-fire around the loop — its writes only perturb what the
    /// members read. `false` means potentially non-terminating (the
    /// runtime cascade depth cap is the only bound).
    pub bounded: bool,
    /// Human-readable explanation of the classification.
    pub detail: String,
}

/// Commutativity verdict for one unordered group pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairReport {
    /// First group label (sorted order).
    pub a: String,
    /// Second group label.
    pub b: String,
    /// `true` if DML firing the two groups commutes: disjoint write sets
    /// and no write↔read overlap, so their statement latches admit them
    /// in parallel and either execution order yields the same state.
    pub commutes: bool,
    /// Why (the overlapping tables, or "disjoint").
    pub detail: String,
}

/// Full output of [`Quark::analyze_triggers`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerAnalysis {
    /// Recomputed per-group facts, sorted by label.
    pub groups: Vec<GroupFacts>,
    /// Soundness findings (pass 1), errors first.
    pub findings: Vec<Finding>,
    /// Detected cascade cycles (pass 2), each classified.
    pub cycles: Vec<Cycle>,
    /// The commutativity matrix (pass 3), one row per unordered pair.
    pub pairs: Vec<PairReport>,
}

/// Wire-friendly summary of a [`TriggerAnalysis`]: the counts a CI gate
/// checks plus the rendered report. This is what `ANALYZE TRIGGERS`
/// returns through the session surface and the wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Trigger groups analyzed.
    pub groups: u64,
    /// Soundness errors — **must be zero**; each one is a table a compiled
    /// plan can touch that the latch-time footprint misses.
    pub errors: u64,
    /// Soundness warnings (needless latches).
    pub warnings: u64,
    /// Cycles classified provably bounded.
    pub cycles_bounded: u64,
    /// Cycles classified potentially non-terminating.
    pub cycles_unbounded: u64,
    /// Group pairs that commute.
    pub commuting_pairs: u64,
    /// Group pairs that conflict.
    pub conflicting_pairs: u64,
    /// The full human-readable report.
    pub text: String,
}

impl TriggerAnalysis {
    /// Soundness findings of one severity.
    pub fn findings_of(&self, severity: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity == severity)
    }

    /// Summarize into the wire-friendly [`AnalysisReport`].
    pub fn report(&self) -> AnalysisReport {
        AnalysisReport {
            groups: self.groups.len() as u64,
            errors: self.findings_of(Severity::Error).count() as u64,
            warnings: self.findings_of(Severity::Warning).count() as u64,
            cycles_bounded: self.cycles.iter().filter(|c| c.bounded).count() as u64,
            cycles_unbounded: self.cycles.iter().filter(|c| !c.bounded).count() as u64,
            commuting_pairs: self.pairs.iter().filter(|p| p.commutes).count() as u64,
            conflicting_pairs: self.pairs.iter().filter(|p| !p.commutes).count() as u64,
            text: self.render(),
        }
    }

    /// Render the full human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trigger program analysis: {} group(s)",
            self.groups.len()
        );
        for g in &self.groups {
            let _ = writeln!(
                out,
                "  group {}: triggers on {:?}, reads {:?}, writes {:?}",
                g.label, g.trigger_tables, g.plan_reads, g.declared_writes
            );
        }
        let errors = self.findings_of(Severity::Error).count();
        let warnings = self.findings_of(Severity::Warning).count();
        let _ = writeln!(
            out,
            "[1] footprint soundness: {errors} error(s), {warnings} warning(s)"
        );
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "warning",
            };
            let _ = writeln!(out, "  {tag} {}: {}", f.subject, f.message);
        }
        if self.findings.is_empty() {
            let _ = writeln!(out, "  every latched footprint covers its compiled plans");
        }
        let _ = writeln!(
            out,
            "[2] cascade termination: {} cycle(s)",
            self.cycles.len()
        );
        for c in &self.cycles {
            let class = if c.bounded {
                "provably bounded"
            } else {
                "POTENTIALLY NON-TERMINATING"
            };
            let _ = writeln!(out, "  {class} [{}]: {}", c.groups.join(" -> "), c.detail);
        }
        if self.cycles.is_empty() {
            let _ = writeln!(out, "  the trigger dependency graph is acyclic");
        }
        let commuting = self.pairs.iter().filter(|p| p.commutes).count();
        let _ = writeln!(
            out,
            "[3] commutativity: {commuting} of {} pair(s) commute",
            self.pairs.len()
        );
        for p in &self.pairs {
            let mark = if p.commutes { "||" } else { "><" };
            let _ = writeln!(out, "  {} {mark} {}: {}", p.a, p.b, p.detail);
        }
        out
    }
}

/// Detect and classify cycles in the trigger dependency graph of `facts`.
///
/// The *conservative* graph has an edge `G → H` when `G`'s cascade writes
/// can touch anything `H` depends on (a table `H`'s plans read or one
/// bearing `H`'s triggers); cycles are detected there, so nothing that
/// could loop is missed. Each detected cycle is then re-examined on the
/// *firing* subgraph (`G → H` only when `G` writes a table actually
/// bearing `H`'s SQL triggers, which is what makes a cascade continue):
/// if the cycle disappears, it is provably bounded — writes around the
/// loop perturb view contents but cannot re-fire.
pub fn detect_cycles(facts: &[GroupFacts]) -> Vec<Cycle> {
    let n = facts.len();
    let mut affect: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut firing: Vec<Vec<bool>> = vec![vec![false; n]; n];
    for i in 0..n {
        let w = &facts[i].declared_writes;
        for (j, g) in facts.iter().enumerate() {
            let fires = !w.is_disjoint(&g.trigger_tables);
            let affects = fires || !w.is_disjoint(&g.plan_reads);
            if affects {
                affect[i].push(j);
            }
            firing[i][j] = fires;
        }
    }
    let mut cycles = Vec::new();
    for scc in sccs(n, &affect) {
        let cyclic = scc.len() > 1 || affect[scc[0]].contains(&scc[0]);
        if !cyclic {
            continue;
        }
        // Re-fire check: restrict the firing edges to this component.
        let in_scc: BTreeSet<usize> = scc.iter().copied().collect();
        let sub: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                if !in_scc.contains(&i) {
                    return Vec::new();
                }
                (0..n)
                    .filter(|&j| in_scc.contains(&j) && firing[i][j])
                    .collect()
            })
            .collect();
        let refires = sccs(n, &sub).into_iter().any(|s| {
            s.iter().all(|i| in_scc.contains(i)) && (s.len() > 1 || sub[s[0]].contains(&s[0]))
        });
        let mut groups: Vec<String> = scc.iter().map(|&i| facts[i].label.clone()).collect();
        groups.sort();
        cycles.push(Cycle {
            groups,
            bounded: !refires,
            detail: if refires {
                "writes reach tables bearing cycle members' triggers; only the \
                 runtime cascade depth cap bounds re-firing"
                    .into()
            } else {
                "writes only perturb tables the cycle members read, never a \
                 trigger-bearing one — the cascade cannot re-fire around the loop"
                    .into()
            },
        });
    }
    cycles.sort_by(|a, b| a.groups.cmp(&b.groups));
    cycles
}

/// Iterative Tarjan strongly-connected components over an adjacency list.
fn sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone)]
    struct NodeState {
        index: usize,
        low: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut state = vec![
        NodeState {
            index: 0,
            low: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut next_index = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    for root in 0..n {
        if state[root].visited {
            continue;
        }
        // Explicit DFS frame stack: (node, next child position).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                state[v].visited = true;
                state[v].index = next_index;
                state[v].low = next_index;
                next_index += 1;
                state[v].on_stack = true;
                stack.push(v);
            }
            if let Some(&w) = adj[v].get(*ci) {
                *ci += 1;
                if !state[w].visited {
                    frames.push((w, 0));
                } else if state[w].on_stack {
                    state[v].low = state[v].low.min(state[w].index);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    let low = state[v].low;
                    state[parent].low = state[parent].low.min(low);
                }
                if state[v].low == state[v].index {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        state[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// Build the commutativity matrix over `facts`: one [`PairReport`] per
/// unordered pair. A pair commutes when the two groups' effective write
/// sets (trigger-bearing tables — the DML targets — plus declared cascade
/// writes) are disjoint *and* neither write set intersects the other's
/// read set.
pub fn conflict_pairs(facts: &[GroupFacts]) -> Vec<PairReport> {
    let eff_writes = |g: &GroupFacts| -> BTreeSet<String> {
        g.declared_writes
            .union(&g.trigger_tables)
            .cloned()
            .collect()
    };
    let mut out = Vec::new();
    for i in 0..facts.len() {
        for j in i + 1..facts.len() {
            let (a, b) = (&facts[i], &facts[j]);
            let (wa, wb) = (eff_writes(a), eff_writes(b));
            let ww: Vec<&String> = wa.intersection(&wb).collect();
            let wr: Vec<&String> = wa.intersection(&b.plan_reads).collect();
            let rw: Vec<&String> = wb.intersection(&a.plan_reads).collect();
            let report = if !ww.is_empty() {
                (false, format!("write/write overlap on {ww:?}"))
            } else if !wr.is_empty() {
                (
                    false,
                    format!("{}'s writes hit {}'s reads: {wr:?}", a.label, b.label),
                )
            } else if !rw.is_empty() {
                (
                    false,
                    format!("{}'s writes hit {}'s reads: {rw:?}", b.label, a.label),
                )
            } else {
                (true, "disjoint writes, no write/read overlap".into())
            };
            out.push(PairReport {
                a: a.label.clone(),
                b: b.label.clone(),
                commutes: report.0,
                detail: report.1,
            });
        }
    }
    out
}

impl Quark {
    /// Run the three-pass static analysis over the installed trigger
    /// program (see the [module docs](self)). Read-only: the session
    /// surface evaluates it against an immutable snapshot, like any other
    /// read statement.
    pub fn analyze_triggers(&self) -> TriggerAnalysis {
        let facts = self.group_facts();
        let mut findings = Vec::new();
        self.check_group_soundness(&facts, &mut findings);
        self.check_statement_soundness(&mut findings);
        findings.sort_by_key(|f| (f.severity == Severity::Warning, f.subject.clone()));
        TriggerAnalysis {
            cycles: detect_cycles(&facts),
            pairs: conflict_pairs(&facts),
            groups: facts,
            findings,
        }
    }

    /// Recompute [`GroupFacts`] for every group, sorted by label.
    fn group_facts(&self) -> Vec<GroupFacts> {
        let actions = self.actions.lock().expect("action registry");
        let mut facts: Vec<GroupFacts> = self
            .groups
            .values()
            .map(|group| {
                let mut members: Vec<String> = group
                    .members
                    .lock()
                    .expect("members")
                    .values()
                    .flatten()
                    .map(|m| m.trigger.clone())
                    .collect();
                members.sort();
                let label = match members.len() {
                    0 => "<memberless>".to_string(),
                    1..=3 => members.join("+"),
                    n => format!("{}+{}more", members[..2].join("+"), n - 2),
                };
                GroupFacts {
                    label,
                    trigger_tables: (group.sql_triggers.iter())
                        .map(|t| t.src.table.clone())
                        .collect(),
                    plan_reads: plan_reads(group),
                    recorded_footprint: group.footprint.clone(),
                    declared_writes: group.declared_writes(&actions),
                }
            })
            .collect();
        facts.sort_by(|a, b| a.label.cmp(&b.label));
        facts
    }

    /// Pass 1a: per group, the recorded latch-time footprint vs the plan
    /// walk.
    fn check_group_soundness(&self, facts: &[GroupFacts], findings: &mut Vec<Finding>) {
        for g in facts {
            let missing: Vec<&String> = g.plan_reads.difference(&g.recorded_footprint).collect();
            if !missing.is_empty() {
                findings.push(Finding {
                    severity: Severity::Error,
                    subject: format!("group {}", g.label),
                    message: format!(
                        "compiled plans can read {missing:?} but the recorded \
                         footprint does not latch them"
                    ),
                });
            }
            let excess: Vec<&String> = g.recorded_footprint.difference(&g.plan_reads).collect();
            if !excess.is_empty() {
                findings.push(Finding {
                    severity: Severity::Warning,
                    subject: format!("group {}", g.label),
                    message: format!(
                        "footprint latches {excess:?} which no compiled plan reads \
                         (needless serialization)"
                    ),
                });
            }
        }
    }

    /// Pass 1b: per trigger-bearing table, what a write to it would latch
    /// ([`Quark::write_footprint`]: the cascade closure's written tables
    /// plus the reached groups' *recorded* footprints) vs what the reached
    /// groups' *recomputed* plan walks can read.
    fn check_statement_soundness(&self, findings: &mut Vec<Finding>) {
        let targets: BTreeSet<&str> = self.db.triggers().map(|t| t.table.as_str()).collect();
        for target in targets {
            let Some((written, reached)) = self.cascade_closure(target) else {
                continue;
            };
            let subject = format!("writes to `{target}`");
            let latched: BTreeSet<&String> = written
                .iter()
                .chain(reached.iter().flat_map(|g| &g.footprint))
                .collect();
            let true_read: BTreeSet<String> = reached
                .iter()
                .flat_map(|g| plan_reads(g))
                .filter(|t| !written.contains(t))
                .collect();
            let missing: Vec<&String> = true_read.iter().filter(|t| !latched.contains(t)).collect();
            if !missing.is_empty() {
                findings.push(Finding {
                    severity: Severity::Error,
                    subject: subject.clone(),
                    message: format!("cascade can read {missing:?} but they are not latched"),
                });
            }
            let excess: Vec<&String> = latched
                .into_iter()
                .filter(|t| !written.contains(*t) && !true_read.contains(*t))
                .collect();
            if !excess.is_empty() {
                findings.push(Finding {
                    severity: Severity::Warning,
                    subject,
                    message: format!(
                        "latches {excess:?} which the cascade can neither \
                         read nor write (needless serialization)"
                    ),
                });
            }
        }
    }

    /// Test hook: corrupt the recorded footprint of the group owning XML
    /// trigger `trigger` by removing `table` from it, simulating an
    /// under-declared footprint. Returns `true` if the table was present.
    /// The static pass must then report a soundness error, and executing
    /// a write that fires the group must fail with
    /// `Error::OutsideFootprint` and bump `footprint_violations`.
    #[doc(hidden)]
    pub fn tamper_footprint_for_test(&mut self, trigger: &str, table: &str) -> bool {
        let Some(record) = self.triggers.get(trigger) else {
            return false;
        };
        let signature = record.group_signature.clone();
        let groups = std::sync::Arc::make_mut(&mut self.groups);
        groups
            .get_mut(&signature)
            .map(|g| g.footprint.remove(table))
            .unwrap_or(false)
    }
}

/// Every table `group`'s compiled plans can read, recomputed by walking
/// the plan DAGs, plus the constants table its triggers join on.
fn plan_reads(group: &Group) -> BTreeSet<String> {
    let plans = group.sql_triggers.iter();
    let mut reads: BTreeSet<String> = plans.flat_map(|t| t.plan_ref.table_footprint()).collect();
    reads.extend(group.constants_table.clone());
    reads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn facts(label: &str, triggers: &[&str], reads: &[&str], writes: &[&str]) -> GroupFacts {
        GroupFacts {
            label: label.into(),
            trigger_tables: set(triggers),
            plan_reads: set(reads),
            recorded_footprint: set(reads),
            declared_writes: set(writes),
        }
    }

    #[test]
    fn acyclic_program_has_no_cycles() {
        let f = [
            facts("A", &["a"], &["a"], &["log_a"]),
            facts("B", &["b"], &["b"], &["log_b"]),
        ];
        assert!(detect_cycles(&f).is_empty());
    }

    #[test]
    fn refiring_self_loop_is_potentially_non_terminating() {
        let f = [facts("A", &["a"], &["a"], &["a"])];
        let cycles = detect_cycles(&f);
        assert_eq!(cycles.len(), 1);
        assert!(!cycles[0].bounded);
        assert_eq!(cycles[0].groups, vec!["A".to_string()]);
    }

    #[test]
    fn read_only_self_loop_is_provably_bounded() {
        // A's cascade writes a table its plans *read* (a join side) but
        // that bears no trigger of A: the view contents move, the cascade
        // cannot re-fire.
        let f = [facts("A", &["a"], &["a", "side"], &["side"])];
        let cycles = detect_cycles(&f);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].bounded, "no firing edge: {:?}", cycles[0]);
    }

    #[test]
    fn two_group_ping_pong_is_one_unbounded_cycle() {
        let f = [
            facts("A", &["a"], &["a"], &["b"]),
            facts("B", &["b"], &["b"], &["a"]),
        ];
        let cycles = detect_cycles(&f);
        assert_eq!(cycles.len(), 1);
        assert!(!cycles[0].bounded);
        assert_eq!(cycles[0].groups, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn mixed_cycle_with_bounded_reentry_is_bounded() {
        // A writes a table B reads; B writes a table A reads; neither
        // write lands on a trigger-bearing table.
        let f = [
            facts("A", &["a"], &["a", "rb"], &["ra"]),
            facts("B", &["b"], &["b", "ra"], &["rb"]),
        ];
        let cycles = detect_cycles(&f);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].bounded);
    }

    #[test]
    fn commutativity_matrix_classifies_pairs() {
        let f = [
            facts("A", &["a"], &["a"], &["log_a"]),
            facts("B", &["b"], &["b"], &["log_b"]),
            facts("C", &["c"], &["c", "a"], &["log_c"]),
            facts("D", &["d"], &["d"], &["log_a"]),
        ];
        let pairs = conflict_pairs(&f);
        assert_eq!(pairs.len(), 6);
        let find = |x: &str, y: &str| {
            pairs
                .iter()
                .find(|p| p.a == x && p.b == y)
                .unwrap_or_else(|| panic!("missing pair {x}/{y}"))
        };
        assert!(find("A", "B").commutes, "disjoint groups commute");
        assert!(
            !find("A", "C").commutes,
            "A writes nothing C reads, but A's trigger table `a` is C's read"
        );
        assert!(
            !find("A", "D").commutes,
            "A and D both write `log_a`: {:?}",
            find("A", "D")
        );
    }
}
