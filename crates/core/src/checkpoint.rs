//! Checkpoint files: durable snapshots of a [`LiveAuditor`]'s
//! incremental state, so a restarted audit process resumes a stream
//! from its last checkpoint seq **without replaying the log**.
//!
//! The paper's transparency machinery is platform-resident: fairness
//! state must survive process restarts the way any other operational
//! state does. A [`Checkpoint`] captures everything
//! [`LiveAuditor::checkpoint`] accumulated — the event-less world
//! (entity tables + header scalars), the incremental [`EventIndex`]
//! mirror, lazy qualification rows, A1/A2 partner caches and overlap
//! counters, emitted-set dedup state, and the findings so far — in a
//! versioned schema (`faircrowd-checkpoint` v1) behind the same three
//! never-panicking load gates as trace files ([`crate::persist`]):
//!
//! 1. **Parse** — malformed or truncated JSON names the byte where it
//!    broke;
//! 2. **Schema** — a foreign schema name or an unsupported version is
//!    rejected before any field is decoded;
//! 3. **Integrity** — [`Checkpoint::ensure_valid`] cross-checks the
//!    monitor state against the entity tables (row and cache lengths,
//!    partner/pair index bounds, finding seqs against the header seq),
//!    and [`decode`] rejects a header `seq` that disagrees with the
//!    body's `events_seen` — a snapshot stitched from two different
//!    moments must fail loudly, not resume into silent drift.
//!
//! Restoring through [`LiveAuditor::resume`] and finishing the stream
//! is bit-identical — findings, final report, wages — to never having
//! stopped (pinned by the `checkpoint_resume` oracle tests across the
//! scenario catalog and random checkpoint seqs).

use crate::axiom::AxiomId;
use crate::fields::{
    arr_field, bool_field, i64_field, require, str_field, u32_field, u32_pair, u32_value,
    u64_field, u64_pair,
};
use crate::live::{FindingOrigin, LiveAuditor, LiveFinding};
use crate::Violation;
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::event::QuitReason;
use faircrowd_model::ids::{SubmissionId, TaskId, WorkerId};
use faircrowd_model::json::Json;
use faircrowd_model::money::Credits;
use faircrowd_model::time::{SimDuration, SimTime};
use faircrowd_model::trace::{EventIndex, Interruption, Trace};
use faircrowd_model::trace_io::{self, JsonlHeader};
use std::collections::BTreeSet;
use std::path::Path;

/// Schema name stamped into every checkpoint file.
pub const SCHEMA_NAME: &str = "faircrowd-checkpoint";
/// Schema version this build writes and reads.
pub const SCHEMA_VERSION: u64 = 1;

/// A durable snapshot of one [`LiveAuditor`]'s incremental state.
///
/// Produced by [`LiveAuditor::checkpoint`], persisted via
/// [`save`]/[`encode`], loaded back through the gates of
/// [`load`]/[`decode`], and turned back into a running auditor by
/// [`LiveAuditor::resume`]. The struct is opaque outside the crate;
/// the accessors below expose what resuming callers need.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The world as declared up to the checkpoint — entity tables and
    /// header scalars, with an **empty** event log (the mirror stands
    /// in for the log's derived state; the log itself is never
    /// replayed).
    pub(crate) world: Trace,
    /// The incremental [`EventIndex`] mirror at the checkpoint seq.
    pub(crate) mirror: EventIndex,
    /// Events consumed (the checkpoint seq: the next event's seq).
    pub(crate) events_seen: u64,
    /// Physical source lines consumed from the backing JSONL file.
    pub(crate) source_lines: u64,
    pub(crate) last_time: SimTime,
    pub(crate) policy_scanned: bool,
    pub(crate) finalized: bool,
    pub(crate) max_findings: usize,
    pub(crate) suppressed: u64,
    /// Per worker: (tasks folded in, qualified task ids).
    pub(crate) qual_tasks: Vec<(usize, Vec<TaskId>)>,
    /// Per task: (workers folded in, qualified worker ids).
    pub(crate) qual_workers: Vec<(usize, Vec<WorkerId>)>,
    /// Per worker: (workers folded in, similar partner positions).
    pub(crate) similar_partners: Vec<(usize, Vec<usize>)>,
    /// Per task: (tasks folded in, comparable partner positions).
    pub(crate) comparable_partners: Vec<(usize, Vec<usize>)>,
    /// `[i, j, left, right, inter]` per monitored worker pair, sorted.
    pub(crate) a1_pairs: Vec<[u64; 5]>,
    /// `[i, j, left, right, inter]` per monitored task pair, sorted.
    pub(crate) a2_pairs: Vec<[u64; 5]>,
    pub(crate) a1_emitted: Vec<(u64, u64)>,
    pub(crate) a2_emitted: Vec<(u64, u64)>,
    pub(crate) a3_emitted: Vec<(SubmissionId, SubmissionId)>,
    pub(crate) a4_emitted: Vec<WorkerId>,
    pub(crate) a6_emitted: Vec<TaskId>,
    pub(crate) findings: Vec<LiveFinding>,
}

impl Checkpoint {
    /// The checkpoint seq: events consumed so far, which is the seq the
    /// next ingested event must carry.
    pub fn seq(&self) -> u64 {
        self.events_seen
    }

    /// Physical lines of the backing JSONL file already consumed
    /// (header, blank and entity lines included) — how far a resumed
    /// tailer skips before feeding fresh lines. Zero for auditors not
    /// fed from a line stream.
    pub fn source_lines(&self) -> u64 {
        self.source_lines
    }

    /// Whether the snapshotted auditor had already been finalized.
    pub fn finalized(&self) -> bool {
        self.finalized
    }

    /// The findings retained up to the checkpoint, in emission order.
    pub fn findings(&self) -> &[LiveFinding] {
        &self.findings
    }

    /// The stream header a resumed [`trace_io::JsonlReader`] should
    /// carry, reconstructed from the checkpointed world.
    pub fn jsonl_header(&self) -> JsonlHeader {
        JsonlHeader {
            horizon: self.world.horizon,
            disclosure: self.world.disclosure.clone(),
            ground_truth: self.world.ground_truth.clone(),
        }
    }

    /// Gate 3: cross-check the monitor state against the entity tables.
    /// Every inconsistency a tampered or truncated-and-patched file
    /// could smuggle past the parser is collected and reported — never
    /// a panic, and never a silent resume into drifted state.
    pub fn ensure_valid(&self) -> Result<(), FaircrowdError> {
        let mut problems = Vec::new();
        let n_workers = self.world.workers.len();
        let n_tasks = self.world.tasks.len();
        if !self.world.events.is_empty() {
            problems.push(format!(
                "world carries {} event(s); a checkpoint's world must be event-less \
                 (the mirror stands in for the log)",
                self.world.events.len()
            ));
        }
        let lens = [
            ("qual_tasks", self.qual_tasks.len(), n_workers, "worker"),
            ("qual_workers", self.qual_workers.len(), n_tasks, "task"),
            (
                "similar_partners",
                self.similar_partners.len(),
                n_workers,
                "worker",
            ),
            (
                "comparable_partners",
                self.comparable_partners.len(),
                n_tasks,
                "task",
            ),
        ];
        for (name, got, want, table) in lens {
            if got != want {
                problems.push(format!(
                    "`{name}` has {got} row(s) but the world declares {want} {table}(s)"
                ));
            }
        }
        let known_tasks: BTreeSet<TaskId> = self.world.tasks.iter().map(|t| t.id).collect();
        let known_workers: BTreeSet<WorkerId> = self.world.workers.iter().map(|w| w.id).collect();
        for (wi, (seen, ids)) in self.qual_tasks.iter().enumerate() {
            if *seen > n_tasks {
                problems.push(format!(
                    "`qual_tasks` row {wi} claims {seen} tasks folded in, world has {n_tasks}"
                ));
            }
            if let Some(id) = ids.iter().find(|id| !known_tasks.contains(id)) {
                problems.push(format!("`qual_tasks` row {wi} names unknown task {id}"));
            }
        }
        for (ti, (seen, ids)) in self.qual_workers.iter().enumerate() {
            if *seen > n_workers {
                problems.push(format!(
                    "`qual_workers` row {ti} claims {seen} workers folded in, world has {n_workers}"
                ));
            }
            if let Some(id) = ids.iter().find(|id| !known_workers.contains(id)) {
                problems.push(format!("`qual_workers` row {ti} names unknown worker {id}"));
            }
        }
        let caches = [
            ("similar_partners", &self.similar_partners, n_workers),
            ("comparable_partners", &self.comparable_partners, n_tasks),
        ];
        for (name, cache, bound) in caches {
            for (i, (seen, partners)) in cache.iter().enumerate() {
                if *seen > bound {
                    problems.push(format!(
                        "`{name}` entry {i} claims {seen} entities folded in, world has {bound}"
                    ));
                }
                if let Some(p) = partners.iter().find(|&&p| p >= bound) {
                    problems.push(format!(
                        "`{name}` entry {i} names partner position {p}, world has {bound}"
                    ));
                }
            }
        }
        let pair_sets = [
            ("a1_pairs", &self.a1_pairs, n_workers),
            ("a2_pairs", &self.a2_pairs, n_tasks),
        ];
        for (name, pairs, bound) in pair_sets {
            for &[i, j, ..] in pairs.iter() {
                if i >= j || j >= bound as u64 {
                    problems.push(format!(
                        "`{name}` pair ({i}, {j}) is not an ordered pair of positions below {bound}"
                    ));
                }
            }
        }
        let emitted_sets = [
            ("a1_emitted", &self.a1_emitted, n_workers),
            ("a2_emitted", &self.a2_emitted, n_tasks),
        ];
        for (name, pairs, bound) in emitted_sets {
            for &(i, j) in pairs.iter() {
                if i >= j || j >= bound as u64 {
                    problems.push(format!(
                        "`{name}` pair ({i}, {j}) is not an ordered pair of positions below {bound}"
                    ));
                }
            }
        }
        for (i, f) in self.findings.iter().enumerate() {
            let bad_seq = match f.origin {
                FindingOrigin::Event { seq, .. } => seq >= self.events_seen,
                FindingOrigin::EndOfStream {
                    last_seq: Some(seq),
                } => seq >= self.events_seen,
                _ => false,
            };
            if bad_seq {
                problems.push(format!(
                    "finding {i} is attributed past the checkpoint seq {}",
                    self.events_seen
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(FaircrowdError::persist(format!(
                "checkpoint failed integrity checks: {}",
                problems.join("; ")
            )))
        }
    }
}

// ---- encode ---------------------------------------------------------

/// Encode a checkpoint as pretty-printed JSON. Deterministic: the same
/// snapshot always encodes to the same bytes (hash-keyed state was
/// already sorted by [`LiveAuditor::checkpoint`]).
pub fn encode(ckpt: &Checkpoint) -> String {
    let mut text = to_json(ckpt).to_pretty();
    text.push('\n');
    text
}

fn to_json(ckpt: &Checkpoint) -> Json<'_> {
    let id_arr = |ids: &[u32]| Json::Arr(ids.iter().map(|&i| Json::uint(u64::from(i))).collect());
    let rows = |rows: &[(usize, Vec<u32>)]| {
        Json::Arr(
            rows.iter()
                .map(|(seen, ids)| {
                    Json::Obj(vec![
                        ("seen".into(), Json::uint(*seen as u64)),
                        ("ids".into(), id_arr(ids)),
                    ])
                })
                .collect(),
        )
    };
    let caches = |caches: &[(usize, Vec<usize>)]| {
        Json::Arr(
            caches
                .iter()
                .map(|(seen, partners)| {
                    Json::Obj(vec![
                        ("seen".into(), Json::uint(*seen as u64)),
                        (
                            "partners".into(),
                            Json::Arr(partners.iter().map(|&p| Json::uint(p as u64)).collect()),
                        ),
                    ])
                })
                .collect(),
        )
    };
    let pairs = |pairs: &[[u64; 5]]| {
        Json::Arr(
            pairs
                .iter()
                .map(|row| Json::Arr(row.iter().map(|&v| Json::uint(v)).collect()))
                .collect(),
        )
    };
    let emitted = |pairs: &[(u64, u64)]| {
        Json::Arr(
            pairs
                .iter()
                .map(|&(i, j)| Json::Arr(vec![Json::uint(i), Json::uint(j)]))
                .collect(),
        )
    };
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA_NAME)),
        ("version".into(), Json::uint(SCHEMA_VERSION)),
        ("seq".into(), Json::uint(ckpt.events_seen)),
        ("source_lines".into(), Json::uint(ckpt.source_lines)),
        ("world".into(), trace_io::trace_to_json(&ckpt.world)),
        ("mirror".into(), mirror_to_json(&ckpt.mirror)),
        ("events_seen".into(), Json::uint(ckpt.events_seen)),
        ("last_time".into(), Json::uint(ckpt.last_time.as_secs())),
        ("policy_scanned".into(), Json::Bool(ckpt.policy_scanned)),
        ("finalized".into(), Json::Bool(ckpt.finalized)),
        ("max_findings".into(), Json::uint(ckpt.max_findings as u64)),
        ("suppressed".into(), Json::uint(ckpt.suppressed)),
        (
            "qual_tasks".into(),
            rows(&unraw(&ckpt.qual_tasks, |id: &TaskId| id.raw())),
        ),
        (
            "qual_workers".into(),
            rows(&unraw(&ckpt.qual_workers, |id: &WorkerId| id.raw())),
        ),
        ("similar_partners".into(), caches(&ckpt.similar_partners)),
        (
            "comparable_partners".into(),
            caches(&ckpt.comparable_partners),
        ),
        ("a1_pairs".into(), pairs(&ckpt.a1_pairs)),
        ("a2_pairs".into(), pairs(&ckpt.a2_pairs)),
        ("a1_emitted".into(), emitted(&ckpt.a1_emitted)),
        ("a2_emitted".into(), emitted(&ckpt.a2_emitted)),
        (
            "a3_emitted".into(),
            Json::Arr(
                ckpt.a3_emitted
                    .iter()
                    .map(|&(a, b)| {
                        Json::Arr(vec![
                            Json::uint(u64::from(a.raw())),
                            Json::uint(u64::from(b.raw())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "a4_emitted".into(),
            id_arr(&ckpt.a4_emitted.iter().map(|w| w.raw()).collect::<Vec<_>>()),
        ),
        (
            "a6_emitted".into(),
            id_arr(&ckpt.a6_emitted.iter().map(|t| t.raw()).collect::<Vec<_>>()),
        ),
        (
            "findings".into(),
            Json::Arr(ckpt.findings.iter().map(finding_to_json).collect()),
        ),
    ])
}

fn unraw<T>(rows: &[(usize, Vec<T>)], raw: impl Fn(&T) -> u32) -> Vec<(usize, Vec<u32>)> {
    rows.iter()
        .map(|(seen, ids)| (*seen, ids.iter().map(&raw).collect()))
        .collect()
}

fn mirror_to_json(mirror: &EventIndex) -> Json<'_> {
    let id_set = |ids: &BTreeSet<u32>| -> Json {
        Json::Arr(ids.iter().map(|&i| Json::uint(u64::from(i))).collect())
    };
    let visibility = Json::Arr(
        mirror
            .visibility
            .iter()
            .map(|(w, tasks)| {
                Json::Obj(vec![
                    ("worker".into(), Json::uint(u64::from(w.raw()))),
                    (
                        "tasks".into(),
                        id_set(&tasks.iter().map(|t| t.raw()).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let audience = Json::Arr(
        mirror
            .audience
            .iter()
            .map(|(t, workers)| {
                Json::Obj(vec![
                    ("task".into(), Json::uint(u64::from(t.raw()))),
                    (
                        "workers".into(),
                        id_set(&workers.iter().map(|w| w.raw()).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let payments = Json::Arr(
        mirror
            .payments
            .iter()
            .map(|(s, amount)| {
                Json::Obj(vec![
                    ("submission".into(), Json::uint(u64::from(s.raw()))),
                    ("amount".into(), Json::int(amount.millicents())),
                ])
            })
            .collect(),
    );
    let earnings = Json::Arr(
        mirror
            .earnings
            .iter()
            .map(|(w, amount)| {
                Json::Obj(vec![
                    ("worker".into(), Json::uint(u64::from(w.raw()))),
                    ("amount".into(), Json::int(amount.millicents())),
                ])
            })
            .collect(),
    );
    let interruptions = Json::Arr(
        mirror
            .interruptions
            .iter()
            .map(|i| {
                Json::Obj(vec![
                    ("task".into(), Json::uint(u64::from(i.task.raw()))),
                    ("worker".into(), Json::uint(u64::from(i.worker.raw()))),
                    ("invested".into(), Json::uint(i.invested.as_secs())),
                    ("compensated".into(), Json::Bool(i.compensated)),
                ])
            })
            .collect(),
    );
    let quits = Json::Arr(
        mirror
            .quits
            .iter()
            .map(|(w, reason, time)| {
                Json::Obj(vec![
                    ("worker".into(), Json::uint(u64::from(w.raw()))),
                    (
                        "reason".into(),
                        Json::str(match reason {
                            QuitReason::Frustration => "frustration",
                            QuitReason::NaturalChurn => "natural_churn",
                        }),
                    ),
                    ("time".into(), Json::uint(time.as_secs())),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("visibility".into(), visibility),
        ("audience".into(), audience),
        ("payments".into(), payments),
        ("earnings".into(), earnings),
        (
            "flagged".into(),
            id_set(&mirror.flagged.iter().map(|w| w.raw()).collect()),
        ),
        (
            "session_workers".into(),
            id_set(&mirror.session_workers.iter().map(|w| w.raw()).collect()),
        ),
        (
            "informed_workers".into(),
            id_set(&mirror.informed_workers.iter().map(|w| w.raw()).collect()),
        ),
        (
            "work_started".into(),
            Json::uint(mirror.work_started as u64),
        ),
        ("interruptions".into(), interruptions),
        ("quits".into(), quits),
    ])
}

fn finding_to_json(f: &LiveFinding) -> Json<'_> {
    let origin = match f.origin {
        FindingOrigin::Setup => Json::Obj(vec![("kind".into(), Json::str("setup"))]),
        FindingOrigin::Event { seq, time } => Json::Obj(vec![
            ("kind".into(), Json::str("event")),
            ("seq".into(), Json::uint(seq)),
            ("time".into(), Json::uint(time.as_secs())),
        ]),
        FindingOrigin::EndOfStream { last_seq } => Json::Obj(vec![
            ("kind".into(), Json::str("end-of-stream")),
            ("last_seq".into(), last_seq.map_or(Json::Null, Json::uint)),
        ]),
    };
    Json::Obj(vec![
        ("origin".into(), origin),
        ("axiom".into(), Json::str(f.violation.axiom.label())),
        ("severity".into(), Json::float(f.violation.severity)),
        ("description".into(), Json::str(&*f.violation.description)),
    ])
}

// ---- decode ---------------------------------------------------------

/// Decode a checkpoint: gate 1 (parse, with byte positions) and gate 2
/// (schema name + version), then field-by-field decoding with every
/// missing or mistyped field named, plus the header-vs-body seq
/// cross-check. Gate 3 ([`Checkpoint::ensure_valid`]) runs in
/// [`load`], the path untrusted files come through.
pub fn decode(text: &str) -> Result<Checkpoint, FaircrowdError> {
    let json = Json::parse(text).map_err(FaircrowdError::persist)?;
    let schema = json.get("schema").and_then(Json::as_str).ok_or_else(|| {
        FaircrowdError::persist("missing `schema` field — not a faircrowd checkpoint file")
    })?;
    if schema != SCHEMA_NAME {
        return Err(FaircrowdError::persist(format!(
            "schema is `{schema}`, expected `{SCHEMA_NAME}`"
        )));
    }
    let version = u64_field(&json, "version", "checkpoint")?;
    if version != SCHEMA_VERSION {
        return Err(FaircrowdError::persist(format!(
            "unsupported checkpoint version {version} (this build reads version {SCHEMA_VERSION})"
        )));
    }
    let seq = u64_field(&json, "seq", "checkpoint")?;
    let events_seen = u64_field(&json, "events_seen", "checkpoint")?;
    if seq != events_seen {
        return Err(FaircrowdError::persist(format!(
            "header seq {seq} disagrees with the mirror's events_seen {events_seen} — \
             the checkpoint was stitched from two different moments"
        )));
    }
    let world = trace_io::trace_from_json(require(&json, "world", "checkpoint")?)?;
    let mirror = mirror_from_json(require(&json, "mirror", "checkpoint")?)?;
    let findings = arr_field(&json, "findings", "checkpoint")?
        .iter()
        .enumerate()
        .map(|(i, f)| finding_from_json(f, i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Checkpoint {
        world,
        mirror,
        events_seen,
        source_lines: u64_field(&json, "source_lines", "checkpoint")?,
        last_time: SimTime::from_secs(u64_field(&json, "last_time", "checkpoint")?),
        policy_scanned: bool_field(&json, "policy_scanned", "checkpoint")?,
        finalized: bool_field(&json, "finalized", "checkpoint")?,
        max_findings: u64_field(&json, "max_findings", "checkpoint")? as usize,
        suppressed: u64_field(&json, "suppressed", "checkpoint")?,
        qual_tasks: rows_from_json(&json, "qual_tasks", TaskId::new)?,
        qual_workers: rows_from_json(&json, "qual_workers", WorkerId::new)?,
        similar_partners: caches_from_json(&json, "similar_partners")?,
        comparable_partners: caches_from_json(&json, "comparable_partners")?,
        a1_pairs: pairs_from_json(&json, "a1_pairs")?,
        a2_pairs: pairs_from_json(&json, "a2_pairs")?,
        a1_emitted: emitted_from_json(&json, "a1_emitted")?,
        a2_emitted: emitted_from_json(&json, "a2_emitted")?,
        a3_emitted: arr_field(&json, "a3_emitted", "checkpoint")?
            .iter()
            .map(|p| {
                let (a, b) = u32_pair(p, "a3_emitted")?;
                Ok((SubmissionId::new(a), SubmissionId::new(b)))
            })
            .collect::<Result<Vec<_>, FaircrowdError>>()?,
        a4_emitted: id_list(&json, "a4_emitted", WorkerId::new)?,
        a6_emitted: id_list(&json, "a6_emitted", TaskId::new)?,
        findings,
    })
}

fn mirror_from_json(json: &Json) -> Result<EventIndex, FaircrowdError> {
    let mut mirror = EventIndex::default();
    for row in arr_field(json, "visibility", "mirror")? {
        let worker = WorkerId::new(u32_field(row, "worker", "mirror visibility")?);
        let tasks = arr_field(row, "tasks", "mirror visibility")?
            .iter()
            .map(|t| Ok(TaskId::new(u32_value(t, "mirror visibility task")?)))
            .collect::<Result<BTreeSet<_>, FaircrowdError>>()?;
        mirror.visibility.insert(worker, tasks);
    }
    for row in arr_field(json, "audience", "mirror")? {
        let task = TaskId::new(u32_field(row, "task", "mirror audience")?);
        let workers = arr_field(row, "workers", "mirror audience")?
            .iter()
            .map(|w| Ok(WorkerId::new(u32_value(w, "mirror audience worker")?)))
            .collect::<Result<BTreeSet<_>, FaircrowdError>>()?;
        mirror.audience.insert(task, workers);
    }
    for row in arr_field(json, "payments", "mirror")? {
        mirror.payments.insert(
            SubmissionId::new(u32_field(row, "submission", "mirror payments")?),
            Credits::from_millicents(i64_field(row, "amount", "mirror payments")?),
        );
    }
    for row in arr_field(json, "earnings", "mirror")? {
        mirror.earnings.insert(
            WorkerId::new(u32_field(row, "worker", "mirror earnings")?),
            Credits::from_millicents(i64_field(row, "amount", "mirror earnings")?),
        );
    }
    for (key, set) in [
        ("flagged", &mut mirror.flagged),
        ("session_workers", &mut mirror.session_workers),
        ("informed_workers", &mut mirror.informed_workers),
    ] {
        for w in arr_field(json, key, "mirror")? {
            set.insert(WorkerId::new(u32_value(w, format!("mirror {key}"))?));
        }
    }
    mirror.work_started = u64_field(json, "work_started", "mirror")? as usize;
    for row in arr_field(json, "interruptions", "mirror")? {
        mirror.interruptions.push(Interruption {
            task: TaskId::new(u32_field(row, "task", "mirror interruption")?),
            worker: WorkerId::new(u32_field(row, "worker", "mirror interruption")?),
            invested: SimDuration::from_secs(u64_field(row, "invested", "mirror interruption")?),
            compensated: bool_field(row, "compensated", "mirror interruption")?,
        });
    }
    for row in arr_field(json, "quits", "mirror")? {
        let reason = match str_field(row, "reason", "mirror quit")? {
            "frustration" => QuitReason::Frustration,
            "natural_churn" => QuitReason::NaturalChurn,
            other => {
                return Err(FaircrowdError::persist(format!(
                    "mirror quit: unknown reason `{other}`"
                )))
            }
        };
        mirror.quits.push((
            WorkerId::new(u32_field(row, "worker", "mirror quit")?),
            reason,
            SimTime::from_secs(u64_field(row, "time", "mirror quit")?),
        ));
    }
    Ok(mirror)
}

fn finding_from_json(json: &Json, index: usize) -> Result<LiveFinding, FaircrowdError> {
    let ctx = format!("finding {index}");
    let origin_json = require(json, "origin", &ctx)?;
    let origin = match str_field(origin_json, "kind", &ctx)? {
        "setup" => FindingOrigin::Setup,
        "event" => FindingOrigin::Event {
            seq: u64_field(origin_json, "seq", &ctx)?,
            time: SimTime::from_secs(u64_field(origin_json, "time", &ctx)?),
        },
        "end-of-stream" => FindingOrigin::EndOfStream {
            last_seq: match require(origin_json, "last_seq", &ctx)? {
                Json::Null => None,
                v => Some(v.as_u64().ok_or_else(|| {
                    FaircrowdError::persist(format!(
                        "{ctx}: `last_seq` should be an unsigned integer or null"
                    ))
                })?),
            },
        },
        other => {
            return Err(FaircrowdError::persist(format!(
                "{ctx}: unknown origin kind `{other}`"
            )))
        }
    };
    let label = str_field(json, "axiom", &ctx)?;
    let axiom = AxiomId::ALL
        .into_iter()
        .find(|a| a.label() == label)
        .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: unknown axiom label `{label}`")))?;
    let severity = require(json, "severity", &ctx)?
        .as_f64()
        .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: `severity` should be a number")))?;
    Ok(LiveFinding {
        origin,
        violation: Violation {
            axiom,
            severity,
            description: str_field(json, "description", &ctx)?.to_owned(),
        },
    })
}

fn rows_from_json<T>(
    json: &Json,
    key: &str,
    make: impl Fn(u32) -> T,
) -> Result<Vec<(usize, Vec<T>)>, FaircrowdError> {
    arr_field(json, key, "checkpoint")?
        .iter()
        .map(|row| {
            let seen = u64_field(row, "seen", key)? as usize;
            let ids = arr_field(row, "ids", key)?
                .iter()
                .map(|id| Ok(make(u32_value(id, key)?)))
                .collect::<Result<Vec<_>, FaircrowdError>>()?;
            Ok((seen, ids))
        })
        .collect()
}

fn caches_from_json(json: &Json, key: &str) -> Result<Vec<(usize, Vec<usize>)>, FaircrowdError> {
    arr_field(json, key, "checkpoint")?
        .iter()
        .map(|row| {
            let seen = u64_field(row, "seen", key)? as usize;
            let partners = arr_field(row, "partners", key)?
                .iter()
                .map(|p| {
                    p.as_u64().map(|v| v as usize).ok_or_else(|| {
                        FaircrowdError::persist(format!(
                            "{key}: partner position should be an unsigned integer"
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((seen, partners))
        })
        .collect()
}

fn pairs_from_json(json: &Json, key: &str) -> Result<Vec<[u64; 5]>, FaircrowdError> {
    arr_field(json, key, "checkpoint")?
        .iter()
        .map(|row| {
            let arr = row.as_arr().ok_or_else(|| {
                FaircrowdError::persist(format!("{key}: pair entry is not an array"))
            })?;
            let values = arr
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        FaircrowdError::persist(format!("{key}: pair entry holds a non-integer"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            <[u64; 5]>::try_from(values).map_err(|v| {
                FaircrowdError::persist(format!(
                    "{key}: pair entry has {} element(s), expected 5",
                    v.len()
                ))
            })
        })
        .collect()
}

fn emitted_from_json(json: &Json, key: &str) -> Result<Vec<(u64, u64)>, FaircrowdError> {
    arr_field(json, key, "checkpoint")?
        .iter()
        .map(|p| {
            let (a, b) = u64_pair(p, key)?;
            Ok((a, b))
        })
        .collect()
}

fn id_list<T>(json: &Json, key: &str, make: impl Fn(u32) -> T) -> Result<Vec<T>, FaircrowdError> {
    arr_field(json, key, "checkpoint")?
        .iter()
        .map(|id| Ok(make(u32_value(id, key)?)))
        .collect()
}

// ---- save / load ----------------------------------------------------

/// Write a checkpoint to `path`. I/O failures carry the path.
pub fn save(ckpt: &Checkpoint, path: impl AsRef<Path>) -> Result<(), FaircrowdError> {
    let path = path.as_ref();
    std::fs::write(path, encode(ckpt)).map_err(|e| FaircrowdError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Load and **validate** a checkpoint from `path`: read, decode under
/// the schema gates, then run [`Checkpoint::ensure_valid`]. Every
/// failure mode — truncated file, foreign schema, future version, a
/// header seq disagreeing with its mirror, dangling positions — is a
/// descriptive [`FaircrowdError`] carrying the path, never a panic.
pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, FaircrowdError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| FaircrowdError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let ckpt = decode(&text).map_err(|e| e.at_path(path.display()))?;
    ckpt.ensure_valid().map_err(|e| e.at_path(path.display()))?;
    Ok(ckpt)
}

/// Checkpoint an auditor straight to disk —
/// [`LiveAuditor::checkpoint`] + [`save`] in one call, the form the
/// daemon's cadence loop uses.
pub fn save_auditor(
    auditor: &LiveAuditor,
    source_lines: u64,
    path: impl AsRef<Path>,
) -> Result<(), FaircrowdError> {
    save(&auditor.checkpoint(source_lines), path)
}
