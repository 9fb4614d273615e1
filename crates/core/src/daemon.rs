//! The multi-market audit daemon: many [`LiveAuditor`]s — one per
//! market id — multiplexed behind one service, sharded across a scoped
//! thread pool, with checkpointed, resumable state.
//!
//! A production crowdsourcing platform is not one market: it runs
//! thousands of concurrent task markets, each appending its own JSONL
//! event stream. [`AuditDaemon`] is the platform-resident form of the
//! paper's transparency machinery for that shape (`faircrowd serve`):
//!
//! - **Multiplexing** — every market gets its own [`LiveAuditor`] and
//!   [`JsonlReader`]. Markets are discovered as `<market>.jsonl` files
//!   in a directory ([`MarketSource::discover`]) and tailed by the
//!   daemon itself, or fed line-by-line through
//!   [`AuditDaemon::feed_line`] — the consumption route for a single
//!   multiplexed stream whose records carry a market tag: route each
//!   line by its tag and the daemon does the rest.
//! - **Sharding** — each market is pinned to a shard by an FNV-1a hash
//!   of its name (stable across runs and processes, unlike the
//!   process-seeded `RandomState`), and each [`AuditDaemon::poll`]
//!   round runs the shards on a scoped thread pool
//!   (`--jobs`). Per-market work is sequential, so per-market results
//!   are bit-identical whatever the shard count or thread timing.
//! - **One ordered finding stream** — every round's findings are
//!   merged into a single deterministic order (market name, then
//!   per-market emission order) and tagged as
//!   [`DaemonFinding`]`{market, finding}`; each market's subsequence
//!   is exactly what a dedicated single-stream `watch` would emit.
//! - **Checkpoints** — with a checkpoint directory configured, each
//!   market's auditor state is snapshotted through
//!   [`crate::checkpoint`] every `checkpoint_every` events. A
//!   restarted daemon ([`AuditDaemon::open`] over the same directory)
//!   resumes every stream from its last checkpoint seq *without
//!   replaying the log*: the file is skipped to the checkpointed line,
//!   the auditor continues from its restored mirrors, and finishing
//!   the stream is bit-identical — findings, final report, wages — to
//!   never having stopped. A checkpoint that fails any load gate
//!   (truncated, foreign schema, future version, header seq
//!   disagreeing with its mirror) is reported as a notice and the
//!   market falls back to replaying its trace from the start.
//!
//! Failure isolation is per market: a stream that breaks mid-line (or
//! a trace that violates arrival order) marks **that market** failed
//! with a line-tagged error and the daemon keeps serving the rest.

use crate::audit::{AuditConfig, FairnessReport};
use crate::axiom::AxiomId;
use crate::checkpoint;
use crate::live::{LiveAuditor, LiveFinding};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::trace_io::JsonlReader;
use faircrowd_pay::wage::WageStats;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};

/// How an [`AuditDaemon`] is configured.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The audit configuration every market's auditor runs under.
    pub audit: AuditConfig,
    /// Shard (thread) count for each poll round. Clamped to at least 1.
    pub jobs: usize,
    /// Where checkpoints are written and resumed from
    /// (`<dir>/<market>.checkpoint.json`). `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint a market after this many newly ingested events
    /// (cadence, not an exact stride: snapshots are taken between poll
    /// rounds). Must be at least 1 to matter.
    pub checkpoint_every: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            audit: AuditConfig::default(),
            jobs: 1,
            checkpoint_dir: None,
            checkpoint_every: 512,
        }
    }
}

/// One discovered market stream: a name and the trace file backing it —
/// a growing `.jsonl` stream, or a finished `.fcb` recording ingested
/// in one shot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MarketSource {
    /// Market id — the file stem of `<market>.jsonl` / `<market>.fcb`.
    pub market: String,
    /// The backing trace file.
    pub path: PathBuf,
}

impl MarketSource {
    /// Discover every `<market>.jsonl` and `<market>.fcb` in a
    /// directory, sorted by market name. Other entries are ignored; an
    /// unreadable directory is an [`FaircrowdError::Io`] carrying the
    /// path; a market stem present in **both** formats is a
    /// [`FaircrowdError::Persist`] naming the stem (two files claiming
    /// one market is an operator mistake — silently picking either
    /// would audit half the story).
    pub fn discover(dir: impl AsRef<Path>) -> Result<Vec<MarketSource>, FaircrowdError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| FaircrowdError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let mut sources = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| FaircrowdError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            let path = entry.path();
            if !matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("jsonl") | Some("fcb")
            ) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            sources.push(MarketSource {
                market: stem.to_owned(),
                path,
            });
        }
        sources.sort();
        for pair in sources.windows(2) {
            if pair[0].market == pair[1].market {
                return Err(FaircrowdError::persist(format!(
                    "market `{}` has both `{}` and `{}` in `{}`; keep exactly one trace \
                     file per market",
                    pair[0].market,
                    pair[0]
                        .path
                        .file_name()
                        .unwrap_or_default()
                        .to_string_lossy(),
                    pair[1]
                        .path
                        .file_name()
                        .unwrap_or_default()
                        .to_string_lossy(),
                    dir.display(),
                )));
            }
        }
        Ok(sources)
    }
}

/// One finding in the daemon's merged output stream, tagged with the
/// market it came from (the finding itself carries the seq).
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonFinding {
    /// The originating market.
    pub market: String,
    /// The finding, exactly as the market's own auditor emitted it.
    pub finding: LiveFinding,
}

impl std::fmt::Display for DaemonFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.market, self.finding)
    }
}

/// One market's closing audit artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonReport {
    /// The market.
    pub market: String,
    /// The closing fairness report — bit-identical to a batch audit of
    /// the same stream.
    pub report: FairnessReport,
    /// Effective hourly-wage statistics off the same index.
    pub wages: Option<WageStats>,
    /// Workers declared over the stream's lifetime.
    pub workers: usize,
    /// Tasks declared over the stream's lifetime.
    pub tasks: usize,
    /// Events ingested over the stream's lifetime (across restarts).
    pub events: usize,
    /// The checkpoint seq this market resumed from, if it did.
    pub resumed_from: Option<u64>,
}

/// A file tail: the open handle plus the raw bytes of a trailing
/// partial line. Bytes are carried raw (not as `&str`) so a poll that
/// catches a half-written multi-byte character waits for the rest
/// instead of aborting — the same discipline as `faircrowd watch`.
#[derive(Debug)]
struct MarketTail {
    file: std::fs::File,
    path: PathBuf,
    carry: Vec<u8>,
}

#[derive(Debug)]
struct Market {
    name: String,
    shard: usize,
    tail: Option<MarketTail>,
    /// Lines queued by [`AuditDaemon::feed_line`], drained each round.
    pending: Vec<String>,
    auditor: LiveAuditor,
    reader: JsonlReader,
    header_applied: bool,
    /// Physical lines still to skip before feeding — the consumed
    /// prefix of a resumed stream.
    skip_lines: u64,
    resumed_from: Option<u64>,
    /// The findings restored from the checkpoint, frozen at resume time
    /// (the auditor's own list keeps growing past them).
    restored: Vec<LiveFinding>,
    /// `events_seen` at the last checkpoint write.
    last_checkpoint: u64,
    failed: Option<String>,
}

struct RoundResult {
    market: String,
    findings: Vec<LiveFinding>,
    error: Option<String>,
    notices: Vec<String>,
}

/// The long-running multi-market audit service. See the
/// [module docs](self) for the full contract.
#[derive(Debug)]
pub struct AuditDaemon {
    config: DaemonConfig,
    markets: BTreeMap<String, Market>,
    notices: Vec<String>,
}

impl AuditDaemon {
    /// A daemon with no markets yet. `jobs` is clamped to at least 1.
    pub fn new(mut config: DaemonConfig) -> Self {
        config.jobs = config.jobs.max(1);
        AuditDaemon {
            config,
            markets: BTreeMap::new(),
            notices: Vec::new(),
        }
    }

    /// Open a daemon over a set of discovered sources — the
    /// `faircrowd serve <dir>` entry point. Each market resumes from
    /// its checkpoint when one loads cleanly, and otherwise replays its
    /// trace from the start (the fallback is a notice, never an error).
    pub fn open(config: DaemonConfig, sources: Vec<MarketSource>) -> Self {
        let mut daemon = AuditDaemon::new(config);
        for source in sources {
            daemon.add_source(source);
        }
        daemon
    }

    /// Register a file-backed market. A `.jsonl` file need not have
    /// content yet; it is tailed from the next [`AuditDaemon::poll`]. A
    /// `.fcb` file is a finished recording: it is decoded now and its
    /// records queued for the next poll in one shot (through the same
    /// line pipeline as a stream, so checkpoints and resume stay
    /// line-addressed and a restart skips the consumed prefix).
    pub fn add_source(&mut self, source: MarketSource) {
        if source.path.extension().and_then(|e| e.to_str()) == Some("fcb") {
            return self.add_recording(source);
        }
        let mut market = self.make_market(source.market.clone());
        market.tail = Some(MarketTail {
            file: std::fs::File::open(&source.path).unwrap_or_else(|_| {
                // Defer open errors to the poll loop, which reports
                // them per market; an empty placeholder keeps
                // construction infallible.
                std::fs::File::open("/dev/null").expect("null device")
            }),
            path: source.path.clone(),
            carry: Vec::new(),
        });
        // Re-open properly, reporting a missing file as a market
        // failure rather than silently tailing the null device.
        match std::fs::File::open(&source.path) {
            Ok(file) => {
                if let Some(tail) = &mut market.tail {
                    tail.file = file;
                }
            }
            Err(e) => {
                market.failed = Some(format!("cannot open `{}`: {e}", source.path.display()));
            }
        }
        if let Some(err) = &market.failed {
            self.notices
                .push(format!("market `{}` failed: {err}", market.name));
        }
        self.markets.insert(source.market, market);
    }

    /// Register a market backed by a finished `.fcb` recording: decode
    /// the whole file through the binary load gates and queue its
    /// records as JSONL lines for the next poll. Decode failures fail
    /// the market (named, positioned), never the daemon.
    fn add_recording(&mut self, source: MarketSource) {
        let mut market = self.make_market(source.market.clone());
        match std::fs::read(&source.path) {
            Ok(bytes) => match crate::persist::decode_bytes(&bytes) {
                Ok(trace) => {
                    market.pending.extend(
                        crate::persist::encode(&trace, crate::persist::TraceFormat::Jsonl)
                            .lines()
                            .map(str::to_owned),
                    );
                }
                Err(e) => market.failed = Some(format!("`{}`: {e}", source.path.display())),
            },
            Err(e) => {
                market.failed = Some(format!("cannot read `{}`: {e}", source.path.display()));
            }
        }
        if let Some(err) = &market.failed {
            self.notices
                .push(format!("market `{}` failed: {err}", market.name));
        }
        self.markets.insert(source.market, market);
    }

    /// Register (or get) a fed-lines market and queue one line for it —
    /// the consumption route for a multiplexed stream: route each line
    /// by its market tag. Lines are processed at the next
    /// [`AuditDaemon::poll`].
    pub fn feed_line(&mut self, market: &str, line: impl Into<String>) {
        if !self.markets.contains_key(market) {
            let created = self.make_market(market.to_owned());
            self.markets.insert(market.to_owned(), created);
        }
        self.markets
            .get_mut(market)
            .expect("just inserted")
            .pending
            .push(line.into());
    }

    /// Build a market, resuming from its checkpoint when one exists and
    /// loads cleanly.
    fn make_market(&mut self, name: String) -> Market {
        let shard = shard_of(&name);
        let fresh = |cfg: &AuditConfig| Market {
            name: name.clone(),
            shard,
            tail: None,
            pending: Vec::new(),
            auditor: LiveAuditor::new(cfg.clone()),
            reader: JsonlReader::new(),
            header_applied: false,
            skip_lines: 0,
            resumed_from: None,
            restored: Vec::new(),
            last_checkpoint: 0,
            failed: None,
        };
        let Some(dir) = &self.config.checkpoint_dir else {
            return fresh(&self.config.audit);
        };
        let path = checkpoint_path(dir, &name);
        if !path.exists() {
            return fresh(&self.config.audit);
        }
        let restored = checkpoint::load(&path)
            .and_then(|ckpt| Ok((LiveAuditor::resume(self.config.audit.clone(), &ckpt)?, ckpt)));
        match restored {
            Ok((auditor, ckpt)) => {
                self.notices.push(format!(
                    "resumed market `{name}` from checkpoint seq {} (skipping {} line(s))",
                    ckpt.seq(),
                    ckpt.source_lines()
                ));
                Market {
                    name: name.clone(),
                    shard,
                    tail: None,
                    pending: Vec::new(),
                    reader: JsonlReader::resume(ckpt.jsonl_header(), ckpt.source_lines() as usize),
                    header_applied: true,
                    skip_lines: ckpt.source_lines(),
                    resumed_from: Some(ckpt.seq()),
                    restored: auditor.findings().to_vec(),
                    last_checkpoint: ckpt.seq(),
                    failed: None,
                    auditor,
                }
            }
            Err(e) => {
                self.notices.push(format!(
                    "checkpoint for market `{name}` is unusable ({e}); replaying from the trace"
                ));
                fresh(&self.config.audit)
            }
        }
    }

    /// Number of registered markets.
    pub fn market_count(&self) -> usize {
        self.markets.len()
    }

    /// Markets that failed, with their errors.
    pub fn failed_markets(&self) -> Vec<(&str, &str)> {
        self.markets
            .values()
            .filter_map(|m| m.failed.as_deref().map(|e| (m.name.as_str(), e)))
            .collect()
    }

    /// Total physical lines consumed across all markets — the poll
    /// loop's progress measure (unchanged after a poll means the
    /// streams are idle).
    pub fn total_lines(&self) -> u64 {
        self.markets
            .values()
            .map(|m| m.reader.lines_fed() as u64)
            .sum()
    }

    /// Total events ingested across all markets, over each stream's
    /// whole lifetime (restored prefixes included).
    pub fn total_events(&self) -> u64 {
        self.markets
            .values()
            .map(|m| m.auditor.events_seen() as u64)
            .sum()
    }

    /// The findings a restarted daemon restored from checkpoints, in
    /// the same merged order [`AuditDaemon::poll`] uses — printed
    /// before fresh findings, a restarted `serve`'s output is the
    /// complete finding history of every stream.
    pub fn restored_findings(&self) -> Vec<DaemonFinding> {
        let mut out = Vec::new();
        for m in self.markets.values() {
            out.extend(m.restored.iter().map(|f| DaemonFinding {
                market: m.name.clone(),
                finding: f.clone(),
            }));
        }
        out
    }

    /// Operational notices (checkpoint resumes and fallbacks, write
    /// failures, per-market failures) accumulated since the last drain.
    pub fn take_notices(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notices)
    }

    /// One poll round: every live market reads whatever its file grew
    /// by (plus any fed lines), decodes and ingests it, and checkpoints
    /// when its cadence is due — shards running concurrently on a
    /// scoped thread pool. Returns the round's findings in the merged
    /// deterministic order (market name, then per-market emission
    /// order). Per-market errors fail that market only.
    pub fn poll(&mut self) -> Vec<DaemonFinding> {
        self.run_shards(run_market)
    }

    /// Close every stream: feed any trailing partial line, finalize
    /// each auditor (end-of-stream findings), and write a final
    /// checkpoint per market so even a post-finalize restart restores
    /// the complete state. Returns the closing findings in the same
    /// merged order as [`AuditDaemon::poll`].
    pub fn finalize(&mut self) -> Vec<DaemonFinding> {
        self.run_shards(finalize_market)
    }

    /// Run `step` over every live market, shards concurrently on a
    /// scoped thread pool, and merge the results in the deterministic
    /// output order.
    fn run_shards(
        &mut self,
        step: fn(&mut Market, &DaemonConfig) -> RoundResult,
    ) -> Vec<DaemonFinding> {
        let jobs = self.config.jobs;
        let config = &self.config;
        let mut shards: Vec<Vec<&mut Market>> = (0..jobs).map(|_| Vec::new()).collect();
        for m in self.markets.values_mut() {
            if m.failed.is_none() {
                shards[m.shard % jobs].push(m);
            }
        }
        let results: Vec<RoundResult> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .filter(|shard| !shard.is_empty())
                .map(|shard| {
                    s.spawn(move || {
                        shard
                            .into_iter()
                            .map(|m| step(m, config))
                            .collect::<Vec<RoundResult>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        self.merge(results)
    }

    /// Per-market closing artifacts, sorted by market name. Failed
    /// markets are skipped (their errors stay on
    /// [`AuditDaemon::failed_markets`]). A market that watched its
    /// whole stream is also referentially validated, exactly like
    /// `faircrowd watch`; a resumed market skips that gate — its prefix
    /// was validated before the checkpoint was taken, and the tail was
    /// validated event by event.
    pub fn reports(&self) -> Result<Vec<DaemonReport>, FaircrowdError> {
        let mut out = Vec::new();
        for m in self.markets.values() {
            if m.failed.is_some() {
                continue;
            }
            if m.resumed_from.is_none() {
                m.auditor.trace().ensure_valid().map_err(|e| match e {
                    FaircrowdError::InvalidTrace { problems } => FaircrowdError::InvalidTrace {
                        problems: problems
                            .into_iter()
                            .map(|p| format!("market `{}`: {p}", m.name))
                            .collect(),
                    },
                    other => other,
                })?;
            }
            let (report, wages) = m.auditor.final_artifacts(&AxiomId::ALL);
            out.push(DaemonReport {
                market: m.name.clone(),
                report,
                wages,
                workers: m.auditor.trace().workers.len(),
                tasks: m.auditor.trace().tasks.len(),
                events: m.auditor.events_seen(),
                resumed_from: m.resumed_from,
            });
        }
        Ok(out)
    }

    /// Merge one round's per-market results into the deterministic
    /// output order and fold notices/errors into daemon state.
    fn merge(&mut self, mut results: Vec<RoundResult>) -> Vec<DaemonFinding> {
        results.sort_by(|a, b| a.market.cmp(&b.market));
        let mut out = Vec::new();
        for r in results {
            self.notices.extend(r.notices);
            if let Some(err) = r.error {
                self.notices
                    .push(format!("market `{}` failed: {err}", r.market));
                if let Some(m) = self.markets.get_mut(&r.market) {
                    m.failed = Some(err);
                }
            }
            out.extend(r.findings.into_iter().map(|finding| DaemonFinding {
                market: r.market.clone(),
                finding,
            }));
        }
        out
    }
}

/// Stable market → shard pinning: FNV-1a over the market name. The
/// standard library's hasher is seeded per process, which would move
/// markets between shards across restarts; this hash never does.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize
}

fn checkpoint_path(dir: &Path, market: &str) -> PathBuf {
    dir.join(format!("{market}.checkpoint.json"))
}

/// One market's share of a poll round, run inside its shard thread:
/// tail the file, feed every complete line, checkpoint if due.
fn run_market(m: &mut Market, config: &DaemonConfig) -> RoundResult {
    let mut findings = Vec::new();
    let mut notices = Vec::new();
    let mut error = None;

    let mut lines: Vec<String> = std::mem::take(&mut m.pending);
    if let Some(tail) = &mut m.tail {
        match read_new_lines(tail) {
            Ok(fresh) => lines.extend(fresh),
            Err(e) => error = Some(e),
        }
    }

    if error.is_none() {
        for line in lines {
            match feed_one(m, &line) {
                Ok(mut out) => findings.append(&mut out),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
    }

    if error.is_none() {
        maybe_checkpoint(m, config, &mut notices);
    }

    RoundResult {
        market: m.name.clone(),
        findings,
        error,
        notices,
    }
}

/// One market's share of finalization: flush a trailing partial line,
/// finalize the auditor, write the final checkpoint.
fn finalize_market(m: &mut Market, config: &DaemonConfig) -> RoundResult {
    let mut findings = Vec::new();
    let mut notices = Vec::new();
    let mut error = None;

    // A last line without a trailing newline is still a record.
    let carry = m.tail.as_mut().map(|t| std::mem::take(&mut t.carry));
    if let Some(carry) = carry {
        if carry.iter().any(|b| !b.is_ascii_whitespace()) {
            match String::from_utf8(carry) {
                Ok(line) => match feed_one(m, &line) {
                    Ok(mut out) => findings.append(&mut out),
                    Err(e) => error = Some(e),
                },
                Err(_) => {
                    error = Some(format!(
                        "line {}: not valid UTF-8",
                        m.reader.lines_fed() + 1
                    ));
                }
            }
        }
    }

    if error.is_none() {
        // Snapshot BEFORE finalizing: end-of-stream is this run's
        // local judgment, not a property of the log. A restart
        // re-derives the closing findings from the restored state — or
        // keeps ingesting, if the market grew in the meantime.
        if let Some(dir) = &config.checkpoint_dir {
            let path = checkpoint_path(dir, &m.name);
            if let Err(e) = checkpoint::save_auditor(&m.auditor, m.reader.lines_fed() as u64, &path)
            {
                notices.push(format!(
                    "market `{}`: final checkpoint write failed: {e}",
                    m.name
                ));
            } else {
                m.last_checkpoint = m.auditor.events_seen() as u64;
            }
        }
        findings.extend(m.auditor.finalize());
    }

    RoundResult {
        market: m.name.clone(),
        findings,
        error,
        notices,
    }
}

/// Feed one line: skip it if it belongs to a resumed prefix, apply the
/// header once decoded, route records into the auditor. Errors carry
/// the absolute line number.
fn feed_one(m: &mut Market, line: &str) -> Result<Vec<LiveFinding>, String> {
    if m.skip_lines > 0 {
        m.skip_lines -= 1;
        return Ok(Vec::new());
    }
    let record = m.reader.feed_line(line).map_err(|e| e.to_string())?;
    if !m.header_applied {
        if let Some(header) = m.reader.header() {
            m.auditor.apply_header(header);
            m.header_applied = true;
        }
    }
    let Some(record) = record else {
        return Ok(Vec::new());
    };
    m.auditor.apply_record(record).map_err(|e| {
        // Ingest-order defects don't know the file position; tag them
        // with the line the reader just consumed, like `watch` does.
        let lineno = m.reader.lines_fed();
        match e {
            FaircrowdError::InvalidTrace { problems } => problems
                .into_iter()
                .map(|p| format!("line {lineno}: {p}"))
                .collect::<Vec<_>>()
                .join("; "),
            other => format!("line {lineno}: {other}"),
        }
    })
}

/// Snapshot the market if its checkpoint cadence is due.
fn maybe_checkpoint(m: &mut Market, config: &DaemonConfig, notices: &mut Vec<String>) {
    let Some(dir) = &config.checkpoint_dir else {
        return;
    };
    let seen = m.auditor.events_seen() as u64;
    if seen < m.last_checkpoint + config.checkpoint_every.max(1) {
        return;
    }
    let path = checkpoint_path(dir, &m.name);
    match checkpoint::save_auditor(&m.auditor, m.reader.lines_fed() as u64, &path) {
        Ok(()) => m.last_checkpoint = seen,
        Err(e) => notices.push(format!("market `{}`: checkpoint write failed: {e}", m.name)),
    }
}

/// Read whatever the file grew by since the last poll and split it
/// into complete lines, carrying a trailing partial line (raw bytes)
/// to the next round.
fn read_new_lines(tail: &mut MarketTail) -> Result<Vec<String>, String> {
    let mut buf = Vec::new();
    tail.file
        .read_to_end(&mut buf)
        .map_err(|e| format!("cannot read `{}`: {e}", tail.path.display()))?;
    if buf.is_empty() {
        return Ok(Vec::new());
    }
    tail.carry.extend_from_slice(&buf);
    let mut lines = Vec::new();
    let mut start = 0;
    while let Some(nl) = tail.carry[start..].iter().position(|&b| b == b'\n') {
        let end = start + nl;
        let line = String::from_utf8(tail.carry[start..end].to_vec())
            .map_err(|_| format!("`{}`: line is not valid UTF-8", tail.path.display()))?;
        lines.push(line);
        start = end + 1;
    }
    tail.carry.drain(..start);
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;
    use crate::persist;
    use faircrowd_model::contribution::Contribution;
    use faircrowd_model::trace::Trace;

    /// A small trace with A1 + A3 violations.
    fn violating_trace() -> Trace {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10), task(1, 1, &[0, 0], 10)]);
        show(&mut trace, 1, 0, 0);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let _s1 = submit(&mut trace, 110, 0, 1, Contribution::Label(1));
        pay(&mut trace, 200, s0, 0, 10);
        trace
    }

    /// The reference: one uninterrupted single-stream audit.
    fn reference(trace: &Trace) -> (Vec<LiveFinding>, crate::FairnessReport) {
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        let mut findings = auditor.ingest_trace(trace).unwrap();
        findings.extend(auditor.finalize());
        (findings, auditor.final_report())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fc_daemon_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn two_markets_match_their_single_stream_references() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let mut daemon = AuditDaemon::new(DaemonConfig {
            jobs: 4,
            ..DaemonConfig::default()
        });
        for market in ["alpha", "beta"] {
            for line in jsonl.lines() {
                daemon.feed_line(market, line);
            }
        }
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let (want_findings, want_report) = reference(&trace);
        for market in ["alpha", "beta"] {
            let got: Vec<&LiveFinding> = merged
                .iter()
                .filter(|f| f.market == market)
                .map(|f| &f.finding)
                .collect();
            assert_eq!(got.len(), want_findings.len(), "{market}");
            for (g, w) in got.iter().zip(&want_findings) {
                assert_eq!(*g, w, "{market}");
            }
        }
        let reports = daemon.reports().unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.report, want_report, "{}", r.market);
            assert_eq!(r.resumed_from, None);
        }
    }

    #[test]
    fn merged_order_is_market_sorted_and_emission_ordered() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let mut daemon = AuditDaemon::new(DaemonConfig {
            jobs: 3,
            ..DaemonConfig::default()
        });
        // Interleave the feeds; the merge must not care.
        for line in jsonl.lines() {
            for market in ["zeta", "alpha", "mid"] {
                daemon.feed_line(market, line);
            }
        }
        let polled = daemon.poll();
        let closed = daemon.finalize();
        for round in [&polled, &closed] {
            let order: Vec<&str> = round.iter().map(|f| f.market.as_str()).collect();
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(order, sorted, "each round groups markets in sorted order");
        }
        let merged: Vec<DaemonFinding> = polled.into_iter().chain(closed).collect();
        // Within a market, the subsequence equals the reference stream.
        let (want, _) = reference(&trace);
        let alpha: Vec<&LiveFinding> = merged
            .iter()
            .filter(|f| f.market == "alpha")
            .map(|f| &f.finding)
            .collect();
        assert_eq!(alpha.len(), want.len());
    }

    #[test]
    fn checkpoint_restart_resumes_without_replaying() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let dir = temp_dir("resume");
        let config = DaemonConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..DaemonConfig::default()
        };
        // First life: all but the last two events, then the process
        // "dies". (The cut must land after at least one event line —
        // checkpoints are due by ingested-event cadence, not by line.)
        let mut first = AuditDaemon::new(config.clone());
        let cut = lines.len() - 2;
        for line in &lines[..cut] {
            first.feed_line("m", *line);
        }
        let before_kill = first.poll();
        assert!(first.take_notices().iter().all(|n| !n.contains("failed")),);
        drop(first);
        // Second life: resume, replay the WHOLE stream (a tailer
        // re-reads the file from the start); the consumed prefix is
        // skipped by line count, the rest ingested.
        let mut second = AuditDaemon::new(config);
        for line in &lines {
            second.feed_line("m", *line);
        }
        let notices_checked = {
            let mut merged = second.poll();
            merged.extend(second.finalize());
            let notices = second.take_notices();
            assert!(
                notices.iter().any(|n| n.contains("resumed market `m`")),
                "{notices:?}"
            );
            merged
        };
        let restored = second.restored_findings();
        let (want_findings, want_report) = reference(&trace);
        let complete: Vec<&LiveFinding> = restored
            .iter()
            .map(|f| &f.finding)
            .chain(notices_checked.iter().map(|f| &f.finding))
            .collect();
        assert_eq!(complete.len(), want_findings.len());
        for (g, w) in complete.iter().zip(&want_findings) {
            assert_eq!(*g, w);
        }
        // Restored findings cover exactly what the first life emitted.
        assert_eq!(restored.len(), before_kill.len());
        let reports = second.reports().unwrap();
        assert_eq!(reports[0].report, want_report);
        assert!(reports[0].resumed_from.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_full_replay() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let dir = temp_dir("fallback");
        std::fs::write(dir.join("m.checkpoint.json"), "{\"schema\": \"garb").unwrap();
        let config = DaemonConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1_000_000,
            ..DaemonConfig::default()
        };
        let mut daemon = AuditDaemon::new(config);
        for line in jsonl.lines() {
            daemon.feed_line("m", line);
        }
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let notices = daemon.take_notices();
        assert!(
            notices
                .iter()
                .any(|n| n.contains("unusable") && n.contains("replaying from the trace")),
            "{notices:?}"
        );
        let (want_findings, want_report) = reference(&trace);
        assert_eq!(merged.len(), want_findings.len());
        assert_eq!(daemon.reports().unwrap()[0].report, want_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_broken_market_fails_alone() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        for line in jsonl.lines() {
            daemon.feed_line("good", line);
        }
        daemon.feed_line("bad", "{not json");
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let failed = daemon.failed_markets();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "bad");
        assert!(failed[0].1.contains("line 1"), "{}", failed[0].1);
        let (want, _) = reference(&trace);
        assert_eq!(merged.len(), want.len(), "good market is unaffected");
        assert_eq!(daemon.reports().unwrap().len(), 1);
    }

    #[test]
    fn shard_pinning_is_stable() {
        assert_eq!(shard_of("market-1"), shard_of("market-1"));
        // FNV-1a of distinct names is distinct here (sanity, not a
        // collision guarantee).
        assert_ne!(shard_of("market-1") % 7, shard_of("market-2") % 7);
    }

    #[test]
    fn file_backed_markets_tail_growing_files() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let dir = temp_dir("tail");
        let path = dir.join("m.jsonl");
        let half = lines.len() / 2;
        std::fs::write(&path, format!("{}\n", lines[..half].join("\n"))).unwrap();
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        daemon.add_source(MarketSource {
            market: "m".into(),
            path: path.clone(),
        });
        let mut merged = daemon.poll();
        // The file grows; a later poll picks up the rest.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        use std::io::Write;
        writeln!(file, "{}", lines[half..].join("\n")).unwrap();
        drop(file);
        merged.extend(daemon.poll());
        merged.extend(daemon.finalize());
        let (want, want_report) = reference(&trace);
        assert_eq!(merged.len(), want.len());
        for (g, w) in merged.iter().zip(&want) {
            assert_eq!(&g.finding, w);
        }
        assert_eq!(daemon.reports().unwrap()[0].report, want_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discover_finds_both_stream_and_recording_markets() {
        let trace = violating_trace();
        let dir = temp_dir("discover");
        std::fs::write(
            dir.join("stream.jsonl"),
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        std::fs::write(
            dir.join("recording.fcb"),
            persist::encode_bytes(&trace, persist::TraceFormat::Binary),
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let sources = MarketSource::discover(dir.to_str().unwrap()).unwrap();
        let names: Vec<&str> = sources.iter().map(|s| s.market.as_str()).collect();
        assert_eq!(names, ["recording", "stream"], "sorted, txt ignored");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_format_market_is_a_named_error_not_a_silent_skip() {
        let trace = violating_trace();
        let dir = temp_dir("mixed");
        std::fs::write(
            dir.join("m.jsonl"),
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        std::fs::write(
            dir.join("m.fcb"),
            persist::encode_bytes(&trace, persist::TraceFormat::Binary),
        )
        .unwrap();
        let err = MarketSource::discover(dir.to_str().unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("market `m`"), "{msg}");
        assert!(msg.contains("m.jsonl") && msg.contains("m.fcb"), "{msg}");
        assert!(msg.contains("keep exactly one"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recording_market_matches_the_single_stream_reference() {
        let trace = violating_trace();
        let dir = temp_dir("fcb");
        let path = dir.join("m.fcb");
        std::fs::write(
            &path,
            persist::encode_bytes(&trace, persist::TraceFormat::Binary),
        )
        .unwrap();
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        daemon.add_source(MarketSource {
            market: "m".into(),
            path,
        });
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let (want, want_report) = reference(&trace);
        assert_eq!(merged.len(), want.len());
        for (g, w) in merged.iter().zip(&want) {
            assert_eq!(&g.finding, w);
        }
        assert_eq!(daemon.reports().unwrap()[0].report, want_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_recording_fails_its_market_alone() {
        let trace = violating_trace();
        let dir = temp_dir("badfcb");
        let mut bytes = persist::encode_bytes(&trace, persist::TraceFormat::Binary);
        bytes.truncate(bytes.len() / 2);
        std::fs::write(dir.join("bad.fcb"), &bytes).unwrap();
        std::fs::write(
            dir.join("good.jsonl"),
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        for source in MarketSource::discover(dir.to_str().unwrap()).unwrap() {
            daemon.add_source(source);
        }
        let notices = daemon.take_notices();
        assert!(
            notices
                .iter()
                .any(|n| n.contains("bad") && n.contains("failed")),
            "{notices:?}"
        );
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let failed = daemon.failed_markets();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "bad");
        assert!(failed[0].1.contains("bad.fcb"), "{}", failed[0].1);
        let (want, _) = reference(&trace);
        assert_eq!(merged.len(), want.len(), "good market is unaffected");
        assert_eq!(daemon.reports().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
