//! The `faircrowd` command-line tool: run the scenario → simulate →
//! audit → enforce → report pipeline and work with transparency policies
//! from the shell.
//!
//! `faircrowd --help` lists the verbs; each verb's flags live in one
//! table (`tables`) that drives its parsing, its help block and its
//! unknown-flag error.
//!
//! Every market command goes through [`faircrowd::Pipeline`] and selects
//! assignment policies via the registry
//! ([`faircrowd::assign::registry`]) and scenarios via the catalog
//! ([`faircrowd::sim::catalog`]), so the CLI, examples and tests
//! exercise the same code path. `converge` iterates a strategic market
//! (`--strategy`, or a strategic-family scenario) to its fixed point
//! ([`faircrowd::sim::converge`]) and audits the converged trace.
//! `sweep` runs whole grids
//! (scenarios × policies × strategies × seeds × scales × enforcements ×
//! aggregators) through
//! [`faircrowd::sweep`] on a worker pool; its aggregate output is
//! byte-identical whatever `--jobs` says. `frontier` runs the same
//! machinery over a policy × aggregator × enforcement grid and extracts
//! the quality/fairness Pareto-dominant set
//! ([`faircrowd::frontier`]). `export` and
//! `replay`/`audit --trace` are the two halves of the paper's
//! audit-external-logs workload: a trace written once replays to a
//! bit-identical audit report with no simulator in the loop
//! ([`faircrowd::core::persist`]).

use faircrowd::assign::registry;
use faircrowd::lang::{catalog, compare, printer, render};
use faircrowd::model::disclosure::DisclosureSet;
use faircrowd::model::FaircrowdError;
use faircrowd::prelude::*;
use faircrowd::sim::catalog as scenarios;
use faircrowd::sim::{strategy, StrategyChoice};
use std::io::Write as _;
use std::process::ExitCode;
use tables::*;

/// `print!` for everything the verbs write to stdout; see [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` counterpart of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write to stdout. A reader that stops early (`faircrowd audit | head
/// -1`) closes the pipe; the process then ends quietly with status 0,
/// as it would on SIGPIPE, instead of panicking. Any other write error
/// is reported and fails the process.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(err) = std::io::stdout().write_fmt(args) {
        if err.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {err}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    let result = match command {
        Some("axioms") => axioms(&args[1..]),
        Some("run") => run_cmd(&args[1..], true),
        Some("converge") => converge_cmd(&args[1..]),
        Some("audit") => run_cmd(&args[1..], false),
        Some("export") => export_cmd(&args[1..]),
        Some("replay") => replay_cmd(&args[1..]),
        Some("watch") => watch_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("frontier") => frontier_cmd(&args[1..]),
        Some("merge") => merge_cmd(&args[1..]),
        Some("scenarios") => scenarios_cmd(&args[1..]),
        Some("policies") => policies(&args[1..]),
        Some("render") => render_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            outln!("{}", usage_text());
            Ok(())
        }
        Some(other) => Err(FaircrowdError::usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            if matches!(err, FaircrowdError::Usage { .. }) {
                eprintln!();
                // Best effort: a closed stdout must not turn this
                // failure into the quiet success of `write_stdout`.
                let _ = writeln!(std::io::stdout(), "{}", usage_text());
            }
            ExitCode::FAILURE
        }
    }
}

/// The full `--help` text. A function (not an inline `println!`) so the
/// tests can assert that every registry — policies, strategies,
/// scenarios, aggregators — and every flag table is listed verbatim:
/// the help must never fall behind a grown registry or table.
fn usage_text() -> String {
    let blocks = [
        ("OPTS", [MARKET_OPTS, &[LIVE, ENFORCE, OUT, TRACE]].concat()),
        ("CONVERGE-OPTS", CONVERGE_OPTS.to_vec()),
        ("WATCH-OPTS", WATCH.flags.concat()),
        ("SERVE-OPTS", SERVE.flags.concat()),
        ("SWEEP-OPTS", SWEEP.flags.concat()),
        ("FRONTIER-OPTS", FRONTIER.flags.concat()),
    ];
    let blocks: String = blocks
        .iter()
        .map(|(title, flags)| opts_block(title, flags))
        .collect();
    format!(
        "faircrowd — fairness and transparency auditing for crowdsourcing\n\n\
         USAGE:\n  \
         faircrowd axioms                         print the paper's seven axioms\n  \
         faircrowd run   [OPTS] [--live] [--enforce E]...  full pipeline incl. enforcement re-audit\n  \
         faircrowd converge [OPTS] [CONVERGE-OPTS]  iterate a strategic market to its\n                                           \
         fixed point, then audit the converged trace\n  \
         faircrowd audit [OPTS | --trace FILE]    audit a simulated market or a trace file\n  \
         faircrowd export [OPTS] --out FILE       simulate a market and write its trace\n  \
         faircrowd replay <FILE>                  load a trace file, audit it, report\n  \
         faircrowd watch <FILE.jsonl> [WATCH-OPTS]  tail a JSONL trace (even while it\n                                           \
         grows), stream violations as they land\n  \
         faircrowd serve <DIR> [SERVE-OPTS]       tail every <market>.jsonl (and audit\n                                           \
         every <market>.fcb) in DIR at once\n  \
         faircrowd sweep [SWEEP-OPTS]             parallel grid sweep, aggregate stats\n  \
         faircrowd frontier [FRONTIER-OPTS]       sweep a policy × aggregator × enforce\n                                           \
         grid, chart the quality/fairness\n                                           \
         Pareto-dominant set\n  \
         faircrowd merge <part.json>... [--format F]  fold shard part files into the\n                                           \
         single-process sweep report, byte-identical\n  \
         faircrowd scenarios                      list the named scenario catalog\n  \
         faircrowd policies                       list the TPL platform catalog\n  \
         faircrowd render <policy>                human-readable policy description\n  \
         faircrowd compare <a> <b>                diff two catalog policies\n\n\
         trace files: `.jsonl` writes the line-oriented log form, `.fcb` the\n  \
         length-prefixed binary form, anything else the whole-file JSON form;\n  \
         `replay` and `audit --trace` sniff and accept all three (validated:\n  \
         schema version + referential integrity, never a panic); `watch` tails\n  \
         the JSONL form and ingests a finished `.fcb` recording in one shot\n\n\
         {blocks}\
         enforcements for --enforce (repeatable) and the enforce axis:\n  \
         parity | floor:N | transparency | grace\n\n\
         assignment policies (registry names):\n  {}\n\n\
         agent strategies for --strategy and the strategy axis:\n  {}\n\n\
         consensus aggregators for the aggregator axis:\n  {}\n\n\
         scenario catalog (see `faircrowd scenarios` for both families):\n  \
         static:    {}\n  \
         strategic: {}",
        registry::NAMES.join(" | "),
        strategy::NAMES.join(" | "),
        faircrowd::quality::aggregate::NAMES.join(" | "),
        scenarios::STATIC_NAMES.join(" | "),
        scenarios::STRATEGIC_NAMES.join(" | ")
    )
}

/// One `--help` block: a line per accepted flag, the help text in a
/// common column.
fn opts_block(title: &str, flags: &[Flag]) -> String {
    let flags: Vec<&Flag> = flags.iter().filter(|f| f.refusal.is_none()).collect();
    let width = flags.iter().map(|f| f.head().len()).max().unwrap_or(0) + 2;
    let mut block = format!("{title}:\n");
    for f in flags {
        let help = match f.values {
            [] => f.help.to_owned(),
            values => format!("{} {}", values.join(" | "), f.help),
        };
        let help = help.replace('\n', &format!("\n  {:width$}", ""));
        block += &format!("  {:width$}{help}\n", f.head());
    }
    block + "\n"
}

/// One row of a verb's flag table.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    /// The value's placeholder; empty for a switch.
    metavar: &'static str,
    help: &'static str,
    /// May be given more than once. Any other flag given twice is a
    /// usage error: keeping either value would report on a run the user
    /// did not ask for.
    repeats: bool,
    /// The fixed set of accepted values; empty for any value.
    values: &'static [&'static str],
    /// Set for a flag the verb diagnoses instead of accepting: the
    /// usage error it answers with.
    refusal: Option<&'static str>,
}

impl Flag {
    /// The flag as `--help` spells it: name plus metavar.
    fn head(&self) -> String {
        format!("{} {}", self.name, self.metavar)
            .trim_end()
            .to_owned()
    }
}

const fn opt(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar,
        help,
        repeats: false,
        values: &[],
        refusal: None,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    opt(name, "", help)
}

const fn refuse(name: &'static str, why: &'static str) -> Flag {
    Flag {
        refusal: Some(why),
        ..switch(name, "")
    }
}

/// A verb's command line: its flag table and its operands.
struct Verb {
    name: &'static str,
    /// Flag groups, so a shared group (the market flags) is written once.
    flags: &'static [&'static [Flag]],
    /// Operands accepted: at least `.0`, at most `.1`.
    operands: (usize, usize),
    /// The usage error for too few operands.
    usage: &'static str,
    /// Why an operand past the last is refused.
    surplus: &'static str,
    /// Appended to the unknown-flag error.
    hint: &'static str,
}

/// The flag tables: one per verb, the single source of its parsing, its
/// `--help` block and its unknown-flag error.
#[rustfmt::skip]
mod tables {
    use super::{opt, refuse, switch, Flag, Verb};

    /// The market flags shared by `run`, `audit`, `converge` and `export`.
    pub const MARKET_OPTS: &[Flag] = &[
        opt("--scenario", "NAME", "start from a catalog scenario (default: flag-built market)"),
        opt("--policy", "NAME", "assignment policy (default self_selection)"),
        opt("--strategy", "NAME", "agent-strategy profile (default static; strategic profiles\n\
            converge via fixed-point iteration; conflicts with a\n\
            strategic-family --scenario, whose profile is baked in)"),
        opt("--seed", "N", "simulation seed (default 42)"),
        opt("--rounds", "N", "market rounds (default 48)"),
        opt("--workers", "N", "diligent workers (default 30; ignored with --scenario)"),
        switch("--opaque", "run the platform with an opaque disclosure set"),
    ];
    pub const LIVE: Flag = switch("--live", "(run) audit during the simulation, printing each\n\
        violation at the event that introduced it");
    pub const ENFORCE: Flag =
        Flag { repeats: true, ..opt("--enforce", "E", "(run) repair the config, then re-audit") };
    pub const OUT: Flag = opt("--out", "FILE", "(export) where to write the trace");
    pub const TRACE: Flag = opt("--trace", "FILE", "(audit) audit a recorded trace instead of simulating");
    const NO_ENFORCE: Flag = refuse("--enforce",
        "--enforce is only valid with `faircrowd run`; `audit`/`export` never enforce");
    pub const CONVERGE_OPTS: &[Flag] = &[
        opt("--tolerance", "F", "fixed-point residual tolerance (default 0.005)"),
        opt("--max-iters", "N", "iteration cap before a named divergence error (default 40)"),
        opt("--gain", "F", "proportional-controller gain in (0, 1] (default 0.5)"),
    ];
    const JOBS: Flag = opt("--jobs", "N", "worker threads (default: available cores)");
    const PROGRESS: Flag = switch("--progress", "one stderr line per completed cell (stdout unchanged)");
    const FORMAT: Flag = Flag { values: &["table", "json", "csv"], ..opt("--format", "F", "(default table)") };

    /// The shape of the flags-only market verbs.
    const FLAGS_ONLY: Verb = Verb {
        name: "", flags: &[], operands: (0, 0), usage: "", surplus: "it takes flags only", hint: "",
    };

    pub const RUN: Verb = Verb { name: "run", flags: &[MARKET_OPTS, &[LIVE, ENFORCE, refuse("--trace",
        "--trace is only valid with `faircrowd audit` (or `faircrowd replay`); `run` simulates, \
         and config repairs cannot be applied to a platform that already ran")]], ..FLAGS_ONLY };

    pub const AUDIT: Verb = Verb { name: "audit", flags: &[MARKET_OPTS, &[TRACE, NO_ENFORCE, refuse("--live",
        "--live is only valid with `faircrowd run`; `audit --trace` replays a finished log \
         (use `faircrowd watch` to stream one)")]], ..FLAGS_ONLY };

    pub const CONVERGE: Verb = Verb { name: "converge", flags: &[MARKET_OPTS, CONVERGE_OPTS, &[
        NO_ENFORCE,
        refuse("--trace", "--trace is only valid with `faircrowd audit`/`replay`: `converge` \
            iterates a simulator, while a recorded trace is already a finished market"),
        refuse("--live", "--live is only valid with `faircrowd run`; `converge` audits the fixed \
            point, not the iterations on the way there"),
    ]], ..FLAGS_ONLY };

    pub const EXPORT: Verb = Verb { name: "export", flags: &[MARKET_OPTS, &[OUT, NO_ENFORCE]], ..FLAGS_ONLY };

    pub const REPLAY: Verb = Verb {
        name: "replay", flags: &[&[TRACE]], operands: (0, 1), usage: "usage: faircrowd replay <trace-file>",
        surplus: "it takes exactly one trace file (a recorded trace already fixes the market)",
        ..FLAGS_ONLY
    };

    pub const WATCH: Verb = Verb {
        name: "watch", operands: (1, 1), usage: "usage: faircrowd watch <trace.jsonl>",
        surplus: "it takes exactly one trace file (`.jsonl` stream or `.fcb` recording)",
        flags: &[&[
            switch("--once", "process the file's current contents and stop (no tailing)"),
            opt("--idle-ms", "N", "stop after N ms with no growth (default 1500)"),
            opt("--checkpoint", "FILE", "snapshot auditor state to FILE as the stream grows and\n\
                resume from it on restart (no log replay)"),
            opt("--checkpoint-every", "N", "events between snapshots (default 512)"),
        ]],
        ..FLAGS_ONLY
    };

    pub const SERVE: Verb = Verb {
        name: "serve", operands: (1, 1), usage: "usage: faircrowd serve <dir>",
        surplus: "it takes exactly one trace directory",
        flags: &[&[
            opt("--checkpoint-dir", "D", "snapshot each market to D/<market>.checkpoint.json and\n\
                resume every stream from its checkpoint on restart"),
            opt("--checkpoint-every", "N", "events between snapshots, per market (default 512)"),
            opt("--jobs", "N", "shard threads (default: available cores)"),
            switch("--once", "process current contents and stop (no tailing)"),
            opt("--idle-ms", "N", "stop after N ms with no growth on any stream (default 1500)"),
        ]],
        ..FLAGS_ONLY
    };

    pub const SWEEP: Verb = Verb {
        name: "sweep",
        surplus: "grid specs go via --grid, e.g. --grid 'seed=1..4;enforce=parity'",
        hint: " (scenario, policy and enforcement are grid axes, e.g. \
               --grid 'scenario=spam_campaign;policy=*;enforce=parity')",
        flags: &[&[
            opt("--grid", "SPEC", "axes as `axis=v1,v2;…` over scenario | policy | strategy |\n\
                seed | scale | rounds | enforce | aggregator — `*` for every\n\
                name, `a..b` or `a..=b` seed ranges, `+`-stacked enforcements\n\
                (default `policy=*`); strategic cells converge before auditing"),
            JOBS,
            FORMAT,
            opt("--seed", "N", "seed when the grid has no seed axis"),
            opt("--rounds", "N", "rounds when the grid has no rounds axis"),
            opt("--strategy", "NAME", "strategy when the grid has no strategy axis"),
            opt("--shard", "i/N", "run only shard i of an N-way split, appending each finished\n\
                cell to --out FILE (killed shards resume: done cells are\n\
                loaded from the part file and skipped)"),
            opt("--out", "FILE", "(with --shard) the part file; render via `faircrowd merge`"),
            PROGRESS,
        ]],
        ..FLAGS_ONLY
    };

    pub const FRONTIER: Verb = Verb {
        name: "frontier",
        surplus: "grid specs go via --grid, e.g. --grid 'policy=*;aggregator=*'",
        hint: " (policy, aggregator and enforcement are grid axes, e.g. \
               --grid 'policy=*;aggregator=*;enforce=none,parity')",
        flags: &[&[
            opt("--grid", "SPEC", "same grammar as sweep; axes left unset default to the\n\
                frontier contrast — every policy, every aggregator,\n\
                enforce=none,parity (a plain sweep defaults each to one point)"),
            JOBS,
            Flag { values: &["table", "json"], ..opt("--format", "F", "(default table; `*` marks Pareto members)") },
            PROGRESS,
        ]],
        ..FLAGS_ONLY
    };

    pub const MERGE: Verb = Verb {
        name: "merge", flags: &[&[FORMAT]], operands: (1, usize::MAX),
        usage: "usage: faircrowd merge <part.json>... [--format table|json|csv]", ..FLAGS_ONLY
    };

    pub const AXIOMS: Verb = Verb { name: "axioms", surplus: "it takes no arguments", ..FLAGS_ONLY };
    pub const SCENARIOS: Verb = Verb { name: "scenarios", surplus: "it takes no arguments", ..FLAGS_ONLY };
    pub const POLICIES: Verb = Verb { name: "policies", surplus: "it takes no arguments", ..FLAGS_ONLY };

    pub const RENDER: Verb = Verb {
        name: "render", operands: (1, 1), usage: "usage: faircrowd render <policy>",
        surplus: "it takes exactly one policy name", ..FLAGS_ONLY
    };

    pub const COMPARE: Verb = Verb {
        name: "compare", operands: (2, 2), usage: "usage: faircrowd compare <a> <b>",
        surplus: "it takes exactly two policy names", ..FLAGS_ONLY
    };
}

impl Verb {
    fn accepted(&self) -> impl Iterator<Item = &Flag> {
        self.flags
            .iter()
            .flat_map(|g| g.iter())
            .filter(|f| f.refusal.is_none())
    }

    fn surplus_error(&self, arg: &str) -> FaircrowdError {
        FaircrowdError::usage(format!(
            "unexpected argument `{arg}` for `faircrowd {}`; {}",
            self.name, self.surplus
        ))
    }

    /// Walk `argv` once against the table. Every usage mistake — an
    /// unknown, refused, dangling or repeated flag, a value outside a
    /// fixed set, too few or too many operands — is an error here,
    /// before the verb does any work.
    fn parse<'a>(&self, argv: &'a [String]) -> Result<Args<'a>, FaircrowdError> {
        let usage = |message: String| Err(FaircrowdError::usage(message));
        let mut args = Args::default();
        let mut rest = argv.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if args.operands.len() == self.operands.1 {
                    return Err(self.surplus_error(arg));
                }
                args.operands.push(arg);
                continue;
            }
            let Some(flag) = self
                .flags
                .iter()
                .flat_map(|g| g.iter())
                .find(|f| f.name == arg)
            else {
                let names: Vec<&str> = self.accepted().map(|f| f.name).collect();
                let supported = match names.is_empty() {
                    true => "it takes no flags".to_owned(),
                    false => format!("supported: {}{}", names.join(" "), self.hint),
                };
                return usage(format!(
                    "unknown flag `{arg}` for `faircrowd {}`; {supported}",
                    self.name
                ));
            };
            if let Some(why) = flag.refusal {
                return usage(why.to_owned());
            }
            if !flag.repeats && args.has(arg) {
                return usage(format!("`{arg}` given twice"));
            }
            let value = match flag.metavar {
                "" => "",
                _ => match rest.next() {
                    Some(value) => value,
                    None => return usage(format!("{arg} requires a value")),
                },
            };
            if !flag.values.is_empty() && !flag.values.contains(&value) {
                return usage(format!(
                    "unknown {} `{value}` for `faircrowd {}`; expected {}",
                    &arg[2..],
                    self.name,
                    flag.values.join(" | ")
                ));
            }
            args.flags.push((flag.name, value));
        }
        if args.operands.len() < self.operands.0 {
            return usage(self.usage.to_owned());
        }
        Ok(args)
    }
}

/// A verb's command line as parsed against its table: the operands,
/// and each accepted flag with its value (empty for a switch).
#[derive(Debug, Default)]
struct Args<'a> {
    operands: Vec<&'a str>,
    flags: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.all(flag).next()
    }

    /// Every value of a repeatable flag, in command-line order.
    fn all<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |(name, _)| *name == flag)
            .map(|(_, value)| *value)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, FaircrowdError> {
        let invalid = |raw| FaircrowdError::usage(format!("invalid value `{raw}` for {flag}"));
        self.value(flag)
            .map(|raw| raw.parse().map_err(|_| invalid(raw)))
            .transpose()
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, FaircrowdError> {
        Ok(self.parsed(flag)?.unwrap_or(default))
    }

    /// Count-like flags (`--jobs`, `--idle-ms`, `--checkpoint-every`):
    /// every verb rejects zero and non-numeric values with the same
    /// "expected a positive integer" wording.
    fn positive(&self, flag: &str, default: u64) -> Result<u64, FaircrowdError> {
        match self.value(flag).map(|raw| (raw, raw.parse::<u64>())) {
            None => Ok(default),
            Some((_, Ok(n))) if n > 0 => Ok(n),
            Some((raw, _)) => Err(FaircrowdError::usage(format!(
                "invalid value `{raw}` for {flag}: expected a positive integer"
            ))),
        }
    }

    /// `--jobs`, defaulting to the available cores.
    fn jobs(&self) -> Result<usize, FaircrowdError> {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Ok(self.positive("--jobs", cores as u64)? as usize)
    }
}

fn scenarios_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    SCENARIOS.parse(argv)?;
    outln!("scenario catalog (faircrowd-sim::catalog):\n");
    outln!("static family — fixed parameterisations, one simulation pass:");
    for name in scenarios::STATIC_NAMES {
        outln!("  {name:<20} {}", scenarios::describe(name).unwrap_or(""));
    }
    outln!("\nstrategic family — agents adapt; iterated to a fixed point before auditing:");
    for name in scenarios::STRATEGIC_NAMES {
        outln!("  {name:<20} {}", scenarios::describe(name).unwrap_or(""));
    }
    outln!(
        "\nagent strategies (--strategy, and the sweep's strategy axis):\n  {}",
        strategy::NAMES.join(" | ")
    );
    outln!(
        "\nuse `faircrowd run --scenario <name>` to audit one, \
         `faircrowd converge --scenario <name>` to watch a strategic one\n\
         settle, or sweep them all:\n  \
         faircrowd sweep --grid 'scenario=*;policy=*;seed=0..4' --jobs 8"
    );
    Ok(())
}

fn axioms(argv: &[String]) -> Result<(), FaircrowdError> {
    AXIOMS.parse(argv)?;
    for id in AxiomId::ALL {
        outln!("{}\n  {}\n", id.label(), id.statement());
    }
    Ok(())
}

/// The shared market scenario behind `run` and `audit`: a catalog
/// preset when `--scenario` names one, else the flag-built default —
/// two comparable labeling campaigns over a full-participation diligent
/// population, so Axioms 1–3 have pairs to quantify over.
fn scenario_from_flags(args: &Args) -> Result<ScenarioConfig, FaircrowdError> {
    let mut config = if let Some(name) = args.value("--scenario") {
        scenarios::get(name)?
    } else {
        // The flag-built default market IS the catalog baseline —
        // resolved from the catalog so the two can never drift apart;
        // --workers resizes its single diligent population.
        let mut config = scenarios::get("baseline")?;
        config.workers[0].count = args.parse("--workers", config.workers[0].count)?;
        config
    };
    // Explicit flags override whichever base was chosen; a catalog
    // scenario's own seed/rounds survive when the flag is absent.
    config.seed = args.parse("--seed", config.seed)?;
    config.rounds = args.parse("--rounds", config.rounds)?;
    if args.has("--opaque") {
        config.disclosure = DisclosureSet::opaque();
    }
    if let Some(name) = args.value("--strategy") {
        // Resolve first: an unknown name must list the registry, not
        // fall through to the scenario's default.
        let choice = StrategyChoice::by_name(name)?;
        if config.strategy != StrategyChoice::Static {
            return Err(FaircrowdError::usage(format!(
                "--strategy {name} conflicts with --scenario {}: its `{}` profile is part \
                 of the scenario definition (strategic family; see `faircrowd scenarios`). \
                 Pick a static-family scenario to override, or drop --strategy",
                args.value("--scenario").unwrap_or("<flag-built>"),
                config.strategy.label()
            )));
        }
        config.strategy = choice;
    }
    Ok(config)
}

/// The market pipeline the flags describe, with every `--enforce`
/// repair (only `run`'s table accepts the flag).
fn pipeline_from_flags(args: &Args) -> Result<Pipeline, FaircrowdError> {
    let mut pipeline = Pipeline::new()
        .scenario(scenario_from_flags(args)?)
        .policy_name(args.value("--policy").unwrap_or("self_selection"))?;
    for raw in args.all("--enforce") {
        pipeline = pipeline.enforce(Enforcement::parse(raw)?);
    }
    Ok(pipeline)
}

fn run_cmd(argv: &[String], with_enforce: bool) -> Result<(), FaircrowdError> {
    let args = if with_enforce { RUN } else { AUDIT }.parse(argv)?;
    if let Some(path) = args.value("--trace") {
        // A recorded trace already fixes the scenario, so any market
        // flag would silently report on a market the user didn't replay.
        if let Some((bad, _)) = args.flags.iter().find(|(name, _)| *name != "--trace") {
            return Err(FaircrowdError::usage(format!(
                "{bad} conflicts with --trace: a recorded trace already fixes the market \
                 and cannot be repaired after the fact"
            )));
        }
        return replay_file(path);
    }
    if args.has("--live") {
        if args.has("--enforce") {
            return Err(FaircrowdError::usage(
                "--enforce conflicts with --live: live auditing watches one run as it \
                 happens, while enforcement repairs re-simulate a different market",
            ));
        }
        return run_live(pipeline_from_flags(&args)?);
    }
    let result = pipeline_from_flags(&args)?.run()?;
    outln!(
        "auditing: policy={}, seed={}, rounds={}\n",
        result.config.policy.label(),
        result.config.seed,
        result.config.rounds
    );
    out!("{}", result.render());
    Ok(())
}

/// `faircrowd run --live`: audit the market *while it runs*, printing
/// each violation at the event that introduced it, then the same
/// market-plus-report block as a batch `run` (the closing report is
/// bit-identical to the batch audit of the same scenario).
fn run_live(pipeline: Pipeline) -> Result<(), FaircrowdError> {
    // The header comes off the pipeline's resolved config — the same
    // source the batch path prints — so it can never drift from what
    // actually runs.
    let config = pipeline.scenario_config();
    outln!(
        "live-auditing: policy={}, seed={}, rounds={}\n",
        config.policy.label(),
        config.seed,
        config.rounds
    );
    let live = pipeline.run_live(|finding| outln!("{finding}"))?;
    let shown = live.findings.len();
    outln!(
        "\n{} live finding(s){}\n",
        shown + live.suppressed_findings,
        if live.suppressed_findings > 0 {
            format!(" ({} past the in-memory cap)", live.suppressed_findings)
        } else {
            String::new()
        }
    );
    out!("{}", live.artifacts.render("live"));
    Ok(())
}

/// `faircrowd converge`: iterate a strategic market to its fixed point
/// ([`faircrowd::sim::converge`]), printing one residual line per
/// iteration, then the same market-plus-report block as `run` — so the
/// converged audit diffs cleanly against `replay` of the exported
/// converged trace from the axiom table onward (the CI converge smoke
/// does exactly that).
fn converge_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = CONVERGE.parse(argv)?;
    let defaults = faircrowd::sim::ConvergeOptions::default();
    let opts = faircrowd::sim::ConvergeOptions {
        tolerance: args.parse("--tolerance", defaults.tolerance)?,
        max_iterations: args
            .positive("--max-iters", u64::from(defaults.max_iterations))?
            .try_into()
            .map_err(|_| FaircrowdError::usage("--max-iters is too large"))?,
        gain: args.parse("--gain", defaults.gain)?,
    };
    let pipeline = pipeline_from_flags(&args)?.converge_options(opts.clone());
    let config = pipeline.scenario_config();
    outln!(
        "converging: strategy={}, policy={}, seed={}, rounds={} \
         (tolerance {}, cap {}, gain {})\n",
        config.strategy.label(),
        config.policy.label(),
        config.seed,
        config.rounds,
        opts.tolerance,
        opts.max_iterations,
        opts.gain
    );
    let run = pipeline.run_converged()?;
    for it in &run.history {
        outln!(
            "iteration {:>2}: residual {:.6}  retention {:>5.1}%",
            it.iteration,
            it.residual,
            it.summary.retention * 100.0
        );
    }
    outln!("\nfixed point after {} iteration(s)\n", run.iterations);
    out!("{}", run.artifacts.render("converged"));
    Ok(())
}

/// `faircrowd export`: simulate the flag-selected market and write its
/// trace to `--out` (format by extension: `.jsonl` → JSONL, else JSON).
fn export_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = EXPORT.parse(argv)?;
    let out = args.value("--out").ok_or_else(|| {
        FaircrowdError::usage("export requires --out FILE (`.jsonl` for the line-oriented form)")
    })?;
    let trace = pipeline_from_flags(&args)?.simulate()?;
    faircrowd::core::persist::save(&trace, out)?;
    outln!(
        "exported {}: {} workers, {} tasks, {} submissions, {} events",
        out,
        trace.workers.len(),
        trace.tasks.len(),
        trace.submissions.len(),
        trace.events.len()
    );
    Ok(())
}

/// `faircrowd replay <FILE>` (or `--trace FILE`): load → validate →
/// index → audit → report, no simulator in the loop. Anything beyond
/// the one path is rejected rather than silently ignored.
fn replay_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = REPLAY.parse(argv)?;
    let mut paths = args.value("--trace").into_iter().chain(args.operands);
    let path = paths
        .next()
        .ok_or_else(|| FaircrowdError::usage(REPLAY.usage))?;
    if let Some(extra) = paths.next() {
        return Err(REPLAY.surplus_error(extra));
    }
    replay_file(path)
}

/// Shared tail of `replay` and `audit --trace`. Prints the same
/// market-plus-report block as `run`, so the two outputs diff cleanly
/// from the audit table onward (the CI smoke step does exactly that).
fn replay_file(path: &str) -> Result<(), FaircrowdError> {
    let trace = faircrowd::core::persist::load(path)?;
    outln!(
        "replaying {path}: {} workers, {} tasks, {} events\n",
        trace.workers.len(),
        trace.tasks.len(),
        trace.events.len()
    );
    // `replay_owned`: recorded logs can be large, don't copy them.
    let artifacts = Pipeline::new().replay_owned(trace)?;
    out!("{}", artifacts.render("replayed"));
    Ok(())
}

/// `faircrowd watch <FILE.jsonl>`: stream a JSONL trace through the
/// live auditor, printing each violation at the event that introduced
/// it. The file may still be growing — watch keeps tailing until it has
/// seen no new bytes for `--idle-ms` (or processes the current contents
/// once under `--once`), then finalizes and prints the same
/// market-plus-report block as `replay`/`audit --trace`, so the two
/// outputs diff cleanly from the audit table onward (the CI smoke step
/// does exactly that: the streamed violation set must not drift from
/// the batch one).
///
/// With `--checkpoint FILE` the auditor's incremental state is
/// snapshotted to FILE as the stream grows, and a restarted watch
/// resumes from it — skipping the consumed lines instead of replaying
/// them — printing the restored findings first, so the restart's output
/// is still the stream's complete finding history.
fn watch_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = WATCH.parse(argv)?;
    let path = args.operands[0];
    let once = args.has("--once");
    let idle_ms = args.positive("--idle-ms", 1500)?;
    let ckpt_path = args.value("--checkpoint").map(std::path::PathBuf::from);
    let ckpt_every = args.positive("--checkpoint-every", 512)?;
    if args.has("--checkpoint-every") && ckpt_path.is_none() {
        return Err(FaircrowdError::usage(
            "--checkpoint-every requires --checkpoint FILE",
        ));
    }

    use std::io::Read as _;
    let io = |e: std::io::Error| FaircrowdError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    };
    let mut file = std::fs::File::open(path).map_err(io)?;
    let mut reader = faircrowd::model::trace_io::JsonlReader::new();
    let mut auditor = LiveAuditor::new(AuditConfig::default());
    let mut header_applied = false;
    // Resume from the checkpoint when one loads cleanly; a checkpoint
    // that fails any load gate is a warning and a full replay, never a
    // refusal to watch.
    let mut skip_lines: u64 = 0;
    let mut resumed = false;
    let mut last_checkpoint: u64 = 0;
    if let Some(ck) = ckpt_path.as_deref().filter(|p| p.exists()) {
        let restored = faircrowd::core::checkpoint::load(ck)
            .and_then(|c| Ok((LiveAuditor::resume(AuditConfig::default(), &c)?, c)));
        match restored {
            Ok((restored, c)) => {
                outln!(
                    "resumed from checkpoint seq {} (skipping {} line(s))",
                    c.seq(),
                    c.source_lines()
                );
                reader = faircrowd::model::trace_io::JsonlReader::resume(
                    c.jsonl_header(),
                    c.source_lines() as usize,
                );
                skip_lines = c.source_lines();
                last_checkpoint = c.seq();
                auditor = restored;
                header_applied = true;
                resumed = true;
                // The restored findings followed by the fresh ones make
                // the restarted watch's output the stream's complete
                // finding history.
                for finding in auditor.findings() {
                    outln!("{finding}");
                }
            }
            Err(e) => {
                eprintln!(
                    "warning: checkpoint `{}` is unusable ({e}); replaying from the trace",
                    ck.display()
                );
            }
        }
    }
    // Sniff the first eight bytes: a `.fcb` recording is finished by
    // definition (the binary format has no append form), so it is
    // decoded whole and ingested in one shot instead of tailed.
    let mut head = Vec::with_capacity(8);
    std::io::Read::by_ref(&mut file)
        .take(8)
        .read_to_end(&mut head)
        .map_err(io)?;
    let binary = head == faircrowd::model::trace_bin::MAGIC;

    let mut feed = |line: &str,
                    reader: &mut faircrowd::model::trace_io::JsonlReader,
                    auditor: &mut LiveAuditor|
     -> Result<(), FaircrowdError> {
        if skip_lines > 0 {
            skip_lines -= 1;
            return Ok(());
        }
        match reader.feed_line(line).map_err(|e| e.at_path(path))? {
            None => {
                if !header_applied {
                    if let Some(header) = reader.header() {
                        auditor.apply_header(header);
                        header_applied = true;
                    }
                }
            }
            Some(record) => {
                let findings = auditor
                    .apply_record(record)
                    .map_err(|e| at_watch_line(e, reader.lines_fed()))?;
                for finding in findings {
                    outln!("{finding}");
                }
            }
        }
        Ok(())
    };

    if binary {
        // The recording is re-spelled as its JSONL lines and streamed
        // through the same feed path a tailed file uses — findings,
        // checkpoints, resume skipping and the closing report all stay
        // line-addressed and bit-identical to watching the recording's
        // JSONL twin.
        let mut bytes = head;
        file.read_to_end(&mut bytes).map_err(io)?;
        let trace = faircrowd::core::persist::decode_bytes(&bytes).map_err(|e| e.at_path(path))?;
        let lines =
            faircrowd::core::persist::encode(&trace, faircrowd::core::persist::TraceFormat::Jsonl);
        for line in lines.lines() {
            feed(line, &mut reader, &mut auditor)?;
        }
    } else {
        // Byte buffers, not strings: a poll can catch the producer mid
        // multi-byte UTF-8 character, which must wait in the carry for
        // the rest of the write — only complete lines are decoded.
        let mut carry: Vec<u8> = head;
        let mut chunk: Vec<u8> = Vec::new();
        tail_until_idle(once, idle_ms, || {
            chunk.clear();
            file.read_to_end(&mut chunk).map_err(io)?;
            if chunk.is_empty() {
                return Ok(false);
            }
            carry.extend_from_slice(&chunk);
            // Feed only complete lines; a partially written tail (bytes,
            // or half a multi-byte character) stays in the carry until
            // its newline arrives.
            while let Some(nl) = carry.iter().position(|&b| b == b'\n') {
                let line_bytes: Vec<u8> = carry.drain(..=nl).collect();
                let line = String::from_utf8(line_bytes).map_err(|_| {
                    FaircrowdError::persist(format!(
                        "line {}: not valid UTF-8",
                        reader.lines_fed() + 1
                    ))
                    .at_path(path)
                })?;
                feed(
                    line.trim_end_matches(['\n', '\r']),
                    &mut reader,
                    &mut auditor,
                )?;
            }
            if let Some(ck) = &ckpt_path {
                if auditor.events_seen() as u64 >= last_checkpoint + ckpt_every {
                    faircrowd::core::checkpoint::save_auditor(
                        &auditor,
                        reader.lines_fed() as u64,
                        ck,
                    )?;
                    last_checkpoint = auditor.events_seen() as u64;
                }
            }
            Ok(true)
        })?;
        // A non-empty carry at stop is a file truncated mid-record
        // (possibly mid-character): feed it so the decoder reports the
        // malformed line instead of silently dropping it.
        if carry.iter().any(|b| !b.is_ascii_whitespace()) {
            let tail = String::from_utf8_lossy(&carry).into_owned();
            feed(&tail, &mut reader, &mut auditor)?;
        }
    }
    if !header_applied {
        return Err(FaircrowdError::usage(format!(
            "`{path}` is not a JSONL trace stream (no schema header line); \
             use `faircrowd replay` for whole-file JSON traces"
        )));
    }
    if let Some(ck) = &ckpt_path {
        // Snapshot BEFORE finalizing: end-of-stream was this run's
        // local judgment (idle timeout), not a property of the log. A
        // restart re-derives it — or keeps ingesting, if the stream
        // grew in the meantime.
        faircrowd::core::checkpoint::save_auditor(&auditor, reader.lines_fed() as u64, ck)?;
    }
    for finding in auditor.finalize() {
        outln!("{finding}");
    }
    // A resumed watch skips the end-of-stream referential gate: its
    // prefix was validated before the checkpoint was taken (and the
    // accumulated trace holds only the tail of the log, which batch
    // validation would reject as sparse).
    if !resumed {
        auditor.trace().ensure_valid()?;
    }
    let (report, wages) = auditor.final_artifacts(&AxiomId::ALL);
    let events_total = auditor.events_seen();
    let trace = auditor.into_trace();
    outln!(
        "\nwatched {path}: {} workers, {} tasks, {} events\n",
        trace.workers.len(),
        trace.tasks.len(),
        events_total
    );
    let summary = TraceSummary::of(&trace);
    let artifacts = RunArtifacts {
        trace,
        summary,
        report,
        wages,
    };
    out!("{}", artifacts.render("watched"));
    Ok(())
}

/// Call `poll` until a poll finds nothing new and either `once` is set
/// or `idle_ms` have passed since the last growth.
fn tail_until_idle(
    once: bool,
    idle_ms: u64,
    mut poll: impl FnMut() -> Result<bool, FaircrowdError>,
) -> Result<(), FaircrowdError> {
    const POLL_MS: u64 = 100;
    let mut idle_waited = 0;
    loop {
        if poll()? {
            idle_waited = 0;
        } else if once || idle_waited >= idle_ms {
            return Ok(());
        } else {
            std::thread::sleep(std::time::Duration::from_millis(POLL_MS));
            idle_waited += POLL_MS;
        }
    }
}

/// Tag a streaming-ingest error with the file line it arose on.
fn at_watch_line(err: FaircrowdError, lineno: usize) -> FaircrowdError {
    match err {
        FaircrowdError::InvalidTrace { problems } => FaircrowdError::InvalidTrace {
            problems: problems
                .into_iter()
                .map(|p| format!("line {lineno}: {p}"))
                .collect(),
        },
        other => other,
    }
}

/// `faircrowd serve <dir>`: the multi-market audit daemon. Every
/// `<market>.jsonl` in the directory is tailed by its own live auditor
/// ([`faircrowd::core::AuditDaemon`]), sharded across `--jobs` threads,
/// and all findings land in one merged stream tagged `[market]`. With
/// `--checkpoint-dir` each market's state is snapshotted at the
/// `--checkpoint-every` cadence and a restarted serve resumes every
/// stream from its checkpoint — an unusable checkpoint falls back to
/// replaying that market's trace from the start. Closing reports are
/// printed per market; a failed market stream fails the exit code but
/// never the other markets.
fn serve_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = SERVE.parse(argv)?;
    let dir = args.operands[0];
    let once = args.has("--once");
    let idle_ms = args.positive("--idle-ms", 1500)?;
    let jobs = args.jobs()?;
    let checkpoint_dir = args.value("--checkpoint-dir").map(std::path::PathBuf::from);
    let checkpoint_every = args.positive("--checkpoint-every", 512)?;
    if args.has("--checkpoint-every") && checkpoint_dir.is_none() {
        return Err(FaircrowdError::usage(
            "--checkpoint-every requires --checkpoint-dir D",
        ));
    }
    if let Some(d) = &checkpoint_dir {
        std::fs::create_dir_all(d).map_err(|e| FaircrowdError::Io {
            path: d.display().to_string(),
            message: e.to_string(),
        })?;
    }

    let sources = MarketSource::discover(dir)?;
    if sources.is_empty() {
        return Err(FaircrowdError::usage(format!(
            "no `<market>.jsonl` trace streams or `<market>.fcb` recordings in `{dir}`"
        )));
    }
    outln!(
        "serving {} market stream(s) from {dir} ({jobs} job(s))",
        sources.len()
    );
    let mut daemon = AuditDaemon::open(
        DaemonConfig {
            audit: AuditConfig::default(),
            jobs,
            checkpoint_dir,
            checkpoint_every,
        },
        sources,
    );
    for notice in daemon.take_notices() {
        outln!("{notice}");
    }
    for finding in daemon.restored_findings() {
        outln!("{finding}");
    }

    tail_until_idle(once, idle_ms, || {
        let before = daemon.total_lines();
        for finding in daemon.poll() {
            outln!("{finding}");
        }
        for notice in daemon.take_notices() {
            outln!("{notice}");
        }
        Ok(daemon.total_lines() != before)
    })?;
    for finding in daemon.finalize() {
        outln!("{finding}");
    }
    for notice in daemon.take_notices() {
        outln!("{notice}");
    }
    for r in daemon.reports()? {
        let resumed = r
            .resumed_from
            .map(|s| format!(", resumed from seq {s}"))
            .unwrap_or_default();
        outln!(
            "\nmarket `{}`: {} workers, {} tasks, {} events{resumed}\n",
            r.market,
            r.workers,
            r.tasks,
            r.events
        );
        out!("{}", faircrowd::core::report::render_report(&r.report));
    }
    let failed = daemon.failed_markets();
    if !failed.is_empty() {
        let list = failed
            .iter()
            .map(|(m, e)| format!("`{m}`: {e}"))
            .collect::<Vec<_>>()
            .join("; ");
        return Err(FaircrowdError::persist(format!(
            "{} market stream(s) failed: {list}",
            failed.len()
        )));
    }
    Ok(())
}

fn sweep(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = SWEEP.parse(argv)?;
    let mut grid = SweepGrid::parse(args.value("--grid").unwrap_or("policy=*"))?;
    // --seed/--rounds/--strategy act as axis defaults when the grid
    // omits them.
    grid.seeds = grid.seeds.or(args.parsed("--seed")?.map(|seed| vec![seed]));
    grid.rounds = grid
        .rounds
        .or(args.parsed("--rounds")?.map(|rounds| vec![rounds]));
    if let Some(raw) = args
        .value("--strategy")
        .filter(|_| grid.strategies.is_none())
    {
        // Resolve now so a typo lists the registry before any
        // thread spawns, same as the grid's own axis validation.
        StrategyChoice::by_name(raw)?;
        grid.strategies = Some(vec![raw.to_owned()]);
    }
    let jobs = args.jobs()?;
    let out = args.value("--out");

    if let Some(spec) = args.value("--shard") {
        // Shard mode: results stream to the part file, formatting waits
        // for `merge`; stdout carries only the shard's tally.
        let spec = faircrowd::sweep::shard::ShardSpec::parse(spec)?;
        let Some(out) = out else {
            return Err(FaircrowdError::usage(
                "--shard requires --out FILE (the part file this shard appends to)",
            ));
        };
        if args.has("--format") {
            return Err(FaircrowdError::usage(
                "--format does not apply to a shard run: shards write part files; \
                 render with `faircrowd merge <part>...` once every shard finished",
            ));
        }
        let hook = progress_hook(&args, format!("shard {spec} "), grid.expand()?.len());
        let run = faircrowd::sweep::shard::run_shard_opts(
            &grid,
            spec,
            std::path::Path::new(out),
            jobs,
            true,
            hook.as_deref(),
        )?;
        outln!(
            "shard {spec}: {} of {} grid cell(s); {} ran, {} resumed -> {out}",
            run.shard_cells,
            run.total_cells,
            run.ran,
            run.resumed
        );
        return Ok(());
    }
    if out.is_some() {
        return Err(FaircrowdError::usage(
            "--out only applies to shard runs; pair it with --shard i/N",
        ));
    }

    let hook = progress_hook(&args, String::new(), grid.expand()?.len());
    let result = faircrowd::sweep::run_grid_observed(&grid, jobs, true, hook.as_deref())?;
    match args.value("--format") {
        Some("json") => out!("{}", result.to_json()),
        Some("csv") => out!("{}", result.to_csv()),
        _ => {
            outln!(
                "grid sweep: {} case(s) over {} cell(s), {jobs} job(s)\n",
                result.cases.len(),
                result.groups.len()
            );
            out!("{}", result.render_table());
        }
    }
    Ok(())
}

/// The `--progress` hook: one stderr line per completed cell.
type Progress = Box<dyn Fn(usize, &faircrowd::sweep::CaseOutcome) + Sync>;

fn progress_hook(args: &Args, tag: String, total: usize) -> Option<Progress> {
    let line = move |cell: usize, outcome: &faircrowd::sweep::CaseOutcome| {
        let case = &outcome.case;
        eprintln!(
            "[{tag}cell {}/{total}] scenario={} policy={} strategy={} seed={} scale={} rounds={} \
             enforce={} aggregator={}",
            cell + 1,
            case.scenario,
            case.policy_label,
            case.strategy_label,
            case.seed,
            case.scale,
            case.rounds,
            faircrowd::sweep::stack_label(&case.enforcements),
            case.aggregator_label
        );
    };
    args.has("--progress").then(|| Box::new(line) as Progress)
}

fn frontier_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = FRONTIER.parse(argv)?;
    let grid = faircrowd::frontier::frontier_grid(args.value("--grid").unwrap_or(""))?;
    let jobs = args.jobs()?;
    let hook = progress_hook(&args, String::new(), grid.expand()?.len());
    let result = faircrowd::frontier::run_frontier_observed(&grid, jobs, hook.as_deref())?;
    if args.value("--format") == Some("json") {
        out!("{}", result.to_json());
    } else {
        outln!(
            "policy frontier: {} point(s), {} on the Pareto frontier, {jobs} job(s)\n",
            result.points.len(),
            result.frontier().len()
        );
        out!("{}", result.render_table());
    }
    Ok(())
}

fn merge_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = MERGE.parse(argv)?;
    let paths: Vec<std::path::PathBuf> = args.operands.iter().map(Into::into).collect();
    let result = faircrowd::sweep::shard::merge_paths(&paths)?;
    match args.value("--format") {
        Some("json") => out!("{}", result.to_json()),
        Some("csv") => out!("{}", result.to_csv()),
        _ => {
            outln!(
                "grid merge: {} case(s) over {} cell(s), {} part(s)\n",
                result.cases.len(),
                result.groups.len(),
                paths.len()
            );
            out!("{}", result.render_table());
        }
    }
    Ok(())
}

fn policies(argv: &[String]) -> Result<(), FaircrowdError> {
    POLICIES.parse(argv)?;
    outln!("catalog policies (TPL sources in faircrowd-lang::catalog):\n");
    for (name, _) in catalog::sources() {
        let policy = catalog::get(name)?;
        let set = policy.disclosure_set();
        outln!(
            "  {:<16} rules {:>2}   axiom-6 {:>4.0}%   axiom-7 {:>4.0}%",
            policy.name,
            policy.rule_count(),
            set.axiom6_coverage() * 100.0,
            set.axiom7_coverage() * 100.0
        );
    }
    outln!("\nuse `faircrowd render <policy>` for the worker-facing description");
    Ok(())
}

fn render_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let policy = catalog::get(RENDER.parse(argv)?.operands[0])?;
    out!("{}", render::render_policy(&policy));
    outln!(
        "\ncanonical TPL source:\n\n{}",
        printer::print_policy(&policy)
    );
    Ok(())
}

fn compare_cmd(argv: &[String]) -> Result<(), FaircrowdError> {
    let args = COMPARE.parse(argv)?;
    let (pa, pb) = (
        catalog::get(args.operands[0])?,
        catalog::get(args.operands[1])?,
    );
    out!("{}", compare(&pa, &pb).render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn pipeline(verb: &Verb, args: &[String]) -> Result<Pipeline, FaircrowdError> {
        pipeline_from_flags(&verb.parse(args)?)
    }

    fn scenario(args: &[String]) -> Result<ScenarioConfig, FaircrowdError> {
        scenario_from_flags(&RUN.parse(args)?)
    }

    #[test]
    fn every_registry_name_builds_a_pipeline() {
        for name in registry::NAMES {
            let args = argv(&["--policy", name, "--rounds", "6"]);
            assert!(pipeline(&AUDIT, &args).is_ok(), "{name}");
        }
        // Hyphen spellings from the old CLI still resolve.
        let args = argv(&["--policy", "round-robin"]);
        assert!(pipeline(&AUDIT, &args).is_ok());
        let args = argv(&["--policy", "magic"]);
        assert!(matches!(
            pipeline(&AUDIT, &args),
            Err(FaircrowdError::UnknownPolicy { .. })
        ));
    }

    #[test]
    fn help_lists_every_registry_name() {
        // The help text is derived from the registries, so growing any
        // registry grows the help with it; this pins the wiring.
        let help = usage_text();
        for name in registry::NAMES {
            assert!(help.contains(name), "policy `{name}` missing from help");
        }
        for name in strategy::NAMES {
            assert!(help.contains(name), "strategy `{name}` missing from help");
        }
        for name in faircrowd::quality::aggregate::NAMES {
            assert!(help.contains(name), "aggregator `{name}` missing from help");
        }
        for name in scenarios::STATIC_NAMES
            .iter()
            .chain(scenarios::STRATEGIC_NAMES.iter())
        {
            assert!(help.contains(name), "scenario `{name}` missing from help");
        }
        assert!(help.contains("faircrowd frontier"));
        assert!(help.contains("| aggregator"));
    }

    #[test]
    fn unknown_names_report_their_registry() {
        // Unknown-name errors list the registry they searched, so the
        // user never has to guess the spelling.
        let Err(policy_err) = registry::by_name("magic") else {
            panic!("`magic` resolved to a policy");
        };
        let policy_err = policy_err.to_string();
        for name in registry::NAMES {
            assert!(policy_err.contains(name), "{policy_err}");
        }
        let agg_err = faircrowd::quality::AggregatorChoice::by_name("magic")
            .unwrap_err()
            .to_string();
        for name in faircrowd::quality::aggregate::NAMES {
            assert!(agg_err.contains(name), "{agg_err}");
        }
        let strat_err = StrategyChoice::by_name("magic").unwrap_err().to_string();
        for name in strategy::NAMES {
            assert!(strat_err.contains(name), "{strat_err}");
        }
    }

    #[test]
    fn frontier_rejects_flags_and_positionals_it_would_ignore() {
        for args in [
            argv(&["--shard", "0/2"]),
            argv(&["--out", "part.json"]),
            argv(&["--seed", "7"]),
        ] {
            let err = frontier_cmd(&args).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{args:?}");
            assert!(err.to_string().contains("--grid"), "{err}");
        }
        let err = frontier_cmd(&argv(&["policy=kos"])).unwrap_err();
        assert!(err.to_string().contains("`policy=kos`"), "{err}");
        let err = frontier_cmd(&argv(&["--grid", "orbit=1"])).unwrap_err();
        assert!(err.to_string().contains("orbit"), "{err}");
        let err = frontier_cmd(&argv(&["--grid", "rounds=6", "--format", "csv"])).unwrap_err();
        assert!(err.to_string().contains("table | json"), "{err}");
    }

    #[test]
    fn flag_value_extracts_pairs() {
        let args = argv(&["--seed", "7", "--policy", "kos"]);
        let parsed = RUN.parse(&args).unwrap();
        assert_eq!(parsed.value("--seed"), Some("7"));
        assert_eq!(parsed.value("--policy"), Some("kos"));
        assert_eq!(parsed.value("--rounds"), None);
        // A flag dangling at the end of the line is an error, not a
        // silent fall-back to the default.
        let dangling = argv(&["--seed"]);
        assert!(matches!(
            RUN.parse(&dangling),
            Err(FaircrowdError::Usage { .. })
        ));
    }

    #[test]
    fn sweep_rejects_flags_it_would_ignore() {
        for args in [
            argv(&["--opaque"]),
            argv(&["--workers", "10"]),
            argv(&["--scenario", "spam_campaign"]),
            argv(&["--enforce", "parity"]),
        ] {
            let err = sweep(&args).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{args:?}");
            assert!(err.to_string().contains("--grid"), "{err}");
        }
    }

    #[test]
    fn sweep_rejects_a_bare_positional_grid_spec() {
        // Forgetting `--grid` must not silently sweep the default grid.
        let err = sweep(&argv(&["seed=1..4;enforce=parity"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(
            err.to_string().contains("seed=1..4;enforce=parity"),
            "{err}"
        );
        assert!(err.to_string().contains("--grid"), "{err}");
        // Flag values are not positionals.
        let err = sweep(&argv(&["--jobs", "2", "extra"])).unwrap_err();
        assert!(err.to_string().contains("`extra`"), "{err}");
    }

    #[test]
    fn sweep_shard_flags_validate() {
        // --shard without --out has nowhere to persist cells.
        let err = sweep(&argv(&["--shard", "1/2"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("--out"), "{err}");
        // --format belongs to merge, not to a shard run.
        let err = sweep(&argv(&[
            "--shard", "1/2", "--out", "p.json", "--format", "json",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("merge"), "{err}");
        // Malformed shard specs name the expected form.
        let err = sweep(&argv(&["--shard", "3/2", "--out", "p.json"])).unwrap_err();
        assert!(err.to_string().contains("i/N"), "{err}");
        // --out without --shard is not an export flag here.
        let err = sweep(&argv(&["--out", "p.json"])).unwrap_err();
        assert!(err.to_string().contains("--shard"), "{err}");
    }

    #[test]
    fn merge_rejects_empty_and_unknown_flags() {
        let err = merge_cmd(&argv(&[])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("merge <part.json>"), "{err}");
        let err = merge_cmd(&argv(&["p.json", "--jobs", "2"])).unwrap_err();
        assert!(err.to_string().contains("--jobs"), "{err}");
        let err = merge_cmd(&argv(&["p.json", "--format", "yaml"])).unwrap_err();
        let text = err.to_string();
        // Either the missing file or the bad format may surface first;
        // both must be usage-shaped, never a panic.
        assert!(text.contains("yaml") || text.contains("p.json"), "{text}");
    }

    #[test]
    fn default_market_is_the_catalog_baseline() {
        let config = scenario(&[]).unwrap();
        assert_eq!(config, scenarios::get("baseline").unwrap());
        // --workers only resizes the baseline's population.
        let config = scenario(&argv(&["--workers", "12"])).unwrap();
        assert_eq!(config.workers[0].count, 12);
    }

    #[test]
    fn enforcements_parse_and_reject() {
        assert_eq!(
            Enforcement::parse("parity").unwrap(),
            Enforcement::ExposureParity
        );
        assert_eq!(
            Enforcement::parse("floor:5").unwrap(),
            Enforcement::ExposureFloor(5)
        );
        assert_eq!(
            Enforcement::parse("transparency").unwrap(),
            Enforcement::MinimalTransparency
        );
        assert_eq!(
            Enforcement::parse("grace").unwrap(),
            Enforcement::GraceFinish
        );
        assert!(Enforcement::parse("floor:x").is_err());
        assert!(Enforcement::parse("magic").is_err());
    }

    #[test]
    fn scenario_flag_selects_catalog_presets() {
        // A preset keeps its own seed/rounds when flags are absent…
        let args = argv(&["--scenario", "worker_churn"]);
        let config = scenario(&args).unwrap();
        assert_eq!(config.rounds, 60);
        // …and explicit flags still win.
        let args = argv(&[
            "--scenario",
            "worker-churn",
            "--rounds",
            "12",
            "--seed",
            "7",
        ]);
        let config = scenario(&args).unwrap();
        assert_eq!(config.rounds, 12);
        assert_eq!(config.seed, 7);
        // Unknown names list the catalog.
        let args = argv(&["--scenario", "atlantis"]);
        match scenario(&args) {
            Err(FaircrowdError::UnknownScenario { available, .. }) => {
                assert_eq!(available.len(), scenarios::NAMES.len());
            }
            other => panic!("wrong result: {other:?}"),
        }
    }

    #[test]
    fn strategy_flag_resolves_conflicts_and_rejects_unknowns() {
        // Override on a static-family base (including the flag-built
        // default) is the point of the flag…
        let config = scenario(&argv(&["--strategy", "super_turker"])).unwrap();
        assert_eq!(config.strategy, StrategyChoice::SuperTurker);
        // …hyphen spellings canonicalise like policies/scenarios…
        let config = scenario(&argv(&[
            "--scenario",
            "baseline",
            "--strategy",
            "Super-Turker",
        ]))
        .unwrap();
        assert_eq!(config.strategy, StrategyChoice::SuperTurker);
        // …a strategic scenario's baked-in profile cannot be overridden…
        let err = scenario(&argv(&[
            "--scenario",
            "price_war",
            "--strategy",
            "super_turker",
        ]))
        .unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("price_war"), "{err}");
        assert!(err.to_string().contains("price_undercut"), "{err}");
        // …and unknown names list the registry instead of falling
        // through to the default.
        let err = scenario(&argv(&["--strategy", "chaos_monkey"])).unwrap_err();
        match err {
            FaircrowdError::UnknownStrategy { available, .. } => {
                assert_eq!(available.len(), strategy::NAMES.len());
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn converge_cmd_validates_flags_and_runs() {
        let err = converge_cmd(&argv(&["--trace", "t.json"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        let err = converge_cmd(&argv(&["--live"])).unwrap_err();
        assert!(err.to_string().contains("faircrowd run"), "{err}");
        let err = converge_cmd(&argv(&["--tolerance", "-1", "--rounds", "6"])).unwrap_err();
        assert!(err.to_string().contains("tolerance"), "{err}");
        let err = converge_cmd(&argv(&["--max-iters", "0"])).unwrap_err();
        assert!(
            err.to_string().contains("expected a positive integer"),
            "{err}"
        );
        // A strategic scenario settles end to end through the verb.
        converge_cmd(&argv(&["--scenario", "super_turkers", "--rounds", "8"])).unwrap();
    }

    #[test]
    fn sweep_accepts_a_strategy_default_flag() {
        // The flag acts as an axis default, like --seed/--rounds; a
        // typo errors before any cell runs.
        let err = sweep(&argv(&["--strategy", "chaos_monkey"])).unwrap_err();
        assert!(
            matches!(err, FaircrowdError::UnknownStrategy { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn repeated_enforce_flags_accumulate() {
        let args = argv(&["--enforce", "parity", "--rounds", "6", "--enforce", "grace"]);
        let pipeline = pipeline(&RUN, &args).unwrap();
        let result = pipeline.run().unwrap();
        assert_eq!(result.enforced.unwrap().applied.len(), 2);
    }

    #[test]
    fn audit_rejects_enforce_instead_of_ignoring_it() {
        let args = argv(&["--enforce", "parity"]);
        let err = pipeline(&AUDIT, &args).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        assert!(err.to_string().contains("faircrowd run"));
    }

    #[test]
    fn market_verbs_reject_unknown_flags_and_stray_arguments() {
        type Verb = fn(&[String]) -> Result<(), FaircrowdError>;
        let verbs: [(&str, Verb); 4] = [
            ("run", |a| run_cmd(a, true)),
            ("audit", |a| run_cmd(a, false)),
            ("export", export_cmd),
            ("converge", converge_cmd),
        ];
        for (verb, cmd) in verbs {
            // A typo'd flag is named, never run as the default market.
            let err = cmd(&argv(&["--sacle", "4", "--out", "x.jsonl"])).unwrap_err();
            assert!(
                matches!(err, FaircrowdError::Usage { .. }),
                "{verb}: {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains("unknown flag `--sacle`"), "{verb}: {msg}");
            assert!(
                msg.contains(&format!("`faircrowd {verb}`")),
                "{verb}: {msg}"
            );
            assert!(msg.contains("--scenario"), "{verb} lists its flags: {msg}");
            // So is a bare argument that is no flag's value.
            let err = cmd(&argv(&["--rounds", "6", "kos"])).unwrap_err();
            assert!(
                err.to_string().contains("unexpected argument `kos`"),
                "{verb}: {err}"
            );
        }
        // Flag values are not mistaken for flags or stray arguments.
        let err = run_cmd(&argv(&["--polcy", "kos"]), true).unwrap_err();
        assert!(err.to_string().contains("`--polcy`"), "{err}");
        let err = export_cmd(&argv(&["--seed", "3", "--opaque", "--rounds", "2"])).unwrap_err();
        assert!(
            err.to_string().contains("--out"),
            "still asks for --out: {err}"
        );
    }

    #[test]
    fn bad_numeric_flags_are_usage_errors() {
        let args = argv(&["--seed", "pony"]);
        assert!(matches!(scenario(&args), Err(FaircrowdError::Usage { .. })));
    }

    #[test]
    fn export_requires_out_and_replay_requires_a_path() {
        let err = export_cmd(&argv(&["--rounds", "6"])).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        let err = replay_cmd(&[]).unwrap_err();
        assert!(err.to_string().contains("replay <trace-file>"), "{err}");
    }

    #[test]
    fn trace_flag_rejects_conflicts_instead_of_ignoring_them() {
        // `run` never replays…
        let err = run_cmd(&argv(&["--trace", "t.json"]), true).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        // …and a recorded trace can't be combined with market flags…
        let err = run_cmd(&argv(&["--trace", "t.json", "--seed", "7"]), false).unwrap_err();
        assert!(err.to_string().contains("--seed"), "{err}");
        assert!(err.to_string().contains("--trace"), "{err}");
        // …or with --enforce (repairs can't apply to a finished run) —
        // rejected, not silently dropped.
        let err = run_cmd(&argv(&["--trace", "t.json", "--enforce", "parity"]), false).unwrap_err();
        assert!(err.to_string().contains("--enforce"), "{err}");
        // `replay` takes exactly one path; extras are rejected too.
        let err = replay_cmd(&argv(&["t.json", "--seed", "7"])).unwrap_err();
        assert!(err.to_string().contains("--seed"), "{err}");
        let err = replay_cmd(&argv(&["--trace", "t.json", "extra"])).unwrap_err();
        assert!(err.to_string().contains("extra"), "{err}");
    }

    #[test]
    fn export_then_audit_trace_roundtrips() {
        let path = std::env::temp_dir().join("fc_cli_roundtrip.trace.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        export_cmd(&argv(&[
            "--rounds",
            "6",
            "--workers",
            "8",
            "--out",
            &path_str,
        ]))
        .unwrap();
        run_cmd(&argv(&["--trace", &path_str]), false).unwrap();
        replay_cmd(&argv(&[&path_str])).unwrap();
        watch_cmd(&argv(&[&path_str, "--once"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_live_streams_and_reports() {
        run_cmd(&argv(&["--rounds", "6", "--workers", "8", "--live"]), true).unwrap();
        // --live cannot combine with --enforce (repairs re-simulate)…
        let err = run_cmd(
            &argv(&["--live", "--enforce", "parity", "--rounds", "6"]),
            true,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--live"), "{err}");
        // …nor with `audit` (which replays or simulates a finished log).
        let err = run_cmd(&argv(&["--live", "--rounds", "6"]), false).unwrap_err();
        assert!(err.to_string().contains("watch"), "{err}");
        // …and a recorded trace is watched, not run live.
        let err = run_cmd(&argv(&["--trace", "t.jsonl", "--live"]), false).unwrap_err();
        assert!(err.to_string().contains("--live"), "{err}");
    }

    #[test]
    fn watch_arguments_are_validated() {
        let err = watch_cmd(&[]).unwrap_err();
        assert!(err.to_string().contains("watch <trace.jsonl>"), "{err}");
        let err = watch_cmd(&argv(&["a.jsonl", "b.jsonl"])).unwrap_err();
        assert!(err.to_string().contains("exactly"), "{err}");
        let err = watch_cmd(&argv(&["a.jsonl", "--follow-forever"])).unwrap_err();
        assert!(err.to_string().contains("--follow-forever"), "{err}");
        let err = watch_cmd(&argv(&["/no/such/fc_trace.jsonl", "--once"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
    }

    #[test]
    fn watch_rejects_whole_file_json_with_guidance() {
        let path = std::env::temp_dir().join("fc_cli_watch_wrongformat.trace.json");
        let path_str = path.to_str().unwrap().to_owned();
        export_cmd(&argv(&[
            "--rounds",
            "6",
            "--workers",
            "6",
            "--out",
            &path_str,
        ]))
        .unwrap();
        let err = watch_cmd(&argv(&[&path_str, "--once"])).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("replay") || text.contains("header"),
            "must point at replay for whole-file JSON: {text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn watch_names_the_line_that_broke_monotonicity() {
        // A stream whose event seqs go sparse mid-file: watch must name
        // the file line and the offending seq, not just fail wholesale.
        let path = std::env::temp_dir().join("fc_cli_watch_sparse.trace.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        export_cmd(&argv(&[
            "--rounds",
            "6",
            "--workers",
            "6",
            "--out",
            &path_str,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let target = lines
            .iter()
            .position(|l| l.contains("\"seq\":3,"))
            .expect("an event with seq 3 exists");
        lines[target] = lines[target].replacen("\"seq\":3,", "\"seq\":9,", 1);
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = watch_cmd(&argv(&[&path_str, "--once"])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&format!("line {}", target + 1)), "{msg}");
        assert!(msg.contains("seq 9"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_of_missing_file_is_a_clean_error() {
        let err = replay_cmd(&argv(&["/no/such/fc_trace.json"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
    }

    #[test]
    fn positive_flag_accepts_counts_and_rejects_the_rest() {
        let jobs = |args: &[String]| SWEEP.parse(args)?.positive("--jobs", 4);
        assert_eq!(jobs(&[]).unwrap(), 4);
        let args = argv(&["--jobs", "8"]);
        assert_eq!(jobs(&args).unwrap(), 8);
        // Zero, negatives and non-numerics all get the same wording.
        for bad in ["0", "-3", "many", "1.5", ""] {
            let args = argv(&["--jobs", bad]);
            let err = jobs(&args).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{bad}");
            assert!(
                err.to_string().contains("expected a positive integer"),
                "{err}"
            );
        }
        // A dangling flag is still the parser's error.
        let err = jobs(&argv(&["--jobs"])).unwrap_err();
        assert!(err.to_string().contains("requires a value"), "{err}");
    }

    #[test]
    fn count_flags_error_uniformly_across_verbs() {
        let err = sweep(&argv(&["--jobs", "0"])).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
        let err = watch_cmd(&argv(&["t.jsonl", "--idle-ms", "soon"])).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
        let err = serve_cmd(&argv(&["/tmp", "--checkpoint-every", "0"])).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
    }

    #[test]
    fn serve_arguments_are_validated() {
        let err = serve_cmd(&[]).unwrap_err();
        assert!(err.to_string().contains("serve <dir>"), "{err}");
        let err = serve_cmd(&argv(&["a", "b"])).unwrap_err();
        assert!(err.to_string().contains("exactly"), "{err}");
        let err = serve_cmd(&argv(&["a", "--daemonize"])).unwrap_err();
        assert!(err.to_string().contains("--daemonize"), "{err}");
        let err = serve_cmd(&argv(&["/no/such/fc_serve_dir"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
        // A directory with no .jsonl streams is named, not silently idle.
        let empty = std::env::temp_dir().join("fc_cli_serve_empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = serve_cmd(&argv(&[empty.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("no `<market>.jsonl`"), "{err}");
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn watch_checkpoint_every_requires_checkpoint() {
        let err = watch_cmd(&argv(&["t.jsonl", "--checkpoint-every", "5"])).unwrap_err();
        assert!(err.to_string().contains("--checkpoint FILE"), "{err}");
    }

    #[test]
    fn serve_audits_exported_markets_end_to_end() {
        let dir = std::env::temp_dir().join(format!("fc_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (market, seed) in [("alpha", "1"), ("beta", "2")] {
            let out = dir.join(format!("{market}.jsonl"));
            export_cmd(&argv(&[
                "--rounds",
                "6",
                "--workers",
                "8",
                "--seed",
                seed,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let ckpt = dir.join("ckpts");
        let args = argv(&[
            dir.to_str().unwrap(),
            "--once",
            "--jobs",
            "2",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]);
        serve_cmd(&args).unwrap();
        // The cadence wrote a checkpoint per market; a rerun resumes
        // from them (end-of-stream state) and still closes cleanly.
        assert!(ckpt.join("alpha.checkpoint.json").exists());
        assert!(ckpt.join("beta.checkpoint.json").exists());
        serve_cmd(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_checkpoint_restart_completes_the_stream() {
        let dir = std::env::temp_dir().join(format!("fc_cli_watchck_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("m.jsonl");
        export_cmd(&argv(&[
            "--rounds",
            "6",
            "--workers",
            "8",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let full = std::fs::read_to_string(&trace_path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        let cut = lines.len() * 2 / 3;
        let half_path = dir.join("half.jsonl");
        std::fs::write(&half_path, format!("{}\n", lines[..cut].join("\n"))).unwrap();
        let ck = dir.join("m.checkpoint.json");
        // First life over the truncated stream writes a checkpoint…
        watch_cmd(&argv(&[
            half_path.to_str().unwrap(),
            "--once",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]))
        .unwrap();
        assert!(ck.exists());
        // …and the restart over the complete stream resumes from it.
        std::fs::write(&half_path, &full).unwrap();
        watch_cmd(&argv(&[
            half_path.to_str().unwrap(),
            "--once",
            "--checkpoint",
            ck.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every verb with a flag table, for the table-wide checks.
    const VERBS: [&Verb; 15] = [
        &AXIOMS, &RUN, &AUDIT, &CONVERGE, &EXPORT, &REPLAY, &WATCH, &SERVE, &SWEEP, &FRONTIER,
        &MERGE, &SCENARIOS, &POLICIES, &RENDER, &COMPARE,
    ];

    #[test]
    fn flag_tables_match_help_and_unknown_flag_errors() {
        let help = usage_text();
        for verb in VERBS {
            let accepted: Vec<&str> = verb.accepted().map(|f| f.name).collect();
            for flag in verb.accepted() {
                assert!(
                    help.contains(&flag.head()),
                    "{}: `{}`",
                    verb.name,
                    flag.head()
                );
            }
            let err = verb
                .parse(&argv(&["--no-such-flag"]))
                .unwrap_err()
                .to_string();
            let listed: Vec<&str> = err
                .split("supported: ")
                .nth(1)
                .map(|list| {
                    list.split_whitespace()
                        .take_while(|w| w.starts_with("--"))
                        .collect()
                })
                .unwrap_or_default();
            assert_eq!(listed, accepted, "{}: {err}", verb.name);
        }
    }

    #[test]
    fn repeated_single_value_flags_are_usage_errors() {
        type Verb = fn(&[String]) -> Result<(), FaircrowdError>;
        let cases: [(&str, Verb, &[&str]); 8] = [
            (
                "--seed",
                |a| run_cmd(a, true),
                &["--seed", "1", "--seed", "2"],
            ),
            (
                "--rounds",
                |a| run_cmd(a, false),
                &["--rounds", "2", "--rounds", "3"],
            ),
            (
                "--opaque",
                export_cmd,
                &["--opaque", "--out", "x.jsonl", "--opaque"],
            ),
            ("--gain", converge_cmd, &["--gain", "0.5", "--gain", "0.9"]),
            (
                "--idle-ms",
                watch_cmd,
                &["/no/such.jsonl", "--idle-ms", "5", "--idle-ms", "6"],
            ),
            (
                "--jobs",
                serve_cmd,
                &["/no/such_dir", "--jobs", "1", "--jobs", "2"],
            ),
            (
                "--jobs",
                sweep,
                &[
                    "--grid",
                    "policy=kos;rounds=2",
                    "--jobs",
                    "2",
                    "--jobs",
                    "1",
                ],
            ),
            (
                "--format",
                merge_cmd,
                &["/no/such.json", "--format", "json", "--format", "csv"],
            ),
        ];
        for (flag, cmd, args) in cases {
            let err = cmd(&argv(args)).unwrap_err();
            assert!(
                matches!(err, FaircrowdError::Usage { .. }),
                "{args:?}: {err:?}"
            );
            assert!(
                err.to_string().contains(&format!("`{flag}` given twice")),
                "{err}"
            );
        }
        let err = frontier_cmd(&argv(&["--grid", "rounds=2", "--grid", "rounds=3"])).unwrap_err();
        assert!(err.to_string().contains("`--grid` given twice"), "{err}");
        // `--enforce` is the one repeatable flag.
        let args = argv(&["--enforce", "parity", "--enforce", "grace"]);
        assert_eq!(RUN.parse(&args).unwrap().all("--enforce").count(), 2);
    }

    #[test]
    fn fixed_set_values_are_checked_before_any_work() {
        // The format error wins over the missing part file…
        let err = merge_cmd(&argv(&["no-such-part.json", "--format", "yaml"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("`yaml`"), "{err}");
        assert!(err.to_string().contains("table | json | csv"), "{err}");
        // …and a 100,001-cell grid never starts.
        let started = std::time::Instant::now();
        let err = sweep(&argv(&["--grid", "seed=0..100000", "--format", "yaml"])).unwrap_err();
        assert!(err.to_string().contains("`yaml`"), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn ignored_arguments_are_rejected() {
        let err = serve_cmd(&argv(&["/no/such_dir", "--checkpoint-every", "5"])).unwrap_err();
        assert!(
            err.to_string()
                .contains("--checkpoint-every requires --checkpoint-dir"),
            "{err}"
        );
        let err = render_cmd(&argv(&["amt", "extra", "junk"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(
            err.to_string().contains("unexpected argument `extra`"),
            "{err}"
        );
        let err = compare_cmd(&argv(&["amt", "mobileworks", "faircrowd-full"])).unwrap_err();
        assert!(
            err.to_string()
                .contains("unexpected argument `faircrowd-full`"),
            "{err}"
        );
        let err = render_cmd(&argv(&["amt", "--json"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag `--json`"), "{err}");
        type Verb = fn(&[String]) -> Result<(), FaircrowdError>;
        for cmd in [axioms as Verb, scenarios_cmd, policies] {
            let err = cmd(&argv(&["extra"])).unwrap_err();
            assert!(
                err.to_string().contains("unexpected argument `extra`"),
                "{err}"
            );
            let err = cmd(&argv(&["--format", "json"])).unwrap_err();
            assert!(err.to_string().contains("unknown flag `--format`"), "{err}");
        }
    }
}
