//! `replay` — command-line driver for the rePLay reproduction.
//!
//! ```text
//! replay workloads                          list the synthetic workload suite
//! replay gen <workload> -o FILE [-n N] [-s SEG]
//!                                           generate a trace file
//! replay sim <workload|FILE> [-c CFG] [-n N] [--verify]
//!                                           simulate one configuration
//! replay compare <workload|FILE> [-n N]     all four configurations side by side
//! replay report <workload|FILE> --json FILE emit the structured profile artifact
//! replay serve [--addr ADDR] [-j N]         TCP simulation service (bounded
//!                                           queue, shedding, graceful drain)
//! replay submit <workload|FILE> [--addr ADDR]
//!                                           send a request to a running server
//! replay frames <workload> [-n N] [--top K] inspect the most-optimized frames
//! replay check [--cases N] [--seed S] [--passes all|pipeline|<list>]
//!                                           property-check the optimizer
//! replay clone --from-profile SRC [-n N]    synthesize a workload matching a
//!                                           target statistical profile
//! replay sweep [--corner NAME] [--out FILE] stress-sweep generator corners,
//!                                           record where the RPO gain collapses
//! ```

use replay_core::{optimize, AliasProfile, OptConfig};
use replay_frame::{ConstructorConfig, FrameConstructor, RetireEvent};
use replay_sim::experiment;
use replay_sim::{out, outln, parallel, simulate, ConfigKind, CoreModel, SimConfig, TraceStore};
use replay_timing::CycleBin;
use replay_trace::{read_trace, workloads, write_trace, Trace, Workload};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("workloads") => cmd_workloads(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("frames") => cmd_frames(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("clone") => cmd_clone(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (try `replay help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Word-wraps `text` to `width` columns, prefixing every line with
/// `indent`. A `[--flag VALUE]` bracket group counts as one word so a
/// flag is never split from its metavar across lines. Purely cosmetic —
/// the content comes from [`CmdSpec`].
fn wrap(text: &str, indent: &str, width: usize) -> String {
    let mut words: Vec<String> = Vec::new();
    for piece in text.split_whitespace() {
        match words.last_mut() {
            // Re-join an unbalanced bracket group with its continuation.
            Some(prev) if prev.matches('[').count() > prev.matches(']').count() => {
                prev.push(' ');
                prev.push_str(piece);
            }
            _ => words.push(piece.to_string()),
        }
    }
    let mut out = String::new();
    let mut col = 0;
    for word in words {
        if col == 0 {
            out.push_str(indent);
            col = indent.len();
        } else if col + 1 + word.len() > width {
            out.push('\n');
            out.push_str(indent);
            out.push_str("  ");
            col = indent.len() + 2;
        } else {
            out.push(' ');
            col += 1;
        }
        out.push_str(&word);
        col += word.len();
    }
    out
}

fn print_usage() {
    outln!("replay — Dynamic Optimization of Micro-Operations (HPCA 2003) reproduction\n");
    outln!("USAGE:");
    // Generated from the same CmdSpecs the parser validates against:
    // the synopsis line is CmdSpec::usage() minus the "usage: " prefix.
    for spec in ALL_SPECS {
        let synopsis = spec.usage();
        let synopsis = synopsis.strip_prefix("usage: ").unwrap_or(&synopsis);
        outln!("{}", wrap(synopsis, "  ", 78));
        outln!("{}", wrap(spec.about, "      ", 78));
    }
    outln!(
        "
Parallelism: --jobs/--threads N (or the REPLAY_JOBS environment variable)
sets the worker count; the default is the machine's available parallelism
and 1 forces the legacy serial path. Results are identical at any count.

Persistent store: sim, compare, report, serve, clone, and sweep cache
synthesized traces under .replay-cache/ so warm reruns skip synthesis
with bit-identical results. --cache-dir DIR (or REPLAY_CACHE_DIR) moves
the cache; --no-store (or REPLAY_NO_STORE) disables it. Corrupt cache
artifacts are evicted and regenerated."
    );
}

/// One option in a subcommand's vocabulary: every accepted spelling
/// (without leading dashes; one-character names are `-x` short options)
/// and the metavar its value is rendered as in usage text (`FILE`, `N`;
/// empty for boolean flags that consume no value).
struct FlagSpec {
    names: &'static [&'static str],
    value: &'static str,
    required: bool,
}

impl FlagSpec {
    fn takes_value(&self) -> bool {
        !self.value.is_empty()
    }

    /// The canonical spelling with dashes: `-n` or `--jobs`.
    fn dashed(&self) -> String {
        dashed(self.names[0])
    }
}

/// An option name with its dashes: `-x` for one character, `--name`
/// otherwise.
fn dashed(name: &str) -> String {
    if name.len() == 1 {
        format!("-{name}")
    } else {
        format!("--{name}")
    }
}

const fn flag(names: &'static [&'static str], value: &'static str) -> FlagSpec {
    FlagSpec {
        names,
        value,
        required: false,
    }
}

const fn req_flag(names: &'static [&'static str], value: &'static str) -> FlagSpec {
    FlagSpec {
        names,
        value,
        required: true,
    }
}

/// The shared `--jobs N` / `--threads N` / `-j N` worker-count option.
const JOBS_FLAG: FlagSpec = flag(&["jobs", "threads", "j"], "N");

/// The shared persistent-store options: `--cache-dir DIR` overrides the
/// default `.replay-cache` artifact directory, `--no-store` disables the
/// store for this invocation.
const CACHE_DIR_FLAG: FlagSpec = flag(&["cache-dir"], "DIR");
const NO_STORE_FLAG: FlagSpec = flag(&["no-store"], "");

/// The shared `--core-model MODEL` execution-core selector (`generic` or
/// `port`; see `replay-timing`'s `ports` module).
const CORE_MODEL_FLAG: FlagSpec = flag(&["core-model"], "MODEL");

/// A subcommand's full option vocabulary. [`Opts::parse`] rejects any
/// option outside it, naming the valid set — a misspelled flag (`--case`
/// for `--cases`) is an error, never a silent no-op. Usage text (both
/// the `help` screen and per-command usage errors) is *generated* from
/// this spec by [`CmdSpec::usage`], so the vocabulary the parser accepts
/// and the vocabulary the help advertises cannot diverge.
struct CmdSpec {
    name: &'static str,
    /// Positional arguments, rendered verbatim: `"<workload|FILE>"`.
    positional: &'static str,
    /// One-line description for the `help` screen.
    about: &'static str,
    flags: &'static [FlagSpec],
}

impl CmdSpec {
    fn lookup(&self, name: &str) -> Option<&FlagSpec> {
        self.flags.iter().find(|f| f.names.contains(&name))
    }

    /// The full synopsis, generated from the spec: every flag appears
    /// under its canonical spelling with its metavar, optional ones in
    /// brackets. This string *is* the usage error — there is no
    /// hand-maintained copy to drift out of date.
    fn usage(&self) -> String {
        let mut s = format!("usage: replay {}", self.name);
        if !self.positional.is_empty() {
            s.push(' ');
            s.push_str(self.positional);
        }
        for f in self.flags {
            s.push(' ');
            if !f.required {
                s.push('[');
            }
            s.push_str(&f.dashed());
            if f.takes_value() {
                s.push(' ');
                s.push_str(f.value);
            }
            if !f.required {
                s.push(']');
            }
        }
        s
    }

    /// Human-readable rendering of every accepted option, for error
    /// messages: `--jobs/--threads/-j N, --profile, ...`.
    fn valid_set(&self) -> String {
        if self.flags.is_empty() {
            return "none".into();
        }
        self.flags
            .iter()
            .map(|f| {
                let spellings: Vec<String> = f.names.iter().map(|n| dashed(n)).collect();
                let mut s = spellings.join("/");
                if f.takes_value() {
                    s.push(' ');
                    s.push_str(f.value);
                }
                s
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn unknown(&self, given: &str) -> String {
        format!(
            "unknown option {given:?} for `replay {}` (valid options: {})",
            self.name,
            self.valid_set()
        )
    }
}

const SPEC_WORKLOADS: CmdSpec = CmdSpec {
    name: "workloads",
    positional: "",
    about: "list the synthetic workload suite (Table 1 of the paper)",
    flags: &[],
};
const SPEC_GEN: CmdSpec = CmdSpec {
    name: "gen",
    positional: "<workload>",
    about: "generate and save a trace file",
    flags: &[
        req_flag(&["o", "out"], "FILE"),
        flag(&["n"], "N"),
        flag(&["s"], "SEG"),
    ],
};
const SPEC_SIM: CmdSpec = CmdSpec {
    name: "sim",
    positional: "<workload|FILE>",
    about: "simulate one configuration (CFG: IC, TC, RP, RPO; default RPO)",
    flags: &[
        flag(&["c"], "CFG"),
        flag(&["n"], "N"),
        CORE_MODEL_FLAG,
        flag(&["verify"], ""),
        flag(&["profile"], ""),
        flag(&["timings"], ""),
        CACHE_DIR_FLAG,
        NO_STORE_FLAG,
    ],
};
const SPEC_COMPARE: CmdSpec = CmdSpec {
    name: "compare",
    positional: "<workload|FILE>",
    about: "all four configurations side by side",
    flags: &[
        flag(&["n"], "N"),
        JOBS_FLAG,
        CORE_MODEL_FLAG,
        flag(&["profile"], ""),
        flag(&["timings"], ""),
        CACHE_DIR_FLAG,
        NO_STORE_FLAG,
    ],
};
const SPEC_FRAMES: CmdSpec = CmdSpec {
    name: "frames",
    positional: "<workload>",
    about: "show the most-optimized frames",
    flags: &[flag(&["n"], "N"), flag(&["top", "t"], "K")],
};
const SPEC_CHECK: CmdSpec = CmdSpec {
    name: "check",
    positional: "",
    about: "differential property check of the optimizer; replays tests/corpus/ \
            and persists shrunk counterexamples there (--faults: plant known \
            bug species and verify the oracle detects every kind)",
    flags: &[
        flag(&["cases"], "N"),
        flag(&["seed"], "S"),
        flag(&["passes"], "all|pipeline|CSV"),
        flag(&["corpus"], "DIR"),
        flag(&["entries"], "K"),
        JOBS_FLAG,
        flag(&["faults"], ""),
        flag(&["no-shrink"], ""),
    ],
};
const SPEC_INFO: CmdSpec = CmdSpec {
    name: "info",
    positional: "<workload|FILE>",
    about: "trace statistics (mix, branches, footprint)",
    flags: &[flag(&["n"], "N")],
};
const SPEC_DISASM: CmdSpec = CmdSpec {
    name: "disasm",
    positional: "<workload>",
    about: "disassemble a workload's program image",
    flags: &[flag(&["s"], "SEG")],
};
const SPEC_REPORT: CmdSpec = CmdSpec {
    name: "report",
    positional: "<workload|FILE>",
    about: "run all four configurations and emit the structured observability \
            profile (replay-report/v3 JSON; stdout or FILE)",
    flags: &[
        flag(&["n"], "N"),
        JOBS_FLAG,
        CORE_MODEL_FLAG,
        flag(&["json"], "FILE"),
        flag(&["timings"], ""),
        CACHE_DIR_FLAG,
        NO_STORE_FLAG,
    ],
};

const SPEC_SERVE: CmdSpec = CmdSpec {
    name: "serve",
    positional: "",
    about: "run the TCP simulation service, one standalone process: runs each \
            submitted request on the shared worker pool and answers it with the \
            replay-report/v3 bytes a local `replay report --json` would produce",
    flags: &[
        flag(&["addr"], "ADDR"),
        JOBS_FLAG,
        flag(&["max-conns"], "N"),
        flag(&["work-queue"], "N"),
        CACHE_DIR_FLAG,
        NO_STORE_FLAG,
    ],
};
const SPEC_SUBMIT: CmdSpec = CmdSpec {
    name: "submit",
    positional: "<workload|FILE>",
    about: "submit a simulation request to one running `replay serve` (--addr \
            takes a single host:port) and write the report it returns (retries \
            overload and drain answers with seeded backoff)",
    flags: &[
        flag(&["addr"], "ADDR"),
        flag(&["n"], "N"),
        flag(&["json"], "FILE"),
        flag(&["timings"], ""),
        flag(&["retries"], "K"),
        flag(&["seed"], "S"),
        flag(&["deadline-ms"], "MS"),
    ],
};

const SPEC_CLONE: CmdSpec = CmdSpec {
    name: "clone",
    positional: "",
    about: "synthesize a workload whose measured profile matches a target drawn \
            from SRC (a workload name or trace file) within tolerance — \
            deterministic seeded hill-climb, bit-identical at any --jobs \
            (emits a replay-clone/v1 JSON artifact with --json)",
    flags: &[
        req_flag(&["from-profile"], "SRC"),
        flag(&["n"], "N"),
        flag(&["seed"], "S"),
        flag(&["tol"], "T"),
        flag(&["iters"], "K"),
        flag(&["candidates"], "K"),
        flag(&["o", "out"], "FILE"),
        flag(&["json"], "FILE"),
        JOBS_FLAG,
        CACHE_DIR_FLAG,
        NO_STORE_FLAG,
    ],
};
const SPEC_SWEEP: CmdSpec = CmdSpec {
    name: "sweep",
    positional: "",
    about: "walk generator parameters toward pathological corners (CORNER: \
            assert-storm, alias-heavy, predictor-hostile, all) and record \
            where the RPO IPC gain collapses below the floor (replay-clone/v1 \
            JSON artifact with --out)",
    flags: &[
        flag(&["corner"], "CORNER"),
        flag(&["steps"], "K"),
        flag(&["n"], "N"),
        flag(&["seed"], "S"),
        flag(&["gain-floor"], "PCT"),
        flag(&["out", "o"], "FILE"),
        JOBS_FLAG,
        CACHE_DIR_FLAG,
        NO_STORE_FLAG,
    ],
};

/// Every subcommand, in `help` display order. The help screen iterates
/// this list, so adding a command here is what publishes it.
const ALL_SPECS: &[&CmdSpec] = &[
    &SPEC_WORKLOADS,
    &SPEC_GEN,
    &SPEC_SIM,
    &SPEC_COMPARE,
    &SPEC_REPORT,
    &SPEC_SERVE,
    &SPEC_SUBMIT,
    &SPEC_FRAMES,
    &SPEC_INFO,
    &SPEC_DISASM,
    &SPEC_CHECK,
    &SPEC_CLONE,
    &SPEC_SWEEP,
];

/// Parsed options: positionals plus a flag lookup, validated against a
/// [`CmdSpec`].
#[derive(Debug)]
struct Opts<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Opts<'a> {
    fn parse(args: &'a [String], spec: &CmdSpec) -> Result<Opts<'a>, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(name) = a.strip_prefix("--") {
                let (key, inline) = match name.split_once('=') {
                    Some((k, v)) => (k, Some(v)),
                    None => (name, None),
                };
                let f = spec.lookup(key).ok_or_else(|| spec.unknown(a))?;
                // Store under the canonical (first) spelling so lookups by
                // canonical name see every alias.
                let canon = f.names[0];
                if f.takes_value() {
                    match inline {
                        Some(v) => {
                            flags.push((canon, Some(v)));
                            i += 1;
                        }
                        None => {
                            let v = args
                                .get(i + 1)
                                .map(String::as_str)
                                .ok_or_else(|| format!("option --{key} requires a value"))?;
                            flags.push((canon, Some(v)));
                            i += 2;
                        }
                    }
                } else {
                    if inline.is_some() {
                        return Err(format!("option --{key} does not take a value"));
                    }
                    flags.push((canon, None));
                    i += 1;
                }
            } else if let Some(name) = a.strip_prefix('-').filter(|n| !n.is_empty()) {
                let f = spec.lookup(name).ok_or_else(|| spec.unknown(a))?;
                let canon = f.names[0];
                if f.takes_value() {
                    let v = args
                        .get(i + 1)
                        .map(String::as_str)
                        .ok_or_else(|| format!("option -{name} requires a value"))?;
                    flags.push((canon, Some(v)));
                    i += 2;
                } else {
                    flags.push((canon, None));
                    i += 1;
                }
            } else {
                positional.push(a);
                i += 1;
            }
        }
        Ok(Opts { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value of a numeric flag, parsed into its target type: a value
    /// that is malformed or out of that type's range is an error, never
    /// wrapped.
    fn count<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad {} value {v:?}", dashed(name))),
            None => Ok(default),
        }
    }

    /// The worker count: `--jobs`/`--threads`/`-j`, else `REPLAY_JOBS`,
    /// else the machine's available parallelism. `1` forces the legacy
    /// serial path (no worker threads at all).
    fn jobs(&self) -> Result<usize, String> {
        match self.positive("jobs")? {
            Some(n) => Ok(n),
            None => parallel::job_count(),
        }
    }

    /// The value of a flag that must be a positive integer, if given: zero
    /// and a malformed or out-of-range value are errors.
    fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse().ok().filter(|n| *n >= T::from(1)).ok_or_else(|| {
                    format!("bad {} value {v:?} (want a positive integer)", dashed(name))
                })
            })
            .transpose()
    }
}

fn cmd_workloads(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_WORKLOADS)?;
    if !opts.positional.is_empty() {
        return Err(SPEC_WORKLOADS.usage());
    }
    outln!(
        "{:10} {:8} {:>9} {:>14}   (Table 1 of the paper)",
        "name",
        "suite",
        "segments",
        "default x86"
    );
    for w in workloads::all() {
        outln!(
            "{:10} {:8} {:>9} {:>14}",
            w.name,
            match w.suite {
                replay_trace::Suite::SpecInt => "SPECint",
                replay_trace::Suite::Desktop => "desktop",
            },
            w.segments,
            w.segments * w.default_segment_len,
        );
    }
    Ok(())
}

/// Applies the persistent-store options before the first trace lookup.
/// `--no-store` disables the artifact store for this invocation;
/// otherwise the cache root is `--cache-dir DIR`, then the
/// `REPLAY_CACHE_DIR` environment variable, then `.replay-cache`. The
/// `REPLAY_NO_STORE` environment variable always wins (it is honored
/// inside [`replay_store::Store::configure`]).
fn configure_store(opts: &Opts) {
    if opts.has("no-store") {
        replay_store::Store::configure(None);
        return;
    }
    let dir = opts
        .get("cache-dir")
        .map(std::path::PathBuf::from)
        .or_else(|| std::env::var_os(replay_store::CACHE_DIR_ENV).map(std::path::PathBuf::from))
        .unwrap_or_else(|| std::path::PathBuf::from(".replay-cache"));
    replay_store::Store::configure(Some(dir));
}

/// Loads a trace by workload name or from a trace file. Workload traces
/// come from the process-wide [`TraceStore`], so repeated requests (e.g.
/// the four configurations of `compare`) synthesize the trace only once.
fn load_trace(source: &str, n: usize, segment: usize) -> Result<Arc<Trace>, String> {
    if let Some(w) = workloads::by_name(source) {
        check_segment(&w, segment)?;
        return Ok(TraceStore::global().segment(&w, segment, n));
    }
    let file =
        std::fs::File::open(source).map_err(|e| format!("no workload or file {source:?}: {e}"))?;
    read_trace(std::io::BufReader::new(file))
        .map(Arc::new)
        .map_err(|e| format!("reading {source:?}: {e}"))
}

/// Rejects a segment index past the workload's last segment.
fn check_segment(w: &Workload, segment: usize) -> Result<(), String> {
    if segment >= w.segments {
        return Err(format!("{} has {} segments", w.name, w.segments));
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_GEN)?;
    let [name] = opts.positional[..] else {
        return Err(SPEC_GEN.usage());
    };
    let out = opts
        .get("o")
        .ok_or_else(|| format!("missing -o FILE ({})", SPEC_GEN.usage()))?;
    let n: usize = opts.count("n", 100_000)?;
    let seg: usize = opts.count("s", 0)?;
    let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    check_segment(&w, seg)?;
    let trace = w.segment_trace(seg, n);
    let file = std::fs::File::create(out).map_err(|e| format!("creating {out:?}: {e}"))?;
    write_trace(std::io::BufWriter::new(file), &trace).map_err(|e| e.to_string())?;
    outln!(
        "wrote {} records of `{}` segment {seg} to {out}",
        trace.len(),
        name
    );
    Ok(())
}

fn config_by_label(label: &str) -> Result<ConfigKind, String> {
    ConfigKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(label))
        .ok_or_else(|| format!("unknown configuration {label:?} (IC, TC, RP, RPO)"))
}

/// Resolves the shared `--core-model` flag: absent means the generic
/// (class-banked) model, matching every pre-flag invocation byte for byte.
fn core_model_opt(opts: &Opts) -> Result<CoreModel, String> {
    match opts.get("core-model") {
        None => Ok(CoreModel::Generic),
        Some(label) => CoreModel::from_label(label)
            .ok_or_else(|| format!("unknown core model {label:?} (generic, port)")),
    }
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_SIM)?;
    let [source] = opts.positional[..] else {
        return Err(SPEC_SIM.usage());
    };
    let n: usize = opts.count("n", 30_000)?;
    let kind = config_by_label(opts.get("c").unwrap_or("RPO"))?;
    let model = core_model_opt(&opts)?;
    configure_store(&opts);
    let trace = load_trace(source, n, 0)?;
    let mut cfg = SimConfig::new(kind).with_core_model(model);
    if !opts.has("verify") {
        cfg = cfg.without_verify();
    }
    let r = simulate(&trace, &cfg);
    outln!("trace `{}`: {} x86 instructions", trace.name, trace.len());
    outln!(
        "configuration {kind} ({} core): {} cycles, IPC {:.3}",
        model.label(),
        r.cycles,
        r.ipc()
    );
    if kind.uses_frames() {
        outln!(
            "coverage {:.1}%  |  uops removed {:.1}%  loads removed {:.1}%  |  aborts {}",
            r.coverage * 100.0,
            r.uop_removal() * 100.0,
            r.load_removal() * 100.0,
            r.assert_events
        );
        if r.verify.checked > 0 {
            outln!(
                "verifier: {} checked, {} failed",
                r.verify.checked,
                r.verify.failed
            );
        }
    }
    outln!("cycle breakdown:");
    for bin in CycleBin::ALL {
        outln!(
            "  {:8} {:10} ({:5.1}%)",
            bin.label(),
            r.bins.get(bin),
            r.bins.fraction(bin) * 100.0
        );
    }
    if opts.has("profile") {
        outln!("profile [{}]:", kind.label());
        out!("{}", r.profile.render_table(opts.has("timings")));
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_COMPARE)?;
    let [source] = opts.positional[..] else {
        return Err(SPEC_COMPARE.usage());
    };
    let n: usize = opts.count("n", 30_000)?;
    let jobs = opts.jobs()?;
    let model = core_model_opt(&opts)?;
    configure_store(&opts);
    let trace = load_trace(source, n, 0)?;
    outln!(
        "trace `{}`: {} x86 instructions ({} worker{}, {} core)",
        trace.name,
        trace.len(),
        jobs,
        if jobs == 1 { "" } else { "s" },
        model.label()
    );
    // One spec per configuration over the shared trace: the four
    // simulations run concurrently and print in ConfigKind::ALL order.
    let specs = replay_sim::report::specs_for_trace_model(&trace, model);
    let results = experiment::run_specs(&specs, jobs);
    outln!(
        "{:5} {:>9} {:>7} {:>7} {:>9} {:>8}",
        "cfg",
        "cycles",
        "IPC",
        "cov%",
        "removed%",
        "aborts"
    );
    for (kind, r) in ConfigKind::ALL.into_iter().zip(&results) {
        outln!(
            "{:5} {:>9} {:>7.3} {:>7.1} {:>9.1} {:>8}",
            kind.label(),
            r.cycles,
            r.ipc(),
            r.coverage * 100.0,
            r.uop_removal() * 100.0,
            r.assert_events
        );
    }
    // RP and RPO, in ConfigKind::ALL order.
    let (rp, rpo) = (results[2].ipc(), results[3].ipc());
    if rp > 0.0 {
        outln!("optimization gain: {:+.1}%", experiment::gain_pct(rp, rpo));
    }
    if opts.has("profile") {
        // The profile section is deterministic: counters only (timings are
        // wall clock and stay hidden unless --timings), merged shards in
        // submission order — byte-identical at any --jobs count.
        let timings = opts.has("timings");
        for (kind, r) in ConfigKind::ALL.into_iter().zip(&results) {
            outln!("profile [{}]:", kind.label());
            out!("{}", r.profile.render_table(timings));
        }
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_REPORT)?;
    let [source] = opts.positional[..] else {
        return Err(SPEC_REPORT.usage());
    };
    let n: usize = opts.count("n", 30_000)?;
    let jobs = opts.jobs()?;
    let timings = opts.has("timings");
    let model = core_model_opt(&opts)?;
    configure_store(&opts);
    let trace = load_trace(source, n, 0)?;
    // The artifact renderer is shared with `replay serve` (replay-sim's
    // report module) — a served response is byte-identical to this local
    // run because both are this one code path.
    let (results, json) = replay_sim::report::run_report_model(&trace, jobs, timings, model);

    match opts.get("json") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path:?}: {e}"))?;
            outln!(
                "trace `{}`: {} x86 instructions ({} worker{})",
                trace.name,
                trace.len(),
                jobs,
                if jobs == 1 { "" } else { "s" }
            );
            for (kind, r) in ConfigKind::ALL.into_iter().zip(&results) {
                outln!(
                    "  {:4} dyn uops removed {:>9} / {:>9}",
                    kind.label(),
                    r.dyn_uops_removed,
                    r.dyn_uops_total
                );
            }
            outln!("wrote {path}");
        }
        None => out!("{json}"),
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_SERVE)?;
    if !opts.positional.is_empty() {
        return Err(SPEC_SERVE.usage());
    }
    let addr = opts.get("addr").unwrap_or(replay_serve::DEFAULT_ADDR);
    configure_store(&opts);
    let mut cfg = replay_serve::ServerConfig {
        jobs: opts.jobs()?,
        ..replay_serve::ServerConfig::default()
    };
    if let Some(n) = opts.positive("work-queue")? {
        cfg.work_queue = n;
    }
    if let Some(n) = opts.positive("max-conns")? {
        cfg.max_conns = n;
    }
    replay_serve::signal::install();
    // Every held connection is a file descriptor; give the ceiling
    // headroom before the first accept rather than failing under load.
    let _ = replay_serve::poll::raise_nofile_limit(cfg.max_conns as u64 + 512);
    let jobs = cfg.jobs;
    let server =
        replay_serve::Server::bind(addr, cfg).map_err(|e| format!("binding {addr:?}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    outln!(
        "replay-serve listening on {bound} ({jobs} workers, event-loop front; SIGTERM/ctrl-c drains)"
    );
    let stats = server.run();
    outln!("drained; serve metrics:");
    out!("{}", stats.profile.render_table(false));
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_SUBMIT)?;
    let [source] = opts.positional[..] else {
        return Err(SPEC_SUBMIT.usage());
    };
    let scale: u64 = opts.count("n", 30_000)?;
    // A known workload name travels as a name (the server synthesizes the
    // trace through its warm TraceStore); anything else must be a trace
    // file, which travels inline.
    let req_source = if workloads::by_name(source).is_some() {
        replay_serve::Source::Workload(source.to_string())
    } else {
        let bytes = std::fs::read(source)
            .map_err(|e| format!("no workload or trace file {source:?}: {e}"))?;
        replay_serve::Source::TraceBytes(bytes)
    };
    let req = replay_serve::Request {
        source: req_source,
        scale,
        timings: opts.has("timings"),
        deadline_ms: opts.count("deadline-ms", 0)?,
        relayed: false,
    };
    let addr = opts.get("addr").unwrap_or(replay_serve::DEFAULT_ADDR);
    // No host name holds a comma: reject a list here rather than hand it
    // to the resolver as one odd name.
    if addr.is_empty() || addr.contains(',') {
        return Err(format!("bad --addr value {addr:?} (want one host:port)"));
    }
    let mut cfg = replay_serve::ClientConfig::for_addr(addr);
    cfg.retries = opts.count("retries", cfg.retries)?;
    cfg.seed = opts.count("seed", cfg.seed)?;
    let mut client = replay_serve::Client::new(cfg);
    let resp = client.submit(&req).map_err(|e| e.to_string())?;
    let body = String::from_utf8(resp.body)
        .map_err(|_| "server returned a non-UTF-8 report body".to_string())?;
    match opts.get("json") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("writing {path:?}: {e}"))?;
            outln!("wrote {path} ({} bytes from {addr})", body.len());
        }
        None => out!("{body}"),
    }
    Ok(())
}

/// The most fault-planting attempts `check --faults` makes per fault kind.
const MAX_FAULT_ATTEMPTS: u64 = 10_000;

fn cmd_check(args: &[String]) -> Result<(), String> {
    use replay_check::{probe_fault_sensitivity, run_check, to_text, CheckConfig, PassSelection};

    let opts = Opts::parse(args, &SPEC_CHECK)?;
    if !opts.positional.is_empty() {
        return Err(SPEC_CHECK.usage());
    }
    let cases: u64 = opts.positive("cases")?.unwrap_or(1000);
    let seed: u64 = opts.count("seed", 42)?;

    if opts.has("faults") {
        // Sensitivity mode: plant every known bug species into optimized
        // frames and require that the differential oracle catches each one.
        // It reads no other flag, so any other one is an error, not a no-op.
        if let Some((name, _)) = opts
            .flags
            .iter()
            .find(|(n, _)| !matches!(*n, "faults" | "cases" | "seed"))
        {
            return Err(format!(
                "{} does not apply to --faults (it takes only --cases and --seed)",
                dashed(name)
            ));
        }
        if cases > MAX_FAULT_ATTEMPTS {
            return Err(format!(
                "bad --cases value {:?} (--faults makes at most {MAX_FAULT_ATTEMPTS} attempts \
                 per fault kind)",
                opts.get("cases").unwrap_or_default()
            ));
        }
        let attempts = cases as u32;
        outln!("planting faults into optimized frames ({attempts} attempts per kind, seed {seed})");
        outln!("{:14} {:>9} {:>9}", "fault", "injected", "detected");
        let mut missed = Vec::new();
        for probe in probe_fault_sensitivity(seed, attempts) {
            outln!(
                "{:14} {:>9} {:>9}",
                probe.kind.name(),
                probe.injected,
                probe.detected
            );
            if probe.injected == 0 || probe.detected == 0 {
                missed.push(probe.kind.name());
            }
        }
        return if missed.is_empty() {
            outln!("every fault kind detected");
            Ok(())
        } else {
            Err(format!(
                "oracle blind to fault kinds: {}",
                missed.join(", ")
            ))
        };
    }

    let passes = PassSelection::parse(opts.get("passes").unwrap_or("all"))?;
    let corpus = std::path::PathBuf::from(opts.get("corpus").unwrap_or("tests/corpus"));
    let entries_per_case: u32 = opts.positive("entries")?.unwrap_or(4);
    let jobs = opts.jobs()?;

    // Replay the persisted corpus first: previously-found bugs must stay
    // fixed before we go looking for new ones.
    match replay_check::replay_dir(&corpus) {
        Ok(0) => outln!("corpus {}: empty", corpus.display()),
        Ok(n) => outln!("corpus {}: {n} case(s) replayed clean", corpus.display()),
        Err((path, e)) => return Err(format!("corpus case {}: {e}", path.display())),
    }

    let cfg = CheckConfig {
        cases,
        seed,
        passes,
        jobs,
        entries_per_case,
        shrink: !opts.has("no-shrink"),
    };
    let t = Instant::now();
    let report = run_check(&cfg);
    outln!(
        "{report} (seed {seed}, {jobs} worker{}, {:.2}s)",
        if jobs == 1 { "" } else { "s" },
        t.elapsed().as_secs_f64()
    );
    if report.ok() {
        return Ok(());
    }
    // Persist every shrunk counterexample so the corpus replay above
    // guards the bug from now on.
    std::fs::create_dir_all(&corpus).map_err(|e| format!("creating {}: {e}", corpus.display()))?;
    for cex in &report.failures {
        let path = corpus.join(format!(
            "seed{}-case{}.case",
            cex.case.seed, cex.case.case_index
        ));
        std::fs::write(&path, to_text(&cex.case))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outln!(
            "  {} ({} uops): {}",
            path.display(),
            cex.case.frame.uop_count(),
            cex.error
        );
    }
    Err(format!(
        "{} counterexample(s) written to {}",
        report.failures.len(),
        corpus.display()
    ))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_INFO)?;
    let [source] = opts.positional[..] else {
        return Err(SPEC_INFO.usage());
    };
    let n: usize = opts.count("n", 30_000)?;
    let trace = load_trace(source, n, 0)?;
    outln!("trace `{}`", trace.name);
    out!("{}", replay_trace::TraceStats::of(&trace).report());
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_DISASM)?;
    let [name] = opts.positional[..] else {
        return Err(SPEC_DISASM.usage());
    };
    let seg: usize = opts.count("s", 0)?;
    let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    check_segment(&w, seg)?;
    let (program, _) = w.segment_program(seg);
    for line in program.disasm() {
        match line {
            Ok(l) => outln!("{:#010x}: {}", l.addr, l.inst),
            Err(e) => return Err(format!("disassembly failed: {e}")),
        }
    }
    Ok(())
}

fn cmd_frames(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_FRAMES)?;
    let [name] = opts.positional[..] else {
        return Err(SPEC_FRAMES.usage());
    };
    let n: usize = opts.count("n", 20_000)?;
    let top: usize = opts.count("top", 3)?;
    let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = w.segment_trace(0, n);
    let index = trace.static_index();
    let mut constructor = FrameConstructor::new(ConstructorConfig::default());
    let mut best: Vec<(u64, replay_frame::Frame)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, r) in trace.records().iter().enumerate() {
        let ev = RetireEvent {
            addr: r.addr,
            uops: index.record_flow(i),
            next_pc: r.next_pc,
            fallthrough: r.fallthrough(),
        };
        if let Some(frame) = constructor.retire(&ev) {
            if seen.insert(frame.start_addr) {
                let (_, stats) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
                best.push((stats.removed_uops(), frame));
            }
        }
    }
    best.sort_by_key(|(removed, _)| std::cmp::Reverse(*removed));
    outln!(
        "{} distinct frames constructed from {} instructions of `{}`",
        best.len(),
        trace.len(),
        name
    );
    for (removed, frame) in best.into_iter().take(top) {
        let (opt, stats) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        outln!(
            "\n=== frame at {:#x}: {} x86 instrs, {} -> {} uops ({removed} removed, {} loads) ===",
            frame.start_addr,
            frame.x86_count(),
            stats.uops_before,
            stats.uops_after,
            stats.removed_loads()
        );
        outln!("--- before ---\n{}", frame.listing());
        outln!("--- after ---\n{}", opt.listing());
    }
    Ok(())
}

fn cmd_clone(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_CLONE)?;
    if !opts.positional.is_empty() {
        return Err(SPEC_CLONE.usage());
    }
    configure_store(&opts);
    let source = opts
        .get("from-profile")
        .ok_or_else(|| format!("missing --from-profile SRC ({})", SPEC_CLONE.usage()))?;
    let n: usize = opts.count("n", 6_000)?;
    let mut cfg = replay_clone::FitConfig {
        fit_scale: n,
        jobs: opts.jobs()?,
        ..Default::default()
    };
    cfg.seed = opts.count("seed", cfg.seed)?;
    cfg.max_iters = opts.count("iters", cfg.max_iters)?;
    cfg.candidates_per_iter = opts.count("candidates", cfg.candidates_per_iter)?;
    if let Some(t) = opts.get("tol") {
        cfg.tolerance = t
            .parse()
            .ok()
            .filter(|t: &f64| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("bad --tol value {t:?}"))?;
    }
    // The target profile is measured at the fit scale, so a target drawn
    // from a suite workload is reachable exactly.
    let target_trace = load_trace(source, n, 0)?;
    let target = replay_trace::StatProfile::measure(&target_trace);
    outln!(
        "target `{}`: {} x86 instructions; fitting at scale {} (tolerance {}, seed {:#x})",
        source,
        target_trace.len(),
        cfg.fit_scale,
        cfg.tolerance,
        cfg.seed
    );
    let fit = replay_clone::fit(&target, &cfg).map_err(|e| e.to_string())?;
    outln!(
        "converged: `{}` at distance {:.4} after {} iterations ({} evaluations)",
        fit.workload.name,
        fit.distance,
        fit.iterations,
        fit.evaluations
    );
    let (axis, delta) = fit.measured.worst_component(&target);
    outln!("worst dimension: {axis} (|delta| = {delta:.4})");
    if let Some(path) = opts.get("json") {
        let json = replay_clone::clone_json(&cfg, &target, &fit);
        std::fs::write(path, &json).map_err(|e| format!("writing {path:?}: {e}"))?;
        outln!("wrote {path}");
    }
    if let Some(out) = opts.get("o") {
        let trace = TraceStore::global().segment(&fit.workload, 0, cfg.fit_scale);
        let file = std::fs::File::create(out).map_err(|e| format!("creating {out:?}: {e}"))?;
        write_trace(std::io::BufWriter::new(file), &trace).map_err(|e| e.to_string())?;
        outln!(
            "wrote {} records of `{}` to {out}",
            trace.len(),
            fit.workload.name
        );
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SPEC_SWEEP)?;
    if !opts.positional.is_empty() {
        return Err(SPEC_SWEEP.usage());
    }
    configure_store(&opts);
    let mut cfg = replay_clone::SweepConfig {
        jobs: opts.jobs()?,
        ..Default::default()
    };
    cfg.steps = opts.count("steps", cfg.steps)?;
    cfg.scale = opts.count("n", cfg.scale)?;
    cfg.seed = opts.count("seed", cfg.seed)?;
    if let Some(v) = opts.get("gain-floor") {
        cfg.gain_floor_pct = v
            .parse()
            .ok()
            .filter(|f: &f64| f.is_finite())
            .ok_or_else(|| format!("bad --gain-floor value {v:?}"))?;
    }
    if let Some(name) = opts.get("corner") {
        if name != "all" {
            let corner = replay_clone::Corner::parse(name).ok_or_else(|| {
                format!(
                    "unknown corner {name:?} (valid: assert-storm, alias-heavy, \
                     predictor-hostile, all)"
                )
            })?;
            cfg.corners = vec![corner];
        }
    }
    let result = replay_clone::run_sweep(&cfg);
    for corner in &result.corners {
        outln!("corner {}:", corner.corner);
        outln!(
            "  {:>4} {:>5} {:>7} {:>7} {:>8} {:>5} {:>7}",
            "step",
            "frac",
            "rp",
            "rpo",
            "gain%",
            "cov",
            "assert"
        );
        for p in &corner.points {
            outln!(
                "  {:>4} {:>5.2} {:>7.3} {:>7.3} {:>+8.2} {:>5.2} {:>7.3}",
                p.step,
                p.frac,
                p.gain.rp_ipc,
                p.gain.rpo_ipc,
                p.gain.rpo_gain_pct,
                p.gain.coverage,
                p.gain.assert_cycle_frac
            );
        }
        match corner.collapse_step {
            Some(step) => outln!(
                "  collapse at step {step} (gain below {}%)",
                cfg.gain_floor_pct
            ),
            None => outln!("  no collapse above the {}% floor", cfg.gain_floor_pct),
        }
    }
    if let Some(path) = opts.get("out") {
        std::fs::write(path, result.to_json()).map_err(|e| format!("writing {path:?}: {e}"))?;
        outln!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn known_flags_parse() {
        let args = argv(&["gzip", "-n", "4000", "--jobs=8", "--profile"]);
        let opts = Opts::parse(&args, &SPEC_COMPARE).unwrap();
        assert_eq!(opts.positional, vec!["gzip"]);
        assert_eq!(opts.count("n", 0).unwrap(), 4000);
        assert_eq!(opts.jobs().unwrap(), 8);
        assert!(opts.has("profile"));
        assert!(!opts.has("timings"));
    }

    #[test]
    fn aliases_normalize_to_canonical() {
        let args = argv(&["--threads", "3"]);
        let opts = Opts::parse(&args, &SPEC_COMPARE).unwrap();
        assert_eq!(opts.jobs().unwrap(), 3);
        let args = argv(&["x", "--out", "f.bin"]);
        let opts = Opts::parse(&args, &SPEC_GEN).unwrap();
        assert_eq!(opts.get("o"), Some("f.bin"));
        let args = argv(&["w", "-t", "5"]);
        let opts = Opts::parse(&args, &SPEC_FRAMES).unwrap();
        assert_eq!(opts.count("top", 3).unwrap(), 5);
    }

    #[test]
    fn misspelled_flag_rejected_naming_valid_set() {
        // The motivating bug: `--case` for `--cases` used to be silently
        // ignored, running the default 1000 cases instead.
        let args = argv(&["--case", "5"]);
        let err = Opts::parse(&args, &SPEC_CHECK).unwrap_err();
        assert!(err.contains("unknown option \"--case\""), "{err}");
        assert!(err.contains("replay check"), "{err}");
        assert!(err.contains("--cases"), "names the valid set: {err}");
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn unknown_short_flag_rejected() {
        let args = argv(&["gzip", "-x", "1"]);
        let err = Opts::parse(&args, &SPEC_COMPARE).unwrap_err();
        assert!(err.contains("unknown option \"-x\""), "{err}");
    }

    #[test]
    fn every_command_rejects_unknown_options() {
        for spec in ALL_SPECS {
            let args = argv(&["--definitely-not-a-flag"]);
            let err = Opts::parse(&args, spec).unwrap_err();
            assert!(
                err.contains(&format!("replay {}", spec.name)),
                "{}: {err}",
                spec.name
            );
        }
    }

    #[test]
    fn usage_lines_advertise_every_spec_flag() {
        // Usage text is generated from the same spec the parser validates
        // against, so every flag the parser accepts must be advertised —
        // the drift where `replay compare` errors omitted --profile/
        // --timings/--cache-dir/--no-store cannot recur.
        for spec in ALL_SPECS {
            let usage = spec.usage();
            assert!(
                usage.starts_with(&format!("usage: replay {}", spec.name)),
                "{usage}"
            );
            for f in spec.flags {
                assert!(
                    usage.contains(&f.dashed()),
                    "replay {}: flag {} missing from usage {usage:?}",
                    spec.name,
                    f.dashed()
                );
                if f.takes_value() {
                    assert!(
                        usage.contains(&format!("{} {}", f.dashed(), f.value)),
                        "replay {}: metavar for {} missing from {usage:?}",
                        spec.name,
                        f.dashed()
                    );
                }
            }
            assert!(!spec.about.is_empty(), "replay {} has no about", spec.name);
        }
    }

    #[test]
    fn all_specs_is_complete() {
        // Every SPEC_* constant must be published in ALL_SPECS (the help
        // screen and the usage test above iterate it).
        let names: Vec<&str> = ALL_SPECS.iter().map(|s| s.name).collect();
        for expect in [
            "workloads",
            "gen",
            "sim",
            "compare",
            "report",
            "serve",
            "submit",
            "frames",
            "info",
            "disasm",
            "check",
            "clone",
            "sweep",
        ] {
            assert!(names.contains(&expect), "{expect} missing from ALL_SPECS");
        }
    }

    #[test]
    fn compare_usage_advertises_store_and_profile_flags() {
        // The specific drift this guards against: the hand-written compare
        // usage string said only `[-n N] [--jobs N]`.
        let u = SPEC_COMPARE.usage();
        for want in ["--profile", "--timings", "--cache-dir DIR", "--no-store"] {
            assert!(u.contains(want), "{want} not in {u:?}");
        }
    }

    #[test]
    fn value_flag_requires_a_value() {
        let args = argv(&["gzip", "--jobs"]);
        let err = Opts::parse(&args, &SPEC_COMPARE).unwrap_err();
        assert!(err.contains("--jobs requires a value"), "{err}");
        // Previously `compare gzip -n` at end of args silently fell back to
        // the default scale; now it is an error.
        let args = argv(&["gzip", "-n"]);
        let err = Opts::parse(&args, &SPEC_COMPARE).unwrap_err();
        assert!(err.contains("-n requires a value"), "{err}");
    }

    #[test]
    fn gen_rejects_an_out_of_range_segment() {
        let out = std::env::temp_dir().join(format!("replay-gen-seg-{}.trace", std::process::id()));
        let out = out.to_str().unwrap();
        let segments = workloads::by_name("gzip").unwrap().segments;
        let seg = segments.to_string();
        let err = cmd_gen(&argv(&["gzip", "-o", out, "-n", "100", "-s", &seg])).unwrap_err();
        assert_eq!(err, format!("gzip has {segments} segments"));
        assert!(!std::path::Path::new(out).exists(), "no file created");
    }

    #[test]
    fn disasm_rejects_an_out_of_range_segment() {
        let segments = workloads::by_name("excel").unwrap().segments;
        let seg = segments.to_string();
        let err = cmd_disasm(&argv(&["excel", "-s", &seg])).unwrap_err();
        assert_eq!(err, format!("excel has {segments} segments"));
    }

    #[test]
    fn boolean_flag_rejects_inline_value() {
        let args = argv(&["gzip", "--profile=yes"]);
        let err = Opts::parse(&args, &SPEC_COMPARE).unwrap_err();
        assert!(err.contains("--profile does not take a value"), "{err}");
    }
}
