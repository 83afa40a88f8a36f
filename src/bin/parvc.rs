//! `parvc` — command-line driver for the vertex-cover suite.
//!
//! Run `parvc help` for the full flag reference (the same text this
//! binary renders into `docs/cli.md` with `parvc help --markdown`).
//!
//! ```text
//! parvc solve   [--policy seq|stack|hybrid|steal|batch|compsteal]
//!               [--threads <n>] [--exec serial|pooled[:threads]]
//!               [--k <k>] [--deadline <s>]
//!               [--component-branching[=<min-live>]]
//!               [--prep] [--prep-rules d012,crown,highdeg,split]
//!               [--weighted] [--format dimacs|edgelist] <instance>
//! parvc resolve --edits <script-file|gen:<ops>[:<frac>][@seed]>
//!               [--policy ...] [--threads <n>] [--exec ...]
//!               [--deadline <s>] [--prep] [--weighted]
//!               [--format dimacs|edgelist] <instance>
//! parvc approx  [--weighted] [--exec serial|pooled[:threads]]
//!               [--format dimacs|edgelist] <instance>
//! parvc prep    [--rules d012,crown,highdeg,split] [--weighted]
//!               [--out <file>] [--format dimacs|edgelist] <instance>
//! parvc generate <family> <args...> [--seed <s>]
//!               [--weights uniform[:max]|unit|degree] [--out <file>]
//! parvc analyze [--format dimacs|edgelist] <instance>
//! parvc demo
//! parvc help    [--markdown]
//! ```
//!
//! `<instance>` is either a real instance **file** (DIMACS `.dimacs` /
//! `.clq` / `.col`, or a whitespace edge list — downloaded benchmarks
//! drop straight in) or a generator **spec**
//! `family:arg1:arg2[...][@seed][:w=<weights>]`, e.g. `gnp:200:0.05@7`,
//! `ba:150000:1`, `components:120000:6000:0.3`,
//! `gnp:200:0.05@7:w=uniform` (vertex-weighted).
//!
//! Families for `generate` and specs: `phat n class`, `gnp n p`,
//! `ba n m`, `ws n k beta`, `geometric n radius`,
//! `pace n communities`, `components n parts p`,
//! `bipartite left right p`, `grid w h`.

use std::io::Write;
use std::time::Duration;

use parvc::core::split::SplitParams;
use parvc::graph::{analysis, gen, io, kcore, matching, ops};
use parvc::prelude::*;
use parvc::prep::{preprocess, PrepConfig};

/// `print!` through [`to_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        to_stdout(|out| write!(out, $($arg)*))
    };
}

/// `println!` through [`to_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        to_stdout(|out| writeln!(out, $($arg)*))
    };
}

/// Runs `write` on standard output and flushes it. Every command's
/// report goes through here: a write that fails (a closed pipe, a full
/// disk) exits 1 with a message instead of panicking.
fn to_stdout(write: impl FnOnce(&mut std::io::StdoutLock<'static>) -> std::io::Result<()>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = write(&mut out).and_then(|()| out.flush()) {
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    if args.iter().any(|a| a == "--help") {
        match cmd.and_then(find_command) {
            Some(c) => out!("{}", c.render_text()),
            None => out!("{}", help_text()),
        }
        return;
    }
    match cmd {
        Some("solve") => cmd_solve(&args[1..]),
        Some("resolve") => cmd_resolve(&args[1..]),
        Some("approx") => cmd_approx(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("prep") => cmd_prep(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("help") => {
            if args[1..].iter().any(|a| a == "--markdown") {
                out!("{}", help_markdown());
            } else {
                out!("{}", help_text());
            }
        }
        _ => {
            eprint!("{}", help_text());
            std::process::exit(2);
        }
    }
}

/// One flag's reference entry.
struct FlagHelp {
    /// The flag with its value placeholder, e.g. `--deadline <secs>`.
    flag: &'static str,
    /// One-line description.
    desc: &'static str,
}

/// One subcommand's reference entry — the single source the terminal
/// help AND `docs/cli.md` are rendered from, so they cannot drift.
struct CmdHelp {
    name: &'static str,
    usage: &'static str,
    summary: &'static str,
    flags: &'static [FlagHelp],
    example: &'static str,
}

/// The `--policy` flag of `solve`, `resolve` and `serve`: the names
/// of `Algorithm::NAMES`, in its order (pinned by a unit test).
const POLICY_FLAG: &str = "--policy <seq|stack|hybrid|steal|batch|compsteal>";

const COMMANDS: &[CmdHelp] = &[
    CmdHelp {
        name: "solve",
        usage: "parvc solve [options] <instance>",
        summary: "Solve minimum vertex cover (or, with --k, parameterized \
                  vertex cover) on a file or generator-spec instance. The \
                  search prunes with the paper's bounds and a greedy \
                  maximal-matching lower bound.",
        flags: &[
            FlagHelp {
                flag: POLICY_FLAG,
                desc: "Scheduling policy driving the branch-and-reduce engine \
                       (default hybrid; --algorithm is an alias). `batch` \
                       donates sub-trees to the worklist in amortized batches; \
                       `compsteal` donates whole components of disconnected \
                       residuals to the steal pool and implies \
                       --component-branching.",
            },
            FlagHelp {
                flag: "--threads <n>",
                desc: "Cap on resident thread blocks, one OS thread each \
                       (--blocks is an alias).",
            },
            FlagHelp {
                flag: "--exec <serial|pooled[:threads]>",
                desc: "How each block's intra-block flat passes execute: inline \
                       on the block's own thread (default) or chunked across a \
                       shared worker pool (`pooled:<n>` pins the pool size; \
                       plain `pooled` sizes it from available parallelism). \
                       Purely a wall-clock knob — results, tree shape, and \
                       model-cycle counters are identical under either.",
            },
            FlagHelp {
                flag: "--k <k>",
                desc: "Solve PVC: find any cover of size <= k instead of the minimum \
                       (incompatible with --weighted).",
            },
            FlagHelp {
                flag: "--weighted",
                desc: "Minimize the cover's total vertex weight (weighted MVC) instead \
                       of its size, using the instance's weight channel (DIMACS n-lines \
                       or a spec's :w= suffix; unweighted inputs count every vertex \
                       as weight 1). Works under every policy; prep runs only \
                       weight-sound rules.",
            },
            FlagHelp {
                flag: "--deadline <secs>",
                desc: "Wall-clock budget; on expiry MVC reports best-so-far, \
                       PVC reports 'unknown'.",
            },
            FlagHelp {
                flag: "--component-branching[=<min-live>]",
                desc: "Re-split the search when reductions disconnect the \
                       residual graph; optional value = live-vertex count \
                       below which the connectivity check is skipped \
                       (default 8).",
            },
            FlagHelp {
                flag: "--prep",
                desc: "Run the parvc-prep kernelization + component \
                       decomposition before the search.",
            },
            FlagHelp {
                flag: "--prep-rules <d012,crown,highdeg,split>",
                desc: "Comma-separated prep stages to enable (implies --prep; \
                       default: all stages).",
            },
            FlagHelp {
                flag: "--trace-out <file>",
                desc: "Record structured telemetry and write a Chrome trace-event \
                       JSON timeline (open in Perfetto or chrome://tracing): \
                       wall-clock spans per block/worker plus a synthetic \
                       model-cycle track converted from the per-block span logs.",
            },
            FlagHelp {
                flag: "--metrics-out <file>",
                desc: "Write the flat metrics snapshot (counters, gauges, \
                       log2-bucket histograms) as JSON; an aligned text table \
                       of the same snapshot goes to stderr. Implies telemetry \
                       recording like --trace-out.",
            },
            FlagHelp {
                flag: "--timeline[=<width>]",
                desc: "Render the per-block model-cycle activity timeline to \
                       stderr after the solve (optional value = columns, \
                       default 100).",
            },
            FlagHelp {
                flag: "--progress[=<secs>]",
                desc: "Print a heartbeat to stderr while solving — best-so-far \
                       bound, tree nodes, nodes/sec — every <secs> seconds \
                       (default 5). Clock checks ride the deadline machinery's \
                       stride, so the hot loop stays unchanged.",
            },
            FlagHelp {
                flag: "--format <dimacs|edgelist>",
                desc: "Instance file format (default: inferred from the extension).",
            },
        ],
        example: "parvc solve components:120000:6000:0.3 --policy steal --prep",
    },
    CmdHelp {
        name: "resolve",
        usage: "parvc resolve --edits <script|spec> [options] <instance>",
        summary: "Solve an instance, apply a batch of edge/vertex insert+delete \
                  edits, and incrementally re-solve: components the batch never \
                  touches keep their cached optima, and only the dirty region is \
                  re-searched under warm bounds seeded from the previous result.",
        flags: &[
            FlagHelp {
                flag: "--edits <file|gen:<ops>[:<frac>][@seed]>",
                desc: "The edit batch (required): a script file (one op per \
                       line — `+e u v`, `-e u v`, `+v weight`, `-v vertex`, \
                       `#` comments) or a seeded generator spec — \
                       `gen:16` for 16 ops at the default 0.5 insert \
                       fraction, `gen:16:0.8@7` to skew toward inserts \
                       with seed 7.",
            },
            FlagHelp {
                flag: POLICY_FLAG,
                desc: "Scheduling policy for the dirty-region re-solve (default \
                       hybrid) — any policy works; the reuse logic is \
                       policy-independent.",
            },
            FlagHelp {
                flag: "--threads <n>",
                desc: "Cap on resident thread blocks, one OS thread each \
                       (--blocks is an alias).",
            },
            FlagHelp {
                flag: "--exec <serial|pooled[:threads]>",
                desc: "Intra-block executor for both the initial solve and the \
                       re-solve (see `parvc solve --exec`).",
            },
            FlagHelp {
                flag: "--deadline <secs>",
                desc: "Wall-clock budget per solve; a timed-out result is not \
                       exact, so the following resolve falls back to a full \
                       re-solve instead of reusing its components.",
            },
            FlagHelp {
                flag: "--weighted",
                desc: "Minimize cover weight instead of size; warm bounds run \
                       in weight units.",
            },
            FlagHelp {
                flag: "--prep",
                desc: "Kernelize the dirty region before re-searching it (the \
                       warm upper bound still caps the result).",
            },
            FlagHelp {
                flag: "--prep-rules <d012,crown,highdeg,split>",
                desc: "Comma-separated prep stages to enable (implies --prep; \
                       default: all stages).",
            },
            FlagHelp {
                flag: "--trace-out <file>",
                desc: "Record telemetry across solve + resolve and write the \
                       re-solve's Chrome trace-event JSON (includes the \
                       `resolve` span category: patch, sub-solve, total).",
            },
            FlagHelp {
                flag: "--metrics-out <file>",
                desc: "Write the re-solve's flat metrics snapshot as JSON \
                       (includes the resolve.* reuse counters); the aligned \
                       text table goes to stderr.",
            },
            FlagHelp {
                flag: "--format <dimacs|edgelist>",
                desc: "Instance file format (default: inferred from the extension).",
            },
        ],
        example: "parvc resolve components:1200:60:0.3 --edits gen:12:0.5@7 --policy steal --prep",
    },
    CmdHelp {
        name: "approx",
        usage: "parvc approx [options] <instance>",
        summary: "Run the approximate tier alone: a cover provably within \
                  twice the optimum plus a matching/dual lower-bound \
                  certificate, in near-linear time — the answer for \
                  instances too large to solve exactly.",
        flags: &[
            FlagHelp {
                flag: "--weighted",
                desc: "Bound cover weight instead of size: the Bar-Yehuda–Even \
                       primal-dual pass, whose dual is a certified weighted \
                       lower bound. Default: round-compressed maximal matching \
                       endpoints with the matching size as the certificate.",
            },
            FlagHelp {
                flag: "--exec <serial|pooled[:threads]>",
                desc: "Executor for the per-round matching passes (see `parvc \
                       solve --exec`); rounds and the reported cover are \
                       identical under either.",
            },
            FlagHelp {
                flag: "--format <dimacs|edgelist>",
                desc: "Instance file format (default: inferred from the extension).",
            },
        ],
        example: "parvc approx ba:150000:2@7 --exec pooled",
    },
    CmdHelp {
        name: "serve",
        usage: "parvc serve [options]",
        summary: "Run the solver as a long-running service: newline-delimited \
                  requests (LOAD / SOLVE / RESOLVE / STATS / EVICT) over TCP, \
                  multiplexed across a bounded worker pool, backed by a \
                  content-keyed LRU result cache and per-instance incremental \
                  re-solve sessions. Past the admission high-water mark, SOLVE \
                  traffic is shed to certified 2-approximate answers instead \
                  of queueing. Protocol reference: docs/serve.md; operator's \
                  guide: docs/operations.md.",
        flags: &[
            FlagHelp {
                flag: "--listen <host:port>",
                desc: "Bind address for the TCP front end (default \
                       127.0.0.1:7070).",
            },
            FlagHelp {
                flag: "--workers <n>",
                desc: "Connections serviced concurrently — the worker-pool \
                       bound, 1 to 1024 (default 4).",
            },
            FlagHelp {
                flag: "--high-water <n>",
                desc: "In-flight exact solves beyond which SOLVE requests are \
                       shed to the 2-approximation certificate (default 4; \
                       0 sheds everything — cache hits are still served).",
            },
            FlagHelp {
                flag: "--deadline <secs>",
                desc: "Default wall-clock budget per exact solve; a request's \
                       own --deadline overrides it.",
            },
            FlagHelp {
                flag: "--cache-capacity <n>",
                desc: "Result-cache capacity in entries, LRU past it \
                       (default 128).",
            },
            FlagHelp {
                flag: "--cache-file <path>",
                desc: "Persist the result cache to this JSON file: loaded at \
                       startup, rewritten on every insert or eviction, so a \
                       restarted server answers yesterday's traffic from disk.",
            },
            FlagHelp {
                flag: POLICY_FLAG,
                desc: "Scheduling policy for exact solves (default hybrid; \
                       see `parvc solve --policy`).",
            },
            FlagHelp {
                flag: "--exec <serial|pooled[:threads]>",
                desc: "Intra-block executor for exact solves (see `parvc \
                       solve --exec`).",
            },
            FlagHelp {
                flag: "--no-prep",
                desc: "Skip kernelization + component decomposition in front \
                       of exact solves (on by default when serving).",
            },
            FlagHelp {
                flag: "--script <file>",
                desc: "Offline mode: replay request lines from <file> (`-` \
                       for stdin) against an in-process server, print one \
                       response line per request to stdout, and exit — no \
                       socket is opened.",
            },
        ],
        example: "parvc serve --listen 127.0.0.1:7070 --cache-file parvc-cache.json",
    },
    CmdHelp {
        name: "prep",
        usage: "parvc prep [options] <instance>",
        summary: "Run the kernelization pipeline alone and report per-rule \
                  eliminations, kernel size, and component structure.",
        flags: &[
            FlagHelp {
                flag: "--rules <d012,crown,highdeg,split>",
                desc: "Pipeline stages to enable (default: all).",
            },
            FlagHelp {
                flag: "--weighted",
                desc: "Preserve the weighted optimum: degree-1/2 shortcuts gain weight \
                       gates, and weight-unsound stages (crown, highdeg) are skipped \
                       with a note in the report.",
            },
            FlagHelp {
                flag: "--out <file>",
                desc: "Write the kernel (disjoint union of components) as DIMACS \
                       (weighted kernels keep their n-lines).",
            },
            FlagHelp {
                flag: "--format <dimacs|edgelist>",
                desc: "Instance file format (default: inferred from the extension).",
            },
        ],
        example: "parvc prep components:120000:6000:0.3 --out kernel.dimacs",
    },
    CmdHelp {
        name: "generate",
        usage: "parvc generate <family> <args...> [options]",
        summary: "Generate a benchmark instance and write it as DIMACS \
                  (families: phat n class; gnp n p; ba n m; ws n k beta; \
                  geometric n radius; pace n communities; components n parts p; \
                  bipartite left right p; grid w h).",
        flags: &[
            FlagHelp {
                flag: "--seed <s>",
                desc: "Generator seed (default 42).",
            },
            FlagHelp {
                flag: "--weights <uniform[:max]|unit|degree>",
                desc: "Attach a vertex-weight channel (written as DIMACS n-lines): \
                       uniform random in 1..=max (default max 10, seeded like the \
                       graph), all-1, or degree+1.",
            },
            FlagHelp {
                flag: "--out <file>",
                desc: "Output path (default: stdout).",
            },
        ],
        example: "parvc generate ba 150000 1 --seed 7 --out ba.dimacs",
    },
    CmdHelp {
        name: "analyze",
        usage: "parvc analyze [options] <instance>",
        summary: "Print structural statistics: degrees, components, triangles, \
                  degeneracy, bipartiteness, and MVC bounds.",
        flags: &[FlagHelp {
            flag: "--format <dimacs|edgelist>",
            desc: "Instance file format (default: inferred from the extension).",
        }],
        example: "parvc analyze ws:350:4:0.15@6",
    },
    CmdHelp {
        name: "demo",
        usage: "parvc demo",
        summary: "Solve the paper's Figure 2 example graph end to end.",
        flags: &[],
        example: "parvc demo",
    },
    CmdHelp {
        name: "help",
        usage: "parvc help [--markdown]",
        summary: "Print this reference (--markdown renders docs/cli.md).",
        flags: &[FlagHelp {
            flag: "--markdown",
            desc: "Emit the reference as Markdown instead of terminal text.",
        }],
        example: "parvc help --markdown > docs/cli.md",
    },
];

fn find_command(name: &str) -> Option<&'static CmdHelp> {
    COMMANDS.iter().find(|c| c.name == name)
}

impl CmdHelp {
    fn render_text(&self) -> String {
        let mut out = format!("{}\n  {}\n", self.usage, self.summary);
        for f in self.flags {
            out.push_str(&format!("    {:<40} {}\n", f.flag, f.desc));
        }
        out.push_str(&format!("  example: {}\n", self.example));
        out
    }
}

/// The terminal help screen (`parvc help`, `--help`, bad usage).
fn help_text() -> String {
    let mut out = String::from(
        "parvc — parallel vertex cover suite \
         (branch-and-reduce on a simulated GPU)\n\n\
         An <instance> is a file (DIMACS .dimacs/.clq/.col or an edge list) \
         or a generator\nspec `family:arg1:arg2[...][@seed][:w=<weights>]`, \
         e.g. gnp:200:0.05@7,\ncomponents:120000:6000:0.3, or the \
         vertex-weighted gnp:200:0.05@7:w=uniform.\n\n",
    );
    for c in COMMANDS {
        out.push_str(&c.render_text());
        out.push('\n');
    }
    out
}

/// The Markdown reference — `docs/cli.md` is this output, verbatim
/// (pinned by a test, regenerate with `parvc help --markdown`).
fn help_markdown() -> String {
    let mut out = String::from(
        "# `parvc` CLI reference\n\n\
         Generated by `cargo run --release --bin parvc -- help --markdown`; \
         do not edit by hand.\n\n\
         An `<instance>` argument is either a **file** (DIMACS \
         `.dimacs`/`.clq`/`.col`, or a whitespace edge list) or a generator \
         **spec** `family:arg1:arg2[...][@seed][:w=<weights>]`, e.g. \
         `gnp:200:0.05@7`, `components:120000:6000:0.3`, or the \
         vertex-weighted `gnp:200:0.05@7:w=uniform`.\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("\n## `{}`\n\n{}\n\n", c.usage, c.summary));
        if !c.flags.is_empty() {
            out.push_str("| flag | description |\n|---|---|\n");
            for f in c.flags {
                out.push_str(&format!("| `{}` | {} |\n", f.flag, f.desc));
            }
            out.push('\n');
        }
        out.push_str(&format!("```sh\n{}\n```\n", c.example));
    }
    out
}

#[derive(Debug, Default, PartialEq, Eq)]
struct Flags {
    positional: Vec<String>,
    options: std::collections::BTreeMap<String, String>,
    switches: std::collections::BTreeSet<String>,
}

/// Parses `args` into positionals, `--flag value` options (for names
/// in `value_flags`), bare `--flag` switches (for names in
/// `switch_flags` or `opt_value_flags`), and `--flag=value` inline
/// options — the latter accepted only for `value_flags` and
/// `opt_value_flags` (switches that take an *optional* inline value,
/// like `--component-branching[=N]`). Unknown flags, unknown
/// `--flag=value` forms, and a numeric argument right after an
/// optional-value switch (the space-separated form the `=` syntax
/// exists to disambiguate) are all rejected rather than silently
/// ignored. Returns the usage error as `Err` so the parser is
/// property-testable; the subcommands exit(2) on it.
fn parse_flags(
    args: &[String],
    value_flags: &[&str],
    opt_value_flags: &[&str],
    switch_flags: &[&str],
) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            // `--flag=value` form: inline value wins over lookahead.
            if let Some((name, value)) = name.split_once('=') {
                if !value_flags.contains(&name) && !opt_value_flags.contains(&name) {
                    return Err(format!("--{name} does not take an =value"));
                }
                flags.options.insert(name.to_string(), value.to_string());
                continue;
            }
            if value_flags.contains(&name) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?
                    .clone();
                flags.options.insert(name.to_string(), v);
            } else if opt_value_flags.contains(&name) {
                // Bare switch form — but a numeric argument right
                // after it is almost certainly a value the user meant
                // to attach; demand the unambiguous `=` form instead
                // of silently treating it as the instance path.
                if let Some(next) = it.peek() {
                    if next.parse::<f64>().is_ok() {
                        return Err(format!("--{name} takes its value as --{name}={next}"));
                    }
                }
                flags.switches.insert(name.to_string());
            } else if switch_flags.contains(&name) {
                flags.switches.insert(name.to_string());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        } else {
            flags.positional.push(a.clone());
        }
    }
    Ok(flags)
}

/// `r`'s value, or its message and exit 2: the CLI's usage error.
fn usage_or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// [`parse_flags`] with the CLI's exit-on-usage-error behaviour.
fn parse_flags_or_exit(
    args: &[String],
    value_flags: &[&str],
    opt_value_flags: &[&str],
    switch_flags: &[&str],
) -> Flags {
    usage_or_exit(parse_flags(
        args,
        value_flags,
        opt_value_flags,
        switch_flags,
    ))
}

/// Option `--name` converted by `parse`, if given; a value `parse`
/// rejects exits 2 with a message naming what the flag takes.
fn option_or_exit<T>(
    flags: &Flags,
    name: &str,
    takes: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let v = flags.options.get(name)?;
    Some(usage_or_exit(
        parse(v).ok_or_else(|| format!("--{name} takes {takes}, got '{v}'")),
    ))
}

/// Option `--name` converted by a `parse` that explains its own
/// errors, if given; an error exits 2 with that message.
fn parsed_or_exit<T>(
    flags: &Flags,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    let v = flags.options.get(name)?;
    Some(usage_or_exit(
        parse(v).map_err(|e| format!("--{name}: {e}")),
    ))
}

/// A non-negative number of seconds within `Duration`'s range.
fn seconds(v: &str) -> Option<Duration> {
    Duration::try_from_secs_f64(v.parse().ok()?).ok()
}

/// [`option_or_exit`] for a time in seconds.
fn seconds_or_exit(flags: &Flags, name: &str) -> Option<Duration> {
    option_or_exit(flags, name, "seconds", seconds)
}

/// Builds the graph the positional `<instance>` names, through
/// [`io::load_instance`]. `--format` is parsed first, so a bad name
/// exits 2 even when the instance is a spec. A malformed spec exits 2;
/// a file that cannot be opened or parsed exits 1.
fn instance_or_exit(cmd: &str, flags: &Flags) -> CsrGraph {
    let format = parsed_or_exit(flags, "format", io::Format::parse);
    let Some(source) = flags.positional.first() else {
        eprintln!("{cmd}: missing instance (file or generator spec)");
        std::process::exit(2);
    };
    io::load_instance(source, format).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(match e {
            io::LoadError::Spec(_) => 2,
            io::LoadError::File(_) => 1,
        });
    })
}

/// Writes `contents` to `path`, or exits 1 with a message.
fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// `g` as DIMACS text.
fn dimacs_text(g: &CsrGraph) -> Vec<u8> {
    let mut text = Vec::new();
    io::write_dimacs(g, "edge", &mut text).expect("writing to memory cannot fail");
    text
}

/// Parses a `d012,crown,highdeg,split` stage list into a [`PrepConfig`]
/// (absent flag = every stage on).
fn parse_prep_rules(list: Option<&String>) -> PrepConfig {
    let Some(list) = list else {
        return PrepConfig::default();
    };
    let mut cfg = PrepConfig {
        low_degree: false,
        crown: false,
        high_degree: false,
        split_components: false,
        ..PrepConfig::default()
    };
    for rule in list.split(',').filter(|r| !r.is_empty()) {
        match rule {
            "d012" => cfg.low_degree = true,
            "crown" => cfg.crown = true,
            "highdeg" => cfg.high_degree = true,
            "split" => cfg.split_components = true,
            other => {
                eprintln!("unknown prep rule '{other}' (d012|crown|highdeg|split)");
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// The `--policy` value, or its historical alias `--algorithm`
/// (default `hybrid`), exiting on an unknown name.
fn policy_or_exit(flags: &Flags) -> Algorithm {
    let name = flags
        .options
        .get("policy")
        .or_else(|| flags.options.get("algorithm"));
    usage_or_exit(name.map_or(Ok(Algorithm::Hybrid), |p| Algorithm::parse(p)))
}

/// The solver options `solve` and `resolve` share: policy, deadline,
/// threads, exec, prep, weighted and telemetry. Exits 2 on a malformed
/// value.
fn solver_builder_or_exit(flags: &Flags) -> SolverBuilder {
    let mut builder = Solver::builder()
        .algorithm(policy_or_exit(flags))
        .deadline(seconds_or_exit(flags, "deadline"));
    // --threads caps the resident thread blocks (one OS thread each);
    // --blocks is the historical alias.
    let count = |name| option_or_exit(flags, name, "a count", |v| v.parse().ok());
    if let Some(blocks) = count("threads").or_else(|| count("blocks")) {
        builder = builder.grid_limit(Some(blocks));
    }
    if let Some(spec) = parsed_or_exit(flags, "exec", ExecutorSpec::parse) {
        builder = builder.executor(spec);
    }
    if flags.switches.contains("prep") || flags.options.contains_key("prep-rules") {
        builder = builder.preprocess(parse_prep_rules(flags.options.get("prep-rules")));
    }
    if flags.switches.contains("weighted") {
        builder = builder.weighted();
    }
    // --trace-out / --metrics-out turn on the recording sink (zero
    // overhead otherwise).
    if flags.options.contains_key("trace-out") || flags.options.contains_key("metrics-out") {
        builder = builder.telemetry(parvc::core::TelemetryConfig::default());
    }
    builder
}

fn cmd_solve(args: &[String]) {
    let flags = parse_flags_or_exit(
        args,
        &[
            "policy",
            "algorithm",
            "k",
            "deadline",
            "format",
            "blocks",
            "threads",
            "exec",
            "prep-rules",
            "trace-out",
            "metrics-out",
        ],
        &["component-branching", "timeline", "progress"],
        &["prep", "weighted"],
    );
    let mut builder = solver_builder_or_exit(&flags);
    // `--component-branching` (default trigger) or
    // `--component-branching=<min-live>`.
    if let Some(min_live) =
        option_or_exit(&flags, "component-branching", "a live-vertex count", |v| {
            v.parse().ok()
        })
    {
        builder = builder.component_branching_params(SplitParams { min_live });
    } else if flags.switches.contains("component-branching") {
        builder = builder.component_branching_params(SplitParams::default());
    }
    // --timeline needs the model-cycle span logs, --progress attaches
    // the heartbeat.
    let timeline = option_or_exit(&flags, "timeline", "a column count", |v| v.parse().ok())
        .or_else(|| flags.switches.contains("timeline").then_some(100));
    if timeline.is_some() {
        builder = builder.record_trace(true);
    }
    if let Some(every) = seconds_or_exit(&flags, "progress") {
        builder = builder.progress(every);
    } else if flags.switches.contains("progress") {
        builder = builder.progress(Duration::from_secs(5));
    }
    let weighted = flags.switches.contains("weighted");
    let k = option_or_exit(&flags, "k", "a cover size", |v| v.parse::<u32>().ok());
    if k.is_some() && weighted {
        eprintln!("--weighted applies to MVC; PVC (--k) is a cardinality question");
        std::process::exit(2);
    }
    let solver = builder.build();
    let g = instance_or_exit("solve", &flags);

    eprintln!(
        "instance: |V|={}, |E|={}{}",
        g.num_vertices(),
        g.num_edges(),
        if g.is_weighted() {
            ", vertex-weighted"
        } else if weighted {
            ", unit weights"
        } else {
            ""
        }
    );
    match k {
        Some(k) => {
            let r = solver.solve_pvc(&g, k);
            match &r.cover {
                Some(cover) => {
                    assert!(is_vertex_cover(&g, cover));
                    outln!("yes: cover of size {} <= {k}", cover.len());
                    outln!("{:?}", cover);
                }
                None if r.stats.timed_out => outln!("unknown: budget exhausted"),
                None => outln!("no: no vertex cover of size <= {k} exists"),
            }
            eprintln!(
                "{} tree nodes, {:.3}s",
                r.stats.tree_nodes,
                r.stats.seconds()
            );
            emit_observability(&r.stats, &flags, timeline);
        }
        None => {
            let r = solver.solve_mvc(&g);
            assert!(is_vertex_cover(&g, &r.cover));
            match (weighted, r.stats.timed_out) {
                (true, false) => {
                    outln!(
                        "minimum weight vertex cover: weight {} ({} vertices)",
                        r.weight,
                        r.size
                    );
                }
                (true, true) => {
                    outln!(
                        "best cover found (NOT proven minimum): weight {} ({} vertices)",
                        r.weight,
                        r.size
                    );
                }
                (false, false) => outln!("minimum vertex cover: {}", r.size),
                (false, true) => {
                    outln!("best cover found (NOT proven minimum): {}", r.size)
                }
            }
            outln!("{:?}", r.cover);
            eprintln!(
                "{} tree nodes, {:.3}s (greedy bound was {})",
                r.stats.tree_nodes,
                r.stats.seconds(),
                r.stats.greedy_size
            );
            if let Some(prep) = &r.stats.prep {
                eprintln!(
                    "prep: {:.1}% of vertices eliminated, {} forced, kernel |V|={} in {} components",
                    prep.elimination() * 100.0,
                    prep.forced,
                    prep.kernel_vertices,
                    prep.components
                );
            }
            let splits = r.stats.report.split_totals();
            if splits.checks > 0 {
                eprintln!(
                    "in-search splits: {} taken of {} checks, {} components donated to sub-searches",
                    splits.taken, splits.checks, splits.components
                );
            }
            emit_observability(&r.stats, &flags, timeline);
        }
    }
}

/// Writes the post-solve observability outputs the `--trace-out`,
/// `--metrics-out` and `--timeline` flags requested: the Chrome trace
/// and flat metrics snapshot drained from `stats.telemetry`, plus the
/// per-block model-cycle activity timeline.
fn emit_observability(stats: &parvc::core::SolveStats, flags: &Flags, timeline: Option<usize>) {
    if let Some(snap) = &stats.telemetry {
        if let Some(path) = flags.options.get("trace-out") {
            write_or_exit(path, snap.chrome_trace());
            eprintln!(
                "wrote Chrome trace ({} spans) to {path} — open in Perfetto \
                 or chrome://tracing",
                snap.spans.len()
            );
        }
        if let Some(path) = flags.options.get("metrics-out") {
            write_or_exit(path, snap.metrics_json());
            eprint!("{}", snap.metrics_table());
            eprintln!("wrote metrics snapshot to {path}");
        }
    }
    if let Some(width) = timeline {
        eprint!(
            "{}",
            parvc::simgpu::trace::render_launch(&stats.report.blocks, width)
        );
    }
}

/// Parses the `--edits` value: a `gen:<ops>[:<insert_frac>][@seed]`
/// spec ([`gen::spec::parse_edits`], seeded against the loaded
/// instance; malformed exits 2) or a script file in the `EditScript`
/// text format (unreadable or malformed exits 1).
fn load_edits(spec: &str, g: &CsrGraph) -> parvc::graph::EditScript {
    if let Some(script) = usage_or_exit(gen::spec::parse_edits(spec, g)) {
        return script;
    }
    let text = std::fs::read_to_string(spec).unwrap_or_else(|e| {
        eprintln!("cannot read edit script {spec}: {e}");
        std::process::exit(1);
    });
    parvc::graph::EditScript::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse edit script {spec}: {e}");
        std::process::exit(1);
    })
}

fn cmd_resolve(args: &[String]) {
    let flags = parse_flags_or_exit(
        args,
        &[
            "edits",
            "policy",
            "algorithm",
            "deadline",
            "format",
            "blocks",
            "threads",
            "exec",
            "prep-rules",
            "trace-out",
            "metrics-out",
        ],
        &[],
        &["prep", "weighted"],
    );
    let solver = solver_builder_or_exit(&flags).build();
    let weighted = flags.switches.contains("weighted");
    let Some(edit_spec) = flags.options.get("edits") else {
        eprintln!("resolve: --edits <script-file|gen:<ops>[:<frac>][@seed]> is required");
        std::process::exit(2);
    };
    let g = instance_or_exit("resolve", &flags);
    let edits = load_edits(edit_spec, &g);

    eprintln!(
        "instance: |V|={}, |E|={}{}",
        g.num_vertices(),
        g.num_edges(),
        if g.is_weighted() {
            ", vertex-weighted"
        } else {
            ""
        }
    );
    let initial = solver.solve_mvc(&g);
    assert!(is_vertex_cover(&g, &initial.cover));
    if weighted {
        outln!(
            "initial optimum: weight {} ({} vertices), {} tree nodes",
            initial.weight,
            initial.size,
            initial.stats.tree_nodes
        );
    } else {
        outln!(
            "initial optimum: {}, {} tree nodes",
            initial.size,
            initial.stats.tree_nodes
        );
    }
    let summary = edits.summary(&g);
    eprintln!(
        "edit batch: {} ops (+e {}, -e {}, +v {}, -v {})",
        edits.len(),
        summary.edge_inserts,
        summary.edge_deletes,
        summary.vertex_inserts,
        summary.vertex_deletes
    );
    let r = solver.resolve(&g, &initial, &edits).unwrap_or_else(|e| {
        eprintln!("resolve: edit script does not apply: {e}");
        std::process::exit(1);
    });
    assert!(is_vertex_cover(&r.graph, &r.result.cover));
    match (weighted, r.result.stats.timed_out) {
        (true, false) => outln!(
            "resolved optimum: weight {} ({} vertices)",
            r.result.weight,
            r.result.size
        ),
        (true, true) => outln!(
            "best resolved cover (NOT proven minimum): weight {} ({} vertices)",
            r.result.weight,
            r.result.size
        ),
        (false, false) => outln!("resolved optimum: {}", r.result.size),
        (false, true) => outln!(
            "best resolved cover (NOT proven minimum): {}",
            r.result.size
        ),
    }
    outln!("{:?}", r.result.cover);
    let s = &r.stats;
    eprintln!(
        "components: {} total, {} reused, {} invalidated, {} re-solved",
        s.components_total, s.components_reused, s.components_invalidated, s.components_resolved
    );
    eprintln!(
        "warm bounds: {} ({} re-solve tree nodes vs {} initially); \
         union-find label builds: {}",
        if s.warm_skips > 0 {
            "met — search skipped"
        } else if s.warm_bound_hits > 0 {
            "seed was already optimal"
        } else {
            "search improved on the seed"
        },
        s.resolve_tree_nodes,
        initial.stats.tree_nodes,
        s.uf_rebuilds
    );
    emit_observability(&r.result.stats, &flags, None);
}

fn cmd_approx(args: &[String]) {
    let flags = parse_flags_or_exit(args, &["exec", "format"], &[], &["weighted"]);
    let exec = parsed_or_exit(&flags, "exec", ExecutorSpec::parse)
        .unwrap_or(ExecutorSpec::Serial)
        .build();
    let g = instance_or_exit("approx", &flags);
    let weighted = flags.switches.contains("weighted");
    eprintln!(
        "instance: |V|={}, |E|={}{}",
        g.num_vertices(),
        g.num_edges(),
        if g.is_weighted() {
            ", vertex-weighted"
        } else if weighted {
            ", unit weights"
        } else {
            ""
        }
    );
    let mut counters = parvc::simgpu::counters::BlockCounters::new(0);
    let start = std::time::Instant::now();
    let a = parvc::core::approx::approx_cover(&g, weighted, &*exec, &mut counters);
    let elapsed = start.elapsed();
    assert!(is_vertex_cover(&g, &a.cover));
    if weighted {
        outln!(
            "2-approximate cover: weight {} ({} vertices)",
            a.cost,
            a.cover.len()
        );
        outln!(
            "primal-dual certificate: optimum weight in [{}, {}]",
            a.lower_bound,
            a.cost
        );
    } else {
        outln!("2-approximate cover: {} vertices", a.cost);
        outln!(
            "matching certificate: optimum size in [{}, {}]",
            a.lower_bound,
            a.cost
        );
    }
    outln!("{:?}", a.cover);
    eprintln!(
        "{} matching round(s){}, {:.3}s",
        a.rounds,
        if a.compressed {
            " (low-degree tail compressed serially)"
        } else {
            ""
        },
        elapsed.as_secs_f64()
    );
}

fn cmd_serve(args: &[String]) {
    let flags = parse_flags_or_exit(
        args,
        &[
            "listen",
            "workers",
            "high-water",
            "deadline",
            "cache-capacity",
            "cache-file",
            "policy",
            "exec",
            "script",
        ],
        &[],
        &["no-prep"],
    );
    let algorithm = policy_or_exit(&flags);
    let executor =
        parsed_or_exit(&flags, "exec", ExecutorSpec::parse).unwrap_or(ExecutorSpec::Serial);
    let numeric = |name: &str, default: usize| {
        option_or_exit(&flags, name, "a non-negative integer", |v| v.parse().ok())
            .unwrap_or(default)
    };
    let cfg = parvc::serve::ServeConfig {
        algorithm,
        executor,
        prep: !flags.switches.contains("no-prep"),
        grid_limit: None,
        high_water: numeric("high-water", 4),
        default_deadline: seconds_or_exit(&flags, "deadline"),
        cache_capacity: numeric("cache-capacity", 128),
        cache_path: flags.options.get("cache-file").map(Into::into),
        telemetry: false,
    };
    // Parsed before the mode is picked, so script mode refuses it too.
    let max = parvc::serve::tcp::MAX_WORKERS;
    let takes = format!("an integer from 1 to {max}");
    let workers: u32 = option_or_exit(&flags, "workers", &takes, |v| {
        v.parse().ok().filter(|n| (1..=max).contains(n))
    })
    .unwrap_or(4);
    let server = parvc::serve::Server::new(cfg);

    // Offline mode: replay a request script and exit.
    if let Some(script) = flags.options.get("script") {
        let text = if script == "-" {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| {
                    eprintln!("cannot read stdin: {e}");
                    std::process::exit(1);
                });
            buf
        } else {
            std::fs::read_to_string(script).unwrap_or_else(|e| {
                eprintln!("cannot read {script}: {e}");
                std::process::exit(1);
            })
        };
        for line in text.lines() {
            if let Some(response) = server.handle(line) {
                outln!("{response}");
            }
        }
        return;
    }

    let listen = flags
        .options
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7070");
    let listener = std::net::TcpListener::bind(listen).unwrap_or_else(|e| {
        eprintln!("cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "parvc serve: listening on {listen} ({workers} workers, high-water {}, cache {} entries)",
        server.config().high_water,
        server.config().cache_capacity,
    );
    let stop = std::sync::atomic::AtomicBool::new(false);
    if let Err(e) = parvc::serve::serve_listener(&server, &listener, workers, &stop) {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
}

fn cmd_prep(args: &[String]) {
    let flags = parse_flags_or_exit(args, &["format", "out", "rules"], &[], &["weighted"]);
    let mut cfg = parse_prep_rules(flags.options.get("rules"));
    cfg.weighted = flags.switches.contains("weighted");
    let g = instance_or_exit("prep", &flags);
    let start = std::time::Instant::now();
    let kernel = preprocess(&g, &cfg);
    let elapsed = start.elapsed();
    let s = &kernel.stats;

    outln!(
        "original: |V|={} |E|={}",
        s.original_vertices,
        s.original_edges
    );
    outln!(
        "{:<16} {:>10} {:>10} {:>7}",
        "rule",
        "covered",
        "excluded",
        "passes"
    );
    for r in &s.rules {
        match r.note {
            Some(note) => outln!(
                "{:<16} {:>10} {:>10} {:>7}  [{note}]",
                r.name,
                "-",
                "-",
                "-"
            ),
            None => outln!(
                "{:<16} {:>10} {:>10} {:>7}",
                r.name,
                r.covered,
                r.excluded,
                r.passes
            ),
        }
    }
    outln!(
        "kernel:   |V|={} |E|={} in {} components (largest {})",
        s.kernel_vertices,
        s.kernel_edges,
        s.components,
        s.largest_component
    );
    outln!(
        "eliminated {:.1}% of vertices ({} forced into the cover, {} avoidable) \
         in {} rounds, {:.3}s",
        s.elimination() * 100.0,
        s.forced,
        s.original_vertices - s.kernel_vertices - s.forced,
        s.rounds,
        elapsed.as_secs_f64()
    );
    if kernel.is_fully_reduced() {
        let cover = kernel.lift(&[]);
        assert!(is_vertex_cover(&g, &cover));
        if cfg.weighted {
            outln!(
                "fully reduced: preprocessing alone proves the minimum weight vertex cover \
                 is {} ({} vertices)",
                g.cover_weight(&cover),
                cover.len()
            );
        } else {
            outln!(
                "fully reduced: preprocessing alone proves the minimum vertex cover is {}",
                cover.len()
            );
        }
    }
    if let Some(out) = flags.options.get("out") {
        write_or_exit(out, dimacs_text(&kernel.kernel_graph()));
        eprintln!("wrote the kernel (disjoint component union) to {out}");
    }
}

fn cmd_generate(args: &[String]) {
    let flags = parse_flags_or_exit(args, &["seed", "out", "weights"], &[], &[]);
    let seed = option_or_exit(&flags, "seed", "an integer", |v| v.parse().ok()).unwrap_or(42);
    let p = &flags.positional;
    let Some(family) = p.first() else {
        eprintln!("generate: missing family");
        std::process::exit(2);
    };
    let fam_args: Vec<f64> = p[1..]
        .iter()
        .map(|t| {
            t.parse().unwrap_or_else(|_| {
                eprintln!("generate: bad numeric argument '{t}' for family {family}");
                std::process::exit(2);
            })
        })
        .collect();
    let mut g = usage_or_exit(gen::spec::generate(family, seed, &fam_args));
    if let Some(w) = flags.options.get("weights") {
        g = usage_or_exit(gen::spec::attach_weights(g, w, seed));
    }
    match flags.options.get("out") {
        Some(path) => {
            write_or_exit(path, dimacs_text(&g));
            eprintln!(
                "wrote |V|={}, |E|={} to {path}",
                g.num_vertices(),
                g.num_edges()
            );
        }
        None => to_stdout(|out| out.write_all(&dimacs_text(&g))),
    }
}

fn cmd_analyze(args: &[String]) {
    let flags = parse_flags_or_exit(args, &["format"], &[], &[]);
    let g = instance_or_exit("analyze", &flags);
    let stats = analysis::degree_stats(&g);
    let (_, components) = ops::connected_components(&g);
    outln!("vertices:        {}", g.num_vertices());
    outln!("edges:           {}", g.num_edges());
    outln!("|E|/|V|:         {:.3}", analysis::edge_vertex_ratio(&g));
    outln!("degree class:    {}", analysis::degree_class(&g));
    outln!(
        "degrees:         min {} / mean {:.2} / max {} / stddev {:.2}",
        stats.min,
        stats.mean,
        stats.max,
        stats.std_dev
    );
    outln!("components:      {components}");
    outln!("triangles:       {}", analysis::triangle_count(&g));
    let core = kcore::core_decomposition(&g);
    let two_core = core.core_number.iter().filter(|&&c| c >= 2).count();
    outln!(
        "degeneracy:      {} ({} of {} vertices survive the reduction-resistant 2-core)",
        core.degeneracy,
        two_core,
        g.num_vertices()
    );
    match matching::bipartition(&g) {
        Some(_) => {
            let cover = matching::konig_cover(&g).expect("bipartite");
            outln!("bipartite:       yes — exact MVC by Kőnig: {}", cover.len());
        }
        None => {
            let lb = matching::greedy_maximal_matching(&g).len();
            let (ub, _) = parvc::core::greedy::greedy_mvc(&g);
            outln!("bipartite:       no — MVC within [{lb}, {ub}] (matching LB, greedy UB)");
        }
    }
}

fn cmd_demo() {
    let g = gen::paper_example();
    outln!(
        "the paper's Figure 2 graph ({} vertices, {} edges)",
        g.num_vertices(),
        g.num_edges()
    );
    let solver = Solver::builder()
        .algorithm(Algorithm::Hybrid)
        .grid_limit(Some(4))
        .build();
    let r = solver.solve_mvc(&g);
    outln!("minimum vertex cover: {} = {:?}", r.size, r.cover);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `solve` subcommand's flag tables — the richest surface
    /// (value flags, an optional-value flag, and switches including
    /// the new `--weighted`), shared by the fuzz properties below.
    const SOLVE_VALUE: &[&str] = &[
        "policy",
        "algorithm",
        "k",
        "deadline",
        "format",
        "blocks",
        "threads",
        "exec",
        "prep-rules",
        "seed",
        "trace-out",
        "metrics-out",
    ];
    const SOLVE_OPT: &[&str] = &["component-branching", "timeline", "progress"];
    const SOLVE_SWITCH: &[&str] = &["prep", "weighted"];

    fn solve_flags(args: &[String]) -> Result<Flags, String> {
        parse_flags(args, SOLVE_VALUE, SOLVE_OPT, SOLVE_SWITCH)
    }

    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.";

    /// A 1–8 character word over `charset` (the shim has no regex
    /// string strategies).
    fn arb_word(charset: &'static [u8]) -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..charset.len(), 1..9)
            .prop_map(move |ix| ix.into_iter().map(|i| charset[i] as char).collect())
    }

    /// An arbitrary argv token: known flags in all forms, unknown
    /// flags, `=`-values, positionals, and junk.
    fn arb_token() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("--policy".to_string()),
            Just("--weighted".to_string()),
            Just("--prep".to_string()),
            Just("--component-branching".to_string()),
            Just("--component-branching=4".to_string()),
            Just("--k=3".to_string()),
            Just("--k".to_string()),
            Just("--deadline=0.5".to_string()),
            Just("--weighted=yes".to_string()),
            Just("--bogus".to_string()),
            Just("--prep=on".to_string()),
            Just("steal".to_string()),
            Just("gnp:20:0.2@7".to_string()),
            Just("12".to_string()),
            Just("0.5".to_string()),
            Just("graph.dimacs".to_string()),
            Just("--".to_string()),
            Just(String::new()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Total: any argv either parses or reports a usage error —
        /// no panic, and accepted output is structurally consistent
        /// with the flag tables.
        #[test]
        fn parse_flags_is_total_and_consistent(
            args in proptest::collection::vec(arb_token(), 0..8)
        ) {
            match solve_flags(&args) {
                Err(e) => prop_assert!(!e.is_empty(), "empty usage error"),
                Ok(f) => {
                    for key in f.options.keys() {
                        prop_assert!(
                            SOLVE_VALUE.contains(&key.as_str())
                                || SOLVE_OPT.contains(&key.as_str()),
                            "option {key} not in the flag tables"
                        );
                    }
                    for s in &f.switches {
                        prop_assert!(
                            SOLVE_SWITCH.contains(&s.as_str())
                                || SOLVE_OPT.contains(&s.as_str()),
                            "switch {s} not in the flag tables"
                        );
                    }
                    for p in &f.positional {
                        prop_assert!(!p.starts_with("--") || p == "--");
                    }
                    // Nothing is invented: every positional appeared in
                    // the input verbatim.
                    for p in &f.positional {
                        prop_assert!(args.contains(p));
                    }
                }
            }
        }

        /// `--flag=value` round-trips into `options` for every value
        /// flag and optional-value flag, regardless of surrounding
        /// noise positionals.
        #[test]
        fn inline_values_land_in_options(
            idx in 0usize..9,
            value in arb_word(ALNUM),
            prefix in proptest::collection::vec(Just("x".to_string()), 0..3),
        ) {
            let all: Vec<&str> = SOLVE_VALUE
                .iter()
                .chain(SOLVE_OPT.iter())
                .copied()
                .collect();
            let name = all[idx % all.len()];
            let mut args = prefix.clone();
            args.push(format!("--{name}={value}"));
            let f = solve_flags(&args).expect("inline value form must parse");
            prop_assert_eq!(f.options.get(name), Some(&value));
            prop_assert_eq!(f.positional.len(), prefix.len());
        }

        /// Unknown flags are always rejected, in both bare and
        /// `=value` forms.
        #[test]
        fn unknown_flags_are_rejected(name in arb_word(LOWER), value in arb_word(ALNUM)) {
            let known = SOLVE_VALUE.contains(&name.as_str())
                || SOLVE_OPT.contains(&name.as_str())
                || SOLVE_SWITCH.contains(&name.as_str());
            if !known {
                prop_assert!(solve_flags(&[format!("--{name}")]).is_err());
                prop_assert!(solve_flags(&[format!("--{name}={value}")]).is_err());
            }
        }

        /// A value flag as the last token always errors (missing
        /// value), and a switch taking `=value` always errors.
        #[test]
        fn malformed_forms_error(idx in 0usize..8, sw in 0usize..3) {
            let name = SOLVE_VALUE[idx % SOLVE_VALUE.len()];
            prop_assert!(solve_flags(&[format!("--{name}")]).is_err());
            let switch = SOLVE_SWITCH[sw % SOLVE_SWITCH.len()];
            prop_assert!(
                solve_flags(&[format!("--{switch}=1")]).is_err(),
                "--{switch} must not take an =value"
            );
        }
    }

    #[test]
    fn time_flags_take_only_durations() {
        assert_eq!(seconds("0.5"), Some(Duration::from_millis(500)));
        assert_eq!(
            seconds("1e19"),
            Some(Duration::from_secs(10_000_000_000_000_000_000))
        );
        for bad in ["-1", "1e20", "abc", "NaN", "inf", ""] {
            assert_eq!(seconds(bad), None, "'{bad}'");
        }
    }

    #[test]
    fn weighted_interactions_parse_as_documented() {
        // --weighted composes with the rest of the solve surface.
        let args: Vec<String> = ["--weighted", "--policy", "steal", "--prep", "gnp:20:0.2@7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = solve_flags(&args).unwrap();
        assert!(f.switches.contains("weighted"));
        assert!(f.switches.contains("prep"));
        assert_eq!(f.options.get("policy"), Some(&"steal".to_string()));
        assert_eq!(f.positional, vec!["gnp:20:0.2@7".to_string()]);

        // --weighted is a bare switch: the =value form is a usage error.
        assert!(solve_flags(&["--weighted=1".to_string()]).is_err());

        // An optional-value switch still demands the `=` form for a
        // numeric follower, even with --weighted in front.
        let err = solve_flags(&[
            "--weighted".to_string(),
            "--component-branching".to_string(),
            "4".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("component-branching=4"), "got: {err}");
    }

    /// `docs/cli.md` is the committed output of `parvc help --markdown`.
    /// If this fails, regenerate it:
    /// `cargo run --release --bin parvc -- help --markdown > docs/cli.md`.
    #[test]
    fn cli_reference_doc_is_current() {
        let committed = include_str!("../../docs/cli.md");
        assert_eq!(
            committed,
            help_markdown(),
            "docs/cli.md is stale — regenerate with \
             `cargo run --release --bin parvc -- help --markdown > docs/cli.md`"
        );
    }

    /// The `--policy` reference lists exactly the policy table's names.
    #[test]
    fn policy_flag_lists_the_policy_table() {
        let names = Algorithm::NAMES.map(|(name, _)| name).join("|");
        assert_eq!(POLICY_FLAG, format!("--policy <{names}>"));
    }

    /// Every documented subcommand exists and every subcommand is
    /// documented (no drift between the dispatcher and the reference).
    #[test]
    fn every_subcommand_is_documented() {
        let documented: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(
            documented,
            vec![
                "solve", "resolve", "approx", "serve", "prep", "generate", "analyze", "demo",
                "help"
            ]
        );
        for c in COMMANDS {
            assert!(c.usage.starts_with("parvc "), "{}: bad usage line", c.name);
            assert!(!c.summary.is_empty());
            assert!(c.example.starts_with("parvc"), "{}: bad example", c.name);
            for f in c.flags {
                assert!(f.flag.starts_with("--"), "{}: bad flag {}", c.name, f.flag);
                assert!(!f.desc.is_empty(), "{}: {} undocumented", c.name, f.flag);
            }
        }
    }
}
