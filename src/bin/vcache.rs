//! `vcache` — command-line front end for the prime-mapped cache toolkit.
//!
//! ```text
//! vcache simulate --cache prime:13 --stride 1024 --length 4096 --sweeps 2
//! vcache plan-subblock --rows 10000 [--exponent 13]
//! vcache plan-fft --points 1048576 [--exponent 13]
//! vcache compare --tm 64 --blocking 4096
//! vcache check --src --programs
//! ```
//!
//! Argument parsing is deliberately dependency-free: flags are
//! `--name value` pairs (a per-command list of switches takes no value);
//! unknown flags are errors.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Write as _};
use std::process::ExitCode;

use prime_cache::cache::{CacheSim, ReplacementPolicy, StreamId, WordAddr};
use prime_cache::check::{run_check, CheckOptions};
use prime_cache::core::blocking::conflict_free_subblock;
use prime_cache::core::fft::{plan_fft, plan_is_conflict_free};
use prime_cache::machine::{CacheSpec, CcMachine, MachineConfig, MmMachine};
use prime_cache::mersenne::MersenneModulus;
use prime_cache::model::{cycles_per_result, Machine, MachineKind, Workload};
use prime_cache::serve::{Client, FaultPlan, Server, ServerConfig};
use prime_cache::trace::{analyze, JsonlSink, TraceSink};
use prime_cache::workloads::{generate_program, StrideDistribution, Vcm};
use serde::Value;

const USAGE: &str = "\
vcache — prime-mapped vector cache toolkit (Yang & Wu, ISCA 1992)

USAGE:
  vcache simulate --cache <SPEC> --stride <S> --length <N> [--sweeps <K>] [--base <A>]
                  [--trace <FILE>]
      Run a strided vector through a cache simulator and print the stats.
      With --trace, write one JSONL event per access to FILE.
      <SPEC> is one of:
        prime:<c>          2^c - 1 lines, prime-mapped (c in {2,3,5,7,13,17,19,31})
        direct:<lines>     direct-mapped, power-of-two lines
        assoc:<lines>:<ways>  set-associative LRU
  vcache plan-subblock --rows <P> [--exponent <c>]
      Print the conflict-free b1 x b2 sub-block for leading dimension P.
  vcache plan-fft --points <N> [--exponent <c>]
      Print the conflict-free B1 x B2 factorization of an N-point FFT.
  vcache compare --tm <T> [--blocking <B>] [--pds <F>] [--pstride1 <F>] [--trace <FILE>]
      Evaluate the paper's analytical model for all three machine models.
      With --trace, also run the trace-driven machine simulators on a
      matching VCM program and write their event streams to FILE.
  vcache analyze --trace <FILE> [--window <W>] [--top <N>]
      Read a JSONL trace and print per-stream miss timelines (one row per
      W-access window), bank occupancy, and the top N conflicting sets.
  vcache check [--src] [--programs] [--nests] [--prescribe] [--workloads]
               [--probabilistic] [--json] [--root <DIR>]
      Static analysis gate. --src runs the workspace source lints
      (VC001-VC009, allowlist in staticcheck.allow); --programs runs the
      canonical static-verdict suite (Layer 2, VC100 on drift); --nests
      runs the affine loop-nest suite (Layer 3, VC101 on drift), and
      --prescribe additionally plans the full repair frontier for every
      interfering nest row and prints the cost-ranked certificates (best
      per row plus ranked alternatives; VC102 when no repair verifies,
      VC106 when the best choice drifts from the committed table);
      --workloads certifies every
      generator in vcache-workloads against its loop-nest lowering
      (word-set equality or an explicit non-affine exclusion, VC103 on
      drift); --probabilistic computes closed-form ExpectedConflicts
      verdicts for every non-affine workload under both mappers,
      validated by seeded Monte-Carlo sweeps (VC105 on drift; with
      --prescribe, also quantified SwitchToPrime advisories). With no
      layer switch, all layers run. Exits non-zero on any finding not
      covered by the allowlist.
  vcache serve [--addr <A>] [--unix <PATH>] [--workers <N>] [--queue <N>]
               [--deadline-ms <N>] [--retry-after-ms <N>] [--faults <SPEC>] [--root <DIR>]
               [--spans <FILE>] [--slow-ms <N>] [--cache <N>]
      Run the analysis daemon (NDJSON over TCP, plus a Unix socket with
      --unix). Prints `listening on <addr>` once bound; --addr defaults
      to 127.0.0.1:0 (ephemeral port). SIGTERM/SIGINT drain gracefully
      and print a final metrics snapshot. <SPEC> arms fault injection,
      e.g. `seed=7,panic=0.02,delay=0.05:20,torn=0.02`. With --spans,
      every request's span tree (DESIGN.md §8) is appended to FILE as
      JSONL; requests slower than --slow-ms (default 1000, 0 disables)
      are logged to stderr as structured slow_request lines. --cache
      bounds the digest-keyed verdict cache (entries, default 1024, 0
      disables; DESIGN.md §9).
  vcache stat --addr <A> [--prom] [--json] [--attempts <N>]
      Fetch a running daemon's status and render it: a human summary by
      default, the Prometheus text exposition with --prom, or the raw
      status JSON with --json.
  vcache client <op> --addr <A> [--deadline-ms <N>] [--attempts <N>] [op flags]
      Call a running daemon with retries (decorrelated-jitter backoff).
      --addr may be a comma-separated list of daemon addresses;
      transport failures fail over to the next address.
      <op> is one of:
        ping | status | shutdown
        check    [--src] [--programs] [--nests] [--prescribe] [--workloads]
                 [--probabilistic] [--json] [--root <DIR>]
                 (remote equivalent of `vcache check`; --json output is
                 byte-identical to the local command)
        analyze  --trace <FILE> [--window <W>] [--top <N>]
  vcache help
      Show this message.

Unknown flags are errors. Output cut short by its reader (`| head`)
ends the command with exit 0.
";

/// The flags one command accepts: `values` take an argument, `switches`
/// stand alone. Anything else on its command line is an error.
struct FlagSpec {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

/// A command whose flags all take a value.
const fn takes(values: &'static [&'static str]) -> FlagSpec {
    FlagSpec {
        values,
        switches: &[],
    }
}

const CHECK: FlagSpec = FlagSpec {
    values: &["root"],
    switches: &[
        "src",
        "programs",
        "nests",
        "prescribe",
        "workloads",
        "probabilistic",
        "json",
    ],
};

const ANALYZE: FlagSpec = takes(&["trace", "window", "top"]);

const NO_FLAGS: FlagSpec = takes(&[]);

/// Every command's flags. `client check` and `client analyze` take the
/// flags of the local command they mirror, plus [`CLIENT`]'s.
const COMMANDS: &[(&str, FlagSpec)] = &[
    (
        "simulate",
        takes(&["cache", "stride", "length", "sweeps", "base", "trace"]),
    ),
    ("plan-subblock", takes(&["rows", "exponent"])),
    ("plan-fft", takes(&["points", "exponent"])),
    (
        "compare",
        takes(&["tm", "blocking", "pds", "pstride1", "trace"]),
    ),
    ("analyze", ANALYZE),
    ("check", CHECK),
    (
        "serve",
        takes(&[
            "addr",
            "unix",
            "workers",
            "queue",
            "deadline-ms",
            "retry-after-ms",
            "faults",
            "root",
            "spans",
            "slow-ms",
            "cache",
        ]),
    ),
    (
        "stat",
        FlagSpec {
            values: &["addr", "attempts"],
            switches: &["prom", "json"],
        },
    ),
    ("help", NO_FLAGS),
];

/// The flags every `client` op accepts.
const CLIENT: FlagSpec = takes(&["addr", "deadline-ms", "attempts"]);

/// Which standard stream [`emit`] writes.
#[derive(Clone, Copy)]
enum Stream {
    Out,
    Err,
}

/// Writes CLI output. A closed stream — its reader went away, as in
/// `vcache analyze … | head -1` — ends the process with exit 0, where
/// `println!` would panic on the broken pipe: nobody is left to read
/// the rest. Unit tests go through `print!` so the harness captures
/// command output.
fn emit(stream: Stream, args: fmt::Arguments<'_>) {
    if cfg!(test) {
        match stream {
            Stream::Out => print!("{args}"),
            Stream::Err => eprint!("{args}"),
        }
        return;
    }
    let written = match stream {
        Stream::Out => io::stdout().lock().write_fmt(args),
        Stream::Err => io::stderr().lock().write_fmt(args),
    };
    if let Err(e) = written {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        let _ = writeln!(io::stderr(), "error: cannot write output: {e}");
        std::process::exit(1);
    }
}

macro_rules! out {
    ($($arg:tt)*) => {
        emit(Stream::Out, format_args!($($arg)*))
    };
}

macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

macro_rules! errln {
    ($($arg:tt)*) => {
        emit(Stream::Err, format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            errln!("error: {msg}");
            errln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `Ok(code)` is a completed command (possibly reporting failure, e.g. a
/// dirty `check`); `Err` is a usage error and prints the help text.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err("no command given".into());
    };
    if command == "client" {
        let Some(op) = args.get(1) else {
            return Err("client needs an op: ping | status | shutdown | check | analyze".into());
        };
        let own = match op.as_str() {
            "ping" | "status" | "shutdown" => &NO_FLAGS,
            "check" => &CHECK,
            "analyze" => &ANALYZE,
            other => return Err(format!("unknown client op `{other}`")),
        };
        let flags =
            parse_flags(&args[2..], &[&CLIENT, own]).map_err(|e| format!("client {op}: {e}"))?;
        return client_cmd(op, &flags);
    }
    let name = match command.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let Some((_, spec)) = COMMANDS.iter().find(|(known, _)| *known == name) else {
        return Err(format!("unknown command `{command}`"));
    };
    let flags = parse_flags(&args[1..], &[spec]).map_err(|e| format!("{name}: {e}"))?;
    match name {
        "simulate" => simulate(&flags).map(|()| ExitCode::SUCCESS),
        "plan-subblock" => plan_subblock(&flags).map(|()| ExitCode::SUCCESS),
        "plan-fft" => plan_fft_cmd(&flags).map(|()| ExitCode::SUCCESS),
        "compare" => compare(&flags).map(|()| ExitCode::SUCCESS),
        "analyze" => analyze_cmd(&flags).map(|()| ExitCode::SUCCESS),
        "check" => check_cmd(&flags),
        "serve" => serve_cmd(&flags),
        "stat" => stat_cmd(&flags).map(|()| ExitCode::SUCCESS),
        "help" => {
            outln!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parses `--name value` pairs against the accepted flags in `specs`;
/// switches take no value and are recorded with the value `"true"`.
fn parse_flags(args: &[String], specs: &[&FlagSpec]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        if specs.iter().any(|spec| spec.switches.contains(&name)) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        if !specs.iter().any(|spec| spec.values.contains(&name)) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    flags
        .get(name)
        .ok_or_else(|| format!("missing required flag --{name}"))?
        .parse()
        .map_err(|_| format!("invalid value for --{name}"))
}

fn get_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{name}")),
    }
}

fn build_cache(spec: &str) -> Result<CacheSim, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let cache = match parts.as_slice() {
        ["prime", c] => {
            let c: u32 = c.parse().map_err(|_| "bad exponent".to_string())?;
            CacheSim::prime_mapped(c, 1)
        }
        ["direct", lines] => {
            let lines: u64 = lines.parse().map_err(|_| "bad line count".to_string())?;
            CacheSim::direct_mapped(lines, 1)
        }
        ["assoc", lines, ways] => {
            let lines: u64 = lines.parse().map_err(|_| "bad line count".to_string())?;
            let ways: u64 = ways.parse().map_err(|_| "bad way count".to_string())?;
            CacheSim::set_associative(lines, ways, 1, ReplacementPolicy::Lru)
        }
        _ => return Err(format!("unrecognised cache spec `{spec}`")),
    };
    cache.map_err(|e| e.to_string())
}

fn simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let spec: String = get(flags, "cache")?;
    let stride: u64 = get(flags, "stride")?;
    let length: u64 = get(flags, "length")?;
    let sweeps: u64 = get_or(flags, "sweeps", 2)?;
    let base: u64 = get_or(flags, "base", 0)?;
    let mut cache = build_cache(&spec)?;
    match flags.get("trace") {
        Some(path) => {
            let mut sink = JsonlSink::create(path)
                .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
            for _ in 0..sweeps {
                cache.access_stream_traced(
                    WordAddr::new(base),
                    stride,
                    length,
                    StreamId::new(0),
                    &mut sink,
                );
            }
            sink.flush()
                .map_err(|e| format!("cannot write trace file {path}: {e}"))?;
            outln!("trace: {} events -> {path}", sink.written());
        }
        None => {
            for _ in 0..sweeps {
                cache.access_stream(WordAddr::new(base), stride, length, StreamId::new(0));
            }
        }
    }
    outln!(
        "{} cache, {} sets x {} ways: {}",
        cache.scheme_name(),
        cache.geometry().sets(),
        cache.geometry().ways(),
        cache.stats()
    );
    Ok(())
}

fn modulus_from(flags: &HashMap<String, String>) -> Result<MersenneModulus, String> {
    let exponent: u32 = get_or(flags, "exponent", 13)?;
    MersenneModulus::new(exponent).map_err(|e| e.to_string())
}

fn plan_subblock(flags: &HashMap<String, String>) -> Result<(), String> {
    let p: u64 = get(flags, "rows")?;
    let modulus = modulus_from(flags)?;
    if p == 0 {
        return Err("--rows must be positive".into());
    }
    let plan = conflict_free_subblock(p, u64::MAX, modulus);
    outln!(
        "P = {p}, C = {}: b1 = {}, b2 = {} ({} elements, utilization {:.4})",
        modulus.value(),
        plan.b1,
        plan.b2,
        plan.blocking_factor(),
        plan.utilization()
    );
    Ok(())
}

fn plan_fft_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let n: u64 = get(flags, "points")?;
    let modulus = modulus_from(flags)?;
    match plan_fft(n, modulus) {
        Some(plan) => {
            outln!(
                "N = {n}: B1 = {}, B2 = {} (conflict-free on {} lines: {})",
                plan.b1,
                plan.b2,
                modulus.value(),
                plan_is_conflict_free(plan, modulus)
            );
            Ok(())
        }
        None => Err(format!(
            "N = {n} is not blockable (need a power of two >= 4 with a factor below {})",
            modulus.value()
        )),
    }
}

fn compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let t_m: u64 = get(flags, "tm")?;
    let b: u64 = get_or(flags, "blocking", 4096)?;
    let p_ds: f64 = get_or(flags, "pds", 0.1)?;
    let p1: f64 = get_or(flags, "pstride1", 0.25)?;
    if t_m == 0 || b == 0 {
        return Err("--tm and --blocking must be positive".into());
    }
    let machine = Machine {
        mvl: 64,
        banks: 64,
        t_m,
        cache_lines: 8192,
    };
    let n = 1u64 << 20;
    let mm = cycles_per_result(
        &machine,
        &Workload::random_strides(n, b, p_ds, p1, machine.banks),
        MachineKind::MmModel,
    );
    let direct = cycles_per_result(
        &machine,
        &Workload::random_strides(n, b, p_ds, p1, 8192),
        MachineKind::CcDirect,
    );
    let prime = cycles_per_result(
        &machine.with_prime_cache(13),
        &Workload::random_strides(n, b, p_ds, p1, 8191),
        MachineKind::CcPrime,
    );
    outln!("cycles per result at t_m = {t_m}, B = {b}, P_ds = {p_ds}, P_stride1 = {p1}:");
    outln!("  MM-model (no cache):     {mm:.3}");
    outln!("  CC-model, direct-mapped: {direct:.3}");
    outln!("  CC-model, prime-mapped:  {prime:.3}");
    outln!("  speedup prime vs direct: {:.2}x", direct / prime);
    outln!("  speedup prime vs MM:     {:.2}x", mm / prime);
    if let Some(path) = flags.get("trace") {
        compare_traced(path, t_m, b, p_ds, p1)?;
    }
    Ok(())
}

/// The trace-driven counterpart of `compare`: runs all three machine
/// simulators on one VCM program (shorter than the analytical model's
/// 2^20 elements to keep the trace file manageable) and streams every
/// event to `path`.
fn compare_traced(path: &str, t_m: u64, b: u64, p_ds: f64, p1: f64) -> Result<(), String> {
    let vcm = Vcm {
        blocking_factor: b,
        reuse_factor: 4,
        p_ds,
        stride1: StrideDistribution::UnitOrUniform {
            p_unit: p1,
            max: 64,
        },
        stride2: StrideDistribution::Fixed(1),
    };
    let elements = (4 * b).max(1 << 14);
    let program = generate_program(&vcm, elements, 1);
    let base = MachineConfig::paper_section4(t_m);
    let mm = MmMachine::new(base.clone()).map_err(|e| e.to_string())?;
    let mut direct =
        CcMachine::new(base.with_cache(CacheSpec::direct(8192))).map_err(|e| e.to_string())?;
    let mut prime =
        CcMachine::new(base.with_cache(CacheSpec::prime(13))).map_err(|e| e.to_string())?;

    let mut sink =
        JsonlSink::create(path).map_err(|e| format!("cannot create trace file {path}: {e}"))?;
    let mm_report = mm.execute_traced(&program, &mut sink);
    let direct_report = direct.execute_traced(&program, &mut sink);
    let prime_report = prime.execute_traced(&program, &mut sink);
    sink.flush()
        .map_err(|e| format!("cannot write trace file {path}: {e}"))?;

    outln!(
        "trace-driven simulators ({elements} elements, R = {}):",
        vcm.reuse_factor
    );
    outln!(
        "  MM-model (no cache):     {:.3}",
        mm_report.cycles_per_result()
    );
    outln!(
        "  CC-model, direct-mapped: {:.3}",
        direct_report.cycles_per_result()
    );
    outln!(
        "  CC-model, prime-mapped:  {:.3}",
        prime_report.cycles_per_result()
    );
    outln!("trace: {} events -> {path}", sink.written());
    Ok(())
}

fn analyze_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let path: String = get(flags, "trace")?;
    let window: u64 = get_or(flags, "window", 1024)?;
    let top: usize = get_or(flags, "top", 10)?;
    if window == 0 {
        return Err("--window must be positive".into());
    }
    let file = File::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (events, errors) = analyze::read_jsonl(BufReader::new(file))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    for (line, err) in &errors {
        errln!("warning: {path}:{line}: skipping unparseable event: {err}");
    }
    if !errors.is_empty() {
        errln!(
            "warning: {path}: skipped {} unparseable line(s)",
            errors.len()
        );
    }
    if events.is_empty() {
        return Err(if errors.is_empty() {
            format!("{path} contains no trace events")
        } else {
            format!(
                "{path}: no trace events parsed ({} corrupt line(s) skipped)",
                errors.len()
            )
        });
    }
    outln!("{} events from {path}", events.len());
    if !errors.is_empty() {
        outln!("({} corrupt line(s) skipped)", errors.len());
    }
    outln!();
    out!(
        "{}",
        analyze::render_timelines(&analyze::miss_timelines(&events, window))
    );
    outln!();
    out!(
        "{}",
        analyze::render_bank_table(&analyze::bank_occupancy(&events))
    );
    outln!();
    out!(
        "{}",
        analyze::render_conflict_sets(&analyze::top_conflict_sets(&events, top))
    );
    Ok(())
}

fn check_cmd(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let src = flags.contains_key("src");
    let programs = flags.contains_key("programs");
    let nests = flags.contains_key("nests");
    let workloads = flags.contains_key("workloads");
    let probabilistic = flags.contains_key("probabilistic");
    // With no layer switch given, run every layer.
    let all = !src && !programs && !nests && !workloads && !probabilistic;
    let options = CheckOptions {
        root: flags
            .get("root")
            .map_or_else(|| std::path::PathBuf::from("."), std::path::PathBuf::from),
        src: src || all,
        programs: programs || all,
        nests: nests || all,
        prescribe: flags.contains_key("prescribe"),
        workloads: workloads || all,
        probabilistic: probabilistic || all,
    };
    let report = run_check(&options).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        outln!("{}", report.to_json().map_err(|e| e.to_string())?);
    } else {
        out!("{}", report.render_text());
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Installs process-level handlers for SIGTERM/SIGINT that only set an
/// atomic flag; the daemon watches the flag and drains gracefully. Raw
/// libc FFI keeps the workspace dependency-free — this binary is the
/// one place outside `#![forbid(unsafe_code)]` crate roots.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler; polled by the daemon's watcher thread.
    pub static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn mark(_signum: i32) {
        // Only async-signal-safe work: a single atomic store.
        TERMINATE.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler = mark as extern "C" fn(i32) as usize;
        // SAFETY: `signal` registers an async-signal-safe handler that
        // performs one atomic store and touches nothing else.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn triggered() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

fn serve_cmd(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let fault_plan = match flags.get("faults") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::none(),
    };
    let config = ServerConfig {
        addr: get_or(flags, "addr", "127.0.0.1:0".to_string())?,
        unix_path: flags.get("unix").map(std::path::PathBuf::from),
        workers: get_or(flags, "workers", 4)?,
        queue_capacity: get_or(flags, "queue", 64)?,
        default_deadline_ms: get_or(flags, "deadline-ms", 10_000)?,
        retry_after_ms: get_or(flags, "retry-after-ms", 50)?,
        fault_plan,
        root: get_or(flags, "root", ".".to_string())?.into(),
        span_path: flags.get("spans").map(std::path::PathBuf::from),
        slow_request_ms: get_or(flags, "slow-ms", 1_000)?,
        cache_capacity: get_or(flags, "cache", 1_024)?,
    };
    let server = Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    outln!("listening on {addr}");
    let _ = io::stdout().flush();

    #[cfg(unix)]
    {
        signals::install();
        let handle = server.shutdown_handle();
        std::thread::spawn(move || loop {
            if signals::triggered() {
                handle.trigger();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    let snapshot = server.run().map_err(|e| format!("daemon failed: {e}"))?;
    errln!("drained; final metrics:");
    errln!("{}", snapshot.to_json());
    Ok(ExitCode::SUCCESS)
}

/// `vcache stat`: one `status` round trip, three renderings.
fn stat_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr: String = get(flags, "addr")?;
    let mut policy = prime_cache::serve::RetryPolicy::default();
    policy.max_attempts = get_or(flags, "attempts", policy.max_attempts)?;
    let mut client = Client::with_policy(addr, policy);
    let status = client.status().map_err(|e| e.to_string())?;
    if flags.contains_key("prom") {
        out!("{}", prime_cache::serve::stat::render_prom(&status));
    } else if flags.contains_key("json") {
        outln!(
            "{}",
            serde_json::to_string(&status).map_err(|e| e.to_string())?
        );
    } else {
        out!("{}", prime_cache::serve::stat::render_summary(&status));
    }
    Ok(())
}

fn client_cmd(op: &str, flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let addr: String = get(flags, "addr")?;
    let mut policy = prime_cache::serve::RetryPolicy::default();
    policy.max_attempts = get_or(flags, "attempts", policy.max_attempts)?;
    let mut client = Client::with_policy(addr, policy);
    let deadline_ms: Option<u64> = match flags.get("deadline-ms") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| "invalid value for --deadline-ms".to_string())?,
        ),
        None => None,
    };
    match op {
        "ping" | "status" | "shutdown" => {
            let result = client
                .call(op, Value::Obj(Vec::new()), deadline_ms)
                .map_err(|e| e.to_string())?;
            outln!(
                "{}",
                serde_json::to_string(&result).map_err(|e| e.to_string())?
            );
            Ok(ExitCode::SUCCESS)
        }
        "check" => client_check(&mut client, flags, deadline_ms),
        "analyze" => client_analyze(&mut client, flags, deadline_ms),
        other => Err(format!("unknown client op `{other}`")),
    }
}

/// Remote `vcache check`: same switches, same output, same exit code.
/// With `--json` the printed report is byte-identical to the local
/// command (the order-preserving JSON value round-trips exactly).
fn client_check(
    client: &mut Client,
    flags: &HashMap<String, String>,
    deadline_ms: Option<u64>,
) -> Result<ExitCode, String> {
    let mut params = Vec::new();
    for switch in [
        "src",
        "programs",
        "nests",
        "prescribe",
        "workloads",
        "probabilistic",
    ] {
        if flags.contains_key(switch) {
            params.push((switch.to_string(), Value::Bool(true)));
        }
    }
    if let Some(root) = flags.get("root") {
        params.push(("root".to_string(), Value::Str(root.clone())));
    }
    let result = client
        .call("check", Value::Obj(params), deadline_ms)
        .map_err(|e| e.to_string())?;
    let clean = matches!(result.get("clean"), Some(Value::Bool(true)));
    if flags.contains_key("json") {
        let report = result
            .get("report")
            .ok_or_else(|| "malformed check result: no `report`".to_string())?;
        outln!(
            "{}",
            serde_json::to_string(report).map_err(|e| e.to_string())?
        );
    } else {
        match result.get("text") {
            Some(Value::Str(text)) => out!("{text}"),
            _ => return Err("malformed check result: no `text`".into()),
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Remote `vcache analyze`: the daemon reads the trace file (a path on
/// *its* filesystem) and returns the rendered tables.
fn client_analyze(
    client: &mut Client,
    flags: &HashMap<String, String>,
    deadline_ms: Option<u64>,
) -> Result<ExitCode, String> {
    let path: String = get(flags, "trace")?;
    let mut params = vec![("path".to_string(), Value::Str(path.clone()))];
    if let Some(window) = flags.get("window") {
        let window: u64 = window
            .parse()
            .map_err(|_| "invalid value for --window".to_string())?;
        params.push(("window".to_string(), Value::U64(window)));
    }
    if let Some(top) = flags.get("top") {
        let top: u64 = top
            .parse()
            .map_err(|_| "invalid value for --top".to_string())?;
        params.push(("top".to_string(), Value::U64(top)));
    }
    let result = client
        .call("analyze_trace", Value::Obj(params), deadline_ms)
        .map_err(|e| e.to_string())?;
    let events = match result.get("events") {
        Some(Value::U64(n)) => *n,
        _ => return Err("malformed analyze result: no `events`".into()),
    };
    let skipped = match result.get("skipped") {
        Some(Value::U64(n)) => *n,
        _ => 0,
    };
    outln!("{events} events from {path}");
    if skipped > 0 {
        outln!("({skipped} corrupt line(s) skipped)");
    }
    for section in ["timelines", "banks", "conflicts"] {
        if let Some(Value::Str(text)) = result.get(section) {
            outln!();
            out!("{text}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let spec = FlagSpec {
            values: &["a", "b"],
            switches: &[],
        };
        let f = parse_flags(&strings(&["--a", "1", "--b", "x"]), &[&spec]).unwrap();
        assert_eq!(f["a"], "1");
        assert_eq!(f["b"], "x");
        assert!(parse_flags(&strings(&["--a"]), &[&spec]).is_err());
        assert!(parse_flags(&strings(&["a", "1"]), &[&spec]).is_err());
        let err = parse_flags(&strings(&["--a", "1", "--c", "2"]), &[&spec]).unwrap_err();
        assert!(err.contains("`--c`"), "{err}");
    }

    #[test]
    fn switch_parsing() {
        let args = strings(&["--src", "--root", "/tmp", "--json"]);
        let f = parse_flags(&args, &[&CHECK]).unwrap();
        assert_eq!(f["src"], "true");
        assert_eq!(f["json"], "true");
        assert_eq!(f["root"], "/tmp");
        assert!(!f.contains_key("programs"));
    }

    #[test]
    fn unknown_flags_and_fault_keys_fail_naming_them() {
        // One typo per command; each must fail before the command runs
        // (the serve cases would otherwise bind and block).
        for (line, named) in [
            ("simulate --cache prime:5 --strid 8", "`--strid`"),
            ("plan-subblock --rows 1000 --exponet 7", "`--exponet`"),
            ("plan-fft --points 1024 --exponnent 7", "`--exponnent`"),
            ("compare --tm 32 --blocknig 512", "`--blocknig`"),
            ("analyze --tracee t.jsonl", "`--tracee`"),
            ("check --programs --jsn", "`--jsn`"),
            ("serve --worker 2", "`--worker`"),
            ("serve --shards 2", "`--shards`"),
            ("serve --faults kill=0.1", "\"kill\""),
            ("stat --addr 127.0.0.1:1 --promm", "`--promm`"),
            ("help --verbose", "`--verbose`"),
            ("client ping --adr 127.0.0.1:1", "`--adr`"),
            ("client check --addr 127.0.0.1:1 --nest", "`--nest`"),
            ("client analyze --addr 127.0.0.1:1 --windw 4", "`--windw`"),
        ] {
            let args: Vec<&str> = line.split_whitespace().collect();
            let err = run(&strings(&args)).unwrap_err();
            assert!(err.contains(named), "{line}: {err}");
        }
    }

    #[test]
    fn usage_documents_exactly_each_commands_flags() {
        let documented = |text: &str| -> BTreeSet<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .map(String::from)
                .collect()
        };
        let accepted = |specs: &[&FlagSpec]| -> BTreeSet<String> {
            specs
                .iter()
                .flat_map(|spec| spec.values.iter().chain(spec.switches))
                .map(|name| name.to_string())
                .collect()
        };
        let client = ("client", vec![&CLIENT, &CHECK, &ANALYZE]);
        for (command, specs) in COMMANDS
            .iter()
            .map(|(name, spec)| (*name, vec![spec]))
            .chain([client])
        {
            let start = USAGE
                .find(&format!("\n  vcache {command} "))
                .or_else(|| USAGE.find(&format!("\n  vcache {command}\n")))
                .unwrap_or_else(|| panic!("USAGE lacks `{command}`"));
            let rest = &USAGE[start + 1..];
            let block = rest[1..]
                .find("\n  vcache ")
                .map_or(rest, |end| &rest[..=end]);
            assert_eq!(documented(block), accepted(&specs), "USAGE of `{command}`");
        }
    }

    #[test]
    fn cache_spec_parsing() {
        assert!(build_cache("prime:13").is_ok());
        assert!(build_cache("direct:8192").is_ok());
        assert!(build_cache("assoc:8192:4").is_ok());
        assert!(build_cache("prime:12").is_err());
        assert!(build_cache("bogus").is_err());
        assert!(build_cache("direct:notanumber").is_err());
    }

    #[test]
    fn commands_run() {
        assert!(simulate(&flags(&[
            ("cache", "prime:5"),
            ("stride", "8"),
            ("length", "31"),
        ]))
        .is_ok());
        assert!(plan_subblock(&flags(&[("rows", "1000")])).is_ok());
        assert!(plan_fft_cmd(&flags(&[("points", "1048576")])).is_ok());
        assert!(compare(&flags(&[("tm", "32")])).is_ok());
    }

    #[test]
    fn command_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&["bogus".to_string()]).is_err());
        assert!(plan_subblock(&flags(&[("rows", "0")])).is_err());
        assert!(plan_fft_cmd(&flags(&[("points", "1000")])).is_err());
        assert!(compare(&flags(&[("tm", "0")])).is_err());
        assert!(simulate(&flags(&[("cache", "prime:13")])).is_err()); // missing stride
    }

    #[test]
    fn simulate_trace_then_analyze() {
        let dir = std::env::temp_dir().join("vcache-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path = path.to_str().unwrap();
        assert!(simulate(&flags(&[
            ("cache", "direct:16"),
            ("stride", "8"),
            ("length", "64"),
            ("trace", path),
        ]))
        .is_ok());
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.lines().count(), 128); // 2 sweeps x 64 accesses
        assert!(text.lines().all(|l| l.starts_with("{\"ev\":\"cache\"")));
        assert!(analyze_cmd(&flags(&[("trace", path)])).is_ok());
        assert!(analyze_cmd(&flags(&[("trace", path), ("window", "0")])).is_err());
        assert!(analyze_cmd(&flags(&[("trace", "/nonexistent/trace.jsonl")])).is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn analyze_survives_a_torn_trace_file() {
        let dir = std::env::temp_dir().join("vcache-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = r#"{"ev":"cache","seq":1,"word":8,"stream":0,"set":1,"miss":"compulsory","evicted":null}"#;
        // One good line, one torn mid-record, one invalid UTF-8, one
        // truncated at EOF: analysis proceeds on the surviving line.
        let torn_path = dir.join("torn.jsonl");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(good.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&good.as_bytes()[..good.len() / 2]);
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xff, 0x80, b'\n']);
        bytes.extend_from_slice(&good.as_bytes()[..10]); // EOF mid-record
        std::fs::write(&torn_path, &bytes).unwrap();
        assert!(analyze_cmd(&flags(&[("trace", torn_path.to_str().unwrap())])).is_ok());
        // A file where *zero* lines parse is still an error.
        let dead_path = dir.join("dead.jsonl");
        std::fs::write(&dead_path, b"not json\nalso not json\n").unwrap();
        let err = analyze_cmd(&flags(&[("trace", dead_path.to_str().unwrap())])).unwrap_err();
        assert!(err.contains("no trace events parsed"), "{err}");
        assert!(err.contains("2 corrupt"), "{err}");
        std::fs::remove_file(torn_path).unwrap();
        std::fs::remove_file(dead_path).unwrap();
    }

    #[test]
    fn compare_trace_writes_machine_events() {
        let dir = std::env::temp_dir().join("vcache-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compare.jsonl");
        let path = path.to_str().unwrap();
        assert!(compare(&flags(&[
            ("tm", "32"),
            ("blocking", "512"),
            ("trace", path)
        ]))
        .is_ok());
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"ev\":\"phase_begin\""));
        assert!(text.contains("\"ev\":\"bank\""));
        assert!(text.contains("\"ev\":\"cache\""));
        assert!(analyze_cmd(&flags(&[("trace", path), ("window", "256")])).is_ok());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn help_runs() {
        assert!(run(&["help".to_string()]).is_ok());
    }

    #[test]
    fn check_suite_layer_is_green() {
        // --programs needs no filesystem: the canonical verdict suite must
        // pass wherever the binary runs.
        let code = check_cmd(&flags(&[("programs", "true")])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
    }

    #[test]
    fn check_nest_layer_is_green() {
        // --nests --prescribe needs no filesystem either: the canonical
        // nest suite and its repair certificates must pass anywhere.
        let code = check_cmd(&flags(&[("nests", "true"), ("prescribe", "true")])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
    }

    #[test]
    fn check_workload_layer_is_green() {
        // --workloads needs no filesystem: the workload-certification
        // suite builds its traces in memory and must pass anywhere.
        let code = check_cmd(&flags(&[("workloads", "true")])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
    }

    #[test]
    fn check_full_gate_is_clean_on_this_workspace() {
        // Cargo runs package tests from the package root, so `.` is the
        // workspace. Both layers must be clean modulo the allowlist — this
        // is the same gate scripts/ci.sh enforces.
        let code = check_cmd(&flags(&[("src", "true"), ("programs", "true")])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        // JSON mode must also succeed.
        let code = check_cmd(&flags(&[("programs", "true"), ("json", "true")])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
    }
}
