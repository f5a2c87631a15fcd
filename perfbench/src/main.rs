//! The repository benchmark: one command running one workload of the
//! district data framework, checking its outcomes and printing every
//! metric with its unit and clock.
//!
//! ```text
//! perfbench --workload <ingest|query> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale tiny] [--inject <defect>]
//! ```
//!
//! `--trace 0` repeats the workload (set-up included) until `--seconds`
//! of host time have passed and reports the end-to-end metrics: set-up
//! time and throughputs as medians over the repetitions after the first,
//! sim-clock figures from the first (every repetition must produce the
//! same sim-outcome digest). Repetitions run on each allowed CPU in
//! turn, and throughputs are taken per round of one repetition on every
//! CPU.
//! `--trace 1` makes one untraced repetition at 2 threads, then
//! alternates untraced and traced repetitions at 1 thread and reports
//! the per-layer metrics of the traced ones. The last line of standard
//! output is one JSON object; the exit code is non-zero when any outcome
//! check failed. See `README.md` beside this file for every metric.

mod host;
mod ingest;
mod layers;
mod query;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use workload::{quantile, secs, Defect, Rep, RunCfg, Scale};

/// Every end-to-end metric: name, unit, clock.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "host"),
    ("sim_x_real", "sim-s/host-s", "host"),
    ("work_per_s", "1/s", "host"),
    ("latency_p50_ms", "ms", "sim"),
    ("latency_p99_ms", "ms", "sim"),
    ("peak_rss_mb", "MiB", "host"),
];

/// Rounds per timed run: at least this many, so the host figures are
/// medians. Before them one repetition warms the process up (page
/// faults, caches); it is checked but left out of the host figures.
const MIN_ROUNDS: usize = 3;

/// CPUs a round visits at most, so that on a large machine a round still
/// fits many times into `--seconds`.
const MAX_ROUND_CPUS: usize = 4;

/// Threads of the one untraced repetition a traced run makes to check
/// that the sim-outcome digest does not depend on the thread count and
/// to read the lookahead barrier's stall time. Timed and traced
/// repetitions run at 1 thread, so host time measures per-event cost,
/// not scheduling.
const CHECK_THREADS: usize = 2;

struct Workload {
    name: &'static str,
    run: fn(&RunCfg) -> Rep,
    /// What `work_per_s` counts.
    work: &'static str,
    /// What the latency percentiles time.
    latency: &'static str,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ingest",
        run: ingest::run,
        work: "samples stored at a Device-proxy plus samples accepted by an aggregator",
        latency: "sample timestamp -> subscriber delivery",
    },
    Workload {
        name: "query",
        run: query::run,
        work: "completed area and profile queries",
        latency: "query due time -> integrated snapshot",
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    defect: Option<Defect>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut get = BTreeMap::new();
    while let Some(key) = raw.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument {key:?}"));
        };
        let value = raw.next().ok_or(format!("{key} needs a value"))?;
        get.insert(name.to_owned(), value);
    }
    let need = |k: &str| get.get(k).ok_or(format!("--{k} is required"));
    let name = need("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name.as_str())
        .ok_or(format!("unknown workload {name:?}"))?;
    let num = |k: &str, v: &String| {
        v.parse::<u64>()
            .map_err(|_| format!("--{k}: bad number {v:?}"))
    };
    let args = Args {
        workload,
        seed: num("seed", need("seed")?)?,
        seconds: num("seconds", need("seconds")?)? as f64,
        trace: match need("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        scale: match get.get("scale").map(String::as_str) {
            None | Some("full") => Scale::Full,
            Some("tiny") => Scale::Tiny,
            Some(other) => return Err(format!("unknown scale {other:?}")),
        },
        defect: match get.get("inject") {
            None => None,
            Some(d) => Some(Defect::parse(d).ok_or(format!("unknown defect {d:?}"))?),
        },
    };
    if let Some(k) = get.keys().find(|k| {
        !["workload", "seed", "seconds", "trace", "scale", "inject"].contains(&k.as_str())
    }) {
        return Err(format!("unknown option --{k}"));
    }
    Ok(args)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Thread CPU affinity through the C library's scheduler calls.
mod affinity {
    /// Words of a `cpu_set_t` (1,024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on (empty if unknown).
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Pins the calling thread to `cpu`.
    pub fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            eprintln!(
                "cannot pin to CPU {cpu}: {}",
                std::io::Error::last_os_error()
            );
        }
    }
}

/// `nproc`, `rustc -V` and the git commit of the checkout, if any.
fn fingerprint() -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "none".to_owned())
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = run(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
        &["-V"],
    );
    let commit = run(
        "git",
        &["--git-dir", ".git", "rev-parse", "--short=12", "HEAD"],
    );
    format!("nproc={nproc} rustc=\"{rustc}\" commit={commit}")
}

/// The checks every run makes across its repetitions.
struct Ledger {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Ledger {
    fn add(&mut self, rep: &Rep, label: &str, digest: u64) {
        self.attempted += rep.outcome.attempted;
        self.failed += rep.outcome.failed;
        for reason in &rep.outcome.reasons {
            eprintln!("outcome check failed ({label}): {reason}");
        }
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => {
                eprintln!("outcome check failed ({label}): sim-outcome digest {digest:#018x} != {d:#018x}");
                self.failed += 1;
            }
            Some(_) => {}
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cfg = |threads: usize, traced: bool| RunCfg {
        seed: args.seed,
        scale: args.scale,
        threads,
        traced,
        defect: args.defect,
    };
    let fp = fingerprint();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} {fp}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        digest: None,
    };
    // Injected digest defect: the second repetition reports another digest.
    let digest_of = |rep: &Rep, i: usize| {
        rep.digest() ^ u64::from(args.defect == Some(Defect::Digest) && i == 1)
    };
    let t_start = Instant::now();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        let mut first: Option<Rep> = None;
        let mut rss_mb = 0.0;
        // The CPUs are not alike: on a shared VM one can run a fifth
        // slower than another for minutes, and the scheduler keeps the
        // run's one thread on whichever it started on. So each round is
        // one repetition pinned to every allowed CPU, and each run
        // samples every CPU alike.
        let mut cpus = affinity::allowed();
        cpus.truncate(MAX_ROUND_CPUS);
        let round_len = cpus.len().max(1);
        let mut setups = Vec::new();
        // Per completed round: simulated seconds and work per host second.
        let (mut sim_rates, mut work_rates) = (Vec::new(), Vec::new());
        let (mut run_s, mut sim_s, mut work) = (0.0, 0.0, 0u64);
        let mut n = 0;
        while n == 0
            || (n - 1) % round_len != 0
            || sim_rates.len() < MIN_ROUNDS
            || secs(t_start) < args.seconds
        {
            if n > 0 && !cpus.is_empty() {
                affinity::pin(cpus[(n - 1) % round_len]);
            }
            let rep = (w.run)(&cfg(1, false));
            ledger.add(&rep, &format!("rep {n}"), digest_of(&rep, n));
            println!(
                "rep {n}: setup {:.4} s, measured run {:.4} s",
                rep.setup.total(),
                rep.run_s
            );
            if n == 0 {
                // Read after the first repetition, so the peak does not
                // depend on how many repetitions fit in `--seconds`.
                rss_mb = peak_rss_mb();
                first = Some(rep);
            } else {
                setups.push(rep.setup.total());
                run_s += rep.run_s;
                sim_s += rep.sim_s;
                work += rep.work;
                if n % round_len == 0 {
                    sim_rates.push(sim_s / run_s);
                    work_rates.push(work as f64 / run_s);
                    (run_s, sim_s, work) = (0.0, 0.0, 0);
                }
            }
            n += 1;
        }
        let first = first.expect("at least one repetition");
        let rounds = sim_rates.len();
        let values = [
            median(setups),
            median(sim_rates),
            median(work_rates),
            quantile(&first.latencies_ns, 0.50) as f64 / 1e6,
            quantile(&first.latencies_ns, 0.99) as f64 / 1e6,
            rss_mb,
        ];
        for (&(name, unit, clock), v) in END_TO_END.iter().zip(values) {
            println!("{name} = {v:.6} {unit} ({clock} clock)");
            metrics.push((name, v, unit));
        }
        println!(
            "reps={n} rounds={} cpus={cpus:?} work=\"{}\" latency=\"{}\" samples={}",
            rounds,
            w.work,
            w.latency,
            first.latencies_ns.len()
        );
    } else {
        let rep = (w.run)(&cfg(CHECK_THREADS, false));
        ledger.add(
            &rep,
            &format!("untraced, {CHECK_THREADS} threads"),
            digest_of(&rep, 0),
        );
        let stall_ns = rep.barrier_stall_ns;
        let mut overheads = Vec::new();
        let mut last: Option<(Rep, Rep)> = None;
        while last.is_none() || secs(t_start) < args.seconds {
            let plain = (w.run)(&cfg(1, false));
            let traced = (w.run)(&cfg(1, true));
            ledger.add(
                &plain,
                "untraced, 1 thread",
                digest_of(&plain, 1 + overheads.len()),
            );
            ledger.add(&traced, "traced, 1 thread", traced.digest());
            overheads.push(traced.run_s / plain.run_s - 1.0);
            last = Some((plain, traced));
        }
        let (plain, traced) = last.expect("at least one pair ran");
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        values.extend(traced.counts.iter().map(|(k, v)| (*k, *v)));
        values.extend(traced.timings.iter().map(|(k, v)| (*k, *v)));
        values.insert("simnet.barrier_stall_ns", stall_ns as f64);
        values.insert("setup.scenario_s", plain.setup.scenario_s);
        values.insert("setup.deploy_s", plain.setup.deploy_s);
        values.insert("setup.preload_s", plain.setup.preload_s);
        values.insert("setup.register_s", plain.setup.register_s);
        values.insert("bench.trace_overhead", median(overheads));
        for &(name, unit) in layers::PER_LAYER {
            let v = values.get(name).copied().unwrap_or(0.0);
            println!("{name} = {v} {unit}");
            metrics.push((name, v, unit));
        }
        println!("spans written to {}", layers::SPANS_FILE);
    }
    let digest = ledger.digest.unwrap_or(0);
    let failed_frac = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    println!("sim-outcome digest = {digest:#018x}");
    println!(
        "failed_frac = {failed_frac} ({} failed of {} attempted)",
        ledger.failed, ledger.attempted
    );
    let correct = ledger.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"fingerprint\": \"{}\", \"digest\": \"{digest:#018x}\", \"metrics\": {{{}}}}}\n",
        w.name,
        args.seed,
        u8::from(args.trace),
        fp.replace('"', "'"),
        body.join(", ")
    );
    let written = std::fs::create_dir_all(".perfbench").and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(".perfbench/records.jsonl")
            .and_then(|mut f| f.write_all(record.as_bytes()))
    });
    if let Err(e) = written {
        eprintln!("cannot append .perfbench/records.jsonl: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
