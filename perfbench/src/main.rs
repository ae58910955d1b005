//! `perfbench` — the served-path benchmark for `hrdmd`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload range --seed 1 --seconds 13 --trace 0
//! ```
//!
//! One run: generate the seeded dataset, bulk-load and checkpoint it,
//! start the real `hrdmd` on it, drive one workload closed-loop over
//! loopback, SIGKILL the server, restart it on the same directory and
//! check that it holds exactly the preloaded plus acknowledged keys. The
//! last line of standard output is the JSON result; `README.md` beside
//! this package explains the workloads and what is not measured.

mod gen;
mod load;
mod report;
mod server;
mod trace;

use gen::{Dataset, Fresh, ReadKind, Spec};
use load::Sample;
use report::{median, percentile, Metrics};
use server::Hrdmd;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <range|scan|ingest> --seed <n> \
--seconds <n> --trace <0|1> [--tuples <n>]";

/// Requests issued before the measured window opens are not counted.
const WARMUP: Duration = Duration::from_millis(500);
/// Share of `--seconds` that `range` and `scan` spend on reads. The rest
/// is a write phase (one writer, no reader), so every workload reports
/// write latency and has acknowledged writes to check after the kill.
const READ_SHARE: f64 = 0.55;
/// The first query every (re)started server must answer.
const PROBE: &str = "SELECT-WHEN (K = 0) (r)";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Range,
    Scan,
    Ingest,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "range" => Some(Workload::Range),
            "scan" => Some(Workload::Scan),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    fn reads(self) -> ReadKind {
        match self {
            Workload::Range => ReadKind::Range,
            Workload::Scan => ReadKind::Scan,
            Workload::Ingest => ReadKind::KeyProbe,
        }
    }

    /// `(read, write)` percentiles of `*_tail_ms`: the highest that leave
    /// at least ten samples beyond them at the sample counts this
    /// workload reaches with `--seconds 13` on a 2-core machine (also
    /// listed in BENCHMARK.json and README.md).
    fn tails(self) -> (f64, f64) {
        match self {
            Workload::Range => (99.0, 75.0),
            Workload::Scan => (75.0, 75.0),
            Workload::Ingest => (99.0, 90.0),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tuples: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut tuples = 1_000_000;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--tuples" => tuples = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !seconds.is_finite() || seconds <= 0.0 || tuples < 1000 {
        return Err("--seconds must be positive and --tuples at least 1000".into());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        tuples,
    })
}

/// Everything one run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The directory Cargo built this binary into (`<target>/<profile>/`'s
/// parent), where `hrdmd` is built too and scratch data lives.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| "cannot locate the target directory".into())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("no repository root")?;
    let target = target_dir()?;
    let bin = server::build_hrdmd(repo, &target)?;
    let name = format!("{:?}-{}-{}", args.workload, args.seed, std::process::id());
    let work = target.join("perfbench-data").join(&name);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = measure(args, &bin, &work, &target);
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn measure(args: &Args, bin: &Path, dir: &Path, target: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let mut m = Metrics::default();
    let mut layers = Metrics::default();

    // Set-up: generate, bulk-load, checkpoint, start hrdmd, first answer.
    let setup = Instant::now();
    let data = Dataset::generate(args.seed, args.tuples);
    let (load_s, checkpoint_s) = load::bulk_load(dir, &data)?;
    let (mut server, mut c0, _) = Hrdmd::start(bin, dir, PROBE)?;
    m.put("setup_s", setup.elapsed().as_secs_f64(), "s");
    layers.put("storage.database.load_s", load_s, "s");
    layers.put("storage.database.checkpoint_s", checkpoint_s, "s");
    let tuple_bytes = dir_bytes(dir) as f64 / data.len() as f64;
    layers.put("storage.disk_bytes_per_tuple", tuple_bytes, "B");

    let mut c1 = match w {
        Workload::Range | Workload::Ingest => Some(
            hrdm_net::Client::connect_as(server.addr.as_str(), "perfbench")
                .map_err(|e| format!("second client: {e}"))?,
        ),
        Workload::Scan => None,
    };
    let before = if args.trace {
        Some(trace::Counters::read(&mut c0, dir)?)
    } else {
        None
    };

    // The measured window; one thread per client, each closed-loop.
    let mut fresh = Fresh::new(args.seed, data.len() as i64);
    let read_s = match w {
        Workload::Ingest => args.seconds,
        Workload::Range | Workload::Scan => args.seconds * READ_SHARE,
    };
    let window_start = Instant::now() + WARMUP;
    let deadline = window_start + Duration::from_secs_f64(read_s);
    let (mut reads, mut writes, mut acked): (Vec<Vec<Sample>>, Vec<Sample>, Vec<Spec>) =
        (Vec::new(), Vec::new(), Vec::new());
    let (cpu0, cpu1, window_end) = std::thread::scope(|s| {
        let data = &data;
        let mut handles = vec![s.spawn(|| {
            load::read_loop(
                &mut c0,
                data,
                w.reads(),
                args.seed,
                0,
                window_start,
                deadline,
            )
        })];
        let mut writer = None;
        if let Some(c1) = c1.as_mut() {
            if w == Workload::Ingest {
                let fresh = &mut fresh;
                writer = Some(s.spawn(move || load::write_loop(c1, fresh, window_start, deadline)));
            } else {
                handles.push(s.spawn(move || {
                    load::read_loop(c1, data, w.reads(), args.seed, 1, window_start, deadline)
                }));
            }
        }
        std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
        let cpu0 = server.cpu_ms();
        for h in handles {
            reads.push(h.join().expect("read client panicked"));
        }
        if let Some(h) = writer {
            (writes, acked) = h.join().expect("write client panicked");
        }
        (cpu0, server.cpu_ms(), Instant::now())
    });
    let window_s = (window_end - window_start).as_secs_f64();
    let mut write_s = window_s;
    let window_ops = reads.iter().flatten().filter(|s| !s.warmup).count()
        + writes.iter().filter(|s| !s.warmup).count();
    if w != Workload::Ingest {
        let started = Instant::now();
        let until = started + Duration::from_secs_f64(args.seconds - read_s);
        (writes, acked) = load::write_loop(&mut c0, &mut fresh, started, until);
        write_s = started.elapsed().as_secs_f64();
    }
    let after = if args.trace {
        Some(trace::Counters::read(&mut c0, dir)?)
    } else {
        None
    };
    let rss_mb = server.peak_rss_mb();
    drop((c0, c1));

    // Durability: SIGKILL (a process kill, not a power loss), restart,
    // and compare the whole relation with preloaded + acknowledged keys.
    server.kill();
    let (mut restarted, probe_client, recover_s) = Hrdmd::start(bin, dir, PROBE)?;
    drop(probe_client);
    let durable = load::check_contents(&restarted.addr, data.len(), &acked);
    restarted.kill();
    if let Err(e) = &durable {
        eprintln!("perfbench: durability check failed: {e}");
    }

    let all_reads: Vec<Sample> = reads.iter().flatten().copied().collect();
    let measured_reads: Vec<&Sample> = all_reads.iter().filter(|s| !s.warmup).collect();
    let measured_writes: Vec<&Sample> = writes.iter().filter(|s| !s.warmup).collect();
    let ms = |v: &[&Sample]| -> Vec<f64> { v.iter().map(|s| s.ns as f64 / 1e6).collect() };
    let (read_tail, write_tail) = w.tails();
    let read_ms = ms(&measured_reads);
    let write_ms = ms(&measured_writes);
    let rows: u64 = measured_reads.iter().map(|s| s.rows).sum();
    m.put("reads_per_s", measured_reads.len() as f64 / window_s, "1/s");
    m.put("read_p50_ms", median(&read_ms), "ms");
    m.put("read_tail_ms", percentile(&read_ms, read_tail), "ms");
    m.put("rows_per_s", rows as f64 / window_s, "1/s");
    m.put(
        "writes_per_s",
        measured_writes.len() as f64 / write_s,
        "1/s",
    );
    m.put("write_p50_ms", median(&write_ms), "ms");
    m.put("write_tail_ms", percentile(&write_ms, write_tail), "ms");
    m.put("recover_s", recover_s, "s");
    m.put("server_rss_mb", rss_mb, "MB");
    m.put(
        "server_cpu_ms_per_op",
        (cpu1 - cpu0) / window_ops.max(1) as f64,
        "ms",
    );

    let mut attempted = (all_reads.len() + writes.len()) as u64 + 1;
    let mut failed = all_reads.iter().chain(&writes).filter(|s| !s.ok).count() as u64
        + u64::from(durable.is_err());
    eprintln!(
        "perfbench: {w:?} seed {}: {} reads ({read_tail}th pct tail), {} writes \
         ({write_tail}th pct tail), error_rate {}",
        args.seed,
        measured_reads.len(),
        measured_writes.len(),
        failed as f64 / attempted as f64
    );

    if let (Some(a), Some(b)) = (before, after) {
        trace::counter_metrics(&a, &b, &all_reads, writes.len() as u64, &mut layers);
        let mut tracer = trace::Tracer::new();
        let budget = Duration::from_secs_f64(args.seconds);
        let replayed = trace::replay(
            dir,
            &data,
            &acked,
            w.reads(),
            args.seed,
            &reads[0],
            budget,
            &mut tracer,
            &mut layers,
        )?;
        attempted += replayed.attempted;
        failed += replayed.failed;
        let spans = target
            .join("perfbench-traces")
            .join(format!("{w:?}-{}.jsonl", args.seed).to_lowercase());
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        eprintln!("perfbench: spans written to {}", spans.display());
        m = layers;
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(o) => {
            for (name, value, unit) in &o.metrics.0 {
                eprintln!("perfbench: {name} = {value} {unit}");
            }
            println!(
                "{}",
                report::result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
