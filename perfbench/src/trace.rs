//! The traced run's two sources of per-layer numbers.
//!
//! 1. Spans around in-process calls into each layer's public functions,
//!    replaying the same request stream against `ConcurrentDatabase::open`
//!    of the same directory once `hrdmd` has stopped. Spans live in memory
//!    and are written out when the run ends.
//! 2. `hrdmd`'s own counters, read over the wire before and after the
//!    measured window, outside the timed section.

use crate::gen::{self, Dataset, Fresh, ReadKind, Requests, Spec};
use crate::load::{result_keys, Sample};
use crate::report::{median, ratio, Metrics};
use hrdm_core::Tuple;
use hrdm_net::{assemble_relation, decode_frame, encode_frame, Client, Frame, ServerStats};
use hrdm_query::{build_executor, optimize, parse_query, plan, ExecOptions, Query, QueryStream};
use hrdm_storage::{ConcurrentDatabase, DbSnapshot, WalRecord};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: name, start, end, the span that caused it, and the
/// request it served.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// A finished span's duration in nanoseconds.
    pub fn duration(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64
    }

    /// Each span's duration minus the part of it its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (lo, hi) in kids {
                    let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {self_ns}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn timed<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => {
            let id = t.begin(name, parent, request);
            let out = f();
            t.end(id);
            out
        }
        None => f(),
    }
}

/// Blocking steps of one read, in the order `hrdmd` and the client run
/// them. A request's self time along these accounts for its latency.
const READ_STEPS: [&str; 8] = [
    "query.parse",
    "query.optimize",
    "query.plan",
    "query.exec.open",
    "query.exec.next_batch",
    "net.frame.encode",
    "net.frame.decode",
    "net.client.assemble",
];

/// What one in-process read produced.
struct Served {
    keys: Vec<i64>,
    bytes: u64,
}

/// Serves `text` in-process the way `hrdmd` and `Client::query` do:
/// parse → optimize → plan → open → per batch (drain, encode a RowChunk,
/// decode it) → assemble the relation.
fn serve(
    snap: &DbSnapshot,
    text: &str,
    opts: &ExecOptions,
    mut tr: Option<&mut Tracer>,
    request: u64,
) -> Result<Served, String> {
    let root = tr.as_mut().map(|t| t.begin("request", None, request));
    let parsed = timed(&mut tr, "query.parse", root, request, || parse_query(text))
        .map_err(|e| e.to_string())?;
    let Query::Relation(expr) = parsed else {
        return Err(format!("{text} is not relation-sorted"));
    };
    let optimized = timed(&mut tr, "query.optimize", root, request, || {
        optimize(&expr).0
    });
    let physical = timed(&mut tr, "query.plan", root, request, || {
        plan(&optimized, snap)
    });
    let mut stream = timed(&mut tr, "query.exec.open", root, request, || {
        QueryStream::new(build_executor(&physical, snap, opts), opts)
    })
    .map_err(|e| e.to_string())?;
    let scheme = stream.scheme().clone();
    let mut tuples: Vec<Tuple> = Vec::new();
    let mut bytes = 0u64;
    loop {
        let batch = timed(&mut tr, "query.exec.next_batch", root, request, || {
            stream.next_batch()
        })
        .map_err(|e| e.to_string())?;
        let Some(batch) = batch else { break };
        let frame = Frame::RowChunk {
            tuples: batch.into_rows(),
        };
        let encoded = timed(&mut tr, "net.frame.encode", root, request, || {
            encode_frame(request, &frame)
        });
        bytes += encoded.len() as u64;
        let decoded = timed(&mut tr, "net.frame.decode", root, request, || {
            decode_frame(&encoded[4..])
        })
        .map_err(|e| format!("{e:?}"))?;
        if let (_, Frame::RowChunk { tuples: chunk }) = decoded {
            tuples.extend(chunk);
        }
    }
    let relation = timed(&mut tr, "net.client.assemble", root, request, || {
        assemble_relation(scheme, tuples)
    })
    .map_err(|e| e.to_string())?;
    if let (Some(t), Some(id)) = (tr, root) {
        t.end(id);
    }
    Ok(Served {
        keys: result_keys(&relation),
        bytes,
    })
}

/// In-process inserts timed while a snapshot is held.
const COMMITS: usize = 5;
/// Most requests replayed, which bounds the span file (about ten spans
/// per request) on workloads whose requests take microseconds.
const MAX_REPLAYED: usize = 2000;
/// `snapshot()` calls timed for `storage.concurrent.snapshot_ns`.
const SNAPSHOTS: usize = 1001;

/// What the replay adds to the run's attempt counts.
pub struct ReplayOutcome {
    pub attempted: u64,
    pub failed: u64,
}

/// Replays client 0's request stream in-process, each request once
/// untraced and once traced, then times commits and snapshots, filling
/// the per-layer metrics. `wire` is client 0's samples from the measured
/// window; `written` the tuples the server acknowledged before it
/// stopped, which answers now include.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    dir: &Path,
    data: &Dataset,
    written: &[Spec],
    kind: ReadKind,
    seed: u64,
    wire: &[Sample],
    budget: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<ReplayOutcome, String> {
    let opened = Instant::now();
    let db = ConcurrentDatabase::open(dir).map_err(|e| format!("in-process open: {e}"))?;
    m.put(
        "storage.database.open_s",
        opened.elapsed().as_secs_f64(),
        "s",
    );
    let snap = db.snapshot();
    let opts = ExecOptions {
        batch_rows: 256, // hrdmd's default --chunk-rows
        max_rows: Some(4_000_000),
        ..ExecOptions::default()
    };
    let wire_ns: HashMap<usize, u64> = wire
        .iter()
        .filter(|s| !s.warmup && s.ok)
        .map(|s| (s.index, s.ns))
        .collect();
    let last = wire_ns.keys().copied().max().unwrap_or(0);
    let (mut attempted, mut failed) = (0, 0);
    let (mut bare, mut traced, mut on_wire) = (Vec::new(), Vec::new(), Vec::new());
    let mut requests = Vec::new();
    let (mut rows, mut bytes) = (0u64, 0u64);
    let started = Instant::now();
    for (index, req) in Requests::new(data, kind, seed, 0).enumerate() {
        if index > last || requests.len() == MAX_REPLAYED || started.elapsed() >= budget {
            break;
        }
        let Some(&ns) = wire_ns.get(&index) else {
            continue;
        };
        let mut want = req.keys.clone();
        want.extend(
            written
                .iter()
                .filter(|s| req.filter.matches(s))
                .map(|s| s.key),
        );
        want.sort_unstable();
        // Alternate which pass runs first, so neither always meets the
        // caches the other warmed.
        for traced_pass in [index % 2 == 1, index % 2 == 0] {
            let t = Instant::now();
            let tr = traced_pass.then_some(&mut *tracer);
            let served = serve(&snap, &req.text, &opts, tr, index as u64);
            let took = t.elapsed().as_nanos() as f64;
            if traced_pass {
                traced.push(took);
            } else {
                bare.push(took);
            }
            attempted += 1;
            match served {
                Ok(s) if s.keys == want => {
                    if traced_pass {
                        rows += s.keys.len() as u64;
                        bytes += s.bytes;
                    }
                }
                Ok(_) => {
                    eprintln!("perfbench: in-process replay answered {} wrongly", req.text);
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("perfbench: in-process replay of {} failed: {e}", req.text);
                    failed += 1;
                }
            }
        }
        on_wire.push(ns as f64);
        requests.push(index as u64);
    }

    // Self time per step, one entry per replayed request.
    let row: HashMap<u64, usize> = requests.iter().enumerate().map(|(i, r)| (*r, i)).collect();
    let mut steps: HashMap<&str, Vec<f64>> = READ_STEPS
        .iter()
        .map(|s| (*s, vec![0.0; requests.len()]))
        .collect();
    for (s, st) in tracer.spans.iter().zip(tracer.self_times()) {
        if let (Some(&i), Some(v)) = (row.get(&s.request), steps.get_mut(s.name)) {
            v[i] += st as f64;
        }
    }
    let step = |name: &str| median(&steps[name]);
    m.put("query.parser.parse_ns", step("query.parse"), "ns");
    m.put("query.optimizer.optimize_ns", step("query.optimize"), "ns");
    m.put("query.plan.plan_ns", step("query.plan"), "ns");
    m.put("query.exec.open_ns", step("query.exec.open"), "ns");
    m.put("query.exec.drain_ns", step("query.exec.next_batch"), "ns");
    let per_row = |name: &str| ratio(steps[name].iter().sum(), rows as f64);
    m.put(
        "net.frame.encode_ns_per_row",
        per_row("net.frame.encode"),
        "ns",
    );
    m.put(
        "net.frame.decode_ns_per_row",
        per_row("net.frame.decode"),
        "ns",
    );
    m.put(
        "net.frame.bytes_per_row",
        ratio(bytes as f64, rows as f64),
        "B",
    );
    m.put(
        "net.client.assemble_ns_per_row",
        per_row("net.client.assemble"),
        "ns",
    );
    let blocking: Vec<f64> = (0..requests.len())
        .map(|i| READ_STEPS.iter().map(|s| steps[s][i]).sum())
        .collect();
    let wire_p50 = median(&on_wire) / 1e6;
    let blocking_p50 = median(&blocking) / 1e6;
    m.put("trace.requests", requests.len() as f64, "count");
    m.put("trace.wire_p50_ms", wire_p50, "ms");
    m.put("trace.blocking_p50_ms", blocking_p50, "ms");
    m.put("trace.remainder_ms", wire_p50 - blocking_p50, "ms");
    m.put(
        "trace.overhead_ms",
        (median(&traced) - median(&bare)) / 1e6,
        "ms",
    );

    // Commits while a reader holds a snapshot, as every hrdmd write is.
    let scheme = gen::scheme();
    let mut fresh = Fresh::new(seed ^ 0x7EAC_ED00, 1 << 40);
    let (mut commit, mut publish) = (Vec::new(), Vec::new());
    for i in 0..COMMITS {
        let request = (1 << 32) + i as u64;
        let tuple = fresh.next_spec().to_tuple(&scheme);
        attempted += 1;
        let ok = db.with_database(|db| {
            let held = db.snapshot();
            let root = tracer.begin("write", None, request);
            let id = tracer.begin("storage.commit", Some(root), request);
            let result = db.commit_batch(vec![WalRecord::Insert {
                relation: "r".into(),
                tuple,
            }]);
            tracer.end(id);
            commit.push(tracer.duration(id));
            let id = tracer.begin("storage.publish", Some(root), request);
            let published = db.snapshot();
            tracer.end(id);
            publish.push(tracer.duration(id));
            tracer.end(root);
            drop((held, published));
            result.into_iter().all(|r| r.is_ok())
        });
        if !ok {
            failed += 1;
        }
    }
    m.put("storage.database.commit_ns", median(&commit), "ns");
    m.put("storage.database.publish_ns", median(&publish), "ns");
    let mut snaps = Vec::with_capacity(SNAPSHOTS);
    for _ in 0..SNAPSHOTS {
        let t = Instant::now();
        let s = db.snapshot();
        snaps.push(t.elapsed().as_nanos() as f64);
        drop(s);
    }
    m.put("storage.concurrent.snapshot_ns", median(&snaps), "ns");
    Ok(ReplayOutcome { attempted, failed })
}

/// `hrdmd`'s counters at one instant, plus the WAL's size on disk.
pub struct Counters {
    stats: ServerStats,
    text: String,
    wal_bytes: u64,
}

impl Counters {
    pub fn read(client: &mut Client, dir: &Path) -> Result<Counters, String> {
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let wal_bytes = std::fs::read_dir(dir)
            .map_err(|e| e.to_string())?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal."))
            .filter_map(|e| e.metadata().ok())
            .map(|md| md.len())
            .sum();
        Ok(Counters {
            stats,
            text,
            wal_bytes,
        })
    }

    fn scalar(&self, name: &str) -> f64 {
        self.text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }

    /// Cumulative `(le, count)` buckets of a histogram family.
    fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        self.text
            .lines()
            .filter_map(|l| {
                let rest = l.strip_prefix(&prefix)?;
                let (le, count) = rest.split_once("\"} ")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, count.trim().parse().ok()?))
            })
            .collect()
    }
}

/// The median of the observations a histogram gained between two
/// readings, interpolated inside its bucket.
fn delta_median(a: &Counters, b: &Counters, name: &str) -> f64 {
    let before: HashMap<u64, f64> = a
        .buckets(name)
        .into_iter()
        .map(|(le, c)| (le.to_bits(), c))
        .collect();
    let delta: Vec<(f64, f64)> = b
        .buckets(name)
        .into_iter()
        .map(|(le, c)| (le, c - before.get(&le.to_bits()).copied().unwrap_or(0.0)))
        .collect();
    let Some(&(_, n)) = delta.last() else {
        return 0.0;
    };
    if n <= 0.0 {
        return 0.0;
    }
    let (mut lo, mut below) = (0.0, 0.0);
    for (le, cum) in delta {
        if cum >= n / 2.0 {
            if !le.is_finite() || cum == below {
                return lo;
            }
            return lo + (le - lo) * (n / 2.0 - below) / (cum - below);
        }
        lo = le;
        below = cum;
    }
    lo
}

/// Per-layer metrics from `hrdmd`'s counters between `a` and `b`.
/// `reads` are every read sample issued between the two readings;
/// `writes` the number of writes.
pub fn counter_metrics(a: &Counters, b: &Counters, reads: &[Sample], writes: u64, m: &mut Metrics) {
    let queries = reads.len() as f64;
    let plan = (b.stats.plan_ns - a.stats.plan_ns) as f64;
    let exec = (b.stats.exec_ns - a.stats.exec_ns) as f64;
    let rtt: f64 = reads.iter().map(|s| s.ns as f64).sum();
    m.put("net.server.plan_ns_per_query", ratio(plan, queries), "ns");
    m.put("net.server.exec_ns_per_query", ratio(exec, queries), "ns");
    m.put(
        "net.wire_ns_per_request",
        ratio(rtt - plan - exec, queries),
        "ns",
    );
    let d = |name: &str| b.scalar(name) - a.scalar(name);
    let pruned = d("hrdm_query_partitions_pruned_total");
    let probed = d("hrdm_query_partitions_probed_total");
    let index = d("hrdm_query_index_scans_total");
    let seq = d("hrdm_query_seq_scans_total");
    m.put("query.plan.partitions_pruned", pruned, "count");
    m.put("query.plan.partitions_probed", probed, "count");
    m.put(
        "query.plan.prune_ratio",
        ratio(pruned, pruned + probed),
        "ratio",
    );
    m.put("query.plan.index_scans", index, "count");
    m.put("query.plan.seq_scans", seq, "count");
    m.put(
        "query.plan.index_scan_share",
        ratio(index, index + seq),
        "ratio",
    );
    m.put(
        "storage.wal.append_ns_p50",
        delta_median(a, b, "hrdm_wal_append_ns"),
        "ns",
    );
    m.put(
        "storage.wal.fsync_ns_p50",
        delta_median(a, b, "hrdm_wal_fsync_ns"),
        "ns",
    );
    let wal = b.wal_bytes.saturating_sub(a.wal_bytes) as f64;
    m.put(
        "storage.wal.bytes_per_write",
        ratio(wal, writes as f64),
        "B",
    );
    let ops = (b.stats.commit_ops - a.stats.commit_ops) as f64;
    let batches = (b.stats.commit_batches - a.stats.commit_batches) as f64;
    m.put("storage.concurrent.batch_mean", ratio(ops, batches), "ops");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "c",
                start_ns: 35,
                end_ns: 38,
                parent: Some(1),
                request: 1,
            },
        ];
        assert_eq!(t.self_times(), vec![50, 27, 30, 3]);
    }

    #[test]
    fn histogram_delta_median_interpolates() {
        let mk = |text: &str| Counters {
            stats: ServerStats::default(),
            text: text.to_string(),
            wal_bytes: 0,
        };
        let a = mk("h_bucket{le=\"100\"} 5\nh_bucket{le=\"200\"} 5\nh_bucket{le=\"+Inf\"} 5\n");
        let b = mk("h_bucket{le=\"100\"} 5\nh_bucket{le=\"200\"} 15\nh_bucket{le=\"+Inf\"} 15\n");
        assert_eq!(delta_median(&a, &b, "h"), 150.0);
    }
}
