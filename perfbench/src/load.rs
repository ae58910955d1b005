//! Bulk load, the closed-loop wire clients, and the durability check.

use crate::gen::{self, Dataset, Fresh, ReadKind, Requests, Spec};
use hrdm_core::{Relation, Tuple, Value};
use hrdm_net::{read_frame, write_frame, Client, Frame, PROTO_VERSION};
use hrdm_query::QueryResult;
use hrdm_storage::{Database, PartitionPolicy, WalRecord};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Bulk-loads `data` into a fresh database at `dir` through
/// `Database::commit_batch`, then checkpoints. Returns the seconds spent
/// loading and checkpointing.
///
/// The load is one `PutRelation` op: per-tuple `Insert` ops would
/// re-check the key constraint tuple by tuple, which the generator
/// already guarantees (keys `0..n`), and so triples the set-up time.
pub fn bulk_load(dir: &Path, data: &Dataset) -> Result<(f64, f64), String> {
    let started = Instant::now();
    let mut db = Database::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    db.set_partition_policy(PartitionPolicy::SpanLog2(gen::SPAN_LOG2));
    let scheme = gen::scheme();
    db.create_relation("r", scheme.clone())
        .map_err(|e| format!("create relation: {e}"))?;
    let tuples = data.specs.iter().map(|s| s.to_tuple(&scheme));
    let contents = Relation::from_parts_unchecked(scheme.clone(), tuples);
    let put = WalRecord::PutRelation {
        relation: "r".into(),
        contents,
    };
    if let Some(e) = db.commit_batch(vec![put]).into_iter().find_map(Result::err) {
        return Err(format!("bulk load: {e}"));
    }
    let loaded = started.elapsed().as_secs_f64();
    let started = Instant::now();
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    Ok((loaded, started.elapsed().as_secs_f64()))
}

/// A tuple's `K` value.
fn key_of(t: &Tuple) -> Option<i64> {
    match t.value(&"K".into())?.constant_value()? {
        Value::Int(x) => Some(*x),
        _ => None,
    }
}

/// The sorted `K` values of a result relation.
pub fn result_keys(r: &Relation) -> Vec<i64> {
    let mut keys: Vec<i64> = r.iter().filter_map(key_of).collect();
    keys.sort_unstable();
    keys
}

/// Think time between a key-probe reader's requests (`ingest`). Without
/// it the reader's two threads (client and server session) and the
/// writer's commit contend for the 2 cores, and how the host schedules
/// them moved every `ingest` metric by 15–35% from run to run. The wait
/// spins rather than sleeps: a sleeping reader lets its core idle, and
/// waking an idle virtual CPU made the probes' median swing by 28%. A
/// 100 µs wait moved the p99 probe off the commit stalls and let it
/// swing by 48%.
const PROBE_THINK: Duration = Duration::from_millis(1);

/// One completed request as the client saw it.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Position in the client's request stream.
    pub index: usize,
    pub ns: u64,
    pub rows: u64,
    /// Issued before the measured window opened.
    pub warmup: bool,
    pub ok: bool,
}

/// Runs `client`'s stream of `kind` requests closed-loop until
/// `deadline`, checking every answer against the generator.
pub fn read_loop(
    client: &mut Client,
    data: &Dataset,
    kind: ReadKind,
    seed: u64,
    stream: u64,
    window_start: Instant,
    deadline: Instant,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for (index, req) in Requests::new(data, kind, seed, stream).enumerate() {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let answer = client.query(&req.text);
        let ns = sent.elapsed().as_nanos() as u64;
        let (rows, ok) = match answer {
            Ok(QueryResult::Relation(r)) => (r.len() as u64, result_keys(&r) == req.keys),
            Ok(_) => (0, false),
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", req.text);
                (0, false)
            }
        };
        if !ok {
            eprintln!("perfbench: wrong answer to {}", req.text);
        }
        out.push(Sample {
            index,
            ns,
            rows,
            warmup: sent < window_start,
            ok,
        });
        if kind == ReadKind::KeyProbe {
            let t = Instant::now();
            while t.elapsed() < PROBE_THINK {
                std::hint::spin_loop();
            }
        }
    }
    out
}

/// Inserts fresh tuples closed-loop until `deadline`. Returns the
/// samples and the tuples the server acknowledged.
pub fn write_loop(
    client: &mut Client,
    fresh: &mut Fresh,
    window_start: Instant,
    deadline: Instant,
) -> (Vec<Sample>, Vec<Spec>) {
    let scheme = gen::scheme();
    let mut out = Vec::new();
    let mut acked = Vec::new();
    for index in 0.. {
        let spec = fresh.next_spec();
        let tuple = spec.to_tuple(&scheme);
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let result = client.insert("r", tuple);
        let ns = sent.elapsed().as_nanos() as u64;
        let ok = match result {
            Ok(()) => true,
            Err(e) => {
                eprintln!("perfbench: insert of key {} failed: {e}", spec.key);
                false
            }
        };
        out.push(Sample {
            index,
            ns,
            rows: 1,
            warmup: sent < window_start,
            ok,
        });
        if ok {
            acked.push(spec);
        }
    }
    (out, acked)
}

/// Streams the whole relation over a raw connection and checks it holds
/// exactly the keys `0..preloaded` plus `acked`. Counts rows as they
/// arrive instead of reassembling a `Relation`, whose key check is
/// quadratic in the row count.
pub fn check_contents(addr: &str, preloaded: usize, acked: &[Spec]) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let hello = Frame::Hello {
        version: PROTO_VERSION,
        client: "perfbench-check".into(),
    };
    write_frame(&mut s, 1, &hello).map_err(|e| e.to_string())?;
    match read_frame(&mut s).map_err(|e| e.to_string())? {
        (_, Frame::HelloAck { .. }) => {}
        (_, other) => return Err(format!("handshake answered with kind {:#x}", other.kind())),
    }
    write_frame(&mut s, 2, &Frame::Query { text: "r".into() }).map_err(|e| e.to_string())?;
    let mut seen = vec![false; preloaded];
    let mut fresh: Vec<i64> = Vec::new();
    let mut rows = 0u64;
    loop {
        match read_frame(&mut s).map_err(|e| e.to_string())?.1 {
            Frame::RelationHeader { .. } => {}
            Frame::RowChunk { tuples } => {
                for t in &tuples {
                    rows += 1;
                    match key_of(t) {
                        Some(x) if (0..preloaded as i64).contains(&x) => {
                            if std::mem::replace(&mut seen[x as usize], true) {
                                return Err(format!("key {x} appears twice"));
                            }
                        }
                        Some(x) => fresh.push(x),
                        None => return Err(format!("tuple without an int key: {t:?}")),
                    }
                }
            }
            Frame::Done { rows: done } if done == rows => break,
            Frame::Done { rows: done } => {
                return Err(format!("Done says {done} rows, {rows} streamed"))
            }
            Frame::Error { error } => return Err(format!("full scan failed: {error}")),
            other => return Err(format!("unexpected frame kind {:#x}", other.kind())),
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(format!("preloaded key {missing} is missing"));
    }
    fresh.sort_unstable();
    let mut want: Vec<i64> = acked.iter().map(|s| s.key).collect();
    want.sort_unstable();
    if fresh != want {
        return Err(format!(
            "{} fresh keys recovered, {} acknowledged",
            fresh.len(),
            want.len()
        ));
    }
    Ok(())
}
