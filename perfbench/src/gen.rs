//! The benchmark's own seeded generator of HRDM-shaped data and of the
//! request streams, plus the answers each request must get.
//!
//! Nothing here comes from the repository's bench fixtures, so edits
//! there cannot silently change what this benchmark loads or asks.
//!
//! A tuple is `r(K*: int, V: int)`: `K` is the constant key, `V` a
//! time-varying value that changes 1–4 times inside the tuple's lifespan.
//! About 10% of lifespans are *reincarnated*: cut into 2–3 pieces with
//! gaps between them (the paper's lifespans are arbitrary sets of
//! chronons, not intervals).

use hrdm_core::prelude::*;
use hrdm_time::{Interval, Lifespan};

/// Chronons in the era births are spread over (2^20).
pub const ERA: i64 = 1 << 20;
/// `hrdmd`'s partition span exponent: 2^20 / 2^14 = 64 partitions.
pub const SPAN_LOG2: u32 = 14;
/// Shortest and longest lifespan extent (first to last chronon).
const EXTENT: (i64, i64) = (20, 180);
/// `V` values are drawn uniformly from `[0, V_RANGE)`.
const V_RANGE: i64 = 1 << 20;
/// Largest `TIMESLICE` window width; widths are log-uniform in `[1, W_MAX]`.
const W_MAX: f64 = 4096.0;
/// Upper bound on rows a `scan` request returns (barring ties in `V`).
const SCAN_MAX_ROWS: usize = 100;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a stream label, so every client
    /// and phase draws from its own reproducible sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated tuple in plain integers: lifespan pieces and `V`'s
/// segments, each an inclusive `(lo, hi)` chronon range.
#[derive(Clone, Debug)]
pub struct Spec {
    pub key: i64,
    pub pieces: Vec<(i64, i64)>,
    pub v: Vec<(i64, i64, i64)>,
}

impl Spec {
    /// Draws the tuple with key `key`.
    pub fn draw(rng: &mut Rng, key: i64) -> Spec {
        let birth = rng.range(0, ERA - EXTENT.1 - 1);
        let last = birth + rng.range(EXTENT.0, EXTENT.1) - 1;
        let pieces = if rng.range(0, 9) == 0 {
            reincarnate(rng, birth, last)
        } else {
            vec![(birth, last)]
        };
        let chronons: i64 = pieces.iter().map(|(lo, hi)| hi - lo + 1).sum();
        // 1–4 changes: distinct cut offsets into the lifespan's chronons.
        let changes = rng.range(1, 4) as usize;
        let mut cuts: Vec<i64> = Vec::with_capacity(changes + 2);
        while cuts.len() < changes {
            let c = rng.range(1, chronons - 1);
            if !cuts.contains(&c) {
                cuts.push(c);
            }
        }
        cuts.sort_unstable();
        cuts.insert(0, 0);
        cuts.push(chronons);
        let mut v = Vec::new();
        let mut prev = -1;
        for w in cuts.windows(2) {
            let mut value = rng.range(0, V_RANGE - 1);
            while value == prev {
                value = rng.range(0, V_RANGE - 1);
            }
            prev = value;
            for (lo, hi) in map_offsets(&pieces, w[0], w[1] - 1) {
                v.push((lo, hi, value));
            }
        }
        Spec { key, pieces, v }
    }

    pub fn first(&self) -> i64 {
        self.pieces[0].0
    }

    pub fn last(&self) -> i64 {
        self.pieces[self.pieces.len() - 1].1
    }

    pub fn overlaps(&self, lo: i64, hi: i64) -> bool {
        self.pieces.iter().any(|&(a, b)| a <= hi && lo <= b)
    }

    pub fn min_v(&self) -> i64 {
        self.v.iter().map(|s| s.2).min().unwrap_or(i64::MAX)
    }

    pub fn to_tuple(&self, scheme: &Scheme) -> Tuple {
        let lifespan = Lifespan::of(&self.pieces);
        let v = TemporalValue::from_segments(
            self.v
                .iter()
                .map(|&(lo, hi, x)| (Interval::of(lo, hi), Value::Int(x))),
        )
        .expect("generated V segments are disjoint");
        Tuple::builder(lifespan)
            .constant("K", self.key)
            .value("V", v)
            .finish(scheme)
            .expect("generated tuples fit the scheme")
    }
}

/// Cuts `[birth, last]` into 2–3 pieces separated by 1–5 chronon gaps.
fn reincarnate(rng: &mut Rng, birth: i64, last: i64) -> Vec<(i64, i64)> {
    let n = rng.range(2, 3);
    let step = (last - birth + 1) / n;
    let mut pieces = Vec::with_capacity(n as usize);
    let mut lo = birth;
    for i in 1..=n {
        let end = if i == n { last } else { birth + i * step - 1 };
        let gap = if i == n { 0 } else { rng.range(1, 5) };
        pieces.push((lo, end - gap));
        lo = end + 1;
    }
    pieces
}

/// Maps the chronon offsets `[a, b]` of a lifespan onto its pieces.
fn map_offsets(pieces: &[(i64, i64)], a: i64, b: i64) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    let mut base = 0;
    for &(lo, hi) in pieces {
        let len = hi - lo + 1;
        let (s, e) = (a.max(base), b.min(base + len - 1));
        if s <= e {
            out.push((lo + s - base, lo + e - base));
        }
        base += len;
    }
    out
}

pub fn scheme() -> Scheme {
    let als = Lifespan::interval(0, ERA - 1);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, als.clone())
        .attr("V", HistoricalDomain::int(), als)
        .build()
        .expect("benchmark scheme is well-formed")
}

/// The preloaded relation's specs (keys `0..n`) plus the indexes the
/// benchmark predicts answers from.
pub struct Dataset {
    pub specs: Vec<Spec>,
    /// Positions into `specs`, sorted by first chronon.
    by_first: Vec<u32>,
    max_extent: i64,
    /// `(min V, key)` sorted ascending.
    by_min_v: Vec<(i64, i64)>,
    /// `(V value, key)` sorted ascending, one entry per distinct pair.
    by_v: Vec<(i64, i64)>,
}

impl Dataset {
    pub fn generate(seed: u64, n: usize) -> Dataset {
        let mut rng = Rng::new(seed, 0xDA7A);
        let specs: Vec<Spec> = (0..n as i64).map(|k| Spec::draw(&mut rng, k)).collect();
        let mut by_first: Vec<u32> = (0..n as u32).collect();
        by_first.sort_unstable_by_key(|&i| specs[i as usize].first());
        let max_extent = specs
            .iter()
            .map(|s| s.last() - s.first())
            .max()
            .unwrap_or(0);
        let mut by_min_v: Vec<(i64, i64)> = specs.iter().map(|s| (s.min_v(), s.key)).collect();
        by_min_v.sort_unstable();
        let mut by_v: Vec<(i64, i64)> = specs
            .iter()
            .flat_map(|s| s.v.iter().map(move |seg| (seg.2, s.key)))
            .collect();
        by_v.sort_unstable();
        by_v.dedup();
        Dataset {
            specs,
            by_first,
            max_extent,
            by_min_v,
            by_v,
        }
    }

    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// The sorted keys `filter`'s query must return.
    pub fn answer(&self, filter: &Filter) -> Vec<i64> {
        let mut keys: Vec<i64> = match *filter {
            Filter::Slice(lo, hi) => {
                let start = self
                    .by_first
                    .partition_point(|&i| self.specs[i as usize].first() < lo - self.max_extent);
                self.by_first[start..]
                    .iter()
                    .map(|&i| &self.specs[i as usize])
                    .take_while(|s| s.first() <= hi)
                    .filter(|s| s.overlaps(lo, hi))
                    .map(|s| s.key)
                    .collect()
            }
            Filter::VEq(v) => {
                let start = self.by_v.partition_point(|&(x, _)| x < v);
                self.by_v[start..]
                    .iter()
                    .take_while(|&&(x, _)| x == v)
                    .map(|&(_, k)| k)
                    .collect()
            }
            Filter::VLt(x) => {
                let end = self.by_min_v.partition_point(|&(m, _)| m < x);
                self.by_min_v[..end].iter().map(|&(_, k)| k).collect()
            }
            Filter::Key(k) => vec![k],
        };
        keys.sort_unstable();
        keys
    }
}

/// The query shapes the read workloads send.
#[derive(Clone, Copy, Debug)]
pub enum Filter {
    /// `TIMESLICE [lo..hi] (r)`: keys whose lifespan meets `[lo, hi]`.
    Slice(i64, i64),
    /// `SELECT-WHEN (V = v) (r)`: keys whose `V` takes `v` at some chronon.
    VEq(i64),
    /// `SELECT-WHEN (V < x) (r)`: keys whose `V` is below `x` at some chronon.
    VLt(i64),
    /// `SELECT-WHEN (K = k) (r)`.
    Key(i64),
}

impl Filter {
    pub fn text(&self) -> String {
        match self {
            Filter::Slice(lo, hi) => format!("TIMESLICE [{lo}..{hi}] (r)"),
            Filter::VEq(v) => format!("SELECT-WHEN (V = {v}) (r)"),
            Filter::VLt(x) => format!("SELECT-WHEN (V < {x}) (r)"),
            Filter::Key(k) => format!("SELECT-WHEN (K = {k}) (r)"),
        }
    }

    /// Does the tuple `s` belong in the answer?
    pub fn matches(&self, s: &Spec) -> bool {
        match *self {
            Filter::Slice(lo, hi) => s.overlaps(lo, hi),
            Filter::VEq(v) => s.v.iter().any(|seg| seg.2 == v),
            Filter::VLt(x) => s.v.iter().any(|seg| seg.2 < x),
            Filter::Key(k) => s.key == k,
        }
    }
}

/// One read request with the sorted key set its answer must hold.
pub struct Request {
    pub filter: Filter,
    pub text: String,
    pub keys: Vec<i64>,
}

/// The request kinds of the read workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadKind {
    /// `TIMESLICE [a..a+w-1] (r)`, `a` uniform, `w` log-uniform.
    Range,
    /// Non-key filters over the whole relation, each ≤ 100 rows.
    Scan,
    /// `SELECT-WHEN (K = k) (r)` for a preloaded key.
    KeyProbe,
}

/// A reproducible stream of read requests for one client.
pub struct Requests<'a> {
    data: &'a Dataset,
    kind: ReadKind,
    rng: Rng,
    /// Position in the golden-ratio sequence that spreads request sizes.
    u: f64,
}

impl<'a> Requests<'a> {
    pub fn new(data: &'a Dataset, kind: ReadKind, seed: u64, client: u64) -> Requests<'a> {
        let mut rng = Rng::new(seed, 0x5EED_0000 + client);
        let u = rng.unit();
        Requests { data, kind, rng, u }
    }
}

impl Iterator for Requests<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let d = self.data;
        // Sizes follow u_{i+1} = frac(u_i + 1/phi), an equidistributed
        // sequence: every window of a few dozen requests holds the same
        // mix. Independent draws would let the count of wide slices
        // (quadratic to assemble) or of large scan results vary from run
        // to run, and throughput with it.
        self.u = (self.u + 0.618_033_988_749_895) % 1.0;
        let filter = match self.kind {
            ReadKind::Range => {
                let w = (W_MAX.powf(self.u) as i64).max(1);
                let a = self.rng.range(0, ERA - w);
                Filter::Slice(a, a + w - 1)
            }
            ReadKind::Scan if self.u < 0.5 => {
                // A value some tuple really takes, so the answer is never empty.
                let s = &d.specs[self.rng.range(0, d.len() as i64 - 1) as usize];
                Filter::VEq(s.v[self.rng.range(0, s.v.len() as i64 - 1) as usize].2)
            }
            ReadKind::Scan => {
                // Just above the rank-th smallest minimum: `rank` rows (more
                // only on ties), rank in 1..=SCAN_MAX_ROWS.
                let rank = 1 + ((self.u - 0.5) * 2.0 * SCAN_MAX_ROWS as f64) as usize;
                Filter::VLt(d.by_min_v[rank.min(d.len()) - 1].0 + 1)
            }
            ReadKind::KeyProbe => Filter::Key(self.rng.range(0, d.len() as i64 - 1)),
        };
        Some(Request {
            filter,
            text: filter.text(),
            keys: d.answer(&filter),
        })
    }
}

/// Fresh tuples for the writer: keys `first_key..`, drawn like the
/// preloaded ones from their own stream.
pub struct Fresh {
    rng: Rng,
    next_key: i64,
}

impl Fresh {
    pub fn new(seed: u64, first_key: i64) -> Fresh {
        Fresh {
            rng: Rng::new(seed, 0xF2E5),
            next_key: first_key,
        }
    }

    pub fn next_spec(&mut self) -> Spec {
        let s = Spec::draw(&mut self.rng, self.next_key);
        self.next_key += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(d: &Dataset, f: Filter) -> Vec<i64> {
        d.specs
            .iter()
            .filter(|s| f.matches(s))
            .map(|s| s.key)
            .collect()
    }

    #[test]
    fn predictions_match_brute_force() {
        let d = Dataset::generate(7, 5000);
        let mut filters = vec![
            Filter::Slice(0, 10),
            Filter::Slice(5000, 9000),
            Filter::Slice(ERA - 300, ERA - 1),
            Filter::VEq(d.specs[17].v[0].2),
            Filter::VLt(d.by_min_v[40].0),
            Filter::Key(4321),
        ];
        for kind in [ReadKind::Range, ReadKind::Scan, ReadKind::KeyProbe] {
            filters.extend(Requests::new(&d, kind, 7, 0).take(20).map(|r| r.filter));
        }
        for f in filters {
            assert_eq!(d.answer(&f), brute(&d, f), "{}", f.text());
        }
    }

    #[test]
    fn scan_answers_are_small_and_never_empty() {
        let d = Dataset::generate(5, 50_000);
        for r in Requests::new(&d, ReadKind::Scan, 5, 0).take(200) {
            assert!((1..=SCAN_MAX_ROWS).contains(&r.keys.len()), "{}", r.text);
        }
    }

    #[test]
    fn tuples_are_hrdm_shaped_and_valid() {
        let d = Dataset::generate(3, 2000);
        let scheme = scheme();
        let reincarnated = d.specs.iter().filter(|s| s.pieces.len() > 1).count();
        assert!((100..=300).contains(&reincarnated), "{reincarnated}");
        for s in &d.specs {
            let t = s.to_tuple(&scheme);
            let segs = t.value(&"V".into()).expect("V").segments().len();
            assert!(segs >= 2, "V must change at least once");
            assert_eq!(t.lifespan().intervals().len(), s.pieces.len());
        }
    }
}
