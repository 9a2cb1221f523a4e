//! Captured telemetry: the [`Trace`] type, its JSONL wire format, the
//! human-readable phase tables, and the trace-analysis renderers
//! ([`Trace::report`], [`Trace::folded`], [`diff`]).
//!
//! The wire format is JSON Lines with flat objects only — one `meta` line,
//! one line per span, one line per counter, one line per histogram, at most
//! one `error` line — so it stays greppable and round-trips through the
//! workspace codec ([`crate::json`]), exactly for every `u64` field:
//!
//! ```text
//! {"type":"meta","version":2,"spans":3,"counters":1,"hists":1}
//! {"type":"span","id":1,"parent":0,"thread":1,"name":"solve","start_ns":0,"end_ns":91042}
//! {"type":"counter","name":"bal.flow_calls","value":17}
//! {"type":"hist","name":"bal.bisect.probes","count":4,"sum":90,"max":31,"buckets":"4:1;5:3"}
//! {"type":"error","message":"no algorithm produced a valid schedule"}
//! ```
//!
//! Spans carry optional `alloc_bytes`/`alloc_count` fields (their *self*
//! allocation, recorded under the `probe-alloc` feature); the fields are
//! omitted when zero, so traces from feature-off builds are byte-stable.
//! Histogram buckets are serialized sparsely as an `"index:count;…"` string
//! to keep every line a flat object. Version-1 traces (no `hists` meta
//! field, no histogram/error lines) still parse.

use crate::json::{self, Json};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Format version emitted in the `meta` line; bump on breaking changes.
/// Version 2 added histogram lines, the `error` line, and per-span
/// allocation fields.
pub const FORMAT_VERSION: u64 = 2;

/// Number of histogram buckets: bucket 0 holds the value 0 and bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`, so 64 power-of-two buckets
/// cover the full `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in (see [`HIST_BUCKETS`]).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value bucket `index` can hold; quantiles report this upper
/// bound (clamped to the observed max) as their estimate.
pub fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// One closed span. `parent == 0` marks a root; times are nanoseconds since
/// the session epoch, so `end_ns - start_ns` is the phase duration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRec {
    /// Session-unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Dense label of the recording thread (1, 2, … in first-probe order).
    pub thread: u64,
    /// Phase name as passed to [`crate::span`].
    pub name: String,
    /// Start, nanoseconds since the session epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the session epoch.
    pub end_ns: u64,
    /// Bytes allocated by this span itself (children excluded). Always 0
    /// unless the session ran with the `probe-alloc` feature.
    pub alloc_bytes: u64,
    /// Allocation calls made by this span itself (children excluded).
    /// Always 0 unless the session ran with the `probe-alloc` feature.
    pub alloc_count: u64,
}

impl SpanRec {
    /// Phase duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One captured histogram: a sparse log2-bucketed distribution with exact
/// count/sum/max, merged across macro sites of the same name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistRec {
    /// Histogram name as passed to [`crate::histogram!`].
    pub name: String,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, sorted by index, counts
    /// nonzero; indexes as in [`bucket_of`].
    pub buckets: Vec<(u8, u64)>,
}

impl HistRec {
    pub(crate) fn new(name: &str) -> HistRec {
        HistRec {
            name: name.to_string(),
            ..HistRec::default()
        }
    }

    /// Merge `count` observations into bucket `index`, keeping the sparse
    /// list sorted.
    pub(crate) fn add_bucket(&mut self, index: u8, count: u64) {
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += count,
            Err(pos) => self.buckets.insert(pos, (index, count)),
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket the
    /// quantile rank falls in, clamped to the observed [`HistRec::max`] —
    /// so `quantile(q) <= max` always, and the estimate is exact for
    /// single-bucket histograms. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            if cum >= target {
                return bucket_upper(i as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`HistRec::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean of the observed values (0.0 on an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A complete captured session: spans sorted by start time, final counter
/// totals, histogram snapshots, and (for failed solves) an error message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// All closed spans, sorted by `(start_ns, id)`.
    pub spans: Vec<SpanRec>,
    /// `(name, total)` pairs, sorted by name; only counters that fired.
    pub counters: Vec<(String, u64)>,
    /// Histograms sorted by name; only histograms that recorded samples.
    pub hists: Vec<HistRec>,
    /// Set when the traced operation failed: the partial trace is still
    /// written so failures stay debuggable (`ssp solve --telemetry`).
    pub error: Option<String>,
}

impl Trace {
    /// Final total of counter `name` (0 if it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The captured histogram named `name`, if it recorded any samples.
    pub fn hist(&self, name: &str) -> Option<&HistRec> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of all spans named `name`, in nanoseconds.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::duration_ns)
            .sum()
    }

    /// Root spans (no parent), in start order.
    pub fn roots(&self) -> Vec<&SpanRec> {
        self.spans.iter().filter(|s| s.parent == 0).collect()
    }

    /// Direct children of span `id`, in start order.
    pub fn children(&self, id: u64) -> Vec<&SpanRec> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Structural well-formedness: span ids unique and non-zero, parents
    /// resolvable, children contained in their parent's interval, counters
    /// unique and sorted, histograms unique/sorted with self-consistent
    /// bucket lists. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let mut by_id: HashMap<u64, &SpanRec> = HashMap::with_capacity(self.spans.len());
        for s in &self.spans {
            if s.id == 0 {
                return Err(format!("span '{}' has reserved id 0", s.name));
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span '{}' ends before it starts", s.name));
            }
            if by_id.insert(s.id, s).is_some() {
                return Err(format!("duplicate span id {}", s.id));
            }
        }
        for s in &self.spans {
            if s.parent == 0 {
                continue;
            }
            let Some(p) = by_id.get(&s.parent) else {
                return Err(format!(
                    "span '{}' (id {}) references missing parent {}",
                    s.name, s.id, s.parent
                ));
            };
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span '{}' (id {}) not contained in parent '{}' (id {})",
                    s.name, s.id, p.name, p.id
                ));
            }
        }
        let mut seen = HashSet::new();
        for window in self.counters.windows(2) {
            if window[0].0 > window[1].0 {
                return Err("counters not sorted by name".to_string());
            }
        }
        for (name, _) in &self.counters {
            if !seen.insert(name) {
                return Err(format!("duplicate counter '{name}'"));
            }
        }
        let mut seen_hists = HashSet::new();
        for window in self.hists.windows(2) {
            if window[0].name > window[1].name {
                return Err("histograms not sorted by name".to_string());
            }
        }
        for h in &self.hists {
            if !seen_hists.insert(&h.name) {
                return Err(format!("duplicate histogram '{}'", h.name));
            }
            if h.count == 0 {
                return Err(format!("histogram '{}' has no samples", h.name));
            }
            let mut total = 0u64;
            for window in h.buckets.windows(2) {
                if window[0].0 >= window[1].0 {
                    return Err(format!("histogram '{}' buckets not sorted", h.name));
                }
            }
            for &(i, c) in &h.buckets {
                if i as usize >= HIST_BUCKETS {
                    return Err(format!(
                        "histogram '{}' bucket index {i} out of range",
                        h.name
                    ));
                }
                if c == 0 {
                    return Err(format!("histogram '{}' has an empty bucket entry", h.name));
                }
                total += c;
            }
            if total != h.count {
                return Err(format!(
                    "histogram '{}' bucket counts sum to {total}, count says {}",
                    h.name, h.count
                ));
            }
            let last = h.buckets.last().map(|&(i, _)| i as usize).unwrap_or(0);
            if bucket_of(h.max) != last {
                return Err(format!(
                    "histogram '{}' max {} not in last bucket {last}",
                    h.name, h.max
                ));
            }
        }
        Ok(())
    }

    // -- JSONL ------------------------------------------------------------

    /// Serialize to JSON Lines (see module docs for the schema). Emission
    /// is deterministic, so `parse` followed by `to_jsonl` reproduces the
    /// input byte for byte.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"version\":{},\"spans\":{},\"counters\":{},\"hists\":{}}}",
            FORMAT_VERSION,
            self.spans.len(),
            self.counters.len(),
            self.hists.len()
        );
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"thread\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.parent,
                s.thread,
                json::quote(&s.name),
                s.start_ns,
                s.end_ns
            );
            // Omitted when zero so feature-off traces stay byte-stable.
            if s.alloc_bytes > 0 || s.alloc_count > 0 {
                let _ = write!(
                    out,
                    ",\"alloc_bytes\":{},\"alloc_count\":{}",
                    s.alloc_bytes, s.alloc_count
                );
            }
            out.push_str("}\n");
        }
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
                json::quote(name),
                value
            );
        }
        for h in &self.hists {
            let mut buckets = String::new();
            for (k, &(i, c)) in h.buckets.iter().enumerate() {
                if k > 0 {
                    buckets.push(';');
                }
                let _ = write!(buckets, "{i}:{c}");
            }
            let _ = writeln!(
                out,
                "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"sum\":{},\"max\":{},\"buckets\":{}}}",
                json::quote(&h.name),
                h.count,
                h.sum,
                h.max,
                json::quote(&buckets)
            );
        }
        if let Some(e) = &self.error {
            let _ = writeln!(out, "{{\"type\":\"error\",\"message\":{}}}", json::quote(e));
        }
        out
    }

    /// Parse a trace previously produced by [`Trace::to_jsonl`]. Unknown
    /// line types are ignored (forward compatibility); malformed lines and
    /// meta/count mismatches are errors. Version-1 traces (no histograms,
    /// no alloc fields) parse with those fields empty.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut trace = Trace::default();
        let mut meta: Option<(u64, u64, u64, u64)> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let doc = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let num = |key: &str| -> Result<u64, String> {
                doc.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {}: missing number field '{key}'", lineno + 1))
            };
            let num_or = |key: &str, default: u64| -> u64 {
                doc.get(key).and_then(Json::as_u64).unwrap_or(default)
            };
            let string = |key: &str| -> Result<String, String> {
                doc.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {}: missing string field '{key}'", lineno + 1))
            };
            match doc.get("type").and_then(Json::as_str) {
                Some("meta") => {
                    meta = Some((
                        num("version")?,
                        num("spans")?,
                        num("counters")?,
                        num_or("hists", 0),
                    ));
                }
                Some("span") => {
                    trace.spans.push(SpanRec {
                        id: num("id")?,
                        parent: num("parent")?,
                        thread: num("thread")?,
                        name: string("name")?,
                        start_ns: num("start_ns")?,
                        end_ns: num("end_ns")?,
                        alloc_bytes: num_or("alloc_bytes", 0),
                        alloc_count: num_or("alloc_count", 0),
                    });
                }
                Some("counter") => {
                    trace.counters.push((string("name")?, num("value")?));
                }
                Some("hist") => {
                    let mut rec = HistRec {
                        name: string("name")?,
                        count: num("count")?,
                        sum: num("sum")?,
                        max: num("max")?,
                        buckets: Vec::new(),
                    };
                    let spec = string("buckets")?;
                    for part in spec.split(';').filter(|p| !p.is_empty()) {
                        let (i, c) = part.split_once(':').ok_or_else(|| {
                            format!("line {}: bad bucket entry '{part}'", lineno + 1)
                        })?;
                        let i: u8 = i
                            .parse()
                            .map_err(|_| format!("line {}: bad bucket index '{i}'", lineno + 1))?;
                        let c: u64 = c
                            .parse()
                            .map_err(|_| format!("line {}: bad bucket count '{c}'", lineno + 1))?;
                        rec.buckets.push((i, c));
                    }
                    trace.hists.push(rec);
                }
                Some("error") => {
                    trace.error = Some(string("message")?);
                }
                Some(_) => {} // future line types: skip
                _ => return Err(format!("line {}: missing 'type' field", lineno + 1)),
            }
        }
        if let Some((version, spans, counters, hists)) = meta {
            if version > FORMAT_VERSION {
                return Err(format!("unsupported trace version {version}"));
            }
            if spans != trace.spans.len() as u64 {
                return Err(format!(
                    "meta declares {spans} spans, found {}",
                    trace.spans.len()
                ));
            }
            if counters != trace.counters.len() as u64 {
                return Err(format!(
                    "meta declares {counters} counters, found {}",
                    trace.counters.len()
                ));
            }
            if hists != trace.hists.len() as u64 {
                return Err(format!(
                    "meta declares {hists} histograms, found {}",
                    trace.hists.len()
                ));
            }
        } else if !trace.spans.is_empty() || !trace.counters.is_empty() {
            return Err("trace has records but no meta line".to_string());
        }
        Ok(trace)
    }

    // -- Phase table ------------------------------------------------------

    /// Render a human-readable phase table: the span tree with sibling
    /// spans of the same name aggregated (call count + total time), then
    /// the counter totals. This is what `solve --timings` prints.
    pub fn phase_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<44} {:>12} {:>8}", "phase", "total", "calls");
        self.render_level(&mut out, &[0], 0);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<42} {value:>12}");
            }
        }
        out
    }

    fn render_level(&self, out: &mut String, parent_ids: &[u64], depth: usize) {
        for (name, total_ns, calls, ids) in self.level_groups(parent_ids) {
            let label = format!("{:indent$}{name}", "", indent = depth * 2);
            let _ = writeln!(out, "{label:<44} {:>12} {calls:>8}", format_ns(total_ns));
            self.render_level(out, &ids, depth + 1);
        }
    }

    /// Aggregate the spans whose parent is in `parent_ids` by name,
    /// preserving first-seen order: `(name, total_ns, calls, span ids)`.
    fn level_groups(&self, parent_ids: &[u64]) -> Vec<(&str, u64, usize, Vec<u64>)> {
        let parents: HashSet<u64> = parent_ids.iter().copied().collect();
        let mut order: Vec<&str> = Vec::new();
        let mut groups: BTreeMap<&str, (u64, usize, Vec<u64>)> = BTreeMap::new();
        for s in &self.spans {
            if !parents.contains(&s.parent) {
                continue;
            }
            let entry = groups.entry(&s.name).or_insert_with(|| {
                order.push(&s.name);
                (0, 0, Vec::new())
            });
            entry.0 += s.duration_ns();
            entry.1 += 1;
            entry.2.push(s.id);
        }
        order
            .into_iter()
            .map(|name| {
                let (total, calls, ids) = groups.remove(name).expect("grouped above");
                (name, total, calls, ids)
            })
            .collect()
    }

    // -- Analysis renderers (`ssp trace ...`) -----------------------------

    /// Full trace report: the span tree with *total* and *self* time per
    /// aggregated phase (self = total minus direct children), allocation
    /// columns when the trace carries `probe-alloc` data, then counter
    /// totals and a histogram quantile table. This is what
    /// `ssp trace report` prints.
    pub fn report(&self) -> String {
        let show_alloc = self.spans.iter().any(|s| s.alloc_count > 0);
        let mut out = String::new();
        if let Some(e) = &self.error {
            let _ = writeln!(out, "ERROR: {e}");
        }
        let _ = write!(
            out,
            "{:<40} {:>12} {:>12} {:>7}",
            "phase", "total", "self", "calls"
        );
        if show_alloc {
            let _ = write!(out, " {:>12} {:>9}", "alloc", "allocs");
        }
        out.push('\n');
        self.render_report_level(&mut out, &[0], 0, show_alloc);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<42} {value:>12}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "histograms:\n  {:<30} {:>9} {:>8} {:>8} {:>8} {:>10} {:>10}",
                "name", "count", "p50", "p90", "p99", "max", "mean"
            );
            for h in &self.hists {
                let _ = writeln!(
                    out,
                    "  {:<30} {:>9} {:>8} {:>8} {:>8} {:>10} {:>10.1}",
                    h.name,
                    h.count,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max,
                    h.mean()
                );
            }
        }
        out
    }

    fn render_report_level(
        &self,
        out: &mut String,
        parent_ids: &[u64],
        depth: usize,
        show_alloc: bool,
    ) {
        for (name, total_ns, calls, ids) in self.level_groups(parent_ids) {
            let id_set: HashSet<u64> = ids.iter().copied().collect();
            let child_ns: u64 = self
                .spans
                .iter()
                .filter(|s| id_set.contains(&s.parent))
                .map(SpanRec::duration_ns)
                .sum();
            let self_ns = total_ns.saturating_sub(child_ns);
            let label = format!("{:indent$}{name}", "", indent = depth * 2);
            let _ = write!(
                out,
                "{label:<40} {:>12} {:>12} {calls:>7}",
                format_ns(total_ns),
                format_ns(self_ns)
            );
            if show_alloc {
                let (bytes, count) = self
                    .spans
                    .iter()
                    .filter(|s| id_set.contains(&s.id))
                    .fold((0u64, 0u64), |(b, c), s| {
                        (b + s.alloc_bytes, c + s.alloc_count)
                    });
                let _ = write!(out, " {:>12} {count:>9}", format_bytes(bytes));
            }
            out.push('\n');
            self.render_report_level(out, &ids, depth + 1, show_alloc);
        }
    }

    /// Flamegraph-compatible folded stacks: one line per distinct span
    /// stack, `root;child;leaf <self-time-ns>`, aggregated and sorted by
    /// stack. Feed to `flamegraph.pl` / `inferno-flamegraph` (the count
    /// unit is nanoseconds of self time). This is what `ssp trace fold`
    /// prints.
    pub fn folded(&self) -> String {
        let by_id: HashMap<u64, &SpanRec> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.duration_ns();
            }
        }
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            let self_ns = s
                .duration_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let mut frames: Vec<&str> = vec![&s.name];
            let mut cursor = s.parent;
            while cursor != 0 {
                let Some(p) = by_id.get(&cursor) else { break };
                frames.push(&p.name);
                cursor = p.parent;
            }
            frames.reverse();
            let stack = frames
                .iter()
                // Frame separators must survive the folded format.
                .map(|f| f.replace([';', ' '], "_"))
                .collect::<Vec<_>>()
                .join(";");
            *stacks.entry(stack).or_insert(0) += self_ns;
        }
        let mut out = String::new();
        for (stack, ns) in stacks {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }
}

/// Compare two traces: per-span-name total time, per-counter totals, and
/// per-histogram count/sum/p50/p99/max, with relative deltas. Rows whose
/// relative change reaches `threshold` (a fraction, e.g. `0.10`) are
/// flagged with `!`. This is what `ssp trace diff` prints.
pub fn diff(old: &Trace, new: &Trace, threshold: f64) -> String {
    let mut out = String::new();
    let agg = |t: &Trace| -> BTreeMap<String, (u64, usize)> {
        let mut m: BTreeMap<String, (u64, usize)> = BTreeMap::new();
        for s in &t.spans {
            let e = m.entry(s.name.clone()).or_insert((0, 0));
            e.0 += s.duration_ns();
            e.1 += 1;
        }
        m
    };
    let old_spans = agg(old);
    let new_spans = agg(new);
    let _ = writeln!(
        out,
        "{:<36} {:>12} {:>12} {:>9} {:>13}",
        "span", "old", "new", "delta", "calls"
    );
    let names: Vec<&String> = old_spans.keys().chain(new_spans.keys()).collect();
    let mut seen = HashSet::new();
    for name in names {
        if !seen.insert(name.clone()) {
            continue;
        }
        let (o_ns, o_calls) = old_spans.get(name).copied().unwrap_or((0, 0));
        let (n_ns, n_calls) = new_spans.get(name).copied().unwrap_or((0, 0));
        let _ = writeln!(
            out,
            "{name:<36} {:>12} {:>12} {:>9} {:>13}",
            format_ns(o_ns),
            format_ns(n_ns),
            delta_label(o_ns as f64, n_ns as f64, threshold),
            format!("{o_calls}\u{2192}{n_calls}")
        );
    }
    let old_ctr: BTreeMap<&String, u64> = old.counters.iter().map(|(n, v)| (n, *v)).collect();
    let new_ctr: BTreeMap<&String, u64> = new.counters.iter().map(|(n, v)| (n, *v)).collect();
    if !old_ctr.is_empty() || !new_ctr.is_empty() {
        let _ = writeln!(
            out,
            "counters:\n  {:<34} {:>12} {:>12} {:>9}",
            "name", "old", "new", "delta"
        );
        let mut seen = HashSet::new();
        for name in old_ctr.keys().chain(new_ctr.keys()) {
            if !seen.insert((*name).clone()) {
                continue;
            }
            let o = old_ctr.get(name).copied().unwrap_or(0);
            let n = new_ctr.get(name).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "  {name:<34} {o:>12} {n:>12} {:>9}",
                delta_label(o as f64, n as f64, threshold)
            );
        }
    }
    if !old.hists.is_empty() || !new.hists.is_empty() {
        let _ = writeln!(
            out,
            "histograms:\n  {:<28} {:<5} {:>12} {:>12} {:>9}",
            "name", "stat", "old", "new", "delta"
        );
        let mut seen = HashSet::new();
        for h in old.hists.iter().chain(new.hists.iter()) {
            if !seen.insert(h.name.clone()) {
                continue;
            }
            // Five stats per histogram, so an attachment separates "more
            // samples" (count/sum) from "the distribution moved"
            // (p50/p99/max). A histogram missing on one side reads 0
            // everywhere, which delta_label renders as new/gone.
            let stats = |rec: Option<&HistRec>| -> [u64; 5] {
                rec.map_or([0; 5], |r| [r.count, r.sum, r.p50(), r.p99(), r.max])
            };
            let o = stats(old.hist(&h.name));
            let n = stats(new.hist(&h.name));
            for (k, stat) in ["count", "sum", "p50", "p99", "max"]
                .into_iter()
                .enumerate()
            {
                let name = if k == 0 { h.name.as_str() } else { "" };
                let _ = writeln!(
                    out,
                    "  {name:<28} {stat:<5} {:>12} {:>12} {:>9}",
                    o[k],
                    n[k],
                    delta_label(o[k] as f64, n[k] as f64, threshold)
                );
            }
        }
    }
    out
}

/// `+x.x%` relative change with a `!` flag at or past `threshold`;
/// `new`/`gone` when one side is missing.
fn delta_label(old: f64, new: f64, threshold: f64) -> String {
    if old == 0.0 && new == 0.0 {
        "=".to_string()
    } else if old == 0.0 {
        "new".to_string()
    } else if new == 0.0 {
        "gone".to_string()
    } else {
        let delta = new / old - 1.0;
        let flag = if delta.abs() >= threshold { " !" } else { "" };
        format!("{:+.1}%{flag}", delta * 100.0)
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn format_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            spans: vec![
                SpanRec {
                    id: 1,
                    parent: 0,
                    thread: 1,
                    name: "solve".into(),
                    start_ns: 0,
                    end_ns: 1_000_000,
                    ..SpanRec::default()
                },
                SpanRec {
                    id: 2,
                    parent: 1,
                    thread: 1,
                    name: "lower_bound".into(),
                    start_ns: 10,
                    end_ns: 600_000,
                    ..SpanRec::default()
                },
                SpanRec {
                    id: 3,
                    parent: 1,
                    thread: 1,
                    name: "rr".into(),
                    start_ns: 600_100,
                    end_ns: 999_000,
                    ..SpanRec::default()
                },
            ],
            counters: vec![
                ("bal.flow_calls".into(), 17),
                ("maxflow.dinic.runs".into(), 18),
            ],
            hists: vec![HistRec {
                name: "bal.bisect.probes".into(),
                count: 4,
                sum: 90,
                max: 31,
                buckets: vec![(4, 1), (5, 3)],
            }],
            error: None,
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let trace = sample();
        let text = trace.to_jsonl();
        let parsed = Trace::parse(&text).expect("parse back");
        assert_eq!(parsed, trace);
        parsed.validate().expect("well-formed");
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        // Including alloc fields, histograms, and the error line.
        let mut trace = sample();
        trace.spans[1].alloc_bytes = 4096;
        trace.spans[1].alloc_count = 3;
        trace.error = Some("boom: \"quoted\"".into());
        let text = trace.to_jsonl();
        let parsed = Trace::parse(&text).expect("parse back");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_jsonl(), text, "re-emit must be byte-identical");
    }

    #[test]
    fn u64_fields_round_trip_exactly() {
        // Past 2^53 an f64 would round: counters and *_ns must not.
        let mut trace = sample();
        trace.counters.push(("big.counter".into(), u64::MAX));
        trace.spans[0].end_ns = (1 << 53) + 1;
        let text = trace.to_jsonl();
        let parsed = Trace::parse(&text).expect("parse back");
        assert_eq!(parsed.counter("big.counter"), u64::MAX);
        assert_eq!(parsed.spans[0].end_ns, (1 << 53) + 1);
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn version1_traces_still_parse() {
        let text = "\
{\"type\":\"meta\",\"version\":1,\"spans\":1,\"counters\":1}
{\"type\":\"span\",\"id\":1,\"parent\":0,\"thread\":1,\"name\":\"solve\",\"start_ns\":0,\"end_ns\":5}
{\"type\":\"counter\",\"name\":\"c\",\"value\":2}
";
        let trace = Trace::parse(text).expect("v1 parses");
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].alloc_bytes, 0);
        assert!(trace.hists.is_empty());
        assert!(trace.error.is_none());
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut trace = sample();
        trace.spans[0].name = "weird \"name\"\\with\n\tescapes".into();
        let parsed = Trace::parse(&trace.to_jsonl()).unwrap();
        assert_eq!(parsed.spans[0].name, trace.spans[0].name);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Trace::parse("not json").is_err());
        assert!(
            Trace::parse("{\"type\":\"span\",\"id\":1}").is_err(),
            "missing fields"
        );
        assert!(
            Trace::parse("{\"type\":\"span\"").is_err(),
            "unterminated object"
        );
        let trace = sample();
        let mut text = trace.to_jsonl();
        text.push_str("{\"type\":\"span\",\"id\":9,\"parent\":0,\"thread\":1,\"name\":\"x\",\"start_ns\":0,\"end_ns\":1}\n");
        assert!(Trace::parse(&text).is_err(), "meta span count mismatch");
        let mut text = trace.to_jsonl();
        text.push_str(
            "{\"type\":\"hist\",\"name\":\"h\",\"count\":1,\"sum\":1,\"max\":1,\"buckets\":\"1\"}\n",
        );
        assert!(Trace::parse(&text).is_err(), "bad bucket entry");
    }

    #[test]
    fn parse_ignores_unknown_line_types() {
        let trace = sample();
        let mut text = trace.to_jsonl();
        text.push_str("{\"type\":\"future_thing\",\"x\":1}\n");
        assert_eq!(Trace::parse(&text).unwrap(), trace);
    }

    #[test]
    fn bucket_math_is_consistent() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "{v} above its bucket upper bound");
            if b > 0 {
                assert!(v > bucket_upper(b - 1), "{v} fits a smaller bucket");
            }
        }
    }

    #[test]
    fn quantiles_are_coherent() {
        // 89 small values, 9 medium, 2 large: p50 small, p99 large.
        let mut h = HistRec::new("q");
        h.count = 100;
        h.max = 5000;
        h.sum = 89 * 3 + 9 * 200 + 2 * 5000;
        h.buckets = vec![(2, 89), (8, 9), (13, 2)];
        assert_eq!(h.p50(), 3);
        assert_eq!(h.p90(), 255);
        assert_eq!(h.p99(), 5000, "p99 clamps to observed max");
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.max);
        assert_eq!(HistRec::new("empty").quantile(0.5), 0);
    }

    #[test]
    fn validate_catches_structural_problems() {
        let mut bad = sample();
        bad.spans[1].parent = 99;
        assert!(bad.validate().is_err(), "missing parent");

        let mut bad = sample();
        bad.spans[2].id = 1;
        assert!(bad.validate().is_err(), "duplicate id");

        let mut bad = sample();
        bad.spans[1].end_ns = 2_000_000; // escapes parent interval
        assert!(bad.validate().is_err(), "containment");

        let mut bad = sample();
        bad.hists[0].count = 5; // buckets sum to 4
        assert!(bad.validate().is_err(), "bucket sum mismatch");

        let mut bad = sample();
        bad.hists[0].max = 2; // lands in bucket 2, last bucket is 5
        assert!(bad.validate().is_err(), "max outside last bucket");

        sample().validate().expect("sample is valid");
    }

    #[test]
    fn phase_table_lists_phases_and_counters() {
        let table = sample().phase_table();
        assert!(table.contains("solve"));
        assert!(table.contains("  lower_bound"), "children indented");
        assert!(table.contains("bal.flow_calls"));
        assert!(table.contains("1.00 ms"));
    }

    #[test]
    fn report_shows_self_time_and_histograms() {
        let report = sample().report();
        // solve: total 1.00 ms, children cover ~998.9 us → self ~1.1 us.
        assert!(report.contains("solve"));
        assert!(report.contains("self"));
        assert!(report.contains("1.1 us"), "self time of solve:\n{report}");
        assert!(report.contains("bal.bisect.probes"));
        let mut failed = sample();
        failed.error = Some("it broke".into());
        assert!(failed.report().starts_with("ERROR: it broke"));
    }

    #[test]
    fn folded_output_is_golden() {
        let trace = sample();
        // solve self = 1_000_000 - 599_990 - 398_900 = 1_110 ns.
        assert_eq!(
            trace.folded(),
            "solve 1110\nsolve;lower_bound 599990\nsolve;rr 398900\n"
        );
    }

    #[test]
    fn diff_flags_threshold_crossings() {
        let old = sample();
        let mut new = sample();
        new.spans[2].end_ns = 999_000 + 300_000; // rr ~75% slower
        new.spans[0].end_ns = 2_000_000; // keep containment
        let text = diff(&old, &new, 0.10);
        let rr_line = text.lines().find(|l| l.starts_with("rr")).unwrap();
        assert!(rr_line.contains('!'), "rr must be flagged:\n{text}");
        let lb_line = text.lines().find(|l| l.starts_with("lower_bound")).unwrap();
        assert!(!lb_line.contains('!'), "lower_bound unchanged:\n{text}");
        assert!(text.contains("bal.flow_calls"));
        assert!(text.contains("bal.bisect.probes"));
    }

    #[test]
    fn diff_reports_per_histogram_stats() {
        let old = sample();
        let mut new = sample();
        // Same distribution shape, twice the samples: count and sum must
        // flag, p50/p99/max must not.
        new.hists[0].count = 8;
        new.hists[0].sum = 180;
        new.hists[0].buckets = vec![(4, 2), (5, 6)];
        new.hists.push(HistRec {
            name: "yds.peel_width".into(),
            count: 2,
            sum: 6,
            max: 4,
            buckets: vec![(3, 2)],
        });
        let text = diff(&old, &new, 0.10);
        let hist_section = text.split("histograms:").nth(1).unwrap();
        let stat_line = |stat: &str, after: &str| {
            hist_section
                .split(after)
                .nth(1)
                .unwrap()
                .lines()
                .find(|l| l.split_whitespace().next() == Some(stat))
                .unwrap_or_else(|| panic!("no {stat} row after {after}:\n{text}"))
                .to_string()
        };
        let count = hist_section
            .lines()
            .find(|l| l.trim_start().starts_with("bal.bisect.probes"))
            .unwrap();
        assert!(
            count.contains("count") && count.contains('!'),
            "doubled count must flag:\n{text}"
        );
        assert!(stat_line("sum", "bal.bisect.probes").contains('!'));
        for stat in ["p50", "p99", "max"] {
            assert!(
                !stat_line(stat, "bal.bisect.probes").contains('!'),
                "{stat} unchanged, must not flag:\n{text}"
            );
        }
        // A histogram present only on the new side reads `new` on count.
        assert!(
            hist_section
                .lines()
                .find(|l| l.trim_start().starts_with("yds.peel_width"))
                .unwrap()
                .contains("new"),
            "one-sided histogram:\n{text}"
        );
    }
}
