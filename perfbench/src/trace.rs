//! The benchmark's own spans: recorded around the calls it makes into each
//! layer's public functions, kept in memory, written out at the end.
//!
//! A root span times one real end-to-end operation. Most layers cannot be
//! timed inside that operation from outside the program, so the benchmark
//! *replays* them: right after the operation it calls the same layer
//! functions on the same inputs and records each call as a child span.
//! A span's self time is its duration minus its children's durations, so
//! a root's self time is the signed `unattributed` remainder and the self
//! times of a tree add up to the root's duration. (That sum is
//! arithmetic; the check that can fail is the workloads' comparison of
//! each replay's output with the real operation's output.)

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `id` is the span's index in its recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request (iteration) id shared by every span of one operation.
    pub req: u64,
}

impl Span {
    fn dur(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

/// An in-memory span log for one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a span and returns its result and the span id.
    /// `parent = None` opens a root; a child is a replay run after it.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req,
        });
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends one JSON line per span to `out`; `thread` tags the log.
    pub fn write_jsonl(&self, thread: usize, out: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.req
            );
        }
    }
}

/// Self time of every span in `spans` (indexed like `spans`; ids must be
/// indices): its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        // A dangling parent is reported by `reconcile`.
        if let Some(parent) = s.parent.and_then(|p| out.get_mut(p)) {
            *parent -= s.dur();
        }
    }
    out
}

/// One root's attribution: layer self times plus the signed remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconciled {
    pub name: &'static str,
    pub req: u64,
    pub e2e_ns: i64,
    /// Summed self time per layer (span name) below the root.
    pub layers: BTreeMap<&'static str, i64>,
    /// The root's own self time: end-to-end time no layer explains.
    pub unattributed_ns: i64,
}

/// Attributes every root of `spans`. Fails on a dangling or cyclic parent,
/// or when layers plus the remainder miss the end-to-end time.
pub fn reconcile(spans: &[Span]) -> Result<Vec<Reconciled>, String> {
    let selfs = self_times(spans);
    let mut out: Vec<Reconciled> = Vec::new();
    let mut slot: BTreeMap<usize, usize> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        slot.insert(s.id, out.len());
        out.push(Reconciled {
            name: s.name,
            req: s.req,
            e2e_ns: s.dur(),
            layers: BTreeMap::new(),
            unattributed_ns: selfs[s.id],
        });
    }
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let i = slot[&root_of(spans, s.id)?];
        *out[i].layers.entry(s.name).or_insert(0) += selfs[s.id];
    }
    for r in &out {
        let layers: i64 = r.layers.values().sum();
        if layers + r.unattributed_ns != r.e2e_ns {
            return Err(format!(
                "{}: layers {layers} ns + unattributed {} ns != end-to-end {} ns",
                r.name, r.unattributed_ns, r.e2e_ns
            ));
        }
    }
    Ok(out)
}

fn root_of(spans: &[Span], mut id: usize) -> Result<usize, String> {
    for _ in 0..=spans.len() {
        match spans.get(id).map(|s| s.parent) {
            Some(Some(p)) => id = p,
            Some(None) => return Ok(id),
            None => return Err(format!("span {id} has a dangling parent")),
        }
    }
    Err("span parents form a cycle".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
            req: 0,
        }
    }

    fn replay(id: usize, parent: usize, name: &'static str, s: u64, e: u64) -> Span {
        span(id, Some(parent), name, s, e)
    }

    #[test]
    fn replayed_children_subtract_their_duration() {
        // A 100 ns operation explained by replays of 30 + 50 ns, the
        // second with a 20 ns replayed child of its own.
        let spans = vec![
            span(0, None, "op", 0, 100),
            replay(1, 0, "parse", 110, 140),
            replay(2, 0, "decode", 140, 190),
            replay(3, 2, "unpack", 200, 220),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
        let r = &reconcile(&spans).expect("tree adds up")[0];
        assert_eq!(r.e2e_ns, 100);
        assert_eq!(r.unattributed_ns, 20);
        let layers: Vec<_> = r.layers.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(layers, vec![("decode", 30), ("parse", 30), ("unpack", 20)]);
    }

    #[test]
    fn unattributed_is_signed() {
        // Replays that take longer than the operation leave a negative
        // remainder; the books still balance.
        let spans = vec![
            span(0, None, "op", 0, 100),
            replay(1, 0, "kernel", 100, 230),
        ];
        let r = &reconcile(&spans).expect("balances")[0];
        assert_eq!((r.unattributed_ns, r.layers["kernel"]), (-30, 130));
    }

    #[test]
    fn dangling_parent_fails_reconciliation() {
        let spans = vec![span(0, None, "op", 0, 100), replay(1, 5, "a", 100, 110)];
        assert!(reconcile(&spans).is_err());
    }

    #[test]
    fn layers_sum_per_root_across_repeated_spans() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            replay(1, 0, "crc", 100, 110),
            replay(2, 0, "crc", 110, 125),
            span(3, None, "op", 200, 260),
            replay(4, 3, "crc", 260, 270),
        ];
        let rs = reconcile(&spans).expect("balances");
        assert_eq!(rs.len(), 2);
        assert_eq!((rs[0].layers["crc"], rs[0].unattributed_ns), (25, 75));
        assert_eq!((rs[1].layers["crc"], rs[1].unattributed_ns), (10, 50));
    }

    #[test]
    fn recorder_links_parents() {
        let mut rec = Recorder::new(Instant::now());
        let ((), root) = rec.time("op", None, 7, || {});
        let ((), child) = rec.time("layer", Some(root), 7, || {});
        let s = rec.spans();
        assert_eq!((s[root].parent, s[child].parent), (None, Some(root)));
        assert!(s[child].start_ns >= s[root].end_ns);
        assert!(reconcile(s).is_ok());
        let mut out = String::new();
        rec.write_jsonl(0, &mut out);
        assert_eq!(out.lines().count(), 2);
    }
}
