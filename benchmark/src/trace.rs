//! In-memory spans around the public calls the traced run makes, and the
//! per-layer arithmetic on them.
//!
//! Two kinds of child exist. A *nested* child ran inside its parent's
//! interval (the real request path: `op.search` → `serve.parse`, …). A
//! *replayed* child is the same work executed again as a separate public
//! call right after the parent finished (`search.respond` →
//! `search.execute`, …), because the parent is one opaque library call
//! and spans inside the library are a later change. Both are subtracted
//! from the parent's self time; a replayed child by its whole duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// `Span::op` of a span that belongs to no operation of the op list.
pub const NO_OP: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the tracer's list.
    pub parent: Option<u32>,
    /// Position in the pass's op list, shared by all spans of one op.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
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

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        replayed: bool,
    ) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
            replayed,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// A leaf span around one call.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        replayed: bool,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op, replayed);
        let out = call();
        self.end(id);
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that nested children cover (overlapping children are counted once)
/// minus the full duration of each replayed child. Never negative: a
/// replay that ran longer than its parent clamps the parent to zero,
/// which `trace.coverage` then shows as a value above 1.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut nested: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut replayed_ns = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p as usize];
        if s.replayed {
            replayed_ns[p as usize] += s.duration_ns();
        } else {
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                nested[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let intervals = &mut nested[i];
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in intervals.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered + replayed_ns[i])
        })
        .collect()
}

/// What the spans of one name add up to.
#[derive(Default)]
pub struct Layer {
    pub durations_ns: Vec<u64>,
    pub self_ns: u64,
}

/// Per span name, over the spans `include` admits: every duration and
/// the summed self time.
pub fn layers(spans: &[Span], include: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs).filter(|(s, _)| include(s)) {
        let layer = out.entry(s.name).or_default();
        layer.durations_ns.push(s.duration_ns());
        layer.self_ns += self_ns;
    }
    out
}

/// Write the spans as one JSON document (`{"spans":[{…}, …]}`).
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"spans\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = if s.op == NO_OP {
            "null".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{op},\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.replayed,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64, replayed: bool) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns: start,
            end_ns: end,
            replayed,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_where_they_overlap() {
        let spans = vec![
            span("op", None, 0, 100, false),
            span("a", Some(0), 10, 40, false),
            // Overlaps `a` on [30, 40): the union covers [10, 60).
            span("b", Some(0), 30, 60, false),
            // Nested two deep: subtracts from `b`, not from `op`.
            span("c", Some(2), 35, 45, false),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20, 10]);
    }

    #[test]
    fn nested_children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span("op", None, 10, 50, false),
            span("early", Some(0), 0, 20, false),
            span("late", Some(0), 45, 70, false),
            span("outside", Some(0), 80, 90, false),
        ];
        // Covered: [10, 20) and [45, 50).
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn replayed_children_subtract_their_whole_duration_and_clamp_at_zero() {
        let spans = vec![
            span("respond", None, 0, 100, false),
            span("execute", Some(0), 200, 260, true),
            span("compose", Some(0), 300, 330, true),
            // A replayed child of a replayed child.
            span("plan", Some(1), 400, 410, true),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 50, 30, 10]);

        let too_long = vec![
            span("respond", None, 0, 100, false),
            span("execute", Some(0), 200, 350, true),
        ];
        assert_eq!(self_times_ns(&too_long)[0], 0);
    }

    #[test]
    fn layers_group_by_name_and_self_times_add_up_to_the_roots() {
        let spans = vec![
            span("op", None, 0, 100, false),
            span("x", Some(0), 0, 30, false),
            span("x", Some(0), 30, 50, false),
            span("op", None, 100, 160, false),
            span("x", Some(3), 110, 150, false),
        ];
        let l = layers(&spans, |_| true);
        assert_eq!(l["x"].durations_ns, vec![30, 20, 40]);
        assert_eq!(l["x"].self_ns, 90);
        assert_eq!(l["op"].self_ns, 50 + 20);
        let total: u64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(total, 160, "self times partition the root intervals");
        let first_op = layers(&spans, |s| s.start_ns < 100);
        assert_eq!(first_op["x"].durations_ns, vec![30, 20]);
    }

    #[test]
    fn tracer_records_parent_op_and_monotone_times() {
        let mut t = Tracer::new();
        let op = t.begin("op", None, 7, false);
        let v = t.timed("leaf", Some(op), 7, false, || 41 + 1);
        t.end(op);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
    }
}
