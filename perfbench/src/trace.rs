//! In-memory span recorder for traced runs.
//!
//! Each span wraps one public call into a layer (a workspace crate) and
//! records its start, end, parent, and the allocations made while it was
//! open. A layer's self time is its span's duration minus its children's.
//! A *shadow* span re-runs, outside the program, a phase the program runs
//! inside another call (grammar analysis inside `Parser::new`, say): its
//! time is credited to its own layer and taken out of that call's self
//! time (so the `parser-rt.compile` span around `Parser::new` keeps only
//! the compile step), and it is not on the operation's path, so it is
//! excluded from the operation's traced wall time.
//!
//! When tracing is off, [`span`] only calls its closure: no clock reads.
//! Spans stay in memory until [`finish`]; [`write_jsonl`] writes them out.

use crate::alloc;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub dialect: &'static str,
    pub parent: Option<u32>,
    pub root: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations and bytes while the span was open (children included).
    pub allocs: u64,
    pub bytes: u64,
    /// For a shadow span: the span whose work it re-ran.
    pub credit_to: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans (and counting allocations).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
    alloc::set_counting(true);
}

/// Stop recording and hand back every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    alloc::set_counting(false);
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

fn open(
    layer: &'static str,
    name: &'static str,
    dialect: &'static str,
    credit_to: Option<u32>,
) -> Option<u32> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let idx = t.spans.len() as u32;
        let parent = t.stack.last().copied();
        let root = t.stack.first().copied().unwrap_or(idx);
        let (allocs, bytes) = alloc::snapshot();
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            layer,
            name,
            dialect,
            parent,
            root,
            start_ns,
            end_ns: start_ns,
            allocs,
            bytes,
            credit_to,
        });
        t.stack.push(idx);
        Some(idx)
    })
}

fn close(idx: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer stopped while a span was open");
        let end_ns = t.origin.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::snapshot();
        t.stack.pop();
        let s = &mut t.spans[idx as usize];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.bytes = bytes - s.bytes;
    })
}

/// Run `f` inside a span; returns `f`'s result and the span's index when
/// tracing is on.
pub fn span<R>(
    layer: &'static str,
    name: &'static str,
    dialect: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Option<u32>) {
    let idx = open(layer, name, dialect, None);
    let r = f();
    if let Some(i) = idx {
        close(i);
    }
    (r, idx)
}

/// Run `f` as a shadow span whose time comes out of span `credit_to`.
pub fn shadow<R>(
    layer: &'static str,
    name: &'static str,
    dialect: &'static str,
    credit_to: u32,
    f: impl FnOnce() -> R,
) -> R {
    let idx = open(layer, name, dialect, Some(credit_to));
    let r = f();
    if let Some(i) = idx {
        close(i);
    }
    r
}

/// Self time and allocations of the spans sharing one key. Self time is
/// summed signed: a span that a shadow re-run credits with more time than
/// it took (timing noise on a small remainder) lowers the total instead of
/// clamping at zero, so the sum over many calls stays unbiased.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub self_ns: i64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Aggregated view of a finished trace.
#[derive(Debug, Default)]
pub struct Summary {
    /// Per `(root name, layer, name, dialect)`: self time and self
    /// allocations of the spans with that key under roots of that name.
    pub by_key: BTreeMap<(&'static str, &'static str, &'static str, &'static str), Totals>,
    /// Per root-span name: number of roots and their on-path wall time
    /// (duration minus shadow re-runs).
    pub roots: BTreeMap<&'static str, (u64, u64)>,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let n = spans.len();
        let mut child_ns = vec![0u64; n];
        let mut child_allocs = vec![0u64; n];
        let mut child_bytes = vec![0u64; n];
        let mut shadow_ns_in_root = vec![0u64; n];
        for s in spans {
            let target = match (s.credit_to, s.parent) {
                (Some(t), _) => {
                    shadow_ns_in_root[s.root as usize] += s.dur_ns();
                    // A shadow's own parent keeps it out of its self time.
                    if let Some(p) = s.parent {
                        child_ns[p as usize] += s.dur_ns();
                        child_allocs[p as usize] += s.allocs;
                        child_bytes[p as usize] += s.bytes;
                    }
                    Some(t)
                }
                (None, p) => p,
            };
            if let Some(t) = target {
                child_ns[t as usize] += s.dur_ns();
                child_allocs[t as usize] += s.allocs;
                child_bytes[t as usize] += s.bytes;
            }
        }
        let mut summary = Summary::default();
        for (i, s) in spans.iter().enumerate() {
            let root = spans[s.root as usize].name;
            let e = summary
                .by_key
                .entry((root, s.layer, s.name, s.dialect))
                .or_default();
            e.count += 1;
            e.self_ns += s.dur_ns() as i64 - child_ns[i] as i64;
            e.allocs += s.allocs.saturating_sub(child_allocs[i]);
            e.bytes += s.bytes.saturating_sub(child_bytes[i]);
            if s.parent.is_none() {
                let r = summary.roots.entry(s.name).or_default();
                r.0 += 1;
                r.1 += s.dur_ns().saturating_sub(shadow_ns_in_root[i]);
            }
        }
        summary
    }

    /// Sum of self totals over keys `(root, layer, name, dialect)`
    /// matching `pred`; a negative self-time sum reads 0.
    pub fn sum(&self, pred: impl Fn(&str, &str, &str, &str) -> bool) -> Totals {
        let mut t = Totals::default();
        for (&(r, l, n, d), v) in &self.by_key {
            if pred(r, l, n, d) {
                t.count += v.count;
                t.self_ns += v.self_ns;
                t.allocs += v.allocs;
                t.bytes += v.bytes;
            }
        }
        t.self_ns = t.self_ns.max(0);
        t
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"parent\":{},\"root\":{},\"layer\":\"{}\",\"name\":\"{}\",\"dialect\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"bytes\":{},\"credit_to\":{}}}",
            opt(s.parent),
            s.root,
            s.layer,
            s.name,
            s.dialect,
            s.start_ns,
            s.end_ns,
            s.allocs,
            s.bytes,
            opt(s.credit_to)
        )?;
    }
    out.flush()
}

fn opt(v: Option<u32>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}
