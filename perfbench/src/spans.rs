//! In-memory spans recorded around the benchmark's calls into each
//! layer.
//!
//! A span has a name, a start and an end on one monotonic clock, and the
//! span that was open when it began (its parent). Spans of one serve
//! request carry that request's stream index, and an optional tag (a
//! cycle name, the rung that served) splits one name into groups. The
//! tracer keeps every span in memory; the run writes them out when it
//! ends. A disabled tracer records nothing and reads no clock.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, increasing in opening order.
    pub id: u64,
    /// The span that was open on the same thread (or was named
    /// explicitly) when this one opened.
    pub parent: Option<u64>,
    /// Layer call name, `<crate>.<call>`.
    pub name: &'static str,
    /// Optional group within the name (cycle, serving rung, ...).
    pub tag: Option<&'static str>,
    /// Stream index of the serve request this span belongs to.
    pub request: Option<u64>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// End minus start, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost span open on this thread.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = if self.enabled {
            OPEN.with(|s| s.borrow().last().copied())
        } else {
            None
        };
        self.enter_under(name, parent)
    }

    /// Opens a span under an explicit parent: the first span of a task
    /// that runs on a worker thread.
    pub fn enter_under(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { live: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            live: Some(Live {
                tracer: self,
                span: Span {
                    id,
                    parent,
                    name,
                    tag: None,
                    request: None,
                    start_ns: self.now_ns(),
                    end_ns: 0,
                },
            }),
        }
    }

    /// Removes and returns every closed span, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = match self.spans.lock() {
            Ok(mut v) => std::mem::take(&mut *v),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        spans.sort_by_key(|s| s.id);
        spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[derive(Debug)]
struct Live<'a> {
    tracer: &'a Tracer,
    span: Span,
}

/// An open span; it closes when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    live: Option<Live<'a>>,
}

impl SpanGuard<'_> {
    /// The span's id (None when tracing is off).
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.span.id)
    }

    /// Sets the span's tag.
    pub fn tag(&mut self, tag: &'static str) {
        if let Some(l) = self.live.as_mut() {
            l.span.tag = Some(tag);
        }
    }

    /// Sets the serve request the span belongs to.
    pub fn request(&mut self, index: u64) {
        if let Some(l) = self.live.as_mut() {
            l.span.request = Some(index);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(mut live) = self.live.take() else {
            return;
        };
        live.span.end_ns = live.tracer.now_ns();
        let id = live.span.id;
        OPEN.with(|s| {
            let mut open = s.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.remove(pos);
            }
        });
        // A poisoned store only means another thread panicked while
        // pushing; the vector itself is still valid.
        let mut store = match live.tracer.spans.lock() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        store.push(live.span);
    }
}

/// Self time of every span, ns, in the order of `spans`: the span's
/// duration minus the part of its interval that its children cover.
/// Children that run in parallel and overlap are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Checks that every span lies inside its parent's interval and that
/// every parent exists and opened earlier.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: std::collections::BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!("span {} ({}) has no parent {pid}", s.id, s.name));
        };
        if p.id >= s.id || s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) is not inside its parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
    }
    Ok(())
}

/// Durations, ns, of the spans called `name` (and tagged `tag`, when
/// given), in id order.
pub fn durations(spans: &[Span], name: &str, tag: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && (tag.is_none() || s.tag == tag))
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Writes the spans as JSON lines, after one header line.
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (s, self_ns) in spans.iter().zip(selfs) {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let tag = s.tag.map_or("null".to_string(), |t| format!("\"{t}\""));
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            tag,
            opt(s.request),
            s.start_ns,
            s.end_ns,
            self_ns
        )?;
    }
    out.flush()
}
