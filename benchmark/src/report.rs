//! What one rank hands back when its SPMD body returns, and the span
//! recorder that fills part of it. On TCP the report crosses the control
//! socket, so it holds only names, numbers and flat span records.

use std::sync::OnceLock;
use std::time::Instant;

/// Span names; a span stores the index.
pub const NAMES: &[&str] = &[
    "setup",
    "graph.generate",
    "distmat.construct",
    "summa.initial",
    "round",
    "fence",
    "probe.redistribute",
    "probe.prepare",
    "probe.publish",
    "update.build",
    "update.apply",
    "dyn_algebraic.apply",
    "dyn_general.apply",
    "analytics.point_query",
    "analytics.topk",
];

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One harness span: a call into a layer, on one rank, in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: u32,
    /// Index of the enclosing span in the same rank's list.
    pub parent: u32,
    /// The round both belong to: the identifier spans of one batch share.
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn name(&self) -> &'static str {
        NAMES[self.name as usize]
    }

    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug, Clone, Default)]
pub struct RankReport {
    pub series: Vec<(String, Vec<f64>)>,
    pub scalars: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl RankReport {
    pub fn put(&mut self, name: &str, value: f64) {
        self.scalars.push((name.to_string(), value));
    }

    /// Adds to a running count, starting it at 0.
    pub fn add(&mut self, name: &str, x: f64) {
        match self.scalars.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += x,
            None => self.put(name, x),
        }
    }

    pub fn put_series(&mut self, name: &str, values: Vec<f64>) {
        self.series.push((name.to_string(), values));
    }

    /// A scalar the rank did not report reads as 0: the layer did not run.
    pub fn get(&self, name: &str) -> f64 {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }
}

fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

/// Records spans in memory while switched on; costs a branch while off.
#[derive(Debug, Default)]
pub struct Tracer {
    pub on: bool,
    pub round: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// The span closed last: what a probe that follows it re-measures.
    last: u32,
}

impl Tracer {
    fn open(&mut self, name: &str, parent: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let name = NAMES
            .iter()
            .position(|n| *n == name)
            .expect("span name is listed in NAMES") as u32;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent,
            round: self.round,
            start_ns: now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn begin(&mut self, name: &str) -> Open {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.open(name, parent)
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.last = id;
        }
    }

    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The span closed last, for [`Tracer::probe`].
    pub fn last(&self) -> u32 {
        self.last
    }

    /// Times a stage that the composed call `under` hides, re-run alone on a
    /// copy right after it. The probe becomes a child of `under`, so that
    /// "self time is a span minus its children" holds although the child
    /// ran outside the parent's interval.
    pub fn probe<R>(&mut self, name: &str, under: u32, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, under);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}
