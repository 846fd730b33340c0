//! The benchmark's own span recorder: one span around every call it makes
//! into a layer, kept in memory and written out at exit. Spans inside the
//! crates are a later change; these are recorded from outside.
//!
//! Stamps are microseconds since the Unix epoch so that spans recorded in
//! a child process line up with the parent's without a handshake.

use crate::json::Value;
use std::time::{SystemTime, UNIX_EPOCH};

#[derive(Clone, Debug)]
struct Span {
    parent: Option<usize>,
    name: String,
    start_us: u64,
    end_us: u64,
}

/// A tree of spans; ids are indices. Off (every call a no-op) unless the
/// run is a traced one, so end-to-end metrics never pay for it.
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_us: now_us(),
            end_us: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_us = now_us();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Grafts spans exported by a child process (see [`Spans::to_json`])
    /// under the innermost open span.
    pub fn adopt(&mut self, child: &Value) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        let root = self.open.last().copied();
        for s in child.items() {
            let num = |k: &str| s.get(k).and_then(Value::as_f64);
            self.spans.push(Span {
                parent: num("parent").map(|p| base + p as usize).or(root),
                name: s.get("name").and_then(Value::as_str).unwrap_or("?").into(),
                start_us: num("start_us").unwrap_or(0.0) as u64,
                end_us: num("end_us").unwrap_or(0.0) as u64,
            });
        }
    }

    /// The spans as a JSON array. `self_us` is a span's duration minus the
    /// part its children cover.
    pub fn to_json(&self) -> Value {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us.saturating_sub(s.start_us);
            }
        }
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            let dur = s.end_us.saturating_sub(s.start_us);
            Value::obj()
                .with("id", id)
                .with("parent", s.parent.map_or(Value::Null, Value::from))
                .with("name", s.name.as_str())
                .with("start_us", s.start_us)
                .with("end_us", s.end_us)
                .with("self_us", dur.saturating_sub(child_us[id]))
        });
        Value::Arr(spans.collect())
    }
}
