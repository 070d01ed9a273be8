//! In-memory spans recorded around calls into the program's layers.
//!
//! A [`Tracer`] that is off records nothing and costs one branch per
//! call, so the untraced and traced runs share one code path.

use std::time::Instant;

/// One timed interval: a call into a layer, or a slice of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span within its tracer.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// What ran, e.g. `build` or `run_until`.
    pub name: String,
    /// Host nanoseconds since the benchmark's epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the benchmark's epoch.
    pub end_ns: u64,
    /// Simulator events dispatched inside the span (0 where not counted).
    pub events: u64,
    /// Packet-hops transmitted inside the span (0 where not counted).
    pub hops: u64,
}

/// A span recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; it records only when `on`.
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// An empty tracer with the same epoch and switch.
    pub fn fresh(&self) -> Tracer {
        Tracer::new(self.epoch, self.on)
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when the tracer is off.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<u32>) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            events: 0,
            hops: 0,
        });
        Some(id)
    }

    /// Close a span opened by [`open`](Tracer::open).
    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Attach event and hop counts to a span.
    pub fn count(&mut self, id: Option<u32>, events: u64, hops: u64) {
        if let Some(id) = id {
            let s = &mut self.spans[id as usize];
            s.events = events;
            s.hops = hops;
        }
    }

    /// Move another tracer's spans under `parent` (e.g. a sweep point
    /// recorded on a worker thread).
    pub fn absorb(&mut self, other: Tracer, parent: Option<u32>) {
        let offset = self.spans.len() as u32;
        for mut s in other.spans {
            s.id += offset;
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                     \"events\":{},\"hops\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name.replace('\\', "\\\\").replace('"', "\\\""),
                    s.start_ns,
                    s.end_ns,
                    s.events,
                    s.hops
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::host_now;

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(host_now(), false);
        let id = t.open("build", None);
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_hang_under_the_given_parent() {
        let epoch = host_now();
        let mut outer = Tracer::new(epoch, true);
        let sweep = outer.open("sweep", None);
        let mut point = Tracer::new(epoch, true);
        let p = point.open("point", None);
        let child = point.open("run_until", p);
        point.close(child);
        point.close(p);
        outer.absorb(point, sweep);
        outer.close(sweep);
        let spans = outer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(outer.to_json().contains("\"name\":\"run_until\""));
    }
}
