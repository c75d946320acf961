//! In-memory spans recorded by the benchmark around its calls into the
//! program, written out once at exit as a Chrome/Perfetto trace.
//!
//! One root `exec` span per execution with `build`/`run`/`check`
//! children, plus `kernel.<layer>` and `diff.<backend>` spans. A span's
//! self time is its duration minus the part its children cover.

use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub exec_id: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    exec_id: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            exec_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with execution `id` (the seed).
    pub fn set_exec(&mut self, id: u64) {
        self.exec_id = id;
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Spans::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            exec_id: self.exec_id,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and returns its duration in milliseconds).
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// Times `f` under a span named `name`; returns its value and the
    /// span's duration in milliseconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self times in milliseconds of every span named `name`: duration
    /// minus the durations of its direct children.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let children: u64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e6
            })
            .collect()
    }

    /// The spans as Chrome trace-event JSON (complete `X` events on one
    /// track, so viewers nest them by time).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Span names are ASCII identifiers chosen by this crate.
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"exec_id\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.exec_id,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
