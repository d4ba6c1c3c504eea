//! Benchmark-side spans around the calls into each layer.
//!
//! The traced pass wraps every call into a crate's public function in a
//! span recorded here, from the benchmark's own files — nothing inside the
//! crates is touched. Spans live in memory and are written once, when the
//! run ends. A span's *self time* is its duration minus the part its direct
//! children cover, so the self times of a tree of spans sum to the root.

use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `dist.distributed_selinv`; the layer is the text
    /// before the first dot.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Self time of every span: duration minus the summed durations of its
/// direct children. The recorder is single-threaded, so children of one
/// parent never overlap and lie inside it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// In-memory span recorder with a parent stack.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one and returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
        self.spans[id].dur_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a leaf span; returns its result and duration (s).
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time (seconds) per layer, in first-seen order.
    pub fn layer_self_s(&self) -> Vec<(String, f64)> {
        let own = self_times_ns(&self.spans);
        let mut out: Vec<(String, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            let secs = ns as f64 * 1e-9;
            match out.iter_mut().find(|(l, _)| l == s.layer()) {
                Some((_, t)) => *t += secs,
                None => out.push((s.layer().to_string(), secs)),
            }
        }
        out
    }

    /// The span list as a JSON document (one object per span).
    pub fn to_json(&self, workload: &str) -> String {
        let own = self_times_ns(&self.spans);
        let mut s = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [\n");
        for (i, (sp, own_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{workload}\", \"start\": {}, \
                 \"end\": {}, \"parent\": {parent}, \"self\": {own_ns}}}{}\n",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 ⊃ a 10..70 ⊃ b 20..50: the grandchild is charged to
        // its parent only, never twice.
        let spans = vec![
            span("bench.rep", 0, 100, None),
            span("dist.run", 10, 70, Some(0)),
            span("dense.gemm", 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 30]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // root 0..100 with two back-to-back children and a gap at the end.
        let spans = vec![
            span("bench.setup", 0, 100, None),
            span("sparse.gen", 0, 30, Some(0)),
            span("order.analyze", 30, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn recorder_nests_under_the_open_span_and_sums_by_layer() {
        let mut rec = Spans::new();
        let outer = rec.enter("bench.setup");
        let ((), inner_s) =
            rec.time("sparse.gen", || std::thread::sleep(std::time::Duration::from_millis(2)));
        let ((), _) = rec.time("sparse.gen", || ());
        let outer_s = rec.exit(outer);
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        assert_eq!(rec.spans()[1].parent, Some(outer));
        assert_eq!(rec.spans()[2].parent, Some(outer));
        let layers = rec.layer_self_s();
        assert_eq!(layers.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(), ["bench", "sparse"]);
        let total: f64 = layers.iter().map(|(_, t)| t).sum();
        assert!((total - outer_s).abs() < 1e-9, "self times must sum to the root");
        assert!(rec.to_json("w").contains("\"parent\": 0"));
    }
}
