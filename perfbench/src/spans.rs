//! In-memory span recorder for the traced run.
//!
//! A span brackets one call from the benchmark into a public function of
//! a layer: name, start, end, parent span, and the id of the request (rep
//! or catalog job) it belongs to. Spans are kept in memory and written
//! out once, when the run ends. A span's *self time* is its duration
//! minus the time covered by its direct children; because the benchmark
//! is single-threaded, children never overlap and self times over a tree
//! sum exactly to the root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// Leaf spans repeated more often than this under one parent are folded
/// into one entry in [`Recorder::to_json`].
const FOLD_ABOVE: u64 = 64;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `system.step`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Rep index or catalog-job index the call belongs to.
    pub request: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Calls recorded.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Records spans in a flat arena with an explicit open-span stack.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: [`span`](Self::span) just calls
    /// its closure. Untraced runs use it.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Self::new()
        }
    }

    /// `true` unless built by [`disabled`](Self::disabled).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens on the
    /// recorder it is handed become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// [`span`](Self::span) with the request id of the enclosing span.
    pub fn sub<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let request = self.open.last().map_or(0, |&i| self.spans[i].request);
        self.span(name, request, f)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus direct children's
    /// durations), indexed like [`spans`](Self::spans). Saturates at zero
    /// so a clock anomaly can never produce a negative time; the tests
    /// check it never has to.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Summed duration of spans named `name`, per request id.
    pub fn per_request_secs(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_default() += s.duration_ns() as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// JSON rendering: per-name totals plus the span tree. Leaf spans
    /// sharing a parent and a name more than [`FOLD_ABOVE`] times (the
    /// per-cycle tick calls of the MOMS replay) are written as one
    /// `{"name", "parent", "calls", "total_ns"}` entry so the file stays
    /// small; every other span is written individually.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_times();
        let mut is_leaf = vec![true; self.spans.len()];
        for p in self.spans.iter().filter_map(|s| s.parent) {
            is_leaf[p] = false;
        }
        let mut leaf_groups: BTreeMap<(Option<usize>, &'static str), (u64, u64)> = BTreeMap::new();
        for (s, _) in self.spans.iter().zip(&is_leaf).filter(|(_, &leaf)| leaf) {
            let g = leaf_groups.entry((s.parent, s.name)).or_default();
            g.0 += 1;
            g.1 += s.duration_ns();
        }
        let folded = |k: &(Option<usize>, &'static str)| leaf_groups[k].0 > FOLD_ABOVE;
        let parent = |p: Option<usize>| p.map_or("null".to_owned(), |p| p.to_string());

        let mut entries = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !(is_leaf[i] && folded(&(s.parent, s.name))) {
                entries.push(format!(
                    "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                    s.name,
                    parent(s.parent),
                    s.request,
                    s.start_ns,
                    s.end_ns,
                    self_ns[i]
                ));
            }
        }
        for (k @ (p, name), (calls, total_ns)) in &leaf_groups {
            if folded(k) {
                entries.push(format!(
                    "{{\"name\": \"{name}\", \"parent\": {}, \"calls\": {calls}, \"total_ns\": {total_ns}}}",
                    parent(*p)
                ));
            }
        }
        let totals: Vec<String> = self
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.calls, t.total_ns, t.self_ns
                )
            })
            .collect();
        format!(
            "{{\"totals\": {{{}}},\n\"spans\": [\n{}\n]}}\n",
            totals.join(", "),
            entries.join(",\n")
        )
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root() {
        let mut r = Recorder::new();
        r.span("root", 0, |r| {
            r.span("a", 0, |r| {
                r.span("leaf", 0, |_| std::hint::black_box((0..1000).sum::<u64>()));
            });
            r.span("b", 0, |_| ());
        });
        let selfs = r.self_times();
        let root = r.spans()[0].duration_ns();
        assert_eq!(selfs.iter().sum::<u64>(), root);
        assert_eq!(r.spans()[2].parent, Some(1));
    }
}
