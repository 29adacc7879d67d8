//! Host-clock spans recorded around the benchmark's own calls into each
//! crate's public functions.
//!
//! Spans stay in memory and are written out once, at the end of a
//! traced run, as Chrome-trace JSON that Perfetto opens. A layer's self
//! time is its spans' duration minus the part covered by their child
//! spans; whatever the `bench.*` glue spans keep for themselves is the
//! unattributed remainder of the wall time.

use std::collections::BTreeMap;
use std::time::Instant;

use rvnv_obs::Json;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, `<crate>.<phase>` (e.g. `nn.calibrate`); `bench.*`
    /// names mark the benchmark's own glue.
    pub name: &'static str,
    /// Free-form detail: the model, plan or frame the call served.
    pub label: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The benchmark op the call belongs to (0 outside any op).
    pub op: u64,
}

/// Handle of a span opened with [`Host::begin`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// The span recorder. Disarmed, it only measures durations.
pub struct Host {
    origin: Instant,
    armed: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Host {
    pub fn new() -> Self {
        Host {
            origin: Instant::now(),
            armed: false,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Start a new benchmark op; spans opened from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, label: &str) -> Open {
        let start = Instant::now();
        let index = self.armed.then(|| {
            self.spans.push(Span {
                name,
                label: label.to_string(),
                start_ns: self.now_ns(start),
                end_ns: self.now_ns(start),
                parent: self.stack.last().copied(),
                op: self.op,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { index, start }
    }

    /// Close `open`, returning its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(i), "spans close in nesting order");
            self.spans[i].end_ns = self.now_ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Time one call as a leaf span of layer `name`.
    pub fn time<T>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, label);
        let out = f();
        (out, self.end(open))
    }
}

/// Seconds of `spans[i]` not covered by any of its direct children.
fn self_ns(spans: &[Span], children: &[Vec<usize>], i: usize) -> u64 {
    let s = &spans[i];
    let mut kids: Vec<(u64, u64)> = children[i]
        .iter()
        .map(|&c| {
            (
                spans[c].start_ns.max(s.start_ns),
                spans[c].end_ns.min(s.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = s.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (s.end_ns - s.start_ns) - covered
}

/// Self time in seconds per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.name).or_insert(0.0) += self_ns(spans, &children, i) as f64 * 1e-9;
    }
    out
}

/// Total (inclusive) time in seconds per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
    }
    out
}

/// Render spans as Chrome-trace JSON: one process, one thread, complete
/// (`ph:"X"`) events in microseconds, with op id and parent in `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let obj = |pairs: Vec<(&str, Json)>| {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let mut events = vec![obj(vec![
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(1)),
        ("name", Json::Str("process_name".into())),
        ("args", obj(vec![("name", Json::Str("host time".into()))])),
    ])];
    for (i, s) in spans.iter().enumerate() {
        let mut args = vec![
            ("span", Json::Int(i as u64)),
            ("op", Json::Int(s.op)),
            ("label", Json::Str(s.label.clone())),
        ];
        if let Some(p) = s.parent {
            args.push(("parent", Json::Int(p as u64)));
        }
        events.push(obj(vec![
            ("ph", Json::Str("X".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(1)),
            ("name", Json::Str(s.name.into())),
            (
                "cat",
                Json::Str(s.name.split('.').next().unwrap_or("").into()),
            ),
            ("ts", Json::Float(s.start_ns as f64 / 1e3)),
            ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("args", obj(args)),
        ]));
    }
    obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            label: String::new(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("bench.run", 0, 1000, None),
            span("nn.calibrate", 100, 400, Some(0)),
            span("compiler.compile", 300, 600, Some(0)), // overlaps the first child
            span("nn.build", 350, 450, Some(2)),         // grandchild: not the root's
            span("soc.firmware", 900, 1200, Some(0)),    // clipped at the parent's end
        ];
        let t = self_times(&spans);
        let ns = |name| (t[name] * 1e9).round() as u64;
        assert_eq!(ns("bench.run"), 1000 - 500 - 100);
        assert_eq!(ns("compiler.compile"), 300 - 100);
        assert_eq!(ns("nn.build"), 100);
        assert_eq!(ns("nn.calibrate"), 300);
        // The self times of a well-nested tree sum to the root's wall.
        let nested = vec![
            span("bench.run", 0, 1000, None),
            span("nn.calibrate", 100, 400, Some(0)),
            span("compiler.compile", 400, 700, Some(0)),
            span("nn.build", 450, 500, Some(2)),
        ];
        let sum: f64 = self_times(&nested).values().sum();
        assert!((sum - 1000e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_disarmed_records_nothing() {
        let mut host = Host::new();
        let (v, _) = host.time("nn.build", "x", || 7);
        assert_eq!(v, 7);
        assert!(host.spans().is_empty());
        host.set_armed(true);
        host.next_op();
        let outer = host.begin("bench.op", "m");
        let _ = host.time("nn.build", "m", || ());
        host.end(outer);
        assert_eq!(host.spans().len(), 2);
        assert_eq!(host.spans()[1].parent, Some(0));
        assert_eq!(host.spans()[1].op, 1);
        let json = to_chrome_json(host.spans());
        let parsed = Json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(3)
        );
    }
}
