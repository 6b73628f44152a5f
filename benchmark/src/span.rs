//! In-memory spans recorded around calls into the library layers, their
//! self-time arithmetic, and the Chrome-trace writer.
//!
//! Everything here is measured from outside the layers: a span wraps one
//! call of a public function, and the jobs that call ran are attached as
//! child spans from the `JobMetrics` timeline the engine already returns.

use crate::json::Json;
use haten2_mapreduce::Cluster;
use std::time::Instant;

/// The layer a span's own time is attributed to (the `share.*` metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `haten2-mapreduce` jobs: map → seal → shuffle → merge → reduce.
    MapreduceJobs,
    /// `haten2-mapreduce::dfs` get/put, which contain the blockstore calls.
    MapreduceDfs,
    /// `haten2-linalg` kernels.
    Linalg,
    /// `haten2-tensor` operations.
    Tensor,
    /// `haten2-core` driver code (and the benchmark's own loop).
    CoreDriver,
}

impl Layer {
    /// Every layer, in `share.*` order.
    pub const ALL: [Layer; 5] = [
        Layer::MapreduceJobs,
        Layer::MapreduceDfs,
        Layer::Linalg,
        Layer::Tensor,
        Layer::CoreDriver,
    ];

    fn category(self) -> &'static str {
        match self {
            Layer::MapreduceJobs => "mapreduce.job",
            Layer::MapreduceDfs => "mapreduce.dfs",
            Layer::Linalg => "linalg",
            Layer::Tensor => "tensor",
            Layer::CoreDriver => "core",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: the wrapped function, or the job's name.
    pub name: String,
    /// Which layer owns this span's self time.
    pub layer: Layer,
    /// Start, in seconds on the tracer's clock.
    pub start: f64,
    /// End, in seconds on the tracer's clock.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The sweep (or probe) this span belongs to.
    pub sweep_id: u32,
    /// Counts recorded at the same boundary (records, bytes).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// `end − start`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Where the instrumented sweeps report their layer boundaries. The timed
/// pass uses [`NoSpans`], which compiles to the bare calls.
pub trait Spans {
    /// Run `f` as one span of `layer`.
    fn span<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce(&mut Self) -> T) -> T;

    /// Attach the jobs `cluster` has committed since `mark` as children of
    /// the current span.
    fn jobs(&mut self, cluster: &Cluster, mark: usize);
}

/// Tracing off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpans;

impl Spans for NoSpans {
    fn span<T>(&mut self, _: &'static str, _: Layer, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }

    fn jobs(&mut self, _: &Cluster, _: usize) {}
}

/// Tracing on: spans are kept in memory and written out at exit.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Stamped on spans as they open.
    pub sweep_id: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            sweep_id: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

impl Spans for Tracer {
    fn span<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start,
            end: start,
            parent: self.stack.last().copied(),
            sweep_id: self.sweep_id,
            counts: Vec::new(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    fn jobs(&mut self, cluster: &Cluster, mark: usize) {
        // Job stamps live on the cluster's clock; both clocks are
        // monotonic, so one offset aligns them.
        let offset = self.now() - cluster.since_epoch();
        let parent = self.stack.last().copied();
        for job in cluster.metrics_since(mark).jobs {
            self.spans.push(Span {
                name: job.name,
                layer: Layer::MapreduceJobs,
                start: job.started_s + offset,
                end: job.finished_s + offset,
                parent,
                sweep_id: self.sweep_id,
                counts: vec![
                    ("map_input_records", job.map_input_records as f64),
                    ("map_output_records", job.map_output_records as f64),
                    ("shuffle_bytes", job.shuffle_bytes as f64),
                    ("reduce_groups", job.reduce_groups as f64),
                    ("wall_time_s", job.wall_time_s),
                ],
            });
        }
    }
}

fn depth(spans: &[Span], mut i: usize) -> usize {
    let mut d = 0;
    while let Some(p) = spans[i].parent {
        d += 1;
        i = p;
    }
    d
}

/// Each span's self time: its duration minus the part of that interval
/// its descendants cover. Computed by a sweep over the timeline: every
/// instant belongs to the deepest span open at it, and is split equally
/// when several spans of that depth are open at once (overlapping jobs of
/// one batch), so self times always sum to the covered wall-clock and
/// overlapped jobs are not double-counted.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let depths: Vec<usize> = (0..spans.len()).map(|i| depth(spans, i)).collect();
    let mut cuts: Vec<f64> = spans.iter().flat_map(|s| [s.start, s.end]).collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut own = vec![0.0; spans.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let open = |s: &Span| s.start <= a && s.end >= b;
        let Some(deepest) = (0..spans.len())
            .filter(|&i| open(&spans[i]))
            .map(|i| depths[i])
            .max()
        else {
            continue;
        };
        let owners: Vec<usize> = (0..spans.len())
            .filter(|&i| depths[i] == deepest && open(&spans[i]))
            .collect();
        for &i in &owners {
            own[i] += (b - a) / owners.len() as f64;
        }
    }
    own
}

/// Chrome-trace (`chrome://tracing`, Perfetto) document for `spans`.
/// Driver-side spans nest on thread 1; jobs go on lanes 2.. so that
/// overlapping jobs of a batch sit side by side.
pub fn chrome_trace(spans: &[Span], metadata: Json) -> Json {
    let mut lane_free_at: Vec<f64> = Vec::new();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| spans[a].start.total_cmp(&spans[b].start));
    let mut events = Vec::with_capacity(spans.len());
    for i in order {
        let s = &spans[i];
        let tid = if s.layer == Layer::MapreduceJobs && s.parent.is_some() {
            let lane = lane_free_at
                .iter()
                .position(|&free| free <= s.start)
                .unwrap_or_else(|| {
                    lane_free_at.push(0.0);
                    lane_free_at.len() - 1
                });
            lane_free_at[lane] = s.end;
            lane + 2
        } else {
            1
        };
        let mut args = vec![
            ("span".to_string(), Json::Num(i as f64)),
            (
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("sweep_id".to_string(), Json::Num(f64::from(s.sweep_id))),
        ];
        args.extend(s.counts.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))));
        events.push(Json::obj([
            ("name", Json::str(&s.name)),
            ("cat", Json::str(s.layer.category())),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start * 1e6)),
            ("dur", Json::Num(s.duration() * 1e6)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("args", Json::Obj(args)),
        ]));
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("metadata", metadata),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            layer: Layer::CoreDriver,
            start,
            end,
            parent,
            sweep_id: 0,
            counts: Vec::new(),
        }
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        assert_close(&self_times(&spans), &[3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn overlapping_siblings_split_the_overlap() {
        // Two jobs of one batch overlap on [2, 3].
        let spans = [
            span("mttkrp", 0.0, 5.0, None),
            span("job0", 1.0, 3.0, Some(0)),
            span("job1", 2.0, 4.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_close(&own, &[2.0, 1.5, 1.5]);
        // Self times sum to the root's wall-clock: nothing double-counted.
        assert!((own.iter().sum::<f64>() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_roots_and_empty_input() {
        assert!(self_times(&[]).is_empty());
        let spans = [span("x", 0.0, 1.0, None), span("y", 2.0, 4.0, None)];
        assert_close(&self_times(&spans), &[1.0, 2.0]);
    }

    #[test]
    fn tracer_nests_and_stamps_parents() {
        let mut t = Tracer {
            sweep_id: 7,
            ..Default::default()
        };
        let v = t.span("outer", Layer::CoreDriver, |t| {
            t.span("inner", Layer::Linalg, |_| 41) + 1
        });
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].sweep_id, 7);
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
    }

    #[test]
    fn chrome_trace_puts_overlapping_jobs_on_separate_lanes() {
        let mut spans = vec![
            span("mttkrp", 0.0, 5.0, None),
            span("job0", 1.0, 3.0, Some(0)),
            span("job1", 2.0, 4.0, Some(0)),
            span("job2", 3.5, 4.5, Some(0)),
        ];
        for s in &mut spans[1..] {
            s.layer = Layer::MapreduceJobs;
        }
        let doc = chrome_trace(&spans, Json::Null);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let tid = |n: usize| events[n].get("tid").unwrap().as_f64().unwrap();
        assert_eq!((tid(0), tid(1), tid(2), tid(3)), (1.0, 2.0, 3.0, 2.0));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(2e6));
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }
}
