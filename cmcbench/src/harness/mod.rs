//! The benchmark harness: seeded workloads, their end-to-end metrics, and
//! a traced replay that breaks each workload's time down by layer.

pub mod compare;
pub(crate) mod gen;
pub(crate) mod replay;
pub mod results;
pub(crate) mod serve;
pub(crate) mod speed;
pub(crate) mod stats;
pub mod trace;
pub mod workloads;

/// A layer's error as the harness reports it.
pub(crate) fn err(e: impl ToString) -> String {
    e.to_string()
}

/// Seconds each workload measures by default: the `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One thread calling `run_source` on token rings and the paper's
    /// AFS sources: the symbolic engine end to end.
    CliSymbolic,
    /// Two clients sending fresh programs to the daemon: every job is a
    /// store miss checked by the engine `Auto` picks.
    ServeCold,
    /// Two clients re-sending a pre-filled pool of programs to the daemon:
    /// almost every job is a store hit.
    ServeHot,
    /// One thread running the paper's compositional proofs.
    ProofCompositional,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::CliSymbolic,
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::ProofCompositional,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliSymbolic => "cli-symbolic",
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
            Workload::ProofCompositional => "proof-compositional",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and in `BENCHMARK.json`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The metrics of an untraced run. A request is one `run_source` call,
/// one proof, or one batch round trip to the daemon. Times and throughput
/// are scaled to the speed of the host the bounds were set on (see the
/// `speed` module).
pub fn end_to_end_metrics() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", Better::Lower),
        def("jobs_per_s", "jobs/s", Better::Higher),
        def("latency_ms_p50", "ms", Better::Lower),
        def("latency_ms_p90", "ms", Better::Lower),
        def("cpu_ms_per_job", "ms", Better::Lower),
        def("peak_rss_mb", "MiB", Better::Lower),
    ]
}

/// Spans recorded by the traced replays, one per call into a layer
/// crate; `job` is the root span of each request.
pub const SPANS: [&str; 17] = [
    "job",
    "smv.parse",
    "smv.compile",
    "smv.compile_explicit",
    "smv.compile_expansion",
    "smv.report",
    "symbolic.check",
    "symbolic.witness",
    "symbolic.holds_everywhere",
    "ctl.check",
    "ctl.witness",
    "core.prove",
    "core.rule4",
    "store.key",
    "store.lookup",
    "store.insert",
    "store.disk_load",
];

/// The metrics of a traced run: per span, self time per job and share of
/// the traced wall time; then the layers' own counters.
pub fn per_layer_metrics() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    for span in SPANS {
        defs.push(def(format!("{span}.ms"), "ms", Lower));
        defs.push(def(format!("{span}.share"), "frac", Lower));
    }
    defs.extend([
        def("bdd.nodes_allocated", "nodes", Lower),
        def("bdd.peak_live_nodes", "nodes", Lower),
        def("bdd.gc_runs", "count", Lower),
        def("bdd.and_exists_hit_ratio", "frac", Higher),
        def("bdd.cache_evictions", "count", Lower),
        def("symbolic.clusters", "count", Lower),
        def("symbolic.replans", "count", Lower),
        def("ctl.transitions", "count", Lower),
        def("route.explicit_frac", "frac", Lower),
        def("store.hit_ratio", "frac", Higher),
        def("store.insertions", "count", Lower),
        def("store.evictions", "count", Lower),
        def("store.disk_bytes", "bytes", Lower),
        def("store.compactions", "count", Lower),
        def("serve.wait.ms", "ms", Lower),
        def("serve.dup_check_frac", "frac", Lower),
        def("trace.overhead_frac", "frac", Lower),
    ]);
    defs
}
