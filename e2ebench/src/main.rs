//! The cmm benchmark: cold compilation, hot execution and a long-lived
//! service, measured end to end and, in a traced run, layer by layer.
//!
//! ```text
//! cmm-e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload runs per process, driven from one thread. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics traced). See README.md for what each workload and
//! metric means.

mod compile_cold;
mod execute_hot;
mod pipeline;
mod rng;
mod serve_steady;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Command-line settings.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: cmm-e2ebench --workload compile_cold|execute_hot|serve_steady --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug)]
pub struct RunOutput {
    /// Run-level consistency checks held (the operations that did not
    /// fail were checked one by one).
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output did not match its reference.
    pub failed: u64,
    /// End-to-end figures (untraced) or per-layer figures (traced).
    pub metrics: Vec<Metric>,
}

/// Every per-layer metric with its unit. A traced run prints all of
/// them; a layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("frontend.lower_ms", "ms"),
    ("parse.parse_ms", "ms"),
    ("cfg.build_ms", "ms"),
    ("cfg.nodes", "count"),
    ("opt.optimize_ms", "ms"),
    ("opt.iterations", "count"),
    ("opt.nodes_out", "count"),
    ("vm.codegen_ms", "ms"),
    ("vm.decode_ms", "ms"),
    ("vm.fuse_ms", "ms"),
    ("vm.run_ms", "ms"),
    ("vm.ns_per_sim_inst", "ns"),
    ("vm.start_us", "us"),
    ("rt.dispatch_ms", "ms"),
    ("rt.dispatches", "count"),
    ("rt.table1_ops", "count"),
    ("serve.tick_ms", "ms"),
    ("serve.tick_ms_early", "ms"),
    ("serve.tick_ms_late", "ms"),
    ("serve.submit_us", "us"),
    ("serve.resume_us", "us"),
    ("serve.awaiting_ms", "ms"),
    ("serve.slices_per_response", "count"),
    ("serve.queue_wait_vns_p50", "ns"),
    ("serve.threads_retained", "count"),
    ("serve.events_retained", "count"),
    ("snap.blob_bytes", "bytes"),
    ("snap.encode_us", "us"),
    ("snap.decode_us", "us"),
    ("sem.resolve_us", "us"),
    ("serve.slices_sem_resolved", "count"),
    ("pool.cache_hit_rate", "ratio"),
    ("pool.cache_hits", "count"),
    ("pool.cache_lookups", "count"),
    ("trace.overhead", "ratio"),
    ("trace.accounted", "ratio"),
];

/// Per-layer figures in [`PER_LAYER`] order, 0 for a layer the workload
/// does not reach.
pub fn per_layer(found: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in found.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unlisted per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: found.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The run's measuring budget: whole rounds until `seconds` have passed
/// and enough operations completed for a 99th percentile. A traced run
/// alternates untraced and traced rounds, so it needs at least two.
pub struct Budget {
    start: Instant,
    seconds: u64,
    min_rounds: u64,
}

impl Budget {
    /// Starts the clock.
    pub fn start(args: &Args) -> Budget {
        Budget {
            start: Instant::now(),
            seconds: args.seconds,
            min_rounds: if args.trace { 2 } else { 1 },
        }
    }

    /// True once another round is not needed after `rounds` rounds.
    pub fn spent(&self, ops: usize, rounds: u64) -> bool {
        self.start.elapsed().as_secs_f64() >= self.seconds as f64
            && ops >= stats::min_ops()
            && rounds >= self.min_rounds
    }
}

/// One operation of an operation-loop workload.
pub struct Done {
    /// Time inside the operation, ns.
    pub ns: u64,
    /// Its output matched the reference.
    pub ok: bool,
    /// Cost-model instructions retired by the operation or its check.
    pub insts: u64,
}

/// What whole rounds of operations collected.
pub struct Rounds {
    /// Each operation's time, ms.
    pub op_ms: Vec<f64>,
    /// Time inside the operations, ns.
    pub busy_ns: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Instructions retired in all rounds.
    pub sim_insts: u64,
    /// Instructions retired in the traced rounds.
    pub traced_sims: u64,
    /// Every round retired the same instructions, as determinism
    /// demands.
    pub steady: bool,
    /// Untraced against traced operation time.
    pub overhead: trace::Overhead,
}

/// Runs whole rounds of operations `0..n` until the budget is spent;
/// in a traced run every second round is traced. `op(tr, i)` runs
/// operation `i` and times it.
pub fn op_rounds(
    args: &Args,
    tr: &mut trace::Tracer,
    n: usize,
    mut op: impl FnMut(&mut trace::Tracer, usize) -> Done,
) -> Rounds {
    let budget = Budget::start(args);
    let mut r = Rounds {
        op_ms: Vec::new(),
        busy_ns: 0,
        failed: 0,
        sim_insts: 0,
        traced_sims: 0,
        steady: true,
        overhead: trace::Overhead::default(),
    };
    let mut first_round_sims = None;
    for round in 0u64.. {
        let traced = args.trace && round % 2 == 1;
        tr.set_on(traced);
        let (mut sims, mut ns) = (0, 0);
        for i in 0..n {
            tr.set_op(round * n as u64 + i as u64);
            let d = op(tr, i);
            r.op_ms.push(d.ns as f64 / 1e6);
            r.failed += u64::from(!d.ok);
            sims += d.insts;
            ns += d.ns;
        }
        r.overhead.add(traced, ns, n as u64);
        r.busy_ns += ns;
        r.sim_insts += sims;
        if traced {
            r.traced_sims += sims;
        }
        r.steady &= *first_round_sims.get_or_insert(sims) == sims;
        if budget.spent(r.op_ms.len(), round + 1) {
            break;
        }
    }
    r
}

/// Writes a traced run's spans and returns their per-layer totals.
pub fn traced_totals(
    tr: &trace::Tracer,
    workload: &str,
) -> BTreeMap<&'static str, trace::LayerTotals> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}.tsv"));
    if let Err(e) = tr.write_tsv(&path) {
        eprintln!(
            "cmm-e2ebench: could not write spans to {}: {e}",
            path.display()
        );
    }
    trace::totals(tr.spans())
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Runs the set-up [`SETUP_REPS`] times and returns the last result with
/// the median set-up time. The first repetition is timed from process
/// start, so it includes loading and argument parsing.
pub fn timed_setup<T>(process_start: Instant, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut from = process_start;
    let mut out = None;
    for _ in 0..SETUP_REPS {
        let v = f();
        times.push(from.elapsed().as_secs_f64());
        out = Some(v);
        from = Instant::now();
    }
    (
        out.expect("one repetition"),
        stats::median(&stats::sorted(times)),
    )
}

/// The end-to-end figures every workload reports.
pub struct EndToEnd {
    /// Each operation's time, ms.
    pub op_ms: Vec<f64>,
    /// Seconds the operations took in all; throughput is operations
    /// over this.
    pub busy_s: f64,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// VM instructions emitted for the workload's distinct programs.
    pub code_insts: u64,
    /// Cost-model instructions retired by all operations.
    pub sim_insts: u64,
}

impl EndToEnd {
    /// The seven end-to-end metrics.
    pub fn metrics(self) -> Vec<Metric> {
        let n = self.op_ms.len().max(1) as f64;
        let sorted = stats::sorted(self.op_ms);
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("throughput_ops_s", n / self.busy_s.max(1e-9), "1/s"),
            m("latency_p50_ms", stats::median(&sorted), "ms"),
            m(
                "latency_p99_ms",
                stats::percentile(&sorted, stats::TAIL_Q),
                "ms",
            ),
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
            m("code_insts", self.code_insts as f64, "count"),
            m("sim_insts_per_op", self.sim_insts as f64 / n, "count"),
        ]
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn render(out: &RunOutput) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmm-e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "compile_cold" => compile_cold::run(&args, process_start),
        "execute_hot" => execute_hot::run(&args, process_start),
        "serve_steady" => serve_steady::run(&args, process_start),
        other => {
            eprintln!("cmm-e2ebench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    for m in &out.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}: {} operations attempted, {} failed, seed {}",
        args.workload, out.attempted, out.failed, args.seed
    );
    println!("{}", render(&out));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args(&[
            "--workload",
            "execute_hot",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("execute_hot", 7, 3, true)
        );
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "-1"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let out = RunOutput {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "latency_p50_ms",
                value: 1.25,
                unit: "ms",
            }],
        };
        assert_eq!(
            render(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(per_layer(&BTreeMap::new()).len(), PER_LAYER.len());
    }
}
