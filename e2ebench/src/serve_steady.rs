//! `serve_steady`: an in-process `Service` with `cmm serve`'s own
//! configuration (Rotate migration, metrics mounted, no chaos) and a
//! closed loop of tenants.
//!
//! `TENANTS` tenants each keep `IN_FLIGHT` threads in flight. After
//! every tick they answer each reported yield with `dispatcher_fill`
//! and submit a new thread whenever one finishes. A round serves
//! `LIFETIMES` thread lifetimes on a fresh service; a run repeats whole
//! rounds. The sources are the load generator's yield-heavy, mixed and
//! compute-only shapes with seeded arguments, spread over all five
//! tiers. An operation is a tenant-visible response: a yield or a
//! completion. Each finished thread's halt value and yield codes are
//! checked against a Rust model of its source.

use crate::pipeline::{self, Source};
use crate::rng::Rng;
use crate::trace::{self, Overhead, Tracer};
use crate::{per_layer, stats, timed_setup, traced_totals, Args, Budget, EndToEnd, RunOutput};
use cmm_obs::MetricClass;
use cmm_serve::{dispatcher_fill, load_config, Service, SubmitReq, ThreadState};
use cmm_snap::{EngineId, Snapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Tenants in the closed loop.
const TENANTS: usize = 8;

/// Threads each tenant keeps in flight.
const IN_FLIGHT: usize = 8;

/// Thread lifetimes one round serves.
const LIFETIMES: usize = 10_000;

/// Pool workers. One keeps every slice on the driving thread, so the
/// process needs one core, like the other workloads; two (`nproc` on a
/// 2-core machine) would hand each tick's slices to worker threads.
const WORKERS: usize = 1;

/// Ticks between two sampled blobs in a traced round.
const SNAP_EVERY: usize = 16;

/// The load generator's yield-heavy shape: `b` dispatch exchanges
/// through an `also unwinds to` chain.
const YIELD_SRC: &str = r#"
    f(bits32 a, bits32 b) {
        bits32 r, i;
        r = a + b;
        i = b;
      loop:
        if i == 0 { return (r); } else {
            r = mid(r + i) also unwinds to k;
            i = i - 1;
            goto loop;
        }
        continuation k(r):
        return (r + 1);
    }
    mid(bits32 x) {
        bits32 r;
        r = g(x) also unwinds to ku;
        return (r);
        continuation ku(r):
        return (r + 100);
    }
    g(bits32 x) { yield(x | 1) also aborts; return (x); }
"#;

/// The load generator's mixed shape: a 200-iteration spin between
/// dispatch exchanges.
const MIX_SRC: &str = r#"
    f(bits32 a, bits32 b) {
        bits32 r, i, j;
        r = a;
        i = b;
      outer:
        if i == 0 { return (r); } else { j = 200; goto spin; }
      spin:
        if j == 0 { goto hop; } else { r = (r + j) & 65535; j = j - 1; goto spin; }
      hop:
        r = mid(r + i) also unwinds to k;
        i = i - 1;
        goto outer;
        continuation k(r):
        return (r + 1);
    }
    mid(bits32 x) {
        bits32 r;
        r = g(x) also unwinds to ku;
        return (r);
        continuation ku(r):
        return (r + 100);
    }
    g(bits32 x) { yield(x | 1) also aborts; return (x); }
"#;

/// The load generator's compute-only shape: never yields.
const LOOP_SRC: &str = r#"
    f(bits32 n, bits32 a) {
        bits32 s;
        s = a;
      loop:
        if n == 0 { return (s); } else { s = (s + n) & 65535; n = n - 1; goto loop; }
    }
"#;

/// A source shape.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Yield,
    Mix,
    Loop,
}

impl Shape {
    fn source(self) -> &'static str {
        match self {
            Shape::Yield => YIELD_SRC,
            Shape::Mix => MIX_SRC,
            Shape::Loop => LOOP_SRC,
        }
    }
}

/// One thread to submit.
#[derive(Clone, Copy, Debug)]
struct Spec {
    shape: Shape,
    args: (u32, u32),
    engine: EngineId,
}

/// Thread `k`'s spec: the load generator's 5:2:1 mix of shapes and its
/// argument ranges, drawn from the seed.
fn spec(seed: u64, k: usize) -> Spec {
    let mut r = Rng::new(seed, 1_000 + k as u64);
    let (shape, args) = match k % 8 {
        0..=4 => (Shape::Yield, (r.range(0, 6), r.range(8, 12))),
        5 | 6 => (Shape::Mix, (r.range(0, 10), 6)),
        _ => (Shape::Loop, (r.range(3_000, 6_000), r.range(0, 12))),
    };
    Spec {
        shape,
        args,
        engine: EngineId::ALL[k % EngineId::ALL.len()],
    }
}

/// What the thread must end with: its halt value and its yield codes,
/// when every yield is answered with `dispatcher_fill` of its code (the
/// fixed dispatcher unwinds `mid` to `ku`, which adds 100).
fn model(shape: Shape, (a, b): (u32, u32)) -> (u32, Vec<u64>) {
    let mut codes = Vec::new();
    let mut hop = |r: u32, i: u32| {
        let code = u64::from(r.wrapping_add(i) | 1);
        codes.push(code);
        dispatcher_fill(code).wrapping_add(100)
    };
    let value = match shape {
        Shape::Yield => {
            let mut r = a.wrapping_add(b);
            for i in (1..=b).rev() {
                r = hop(r, i);
            }
            r
        }
        Shape::Mix => {
            let mut r = a;
            for i in (1..=b).rev() {
                for j in (1..=200).rev() {
                    r = r.wrapping_add(j) & 0xffff;
                }
                r = hop(r, i);
            }
            r
        }
        Shape::Loop => {
            let mut s = b;
            for n in (1..=a).rev() {
                s = s.wrapping_add(n) & 0xffff;
            }
            s
        }
    };
    (value, codes)
}

fn submit(svc: &mut Service, tr: &mut Tracer, tenant: usize, s: &Spec) -> u64 {
    let req = SubmitReq {
        tenant: format!("tenant-{tenant}"),
        name: format!("{:?}", s.shape),
        source: s.shape.source().into(),
        entry: "f".into(),
        args: vec![u64::from(s.args.0), u64::from(s.args.1)],
        results: 1,
        engine: s.engine,
        fuel: 500_000,
        max_yields: 64,
        opt: true,
        chaos: None,
    };
    tr.span("serve.submit", |_| svc.submit(req))
        .expect("the closed loop stays under every cap")
}

/// What one round measured.
#[derive(Default)]
struct Round {
    responses: u64,
    failed: u64,
    /// Serving time, less the traced round's snapshot samples.
    ns: u64,
    latency_ms: Vec<f64>,
    instructions: u64,
    /// Tick times while tenants were still submitting, in order.
    steady_ticks_ns: Vec<u64>,
    blob_bytes: Vec<u64>,
    /// Traced-run figures, read when the round ends.
    layer: BTreeMap<&'static str, f64>,
}

fn counter(svc: &Service, name: &str, labels: &[(&str, &str)]) -> u64 {
    svc.registry().map_or(0, |r| {
        r.counter(name, labels, "", MetricClass::Deterministic)
            .get()
    })
}

fn round(specs: &[Spec], tr: &mut Tracer) -> Round {
    let mut out = Round::default();
    let traced = tr.on();
    let start = Instant::now();
    let mut probe_ns = 0u64;
    let mut svc = Service::new(load_config(WORKERS));
    // Thread id → (tenant, spec index, when its request was made).
    let mut inflight: BTreeMap<u64, (usize, usize, Instant)> = BTreeMap::new();
    let mut next = 0;
    for tenant in 0..TENANTS {
        for _ in 0..IN_FLIGHT {
            let t = Instant::now();
            let id = submit(&mut svc, tr, tenant, &specs[next]);
            inflight.insert(id, (tenant, next, t));
            next += 1;
        }
    }
    let mut ticks = 0usize;
    while !inflight.is_empty() {
        tr.set_op(u64::MAX);
        let t0 = Instant::now();
        let rep = tr.span("serve.tick", |_| svc.tick());
        if next < specs.len() {
            out.steady_ticks_ns.push(t0.elapsed().as_nanos() as u64);
        }
        ticks += 1;
        if traced && ticks.is_multiple_of(SNAP_EVERY) {
            let p0 = Instant::now();
            if let Some(blob) = inflight.keys().find_map(|&id| svc.parked_blob(id)) {
                out.blob_bytes.push(blob.len() as u64);
                let snap = tr
                    .span("snap.decode", |_| Snapshot::decode(blob))
                    .expect("parked blobs decode");
                std::hint::black_box(tr.span("snap.encode", |_| snap.encode()));
            }
            probe_ns += p0.elapsed().as_nanos() as u64;
        }
        if rep.dispatched == 0 {
            // Every in-flight thread is answered after each tick, so an
            // empty tick means the service lost track of one.
            out.failed += inflight.len() as u64;
            break;
        }
        if rep.yielded > 0 {
            let awaiting = tr.span("serve.awaiting", |_| svc.awaiting());
            let seen = Instant::now();
            for (id, code) in awaiting {
                let entry = inflight
                    .get_mut(&id)
                    .expect("a yield of an in-flight thread");
                out.latency_ms.push((seen - entry.2).as_secs_f64() * 1e3);
                out.responses += 1;
                entry.2 = Instant::now();
                tr.set_op(id);
                tr.span("serve.resume", |_| {
                    svc.resume(id, u64::from(dispatcher_fill(code)))
                })
                .expect("an awaiting thread resumes");
            }
        }
        if rep.completed > 0 {
            let ids: Vec<u64> = inflight.keys().copied().collect();
            for id in ids {
                tr.set_op(id);
                let view = tr
                    .span("serve.poll", |_| svc.poll(id))
                    .expect("an in-flight thread exists");
                let ThreadState::Done { outcome } = &view.state else {
                    continue;
                };
                let (tenant, k, since) = inflight.remove(&id).expect("in flight");
                out.latency_ms.push(since.elapsed().as_secs_f64() * 1e3);
                out.responses += 1;
                let s = &specs[k];
                let (value, codes) = model(s.shape, s.args);
                if *outcome != format!("halt [{value}]") || view.yields != codes {
                    out.failed += 1;
                }
                if next < specs.len() {
                    let t = Instant::now();
                    let id = submit(&mut svc, tr, tenant, &specs[next]);
                    inflight.insert(id, (tenant, next, t));
                    next += 1;
                }
            }
        }
    }
    out.ns = (start.elapsed().as_nanos() as u64).saturating_sub(probe_ns);
    let st = svc.stats();
    out.instructions = st.instructions;
    if traced {
        let m = &mut out.layer;
        let responses = out.responses.max(1) as f64;
        m.insert("serve.slices_per_response", st.slices as f64 / responses);
        m.insert(
            "serve.queue_wait_vns_p50",
            svc.latency_quantiles().0 .0 as f64,
        );
        let retained = (0..st.submitted)
            .filter(|&id| svc.poll(id).is_some())
            .count();
        m.insert("serve.threads_retained", retained as f64);
        m.insert("serve.events_retained", svc.events().len() as f64);
        m.insert(
            "serve.slices_sem_resolved",
            counter(
                &svc,
                "cmm_serve_slices_total",
                &[("engine", "sem-resolved")],
            ) as f64,
        );
        let (mut hits, mut misses) = (0, 0);
        for shard in 0..cmm_pool::SHARDS {
            let label = shard.to_string();
            let l = [("shard", label.as_str())];
            hits += counter(&svc, "cmm_cache_hits_total", &l);
            misses += counter(&svc, "cmm_cache_misses_total", &l);
        }
        m.insert("pool.cache_hits", hits as f64);
        m.insert("pool.cache_lookups", (hits + misses) as f64);
        m.insert(
            "pool.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    out
}

/// The three distinct programs, compiled as the service compiles them:
/// what `code_insts` counts and `sem.resolve_us` resolves.
fn programs(tr: &mut Tracer) -> Vec<pipeline::Compiled> {
    [Shape::Yield, Shape::Mix, Shape::Loop]
        .iter()
        .map(|s| pipeline::compile(tr, Source::Cmm(s.source())).expect("loadgen sources compile"))
        .collect()
}

fn median_ms(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    stats::median(&stats::sorted(v.iter().map(|&n| n as f64 / 1e6).collect()))
}

/// Runs the workload.
pub fn run(args: &Args, process_start: Instant) -> RunOutput {
    let mut tr = Tracer::new(false);
    let ((specs, compiled), setup_s) = timed_setup(process_start, || {
        let specs: Vec<Spec> = (0..LIFETIMES).map(|k| spec(args.seed, k)).collect();
        let compiled = programs(&mut tr);
        drop(Service::new(load_config(WORKERS)));
        (specs, compiled)
    });
    let code_insts: u64 = compiled.iter().map(|c| c.vp.code.len() as u64).sum();
    let budget = Budget::start(args);
    let (mut latency_ms, mut busy_ns) = (Vec::new(), 0u64);
    let (mut failed, mut sim_insts) = (0u64, 0u64);
    let mut round_results: Vec<(u64, u64)> = Vec::new();
    let mut overhead = Overhead::default();
    let (mut early, mut late, mut blob_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut layer = BTreeMap::new();
    let mut n = 0u64;
    loop {
        let traced = args.trace && n % 2 == 1;
        tr.set_on(traced);
        if traced {
            tr.set_op(u64::MAX);
            for c in &compiled {
                std::hint::black_box(
                    tr.span("sem.resolve", |_| cmm_sem::ResolvedProgram::new(&c.prog)),
                );
            }
        }
        let r = round(&specs, &mut tr);
        if traced {
            let tenth = (r.steady_ticks_ns.len() / 10).max(1);
            early.extend_from_slice(&r.steady_ticks_ns[..tenth]);
            late.extend_from_slice(&r.steady_ticks_ns[r.steady_ticks_ns.len() - tenth..]);
            blob_bytes.extend_from_slice(&r.blob_bytes);
            layer = r.layer;
        }
        overhead.add(traced, r.ns, r.responses);
        busy_ns += r.ns;
        failed += r.failed;
        sim_insts += r.instructions;
        round_results.push((r.responses, r.instructions));
        latency_ms.extend(r.latency_ms);
        n += 1;
        if budget.spent(latency_ms.len(), n) {
            break;
        }
    }
    // The schedule is deterministic: every round serves the same
    // responses and retires the same instructions.
    let correct = round_results.windows(2).all(|p| p[0] == p[1]);
    let attempted = latency_ms.len() as u64;
    let metrics = if args.trace {
        let t = traced_totals(&tr, &args.workload);
        let mut m = layer;
        let per_call = |name: &str| trace::per_call_ns(&t, name);
        m.insert("serve.tick_ms", per_call("serve.tick") / 1e6);
        m.insert("serve.tick_ms_early", median_ms(&early));
        m.insert("serve.tick_ms_late", median_ms(&late));
        m.insert("serve.submit_us", per_call("serve.submit") / 1e3);
        m.insert("serve.resume_us", per_call("serve.resume") / 1e3);
        m.insert("serve.awaiting_ms", per_call("serve.awaiting") / 1e6);
        m.insert("snap.decode_us", per_call("snap.decode") / 1e3);
        m.insert("snap.encode_us", per_call("snap.encode") / 1e3);
        m.insert("sem.resolve_us", per_call("sem.resolve") / 1e3);
        let bytes: u64 = blob_bytes.iter().sum();
        m.insert(
            "snap.blob_bytes",
            bytes as f64 / blob_bytes.len().max(1) as f64,
        );
        let serve_ns: u64 = t
            .iter()
            .filter(|(k, _)| k.starts_with("serve."))
            .map(|(_, l)| l.self_ns)
            .sum();
        overhead.metrics(serve_ns, &mut m);
        per_layer(&m)
    } else {
        EndToEnd {
            op_ms: latency_ms,
            busy_s: busy_ns as f64 / 1e9,
            setup_s,
            code_insts,
            sim_insts,
        }
        .metrics()
    };
    RunOutput {
        correct,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_difftest::{Limits, Obs, Outcome};

    /// The model agrees with a direct run of each source on the
    /// reference semantics under the same dispatcher policy.
    #[test]
    fn model_matches_the_reference_semantics() {
        let cases = [
            (Shape::Yield, (0, 8)),
            (Shape::Yield, (6, 12)),
            (Shape::Yield, (3, 1)),
            (Shape::Mix, (0, 6)),
            (Shape::Mix, (10, 6)),
            (Shape::Mix, (4, 2)),
            (Shape::Loop, (3_000, 0)),
            (Shape::Loop, (6_000, 12)),
            (Shape::Loop, (0, 9)),
        ];
        let limits = Limits::default();
        for (shape, args) in cases {
            let prog = pipeline::reference_program(shape.source()).expect("builds");
            let (obs, detail) = cmm_difftest::observe_sem(&prog, args, &limits);
            let (value, yields) = model(shape, args);
            let want = Obs {
                outcome: Outcome::Halt(vec![u64::from(value)]),
                yields,
            };
            assert_eq!(obs, want, "{shape:?} {args:?} {detail}");
        }
    }

    #[test]
    fn specs_are_seeded_and_cover_every_shape_and_tier() {
        let a: Vec<_> = (0..40).map(|k| spec(9, k)).collect();
        let b: Vec<_> = (0..40).map(|k| spec(9, k)).collect();
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.args == y.args && x.shape == y.shape));
        for shape in [Shape::Yield, Shape::Mix, Shape::Loop] {
            assert!(a.iter().any(|s| s.shape == shape));
        }
        for e in EngineId::ALL {
            assert!(a.iter().any(|s| s.engine == e));
        }
    }

    /// A small round serves every thread and every check passes; the
    /// service keeps every thread it was given.
    #[test]
    fn a_small_round_passes_its_checks() {
        let specs: Vec<Spec> = (0..150).map(|k| spec(5, k)).collect();
        let mut tr = Tracer::new(true);
        let r = round(&specs, &mut tr);
        assert_eq!(r.failed, 0);
        assert!(r.responses > specs.len() as u64);
        assert_eq!(r.layer["serve.threads_retained"], specs.len() as f64);
    }
}
