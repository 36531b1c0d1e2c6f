//! `execute_hot`: one client running already compiled MiniM3 programs
//! to halt on the fused tier, with the Figure 9 dispatcher in the loop.
//!
//! The programs (`RAISE_FREQUENCY`, `NO_RAISE` and `deep_raise`, each
//! under the four strategies) are compiled during set-up. A round runs
//! every program on seeded arguments: raise periods never, rare,
//! frequent and every iteration, and raise depths from about 200 to
//! about 20 000. Arguments are jittered around fixed centres, so each
//! seed makes different inputs with the same mix of work: Figure 2's
//! trade between normal-case overhead and raise cost.

use crate::pipeline::{self, Compiled, Source};
use crate::rng::Rng;
use crate::trace::{self, Tracer};
use crate::{op_rounds, per_layer, timed_setup, traced_totals, Args, Done, EndToEnd, RunOutput};
use cmm_frontend::{workloads as w, Strategy};
use cmm_obs::CountingSink;
use std::collections::BTreeMap;
use std::time::Instant;

/// Loop iterations of the raise-frequency and no-raise programs.
const ITERS: u32 = 4_000;

/// Raise periods: never, rare, frequent, every iteration.
const PERIODS: [u32; 4] = [0, 400, 8, 1];

/// Raise depths.
const DEPTHS: [u32; 3] = [200, 2_000, 20_000];

/// Percent by which a seed moves each argument.
const JITTER: u32 = 3;

/// One timed operation: a program, its arguments, the expected result.
struct Run {
    program: usize,
    args: Vec<u32>,
    expect: u32,
}

struct Program {
    strategy: Strategy,
    compiled: Compiled,
}

fn compile_all(tr: &mut Tracer) -> Vec<Program> {
    let deep = w::deep_raise(true);
    let mut out = Vec::new();
    for text in [w::RAISE_FREQUENCY, w::NO_RAISE, &deep] {
        for strategy in Strategy::CORE {
            let compiled = pipeline::compile(tr, Source::MiniM3(text, strategy))
                .expect("workload programs compile");
            out.push(Program { strategy, compiled });
        }
    }
    out
}

/// The round's operations, with expected results from the reference
/// functions; program indices follow [`compile_all`]'s order.
fn runs(seed: u64) -> Vec<Run> {
    let mut r = Rng::new(seed, 2);
    let mut out = Vec::new();
    for (s, _) in Strategy::CORE.iter().enumerate() {
        for period in PERIODS {
            let n = r.jitter(ITERS, JITTER);
            let m = r.jitter(period, JITTER);
            out.push(Run {
                program: s,
                args: vec![n, m],
                expect: w::raise_frequency_expected(n, m),
            });
        }
        let n = r.jitter(ITERS, JITTER);
        out.push(Run {
            program: 4 + s,
            args: vec![n],
            expect: w::no_raise_expected(n),
        });
        for depth in DEPTHS {
            out.push(Run {
                program: 8 + s,
                args: vec![r.jitter(depth, JITTER)],
                expect: 43,
            });
        }
    }
    // One operation raises on every iteration of a loop four times as
    // long, under run-time unwinding: the dearest raise cost, about a
    // thirtieth of the round, is where the 99th percentile falls. It
    // also makes the count odd, which puts the median inside one kind
    // of operation rather than on the boundary between two.
    let n = r.jitter(4 * ITERS, JITTER);
    out.push(Run {
        program: 0,
        args: vec![n, 1],
        expect: w::raise_frequency_expected(n, 1),
    });
    out
}

/// Table 1 operations of one run, counted by a `CountingSink` run.
fn table1_ops(p: &Program, args: &[u32]) -> u64 {
    let mut t = pipeline::fused_thread(&p.compiled, CountingSink::default());
    let _ = cmm_frontend::run_vm_thread(&mut t, &p.compiled.vp.image, p.strategy, args);
    t.machine.sink().counts.rts_ops
}

/// Runs the workload.
pub fn run(args: &Args, process_start: Instant) -> RunOutput {
    let mut tr = Tracer::new(args.trace);
    tr.set_op(u64::MAX);
    let ((programs, runs), setup_s) =
        timed_setup(process_start, || (compile_all(&mut tr), runs(args.seed)));
    let r = op_rounds(args, &mut tr, runs.len(), |tr, i| {
        let (run, p) = (&runs[i], &programs[runs[i].program]);
        let t0 = Instant::now();
        let out = tr.span("op", |tr| {
            pipeline::run_m3(tr, &p.compiled, p.strategy, &run.args)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        match out {
            Ok((value, insts)) => Done {
                ns,
                ok: value == run.expect,
                insts,
            },
            Err(_) => Done {
                ns,
                ok: false,
                insts: 0,
            },
        }
    });
    let attempted = r.op_ms.len() as u64;
    let metrics = if args.trace {
        let t = traced_totals(&tr, &args.workload);
        let mut m = BTreeMap::new();
        // Set-up compiles every program; those layers are per program
        // compiled, the execution layers per operation that entered them.
        for (metric, span) in [
            ("frontend.lower_ms", "frontend.lower"),
            ("cfg.build_ms", "cfg.build"),
            ("opt.optimize_ms", "opt.optimize"),
            ("vm.codegen_ms", "vm.codegen"),
            ("vm.decode_ms", "vm.decode"),
            ("vm.fuse_ms", "vm.fuse"),
        ] {
            m.insert(metric, trace::per_call_ns(&t, span) / 1e6);
        }
        m.insert("vm.run_ms", trace::per_op_ns(&t, "vm.run") / 1e6);
        m.insert("rt.dispatch_ms", trace::per_op_ns(&t, "rt.dispatch") / 1e6);
        m.insert("vm.start_us", trace::per_op_ns(&t, "vm.start") / 1e3);
        m.insert("rt.dispatches", trace::calls_per_op(&t, "rt.dispatch"));
        // Only run-time unwinding dispatches; count a round of those.
        let unwinding: Vec<&Run> = runs
            .iter()
            .filter(|run| matches!(programs[run.program].strategy, Strategy::RuntimeUnwind))
            .collect();
        let table1: u64 = unwinding
            .iter()
            .map(|run| table1_ops(&programs[run.program], &run.args))
            .sum();
        m.insert(
            "rt.table1_ops",
            table1 as f64 / unwinding.len().max(1) as f64,
        );
        let run_ns = t.get("vm.run").map_or(0, |l| l.self_ns);
        m.insert(
            "vm.ns_per_sim_inst",
            run_ns as f64 / r.traced_sims.max(1) as f64,
        );
        r.overhead
            .metrics(trace::layer_self_under(tr.spans(), "op"), &mut m);
        per_layer(&m)
    } else {
        EndToEnd {
            op_ms: r.op_ms,
            busy_s: r.busy_ns as f64 / 1e9,
            setup_s,
            code_insts: programs
                .iter()
                .map(|p| p.compiled.vp.code.len() as u64)
                .sum(),
            sim_insts: r.sim_insts,
        }
        .metrics()
    };
    RunOutput {
        correct: r.steady,
        attempted,
        failed: r.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_run_of_two_seeds_returns_its_reference_result() {
        let mut tr = Tracer::new(false);
        let programs = compile_all(&mut tr);
        for seed in [3, 4] {
            let rs = runs(seed);
            assert_eq!(rs.len() % 2, 1);
            let again = runs(seed);
            assert!(rs.iter().zip(&again).all(|(a, b)| a.args == b.args));
            for r in &rs {
                let p = &programs[r.program];
                let (v, _) =
                    pipeline::run_m3(&mut tr, &p.compiled, p.strategy, &r.args).expect("runs");
                assert_eq!(
                    v, r.expect,
                    "seed {seed} program {} {:?}",
                    r.program, r.args
                );
            }
        }
    }
}
