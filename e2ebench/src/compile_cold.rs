//! `compile_cold`: one client compiling sources from text to the fused
//! stream, each operation a cold compile through every stage's public
//! entry.
//!
//! Inputs: the seven `cmm_frontend::workloads` programs under the four
//! exception strategies, each compiled `M3_PASSES` times a round, and
//! `CMM_PER_ROUND` generated C-- programs (`cmm_difftest::case_for`),
//! each compiled once a round. Each compiled program is checked
//! outside the timed operation: a MiniM3 program's results against the
//! workloads' reference functions and case tables, a C-- program's
//! fused-tier observation against the unoptimized program's observation
//! on the reference semantics (the Table 3 soundness property).

use crate::pipeline::{self, Compiled, Source};
use crate::rng::Rng;
use crate::trace::{self, Tracer};
use crate::{op_rounds, per_layer, timed_setup, traced_totals, Args, Done, EndToEnd, RunOutput};
use cmm_difftest::{Limits, Obs};
use cmm_frontend::{workloads as w, M3Error, Strategy};
use std::collections::BTreeMap;
use std::time::Instant;

/// Generated C-- programs per round. Their compile times vary about as
/// much as they average, so a round needs many of them for its mean and
/// its 99th percentile to be steady.
const CMM_PER_ROUND: u64 = 2_000;

/// The generator stream the C-- programs come from, the same for every
/// seed: case 698 of this stream is miscompiled by `cmm-opt`'s local
/// optimizer (the optimized program halts with 7, the unoptimized one
/// with 9), and a failure the seed could move in or out of a run would
/// make runs incomparable. So every run meets it once a round and counts
/// it as failed. The seed orders the programs and picks the MiniM3 check
/// arguments.
const CMM_STREAM: u64 = 104;

/// Times a round compiles each MiniM3 input, so that MiniM3 lowering
/// keeps a sizeable share of the round beside the C-- programs.
const M3_PASSES: usize = 16;

/// What a MiniM3 run must return.
#[derive(Clone, Debug, PartialEq)]
enum Expect {
    Value(u32),
    Uncaught(&'static str),
}

/// A MiniM3 program's check runs: arguments and expected outcome.
type Cases = Vec<(Vec<u32>, Expect)>;

enum Input {
    M3 {
        text: String,
        strategy: Strategy,
        cases: Cases,
    },
    Cmm {
        text: String,
        args: (u32, u32),
        /// The reference semantics' observation of the unoptimized
        /// program; `None` if it could not be built.
        reference: Option<Obs>,
    },
}

impl Input {
    fn source(&self) -> Source<'_> {
        match self {
            Input::M3 { text, strategy, .. } => Source::MiniM3(text, *strategy),
            Input::Cmm { text, .. } => Source::Cmm(text),
        }
    }
}

/// The MiniM3 programs with seeded check cases and their expected
/// results, computed by the reference functions.
fn m3_programs(seed: u64) -> Vec<(String, Cases)> {
    let mut r = Rng::new(seed, 1);
    let v = Expect::Value;
    let n = r.jitter(120, 3);
    let freq = [0, 5, 1]
        .map(|m| (vec![n, m], v(w::raise_frequency_expected(n, m))))
        .to_vec();
    let game = w::GAME_CASES.map(|(s, e)| (vec![s], v(e))).to_vec();
    let nested = w::NESTED_CASES.map(|(s, e)| (vec![s], v(e))).to_vec();
    let n = r.jitter(250, 3);
    let no_raise = vec![(vec![n], v(w::no_raise_expected(n)))];
    let locals = [r.range(0, 5), r.range(6, 40)]
        .map(|x| (vec![x], v(w::handler_uses_locals_expected(x))))
        .to_vec();
    let deep = vec![(vec![r.jitter(150, 3)], v(43))];
    let uncaught = vec![(vec![r.jitter(150, 3)], Expect::Uncaught("Deep"))];
    vec![
        (w::GAME.to_string(), game),
        (w::RAISE_FREQUENCY.to_string(), freq),
        (w::NO_RAISE.to_string(), no_raise),
        (w::NESTED.to_string(), nested),
        (w::HANDLER_USES_LOCALS.to_string(), locals),
        (w::deep_raise(true), deep),
        (w::deep_raise(false), uncaught),
    ]
}

fn inputs(seed: u64, limits: &Limits) -> Vec<Input> {
    let mut out = Vec::new();
    for (text, cases) in m3_programs(seed) {
        for strategy in Strategy::CORE {
            out.push(Input::M3 {
                text: text.clone(),
                strategy,
                cases: cases.clone(),
            });
        }
    }
    let mut cases: Vec<u64> = (0..CMM_PER_ROUND).collect();
    Rng::new(seed, 3).shuffle(&mut cases);
    for i in cases {
        let case = cmm_difftest::case_for(CMM_STREAM, i);
        let text = case.render();
        let reference = pipeline::reference_program(&text)
            .ok()
            .map(|p| cmm_difftest::observe_sem(&p, case.args, limits).0);
        out.push(Input::Cmm {
            text,
            args: case.args,
            reference,
        });
    }
    out
}

/// Checks a compiled input; returns whether it passed and the cost-model
/// instructions its check runs retired.
fn check(tr: &mut Tracer, input: &Input, c: &Compiled, limits: &Limits) -> (bool, u64) {
    match input {
        Input::M3 {
            strategy, cases, ..
        } => {
            let mut ok = true;
            let mut insts = 0;
            for (args, expect) in cases {
                let got = match pipeline::run_m3(tr, c, *strategy, args) {
                    Ok((value, cost)) => {
                        insts += cost;
                        Some(Expect::Value(value))
                    }
                    Err(M3Error::Uncaught { exception }) if exception == "Deep" => {
                        Some(Expect::Uncaught("Deep"))
                    }
                    Err(_) => None,
                };
                ok &= got.as_ref() == Some(expect);
            }
            (ok, insts)
        }
        Input::Cmm {
            args, reference, ..
        } => {
            let (obs, insts) = tr.span("vm.run", |_| pipeline::observe_fused(c, *args, limits));
            (reference.as_ref() == Some(&obs), insts)
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, process_start: Instant) -> RunOutput {
    let limits = Limits::default();
    let (inputs, setup_s) = timed_setup(process_start, || inputs(args.seed, &limits));
    // A round: every input once, then the MiniM3 inputs again.
    let m3 = 7 * Strategy::CORE.len();
    let order: Vec<usize> = (0..inputs.len())
        .chain((1..M3_PASSES).flat_map(|_| 0..m3))
        .collect();
    let mut tr = Tracer::new(false);
    let mut code = vec![0u64; inputs.len()];
    // Flow-graph nodes in, nodes out and pass iterations, traced rounds.
    let mut counts = [0usize; 3];
    let r = op_rounds(args, &mut tr, order.len(), |tr, i| {
        let input = &inputs[order[i]];
        let t0 = Instant::now();
        let compiled = tr.span("op", |tr| pipeline::compile(tr, input.source()));
        let ns = t0.elapsed().as_nanos() as u64;
        let Ok(c) = compiled else {
            return Done {
                ns,
                ok: false,
                insts: 0,
            };
        };
        code[order[i]] = c.vp.code.len() as u64;
        if tr.on() {
            counts[0] += c.cfg_nodes;
            counts[1] += c.nodes_out;
            counts[2] += c.iterations;
        }
        let (ok, insts) = tr.span("check", |tr| check(tr, input, &c, &limits));
        Done { ns, ok, insts }
    });
    let attempted = r.op_ms.len() as u64;
    let metrics = if args.trace {
        let t = traced_totals(&tr, &args.workload);
        let traced_ops = t.get("op").map_or(1, |l| l.ops.max(1)) as f64;
        let mut m = BTreeMap::new();
        for (metric, span) in [
            ("frontend.lower_ms", "frontend.lower"),
            ("parse.parse_ms", "parse.parse"),
            ("cfg.build_ms", "cfg.build"),
            ("opt.optimize_ms", "opt.optimize"),
            ("vm.codegen_ms", "vm.codegen"),
            ("vm.decode_ms", "vm.decode"),
            ("vm.fuse_ms", "vm.fuse"),
            ("vm.run_ms", "vm.run"),
            ("rt.dispatch_ms", "rt.dispatch"),
        ] {
            m.insert(metric, trace::per_op_ns(&t, span) / 1e6);
        }
        m.insert("vm.start_us", trace::per_op_ns(&t, "vm.start") / 1e3);
        m.insert("rt.dispatches", trace::calls_per_op(&t, "rt.dispatch"));
        m.insert("cfg.nodes", counts[0] as f64 / traced_ops);
        m.insert("opt.nodes_out", counts[1] as f64 / traced_ops);
        m.insert("opt.iterations", counts[2] as f64 / traced_ops);
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
            code_insts: code.iter().sum(),
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

    /// One seed always makes the same inputs; two seeds order the C--
    /// programs differently. Every MiniM3 input passes its check.
    #[test]
    fn inputs_are_seeded_and_minim3_checks_pass() {
        let limits = Limits::default();
        let text = |i: &Input| match i.source() {
            Source::MiniM3(t, _) | Source::Cmm(t) => t.to_string(),
        };
        let mut tr = Tracer::new(false);
        let a = inputs(1, &limits);
        let b = inputs(1, &limits);
        let c = inputs(2, &limits);
        assert_eq!(a.len(), 28 + CMM_PER_ROUND as usize);
        assert!(a.iter().zip(&b).all(|(x, y)| text(x) == text(y)));
        assert!(a.iter().zip(&c).skip(28).any(|(x, y)| text(x) != text(y)));
        for seed_inputs in [&a, &c] {
            let mut sims = 0;
            for x in seed_inputs.iter().take(28) {
                let compiled = pipeline::compile(&mut tr, x.source()).expect("compiles");
                let (ok, insts) = check(&mut tr, x, &compiled, &limits);
                assert!(ok, "MiniM3 check failed");
                sims += insts;
            }
            assert!(sims > 0);
        }
    }

    /// The C-- check agrees with the difftest oracles' own verdict,
    /// including on the case the local optimizer miscompiles.
    #[test]
    fn cmm_check_agrees_with_the_difftest_oracles() {
        let limits = Limits::default();
        let mut tr = Tracer::new(false);
        for i in (0..40).chain([698]) {
            let case = cmm_difftest::case_for(CMM_STREAM, i);
            let text = case.render();
            let reference = pipeline::reference_program(&text)
                .ok()
                .map(|p| cmm_difftest::observe_sem(&p, case.args, &limits).0);
            let input = Input::Cmm {
                text: text.clone(),
                args: case.args,
                reference,
            };
            let compiled = pipeline::compile(&mut tr, input.source()).expect("compiles");
            let (ok, _) = check(&mut tr, &input, &compiled, &limits);
            let oracles = cmm_difftest::run_source(&text, case.args, &limits).is_ok();
            assert_eq!(ok, oracles, "case {i}");
        }
    }
}
