//! The compile pipeline, stage by stage, in the order the pool's
//! `PipelineCache` builds the stages, with a span around each
//! layer's public entry; and the check runs on the fused tier.

use crate::trace::Tracer;
use cmm_difftest::{Obs, Outcome};
use cmm_frontend::dispatch::{dispatch_vm, Dispatch};
use cmm_frontend::{M3Error, Strategy};
use cmm_obs::{NopSink, TraceSink};
use cmm_opt::OptOptions;
use cmm_vm::{DecodedCode, FusedCode, VmProgram, VmStatus, VmThread};
use std::sync::Arc;

/// A program's source text.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    /// MiniM3, lowered with one exception strategy.
    MiniM3(&'a str, Strategy),
    /// C--.
    Cmm(&'a str),
}

/// A source compiled to the fused stream.
pub struct Compiled {
    /// The optimized flow graph.
    pub prog: cmm_cfg::Program,
    /// The code generator's output.
    pub vp: VmProgram,
    /// The fused superinstruction stream.
    pub fused: Arc<FusedCode>,
    /// Flow-graph nodes before optimization (counted only when tracing).
    pub cfg_nodes: usize,
    /// Flow-graph nodes after optimization (counted only when tracing).
    pub nodes_out: usize,
    /// Optimizer pass-loop iterations.
    pub iterations: usize,
}

fn nodes(p: &cmm_cfg::Program) -> usize {
    p.procs.values().map(|g| g.nodes.len()).sum()
}

/// Compiles `src` from text to the fused stream.
///
/// # Errors
///
/// Any stage's error, as text.
pub fn compile(tr: &mut Tracer, src: Source<'_>) -> Result<Compiled, String> {
    let module = match src {
        Source::MiniM3(text, strategy) => tr
            .span("frontend.lower", |_| {
                cmm_frontend::compile_minim3(text, strategy)
            })
            .map_err(|e| e.to_string())?,
        Source::Cmm(text) => tr.span("parse.parse", |_| {
            let m = cmm_parse::parse_module(text).map_err(|e| e.to_string())?;
            let errors = cmm_ir::verify_module(&m);
            if errors.is_empty() {
                Ok(m)
            } else {
                Err(format!("verifier: {}", errors.join("; ")))
            }
        })?,
    };
    let mut prog = tr
        .span("cfg.build", |_| cmm_cfg::build_program(&module))
        .map_err(|e| e.to_string())?;
    let counting = tr.on();
    let cfg_nodes = if counting { nodes(&prog) } else { 0 };
    let stats = tr.span("opt.optimize", |_| {
        cmm_opt::optimize_program(&mut prog, &OptOptions::default())
    });
    let nodes_out = if counting { nodes(&prog) } else { 0 };
    let vp = tr
        .span("vm.codegen", |_| cmm_vm::compile(&prog))
        .map_err(|e| e.to_string())?;
    let decoded = tr.span("vm.decode", |_| Arc::new(DecodedCode::decode(&vp)));
    let fused = tr.span("vm.fuse", |_| Arc::new(FusedCode::fuse(&vp, decoded)));
    Ok(Compiled {
        prog,
        vp,
        fused,
        cfg_nodes,
        nodes_out,
        iterations: stats.iterations,
    })
}

/// Fuel for one MiniM3 run, as `cmm_frontend::run_vm_thread` grants.
const M3_FUEL: u64 = 500_000_000;

/// A thread over the compiled fused stream.
pub fn fused_thread<S: TraceSink>(c: &Compiled, sink: S) -> VmThread<'_, S> {
    VmThread::with_sink_shared_fused(&c.vp, c.fused.clone(), sink)
}

/// Runs a compiled MiniM3 program to halt on the fused tier with the
/// Figure 9 dispatcher in the loop, returning `main`'s value and the
/// cost-model instructions retired (generated plus run-time system).
///
/// Untraced, this is `cmm_frontend::run_vm_thread`. Traced, the
/// same loop is spelled out so that thread start, the step loop and the
/// dispatcher each get a span; a test keeps the two paths equal.
///
/// # Errors
///
/// As `run_vm_thread`.
pub fn run_m3(
    tr: &mut Tracer,
    c: &Compiled,
    strategy: Strategy,
    args: &[u32],
) -> Result<(u32, u64), M3Error> {
    if !tr.on() {
        let mut t = fused_thread(c, NopSink);
        return cmm_frontend::run_vm_thread(&mut t, &c.vp.image, strategy, args)
            .map(|(v, cost)| (v, cost.total()));
    }
    let vargs: Vec<u64> = args.iter().map(|&a| u64::from(a)).collect();
    let mut t = tr.span("vm.start", |_| {
        let mut t = fused_thread(c, NopSink);
        t.start(cmm_frontend::lower::ENTRY, &vargs, 2);
        t
    });
    let uncaught = |tag: u64| M3Error::Uncaught {
        exception: exception_name(&c.vp.image, tag),
    };
    loop {
        match tr.span("vm.run", |_| t.run(M3_FUEL)) {
            VmStatus::Halted(vals) => {
                let status = vals.first().copied().unwrap_or(0);
                let value = vals.get(1).copied().unwrap_or(0) as u32;
                if status == 0 {
                    return Ok((value, t.machine.cost.total()));
                }
                return Err(uncaught(u64::from(value)));
            }
            VmStatus::Suspended => {
                let code = t.machine.yield_args(1)[0];
                if code == cmm_frontend::M3_EXCEPTION && matches!(strategy, Strategy::RuntimeUnwind)
                {
                    match tr
                        .span("rt.dispatch", |_| dispatch_vm(&mut t))
                        .map_err(M3Error::Fault)?
                    {
                        Dispatch::Handled => continue,
                        Dispatch::Unhandled { tag } => return Err(uncaught(tag)),
                    }
                }
                return Err(M3Error::Fault(format!("unexpected yield (code {code})")));
            }
            VmStatus::Error(e) => return Err(M3Error::Fault(e)),
            VmStatus::OutOfFuel => return Err(M3Error::OutOfFuel),
            other => return Err(M3Error::Fault(format!("unexpected status {other:?}"))),
        }
    }
}

/// An exception's source name, from the `exn$NAME` block its tag
/// addresses.
fn exception_name(image: &cmm_cfg::DataImage, tag: u64) -> String {
    image
        .symbols
        .iter()
        .find(|(n, &a)| a == tag && n.as_str().starts_with("exn$"))
        .map(|(n, _)| n.as_str()["exn$".len()..].to_string())
        .unwrap_or_else(|| format!("<tag {tag:#x}>"))
}

/// The unoptimized flow graph of a C-- source: the program the
/// reference semantics runs.
///
/// # Errors
///
/// A parse or translation error, as text.
pub fn reference_program(text: &str) -> Result<cmm_cfg::Program, String> {
    let m = cmm_parse::parse_module(text).map_err(|e| e.to_string())?;
    cmm_cfg::build_program(&m).map_err(|e| e.to_string())
}

/// Runs `f(args)` on the fused stream under the fixed dispatcher
/// policy that `cmm_difftest::observe_vm_fused` documents, returning
/// the observation and the cost-model instructions retired. Running the
/// compiled operation's own stream is what checks its output; the
/// policy is pinned to the difftest oracle's by a test.
pub fn observe_fused(c: &Compiled, args: (u32, u32), limits: &cmm_difftest::Limits) -> (Obs, u64) {
    let mut t = fused_thread(c, NopSink);
    let mut yields = Vec::new();
    t.start("f", &[u64::from(args.0), u64::from(args.1)], 1);
    let outcome = loop {
        match t.run(limits.vm_fuel) {
            VmStatus::Halted(vals) => break Outcome::Halt(vals),
            VmStatus::Error(_) => break Outcome::Wrong,
            VmStatus::OutOfFuel => break Outcome::Fuel,
            VmStatus::Suspended => {
                if yields.len() >= limits.max_yields {
                    break Outcome::Fuel;
                }
                let code = t.machine.yield_args(1)[0];
                yields.push(code);
                let Some(mut a) = t.first_activation() else {
                    break Outcome::RtsError;
                };
                let _ = t.next_activation(&mut a);
                if t.set_activation(&a).is_err() {
                    break Outcome::RtsError;
                }
                if code % 2 == 1 {
                    let _ = t.set_unwind_cont(0);
                }
                let v = u64::from(cmm_serve::dispatcher_fill(code));
                let mut n = 0;
                while let Some(p) = t.find_cont_param(n) {
                    *p = v;
                    n += 1;
                }
                if t.resume().is_err() {
                    break Outcome::RtsError;
                }
            }
            _ => break Outcome::RtsError,
        }
    };
    (Obs { outcome, yields }, t.machine.cost.total())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's policy run observes exactly what the difftest
    /// oracle does, on generated programs.
    #[test]
    fn fused_policy_matches_the_difftest_oracle() {
        let limits = cmm_difftest::Limits::default();
        for i in 0..40 {
            let case = cmm_difftest::case_for(11, i);
            let text = case.render();
            let c = compile(&mut Tracer::new(false), Source::Cmm(&text)).expect("compiles");
            let (mine, _) = observe_fused(&c, case.args, &limits);
            let (theirs, _) = cmm_difftest::observe_vm_fused(&c.vp, case.args, &limits);
            assert_eq!(mine, theirs, "case {i}");
        }
    }

    /// The traced MiniM3 loop returns what `run_vm_thread` returns,
    /// raising or not, caught or not.
    #[test]
    fn traced_run_matches_run_vm_thread() {
        use cmm_frontend::workloads as w;
        let deep = w::deep_raise(true);
        let uncaught = w::deep_raise(false);
        let runs: [(&str, &[u32]); 5] = [
            (w::RAISE_FREQUENCY, &[300, 7]),
            (w::RAISE_FREQUENCY, &[300, 1]),
            (w::NO_RAISE, &[200]),
            (&deep, &[500]),
            (&uncaught, &[40]),
        ];
        for strategy in Strategy::CORE {
            for (src, args) in runs {
                let c = compile(&mut Tracer::new(false), Source::MiniM3(src, strategy))
                    .expect("compiles");
                let plain = run_m3(&mut Tracer::new(false), &c, strategy, args);
                let mut tr = Tracer::new(true);
                let traced = run_m3(&mut tr, &c, strategy, args);
                assert_eq!(plain, traced, "{strategy} {args:?}");
                assert!(tr.spans().iter().any(|s| s.name == "vm.run"));
            }
        }
    }

    #[test]
    fn traced_compile_records_every_stage() {
        let mut tr = Tracer::new(true);
        let c = compile(
            &mut tr,
            Source::MiniM3(cmm_frontend::workloads::GAME, Strategy::Cutting),
        )
        .expect("compiles");
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "frontend.lower",
                "cfg.build",
                "opt.optimize",
                "vm.codegen",
                "vm.decode",
                "vm.fuse"
            ]
        );
        assert!(c.cfg_nodes > 0 && c.nodes_out > 0 && c.iterations > 0);
    }
}
