//! Bad inputs reach the caller as an `ExecError`, never as a panic or a
//! wrong answer: one row per kind of bad input, each driven through the
//! public `Runner` on both engines at one and two wavefront workers,
//! under `catch_unwind` so a panic fails the row instead of the binary.

use std::panic::{catch_unwind, AssertUnwindSafe};

use instencil::ir::parse::parse_module;
use instencil::prelude::*;

/// The lowered 5-point Gauss-Seidel sweep as IR text.
fn lowered_gs5() -> String {
    let opts = PipelineOptions::new(vec![16, 16], vec![8, 8]).vectorize(Some(8));
    compile(&kernels::gauss_seidel_5pt_module(), &opts)
        .expect("gs5 compiles")
        .module
        .to_string()
}

/// `text` without the first line that contains `needle`.
fn delete_first_line(text: &str, needle: &str) -> String {
    let at = text.lines().position(|l| l.contains(needle)).expect("line to delete");
    text.lines()
        .enumerate()
        .filter(|&(i, _)| i != at)
        .map(|(_, l)| format!("{l}\n"))
        .collect()
}

/// A module whose region lost its terminator parses, fails the
/// verifier, and is refused by `Runner` on either engine with an
/// `ExecError` naming the verifier — before any sweep could run it.
#[test]
fn unverifiable_modules_are_runner_errors_not_panics() {
    let text = lowered_gs5();
    for terminator in ["\"scf.yield\"", "\"func.return\""] {
        let mutant = delete_first_line(&text, terminator);
        let module = parse_module(&mutant).expect("the mutant still parses");
        assert!(module.verify().is_err(), "{terminator}: the verifier rejects it");
        for engine in [Engine::Interp, Engine::Bytecode] {
            for threads in [1usize, 2] {
                let row = format!("{terminator} deleted, {engine:?} at {threads} thread(s)");
                let bound = catch_unwind(AssertUnwindSafe(|| {
                    Runner::with_opts(&module, engine, threads, Scheduler::Levels, Obs::off())
                        .map(drop)
                }));
                let err = bound
                    .unwrap_or_else(|_| panic!("{row}: Runner panicked"))
                    .expect_err(&row);
                assert!(err.message.contains("verification failed"), "{row}: {err}");
            }
        }
    }
}
