//! Pass infrastructure: module-level passes and a sequential pass manager.

use std::error::Error;
use std::fmt;

use crate::body::Func;
use crate::cse::cse;
use crate::dce::dce;
use crate::fold::fold;
use crate::module::Module;
use crate::uses::run_indexed;

/// Failure of a pass, with the pass name for diagnostics.
#[derive(Debug, Clone)]
pub struct PassError {
    /// Name of the failing pass.
    pub pass: String,
    /// Failure description.
    pub message: String,
}

impl PassError {
    /// Creates a pass error.
    pub fn new(pass: impl Into<String>, message: impl Into<String>) -> Self {
        PassError {
            pass: pass.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass `{}` failed: {}", self.pass, self.message)
    }
}

impl Error for PassError {}

impl From<crate::verify::VerifyError> for PassError {
    fn from(e: crate::verify::VerifyError) -> Self {
        PassError::new("verify", e.to_string())
    }
}

/// A transformation over a whole module.
pub trait Pass {
    /// Human-readable pass name (used in diagnostics and pipelines).
    fn name(&self) -> &str;

    /// Applies the transformation.
    ///
    /// # Errors
    /// Returns a [`PassError`] when the transformation cannot be applied.
    fn run(&self, module: &mut Module) -> Result<(), PassError>;
}

/// Runs a sequence of passes, optionally verifying after each.
///
/// # Example
/// ```
/// use instencil_ir::{Module, PassManager, Pass, PassError};
/// struct Nop;
/// impl Pass for Nop {
///     fn name(&self) -> &str { "nop" }
///     fn run(&self, _m: &mut Module) -> Result<(), PassError> { Ok(()) }
/// }
/// let mut pm = PassManager::new();
/// pm.add(Nop);
/// let mut m = Module::new("m");
/// pm.run(&mut m).unwrap();
/// ```
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
}

impl PassManager {
    /// Creates an empty pass manager with verification after each pass
    /// enabled.
    pub fn new() -> Self {
        PassManager {
            passes: Vec::new(),
            verify_each: true,
        }
    }

    /// Toggles verification after each pass.
    pub fn verify_each(&mut self, on: bool) -> &mut Self {
        self.verify_each = on;
        self
    }

    /// Appends a pass to the pipeline.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Names of the registered passes, in order.
    pub fn pipeline(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs all passes in order.
    ///
    /// # Errors
    /// Stops at the first pass (or verification) failure.
    pub fn run(&self, module: &mut Module) -> Result<(), PassError> {
        for pass in &self.passes {
            pass.run(module)?;
            if self.verify_each {
                module.verify().map_err(|e| {
                    PassError::new(pass.name(), format!("IR invalid after pass: {e}"))
                })?;
            }
        }
        Ok(())
    }
}

/// Canonicalizes one function: fold → CSE → DCE over a single use index
/// (see `DESIGN.md`, "The canonicalizer"), O(ops + uses). Returns the
/// number of rewrites; `0` means `func` already was canonical.
pub fn canonicalize_func(func: &mut Func) -> usize {
    run_indexed(func, &[fold, cse, dce])
}

/// Built-in pass: constant folding + canonicalization on every function.
#[derive(Debug, Default, Clone, Copy)]
pub struct CanonicalizePass;

impl Pass for CanonicalizePass {
    fn name(&self) -> &str {
        "canonicalize"
    }

    fn run(&self, module: &mut Module) -> Result<(), PassError> {
        for func in module.funcs_mut() {
            canonicalize_func(func);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::op::OpCode;
    use crate::types::Type;

    #[test]
    fn canonicalize_pass_runs() {
        let mut m = Module::new("m");
        let mut fb = FuncBuilder::new("f", vec![Type::F64], vec![Type::F64]);
        let x = fb.arg(0);
        let zero = fb.const_f64(0.0);
        let y = fb.addf(x, zero);
        fb.ret(vec![y]);
        m.push_func(fb.finish());
        let mut pm = PassManager::new();
        pm.add(CanonicalizePass);
        pm.run(&mut m).unwrap();
        let f = m.lookup("f").unwrap();
        assert!(f.body.find_first(&OpCode::AddF).is_none());
    }

    #[test]
    fn verify_each_catches_broken_pass() {
        struct Breaker;
        impl Pass for Breaker {
            fn name(&self) -> &str {
                "breaker"
            }
            fn run(&self, module: &mut Module) -> Result<(), PassError> {
                // Corrupt: drop the terminator of every function.
                for f in module.funcs_mut() {
                    let entry = f.body.entry_block();
                    if let Some(&last) = f.body.block(entry).ops.last() {
                        f.body.erase_op(last);
                    }
                }
                Ok(())
            }
        }
        let mut m = Module::new("m");
        let mut fb = FuncBuilder::new("f", vec![], vec![]);
        fb.ret(vec![]);
        m.push_func(fb.finish());
        let mut pm = PassManager::new();
        pm.add(Breaker);
        let e = pm.run(&mut m).unwrap_err();
        assert_eq!(e.pass, "breaker");
    }

    #[test]
    fn pipeline_names() {
        let mut pm = PassManager::new();
        pm.add(CanonicalizePass);
        assert_eq!(pm.pipeline(), vec!["canonicalize"]);
    }
}
