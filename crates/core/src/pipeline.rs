//! End-to-end compilation driver with the paper's ablation presets.
//!
//! A [`PipelineOptions`] value describes one point in the transformation
//! space of §4.2:
//!
//! | preset | parallel | tiling+fusion | vectorization |
//! |--------|----------|---------------|---------------|
//! | Tr1    | ✓        | per-op tiles  | —             |
//! | Tr2    | ✓        | ✓ fused       | —             |
//! | Tr3    | ✓        | per-op tiles  | ✓             |
//! | Tr4    | ✓        | ✓ fused       | ✓             |
//!
//! [`compile`] runs bufferize → tile/parallelize → lower → canonicalize
//! and returns the executable module together with lowering statistics.

use std::error::Error;
use std::fmt;

use instencil_ir::pass::CanonicalizePass;
use instencil_ir::{Module, Pass, PassError};
use instencil_obs::{Obs, ObsLevel};
pub use instencil_pattern::dataflow::Scheduler;

use crate::transforms::bufferize::bufferize_module;
use crate::transforms::lower::{lower_module, LowerOptions, LowerStats};
use crate::transforms::tile::{tile_module_traced, TileOptions};

/// Compilation failure (verification or transformation error).
#[derive(Debug, Clone)]
pub struct CompileError {
    /// The failing stage.
    pub stage: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compilation failed in {}: {}", self.stage, self.message)
    }
}

impl Error for CompileError {}

impl From<PassError> for CompileError {
    fn from(e: PassError) -> Self {
        CompileError {
            stage: e.pass.clone(),
            message: e.message,
        }
    }
}

/// Which execution engine runs the lowered module.
///
/// Both engines are bit-identical (results *and* `ExecStats` counters —
/// enforced by the `engine_equiv` differential tests), so this knob
/// trades debuggability against speed, never semantics:
///
/// * [`Engine::Bytecode`] (the default) compiles each function once into
///   flat register-machine tapes and is what wall-clock numbers should
///   be measured on;
/// * [`Engine::Interp`] re-walks the IR tree per executed op — the
///   reference semantics, and the only engine able to execute structured
///   `cfd` reference modules (drivers fall back to it automatically when
///   bytecode compilation reports an unsupported op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Tree-walking reference interpreter.
    Interp,
    /// Compiled bytecode tapes (default), with innermost-loop run
    /// specialization: straight-line stencil bodies execute a whole
    /// contiguous run of points per dispatch.
    #[default]
    Bytecode,
}

/// Options of the full pipeline (one point of the §4.2 ablation space).
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Sub-domain sizes (elements per spatial dimension) — the
    /// parallelism level (§2.3).
    pub subdomain: Vec<usize>,
    /// Cache-tile sizes — the locality level (§2.1).
    pub tile: Vec<usize>,
    /// Emit wavefront parallelism.
    pub parallel: bool,
    /// Fuse `B` producers into the stencil tiles (§2.2).
    pub fuse: bool,
    /// Vector factor for partial vectorization (§2.4), `None` = scalar.
    pub vectorize: Option<usize>,
    /// OS threads for wavefront execution (§3.4): each wavefront level of
    /// `scf.execute_wavefronts` is split across this many workers at run
    /// time. `1` = sequential; `0` = auto — the exec driver resolves it
    /// to `std::thread::available_parallelism()` when the `Runner` is
    /// built. Purely a runtime knob — the generated IR is identical for
    /// every value, and so are the computed results (sub-domains within
    /// a level are independent by Eq. (3)).
    pub threads: usize,
    /// How wavefront blocks synchronize at run time:
    /// [`Scheduler::Levels`] (barrier between wavefront levels) or
    /// [`Scheduler::Dataflow`] (point-to-point, each block fires when
    /// its own predecessors finish). Runtime knob; results are
    /// bit-identical either way.
    pub scheduler: Scheduler,
    /// Execution engine for the lowered module (runtime knob; the
    /// generated IR is identical either way).
    pub engine: Engine,
    /// Observability level: `Off` (default, free), `Summary`, or
    /// `Trace`. Governs the collector that [`compile`] threads through
    /// the passes and that the exec drivers continue at run time; the
    /// generated IR is identical for every value.
    pub obs: ObsLevel,
}

impl PipelineOptions {
    /// Base options: tiled, parallel, unfused, scalar.
    pub fn new(subdomain: Vec<usize>, tile: Vec<usize>) -> Self {
        PipelineOptions {
            subdomain,
            tile,
            parallel: true,
            fuse: false,
            vectorize: None,
            threads: 1,
            scheduler: Scheduler::default(),
            engine: Engine::default(),
            obs: ObsLevel::default(),
        }
    }

    /// Sets wavefront parallelism.
    #[must_use]
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Sets fusion-after-tiling.
    #[must_use]
    pub fn fuse(mut self, on: bool) -> Self {
        self.fuse = on;
        self
    }

    /// Sets the vector factor.
    #[must_use]
    pub fn vectorize(mut self, vf: Option<usize>) -> Self {
        self.vectorize = vf;
        self
    }

    /// Sets the wavefront worker count. `0` means auto: the exec driver
    /// resolves it via `std::thread::available_parallelism()`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the wavefront scheduler (levels-with-barriers vs dataflow).
    #[must_use]
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the execution engine.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the observability level.
    #[must_use]
    pub fn obs(mut self, obs: ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// §4.2 preset Tr1: sub-domain parallelism, per-op tiling, no fusion,
    /// no vectorization.
    pub fn tr1(subdomain: Vec<usize>, tile: Vec<usize>) -> Self {
        Self::new(subdomain, tile)
    }

    /// §4.2 preset Tr2: Tr1 + fusion.
    pub fn tr2(subdomain: Vec<usize>, tile: Vec<usize>) -> Self {
        Self::new(subdomain, tile).fuse(true)
    }

    /// §4.2 preset Tr3: Tr1 + vectorization (VF = 8).
    pub fn tr3(subdomain: Vec<usize>, tile: Vec<usize>) -> Self {
        Self::new(subdomain, tile).vectorize(Some(8))
    }

    /// §4.2 preset Tr4: everything (parallel + tiling&fusion + vector).
    pub fn tr4(subdomain: Vec<usize>, tile: Vec<usize>) -> Self {
        Self::new(subdomain, tile).fuse(true).vectorize(Some(8))
    }
}

/// A fully lowered module plus compilation statistics.
#[derive(Debug)]
pub struct CompiledModule {
    /// The executable (loop-level, memref-form) module.
    pub module: Module,
    /// Lowering statistics (vectorized vs scalar structured ops).
    pub stats: LowerStats,
    /// The options the module was compiled with.
    pub options: PipelineOptions,
    /// The observability collector the passes recorded into (the no-op
    /// handle at [`ObsLevel::Off`]). Hand it to the exec drivers to
    /// extend the same record with runtime metrics, then render it with
    /// [`instencil_obs::RunReport::build`].
    pub obs: Obs,
}

/// Runs the full pipeline on a tensor-level kernel module.
///
/// # Errors
/// Returns a [`CompileError`] when any stage rejects the input: tile or
/// sub-domain sizes of the wrong rank, zero or illegal (stage `tile`), a
/// vector factor below 2 (stage `lower`), malformed ops, post-pass
/// verification failures.
pub fn compile(module: &Module, opts: &PipelineOptions) -> Result<CompiledModule, CompileError> {
    compile_with_obs(module, opts, Obs::new(opts.obs))
}

/// [`compile`] recording into an existing collector (e.g. one shared
/// with an autotuning run). Each pass gets a `pass:*` span carrying the
/// module op count entering and leaving it; span guards close on every
/// error path, so a failed compilation still leaves balanced records.
///
/// # Errors
/// See [`compile`].
pub fn compile_with_obs(
    module: &Module,
    opts: &PipelineOptions,
    obs: Obs,
) -> Result<CompiledModule, CompileError> {
    let ops_in = module_ops(&obs, module);
    {
        let mut s = obs.span("pass:input-verify");
        s.note("ops_before", ops_in);
        s.note("ops_after", ops_in);
        module.verify().map_err(|e| CompileError {
            stage: "input-verify".into(),
            message: e.to_string(),
        })?;
    }
    let bufferized = {
        let mut s = obs.span("pass:bufferize");
        s.note("ops_before", ops_in);
        let bufferized = bufferize_module(module)?;
        s.note("ops_after", module_ops(&obs, &bufferized));
        bufferized
    };
    let tiled = {
        let mut s = obs.span("pass:tile");
        s.note("ops_before", module_ops(&obs, &bufferized));
        s.note("fuse", i64::from(opts.fuse));
        let tiled = tile_module_traced(
            &bufferized,
            &TileOptions {
                subdomain: opts.subdomain.clone(),
                tile: opts.tile.clone(),
                parallel: opts.parallel,
                fuse: opts.fuse,
            },
            &obs,
        )?;
        s.note("ops_after", module_ops(&obs, &tiled));
        tiled
    };
    let (mut lowered, stats) = {
        let mut s = obs.span("pass:lower");
        s.note("ops_before", module_ops(&obs, &tiled));
        let (lowered, stats) = lower_module(
            &tiled,
            &LowerOptions {
                vectorize: opts.vectorize,
            },
        )?;
        s.note("ops_after", module_ops(&obs, &lowered));
        s.note("vectorized_ops", stats.vectorized as i64);
        s.note("scalar_ops", stats.scalar as i64);
        (lowered, stats)
    };
    {
        let mut s = obs.span("pass:canonicalize");
        s.note("ops_before", module_ops(&obs, &lowered));
        CanonicalizePass.run(&mut lowered)?;
        s.note("ops_after", module_ops(&obs, &lowered));
    }
    {
        let ops = module_ops(&obs, &lowered);
        let mut s = obs.span("pass:final-verify");
        s.note("ops_before", ops);
        s.note("ops_after", ops);
        lowered.verify().map_err(|e| CompileError {
            stage: "final-verify".into(),
            message: e.to_string(),
        })?;
    }
    Ok(CompiledModule {
        module: lowered,
        stats,
        options: opts.clone(),
        obs,
    })
}

/// Reachable op count across all functions (the per-pass IR size
/// metric). Arena slots of erased ops do not count, so a pass that only
/// erases shows up as `ops_after < ops_before`. Not walked (0) when `obs`
/// is off and the span notes it feeds are discarded.
fn module_ops(obs: &Obs, module: &Module) -> i64 {
    if !obs.enabled() {
        return 0;
    }
    let mut ops = 0;
    for f in module.funcs() {
        f.body.walk(|_| ops += 1);
    }
    ops
}

/// Produces the *reference* executable form: bufferized only, with the
/// structured `cfd` ops left intact for direct interpretation (the
/// semantic oracle the lowered pipelines are tested against).
///
/// # Errors
/// Propagates bufferization failures.
pub fn reference_module(module: &Module) -> Result<Module, CompileError> {
    Ok(bufferize_module(module)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use instencil_ir::OpCode;

    #[test]
    fn tr_presets_differ_as_documented() {
        let t1 = PipelineOptions::tr1(vec![8, 8], vec![4, 4]);
        let t2 = PipelineOptions::tr2(vec![8, 8], vec![4, 4]);
        let t3 = PipelineOptions::tr3(vec![8, 8], vec![4, 4]);
        let t4 = PipelineOptions::tr4(vec![8, 8], vec![4, 4]);
        assert!(t1.parallel && !t1.fuse && t1.vectorize.is_none());
        assert!(t2.fuse && t2.vectorize.is_none());
        assert!(!t3.fuse && t3.vectorize == Some(8));
        assert!(t4.fuse && t4.vectorize == Some(8));
        // Presets default to sequential execution.
        assert_eq!(t4.threads, 1);
    }

    #[test]
    fn threads_knob_persists_and_zero_means_auto() {
        // 0 is stored as-is: it means "auto", resolved to
        // available_parallelism() by the exec driver, not here.
        let o = PipelineOptions::new(vec![8, 8], vec![4, 4]).threads(0);
        assert_eq!(o.threads, 0);
        let o = o.threads(4);
        assert_eq!(o.threads, 4);
        let c = compile(&kernels::gauss_seidel_5pt_module(), &o).unwrap();
        assert_eq!(c.options.threads, 4);
    }

    #[test]
    fn scheduler_knob_defaults_to_levels_and_persists() {
        let o = PipelineOptions::new(vec![8, 8], vec![4, 4]);
        assert_eq!(o.scheduler, Scheduler::Levels, "levels is the default");
        let o = o.scheduler(Scheduler::Dataflow);
        assert_eq!(o.scheduler, Scheduler::Dataflow);
        let c = compile(&kernels::gauss_seidel_5pt_module(), &o).unwrap();
        assert_eq!(c.options.scheduler, Scheduler::Dataflow);
    }

    #[test]
    fn engine_knob_defaults_to_bytecode_and_persists() {
        let o = PipelineOptions::new(vec![8, 8], vec![4, 4]);
        assert_eq!(o.engine, Engine::Bytecode, "bytecode is the default");
        let o = o.engine(Engine::Interp);
        assert_eq!(o.engine, Engine::Interp);
        let c = compile(&kernels::gauss_seidel_5pt_module(), &o).unwrap();
        assert_eq!(c.options.engine, Engine::Interp);
    }

    #[test]
    fn compile_all_kernels_all_presets() {
        let cases: Vec<(instencil_ir::Module, Vec<usize>, Vec<usize>)> = vec![
            (
                kernels::gauss_seidel_5pt_module(),
                vec![32, 32],
                vec![16, 16],
            ),
            (kernels::gauss_seidel_9pt_module(), vec![1, 64], vec![1, 32]),
            (
                kernels::gauss_seidel_9pt_order2_module(),
                vec![32, 32],
                vec![16, 16],
            ),
            (kernels::heat3d_module(), vec![8, 8, 16], vec![4, 4, 8]),
            (kernels::jacobi_5pt_module(), vec![32, 32], vec![16, 16]),
        ];
        for (m, sd, tile) in cases {
            for opts in [
                PipelineOptions::tr1(sd.clone(), tile.clone()),
                PipelineOptions::tr2(sd.clone(), tile.clone()),
                PipelineOptions::tr3(sd.clone(), tile.clone()),
                PipelineOptions::tr4(sd.clone(), tile.clone()),
            ] {
                let c = compile(&m, &opts).unwrap_or_else(|e| panic!("{}: {e}", m.name));
                assert!(c.module.verify().is_ok());
            }
        }
    }

    #[test]
    fn reference_keeps_structured_ops() {
        let r = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let f = r.lookup("gs5").unwrap();
        assert!(f.body.find_first(&OpCode::CfdStencil).is_some());
    }

    #[test]
    fn every_pass_is_spanned_with_op_count_deltas() {
        let obs = Obs::new(ObsLevel::Summary);
        let opts = PipelineOptions::new(vec![8, 8], vec![4, 4])
            .fuse(true)
            .vectorize(Some(4));
        compile_with_obs(&kernels::gauss_seidel_5pt_module(), &opts, obs.clone()).unwrap();
        let rec = obs.snapshot();
        let pass_names: Vec<&str> = rec
            .spans
            .iter()
            .filter_map(|s| s.name.strip_prefix("pass:"))
            .collect();
        assert_eq!(
            pass_names,
            vec![
                "input-verify",
                "bufferize",
                "tile",
                "lower",
                "canonicalize",
                "final-verify"
            ],
            "all six stages spanned in completion order"
        );
        let note = |name: &str, key: &str| {
            rec.spans
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.notes.iter().find(|(k, _)| k == key).map(|&(_, v)| v))
        };
        // Tiling expands the module, lowering expands it further.
        let tile_in = note("pass:tile", "ops_before").unwrap();
        let tile_out = note("pass:tile", "ops_after").unwrap();
        assert!(tile_out > tile_in, "{tile_out} <= {tile_in}");
        assert_eq!(note("pass:lower", "ops_before"), Some(tile_out));
        assert!(note("pass:lower", "ops_after").unwrap() > tile_out);
        assert_eq!(note("pass:tile", "fuse"), Some(1));
        // Counts are of reachable ops, so canonicalization (which only
        // erases) shrinks the module, to what the final verify sees.
        let canon_in = note("pass:canonicalize", "ops_before").unwrap();
        let canon_out = note("pass:canonicalize", "ops_after").unwrap();
        assert_eq!(Some(canon_in), note("pass:lower", "ops_after"));
        assert!(canon_out < canon_in, "{canon_out} >= {canon_in}");
        assert_eq!(note("pass:final-verify", "ops_before"), Some(canon_out));
        assert_eq!(note("pass:final-verify", "ops_after"), Some(canon_out));
        // Transform internals nest under the tile pass.
        let tile_id = rec.spans.iter().find(|s| s.name == "pass:tile").unwrap().id;
        let fusion = rec
            .spans
            .iter()
            .find(|s| s.name == "tile:fusion-analysis")
            .expect("tiler internals spanned");
        assert_eq!(fusion.parent, Some(tile_id));
    }

    #[test]
    fn failed_compilation_leaves_balanced_spans() {
        // An illegal tiling makes the tile pass fail while its span
        // guard is open; the guard must close on the error path so the
        // collector stays balanced and records the failed pass.
        let m = kernels::gauss_seidel_9pt_module();
        let obs = Obs::new(ObsLevel::Trace);
        let bad = PipelineOptions::new(vec![64, 64], vec![32, 32]); // 9p needs 1-pinned rows
        let err = compile_with_obs(&m, &bad, obs.clone());
        assert!(err.is_err());
        assert_eq!(obs.active_depth(), 0, "span guards closed on error");
        let rec = obs.snapshot();
        assert!(
            rec.spans.iter().any(|s| s.name == "pass:tile"),
            "the failing pass still records its span"
        );
        assert!(
            rec.spans.iter().all(|s| s.name != "pass:lower"),
            "passes after the failure never opened"
        );
    }

    #[test]
    fn off_compilation_records_nothing() {
        let opts = PipelineOptions::new(vec![8, 8], vec![4, 4]); // obs: Off
        let c = compile(&kernels::gauss_seidel_5pt_module(), &opts).unwrap();
        assert!(!c.obs.enabled());
        assert_eq!(c.obs.snapshot(), instencil_obs::Recorded::default());
    }

    #[test]
    fn bad_options_are_compile_errors_not_panics() {
        let new = |sub: &[usize], tile: &[usize]| PipelineOptions::new(sub.into(), tile.into());
        let (gs5, heat3d) = (kernels::gauss_seidel_5pt_module(), kernels::heat3d_module());
        let rows = [
            ("zero tile extent", &gs5, new(&[16, 16], &[0, 8]), "tile"),
            ("zero sub-domain extent", &gs5, new(&[16, 0], &[8, 8]), "tile"),
            ("rank-1 tile on 2-D", &gs5, new(&[16, 16], &[8]), "tile"),
            ("rank-1 sub-domain on 2-D", &gs5, new(&[16], &[8, 8]), "tile"),
            ("rank-3 tile on 2-D", &gs5, new(&[16, 16], &[8, 8, 8]), "tile"),
            ("rank-2 sub-domain on 3-D", &heat3d, new(&[8, 8], &[4, 4, 4]), "tile"),
            ("zero fused 3-D tile", &heat3d, new(&[8, 8, 8], &[4, 0, 4]).fuse(true), "tile"),
            ("vf 0", &gs5, new(&[16, 16], &[8, 8]).vectorize(Some(0)), "lower"),
            ("vf 1", &gs5, new(&[16, 16], &[8, 8]).vectorize(Some(1)), "lower"),
            (
                "vf 1, serial",
                &gs5,
                new(&[16, 16], &[8, 8]).parallel(false).vectorize(Some(1)),
                "lower",
            ),
        ];
        for (name, module, opts, stage) in rows {
            let outcome = std::panic::catch_unwind(|| compile(module, &opts));
            let err = outcome.unwrap_or_else(|_| panic!("{name}: compile panicked")).unwrap_err();
            assert_eq!(err.stage, stage, "{name}: {err}");
        }
    }

    #[test]
    fn illegal_tiles_surface_as_compile_error() {
        let m = kernels::gauss_seidel_9pt_module();
        let e = compile(&m, &PipelineOptions::tr1(vec![8, 8], vec![8, 8])).unwrap_err();
        assert_eq!(e.stage, "tile");
    }
}
