//! The kernels the workloads run: how to build each one, which arrays it
//! takes, how its seeded inputs are drawn, and the hand-written solver
//! that serves as its correctness oracle and its native yardstick.

use instencil::core::kernels;
use instencil::core::pipeline::{reference_module, PipelineOptions};
use instencil::exec::buffer::BufferView;
use instencil::exec::{Interpreter, RtVal};
use instencil::ir::Module;
use instencil::pattern::{presets, StencilPattern};
use instencil::solvers::array::Field;
use instencil::solvers::euler::NV;
use instencil::solvers::euler_codegen::{
    euler_lusgs_module, euler_lusgs_sweep_module, lusgs_pattern,
};
use instencil::solvers::gauss_seidel::{
    gs5_sweep, gs9_order2_sweep, gs9_sweep, poisson_sor_sweep, sor_optimal_omega,
};
use instencil::solvers::heat3d::heat3d_step;
use instencil::solvers::jacobi::jacobi5_sweep;
use instencil::solvers::lusgs::{lusgs_step, vortex_initial, FluxKind};
use instencil_testkit::Rng;

/// Edge length of the `sor_solve_small` grid (63² interior points).
pub const SOR_N: usize = 65;
/// Pseudo time step of the LU-SGS kernels (that of `examples/euler_lusgs.rs`).
const EULER_DT: f64 = 0.05;

/// Optimal SOR relaxation factor of the `sor_solve_small` grid; every
/// `sor` kernel of the benchmark is built with it.
pub fn sor_omega() -> f64 {
    sor_optimal_omega(SOR_N - 2)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Gs5,
    Gs9,
    Gs9o2,
    Heat3d,
    Sor,
    Jacobi5,
    EulerLusgs,
    EulerLusgsSweep,
}

impl Kernel {
    pub const ALL: [Kernel; 8] = [
        Kernel::Gs5,
        Kernel::Gs9,
        Kernel::Gs9o2,
        Kernel::Heat3d,
        Kernel::Sor,
        Kernel::Jacobi5,
        Kernel::EulerLusgs,
        Kernel::EulerLusgsSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Gs5 => "gs5",
            Kernel::Gs9 => "gs9",
            Kernel::Gs9o2 => "gs9o2",
            Kernel::Heat3d => "heat3d",
            Kernel::Sor => "sor",
            Kernel::Jacobi5 => "jacobi5",
            Kernel::EulerLusgs => "euler_lusgs",
            Kernel::EulerLusgsSweep => "euler_lusgs_sweep",
        }
    }

    /// Builds the `cfd`-dialect module (the `ir` layer's work).
    pub fn module(self) -> Module {
        match self {
            Kernel::Gs5 => kernels::gauss_seidel_5pt_module(),
            Kernel::Gs9 => kernels::gauss_seidel_9pt_module(),
            Kernel::Gs9o2 => kernels::gauss_seidel_9pt_order2_module(),
            Kernel::Heat3d => kernels::heat3d_module(),
            Kernel::Sor => kernels::sor_module(sor_omega()),
            Kernel::Jacobi5 => kernels::jacobi_5pt_module(),
            Kernel::EulerLusgs => euler_lusgs_module(EULER_DT),
            Kernel::EulerLusgsSweep => euler_lusgs_sweep_module(EULER_DT),
        }
    }

    pub fn func(self) -> &'static str {
        match self {
            Kernel::Gs5 => "gs5",
            Kernel::Gs9 => "gs9",
            Kernel::Gs9o2 => "gs9o2",
            Kernel::Heat3d => "heat_step",
            Kernel::Sor => "sor",
            Kernel::Jacobi5 => "jacobi5",
            Kernel::EulerLusgs => "euler_step",
            Kernel::EulerLusgsSweep => "lusgs_sweep",
        }
    }

    /// The in-place stencil's pattern: what the autotuner and the
    /// wavefront schedule are derived from.
    pub fn pattern(self) -> StencilPattern {
        match self {
            Kernel::Gs5 | Kernel::Sor => presets::gauss_seidel_5pt(),
            Kernel::Gs9 => presets::gauss_seidel_9pt(),
            Kernel::Gs9o2 => presets::gauss_seidel_9pt_order2(),
            Kernel::Heat3d => presets::heat3d_gauss_seidel(),
            Kernel::Jacobi5 => presets::jacobi_5pt(),
            Kernel::EulerLusgs | Kernel::EulerLusgsSweep => lusgs_pattern(),
        }
    }

    fn n_buffers(self) -> usize {
        match self {
            Kernel::Gs5 | Kernel::Gs9 | Kernel::Gs9o2 | Kernel::Sor => 2,
            _ => 3,
        }
    }

    /// Leading (field) extent of every array.
    pub fn nb_var(self) -> usize {
        match self {
            Kernel::EulerLusgs | Kernel::EulerLusgsSweep => NV,
            _ => 1,
        }
    }

    /// Index of the array whose content is the kernel's result.
    pub fn out(self) -> usize {
        match self {
            Kernel::Jacobi5 => 2,
            _ => 0,
        }
    }

    /// What the caller owes the kernel before every call: `euler_step`
    /// wants ΔW and the residual accumulator zeroed.
    pub fn prepare(self, bufs: &[BufferView]) {
        if self == Kernel::EulerLusgs {
            bufs[1].fill(0.0);
            bufs[2].fill(0.0);
        }
    }

    /// Seeded input arrays for `shape` (`[nb_var, spatial…]`): uniform in
    /// [0.1, 1] (no denormals, no zeros), except where the kernel needs a
    /// physical state — the Euler kernels start from the smooth vortex,
    /// each value scaled by a seeded factor within ±0.1 %.
    pub fn inputs(self, shape: &[usize], rng: &mut Rng) -> Vec<Vec<f64>> {
        let len: usize = shape.iter().product();
        let mut vortex = || -> Vec<f64> {
            vortex_initial(shape[1])
                .data()
                .iter()
                .map(|v| v * rng.gen_range_f64(0.999, 1.001))
                .collect()
        };
        match self {
            Kernel::EulerLusgs => vec![vortex(), vec![0.0; len], vec![0.0; len]],
            Kernel::EulerLusgsSweep => {
                let w = vortex();
                vec![vec![0.0; len], rng.f64_vec(len, 0.001, 0.01), w]
            }
            _ => (0..self.n_buffers())
                .map(|_| rng.f64_vec(len, 0.1, 1.0))
                .collect(),
        }
    }
}

/// Interior points (cells) of `shape` for a pattern: the divisor of every
/// per-point number.
pub fn interior_points(pattern: &StencilPattern, shape: &[usize]) -> usize {
    shape[1..]
        .iter()
        .zip(pattern.radii())
        .map(|(&n, r)| n - 2 * r)
        .product()
}

/// One kernel in one compile configuration on one grid.
pub struct Case {
    pub name: String,
    pub kernel: Kernel,
    pub opts: PipelineOptions,
    /// `[nb_var, spatial…]` of every array.
    pub shape: Vec<usize>,
    /// Profile-scale shape of the same structure, for what would take
    /// too long at `shape` (the tree-walking interpreter).
    pub small: Vec<usize>,
    /// Calls after which the arrays return to the seeded inputs, outside
    /// the timed region (a physical state must not drift away).
    pub reset_every: Option<usize>,
    /// Leading calls of each pass that the native solver re-computes.
    pub checked_calls: usize,
}

impl Case {
    pub fn points(&self) -> usize {
        interior_points(&self.kernel.pattern(), &self.shape)
    }

    /// Bytes of all arrays of the case.
    pub fn array_bytes(&self) -> usize {
        self.kernel.n_buffers() * self.shape.iter().product::<usize>() * 8
    }
}

pub fn to_buffers(shape: &[usize], data: &[Vec<f64>]) -> Vec<BufferView> {
    data.iter()
        .map(|d| BufferView::from_data(shape, d.clone()))
        .collect()
}

pub fn args(bufs: &[BufferView]) -> Vec<RtVal> {
    bufs.iter().cloned().map(RtVal::Buf).collect()
}

/// The hand-written solver of a kernel, stepping its own copy of the
/// inputs. Never the engine under test: plain loops from `solvers`, or —
/// for the one kernel `solvers` has no loop for — the tree-walking
/// interpreter on the un-lowered reference module.
pub enum Native {
    Loops {
        kernel: Kernel,
        f: Vec<Field>,
    },
    Reference {
        kernel: Kernel,
        module: Module,
        bufs: Vec<BufferView>,
    },
}

impl Native {
    pub fn new(kernel: Kernel, shape: &[usize], data: &[Vec<f64>]) -> Native {
        if kernel == Kernel::EulerLusgsSweep {
            return Native::Reference {
                kernel,
                module: reference_module(&kernel.module()).expect("reference module bufferizes"),
                bufs: to_buffers(shape, data),
            };
        }
        let mut f: Vec<Field> = data
            .iter()
            .map(|d| Field::from_data(shape, d.clone()))
            .collect();
        if kernel == Kernel::Sor {
            // The generated kernel takes B = ω·h²·f/4; the loop takes f.
            let scale = 4.0 / sor_omega();
            f[1].data_mut().iter_mut().for_each(|v| *v *= scale);
        }
        Native::Loops { kernel, f }
    }

    /// One sweep (step). Returns the max-norm of the update where the
    /// loop reports one (SOR), 0 elsewhere.
    pub fn step(&mut self) -> f64 {
        match self {
            Native::Reference {
                kernel,
                module,
                bufs,
            } => {
                Interpreter::new()
                    .call(module, kernel.func(), args(bufs))
                    .expect("reference interpreter runs the reference module");
                0.0
            }
            Native::Loops { kernel, f } => {
                let (a, rest) = f.split_at_mut(1);
                match kernel {
                    Kernel::Gs5 => gs5_sweep(&mut a[0], &rest[0]),
                    Kernel::Gs9 => gs9_sweep(&mut a[0], &rest[0]),
                    Kernel::Gs9o2 => gs9_order2_sweep(&mut a[0], &rest[0]),
                    Kernel::Sor => return poisson_sor_sweep(&mut a[0], &rest[0], 1.0, sor_omega()),
                    Kernel::Jacobi5 => {
                        let (b, y) = rest.split_at_mut(1);
                        jacobi5_sweep(&a[0], &b[0], &mut y[0]);
                    }
                    Kernel::Heat3d => {
                        let (dt, rhs) = rest.split_at_mut(1);
                        heat3d_step(&mut a[0], &mut dt[0], &mut rhs[0]);
                    }
                    Kernel::EulerLusgs => {
                        let (dw, rhs) = rest.split_at_mut(1);
                        lusgs_step(
                            &mut a[0],
                            &mut dw[0],
                            &mut rhs[0],
                            EULER_DT,
                            FluxKind::Rusanov,
                        );
                    }
                    Kernel::EulerLusgsSweep => {
                        unreachable!("has no loop; uses the reference module")
                    }
                }
                0.0
            }
        }
    }

    /// The result array after the steps so far.
    pub fn out(&self) -> Vec<f64> {
        match self {
            Native::Loops { kernel, f } => f[kernel.out()].data().to_vec(),
            Native::Reference { kernel, bufs, .. } => bufs[kernel.out()].to_vec(),
        }
    }
}

/// Max-norm of `a − b`; infinite when either holds a non-finite value,
/// so that a NaN can never pass a tolerance.
pub fn max_abs_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |m, (x, y)| {
        let d = (x - y).abs();
        if d.is_finite() {
            m.max(d)
        } else {
            f64::INFINITY
        }
    })
}

pub fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_never_passes_a_tolerance() {
        assert_eq!(max_abs_err(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert_eq!(max_abs_err(&[1.0, f64::NAN], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(
            max_abs_err(&[f64::INFINITY], &[f64::INFINITY]),
            f64::INFINITY
        );
        assert!(!all_finite(&[0.0, f64::NAN]));
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_between_seeds() {
        for k in Kernel::ALL {
            let shape = [k.nb_var(), 6, 6, 6];
            let shape = if k.pattern().rank() == 2 {
                &shape[..3]
            } else {
                &shape[..]
            };
            let a = k.inputs(shape, &mut Rng::seed_from_u64(1));
            let b = k.inputs(shape, &mut Rng::seed_from_u64(1));
            let c = k.inputs(shape, &mut Rng::seed_from_u64(2));
            assert_eq!(a, b, "{}", k.name());
            assert_ne!(a, c, "{}", k.name());
        }
    }

    #[test]
    fn interior_points_subtract_the_halo() {
        assert_eq!(
            interior_points(&presets::gauss_seidel_5pt(), &[1, 2050, 2050]),
            2048 * 2048
        );
        assert_eq!(
            interior_points(&presets::gauss_seidel_9pt_order2(), &[1, 36, 68]),
            32 * 64
        );
        assert_eq!(
            interior_points(&lusgs_pattern(), &[5, 24, 24, 24]),
            22 * 22 * 22
        );
    }
}
