//! Parallel wavefront execution is *bit-identical* to sequential
//! execution.
//!
//! The Eq. (3) schedule places mutually dependent sub-domains in
//! different levels, so within a level every sub-domain reads and writes
//! disjoint data: running a level's blocks on 1, 2, 4 or 8 OS threads
//! must produce the same `f64` bit patterns — and, because workers
//! accumulate private `ExecStats` frames that the coordinator merges
//! (levels counted once by the coordinator), the same statistics.
//!
//! Covered here for the two in-place solvers of the paper's evaluation:
//! SOR (2D, §4.2-style) and Euler LU-SGS (3D, §4.3 / Fig. 14), across
//! several grid/sub-domain shapes — including grids whose wavefront
//! levels hold fewer blocks than there are workers (every diagonal
//! schedule starts and ends with single-block levels, and the smallest
//! grid below has one block total).

use instencil::prelude::*;
use instencil::solvers::euler::NV;
use instencil::solvers::euler_codegen::euler_lusgs_module;
use instencil::solvers::lusgs::vortex_initial;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Three in-place sweeps of `sor` over `bufs` on `threads` wavefront
/// workers, drained as one batch through a [`Runner`].
fn sor_sweeps(module: &Module, bufs: &[BufferView], threads: usize) -> instencil::exec::ExecStats {
    let mut runner = Runner::new(module, Engine::default(), threads).unwrap();
    let args: Vec<RtVal> = bufs.iter().cloned().map(RtVal::Buf).collect();
    runner.call_sweeps("sor", args, 3).unwrap();
    runner.stats()
}

/// Deterministic non-trivial initial data.
fn seeded(shape: &[usize]) -> BufferView {
    let len: usize = shape.iter().product();
    let data: Vec<f64> = (0..len)
        .map(|i| ((i * 2_654_435_761) % 1_000) as f64 * 1e-3 - 0.5)
        .collect();
    BufferView::from_data(shape, data)
}

#[test]
fn sor_parallel_matches_sequential_bitwise() {
    // (grid size, sub-domain, tile, vector factor)
    type Case = (usize, Vec<usize>, Vec<usize>, Option<usize>);
    let cases: Vec<Case> = vec![
        // 21 interior / 8 → 3×3 block grid: levels of widths 1,2,3,2,1 —
        // most levels have fewer blocks than 4 or 8 workers.
        (23, vec![8, 8], vec![4, 4], None),
        // 15 interior / 4 → 4×4 block grid, vectorized pipeline.
        (17, vec![4, 4], vec![2, 2], Some(4)),
        // 7 interior / 8 → a single sub-domain: every level is one block,
        // always fewer than the worker count.
        (9, vec![8, 8], vec![4, 4], None),
        // Row sub-domains (the paper's gs9-style 1×k decomposition).
        (18, vec![1, 8], vec![1, 4], None),
    ];
    let module = kernels::sor_module(1.5);
    for (n, subdomain, tile, vf) in cases {
        let opts = PipelineOptions::new(subdomain.clone(), tile.clone()).vectorize(vf);
        let compiled = compile(&module, &opts).expect("sor compiles");
        let shape = [1, n, n];

        let u_seq = seeded(&shape);
        let b_seq = seeded(&shape);
        let stats_seq = sor_sweeps(&compiled.module, &[u_seq.clone(), b_seq], 1);
        assert!(
            stats_seq.wavefront_levels > 0,
            "n={n}: pipeline must lower to wavefronts"
        );
        let expect = u_seq.to_vec();

        for threads in THREAD_COUNTS {
            let u_par = seeded(&shape);
            let b_par = seeded(&shape);
            let stats_par = sor_sweeps(&compiled.module, &[u_par.clone(), b_par], threads);
            let got = u_par.to_vec();
            assert!(
                expect
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n} threads={threads}: parallel result differs from sequential"
            );
            assert_eq!(
                stats_seq, stats_par,
                "n={n} threads={threads}: merged stats must be thread-count-invariant"
            );
        }
    }
}

#[test]
fn lusgs_parallel_matches_sequential_bitwise() {
    let module = euler_lusgs_module(0.05);
    // Two decompositions of the 3D domain; the 4×4×4 one leaves a 2×2×2
    // block grid whose first and last levels are single blocks.
    let shapes: Vec<(usize, Vec<usize>, Vec<usize>)> = vec![
        (10, vec![4, 4, 4], vec![2, 2, 2]),
        (11, vec![4, 4, 8], vec![2, 2, 8]),
    ];
    for (n, subdomain, tile) in shapes {
        let opts = PipelineOptions::new(subdomain, tile);
        let compiled = compile(&module, &opts).expect("euler compiles");
        let shape = [NV, n, n, n];

        let run = |threads: usize| {
            let w0 = vortex_initial(n);
            let w = BufferView::from_data(&shape, w0.data().to_vec());
            let dw = BufferView::alloc(&shape);
            let b = BufferView::alloc(&shape);
            // Real workers: the engine, unlike a `Runner`, does not clamp
            // the count to the host.
            let mut engine = BytecodeEngine::compile_with_threads(&compiled.module, threads)
                .expect("euler compiles to bytecode");
            for _ in 0..2 {
                dw.fill(0.0);
                b.fill(0.0);
                engine
                    .call(
                        "euler_step",
                        vec![
                            RtVal::Buf(w.clone()),
                            RtVal::Buf(dw.clone()),
                            RtVal::Buf(b.clone()),
                        ],
                    )
                    .expect("euler step runs");
            }
            (w.to_vec(), engine.stats)
        };

        let (expect, stats_seq) = run(1);
        assert!(stats_seq.wavefront_levels > 0, "n={n}: wavefronts expected");
        for threads in THREAD_COUNTS {
            let (got, stats_par) = run(threads);
            assert!(
                expect
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n} threads={threads}: parallel LU-SGS differs from sequential"
            );
            assert_eq!(
                stats_seq, stats_par,
                "n={n} threads={threads}: merged stats must be thread-count-invariant"
            );
        }
    }
}
