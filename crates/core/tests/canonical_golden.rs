//! Golden canonical IR: the text of every benchmark configuration's
//! compiled module, pinned bit for bit.
//!
//! The hashes in [`GOLDEN`] were generated at the parent commit of the
//! linear-time canonicalizer rewrite (f2606fd, the quadratic
//! `replace_all_uses` / fixpoint-loop implementation) and the rewrite
//! passed them unmodified. Value ids are printed raw and canonicalization
//! allocates none, so equal text means the same surviving ops with the
//! same CSE representatives — hence the same bytecode tapes, plans and
//! steady-state behaviour. An edit to `instencil-ir`'s fold / CSE / DCE
//! must keep this table; an intended change to the *generated code*
//! (tiling, lowering, kernels) regenerates it from the failure message.
//! The `euler_lusgs/*` rows were regenerated that way when the face
//! iterators' guarded loop became three guard-free loops per face axis.
//!
//! Configurations: the kernels and geometry of
//! `benchmark/src/workloads.rs::profile` × {scalar, vf4, vf8} × fuse
//! on/off (the fused vf8 `euler_lusgs` row is also the production
//! `lusgs_euler` config), plus the production geometry of the other three
//! steady workloads.

use instencil_core::kernels;
use instencil_core::pipeline::{compile, PipelineOptions};
use instencil_ir::print::print_module;
use instencil_ir::Module;
use instencil_solvers::euler_codegen::{euler_lusgs_module, euler_lusgs_sweep_module};
use instencil_solvers::gauss_seidel::sor_optimal_omega;

/// `(config, FNV-1a-64 of print_module, live ops)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, usize)] = &[
    ("gs5/nofuse/scalar", 0xe0bf8f800eaae5fb, 65),
    ("gs5/nofuse/vf4", 0xe01515e24d024fe6, 113),
    ("gs5/nofuse/vf8", 0xaa324c366410d5d0, 144),
    ("gs5/fuse/scalar", 0xe0bf8f800eaae5fb, 65),
    ("gs5/fuse/vf4", 0xe01515e24d024fe6, 113),
    ("gs5/fuse/vf8", 0xaa324c366410d5d0, 144),
    ("gs9/nofuse/scalar", 0x74053fe2a115da74, 70),
    ("gs9/nofuse/vf4", 0x3d064ab88ee194e2, 141),
    ("gs9/nofuse/vf8", 0xaa8c93f9371e1950, 193),
    ("gs9/fuse/scalar", 0x74053fe2a115da74, 70),
    ("gs9/fuse/vf4", 0x3d064ab88ee194e2, 141),
    ("gs9/fuse/vf8", 0xaa8c93f9371e1950, 193),
    ("gs9o2/nofuse/scalar", 0xaa4d2204459c6198, 79),
    ("gs9o2/nofuse/vf4", 0xc483f217bf99df93, 147),
    ("gs9o2/nofuse/vf8", 0x4ad9a93dddf316ba, 190),
    ("gs9o2/fuse/scalar", 0xaa4d2204459c6198, 79),
    ("gs9o2/fuse/vf4", 0xc483f217bf99df93, 147),
    ("gs9o2/fuse/vf8", 0x4ad9a93dddf316ba, 190),
    ("heat3d/nofuse/scalar", 0xd221266e5532ea78, 260),
    ("heat3d/nofuse/vf4", 0x0b7a99df9b1a04c8, 353),
    ("heat3d/nofuse/vf8", 0x2875efe7d7236643, 386),
    ("heat3d/fuse/scalar", 0x1488c786b4dd3054, 213),
    ("heat3d/fuse/vf4", 0xdd678c9219f3dec0, 306),
    ("heat3d/fuse/vf8", 0xf1ab605eb4f6888c, 339),
    ("sor/nofuse/scalar", 0x4df6907d313e0071, 70),
    ("sor/nofuse/vf4", 0x47222f6b95e647d4, 124),
    ("sor/nofuse/vf8", 0x6f8b386071546992, 155),
    ("sor/fuse/scalar", 0x4df6907d313e0071, 70),
    ("sor/fuse/vf4", 0x47222f6b95e647d4, 124),
    ("sor/fuse/vf8", 0x6f8b386071546992, 155),
    ("jacobi5/nofuse/scalar", 0x24db7ad3ea78a119, 65),
    ("jacobi5/nofuse/vf4", 0x31148c3ec98847bd, 104),
    ("jacobi5/nofuse/vf8", 0x4bfc1a88994ca005, 123),
    ("jacobi5/fuse/scalar", 0x24db7ad3ea78a119, 65),
    ("jacobi5/fuse/vf4", 0x31148c3ec98847bd, 104),
    ("jacobi5/fuse/vf8", 0x4bfc1a88994ca005, 123),
    ("euler_lusgs/nofuse/scalar", 0xe333a4ce8825dcb2, 2163),
    ("euler_lusgs/nofuse/vf4", 0xc1167fd3ab1f64b1, 3718),
    ("euler_lusgs/nofuse/vf8", 0xbdd4b79e0fe1fb49, 4796),
    ("euler_lusgs/fuse/scalar", 0x932b8517d4c066da, 2016),
    ("euler_lusgs/fuse/vf4", 0x898f40ebbe068e18, 3571),
    ("euler_lusgs/fuse/vf8", 0x0d3c4a5f8db7f141, 4649),
    ("euler_lusgs_sweep/nofuse/scalar", 0x90b4f70233edca08, 369),
    ("euler_lusgs_sweep/nofuse/vf4", 0x01b1fe3cbb49999a, 1100),
    ("euler_lusgs_sweep/nofuse/vf8", 0x47564f55f4e93ecb, 1619),
    ("euler_lusgs_sweep/fuse/scalar", 0x90b4f70233edca08, 369),
    ("euler_lusgs_sweep/fuse/vf4", 0x01b1fe3cbb49999a, 1100),
    ("euler_lusgs_sweep/fuse/vf8", 0x47564f55f4e93ecb, 1619),
    ("gs5_stream", 0x9edf5faae5e638f3, 146),
    ("heat3d_fused", 0xd4d1b0dde479cfea, 337),
    ("sor_solve_small", 0xfb8748eb5e4ea02e, 69),
];

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn live_ops(module: &Module) -> usize {
    let mut n = 0;
    for f in module.funcs() {
        f.body.walk(|_| n += 1);
    }
    n
}

/// The benchmark's kernels with their profile `(sub-domain, tile)`.
fn profile_kernels() -> Vec<(&'static str, Module, Vec<usize>, Vec<usize>)> {
    let sor = || kernels::sor_module(sor_optimal_omega(63));
    let flat = (vec![16, 32], vec![8, 32]);
    let euler = (vec![4, 4, 8], vec![2, 2, 8]);
    vec![
        (
            "gs5",
            kernels::gauss_seidel_5pt_module(),
            flat.0.clone(),
            flat.1.clone(),
        ),
        (
            "gs9",
            kernels::gauss_seidel_9pt_module(),
            vec![1, 32],
            vec![1, 32],
        ),
        (
            "gs9o2",
            kernels::gauss_seidel_9pt_order2_module(),
            flat.0.clone(),
            flat.1.clone(),
        ),
        (
            "heat3d",
            kernels::heat3d_module(),
            vec![4, 6, 16],
            vec![2, 3, 16],
        ),
        ("sor", sor(), flat.0.clone(), flat.1.clone()),
        ("jacobi5", kernels::jacobi_5pt_module(), flat.0, flat.1),
        (
            "euler_lusgs",
            euler_lusgs_module(0.05),
            euler.0.clone(),
            euler.1.clone(),
        ),
        (
            "euler_lusgs_sweep",
            euler_lusgs_sweep_module(0.05),
            euler.0,
            euler.1,
        ),
    ]
}

fn configs() -> Vec<(String, Module, PipelineOptions)> {
    let mut out = Vec::new();
    for (name, module, sub, tile) in profile_kernels() {
        for fuse in [false, true] {
            for vf in [None, Some(4), Some(8)] {
                let label = format!(
                    "{name}/{}/{}",
                    if fuse { "fuse" } else { "nofuse" },
                    vf.map_or("scalar".into(), |v| format!("vf{v}"))
                );
                let opts = PipelineOptions::new(sub.clone(), tile.clone())
                    .fuse(fuse)
                    .vectorize(vf);
                out.push((label, module.clone(), opts));
            }
        }
    }
    out.push((
        "gs5_stream".into(),
        kernels::gauss_seidel_5pt_module(),
        PipelineOptions::new(vec![128, 512], vec![64, 256]).vectorize(Some(8)),
    ));
    out.push((
        "heat3d_fused".into(),
        kernels::heat3d_module(),
        PipelineOptions::tr4(vec![8, 26, 64], vec![4, 26, 64]),
    ));
    out.push((
        "sor_solve_small".into(),
        kernels::sor_module(sor_optimal_omega(63)),
        PipelineOptions::tr2(vec![8, 8], vec![4, 4]),
    ));
    out
}

#[test]
fn canonical_ir_is_byte_identical_to_the_golden_table() {
    let actual: Vec<(String, u64, usize)> = configs()
        .into_iter()
        .map(|(label, module, opts)| {
            let c = compile(&module, &opts).unwrap_or_else(|e| panic!("{label}: {e}"));
            (
                label,
                fnv1a64(&print_module(&c.module)),
                live_ops(&c.module),
            )
        })
        .collect();
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((l, h, n), (gl, gh, gn))| l == gl && h == gh && n == gn);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(l, h, n)| format!("    ({l:?}, {h:#018x}, {n}),\n"))
            .collect();
        panic!("canonical IR differs from the golden table; actual rows:\n{table}");
    }
}
