//! Sub-domain wavefront scheduling (§2.3 / §3.4): derive block
//! dependences from a stencil pattern, compute the Eq. (3) schedule, and
//! execute it with real threads through the wavefront pool.
//!
//! ```text
//! cargo run --example wavefronts
//! ```

use instencil::pattern::blockdeps::block_dependences;
use instencil::pattern::dataflow::ScheduleBundle;
use instencil::pattern::{presets, WavefrontSchedule};
use instencil::prelude::WavefrontPool;

fn main() {
    // The 9-point Gauss-Seidel: its (-1, +1) offset pins tiles to one
    // row, producing a skewed pipeline of row blocks.
    let pattern = presets::gauss_seidel_9pt();
    let tiles = [1usize, 8];
    let deps = block_dependences(&pattern, &tiles).expect("legal tiling");
    println!("pattern: full 3x3 window, L = {:?}", pattern.l_offsets());
    println!("tile {tiles:?} -> sub-domain dependences {deps:?}\n");

    let grid = [6usize, 8];
    let schedule = WavefrontSchedule::compute(&grid, &deps);
    println!(
        "grid {:?}: {} wavefront levels, peak parallelism {}",
        grid,
        schedule.num_levels(),
        schedule.max_parallelism()
    );
    // Render θ (the level of each block), inverted from the CSR.
    let mut theta = vec![0; grid[0] * grid[1]];
    for (level, blocks) in schedule.levels().enumerate() {
        for &b in blocks {
            theta[b as usize] = level;
        }
    }
    for row in theta.chunks(grid[1]) {
        print!("  ");
        for level in row {
            print!("{level:>4}");
        }
        println!();
    }

    // Compare with the unrestricted 5-point case: anti-diagonal fronts.
    let p5 = presets::gauss_seidel_5pt();
    let deps5 = block_dependences(&p5, &[8, 8]).unwrap();
    let s5 = WavefrontSchedule::compute(&grid, &deps5);
    println!(
        "\n5-point pattern at 8x8 tiles: {} levels, peak parallelism {}",
        s5.num_levels(),
        s5.max_parallelism()
    );

    // Execute with real threads, level by level: the pool drains the
    // level graph of the schedule bundle (one chunk per worker and
    // level, a join task as each barrier); each worker counts the blocks
    // it ran in private state, merged on the calling thread.
    let bundle = ScheduleBundle::new(&grid, &deps5);
    let mut executed = 0usize;
    let pool = WavefrontPool::new(4);
    pool.try_drain(
        &bundle,
        1,
        || 0usize,
        |count, _sweep, _block| {
            *count += 1;
            Ok::<(), std::convert::Infallible>(())
        },
        |count| executed += count,
    )
    .expect("infallible work cannot error");
    println!(
        "executed {} blocks on {} worker threads, level by level",
        executed,
        pool.threads()
    );
    assert_eq!(executed, grid[0] * grid[1]);
}
