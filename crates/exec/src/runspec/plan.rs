//! Planning (each time a specialized loop executes): the probe tape has
//! resolved every access to `base + t·delta` flat-address form, and both
//! run endpoints have been bounds-checked through the checked
//! [`BufferView`] path (indices are affine in `t`, so the endpoints
//! bound every iteration). [`build_plan`] then classifies each
//! operation:
//! - a load is **streamable** when no store of the body can write a
//!   location the load would have observed differently under the
//!   original point-by-point order (exact arithmetic on the base/delta
//!   pairs; any imprecision falls back to *recurrent*);
//! - a float op is streamable when all its operands are;
//! - stores (and everything downstream of a loop-carried load, e.g. the
//!   Gauss-Seidel west neighbour) are **recurrent**.
//!
//! The streamed ops become a [`SOp`] stripe program, the recurrent ones
//! an [`ROp`] tape in body order, with store-to-load forwarding and
//! chain fusion applied. Each loop caches its two most recent plans,
//! keyed by run length, and re-validates the matching one per look-up,
//! so the steady case is a base patch, not a rebuild; inside a row nest
//! one look-up serves every row ([`advance_row`]).
//!
//! [`BufferView`]: crate::buffer::BufferView

use std::collections::{HashMap, HashSet};

use super::exec::{Addr, ChainLane, ChainLink, ROp, RRef, SOp, SSrc};
use super::{FRef, ProbeOp, RunOp, RunSpec, CHUNK};
use crate::buffer::TileView;
use instencil_obs::trace::{self, TraceKind};

/// One access *op* of one run execution, resolved to flat-address form.
/// A wide access is one plan: lane `l` of iteration `t` touches
/// `base + l·lane_stride + t·delta` (hazard analysis expands the lanes
/// arithmetically instead of materializing per-lane plans — resolution
/// runs once per run per op, so plan count is what the fallback-free
/// hot path pays for).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AccessPlan {
    /// Flat address of lane 0 at iteration 0.
    pub base: isize,
    /// Flat-address step per iteration.
    pub delta: isize,
    /// Flat stride between adjacent lanes (0 for scalar accesses).
    pub lane_stride: isize,
    /// Lane count (1 for scalar accesses).
    pub lanes: u16,
    /// Raw storage handle.
    pub tile: TileView,
    /// Position of the access in `ops` (body order, for hazard
    /// direction).
    pub pos: u32,
    /// Whether this access is a store.
    pub store: bool,
}

impl AccessPlan {
    /// This plan's address record for the access op `acc`.
    fn at(&self, acc: u16) -> Addr {
        Addr {
            base: self.base,
            delta: self.delta,
            lane_stride: self.lane_stride,
            tile: self.tile,
            acc,
            row: 0,
        }
    }
}

/// Reusable per-frame run state: one [`PlanSlot`] per specialized
/// loop of the program, indexed by [`RunSpec::slot`] (the loop number
/// the bytecode compiler assigns), plus the per-run index snapshots.
/// Lives in the register file so repeated runs (every tile row of every
/// block) reuse the allocations; cloning a frame for a wavefront worker
/// hands out *empty* scratch instead of copying plans that are only
/// valid mid-run. The engine additionally pools scratch across calls:
/// each cached plan re-validates by run length, aliasing signature, and
/// invariant values before any cached state is trusted (and
/// [`patch_bases`] refreshes every pointer from the current frame), so a
/// warm scratch from a previous call turns the per-call cold plan build
/// into a patch-only hit. Because every loop owns its slot, the loops of
/// one tile body (a fused producer and its consumer) never evict each
/// other's plans.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    /// Index values of the probe at iteration 0 / iteration 1, and (for
    /// a row nest) at iteration 0 of the next outer row.
    pub idx0: Vec<i64>,
    pub idx1: Vec<i64>,
    pub idxr: Vec<i64>,
    /// Run length of each run-specialized loop of the row nest being
    /// executed, in body order (0: the loop runs no iteration).
    pub nest_n: Vec<usize>,
    /// Plan slots, grown on first use of a loop number.
    pub slots: Vec<PlanSlot>,
    /// Plan look-ups that built (cache misses) and reused (cache hits) a
    /// plan, and the points of specialized loops whose runs were too
    /// short for the fast rung (`n < MIN_RUN`), since the engine last
    /// drained these counters into its collector.
    pub builds: u64,
    pub reuses: u64,
    pub short_points: u64,
}

impl Clone for RunScratch {
    fn clone(&self) -> Self {
        RunScratch::default()
    }
}

/// The cache of one specialized loop: its resolved access table and its
/// two most recently used plans, keyed by run length — a loop whose runs
/// alternate between two lengths (a full tile and a ragged one, or a
/// vector body and its epilogue-sized remainder) keeps both plans warm
/// instead of rebuilding at every switch.
#[derive(Debug, Default)]
pub(crate) struct PlanSlot {
    /// The loop failed probing or buffer resolution in this frame. The
    /// generic path is always a correct (just slower) fallback, so once a
    /// loop declines at run time it stops paying the probe + snapshot
    /// cost on every subsequent execution.
    pub declined: bool,
    /// Resolved plans of the merged access table, in table order — the
    /// per-run artifact (`pos` holds the table index). Signature
    /// comparison and base patching run over these few entries.
    pub tab: Vec<AccessPlan>,
    /// Per-entry flat base advance from one outer row to the next, when
    /// the loop runs inside a row nest (parallel to `tab`).
    pub row_delta: Vec<isize>,
    /// Most recently used plan first.
    pub plans: [RunPlan; 2],
}

/// One cached plan of a specialized loop, and the scratch that builds
/// it.
#[derive(Debug, Default)]
pub(crate) struct RunPlan {
    /// Expanded per-op access plans, indexed by
    /// `RunOp::{Load,Store}::acc` — rebuilt from the slot's table only on
    /// plan cache misses (classification, forwarding, and hazard analysis
    /// consume exactly what per-op resolution used to produce). Stale
    /// on cache hits: every hit-path consumer goes through the table.
    pub acc: Vec<AccessPlan>,
    /// Streamed plan of the current run.
    pub stream: Vec<SOp>,
    /// Recurrent plan: `rec_first` is the faithful body tape (the
    /// forwarding analysis input — never executed); `rec_steady` is the
    /// executed tape, valid from t = 0 once `prelude` seeds the k = −1
    /// forward cells with their loads' pre-run memory values.
    pub rec_first: Vec<ROp>,
    pub rec_steady: Vec<ROp>,
    /// (cell, access-plan index) pairs: before the first chunk,
    /// `arena[cell] = tile[base]` materializes what the forwarded k = −1
    /// load would have read at t = 0.
    pub prelude: Vec<(u32, u16)>,
    /// Per-op streamed flag, stripe-row element offset, and vals-region
    /// element offset (rows are `lanes·CHUNK` elements wide, vals cells
    /// `lanes` wide, so both are prefix sums rather than plain indices).
    streamed: Vec<bool>,
    row_of: Vec<u32>,
    vals_of: Vec<u32>,
    /// Shared f64 arena: the streamed ops' stripe rows, then the
    /// per-op vals cells, then materialized constants. All recurrent
    /// operands resolve to offsets into this one slice.
    pub arena: Vec<f64>,
    /// Plan cache: the run length the current `stream`/`rec` were built
    /// for (0 = none), the per-entry aliasing signature (see
    /// [`EntrySig`]), the entries that open an allocation class
    /// (`reps`), and the materialized invariant values (from the float
    /// and vector register files). When the next run matches,
    /// classification is provably identical and only the flat bases
    /// need patching — the common case for every row of every tile.
    n: usize,
    sig: Vec<EntrySig>,
    reps: Vec<u16>,
    inv_vals: Vec<(u32, f64)>,
    inv_vvals: Vec<(u32, f64)>,
}

/// Plan-cache key of one access-table entry: `(delta, index of the first
/// entry on the same allocation, base − that entry's base, lane
/// stride)`. Every address relation the plan depends on — the hazard
/// test and the store-to-load forwarding in [`build_steady`] — compares
/// two accesses on the same allocation only, so the key pins exactly
/// those relations and nothing absolute: a fresh per-tile temporary with
/// the same geometry hits, while two views that start or stop sharing an
/// allocation change the first-entry index and miss. [`patch_bases`]
/// refreshes every absolute base and tile handle on a hit.
type EntrySig = (isize, u16, isize, isize);

/// The [`EntrySig`] of every entry of `tab`, plus the entries that are
/// the first on their allocation.
fn table_sig(tab: &[AccessPlan], sig: &mut Vec<EntrySig>, reps: &mut Vec<u16>) {
    sig.clear();
    reps.clear();
    for (i, a) in tab.iter().enumerate() {
        let first = tab[..i]
            .iter()
            .position(|r| r.tile.id() == a.tile.id())
            .unwrap_or(i);
        if first == i {
            reps.push(i as u16);
        }
        sig.push((
            a.delta,
            first as u16,
            a.base - tab[first].base,
            a.lane_stride,
        ));
    }
}

/// The plan look-up of one run of `n` iterations (`slot.tab` must
/// already hold the run's resolved access table): makes the slot's plan
/// for length `n` the current one (`slot.plans[0]`), reusing it when its
/// signature and invariant values still match, else rebuilding it in
/// place of the less recently used plan. Run-invariant operands are
/// materialized from the float (`fregs`) and vector (`vregs`) register
/// files. Returns whether the cached plan was reused.
pub(crate) fn build_plan(
    spec: &RunSpec,
    n: usize,
    fregs: &[f64],
    vregs: &[f64],
    slot: &mut PlanSlot,
) -> bool {
    let PlanSlot { tab, plans, .. } = slot;
    if plans[0].n != n {
        // The other plan becomes current: reused if it was built for
        // `n`, rebuilt below otherwise (evicting the older length).
        plans.swap(0, 1);
    }
    let plan = &mut plans[0];
    if plan_cache_hit(n, tab, fregs, vregs, plan) {
        patch_bases(tab, plan, &spec.acc_map);
        return true;
    }
    compile_plan(spec, n, tab, fregs, vregs, plan);
    false
}

/// Prepares the current plan of a row nest's loop (looked up for the
/// nest's first row) to step through the rows: each address record
/// takes its table entry's row delta. The plan stays valid on every row
/// — the nest checked that accesses sharing an allocation share a row
/// delta, so the aliasing signature is the same on every row.
pub(crate) fn enter_rows(slot: &mut PlanSlot, map: &[(u16, u16)]) {
    let row_delta = &slot.row_delta;
    for_each_addr(&mut slot.plans[0], |at| at.row = row_delta[map[at.acc as usize].0 as usize]);
}

/// Advances a row nest's loop to its next row: every resolved base
/// moves by its row delta, in the table and in the current plan.
pub(crate) fn advance_row(slot: &mut PlanSlot) {
    for (a, d) in slot.tab.iter_mut().zip(&slot.row_delta) {
        a.base += d;
    }
    for_each_addr(&mut slot.plans[0], |at| at.base += at.row);
}

/// Classifies every op of `spec` as streamed or recurrent for a run of
/// `n` iterations over the resolved table `tab` and builds the
/// execution plans into `scratch`.
fn compile_plan(
    spec: &RunSpec,
    n: usize,
    tab: &[AccessPlan],
    fregs: &[f64],
    vregs: &[f64],
    scratch: &mut RunPlan,
) {
    let ops = &spec.ops;
    let t_compile = trace::begin();
    // Expand the merged table into per-op access plans: classification,
    // forwarding, and hazard analysis below see exactly what per-op
    // resolution used to produce (the bases are the same integers —
    // lane-0 base plus the member's lane offset).
    scratch.acc.clear();
    for (pos, op) in ops.iter().enumerate() {
        let (acc, lanes, store) = match op {
            RunOp::Load { acc, lanes, .. } => (*acc, *lanes, false),
            RunOp::Store { acc, lanes, .. } => (*acc, *lanes, true),
            _ => continue,
        };
        let (t, l) = spec.acc_map[acc as usize];
        let p = &tab[t as usize];
        scratch.acc.push(AccessPlan {
            base: p.base + l as isize * p.lane_stride,
            delta: p.delta,
            lane_stride: p.lane_stride,
            lanes,
            tile: p.tile,
            pos: pos as u32,
            store,
        });
    }
    scratch.streamed.clear();
    scratch.streamed.resize(ops.len(), false);
    scratch.row_of.clear();
    scratch.row_of.resize(ops.len(), 0);
    scratch.stream.clear();
    scratch.rec_first.clear();
    scratch.rec_steady.clear();

    // Hazard classification: a load is streamable iff no store of the
    // body can hit one of its lanes' addresses "from the past" of the
    // original interleaving (see `hazard`); a float op is streamable
    // iff all its operands are.
    for i in 0..ops.len() {
        let s = match &ops[i] {
            RunOp::Load { acc, .. } => {
                let load = scratch.acc[*acc as usize];
                !scratch
                    .acc
                    .iter()
                    .any(|store| store.store && hazard(&load, store, n))
            }
            RunOp::Store { .. } => false,
            RunOp::Bin { a, b, .. } => {
                fref_streamed(*a, &scratch.streamed) && fref_streamed(*b, &scratch.streamed)
            }
            RunOp::Un { a, .. } | RunOp::Splat { a, .. } => fref_streamed(*a, &scratch.streamed),
            RunOp::Fma { a, b, c, .. } => {
                fref_streamed(*a, &scratch.streamed)
                    && fref_streamed(*b, &scratch.streamed)
                    && fref_streamed(*c, &scratch.streamed)
            }
        };
        scratch.streamed[i] = s;
    }

    // Arena layout (grow-only, element offsets): the streamed ops'
    // stripe rows (`lanes·CHUNK` elements each, plus headroom for
    // lane-varying invariant operands, which must sit *below* their
    // consumer's row for the aliasing split in the chunk loops), then
    // `lanes` vals cells per body op, then materialized scalar
    // constants. Stripes are fully written before they are read within
    // each chunk and vals/constants are rewritten below, so stale
    // contents never leak and the run-after-run case skips the memset.
    // Rows hold one chunk of iterations; short runs (narrow tiles, or
    // few vector iterations after lane division) get proportionally
    // small rows. Safe because the run length is part of the plan-cache
    // key — a cached layout is only ever reused at the same `n`.
    let chunk = CHUNK.min(n);
    let row_budget: usize = ops
        .iter()
        .enumerate()
        .filter(|(i, _)| scratch.streamed[*i])
        .map(|(_, o)| o.lanes() as usize * (chunk + 3))
        .sum();
    scratch.vals_of.clear();
    let mut v = row_budget as u32;
    for op in ops.iter() {
        scratch.vals_of.push(v);
        v += u32::from(op.lanes());
    }
    let vals_end = v as usize;
    let const_budget: usize = ops.iter().map(|o| 3 * o.lanes() as usize + 1).sum();
    let arena_len = vals_end + const_budget;
    if scratch.arena.len() < arena_len {
        scratch.arena.resize(arena_len, 0.0);
    }
    let mut next_const = vals_end;
    let mut row_cursor = 0u32;
    for (i, op) in ops.iter().enumerate() {
        if scratch.streamed[i] {
            let w = op.lanes();
            // Operand resolution may allocate lane-constant cells at
            // the row cursor; the op's own row is assigned after, so
            // every source offset stays strictly below it.
            macro_rules! s {
                ($r:expr, $w:expr) => {
                    ssrc(
                        $r,
                        $w,
                        fregs,
                        vregs,
                        &scratch.row_of,
                        ops,
                        &mut scratch.arena,
                        &mut row_cursor,
                    )
                };
            }
            let sop = match op {
                RunOp::Load { acc, lanes, .. } => SOp::Load {
                    row: 0, // patched below once the row is assigned
                    lanes: *lanes,
                    at: scratch.acc[*acc as usize].at(*acc),
                },
                RunOp::Bin { op, a, b, lanes } => SOp::Bin {
                    op: *op,
                    row: 0,
                    lanes: *lanes,
                    a: s!(*a, *lanes),
                    b: s!(*b, *lanes),
                },
                RunOp::Un { op, a, lanes } => SOp::Un {
                    op: *op,
                    row: 0,
                    lanes: *lanes,
                    a: s!(*a, *lanes),
                },
                RunOp::Fma { a, b, c, lanes } => SOp::Fma {
                    row: 0,
                    lanes: *lanes,
                    a: s!(*a, *lanes),
                    b: s!(*b, *lanes),
                    c: s!(*c, *lanes),
                },
                RunOp::Splat { a, lanes } => SOp::Splat {
                    row: 0,
                    lanes: *lanes,
                    a: s!(*a, 1),
                },
                RunOp::Store { .. } => unreachable!("stores are never streamed"),
            };
            let row = row_cursor;
            row_cursor += u32::from(w) * chunk as u32;
            scratch.row_of[i] = row;
            let mut sop = sop;
            match &mut sop {
                SOp::Load { row: r, .. }
                | SOp::Bin { row: r, .. }
                | SOp::Un { row: r, .. }
                | SOp::Fma { row: r, .. }
                | SOp::Splat { row: r, .. } => *r = row,
                SOp::BinLoads { .. } => unreachable!("fusion runs later"),
            }
            scratch.stream.push(sop);
        } else {
            macro_rules! r {
                ($r:expr, $w:expr) => {
                    rref(
                        $r,
                        $w,
                        fregs,
                        vregs,
                        &scratch.streamed,
                        &scratch.row_of,
                        &scratch.vals_of,
                        ops,
                        &mut scratch.arena,
                        &mut next_const,
                    )
                };
            }
            let dst = scratch.vals_of[i];
            let rop = match op {
                RunOp::Load { acc, lanes, .. } => ROp::Load {
                    dst,
                    lanes: *lanes,
                    at: scratch.acc[*acc as usize].at(*acc),
                },
                RunOp::Store {
                    src, acc, lanes, ..
                } => ROp::Store {
                    src: r!(*src, *lanes),
                    lanes: *lanes,
                    at: scratch.acc[*acc as usize].at(*acc),
                },
                RunOp::Bin { op, a, b, lanes } => ROp::Bin {
                    op: *op,
                    dst,
                    lanes: *lanes,
                    a: r!(*a, *lanes),
                    b: r!(*b, *lanes),
                },
                RunOp::Un { op, a, lanes } => ROp::Un {
                    op: *op,
                    dst,
                    lanes: *lanes,
                    a: r!(*a, *lanes),
                },
                RunOp::Fma { a, b, c, lanes } => ROp::Fma {
                    dst,
                    lanes: *lanes,
                    a: r!(*a, *lanes),
                    b: r!(*b, *lanes),
                    c: r!(*c, *lanes),
                },
                RunOp::Splat { a, lanes } => ROp::Splat {
                    dst,
                    lanes: *lanes,
                    a: r!(*a, 1),
                },
            };
            scratch.rec_first.push(rop);
        }
    }
    debug_assert!(row_cursor as usize <= row_budget);
    fuse_stream_loads(scratch);
    build_steady(scratch, n, row_budget, vals_end);
    // Record the cache signature for the next run of this loop: the run
    // length plus, per merged-table entry, the aliasing key of
    // [`EntrySig`] (per-op signatures are an affine expansion of the
    // entry signatures, so entry-level equality implies op-level
    // equality). No allocation address enters the key, so each row of
    // each fused tile, with its fresh temporary, hits.
    scratch.n = n;
    table_sig(tab, &mut scratch.sig, &mut scratch.reps);
    scratch.inv_vals.clear();
    scratch.inv_vvals.clear();
    // Registers whose value at plan time is a literal the probe itself
    // just wrote (`CF`/`CV`, not later overwritten by `S2F`): the probe
    // reruns before every plan, so these can never drift from the
    // snapshot — recording them would re-verify a tautology on every
    // cache hit, per consumer and per lane.
    let mut fconst: HashSet<u32> = HashSet::new();
    let mut vconst: HashSet<u32> = HashSet::new();
    for p in spec.probe.iter() {
        match p {
            ProbeOp::CF { dst, .. } => {
                fconst.insert(*dst);
            }
            ProbeOp::S2F { dst, .. } => {
                fconst.remove(dst);
            }
            ProbeOp::CV { off, lanes, .. } => {
                for l in 0..*lanes {
                    vconst.insert(*off + l);
                }
            }
            _ => {}
        }
    }
    for op in ops.iter() {
        let lanes = op.lanes();
        let mut note = |r: &FRef, w: u16| match r {
            FRef::Inv(reg) => {
                if !fconst.contains(reg) {
                    scratch.inv_vals.push((*reg, fregs[*reg as usize]));
                }
            }
            FRef::VInv(off) => {
                for l in 0..u32::from(w) {
                    if !vconst.contains(&(*off + l)) {
                        scratch
                            .inv_vvals
                            .push((*off + l, vregs[(*off + l) as usize]));
                    }
                }
            }
            FRef::Op(_) | FRef::Lane(..) => {}
        };
        match op {
            RunOp::Bin { a, b, .. } => {
                note(a, lanes);
                note(b, lanes);
            }
            RunOp::Un { a, .. } => note(a, lanes),
            RunOp::Fma { a, b, c, .. } => {
                note(a, lanes);
                note(b, lanes);
                note(c, lanes);
            }
            RunOp::Store { src, .. } => note(src, lanes),
            RunOp::Splat { a, .. } => note(a, 1),
            RunOp::Load { .. } => {}
        }
    }
    // An invariant register read by several consumers needs verifying
    // once, not per consumer.
    scratch.inv_vals.sort_unstable_by_key(|&(r, _)| r);
    scratch.inv_vals.dedup_by_key(|&mut (r, _)| r);
    scratch.inv_vvals.sort_unstable_by_key(|&(r, _)| r);
    scratch.inv_vvals.dedup_by_key(|&mut (r, _)| r);
    trace::end(TraceKind::PlanCompile, t_compile, spec.slot, n as u32);
}

/// Fuses `Bin(Slot(x), Slot(y))` with the loads producing rows `x` and
/// `y` into one [`SOp::BinLoads`] when this op is the rows' only
/// consumer — in the stream and in the recurrent tapes. The two staging
/// passes over the chunk disappear; the fused loop reads both tiles
/// directly, which is the same read the staging copy would have done.
fn fuse_stream_loads(scratch: &mut RunPlan) {
    // Any read touching an element of `[row, row + lanes)` consumes the
    // row (lane refs carry `row + lane` offsets; lane-constant cells
    // never alias a load's row by construction).
    let in_row = |off: u32, row: u32, lanes: u16| off >= row && off < row + u32::from(lanes);
    let rec_reads = |row: u32, lanes: u16| {
        let rr = |r: &RRef| r.step != 0 && in_row(r.off, row, lanes);
        scratch.rec_first.iter().any(|op| match op {
            ROp::Load { .. } | ROp::Carry { .. } => false,
            ROp::Store { src, .. } => rr(src),
            ROp::Bin { a, b, .. } => rr(a) || rr(b),
            ROp::Un { a, .. } | ROp::Splat { a, .. } => rr(a),
            ROp::Fma { a, b, c, .. } => rr(a) || rr(b) || rr(c),
            ROp::Chain { .. } => unreachable!("stream fusion runs before build_steady"),
        })
    };
    for k in 0..scratch.stream.len() {
        let SOp::Bin {
            op,
            row,
            lanes,
            a: SSrc::Row { off: x, step: sx },
            b: SSrc::Row { off: y, step: sy },
        } = scratch.stream[k]
        else {
            continue;
        };
        // Both operands must be whole aligned rows of the same width as
        // the consumer (step == lanes and offset at a load's row start).
        if sx != u32::from(lanes) || sy != u32::from(lanes) {
            continue;
        }
        let reads = |s: &SSrc, row: u32| matches!(s, SSrc::Row { off, .. } if in_row(*off, row, lanes));
        let other_consumer = |r: u32| {
            scratch.stream.iter().enumerate().any(|(j, op)| match op {
                SOp::Load { .. } | SOp::BinLoads { .. } => false,
                SOp::Bin { a, b, .. } => j != k && (reads(a, r) || reads(b, r)),
                SOp::Un { a, .. } | SOp::Splat { a, .. } => reads(a, r),
                SOp::Fma { a, b, c, .. } => reads(a, r) || reads(b, r) || reads(c, r),
            }) || rec_reads(r, lanes)
        };
        // A wide fused load must be dense (contiguous lanes, row-major
        // advance) so the fused loop reads `m·lanes` consecutive
        // elements; scalar loads may stride arbitrarily.
        let load_of = |r: u32| {
            scratch.stream.iter().position(|op| {
                matches!(op, SOp::Load { row, lanes: ll, at }
                    if *row == r
                        && *ll == lanes
                        && (lanes == 1 || (at.lane_stride == 1 && at.delta == lanes as isize)))
            })
        };
        let (Some(la), Some(lb)) = (load_of(x), load_of(y)) else {
            continue;
        };
        if other_consumer(x) || (y != x && other_consumer(y)) {
            continue;
        }
        let (SOp::Load { at: a, .. }, SOp::Load { at: b, .. }) =
            (&scratch.stream[la], &scratch.stream[lb])
        else {
            unreachable!()
        };
        scratch.stream[k] = SOp::BinLoads {
            op,
            row,
            lanes,
            a: *a,
            b: *b,
        };
        // Drop the now-unconsumed loads (their slots stay allocated,
        // simply unwritten). Remove the higher index first.
        let (hi, lo) = (la.max(lb), la.min(lb));
        scratch.stream.remove(hi);
        if hi != lo {
            scratch.stream.remove(lo);
        }
        return fuse_stream_loads(scratch); // indices shifted; rescan
    }
}

/// Whether the cached plan in `scratch` is valid for this run: same
/// length, same per-entry [`EntrySig`] (⇒ identical hazard
/// classification and forwarding), and unchanged invariant operand
/// values. The signature test needs no rescan for first entries: each
/// entry must share its allocation with the cached first entry of its
/// class at the cached offset, and the class leaders must sit on
/// pairwise distinct allocations — together exactly the cached
/// partition of the table into allocations.
fn plan_cache_hit(
    n: usize,
    tab: &[AccessPlan],
    fregs: &[f64],
    vregs: &[f64],
    scratch: &RunPlan,
) -> bool {
    if scratch.n != n {
        return false;
    }
    let same_class = tab
        .iter()
        .zip(&scratch.sig)
        .all(|(a, &(delta, first, off, ls))| {
            let r = &tab[first as usize];
            a.delta == delta
                && a.lane_stride == ls
                && a.tile.id() == r.tile.id()
                && a.base - r.base == off
        });
    let reps = &scratch.reps;
    if !same_class
        || reps.iter().enumerate().any(|(k, &i)| {
            reps[..k]
                .iter()
                .any(|&j| tab[j as usize].tile.id() == tab[i as usize].tile.id())
        })
    {
        return false;
    }
    scratch
        .inv_vals
        .iter()
        .all(|&(reg, v)| fregs[reg as usize].to_bits() == v.to_bits())
        && scratch
            .inv_vvals
            .iter()
            .all(|&(off, v)| vregs[off as usize].to_bits() == v.to_bits())
}

/// Rewrites the flat base addresses *and tile handles* of the cached
/// plan to this run's resolved accesses (everything else —
/// classification, slots, deltas, constants — is unchanged by
/// construction on a cache hit). Tiles must be refreshed too: the
/// signature fixes only how the accesses share allocations, not which
/// allocations they are (each fused tile brings a fresh temporary), and
/// scratch outlives single calls (the engine pools it across frames),
/// so the cached `TileView` copies may be handles to buffers that are
/// gone. After patching, every pointer the hit path dereferences comes
/// from the current frame's live buffer registers.
fn patch_bases(tab: &[AccessPlan], scratch: &mut RunPlan, map: &[(u16, u16)]) {
    for_each_addr(scratch, |at| {
        let (t, l) = map[at.acc as usize];
        let p = &tab[t as usize];
        (at.base, at.tile) = (p.base + l as isize * p.lane_stride, p.tile);
    });
}

/// Calls `f` on every address record the plan executes. `rec_first` is
/// never executed (analysis input only), so only the steady tape's
/// records are visited.
fn for_each_addr(scratch: &mut RunPlan, mut f: impl FnMut(&mut Addr)) {
    for op in &mut scratch.stream {
        match op {
            SOp::Load { at, .. } => f(at),
            SOp::BinLoads { a, b, .. } => {
                f(a);
                f(b);
            }
            _ => {}
        }
    }
    for op in &mut scratch.rec_steady {
        match op {
            ROp::Load { at, .. } | ROp::Store { at, .. } => f(at),
            ROp::Chain { lanes, .. } => {
                for at in lanes.iter_mut().filter_map(|l| l.store.as_mut()) {
                    f(at);
                }
            }
            _ => {}
        }
    }
}

#[inline]
fn fref_streamed(r: FRef, streamed: &[bool]) -> bool {
    match r {
        FRef::Inv(_) | FRef::VInv(_) => true,
        FRef::Op(j) | FRef::Lane(j, _) => streamed[j as usize],
    }
}

/// Resolves a streamed operand for a consumer of width `w`.
/// Lane-varying invariant vectors are materialized as `w` cells at the
/// row cursor — strictly below the consumer's (not yet assigned) row,
/// which keeps the `dst_row` aliasing split valid.
#[inline]
#[allow(clippy::too_many_arguments)]
fn ssrc(
    r: FRef,
    w: u16,
    fregs: &[f64],
    vregs: &[f64],
    row_of: &[u32],
    ops: &[RunOp],
    arena: &mut [f64],
    row_cursor: &mut u32,
) -> SSrc {
    match r {
        FRef::Inv(reg) => SSrc::Const(fregs[reg as usize]),
        FRef::VInv(off) => {
            let v = &vregs[off as usize..off as usize + w as usize];
            if v.iter().all(|x| x.to_bits() == v[0].to_bits()) {
                SSrc::Const(v[0])
            } else {
                let at = *row_cursor as usize;
                arena[at..at + w as usize].copy_from_slice(v);
                *row_cursor += u32::from(w);
                SSrc::Row {
                    off: at as u32,
                    step: 0,
                }
            }
        }
        FRef::Op(j) => SSrc::Row {
            off: row_of[j as usize],
            step: u32::from(ops[j as usize].lanes()),
        },
        FRef::Lane(j, lane) => SSrc::Row {
            off: row_of[j as usize] + u32::from(lane),
            step: u32::from(ops[j as usize].lanes()),
        },
    }
}

/// Resolves a recurrent operand for a consumer of width `w` to its
/// arena offset, materializing run-invariant values (replicated to `w`
/// cells for wide consumers) into the constants tail.
#[inline]
#[allow(clippy::too_many_arguments)]
fn rref(
    r: FRef,
    w: u16,
    fregs: &[f64],
    vregs: &[f64],
    streamed: &[bool],
    row_of: &[u32],
    vals_of: &[u32],
    ops: &[RunOp],
    arena: &mut [f64],
    next_const: &mut usize,
) -> RRef {
    match r {
        FRef::Inv(reg) => {
            let off = *next_const;
            *next_const += w as usize;
            arena[off..off + w as usize].fill(fregs[reg as usize]);
            RRef {
                off: off as u32,
                step: 0,
            }
        }
        FRef::VInv(voff) => {
            let off = *next_const;
            *next_const += w as usize;
            arena[off..off + w as usize]
                .copy_from_slice(&vregs[voff as usize..voff as usize + w as usize]);
            RRef {
                off: off as u32,
                step: 0,
            }
        }
        FRef::Op(j) if streamed[j as usize] => RRef {
            off: row_of[j as usize],
            step: u32::from(ops[j as usize].lanes()),
        },
        FRef::Op(j) => RRef {
            off: vals_of[j as usize],
            step: 0,
        },
        FRef::Lane(j, lane) if streamed[j as usize] => RRef {
            off: row_of[j as usize] + u32::from(lane),
            step: u32::from(ops[j as usize].lanes()),
        },
        FRef::Lane(j, lane) => RRef {
            off: vals_of[j as usize] + u32::from(lane),
            step: 0,
        },
    }
}

/// Builds the steady-state recurrent tape from `rec_first`. A scalar
/// `Load` whose address was last written by a store of this same body —
/// either one iteration earlier (k = −1) or earlier in the current
/// iteration (k = 0, store before load in body order) — re-reads a
/// value the plan already holds, so it is forwarded: its consumers are
/// repointed at the store's source operand (for k = −1 only while that
/// source has not been recomputed this iteration; a k = 0 source is
/// always already this iteration's value), or the load degrades to a
/// `Carry` copy. The steady tape is valid from t = 0: each k = −1
/// forward's source cell is pre-seeded (`prelude`) with the value its
/// load would have read from pre-run memory, so no separate
/// first-iteration execution remains.
fn build_steady(scratch: &mut RunPlan, n: usize, row_budget: usize, vals_end: usize) {
    // Body-op index owning a step-0 vals cell (None for stripe rows,
    // lane-constant cells, and the constants tail — all of which hold
    // values no recurrent op rewrites mid-iteration).
    let vals_of = &scratch.vals_of;
    let owner = |off: u32| -> Option<usize> {
        let off = off as usize;
        if off < row_budget || off >= vals_end {
            return None;
        }
        let i = vals_of.partition_point(|&v| v as usize <= off) - 1;
        Some(i)
    };
    // dst offset of a forwardable load → (store source, k).
    let mut fwd: Vec<(u32, RRef, i64)> = Vec::new();
    let mut prelude: Vec<(u32, u16)> = Vec::new();
    for op in &scratch.rec_first {
        let ROp::Load { dst, lanes: 1, at } = op else {
            continue;
        };
        let la = scratch.acc[at.acc as usize];
        if la.delta == 0 {
            continue;
        }
        let d = la.delta;
        // Find the sequentially latest store hitting this load's address
        // sequence. All stores on the tile must share the load's delta
        // (conservative bail otherwise); a divisible base difference
        // identifies the aliasing ones, and among those that the
        // original interleaving orders before the load, the largest
        // (k, pos) wrote last.
        let mut best: Option<(i64, u32)> = None;
        let mut bail = false;
        for sa in scratch.acc.iter() {
            if !sa.store || sa.tile.id() != la.tile.id() {
                continue;
            }
            if sa.delta != d {
                bail = true;
                break;
            }
            // A wide store is one plan; each lane is its own address
            // sequence. (A wide winner never forwards — the scalar
            // store-source lookup below only matches `lanes: 1` — but
            // its lanes still participate in picking the latest writer,
            // which keeps a scalar store from winning incorrectly.)
            for sl in 0..sa.lanes as isize {
                let diff = la.base - (sa.base + sl * sa.lane_stride);
                if diff % d != 0 {
                    continue;
                }
                let k = (diff / d) as i64;
                let reaches = (k >= -((n as i64) - 1) && k <= -1) || (k == 0 && sa.pos < la.pos);
                if reaches && best.is_none_or(|b| (k, sa.pos) > b) {
                    best = Some((k, sa.pos));
                }
            }
        }
        if bail {
            continue;
        }
        let Some((k, spos)) = best else { continue };
        if k != -1 && k != 0 {
            continue; // writer too far back: keep the real load
        }
        // The (scalar) store op at that body position; its source.
        let src = scratch.rec_first.iter().find_map(|op| match op {
            ROp::Store { src, lanes: 1, at } if scratch.acc[at.acc as usize].pos == spos => {
                Some(*src)
            }
            _ => None,
        });
        let Some(src) = src else { continue };
        if k == -1 {
            // The previous iteration's source value must survive into
            // this one: a step-0 cell rewritten only after the load's
            // position (or never — constants/lane cells).
            if src.step != 0 {
                continue;
            }
            match owner(src.off) {
                Some(p) if p <= la.pos as usize => continue,
                _ => {}
            }
            // At t = 0 there is no previous iteration: seed the source
            // cell with the load's own t = 0 memory value before the
            // first chunk. No store of this run writes that address
            // before the original t = 0 load would have read it (the
            // aliasing store lands there at t′ = −1; any other store
            // with k′ = 0 is ordered after the load, and k′ ≥ 1 stores
            // never reach it).
            prelude.push((src.off, at.acc));
        }
        fwd.push((*dst, src, k));
    }
    let fwd_of = |off: u32| fwd.iter().find(|(d, _, _)| *d == off).map(|&(_, s, k)| (s, k));
    // A consumer at body position p may read a k = −1 source directly
    // only while it still holds the previous iteration's value, i.e.
    // when the source is produced after p. k = 0 sources already hold
    // this iteration's value at every position past the store.
    let live_at = |src: RRef, k: i64, pos: usize| {
        k == 0 || src.step != 0 || owner(src.off).is_none_or(|p| p > pos)
    };
    let mut steady: Vec<ROp> = Vec::new();
    for op in &scratch.rec_first {
        let mut op = op.clone();
        let patch = |r: &mut RRef, pos: usize| {
            if r.step == 0 {
                if let Some((src, k)) = fwd_of(r.off) {
                    if live_at(src, k, pos) {
                        *r = src;
                    }
                }
            }
        };
        let pos_of_dst = |dst: u32| owner(dst).expect("recurrent dst is a vals cell");
        match &mut op {
            ROp::Load { dst, .. } => {
                if let Some((src, k)) = fwd_of(*dst) {
                    let dst = *dst;
                    // Keep a Carry if any consumer still reads vals[dst]
                    // (the redirect below was invalid for it).
                    let all_redirected = scratch.rec_first.iter().all(|c| {
                        let (refs, pos): (Vec<RRef>, usize) = match c {
                            ROp::Bin { a, b, dst, .. } => (vec![*a, *b], pos_of_dst(*dst)),
                            ROp::Un { a, dst, .. } | ROp::Splat { a, dst, .. } => {
                                (vec![*a], pos_of_dst(*dst))
                            }
                            ROp::Fma { a, b, c, dst, .. } => (vec![*a, *b, *c], pos_of_dst(*dst)),
                            ROp::Store { src, at, .. } => {
                                (vec![*src], scratch.acc[at.acc as usize].pos as usize)
                            }
                            ROp::Load { .. } | ROp::Carry { .. } => (vec![], 0),
                            ROp::Chain { .. } => unreachable!("fusion runs after build_steady"),
                        };
                        refs.iter()
                            .filter(|r| r.step == 0 && r.off == dst)
                            .all(|_| live_at(src, k, pos))
                    });
                    if all_redirected {
                        continue; // load disappears from the steady tape
                    }
                    if src.step != 0 {
                        // A row-sourced k = 0 forward has no scalar cell
                        // to Carry from; keep the load for the laggards.
                        steady.push(op);
                        continue;
                    }
                    steady.push(ROp::Carry { dst, src: src.off });
                    continue;
                }
            }
            ROp::Bin { a, b, dst, .. } => {
                let pos = pos_of_dst(*dst);
                patch(a, pos);
                patch(b, pos);
            }
            ROp::Un { a, dst, .. } | ROp::Splat { a, dst, .. } => {
                let pos = pos_of_dst(*dst);
                patch(a, pos);
            }
            ROp::Fma { a, b, c, dst, .. } => {
                let pos = pos_of_dst(*dst);
                patch(a, pos);
                patch(b, pos);
                patch(c, pos);
            }
            ROp::Store { src, at, .. } => {
                let pos = scratch.acc[at.acc as usize].pos as usize;
                patch(src, pos);
            }
            ROp::Carry { .. } => {}
            ROp::Chain { .. } => unreachable!("fusion runs after build_steady"),
        }
        steady.push(op);
    }
    fuse_chains(&mut steady);
    scratch.prelude = prelude;
    scratch.rec_steady = steady;
}

/// Fuses maximal runs of consecutive `Bin` ops where each op's result
/// is read exactly once, by the immediately following op, into
/// [`ROp::Chain`] superinstructions (Ertl & Gregg-style: amortize
/// dispatch over the whole dependent sequence). Intermediate arena
/// writes disappear with their only reader, and a store of the chain's
/// final value that immediately follows rides along in the same
/// dispatch. A tape left with nothing but such chain-stores may then
/// form one ring (see [`fuse_ring`]).
fn fuse_chains(steady: &mut Vec<ROp>) {
    let mut reads: HashMap<u32, u32> = HashMap::new();
    let mut note = |r: &RRef| {
        if r.step == 0 {
            *reads.entry(r.off).or_insert(0) += 1;
        }
    };
    for op in steady.iter() {
        match op {
            ROp::Bin { a, b, .. } => {
                note(a);
                note(b);
            }
            ROp::Un { a, .. } => note(a),
            ROp::Fma { a, b, c, .. } => {
                note(a);
                note(b);
                note(c);
            }
            ROp::Store { src, .. } => note(src),
            ROp::Splat { a, .. } => note(a),
            ROp::Carry { src, .. } => note(&RRef { off: *src, step: 0 }),
            ROp::Load { .. } => {}
            ROp::Chain { .. } => unreachable!("fusion runs once"),
        }
    }
    let single_use = |off: u32| reads.get(&off).copied() == Some(1);
    let mut out: Vec<ROp> = Vec::with_capacity(steady.len());
    let mut i = 0;
    while i < steady.len() {
        let ROp::Bin {
            op,
            dst,
            lanes: 1,
            a,
            b,
        } = steady[i]
        else {
            out.push(steady[i].clone());
            i += 1;
            continue;
        };
        let mut links = vec![ChainLink {
            op,
            other: b,
            acc_rhs: false,
        }];
        let mut cur = dst;
        let mut j = i;
        while let Some(ROp::Bin {
            op: nop,
            dst: ndst,
            lanes: 1,
            a: na,
            b: nb,
        }) = steady.get(j + 1)
        {
            if !single_use(cur) {
                break;
            }
            if na.step == 0 && na.off == cur {
                links.push(ChainLink {
                    op: *nop,
                    other: *nb,
                    acc_rhs: false,
                });
            } else if nb.step == 0 && nb.off == cur {
                links.push(ChainLink {
                    op: *nop,
                    other: *na,
                    acc_rhs: true,
                });
            } else {
                break;
            }
            cur = *ndst;
            j += 1;
        }
        if j == i {
            out.push(steady[i].clone());
            i += 1;
            continue;
        }
        let store = match steady.get(j + 1) {
            Some(ROp::Store { src, lanes: 1, at }) if src.step == 0 && src.off == cur => {
                j += 1;
                Some(*at)
            }
            _ => None,
        };
        let lane = ChainLane {
            dst: cur,
            init: a,
            links: links.into(),
            carry_at: 0,
            store,
        };
        out.push(ROp::Chain {
            lanes: Box::new([lane]),
            ring: false,
        });
        i = j + 1;
    }
    fuse_ring(&mut out);
    *steady = out;
}

/// Turns a steady tape consisting solely of `w ≥ 1` one-lane
/// chain-stores into one ring [`ROp::Chain`] when they form one
/// lane-unrolled serial recurrence (the §2.4 partial-vectorization
/// shape, or at w = 1 the scalar one): lane `k` reads lane `k − 1`'s
/// value, and lane 0 the last lane's previous-iteration value, exactly
/// once — at its init or at one link. Leaves the tape alone when any
/// other operand touches a chain destination (the register loop would
/// then skip an arena write some reader needs).
fn fuse_ring(steady: &mut Vec<ROp>) {
    let mut lanes = Vec::with_capacity(steady.len());
    for op in steady.iter() {
        match op {
            ROp::Chain { lanes: l, .. } if l.len() == 1 && l[0].store.is_some() => {
                lanes.push(l[0].clone());
            }
            _ => return,
        }
    }
    let w = lanes.len();
    if w == 0 {
        return;
    }
    let dsts: Vec<u32> = lanes.iter().map(|l| l.dst).collect();
    let is_dst = |r: &RRef| r.step == 0 && dsts.contains(&r.off);
    for (k, lane) in lanes.iter_mut().enumerate() {
        let want = dsts[(k + w - 1) % w];
        let operands = std::iter::once(&lane.init).chain(lane.links.iter().map(|lk| &lk.other));
        let mut carry_at = None;
        for (j, r) in operands.enumerate() {
            if !is_dst(r) {
                continue;
            }
            if r.off != want || carry_at.is_some() {
                return;
            }
            carry_at = Some(j as u16);
        }
        let Some(at) = carry_at else { return };
        lane.carry_at = at;
    }
    *steady = vec![ROp::Chain {
        lanes: lanes.into(),
        ring: true,
    }];
}

/// Whether streaming `load` (reading its whole address sequence from
/// pre-run memory) could observe a different value than the original
/// point-by-point interleaving with `store`.
///
/// With equal per-iteration deltas `d`, the store of iteration `t'`
/// hits the load address of iteration `t` exactly when
/// `t' = t + (Lbase − Sbase)/d`; under the original order the load of
/// iteration `t` sees the store of iteration `t'` iff `t' < t`, or
/// `t' = t` when the store precedes the load in the body. Unequal
/// deltas over overlapping ranges are conservatively hazardous.
fn hazard(load: &AccessPlan, store: &AccessPlan, n: usize) -> bool {
    debug_assert!(store.store && !load.store);
    if load.tile.id() != store.tile.id() {
        return false;
    }
    let last = (n - 1) as isize;
    // Bounding box over all lanes and iterations (conservative for the
    // unequal-delta early-out; the modular check below is per lane
    // pair, exactly what per-lane plans used to test).
    let range = |a: &AccessPlan| {
        let span = (a.lanes as isize - 1) * a.lane_stride;
        let ends = [
            a.base,
            a.base + last * a.delta,
            a.base + span,
            a.base + last * a.delta + span,
        ];
        (*ends.iter().min().unwrap(), *ends.iter().max().unwrap())
    };
    let (llo, lhi) = range(load);
    let (slo, shi) = range(store);
    if lhi < slo || shi < llo {
        return false;
    }
    if load.delta != store.delta {
        return true;
    }
    let d = load.delta;
    if d == 0 {
        // Same single address for the whole run: the load would observe
        // every store after the first iteration.
        return true;
    }
    for ll in 0..load.lanes as isize {
        for sl in 0..store.lanes as isize {
            let diff =
                (load.base + ll * load.lane_stride) - (store.base + sl * store.lane_stride);
            if diff % d != 0 {
                continue;
            }
            let k = diff / d;
            if (k >= -last && k <= -1) || (k == 0 && store.pos < load.pos) {
                return true;
            }
        }
    }
    false
}
