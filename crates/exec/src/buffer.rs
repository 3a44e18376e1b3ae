//! Runtime n-dimensional `f64` buffers with aliasing views.
//!
//! A [`BufferView`] is a (possibly shifted or sliced) window into shared
//! storage. Views implement the semantics of `memref.subview` and
//! `memref.shift_view`: a shifted view is addressed in *global*
//! coordinates (`view[i] = src[i - shift]`), which is how fused per-tile
//! temporaries are accessed by bounded producers.
//!
//! # Threading model
//!
//! Storage is reference-counted and shared across threads: each element
//! is an `AtomicU64` holding the bit pattern of an `f64`, accessed with
//! `Relaxed` ordering. This makes concurrent access from wavefront
//! workers *safe by construction* (no data race is possible, and every
//! store is bit-exact), while the *determinism* of parallel execution is
//! guaranteed at the schedule level: within a wavefront level, sub-domains
//! write disjoint regions (paper Eq. (3)), and the pool's in-degree
//! handoff (through a join task between levels) establishes the
//! happens-before edge that publishes one level's stores to the next. On
//! x86-64 and AArch64 a relaxed atomic load/store compiles to a plain
//! move, so sequential interpretation pays no measurable cost for this.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Raw, non-atomic access to a buffer's storage for run-specialized
/// execution (the "disjoint tile view" of DESIGN.md §4f).
///
/// A `TileView` addresses the *whole underlying allocation* by flat
/// element index (the same flat index [`BufferView`] computes), but
/// reads and writes plain `u64`/`f64` words instead of going through
/// `AtomicU64` — which is what lets LLVM autovectorize the streamed
/// inner loops of a run (relaxed atomic accesses are never vectorized).
///
/// # Safety argument
///
/// The storage is an `Arc<[AtomicU64]>`; `AtomicU64` is an interior-
/// mutability (`UnsafeCell`-based) type with the same in-memory
/// representation as `u64`, so writing through a raw pointer derived
/// from the shared allocation is sound *provided no other thread
/// accesses the same elements concurrently*. That exclusivity is
/// exactly what the Eq. (3) wavefront schedule guarantees: two blocks
/// of the same level never overlap in writes (or in a read of one and
/// a write of the other) — any such overlap is a block dependence and
/// forces the blocks into different levels, and the join between levels
/// establishes the happens-before edge. The debug-mode
/// [`overlap`] checker enforces this at run time in every test build.
///
/// Bounds are *not* checked per access (`debug_assert!` only): the run
/// planner proves every address of a run in-bounds up front by
/// bounds-checking both run endpoints through [`BufferView`]'s checked
/// flat-index path (per-dimension indices are affine in the iteration
/// variable, so the endpoints bound every intermediate iteration).
#[derive(Clone, Copy, Debug)]
pub(crate) struct TileView {
    ptr: *mut u64,
    len: usize,
}

// SAFETY: a TileView is only dereferenced inside one wavefront block,
// whose accesses are disjoint from every concurrently running block
// (Eq. 3); the pointee allocation is kept alive by the BufferView held
// in the executing frame's register file.
unsafe impl Send for TileView {}
unsafe impl Sync for TileView {}

impl TileView {
    /// Reads element `i` (flat index into the allocation).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.len, "tile read {i} out of {}", self.len);
        // SAFETY: see the type-level safety argument; `i` was proven
        // in-bounds by the run planner's endpoint checks.
        unsafe { f64::from_bits(*self.ptr.add(i)) }
    }

    /// Writes element `i` (flat index into the allocation).
    #[inline]
    pub(crate) fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len, "tile write {i} out of {}", self.len);
        // SAFETY: as for `get`; the pointee is interior-mutable
        // (AtomicU64), so writing through a shared allocation is sound.
        unsafe { *self.ptr.add(i) = v.to_bits() }
    }

    /// Identity of the underlying allocation (shared by every view of
    /// the same storage) — the key hazard analysis and the overlap
    /// checker group accesses by.
    #[inline]
    pub(crate) fn id(&self) -> usize {
        self.ptr as usize
    }
}

/// A view into shared `f64` storage.
#[derive(Clone)]
pub struct BufferView {
    storage: Arc<[AtomicU64]>,
    /// Extent per dimension (of this view).
    shape: Vec<usize>,
    /// Element stride per dimension.
    strides: Vec<isize>,
    /// Linear offset of the element at coordinate `origin`.
    base: isize,
    /// First valid coordinate per dimension (non-zero for shifted views).
    origin: Vec<i64>,
}

impl BufferView {
    /// Allocates a zero-initialized buffer of the given shape.
    ///
    /// Zero-initialization is a deliberate semantic choice of this
    /// runtime (MLIR's `memref.alloc` leaves memory undefined): fused
    /// per-tile `B` temporaries rely on starting from zero.
    pub fn alloc(shape: &[usize]) -> Self {
        let len: usize = shape.iter().product();
        let mut strides = vec![1isize; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1] as isize;
        }
        // 0u64 is the bit pattern of 0.0f64.
        let storage: Arc<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(0)).collect();
        BufferView {
            storage,
            shape: shape.to_vec(),
            strides,
            base: 0,
            origin: vec![0; shape.len()],
        }
    }

    /// Builds a buffer from existing data (row-major).
    ///
    /// # Panics
    /// Panics if `data.len() != shape.iter().product()`.
    pub fn from_data(shape: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data/shape mismatch"
        );
        let b = Self::alloc(shape);
        for (slot, v) in b.storage.iter().zip(data) {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
        b
    }

    /// View extents.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank of the view.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Extent along one dimension.
    pub fn dim(&self, d: usize) -> usize {
        self.shape[d]
    }

    /// Whether two views may touch the same elements.
    ///
    /// Views on different allocations never alias. Views on the same
    /// allocation are compared by their addressable flat-index intervals:
    /// two *disjoint* subviews of one buffer (e.g. complementary halves)
    /// do not alias. The answer stays conservative for genuinely
    /// overlapping intervals — stride gaps could still make the element
    /// sets disjoint, but interval overlap is reported as aliasing.
    pub fn aliases(&self, other: &BufferView) -> bool {
        if !Arc::ptr_eq(&self.storage, &other.storage) {
            return false;
        }
        match (self.flat_range(), other.flat_range()) {
            (Some((a_lo, a_hi)), Some((b_lo, b_hi))) => a_lo <= b_hi && b_lo <= a_hi,
            // An empty view addresses no elements.
            _ => false,
        }
    }

    /// Inclusive `[lo, hi]` interval of flat indices this view can
    /// address, or `None` when the view is empty.
    fn flat_range(&self) -> Option<(isize, isize)> {
        if self.shape.contains(&0) {
            return None;
        }
        let mut lo = self.base;
        let mut hi = self.base;
        for d in 0..self.rank() {
            let extent = (self.shape[d] - 1) as isize * self.strides[d];
            if extent >= 0 {
                hi += extent;
            } else {
                lo += extent;
            }
        }
        Some((lo, hi))
    }

    /// Resolves one run access — the same run repeated on `rows` rows of
    /// a row nest, or `rows = 1` for a single run — in a single pass over
    /// the dimensions. `i0`/`i1` are the access's indices at iterations 0
    /// and 1 of the first row, `ir` at iteration 0 of the second row
    /// (`i0` again for one row); per-dimension indices are affine in the
    /// iteration and the row. A `lanes`-wide vector access advances its
    /// lanes along the last dimension (matching `load_vector_into` /
    /// `store_vector`). Returns `(flat base, per-iteration flat delta,
    /// flat lane stride, flat advance per row)` after checking every
    /// dimension at the corners — first and last row, first and last
    /// iteration, lowest and highest lane — which bound every cell.
    /// Panics exactly like a scalar access to the first out-of-range
    /// corner.
    pub(crate) fn resolve_run_lanes(
        &self,
        (i0, i1, ir): (&[i64], &[i64], &[i64]),
        n: usize,
        rows: usize,
        lanes: usize,
    ) -> (isize, isize, isize, isize) {
        debug_assert_eq!(i0.len(), self.rank(), "index rank mismatch");
        let (last, last_row, wide) = ((n - 1) as i64, (rows - 1) as i64, (lanes - 1) as i64);
        let inner = i0.len() - 1;
        let (mut base, mut delta, mut row_delta) = (self.base, 0isize, 0isize);
        for d in 0..i0.len() {
            let local = i0[d] - self.origin[d];
            let (step, row_step) = (i1[d] - i0[d], ir[d] - i0[d]);
            let (run, down) = (last * step, last_row * row_step);
            let lane = if d == inner { wide } else { 0 };
            let lo = local + run.min(0) + down.min(0);
            let hi = local + run.max(0) + down.max(0) + lane;
            if lo < 0 || hi >= self.shape[d] as i64 {
                self.oob_corner((i0, i1, ir), last, last_row, wide);
            }
            base += local as isize * self.strides[d];
            delta += step as isize * self.strides[d];
            row_delta += row_step as isize * self.strides[d];
        }
        (base, delta, self.strides[inner], row_delta)
    }

    /// Outlined violation path of [`Self::resolve_run_lanes`], keeping
    /// the hot loop free of format machinery: panics like a scalar access
    /// to the first out-of-range corner, rows in order.
    #[cold]
    #[inline(never)]
    fn oob_corner(&self, (i0, i1, ir): (&[i64], &[i64], &[i64]), last: i64, last_row: i64, wide: i64) -> ! {
        for row in [0, last_row] {
            for t in [0, last] {
                for lane in [0, wide] {
                    let mut idx: Vec<i64> = (0..i0.len())
                        .map(|d| i0[d] + t * (i1[d] - i0[d]) + row * (ir[d] - i0[d]))
                        .collect();
                    *idx.last_mut().unwrap() += lane;
                    self.flat_index(&idx);
                }
            }
        }
        unreachable!("some corner of an out-of-range nest is out of range")
    }

    /// Raw non-atomic handle on the whole underlying allocation.
    pub(crate) fn tile_view(&self) -> TileView {
        TileView {
            // AtomicU64 has the same in-memory representation as u64;
            // the pointee is interior-mutable, so writing through a
            // pointer derived from the shared allocation is sound.
            ptr: self.storage.as_ptr().cast::<u64>().cast_mut(),
            len: self.storage.len(),
        }
    }

    /// The allocation this view addresses (for overlap-checker pinning).
    #[cfg(debug_assertions)]
    pub(crate) fn storage(&self) -> &Arc<[AtomicU64]> {
        &self.storage
    }

    #[inline]
    fn flat_index(&self, idx: &[i64]) -> isize {
        debug_assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut flat = self.base;
        for d in 0..idx.len() {
            let local = idx[d] - self.origin[d];
            if local < 0 || (local as usize) >= self.shape[d] {
                self.oob(idx, d);
            }
            flat += local as isize * self.strides[d];
        }
        flat
    }

    /// Outlined panic path of [`Self::flat_index`], keeping the hot
    /// loop free of format machinery.
    #[cold]
    #[inline(never)]
    fn oob(&self, idx: &[i64], d: usize) -> ! {
        panic!(
            "index {idx:?} out of bounds (dim {d}: valid [{}, {}))",
            self.origin[d],
            self.origin[d] + self.shape[d] as i64
        );
    }

    /// Bounds-checked flat index from an index iterator (no slice needed;
    /// the bytecode engine feeds register values directly).
    #[inline]
    fn flat_index_iter(&self, idx: impl IntoIterator<Item = i64>) -> isize {
        let mut flat = self.base;
        let mut d = 0usize;
        for x in idx {
            assert!(d < self.rank(), "index rank mismatch");
            let local = x - self.origin[d];
            assert!(
                local >= 0 && (local as usize) < self.shape[d],
                "index {x} out of bounds (dim {d}: valid [{}, {}))",
                self.origin[d],
                self.origin[d] + self.shape[d] as i64
            );
            flat += local as isize * self.strides[d];
            d += 1;
        }
        assert_eq!(d, self.rank(), "index rank mismatch");
        flat
    }

    /// Scalar load with indices supplied by an iterator (allocation-free
    /// for callers that hold indices in registers).
    ///
    /// # Panics
    /// Panics when the index is out of the view's valid range.
    pub fn load_iter(&self, idx: impl IntoIterator<Item = i64>) -> f64 {
        let flat = self.flat_index_iter(idx);
        f64::from_bits(self.storage[flat as usize].load(Ordering::Relaxed))
    }

    /// Scalar store with indices supplied by an iterator.
    ///
    /// # Panics
    /// Panics when the index is out of the view's valid range.
    pub fn store_iter(&self, idx: impl IntoIterator<Item = i64>, value: f64) {
        let flat = self.flat_index_iter(idx);
        overlap::note_store(&self.storage, flat as usize, 1);
        self.storage[flat as usize].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Scalar load.
    ///
    /// # Panics
    /// Panics when the index is out of the view's valid range.
    pub fn load(&self, idx: &[i64]) -> f64 {
        let flat = self.flat_index(idx);
        f64::from_bits(self.storage[flat as usize].load(Ordering::Relaxed))
    }

    /// Scalar store.
    ///
    /// # Panics
    /// Panics when the index is out of the view's valid range.
    pub fn store(&self, idx: &[i64], value: f64) {
        let flat = self.flat_index(idx);
        overlap::note_store(&self.storage, flat as usize, 1);
        self.storage[flat as usize].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Whether a `lanes`-wide run starting at `idx` along the last
    /// dimension is contiguous in storage and fully in bounds — the fast
    /// path shared by [`BufferView::load_vector`] and
    /// [`BufferView::store_vector`]: one bounds check for the whole run,
    /// then plain consecutive element accesses.
    #[inline]
    fn contiguous_run(&self, idx: &[i64], lanes: usize) -> Option<usize> {
        let last = self.rank() - 1;
        if self.strides[last] != 1 {
            return None;
        }
        let local = idx[last] - self.origin[last];
        if local < 0 || (local as usize) + lanes > self.shape[last] {
            return None;
        }
        // `flat_index` re-checks the leading dimensions (checking the
        // innermost start a second time costs nothing measurable).
        Some(self.flat_index(idx) as usize)
    }

    /// Reads `lanes` consecutive elements along the last dimension.
    pub fn load_vector(&self, idx: &[i64], lanes: usize) -> Vec<f64> {
        let mut out = vec![0.0; lanes];
        self.load_vector_into(idx, &mut out);
        out
    }

    /// Reads `out.len()` consecutive elements along the last dimension
    /// into `out` without allocating. Contiguous views (innermost stride
    /// 1) take a single-bounds-check fast path over the lane run.
    pub fn load_vector_into(&self, idx: &[i64], out: &mut [f64]) {
        if let Some(flat) = self.contiguous_run(idx, out.len()) {
            for (l, o) in out.iter_mut().enumerate() {
                *o = f64::from_bits(self.storage[flat + l].load(Ordering::Relaxed));
            }
            return;
        }
        // Strided (or out-of-range, which panics like a scalar access).
        let last = idx.len() - 1;
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.load_iter(
                idx.iter()
                    .enumerate()
                    .map(|(d, &x)| if d == last { x + l as i64 } else { x }),
            );
        }
    }

    /// Writes `values` consecutively along the last dimension. Contiguous
    /// views (innermost stride 1) take a single-bounds-check fast path.
    pub fn store_vector(&self, idx: &[i64], values: &[f64]) {
        if let Some(flat) = self.contiguous_run(idx, values.len()) {
            overlap::note_store(&self.storage, flat, values.len());
            for (l, &v) in values.iter().enumerate() {
                self.storage[flat + l].store(v.to_bits(), Ordering::Relaxed);
            }
            return;
        }
        let last = idx.len() - 1;
        for (l, &v) in values.iter().enumerate() {
            self.store_iter(
                idx.iter()
                    .enumerate()
                    .map(|(d, &x)| if d == last { x + l as i64 } else { x }),
                v,
            );
        }
    }

    /// `memref.subview`: a rectangular window re-addressed from zero.
    pub fn subview(&self, offsets: &[i64], sizes: &[usize]) -> BufferView {
        assert_eq!(offsets.len(), self.rank());
        let mut base = self.base;
        for ((&off, &origin), &stride) in offsets.iter().zip(&self.origin).zip(&self.strides) {
            base += (off - origin) as isize * stride;
        }
        BufferView {
            storage: Arc::clone(&self.storage),
            shape: sizes.to_vec(),
            strides: self.strides.clone(),
            base,
            origin: vec![0; self.rank()],
        }
    }

    /// `memref.shift_view`: the same window addressed in shifted
    /// coordinates (`view[i] = self[i - shift]`).
    pub fn shift_view(&self, shifts: &[i64]) -> BufferView {
        assert_eq!(shifts.len(), self.rank());
        let origin = self.origin.iter().zip(shifts).map(|(o, s)| o + s).collect();
        BufferView {
            storage: Arc::clone(&self.storage),
            shape: self.shape.clone(),
            strides: self.strides.clone(),
            base: self.base,
            origin,
        }
    }

    /// Copies all elements of `src` into `self` (matching shapes).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&self, src: &BufferView) {
        assert_eq!(self.shape, src.shape, "copy shape mismatch");
        // Iterate in row-major order over the view coordinates.
        let total: usize = self.shape.iter().product();
        let mut idx = vec![0i64; self.rank()];
        for _ in 0..total {
            let src_idx: Vec<i64> = idx.iter().zip(&src.origin).map(|(i, o)| i + o).collect();
            let dst_idx: Vec<i64> = idx.iter().zip(&self.origin).map(|(i, o)| i + o).collect();
            self.store(&dst_idx, src.load(&src_idx));
            // Increment odometer.
            for d in (0..self.rank()).rev() {
                idx[d] += 1;
                if (idx[d] as usize) < self.shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// Flattens the view into a row-major vector (for test assertions).
    pub fn to_vec(&self) -> Vec<f64> {
        let total: usize = self.shape.iter().product();
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0i64; self.rank()];
        for _ in 0..total {
            let full: Vec<i64> = idx.iter().zip(&self.origin).map(|(i, o)| i + o).collect();
            out.push(self.load(&full));
            for d in (0..self.rank()).rev() {
                idx[d] += 1;
                if (idx[d] as usize) < self.shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }

    /// Fills every element with a value.
    pub fn fill(&self, value: f64) {
        if self.base == 0
            && self.origin.iter().all(|&o| o == 0)
            && self.shape.iter().product::<usize>() == self.storage.len()
        {
            overlap::note_store(&self.storage, 0, self.storage.len());
            let bits = value.to_bits();
            for slot in self.storage.iter() {
                slot.store(bits, Ordering::Relaxed);
            }
        } else {
            let total: usize = self.shape.iter().product();
            let mut idx = vec![0i64; self.rank()];
            for _ in 0..total {
                let full: Vec<i64> = idx.iter().zip(&self.origin).map(|(i, o)| i + o).collect();
                self.store(&full, value);
                for d in (0..self.rank()).rev() {
                    idx[d] += 1;
                    if (idx[d] as usize) < self.shape[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        }
    }

    /// Batch-boundary residual fold: one row-major pass computing the
    /// max-norm of `self − prev` while refreshing `prev` in place with
    /// the current values. Replaces the snapshot-then-zip double pass of
    /// the eager convergence loop (one allocation and one traversal per
    /// check instead of two of each). Partial maxima are kept per
    /// fixed-size chunk and merged at the end, so the reduction tree is
    /// deterministic regardless of how the sweeps that produced `self`
    /// were scheduled. The maximum propagates NaN (unlike `f64::max`): a
    /// NaN anywhere in `self` or `prev` makes the result NaN, so a
    /// diverged field can never read as "delta 0".
    ///
    /// # Panics
    /// Panics when `prev.len()` differs from the view's element count.
    pub fn max_delta_update(&self, prev: &mut [f64]) -> f64 {
        let total: usize = self.shape.iter().product();
        assert_eq!(
            prev.len(),
            total,
            "previous snapshot has a different element count"
        );
        const CHUNK: usize = 1024;
        let mut idx = vec![0i64; self.rank()];
        let mut full = vec![0i64; self.rank()];
        let mut partials: Vec<f64> = Vec::with_capacity(total.div_ceil(CHUNK).min(4096));
        let mut chunk_max = 0.0f64;
        for (flat, prev_slot) in prev.iter_mut().enumerate() {
            for d in 0..self.rank() {
                full[d] = idx[d] + self.origin[d];
            }
            let cur = self.load(&full);
            chunk_max = max_or_nan(chunk_max, (cur - *prev_slot).abs());
            *prev_slot = cur;
            if (flat + 1) % CHUNK == 0 {
                partials.push(chunk_max);
                chunk_max = 0.0;
            }
            for d in (0..self.rank()).rev() {
                idx[d] += 1;
                if (idx[d] as usize) < self.shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        partials.push(chunk_max);
        partials.into_iter().fold(0.0, max_or_nan)
    }

    /// Maximum absolute elementwise difference against another view of the
    /// same shape.
    pub fn max_abs_diff(&self, other: &BufferView) -> f64 {
        assert_eq!(self.shape, other.shape);
        self.to_vec()
            .iter()
            .zip(other.to_vec())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// `f64::max` that propagates NaN instead of dropping it.
fn max_or_nan(a: f64, b: f64) -> f64 {
    if a >= b || a.is_nan() {
        a
    } else {
        b
    }
}

/// Debug-mode wavefront overlap checker — a lightweight race detector
/// for the Eq. (3) disjointness guarantee the non-atomic `TileView`
/// path relies on.
///
/// Every graph drain of the wavefront pool runs under one
/// [`overlap::SweepChecker`], built from the graph it drains. While a
/// unit executes (between [`overlap::SweepChecker::guard`] and the
/// guard's drop), every buffer store on that thread is recorded into a
/// thread-local set of flat-index intervals, grouped by allocation. When
/// the unit finishes, its write set is checked against the write set of
/// every finished unit the graph leaves *unordered* with it; an
/// intersection panics naming both flat blocks and the offending extent.
/// Under the level graph, units of one level are unordered and units of
/// different levels are ordered (the barrier); under the dependence
/// graph, ordering is reachability in the sweep-extended block graph.
///
/// Recorded write sets pin an `Arc` clone of each touched allocation
/// until the drain ends, so a per-block temporary freed by one block
/// cannot be re-allocated at the same address by a later block and
/// produce a false positive.
///
/// The whole module compiles to no-ops in release builds; `cargo test`
/// runs in the debug profile and so exercises it on every shipped
/// schedule by default.
#[cfg(debug_assertions)]
pub mod overlap {
    use std::cell::RefCell;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Mutex};

    /// One allocation's recorded writes: (allocation id, pinned storage,
    /// closed `[lo, hi]` flat-index intervals).
    type StorageWrites = (usize, Arc<[AtomicU64]>, Vec<(usize, usize)>);

    /// Write extents of one unit, grouped by allocation. Intervals are
    /// coalesced on the fly for the common consecutive-store case and
    /// normalized at commit.
    struct BlockWrites {
        block: usize,
        per_storage: Vec<StorageWrites>,
    }

    thread_local! {
        /// The units recording on this thread, innermost last: a drain
        /// nested in a block body records inside its enclosing block.
        static ACTIVE: RefCell<Vec<BlockWrites>> = const { RefCell::new(Vec::new()) };
    }

    /// Starts recording `block` (a checker-specific id) on the current
    /// thread.
    fn start(block: usize) {
        ACTIVE.with(|a| {
            a.borrow_mut().push(BlockWrites {
                block,
                per_storage: Vec::new(),
            });
        });
    }

    /// Stops recording the innermost unit on the current thread and
    /// yields its write set — `None` while unwinding out of a failed
    /// block, so a guard never double-panics. A nested unit's writes are
    /// its enclosing unit's writes too.
    fn finish() -> Option<BlockWrites> {
        let writes = ACTIVE.with(|a| {
            let mut stack = a.borrow_mut();
            let writes = stack.pop()?;
            if let Some(outer) = stack.last_mut() {
                for (id, storage, intervals) in &writes.per_storage {
                    for &(lo, hi) in intervals {
                        outer.push(*id, Some(storage), lo, hi - lo + 1);
                    }
                }
            }
            Some(writes)
        })?;
        (!std::thread::panicking()).then_some(writes)
    }

    /// Records a store of `len` elements at flat index `lo` (no-op
    /// outside a block guard, i.e. outside wavefront execution).
    #[inline]
    pub(crate) fn note_store(storage: &Arc<[AtomicU64]>, lo: usize, len: usize) {
        ACTIVE.with(|a| {
            if let Some(w) = a.borrow_mut().last_mut() {
                w.push(storage.as_ptr() as usize, Some(storage), lo, len);
            }
        });
    }

    /// Pins `storage` in the current block's write set so later
    /// [`note_store_raw`] calls with its id are address-stable.
    #[inline]
    pub(crate) fn pin_storage(storage: &Arc<[AtomicU64]>) {
        note_store(storage, 0, 0);
    }

    /// Records a store by allocation id only — the run-specialized path,
    /// which must have pinned the allocation via [`pin_storage`] first.
    #[inline]
    pub(crate) fn note_store_raw(id: usize, lo: usize, len: usize) {
        ACTIVE.with(|a| {
            if let Some(w) = a.borrow_mut().last_mut() {
                w.push(id, None, lo, len);
            }
        });
    }

    impl BlockWrites {
        fn push(&mut self, id: usize, storage: Option<&Arc<[AtomicU64]>>, lo: usize, len: usize) {
            let entry = match self.per_storage.iter_mut().find(|(i, _, _)| *i == id) {
                Some(e) => e,
                None => {
                    let Some(storage) = storage else {
                        debug_assert!(storage.is_some(), "raw store without pinned storage");
                        return;
                    };
                    self.per_storage.push((id, Arc::clone(storage), Vec::new()));
                    self.per_storage.last_mut().unwrap()
                }
            };
            if len == 0 {
                return;
            }
            let (lo, hi) = (lo, lo + len - 1);
            // Coalesce with the previous interval when adjacent or
            // overlapping (consecutive innermost-x stores).
            if let Some(last) = entry.2.last_mut() {
                if lo <= last.1.saturating_add(1) && last.0 <= hi.saturating_add(1) {
                    last.0 = last.0.min(lo);
                    last.1 = last.1.max(hi);
                    return;
                }
            }
            entry.2.push((lo, hi));
        }
    }

    /// Whole-drain overlap checker, one unit per node of the drained
    /// graph.
    ///
    /// * **Dependence graph** ([`SweepChecker::new`]): the units are the
    ///   `sweeps × num_blocks` sweep-qualified block executions. Within
    ///   one sweep the ordering relation is the block dependence graph.
    ///   Across sweeps, block `b` of sweep `s+1` is ordered after
    ///   `{b} ∪ succ(b)` of sweep `s` (the cross-sweep dependence pattern
    ///   of the L/U in-place split), and transitively after everything
    ///   those nodes dominate.
    /// * **Level graph** ([`SweepChecker::levels`]): the units are the
    ///   positions of the wavefront CSR. Units of one level are
    ///   unordered; units of different levels are ordered by the join
    ///   between them.
    ///
    /// Any pair of units left **unordered** may run concurrently (at some
    /// thread count, under some timing), so their write intervals must be
    /// disjoint; ordered pairs may freely reuse cells — the
    /// Acquire/Release edge of the in-degree handoff orders their writes.
    ///
    /// Ordering is decided from the relation alone, never from the task
    /// partition or the timing, so verdicts are deterministic: the same
    /// module panics (or passes) identically at every thread count,
    /// including 1 — unlike a temporal check, which would only catch
    /// races that happened to manifest.
    pub struct SweepChecker {
        /// Units per sweep (unit id = `sweep * n_units + unit`).
        n_units: usize,
        order: Order,
        done: Mutex<Vec<BlockWrites>>,
    }

    /// The ordering relation a [`SweepChecker`] judges by.
    enum Order {
        /// `ancestors[node]` bit `p` set iff node `p` transitively
        /// precedes `node`. Node ids ascend topologically: intra-sweep
        /// predecessors have lower block index, cross-sweep predecessors
        /// live in the previous sweep.
        Graph(Vec<Vec<u64>>),
        /// The level and flat block of each CSR position.
        Levels(Vec<(usize, usize)>),
    }

    impl SweepChecker {
        /// A fresh checker for one batch of `sweeps` identical sweeps
        /// over `graph`.
        pub fn new(graph: &instencil_pattern::dataflow::BlockGraph, sweeps: usize) -> Self {
            let n = graph.num_blocks();
            let nodes = n * sweeps;
            let words = nodes.div_ceil(64);
            let mut ancestors: Vec<Vec<u64>> = Vec::with_capacity(nodes);
            for node in 0..nodes {
                let (s, b) = (node / n, node % n);
                let mut bits = vec![0u64; words];
                let mut absorb = |p: usize, ancestors: &[Vec<u64>]| {
                    for (w, a) in bits.iter_mut().zip(&ancestors[p]) {
                        *w |= a;
                    }
                    bits[p / 64] |= 1 << (p % 64);
                };
                for &p in graph.predecessors(b) {
                    absorb(s * n + p as usize, &ancestors);
                }
                if s > 0 {
                    // Cross-sweep predecessors: the previous-sweep self
                    // node plus its lex-forward (successor) neighborhood.
                    absorb((s - 1) * n + b, &ancestors);
                    for &q in graph.successors(b) {
                        absorb((s - 1) * n + q as usize, &ancestors);
                    }
                }
                ancestors.push(bits);
            }
            Self::with_order(n, Order::Graph(ancestors))
        }

        /// A fresh checker for one drain of the level graph of the
        /// wavefront CSR `(row_ptr, cols)`.
        pub fn levels(row_ptr: &[i64], cols: &[i64]) -> Self {
            let units = row_ptr
                .windows(2)
                .enumerate()
                .flat_map(|(level, w)| {
                    cols[w[0] as usize..w[1] as usize].iter().map(move |&b| (level, b as usize))
                })
                .collect::<Vec<_>>();
            Self::with_order(units.len(), Order::Levels(units))
        }

        fn with_order(n_units: usize, order: Order) -> Self {
            SweepChecker {
                n_units,
                order,
                done: Mutex::new(Vec::new()),
            }
        }

        fn ordered(&self, a: usize, b: usize) -> bool {
            match &self.order {
                Order::Graph(ancestors) => {
                    let has = |anc: &[u64], x: usize| anc[x / 64] >> (x % 64) & 1 == 1;
                    has(&ancestors[b], a) || has(&ancestors[a], b)
                }
                Order::Levels(units) => units[a].0 != units[b].0,
            }
        }

        /// The `(flat block, sweep)` a unit id names.
        fn name(&self, unit: usize) -> (usize, usize) {
            let (sweep, u) = (unit / self.n_units, unit % self.n_units);
            match &self.order {
                Order::Graph(_) => (u, sweep),
                Order::Levels(units) => (units[u].1, sweep),
            }
        }

        /// Starts recording unit `unit` of sweep `sweep` on the current
        /// thread; the returned guard commits and checks the write set on
        /// drop.
        pub fn guard(&self, sweep: usize, unit: usize) -> SweepGuard<'_> {
            start(sweep * self.n_units + unit);
            SweepGuard { checker: self }
        }

        /// Checks `writes` against every committed write set the relation
        /// leaves unordered with it and commits it; returns the first
        /// collision as `(prior unit id, lo, hi)` instead.
        fn check_and_commit(&self, mut writes: BlockWrites) -> Option<(usize, usize, usize)> {
            for (_, _, intervals) in &mut writes.per_storage {
                normalize(intervals);
            }
            let mut done = self.done.lock().unwrap();
            for prior in done.iter().filter(|p| !self.ordered(p.block, writes.block)) {
                for (id, _, intervals) in &writes.per_storage {
                    let same = prior.per_storage.iter().filter(|(p, ..)| p == id);
                    for (_, _, prior_intervals) in same {
                        if let Some((lo, hi)) = intersect(intervals, prior_intervals) {
                            return Some((prior.block, lo, hi));
                        }
                    }
                }
            }
            done.push(writes);
            None
        }

        fn commit(&self, writes: BlockWrites) {
            let node = writes.block;
            let Some((prior, lo, hi)) = self.check_and_commit(writes) else {
                return;
            };
            // Commit order is nondeterministic under concurrency; report
            // the pair in (block, sweep) order.
            let (a, b) = (self.name(prior), self.name(node));
            let (a, b) = (a.min(b), a.max(b));
            panic!(
                "wavefront overlap: blocks {} and {} (of sweeps {} and {}) are \
                 unordered by the schedule's graph and both wrote flat extent \
                 [{lo}, {hi}] of one allocation — the schedule violates \
                 Eq. (3) disjointness",
                a.0, b.0, a.1, b.1,
            );
        }
    }

    /// RAII scope of one unit's recording (see [`SweepChecker::guard`]).
    pub struct SweepGuard<'a> {
        checker: &'a SweepChecker,
    }

    impl Drop for SweepGuard<'_> {
        fn drop(&mut self) {
            if let Some(writes) = finish() {
                self.checker.commit(writes);
            }
        }
    }

    /// Sorts and merges an interval list in place.
    fn normalize(intervals: &mut Vec<(usize, usize)>) {
        intervals.sort_unstable();
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(intervals.len());
        for &(lo, hi) in intervals.iter() {
            if let Some(last) = out.last_mut() {
                if lo <= last.1.saturating_add(1) {
                    last.1 = last.1.max(hi);
                    continue;
                }
            }
            out.push((lo, hi));
        }
        *intervals = out;
    }

    /// First intersection of two sorted, merged interval lists.
    fn intersect(a: &[(usize, usize)], b: &[(usize, usize)]) -> Option<(usize, usize)> {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let lo = a[i].0.max(b[j].0);
            let hi = a[i].1.min(b[j].1);
            if lo <= hi {
                return Some((lo, hi));
            }
            if a[i].1 < b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        None
    }
}

/// Release builds: the overlap checker compiles out entirely (the guard
/// is a ZST and every recording call is an empty inline function).
#[cfg(not(debug_assertions))]
pub mod overlap {
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// No-op stand-in for the debug graph-drain checker.
    pub struct SweepChecker;

    /// No-op guard.
    pub struct SweepGuard;

    impl SweepChecker {
        /// A fresh (no-op) checker.
        #[inline]
        pub fn new(_graph: &instencil_pattern::dataflow::BlockGraph, _sweeps: usize) -> Self {
            Self
        }

        /// A fresh (no-op) level-graph checker.
        #[inline]
        pub fn levels(_row_ptr: &[i64], _cols: &[i64]) -> Self {
            Self
        }

        /// No-op block scope.
        #[inline]
        pub fn guard(&self, _sweep: usize, _block: usize) -> SweepGuard {
            SweepGuard
        }
    }

    #[inline(always)]
    pub(crate) fn note_store(_storage: &Arc<[AtomicU64]>, _lo: usize, _len: usize) {}

    #[allow(dead_code)] // debug-only call sites
    #[inline(always)]
    pub(crate) fn pin_storage(_storage: &Arc<[AtomicU64]>) {}

    #[allow(dead_code)] // debug-only call sites
    #[inline(always)]
    pub(crate) fn note_store_raw(_id: usize, _lo: usize, _len: usize) {}
}

impl fmt::Debug for BufferView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BufferView(shape={:?}, origin={:?}, base={})",
            self.shape, self.origin, self.base
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed() {
        let b = BufferView::alloc(&[2, 3]);
        assert_eq!(b.to_vec(), vec![0.0; 6]);
        assert_eq!(b.dim(0), 2);
        assert_eq!(b.rank(), 2);
    }

    #[test]
    fn max_delta_update_keeps_a_nan_through_later_larger_deltas() {
        // Three chunks of the fold; the NaN sits in the middle one with
        // larger finite deltas after it, in its chunk and in the next.
        let b = BufferView::alloc(&[1, 3000]);
        b.store(&[0, 1500], f64::NAN);
        b.store(&[0, 1501], 7.0);
        b.store(&[0, 2999], 9.0);
        let mut prev = vec![0.0; 3000];
        assert!(b.max_delta_update(&mut prev).is_nan());
        assert!(prev[1500].is_nan(), "snapshot refreshed");
        b.store(&[0, 1500], 1.0);
        prev.fill(0.0);
        assert_eq!(b.max_delta_update(&mut prev), 9.0, "finite: plain max");
    }

    #[test]
    fn load_store_roundtrip() {
        let b = BufferView::alloc(&[3, 4]);
        b.store(&[1, 2], 7.5);
        assert_eq!(b.load(&[1, 2]), 7.5);
        assert_eq!(b.load(&[1, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let b = BufferView::alloc(&[2, 2]);
        let _ = b.load(&[2, 0]);
    }

    #[test]
    fn vector_access_contiguous() {
        let b = BufferView::from_data(&[2, 4], (0..8).map(f64::from).collect());
        assert_eq!(b.load_vector(&[1, 0], 4), vec![4.0, 5.0, 6.0, 7.0]);
        b.store_vector(&[0, 1], &[9.0, 8.0]);
        assert_eq!(b.to_vec()[..4], [0.0, 9.0, 8.0, 3.0]);
    }

    #[test]
    fn shift_view_global_coordinates() {
        // A 2x2 temp covering global window [3..5) x [10..12).
        let tmp = BufferView::alloc(&[2, 2]);
        let view = tmp.shift_view(&[3, 10]);
        view.store(&[3, 10], 1.0);
        view.store(&[4, 11], 2.0);
        assert_eq!(tmp.load(&[0, 0]), 1.0);
        assert_eq!(tmp.load(&[1, 1]), 2.0);
        assert!(view.aliases(&tmp));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shift_view_bounds() {
        let tmp = BufferView::alloc(&[2, 2]);
        let view = tmp.shift_view(&[3, 10]);
        let _ = view.load(&[2, 10]);
    }

    #[test]
    fn subview_windows() {
        let b = BufferView::from_data(&[3, 3], (0..9).map(f64::from).collect());
        let s = b.subview(&[1, 1], &[2, 2]);
        assert_eq!(s.to_vec(), vec![4.0, 5.0, 7.0, 8.0]);
        s.store(&[0, 0], -1.0);
        assert_eq!(b.load(&[1, 1]), -1.0);
    }

    #[test]
    fn copy_and_diff() {
        let a = BufferView::from_data(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = BufferView::alloc(&[2, 2]);
        b.copy_from(&a);
        assert_eq!(b.max_abs_diff(&a), 0.0);
        b.store(&[0, 1], 2.5);
        assert!((b.max_abs_diff(&a) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn fill_shifted_view() {
        let tmp = BufferView::alloc(&[2, 2]);
        let v = tmp.shift_view(&[5, 5]);
        v.fill(3.0);
        assert_eq!(tmp.to_vec(), vec![3.0; 4]);
    }

    #[test]
    fn disjoint_subviews_do_not_alias() {
        let b = BufferView::alloc(&[4, 8]);
        let top = b.subview(&[0, 0], &[2, 8]);
        let bottom = b.subview(&[2, 0], &[2, 8]);
        assert!(!top.aliases(&bottom), "disjoint halves must not alias");
        assert!(top.aliases(&b) && bottom.aliases(&b));
        // Overlapping windows still alias.
        let mid = b.subview(&[1, 0], &[2, 8]);
        assert!(top.aliases(&mid) && bottom.aliases(&mid));
        // Different allocations never alias.
        assert!(!b.aliases(&BufferView::alloc(&[4, 8])));
    }

    #[test]
    fn disjoint_row_segments_do_not_alias() {
        let b = BufferView::alloc(&[1, 16]);
        let left = b.subview(&[0, 0], &[1, 8]);
        let right = b.subview(&[0, 8], &[1, 8]);
        assert!(!left.aliases(&right));
        assert!(left.aliases(&left.shift_view(&[0, 3])));
    }

    #[test]
    fn empty_views_alias_nothing() {
        let b = BufferView::alloc(&[4, 4]);
        let empty = b.subview(&[1, 1], &[0, 2]);
        assert!(!empty.aliases(&b));
        assert!(!b.aliases(&empty));
        assert!(!empty.aliases(&empty));
    }

    #[test]
    fn load_iter_matches_load() {
        let b = BufferView::from_data(&[3, 4], (0..12).map(f64::from).collect());
        let v = b.subview(&[1, 1], &[2, 2]).shift_view(&[5, 5]);
        assert_eq!(v.load_iter([5i64, 6].into_iter()), v.load(&[5, 6]));
        v.store_iter([6i64, 5], -3.0);
        assert_eq!(v.load(&[6, 5]), -3.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn load_iter_bounds_checked() {
        let b = BufferView::alloc(&[2, 2]);
        let _ = b.load_iter([0i64, 2]);
    }

    #[test]
    fn vector_fast_path_matches_strided_path() {
        // A subview keeps innermost stride 1 → fast path; compare against
        // per-lane scalar loads.
        let b = BufferView::from_data(&[4, 8], (0..32).map(f64::from).collect());
        let s = b.subview(&[1, 2], &[2, 5]);
        let mut out = [0.0; 4];
        s.load_vector_into(&[1, 1], &mut out);
        let expect: Vec<f64> = (0..4).map(|l| s.load(&[1, 1 + l])).collect();
        assert_eq!(out.to_vec(), expect);
        s.store_vector(&[0, 0], &[9.0, 8.0, 7.0]);
        assert_eq!(s.load(&[0, 0]), 9.0);
        assert_eq!(s.load(&[0, 2]), 7.0);
        assert_eq!(b.load(&[1, 2]), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn vector_run_past_view_edge_panics() {
        let b = BufferView::alloc(&[2, 4]);
        let _ = b.load_vector(&[0, 2], 4);
    }

    #[test]
    fn views_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferView>();
    }

    #[test]
    fn disjoint_writes_from_threads() {
        // The safe disjoint-sub-domain write path: two threads writing
        // complementary halves through aliasing subviews.
        let b = BufferView::alloc(&[2, 8]);
        let top = b.subview(&[0, 0], &[1, 8]);
        let bottom = b.subview(&[1, 0], &[1, 8]);
        std::thread::scope(|s| {
            s.spawn(|| {
                for j in 0..8 {
                    top.store(&[0, j], j as f64);
                }
            });
            s.spawn(|| {
                for j in 0..8 {
                    bottom.store(&[0, j], -(j as f64));
                }
            });
        });
        for j in 0..8i64 {
            assert_eq!(b.load(&[0, j]), j as f64);
            assert_eq!(b.load(&[1, j]), -(j as f64));
        }
    }
}
