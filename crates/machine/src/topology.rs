//! Machine descriptions for the performance model.
//!
//! The preset mirrors the paper's evaluation platform (§4): a dual-socket
//! Intel Xeon Gold 6152 — 44 cores across 4 NUMA nodes (11 cores each),
//! 2.1 GHz, two AVX-512 units per core, 32 KB L1D and 1 MB L2 per core,
//! 32 MB shared L3 per NUMA node.
//!
//! The §4 thread-count sweeps (up to 44 threads, far beyond the host's
//! cores) are evaluated on this model (see DESIGN.md §2); the model
//! consumes op mixes measured from the *actual* generated code and the
//! *actual* wavefront schedules, so relative results derive from real
//! compiled structure. The executor does not consult it.

/// A machine model: topology plus calibrated cost constants.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Human-readable name.
    pub name: String,
    /// Total physical cores.
    pub cores: usize,
    /// NUMA nodes (L3 + memory-controller domains).
    pub numa_nodes: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// f64 lanes of one vector unit (8 for AVX-512).
    pub vector_lanes: usize,
    /// Scalar floating-point ops retired per cycle per core.
    pub scalar_flops_per_cycle: f64,
    /// Vector floating-point ops retired per cycle per core.
    pub vector_ops_per_cycle: f64,
    /// Scalar loads/stores per cycle per core.
    pub mem_ops_per_cycle: f64,
    /// L2 cache per core, bytes (the §2.1 capacity budget).
    pub l2_bytes: usize,
    /// L3 cache per NUMA node, bytes.
    pub l3_bytes_per_numa: usize,
    /// Sustainable DRAM bandwidth per NUMA node, bytes/second.
    pub dram_bw_per_numa: f64,
    /// Base cost of one synchronization barrier, seconds.
    pub barrier_base_s: f64,
    /// Additional barrier cost per participating thread, seconds.
    pub barrier_per_thread_s: f64,
    /// Multiplier on barrier cost when threads span multiple NUMA nodes.
    pub barrier_numa_factor: f64,
    /// Relative slowdown of strided/gather vector accesses.
    pub gather_penalty: f64,
    /// Relative cost of cache-unfriendly (parallelogram / partial) tiles:
    /// extra control flow and failed vectorization at tile boundaries.
    pub partial_tile_overhead: f64,
}

impl Machine {
    /// Cores per NUMA node.
    pub fn cores_per_numa(&self) -> usize {
        self.cores / self.numa_nodes
    }

    /// NUMA nodes spanned by a thread count (threads fill nodes in
    /// order, as under `OMP_PLACES=cores` pinning).
    pub fn numa_span(&self, threads: usize) -> usize {
        threads
            .div_ceil(self.cores_per_numa())
            .clamp(1, self.numa_nodes)
    }

    /// Aggregate DRAM bandwidth available to `threads` threads,
    /// bytes/second.
    pub fn bandwidth(&self, threads: usize) -> f64 {
        self.dram_bw_per_numa * self.numa_span(threads) as f64
    }

    /// Cost of one barrier among `threads` threads, seconds.
    pub fn barrier_cost(&self, threads: usize) -> f64 {
        let base = self.barrier_base_s + self.barrier_per_thread_s * threads as f64;
        if self.numa_span(threads) > 1 {
            base * self.barrier_numa_factor
        } else {
            base
        }
    }

    /// Cycle time in seconds.
    pub fn cycle_s(&self) -> f64 {
        1e-9 / self.freq_ghz
    }
}

/// The paper's dual-socket Xeon Gold 6152 (§4).
///
/// Cost constants are calibrated so the *shapes* of the paper's results
/// hold (see DESIGN.md §6): measured STREAM-class bandwidth per NUMA node
/// of such systems is ≈ 40 GB/s; OpenMP barrier latencies are a few
/// microseconds and grow across sockets.
pub fn xeon_6152_dual() -> Machine {
    Machine {
        name: "2x Intel Xeon Gold 6152".into(),
        cores: 44,
        numa_nodes: 4,
        freq_ghz: 2.1,
        vector_lanes: 8,
        scalar_flops_per_cycle: 2.0,
        vector_ops_per_cycle: 2.0,
        mem_ops_per_cycle: 2.0,
        l2_bytes: 1 << 20,
        l3_bytes_per_numa: 32 << 20,
        dram_bw_per_numa: 40.0e9,
        barrier_base_s: 0.8e-6,
        barrier_per_thread_s: 0.03e-6,
        barrier_numa_factor: 2.0,
        gather_penalty: 4.0,
        partial_tile_overhead: 1.35,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_topology() {
        let m = xeon_6152_dual();
        assert_eq!(m.cores, 44);
        assert_eq!(m.cores_per_numa(), 11);
        assert_eq!(m.numa_span(1), 1);
        assert_eq!(m.numa_span(11), 1);
        assert_eq!(m.numa_span(12), 2);
        assert_eq!(m.numa_span(44), 4);
        assert_eq!(m.numa_span(100), 4);
    }

    #[test]
    fn bandwidth_scales_with_numa_span() {
        let m = xeon_6152_dual();
        assert_eq!(m.bandwidth(1), 40.0e9);
        assert_eq!(m.bandwidth(22), 80.0e9);
        assert_eq!(m.bandwidth(44), 160.0e9);
    }

    #[test]
    fn barrier_grows_across_numa() {
        let m = xeon_6152_dual();
        assert!(m.barrier_cost(10) < m.barrier_cost(12));
        assert!(m.barrier_cost(44) > 2.0 * m.barrier_cost(11));
    }

    #[test]
    fn cycle_time() {
        let m = xeon_6152_dual();
        assert!((m.cycle_s() - 1.0 / 2.1e9).abs() < 1e-18);
    }
}
