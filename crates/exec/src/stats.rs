//! Execution statistics collected by the interpreter.
//!
//! These counters serve two purposes: (i) white-box assertions in tests
//! (e.g. "the vectorized pipeline executes ~N/VF vector chunk bodies"),
//! and (ii) calibration inputs for the machine performance model. For
//! run reports they render as text ([`std::fmt::Display`]) or JSON
//! ([`ExecStats::to_json`]) with a few derived ratios.

use std::fmt;

use instencil_obs::Json;

/// Default vector width assumed by the derived report ratios (matches
/// the pipeline's `vf8` vectorization factor).
const REPORT_VF: u64 = 8;

/// Dynamic operation counts of one interpreted execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Scalar floating-point operations executed.
    pub scalar_flops: u64,
    /// Vector floating-point operations executed (each counts once,
    /// regardless of width).
    pub vector_flops: u64,
    /// Scalar loads.
    pub loads: u64,
    /// Scalar stores.
    pub stores: u64,
    /// Vector transfer reads.
    pub vector_loads: u64,
    /// Vector transfer writes.
    pub vector_stores: u64,
    /// Wavefront levels executed (each is a synchronization barrier).
    pub wavefront_levels: u64,
    /// Sub-domain bodies executed inside wavefronts.
    pub blocks_executed: u64,
    /// `cfd.get_parallel_blocks` schedule computations.
    pub schedules_computed: u64,
    /// Structured ops executed by reference semantics (not lowered).
    pub reference_ops: u64,
    /// Integer/index operations (loop and addressing overhead).
    pub index_ops: u64,
}

impl ExecStats {
    /// Adds another stats record into this one.
    ///
    /// Worker threads each accumulate a private `ExecStats` that the
    /// wavefront coordinator merges, so every field must participate:
    /// the exhaustive destructure makes adding a field without summing
    /// it here a compile error rather than a silent under-count.
    pub fn merge(&mut self, other: &ExecStats) {
        let ExecStats {
            scalar_flops,
            vector_flops,
            loads,
            stores,
            vector_loads,
            vector_stores,
            wavefront_levels,
            blocks_executed,
            schedules_computed,
            reference_ops,
            index_ops,
        } = *other;
        self.scalar_flops += scalar_flops;
        self.vector_flops += vector_flops;
        self.loads += loads;
        self.stores += stores;
        self.vector_loads += vector_loads;
        self.vector_stores += vector_stores;
        self.wavefront_levels += wavefront_levels;
        self.blocks_executed += blocks_executed;
        self.schedules_computed += schedules_computed;
        self.reference_ops += reference_ops;
        self.index_ops += index_ops;
    }

    /// Total dynamic floating-point work assuming `vf` lanes per vector
    /// op.
    pub fn effective_flops(&self, vf: u64) -> u64 {
        self.scalar_flops + self.vector_flops * vf
    }

    /// Total buffer traffic in `f64` elements, assuming `vf` lanes per
    /// vector transfer.
    pub fn effective_traffic(&self, vf: u64) -> u64 {
        self.loads + self.stores + (self.vector_loads + self.vector_stores) * vf
    }

    /// Mean wavefront-level width in blocks (0.0 when no level ran).
    pub fn mean_blocks_per_level(&self) -> f64 {
        if self.wavefront_levels == 0 {
            0.0
        } else {
            self.blocks_executed as f64 / self.wavefront_levels as f64
        }
    }

    /// Serializes every counter plus derived ratios (assuming
    /// `REPORT_VF`-lane vectors) for the `exec_stats` section of a
    /// run report.
    pub fn to_json(&self) -> Json {
        // Exhaustive destructure: adding a counter without reporting it
        // is a compile error, mirroring the `merge` guard.
        let ExecStats {
            scalar_flops,
            vector_flops,
            loads,
            stores,
            vector_loads,
            vector_stores,
            wavefront_levels,
            blocks_executed,
            schedules_computed,
            reference_ops,
            index_ops,
        } = *self;
        let flops = self.effective_flops(REPORT_VF);
        let traffic = self.effective_traffic(REPORT_VF);
        Json::Obj(vec![
            ("scalar_flops".into(), Json::num(scalar_flops as f64)),
            ("vector_flops".into(), Json::num(vector_flops as f64)),
            ("loads".into(), Json::num(loads as f64)),
            ("stores".into(), Json::num(stores as f64)),
            ("vector_loads".into(), Json::num(vector_loads as f64)),
            ("vector_stores".into(), Json::num(vector_stores as f64)),
            (
                "wavefront_levels".into(),
                Json::num(wavefront_levels as f64),
            ),
            ("blocks_executed".into(), Json::num(blocks_executed as f64)),
            (
                "schedules_computed".into(),
                Json::num(schedules_computed as f64),
            ),
            ("reference_ops".into(), Json::num(reference_ops as f64)),
            ("index_ops".into(), Json::num(index_ops as f64)),
            (
                "effective_flops_vf8".into(),
                Json::num(flops as f64),
            ),
            (
                "effective_traffic_vf8".into(),
                Json::num(traffic as f64),
            ),
            (
                "flops_per_element_vf8".into(),
                Json::Num(if traffic == 0 {
                    0.0
                } else {
                    flops as f64 / traffic as f64
                }),
            ),
            (
                "mean_blocks_per_level".into(),
                Json::Num(self.mean_blocks_per_level()),
            ),
        ])
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flops: {} scalar + {} vector (= {} @ vf{REPORT_VF})",
            self.scalar_flops,
            self.vector_flops,
            self.effective_flops(REPORT_VF)
        )?;
        writeln!(
            f,
            "traffic: {} loads + {} stores, {} vloads + {} vstores (= {} elems @ vf{REPORT_VF})",
            self.loads,
            self.stores,
            self.vector_loads,
            self.vector_stores,
            self.effective_traffic(REPORT_VF)
        )?;
        writeln!(
            f,
            "wavefronts: {} levels, {} blocks ({:.1} blocks/level), {} schedules",
            self.wavefront_levels,
            self.blocks_executed,
            self.mean_blocks_per_level(),
            self.schedules_computed
        )?;
        write!(
            f,
            "other: {} reference ops, {} index ops",
            self.reference_ops, self.index_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ExecStats {
            scalar_flops: 2,
            loads: 1,
            ..Default::default()
        };
        let b = ExecStats {
            scalar_flops: 3,
            stores: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.scalar_flops, 5);
        assert_eq!(a.loads, 1);
        assert_eq!(a.stores, 4);
    }

    #[test]
    fn merge_covers_every_field() {
        // Guard against field drift: fill every field with a distinct
        // value and check that merging into zero reproduces it exactly.
        // A field missing from `merge` would come back as 0 here.
        let full = ExecStats {
            scalar_flops: 1,
            vector_flops: 2,
            loads: 3,
            stores: 4,
            vector_loads: 5,
            vector_stores: 6,
            wavefront_levels: 7,
            blocks_executed: 8,
            schedules_computed: 9,
            reference_ops: 10,
            index_ops: 11,
        };
        let mut acc = ExecStats::default();
        acc.merge(&full);
        assert_eq!(acc, full);
        acc.merge(&full);
        let double = ExecStats {
            scalar_flops: 2,
            vector_flops: 4,
            loads: 6,
            stores: 8,
            vector_loads: 10,
            vector_stores: 12,
            wavefront_levels: 14,
            blocks_executed: 16,
            schedules_computed: 18,
            reference_ops: 20,
            index_ops: 22,
        };
        assert_eq!(acc, double);
    }

    #[test]
    fn effective_flops_scales_vectors() {
        let s = ExecStats {
            scalar_flops: 10,
            vector_flops: 3,
            ..Default::default()
        };
        assert_eq!(s.effective_flops(8), 34);
    }

    #[test]
    fn json_covers_every_field_plus_derived_ratios() {
        let full = ExecStats {
            scalar_flops: 1,
            vector_flops: 2,
            loads: 3,
            stores: 4,
            vector_loads: 5,
            vector_stores: 6,
            wavefront_levels: 7,
            blocks_executed: 8,
            schedules_computed: 9,
            reference_ops: 10,
            index_ops: 11,
        };
        let json = full.to_json();
        for key in [
            "scalar_flops",
            "vector_flops",
            "loads",
            "stores",
            "vector_loads",
            "vector_stores",
            "wavefront_levels",
            "blocks_executed",
            "schedules_computed",
            "reference_ops",
            "index_ops",
        ] {
            assert!(json.get(key).is_some(), "missing counter `{key}`");
        }
        assert_eq!(
            json.get("effective_flops_vf8").unwrap().as_f64(),
            Some(17.0) // 1 + 2*8
        );
        assert_eq!(
            json.get("effective_traffic_vf8").unwrap().as_f64(),
            Some(95.0) // 3 + 4 + (5+6)*8
        );
        assert_eq!(
            json.get("mean_blocks_per_level").unwrap().as_f64(),
            Some(8.0 / 7.0)
        );
        // The document round-trips through the in-tree parser.
        let text = json.to_string();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn display_renders_counters_and_handles_empty() {
        let s = ExecStats {
            scalar_flops: 12,
            loads: 3,
            wavefront_levels: 2,
            blocks_executed: 6,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("12 scalar"));
        assert!(text.contains("3.0 blocks/level"));
        // Zero stats must not divide by zero anywhere.
        let empty = ExecStats::default().to_string();
        assert!(empty.contains("0.0 blocks/level"));
        assert_eq!(ExecStats::default().mean_blocks_per_level(), 0.0);
    }
}
