//! Core and SoC configurations, transcribed from Table III of the paper.

/// Pipeline organisation of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// In-order single-issue pipeline (Rocket-class).
    InOrder,
    /// Out-of-order superscalar pipeline (BOOM-class).
    OutOfOrder,
}

/// Branch-predictor class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchPredictor {
    /// GShare predictor (weak EMS core).
    GShare,
    /// TAGE predictor (CS and stronger EMS cores).
    Tage,
}

/// A core configuration row from Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Human-readable name ("CS", "EMS-weak", ...).
    pub name: String,
    /// Pipeline organisation.
    pub pipeline: PipelineKind,
    /// Fetch width (instructions per cycle).
    pub fetch_width: u32,
    /// Decode width.
    pub decode_width: u32,
    /// Memory / integer / floating-point issue ports.
    pub ports: (u32, u32, u32),
    /// BTB entries.
    pub btb_entries: u32,
    /// Branch history table entries.
    pub bht_entries: u32,
    /// Branch predictor class.
    pub predictor: BranchPredictor,
    /// Physical registers (int, fp); `None` for in-order cores.
    pub phys_regs: Option<(u32, u32)>,
    /// ROB / store-queue / load-queue entries; `None` for in-order cores.
    pub rob_stq_ldq: Option<(u32, u32, u32)>,
    /// I-TLB / D-TLB / L2-TLB entries.
    pub tlb_entries: (u32, u32, u32),
    /// L1 I/D cache sizes in KiB.
    pub l1_kib: (u32, u32),
    /// L2 cache size in KiB.
    pub l2_kib: u32,
}

impl CoreConfig {
    /// The CS (computing subsystem) core: 8-wide BOOM-class OoO.
    pub fn cs() -> CoreConfig {
        CoreConfig {
            name: "CS".into(),
            pipeline: PipelineKind::OutOfOrder,
            fetch_width: 8,
            decode_width: 4,
            ports: (2, 3, 1),
            btb_entries: 256 * 4,
            bht_entries: 2048,
            predictor: BranchPredictor::Tage,
            phys_regs: Some((128, 128)),
            rob_stq_ldq: Some((128, 32, 32)),
            tlb_entries: (32, 32, 1024),
            l1_kib: (64, 64),
            l2_kib: 1024,
        }
    }

    /// The *weak* EMS core: single-issue in-order (Rocket-class).
    pub fn ems_weak() -> CoreConfig {
        CoreConfig {
            name: "EMS-weak".into(),
            pipeline: PipelineKind::InOrder,
            fetch_width: 1,
            decode_width: 1,
            ports: (1, 1, 1),
            btb_entries: 128,
            bht_entries: 512,
            predictor: BranchPredictor::GShare,
            phys_regs: None,
            rob_stq_ldq: None,
            tlb_entries: (8, 8, 0),
            l1_kib: (16, 16),
            l2_kib: 256,
        }
    }

    /// The *medium* EMS core: 4-wide OoO.
    pub fn ems_medium() -> CoreConfig {
        CoreConfig {
            name: "EMS-medium".into(),
            pipeline: PipelineKind::OutOfOrder,
            fetch_width: 4,
            decode_width: 2,
            ports: (1, 2, 1),
            btb_entries: 128 * 2,
            bht_entries: 1024,
            predictor: BranchPredictor::Tage,
            phys_regs: Some((96, 96)),
            rob_stq_ldq: Some((96, 16, 16)),
            tlb_entries: (16, 16, 0),
            l1_kib: (32, 32),
            l2_kib: 512,
        }
    }

    /// The *strong* EMS core: 8-wide OoO, CS-class front end.
    pub fn ems_strong() -> CoreConfig {
        CoreConfig {
            name: "EMS-strong".into(),
            pipeline: PipelineKind::OutOfOrder,
            fetch_width: 8,
            decode_width: 4,
            ports: (2, 3, 1),
            btb_entries: 256 * 4,
            bht_entries: 2048,
            predictor: BranchPredictor::Tage,
            phys_regs: Some((128, 128)),
            rob_stq_ldq: Some((128, 32, 32)),
            tlb_entries: (32, 32, 0),
            l1_kib: (64, 64),
            l2_kib: 512,
        }
    }

    /// Effective sustained IPC for enclave-management-style integer code.
    ///
    /// Fig. 7 of the paper measures 5.7% / 2.0% / 1.9% enclave overhead for
    /// the weak / medium / strong configurations; the 2.85× weak:medium and
    /// 1.05× medium:strong ratios below are chosen to reproduce exactly that
    /// spread (management-task code is branchy integer work that barely
    /// benefits from the strong core's extra width).
    pub fn management_ipc(&self) -> f64 {
        match (self.pipeline, self.fetch_width) {
            (PipelineKind::InOrder, _) => 0.60,
            (PipelineKind::OutOfOrder, f) if f >= 8 => 1.80,
            (PipelineKind::OutOfOrder, _) => 1.71,
        }
    }
}

/// EMS cluster choice (count × core class), as explored in Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct EmsCluster {
    /// Number of EMS cores.
    pub cores: u32,
    /// Configuration of each core.
    pub core: CoreConfig,
}

impl EmsCluster {
    /// Single weak in-order core (paper: sufficient for ≤4-core CS).
    pub fn single_inorder() -> EmsCluster {
        EmsCluster {
            cores: 1,
            core: CoreConfig::ems_weak(),
        }
    }

    /// Dual weak in-order cores (paper: sufficient for a 16-core desktop CS).
    pub fn dual_inorder() -> EmsCluster {
        EmsCluster {
            cores: 2,
            core: CoreConfig::ems_weak(),
        }
    }

    /// Dual medium OoO cores (paper: sufficient for 32/64-core CS).
    pub fn dual_ooo() -> EmsCluster {
        EmsCluster {
            cores: 2,
            core: CoreConfig::ems_medium(),
        }
    }

    /// Quad medium OoO cores (Fig. 6's diminishing-returns upper point).
    pub fn quad_ooo() -> EmsCluster {
        EmsCluster {
            cores: 4,
            core: CoreConfig::ems_medium(),
        }
    }
}

/// Whole-SoC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Number of CS cores.
    pub cs_cores: u32,
    /// EMS cluster.
    pub ems: EmsCluster,
    /// Whether the EMS crypto engine is present (Table IV toggles this).
    pub crypto_engine: bool,
    /// Physical memory size in bytes managed by the machine model.
    pub phys_mem_bytes: u64,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            cs_cores: 4,
            ems: EmsCluster {
                cores: 1,
                core: CoreConfig::ems_medium(),
            },
            crypto_engine: true,
            phys_mem_bytes: 256 * 1024 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_parameters_transcribed() {
        let cs = CoreConfig::cs();
        assert_eq!(cs.fetch_width, 8);
        assert_eq!(cs.rob_stq_ldq, Some((128, 32, 32)));
        assert_eq!(cs.l2_kib, 1024);
        let weak = CoreConfig::ems_weak();
        assert_eq!(weak.pipeline, PipelineKind::InOrder);
        assert_eq!(weak.l1_kib, (16, 16));
        assert_eq!(weak.predictor, BranchPredictor::GShare);
        let medium = CoreConfig::ems_medium();
        assert_eq!(medium.phys_regs, Some((96, 96)));
        let strong = CoreConfig::ems_strong();
        assert_eq!(strong.l2_kib, 512);
    }

    #[test]
    fn ipc_ordering_matches_config_strength() {
        let weak = CoreConfig::ems_weak().management_ipc();
        let medium = CoreConfig::ems_medium().management_ipc();
        let strong = CoreConfig::ems_strong().management_ipc();
        assert!(weak < medium);
        assert!(medium < strong);
        // Medium and strong must be close (paper: only 0.1% apart in Fig. 7).
        assert!(strong / medium < 1.10);
    }

    #[test]
    fn cluster_presets() {
        assert_eq!(EmsCluster::single_inorder().cores, 1);
        assert_eq!(
            EmsCluster::dual_ooo().core.pipeline,
            PipelineKind::OutOfOrder
        );
        assert_eq!(EmsCluster::quad_ooo().cores, 4);
    }
}
