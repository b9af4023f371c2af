//! The whole simulated SoC: CS harts, EMCall, iHub, EMS, and memory.

use hypertee_emcall::{EmCall, EmCallError, HartState};
use hypertee_ems::boot::{provision_flash, secure_boot, BootError, BootReport};
use hypertee_ems::keys::EFuse;
use hypertee_ems::runtime::Ems;
use hypertee_fabric::ihub::IHub;
use hypertee_fabric::message::{Primitive, Response, Status};
use hypertee_faults::{FaultPlan, FaultStats};
use hypertee_mem::addr::{PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::audit::{AuditError, ConsistencyAudit};
use hypertee_mem::pagetable::{PageTable, Perms};
use hypertee_mem::phys::FrameAllocator;
use hypertee_mem::system::MemorySystem;
use hypertee_mem::MemFault;
use hypertee_sim::clock::Cycles;
use hypertee_sim::config::SocConfig;
use hypertee_sim::latency::LatencyBook;
use std::collections::BTreeMap;

/// SDK-side record of a created enclave.
#[derive(Debug, Clone, Copy)]
pub struct EnclaveInfo {
    /// EMS-assigned enclave id.
    pub eid: u64,
    /// Physical base of the HostApp shared window.
    pub host_window_pa: PhysAddr,
    /// Window size in bytes.
    pub host_window_bytes: u64,
    /// Loaded image size in bytes.
    pub image_bytes: u64,
    /// Statically allocated stack size in bytes (ABI setup for programs).
    pub stack_bytes: u64,
}

/// A handle to a created enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclaveHandle(pub u64);

/// Machine-level errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// EMCall blocked the request at the gate.
    Gate(EmCallError),
    /// EMS answered with a failure status.
    Primitive(Status),
    /// A memory fault during host-side staging or access.
    Mem(MemFault),
    /// Secure boot failed.
    Boot(BootError),
    /// The CS OS ran out of physical frames.
    OutOfMemory,
    /// A hart was in the wrong mode for the operation.
    WrongMode,
    /// Unknown enclave handle.
    UnknownEnclave,
    /// The primitive round trip kept failing (lost packets, repeated
    /// aborts) past the retry budget of [`RetryPolicy`].
    Timeout,
    /// The submission was shed at the gate: the EMS backlog exceeded
    /// [`DegradePolicy::shed_backlog_limit`]. Nothing was enqueued — the
    /// caller should back off and resubmit later.
    Backpressure,
    /// The call outlived [`DegradePolicy::deadline`] on the submitting
    /// hart's clock and was expired by the pipeline watchdog (terminal:
    /// the request will not be retried further).
    DeadlineExpired,
    /// A sharded machine was constructed on an invalid memory-partition
    /// map (overlapping, empty, or mis-sized shard slices) — see
    /// [`crate::shard::ShardedMachine`].
    Partition(hypertee_mem::partition::PartitionError),
}

impl From<EmCallError> for MachineError {
    fn from(e: EmCallError) -> Self {
        MachineError::Gate(e)
    }
}

impl From<MemFault> for MachineError {
    fn from(e: MemFault) -> Self {
        MachineError::Mem(e)
    }
}

impl core::fmt::Display for MachineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineError::Gate(e) => write!(f, "gate: {e}"),
            MachineError::Primitive(s) => write!(f, "primitive failed: {s:?}"),
            MachineError::Mem(m) => write!(f, "memory fault: {m}"),
            MachineError::Boot(b) => write!(f, "boot failed: {b}"),
            MachineError::OutOfMemory => write!(f, "out of physical memory"),
            MachineError::WrongMode => write!(f, "hart in wrong mode"),
            MachineError::UnknownEnclave => write!(f, "unknown enclave handle"),
            MachineError::Timeout => write!(f, "primitive retries exhausted"),
            MachineError::Backpressure => write!(f, "submission shed: EMS backlog saturated"),
            MachineError::DeadlineExpired => write!(f, "request deadline expired"),
            MachineError::Partition(p) => write!(f, "invalid shard partition: {p}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Shorthand result.
pub type MachineResult<T> = Result<T, MachineError>;

/// How stubbornly [`Machine::invoke`] chases a response.
///
/// A fault-free round trip completes within one or two polls, so the poll
/// budget only bites when a packet was dropped, corrupted, or delayed by an
/// injected fault. Each retry resubmits the request under the *same*
/// `req_id`, which the EMS response cache makes idempotent, and charges an
/// exponentially growing back-off to the machine clock.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Poll iterations per attempt before the request is declared lost.
    pub poll_budget: u32,
    /// Resubmissions after the first attempt before giving up with
    /// [`MachineError::Timeout`].
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            poll_budget: 32,
            max_retries: 6,
        }
    }
}

/// Graceful-degradation knobs for the pipeline under overload and faults.
///
/// Both default to `None`, which disables the machinery entirely: a machine
/// that never sets them behaves exactly as before (no shed, no expiry —
/// only the bounded [`RetryPolicy`] limits a faulted call's lifetime).
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradePolicy {
    /// When the request backlog (mailbox + EMS Rx ring) is at or above this
    /// at submission time, [`Machine::submit`] sheds the call with
    /// [`MachineError::Backpressure`] instead of enqueueing it.
    pub shed_backlog_limit: Option<usize>,
    /// Total per-call lifetime budget on the submitting hart's clock. A
    /// call still in flight past this is expired by the pump watchdog with
    /// the terminal [`MachineError::DeadlineExpired`].
    pub deadline: Option<Cycles>,
}

/// The simulated HyperTEE SoC.
pub struct Machine {
    /// SoC memory (physical memory, bitmap, encryption engine).
    pub sys: MemorySystem,
    /// The fabric hub (mailbox + DMA whitelist).
    pub hub: IHub,
    /// The trusted call gate.
    pub emcall: EmCall,
    /// The enclave management subsystem.
    pub ems: Ems,
    /// CS harts.
    pub harts: Vec<HartState>,
    /// The CS OS frame allocator.
    pub os: FrameAllocator,
    /// The shared host address space.
    pub host_table: PageTable,
    /// The secure-boot report.
    pub boot_report: BootReport,
    /// SoC configuration.
    pub config: SocConfig,
    /// The timing calibration used for live cycle accounting.
    pub book: LatencyBook,
    /// Poll/retry budget for primitive round trips under faults.
    pub retry: RetryPolicy,
    /// Load-shedding and deadline policy (disabled by default).
    pub degrade: DegradePolicy,
    /// Simulated-time clock: the max-merge over the per-hart clocks, so
    /// functional runs also report SoC (wall) time.
    pub clock: Cycles,
    /// Which interpreter path [`Machine::run_enclave_program`] uses (the
    /// decoded-block fast path by default; the seed oracle for
    /// differential runs). Charges are bit-identical either way.
    pub interp: crate::exec::InterpMode,
    /// Per-hart simulated clocks: each hart accrues its own request
    /// latencies, so concurrent submissions overlap instead of serializing.
    pub(crate) hart_clock: Vec<Cycles>,
    /// Per-hart decoded-instruction caches (they outlive individual
    /// program runs, like real icache state across time slices).
    pub(crate) icaches: Vec<hypertee_cpu::dicache::DecodeCache>,
    /// Async request pipeline state (see [`crate::pipeline`]).
    pub(crate) pipeline: crate::pipeline::Pipeline,
    /// When set, [`Machine::pump`] routes through the retained O(n) scan
    /// scheduler ([`Machine::pump_ref`]) instead of the event-driven core —
    /// the differential-oracle mode of the chaos/serving campaigns.
    pub(crate) scan_scheduler: bool,
    pub(crate) enclaves: BTreeMap<u64, EnclaveInfo>,
    pub(crate) next_host_va: u64,
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Machine {{ harts: {}, enclaves: {}, os_allocated: {} }}",
            self.harts.len(),
            self.enclaves.len(),
            self.os.allocated
        )
    }
}

/// The canonical firmware images of this reproduction, "verified" by the
/// secure-boot chain at every machine start.
pub mod firmware {
    /// The EMS runtime image placed in private flash.
    pub const EMS_RUNTIME: &[u8] =
        b"HyperTEE EMS Runtime v1 (reproduction of the 3843-line Rust runtime)";
    /// The EMCall firmware hash-anchored in the EEPROM.
    pub const EMCALL: &[u8] = b"HyperTEE EMCall machine-mode firmware v1";
    /// The flash-encryption key for this device family.
    pub const FLASH_KEY: [u8; 16] = *b"hypertee-flash-k";
}

impl Machine {
    /// Boots a machine with the default SoC configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics if the canonical firmware fails secure boot (unreachable with
    /// pristine images).
    pub fn boot_default() -> Machine {
        Machine::boot(SocConfig::default(), 0x4859_5045).expect("pristine firmware boots")
    }

    /// Runs the secure-boot chain and assembles the SoC.
    ///
    /// # Errors
    ///
    /// [`MachineError::Boot`] when an image fails verification.
    pub fn boot(config: SocConfig, seed: u64) -> MachineResult<Machine> {
        // Manufacturing: provision flash + EEPROM + eFuse.
        let (flash, mut eeprom, _) = provision_flash(&firmware::FLASH_KEY, firmware::EMS_RUNTIME);
        eeprom.emcall_hash = hypertee_crypto::sha256::sha256(firmware::EMCALL);
        let report = secure_boot(&firmware::FLASH_KEY, &flash, &eeprom, firmware::EMCALL)
            .map_err(MachineError::Boot)?;
        let mut efuse_rng = hypertee_crypto::chacha::ChaChaRng::from_u64(seed ^ efu5e_u64());
        let efuse = EFuse::burn(&mut efuse_rng);

        let mut sys = MemorySystem::new(config.phys_mem_bytes, PhysAddr(0x10_000));
        let total = sys.phys.total_frames();
        let (hub, cap) = IHub::new();
        let ems = Ems::new(cap, efuse, report.platform_measurement, seed);
        // OS manages frames above the firmware/bitmap reservation.
        let mut os = FrameAllocator::new(Ppn(64), Ppn(total));
        let host_table = PageTable::new(&mut os, &mut sys.phys);
        let tlb_entries = 32;
        let cs_cores = config.cs_cores as usize;
        let ems_cores = config.ems.cores;
        let mut harts = Vec::new();
        for i in 0..config.cs_cores {
            let mut h = HartState::new(i, tlb_entries);
            h.mmu.switch_table(Some(host_table), false);
            harts.push(h);
        }
        Ok(Machine {
            sys,
            hub,
            emcall: EmCall::new(),
            ems,
            harts,
            os,
            host_table,
            boot_report: report,
            config,
            book: LatencyBook::default(),
            retry: RetryPolicy::default(),
            degrade: DegradePolicy::default(),
            clock: Cycles::ZERO,
            interp: crate::exec::InterpMode::default(),
            hart_clock: vec![Cycles::ZERO; cs_cores],
            icaches: (0..cs_cores)
                .map(|_| {
                    hypertee_cpu::dicache::DecodeCache::new(hypertee_cpu::dicache::DEFAULT_LINES)
                })
                .collect(),
            pipeline: crate::pipeline::Pipeline::new(ems_cores, seed),
            scan_scheduler: false,
            enclaves: BTreeMap::new(),
            next_host_va: 0x7000_0000,
        })
    }

    /// Selects the scheduler [`Machine::pump`] routes through: the
    /// event-driven core (default) or the retained O(n) scan oracle
    /// ([`Machine::pump_ref`]). The two are bit-identical in every
    /// observable effect — this switch exists so whole campaigns (including
    /// every `invoke`-internal round) can run on the oracle for
    /// differential replay gates.
    pub fn set_scan_scheduler(&mut self, scan: bool) {
        self.scan_scheduler = scan;
    }

    /// Crashes and warm-restarts the EMS firmware (a scripted
    /// [`hypertee_faults::FaultKind::EmsCrash`]): the Rx task queue is
    /// lost and the free-KeyID list is reconstructed from the authoritative
    /// tables. Returns how many staged requests were dropped — the
    /// pipeline's loss detection resubmits each under its original req_id,
    /// so no request is ever executed twice or lost for good.
    pub fn crash_restart_ems(&mut self) -> usize {
        self.ems.crash_restart()
    }

    /// Arms every fault site in the SoC — mailbox, DMA whitelist, and the
    /// EMS runtime — from one replayable seed-driven plan.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.hub.arm_faults(plan);
        self.ems.arm_faults(plan);
    }

    /// Merged injected-fault statistics across the fabric and EMS sites.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.hub.fault_stats();
        stats.merge(self.ems.fault_stats());
        stats
    }

    /// Runs the cross-structure consistency audit over the live machine:
    /// enclave bitmap vs ownership table vs pool free list vs the page
    /// tables of every non-poisoned enclave.
    ///
    /// # Errors
    ///
    /// The first [`AuditError`] invariant violation found.
    pub fn audit(&mut self) -> Result<ConsistencyAudit, AuditError> {
        let tables = self.ems.audit_tables();
        ConsistencyAudit::run(
            &mut self.sys,
            self.ems.ownership(),
            self.ems.pool().free_list(),
            self.ems.pool().used_frames(),
            &tables,
        )
    }

    /// Invokes one enclave primitive from `hart_id` synchronously: a thin
    /// wrapper over the asynchronous pipeline ([`Machine::submit`] followed
    /// by [`Machine::pump`] until the call completes). Recovery semantics
    /// are the pipeline's: a response lost past [`RetryPolicy::poll_budget`]
    /// polls is resubmitted under the same `req_id` (the EMS response cache
    /// makes replays idempotent), an [`Status::Aborted`] response triggers a
    /// fresh submission, both after an exponential back-off charged to the
    /// hart's clock.
    ///
    /// # Errors
    ///
    /// [`MachineError::Gate`] for cross-privilege calls,
    /// [`MachineError::Primitive`] for EMS-side failures, and
    /// [`MachineError::Timeout`] when [`RetryPolicy::max_retries`]
    /// resubmissions still produced no completion.
    pub fn invoke(
        &mut self,
        hart_id: usize,
        primitive: Primitive,
        args: Vec<u64>,
        payload: Vec<u8>,
    ) -> MachineResult<Response> {
        let call = self.submit(hart_id, primitive, args, payload)?;
        loop {
            self.pump();
            if let Some(done) = self.take_completion(call) {
                return done.result;
            }
        }
    }

    /// The enclave currently entered on a hart, if any (state inspection
    /// for external checkers such as the lockstep reference model).
    pub fn current_enclave(&self, hart_id: usize) -> Option<u64> {
        self.harts[hart_id].current_enclave.map(|e| e.0)
    }

    /// Read-only lifecycle snapshots of every live enclave, in id order
    /// (forwarded from the EMS runtime for one-stop state inspection).
    pub fn enclave_views(&self) -> Vec<hypertee_ems::runtime::EnclaveView> {
        self.ems.enclave_views()
    }

    /// The platform's endorsement public key (pinned by remote verifiers).
    pub fn ek_public(&self) -> hypertee_crypto::sig::PublicKey {
        self.ems.ek_public()
    }

    /// SDK bookkeeping for a handle.
    pub fn enclave_info(&self, handle: EnclaveHandle) -> MachineResult<EnclaveInfo> {
        self.enclaves
            .get(&handle.0)
            .copied()
            .ok_or(MachineError::UnknownEnclave)
    }

    /// Maps `n` fresh OS frames into the host address space read-write and
    /// returns the base VA (host user memory for apps and attacks).
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfMemory`] when frames run out.
    pub fn map_host_region(&mut self, n: u64) -> MachineResult<(VirtAddr, Ppn)> {
        let base_ppn = self
            .os
            .alloc_contiguous(n)
            .ok_or(MachineError::OutOfMemory)?;
        let base_va = VirtAddr(self.next_host_va);
        self.next_host_va += n * PAGE_SIZE;
        for i in 0..n {
            self.host_table
                .map(
                    VirtAddr(base_va.0 + i * PAGE_SIZE),
                    Ppn(base_ppn.0 + i),
                    Perms::RW,
                    hypertee_mem::addr::KeyId::HOST,
                    &mut self.os,
                    &mut self.sys.phys,
                )
                .map_err(MachineError::Mem)?;
        }
        Ok((base_va, base_ppn))
    }

    /// Host-mode virtual store from `hart_id` (splits at page boundaries).
    ///
    /// # Errors
    ///
    /// Propagates translation and data-path faults.
    pub fn vm_store(&mut self, hart_id: usize, va: VirtAddr, data: &[u8]) -> MachineResult<()> {
        let mut off = 0usize;
        while off < data.len() {
            let cur = VirtAddr(va.0 + off as u64);
            let room = (PAGE_SIZE - cur.offset()) as usize;
            let take = room.min(data.len() - off);
            let pa = self.harts[hart_id]
                .mmu
                .store_traced(&mut self.sys, cur, &data[off..off + take])
                .map_err(MachineError::Mem)?;
            // A host store may rewrite code any hart has decoded.
            for icache in &mut self.icaches {
                icache.invalidate_range(pa.0, take as u64);
            }
            off += take;
        }
        Ok(())
    }

    /// Decoded-instruction-cache counters for `hart_id` (observability).
    pub fn icache_stats(&self, hart_id: usize) -> hypertee_cpu::dicache::DicacheStats {
        self.icaches[hart_id].stats
    }

    /// Host-mode virtual load from `hart_id` (splits at page boundaries).
    ///
    /// # Errors
    ///
    /// Propagates translation and data-path faults.
    pub fn vm_load(&mut self, hart_id: usize, va: VirtAddr, buf: &mut [u8]) -> MachineResult<()> {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = VirtAddr(va.0 + off as u64);
            let room = (PAGE_SIZE - cur.offset()) as usize;
            let take = room.min(buf.len() - off);
            self.harts[hart_id]
                .mmu
                .load(&mut self.sys, cur, &mut buf[off..off + take])
                .map_err(MachineError::Mem)?;
            off += take;
        }
        Ok(())
    }
}

/// Constant mixer for the eFuse seed (avoids colliding with the EMS seed).
fn efu5e_u64() -> u64 {
    0x0ef5_0e00_0000_0001
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_produces_working_machine() {
        let m = Machine::boot_default();
        assert_eq!(m.harts.len(), SocConfig::default().cs_cores as usize);
        assert_eq!(m.boot_report.stages.len(), 4);
    }

    #[test]
    fn boot_with_tampered_firmware_fails() {
        // Direct chain check: a modified EMCall image is refused.
        let (flash, mut eeprom, _) = provision_flash(&firmware::FLASH_KEY, firmware::EMS_RUNTIME);
        eeprom.emcall_hash = hypertee_crypto::sha256::sha256(firmware::EMCALL);
        let result = secure_boot(
            &firmware::FLASH_KEY,
            &flash,
            &eeprom,
            b"evil EMCall firmware",
        );
        assert!(result.is_err());
    }

    #[test]
    fn host_region_mapping_works() {
        let mut m = Machine::boot_default();
        let (va, _ppn) = m.map_host_region(4).unwrap();
        m.vm_store(0, va, b"host data across pages!").unwrap();
        let mut buf = [0u8; 23];
        m.vm_load(0, va, &mut buf).unwrap();
        assert_eq!(&buf, b"host data across pages!");
    }

    #[test]
    fn live_clock_charges_fig8a_costs() {
        // The machine's live cycle accounting for EALLOC must equal the
        // Fig. 8(a) model by construction — this pins the wiring.
        let mut m = Machine::boot_default();
        let manifest = crate::manifest::EnclaveManifest::parse("heap = 8M").unwrap();
        let e = m.create_enclave(0, &manifest, b"clock test").unwrap();
        m.enter(0, e).unwrap();
        let before = m.clock;
        m.ealloc(0, 2 * 1024 * 1024).unwrap();
        let measured = (m.clock - before).0 as f64;
        let modelled = m.book.ealloc(2 * 1024 * 1024);
        let err = (measured - modelled).abs() / modelled;
        assert!(err < 0.01, "live {measured} vs model {modelled}");
    }

    #[test]
    fn clock_advances_monotonically_through_a_lifecycle() {
        let mut m = Machine::boot_default();
        let manifest = crate::manifest::EnclaveManifest::parse("heap = 4M").unwrap();
        let t0 = m.clock;
        let e = m.create_enclave(0, &manifest, &vec![7u8; 100_000]).unwrap();
        let t1 = m.clock;
        assert!(t1 > t0, "creation must cost time");
        m.enter(0, e).unwrap();
        let t2 = m.clock;
        assert!(t2 > t1, "context switch must cost time");
        // EADD/EMEAS of a 100 KB image dominates the fixed costs.
        assert!((t1 - t0).0 as f64 > m.book.measure_cost(100_000, true));
    }

    #[test]
    fn vm_access_splits_pages() {
        let mut m = Machine::boot_default();
        let (va, _) = m.map_host_region(2).unwrap();
        let spot = VirtAddr(va.0 + PAGE_SIZE - 3);
        m.vm_store(0, spot, &[1, 2, 3, 4, 5, 6]).unwrap();
        let mut buf = [0u8; 6];
        m.vm_load(0, spot, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
    }
}
