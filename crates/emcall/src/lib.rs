//! EMCall — the trusted call gate (§III-B/C).
//!
//! EMCall is the machine-mode firmware on the CS side: the only software
//! allowed to talk to the mailbox. It enforces the paper's four gate
//! mechanisms:
//!
//! 1. **Cross-privilege blocking** — each primitive may only be invoked from
//!    the privilege level Table II assigns; EMCall reads the privilege
//!    register (not a caller-supplied value) and blocks mismatches.
//! 2. **Identity stamping** — the current enclaveID is encapsulated into
//!    every request, so requests cannot be forged on behalf of another
//!    enclave.
//! 3. **Sanity checking** — performed on the EMS side on receipt.
//! 4. **Atomic context switches** — EENTER/ERESUME/EEXIT update the CS
//!    registers (satp, IS_ENCLAVE) and flush the TLB in one uninterruptible
//!    step.
//!
//! It also owns response polling (with timing obfuscation, §III-C) and
//! exception routing (§III-B: memory-management exceptions go to EMS,
//! others to the CS OS).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hypertee_fabric::ihub::IHub;
use hypertee_fabric::mailbox::RequestTicket;
use hypertee_fabric::message::{CallerIdentity, Primitive, Privilege, Request, Response};
use hypertee_mem::addr::Ppn;
use hypertee_mem::ownership::EnclaveId;
use hypertee_mem::pagetable::PageTable;
use hypertee_mem::system::CoreMmu;

/// Architectural state of one CS hart that EMCall manages.
#[derive(Debug)]
pub struct HartState {
    /// Hart index.
    pub hart_id: u32,
    /// Current privilege level of the software running on this hart.
    pub privilege: Privilege,
    /// The enclave currently executing here, if any (feeds the IS_ENCLAVE
    /// register and identity stamping).
    pub current_enclave: Option<EnclaveId>,
    /// The MMU (TLB + satp + IS_ENCLAVE).
    pub mmu: CoreMmu,
    /// Saved host address space across enclave execution.
    saved_host_table: Option<PageTable>,
    /// Enclave context (PC + registers) saved by EMCall at EEXIT and
    /// restored at ERESUME (§III-B ④ atomic register updates).
    saved_enclave_ctx: Option<(u64, [u64; 32])>,
    /// Program counter (used by exception recording).
    pub pc: u64,
    /// Saved architectural integer registers. §III-B ④: EMCall performs the
    /// CS register updates of a context switch atomically; the interpreter
    /// loads from and stores to this bank across EENTER/EEXIT/ERESUME.
    pub regs: [u64; 32],
}

impl HartState {
    /// Creates a hart running host user code with a TLB of `tlb_entries`.
    pub fn new(hart_id: u32, tlb_entries: usize) -> HartState {
        HartState {
            hart_id,
            privilege: Privilege::User,
            current_enclave: None,
            mmu: CoreMmu::new(tlb_entries),
            saved_host_table: None,
            saved_enclave_ctx: None,
            pc: 0,
            regs: [0; 32],
        }
    }
}

/// Why EMCall refused to forward a primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmCallError {
    /// The current privilege level does not match Table II for this
    /// primitive (§III-B ①).
    CrossPrivilege {
        /// What the primitive requires.
        required: Privilege,
        /// What the hart was running at.
        actual: Privilege,
    },
}

impl core::fmt::Display for EmCallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EmCallError::CrossPrivilege { required, actual } => {
                write!(
                    f,
                    "cross-privilege request blocked: needs {required:?}, got {actual:?}"
                )
            }
        }
    }
}

impl std::error::Error for EmCallError {}

/// Exceptions and interrupts EMCall sees first (§III-B, "Secure handling of
/// exception/interrupt in enclaves").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exception {
    /// Demand-paging fault at a virtual address.
    PageFault {
        /// Faulting address.
        va: u64,
    },
    /// Misaligned access.
    Misaligned {
        /// Faulting address.
        va: u64,
    },
    /// Timer interrupt.
    Timer,
    /// Illegal instruction.
    IllegalInstruction,
    /// External device interrupt.
    External,
}

/// Where EMCall routes an exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceptionRoute {
    /// Memory-management exceptions are handled by EMS.
    Ems,
    /// Everything else is responded to by the CS OS.
    CsOs,
}

/// Record EMCall keeps about an in-flight exception (cause, PC, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExceptionRecord {
    /// The exception.
    pub cause: Exception,
    /// PC at the time.
    pub pc: u64,
    /// Chosen route.
    pub route: ExceptionRoute,
}

/// EMCall event counters (timing-model and test observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmCallStats {
    /// Requests forwarded to the mailbox.
    pub forwarded: u64,
    /// Cross-privilege invocations blocked.
    pub blocked: u64,
    /// Poll iterations performed (including obfuscation re-polls).
    pub polls: u64,
    /// Context switches applied atomically.
    pub context_switches: u64,
    /// TLB flushes issued (context switches + bitmap changes).
    pub tlb_flushes: u64,
    /// Requests resubmitted under an existing ticket after a lost or
    /// aborted round trip.
    pub resubmissions: u64,
    /// Exceptions routed to EMS.
    pub to_ems: u64,
    /// Exceptions routed to the CS OS.
    pub to_cs: u64,
}

/// Verdict of the interrupt-frequency monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptVerdict {
    /// Interrupt rate within the normal envelope; resume the enclave.
    Continue,
    /// Abnormal interrupt frequency detected — terminate the enclave, the
    /// Varys-style response the paper endorses as orthogonal hardening
    /// (§IX: "terminate enclave execution upon detecting abnormal
    /// interrupt frequency").
    Terminate,
}

/// Sliding-window interrupt-frequency monitor (per hart).
///
/// Single-stepping attacks (SGX-Step-class) need interrupt rates orders of
/// magnitude above a 100 Hz scheduler tick; the monitor counts enclave
/// interrupts per window of cycles and flags outliers.
#[derive(Debug, Clone, Copy)]
pub struct InterruptMonitor {
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Maximum enclave interrupts tolerated per window.
    pub max_per_window: u32,
    window_start: u64,
    count: u32,
}

impl InterruptMonitor {
    /// A monitor tuned for a 2.5 GHz CS core: a 25M-cycle (10 ms) window
    /// tolerating 4 interrupts — ~4× the standard 100 Hz tick, far below
    /// stepping rates.
    pub fn standard() -> InterruptMonitor {
        InterruptMonitor {
            window_cycles: 25_000_000,
            max_per_window: 4,
            window_start: 0,
            count: 0,
        }
    }

    /// Records one enclave interrupt at `now` (cycles) and returns the
    /// verdict.
    pub fn record(&mut self, now: u64) -> InterruptVerdict {
        if now.saturating_sub(self.window_start) >= self.window_cycles {
            self.window_start = now;
            self.count = 0;
        }
        self.count += 1;
        if self.count > self.max_per_window {
            InterruptVerdict::Terminate
        } else {
            InterruptVerdict::Continue
        }
    }
}

/// The trusted call gate.
///
/// EMCall keeps no record of in-flight requests: the [`RequestTicket`]
/// returned by [`EmCall::submit`] is the only binding between a request
/// and its response, and whoever holds it (the pipeline's in-flight entry)
/// is the only party that can resubmit or collect. Dropping the ticket
/// retires the binding.
#[derive(Debug, Default)]
pub struct EmCall {
    /// Counters.
    pub stats: EmCallStats,
    /// Obfuscation state: a deterministic counter that staggers poll timing
    /// so response-latency observation is noisy (§III-C).
    obf_state: u64,
}

impl EmCall {
    /// Creates the call gate (loaded and verified during secure boot).
    pub fn new() -> EmCall {
        EmCall::default()
    }

    /// The gate proper: blocks cross-privilege invocations and assembles
    /// the request with the caller identity taken from the hart's privilege
    /// register and current-enclave state — never from arguments.
    fn gate(
        &mut self,
        hart: &HartState,
        primitive: Primitive,
        args: Vec<u64>,
        payload: Vec<u8>,
    ) -> Result<Request, EmCallError> {
        let required = primitive.required_privilege();
        if hart.privilege != required {
            self.stats.blocked += 1;
            return Err(EmCallError::CrossPrivilege {
                required,
                actual: hart.privilege,
            });
        }
        self.stats.forwarded += 1;
        Ok(Request {
            req_id: 0,
            primitive,
            caller: CallerIdentity {
                privilege: hart.privilege,
                enclave: hart.current_enclave,
            },
            args,
            payload,
        })
    }

    /// Gates and submits a primitive request on behalf of the software
    /// running on `hart`, returning the ticket that alone can collect the
    /// response. A hart may hold any number of tickets at once.
    ///
    /// # Errors
    ///
    /// [`EmCallError::CrossPrivilege`] when Table II forbids this primitive
    /// at the hart's privilege level.
    pub fn submit(
        &mut self,
        hart: &HartState,
        hub: &mut IHub,
        primitive: Primitive,
        args: Vec<u64>,
        payload: Vec<u8>,
    ) -> Result<RequestTicket, EmCallError> {
        let request = self.gate(hart, primitive, args, payload)?;
        Ok(hub.mailbox.submit(request))
    }

    /// Resubmits a primitive under the `req_id` of an existing ticket after
    /// the original round trip was lost (dropped packet, corrupt response,
    /// EMS crash). The same gate checks apply as on first submission;
    /// reusing the `req_id` lets the EMS-side response cache make the retry
    /// idempotent.
    ///
    /// # Errors
    ///
    /// [`EmCallError::CrossPrivilege`] when Table II forbids this primitive
    /// at the hart's privilege level.
    pub fn resubmit(
        &mut self,
        hart: &HartState,
        hub: &mut IHub,
        ticket: &RequestTicket,
        primitive: Primitive,
        args: Vec<u64>,
        payload: Vec<u8>,
    ) -> Result<(), EmCallError> {
        let request = self.gate(hart, primitive, args, payload)?;
        self.stats.resubmissions += 1;
        hub.mailbox.resubmit(ticket, request);
        Ok(())
    }

    /// Polls for the response bound to `ticket`, using the obfuscated
    /// polling loop instead of CS interrupt handlers. `None` is a miss; the
    /// holder keeps the ticket for a later poll or resubmission.
    pub fn poll(&mut self, hub: &mut IHub, ticket: &RequestTicket) -> Option<Response> {
        // Timing obfuscation: consume a pseudo-random number of extra poll
        // slots so completion time does not directly expose EMS latency.
        self.obf_state = self
            .obf_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        let extra = (self.obf_state >> 60) & 0x7;
        self.stats.polls += 1 + extra;
        hub.mailbox.poll(ticket)
    }

    /// Atomically switches a hart into a *fresh* enclave context: saves the
    /// host table, loads the enclave satp + IS_ENCLAVE, zeroes the register
    /// bank, sets PC to the entry point, and flushes the TLB. The response
    /// values come from EENTER.
    pub fn enter_enclave(
        &mut self,
        hart: &mut HartState,
        enclave: EnclaveId,
        table_root: Ppn,
        entry: u64,
    ) {
        if hart.saved_host_table.is_none() {
            hart.saved_host_table = hart.mmu.table;
        }
        hart.mmu
            .switch_table(Some(PageTable { root: table_root }), true);
        hart.current_enclave = Some(enclave);
        hart.privilege = Privilege::User;
        hart.pc = entry;
        hart.regs = [0; 32];
        hart.saved_enclave_ctx = None;
        self.stats.context_switches += 1;
        self.stats.tlb_flushes += 1;
    }

    /// Atomically resumes an enclave context: like [`EmCall::enter_enclave`]
    /// but restores the PC and register bank saved at the last EEXIT —
    /// §III-B ④: "EMCall performs CS register updates atomically".
    pub fn resume_enclave(
        &mut self,
        hart: &mut HartState,
        enclave: EnclaveId,
        table_root: Ppn,
        entry: u64,
    ) {
        if hart.saved_host_table.is_none() {
            hart.saved_host_table = hart.mmu.table;
        }
        hart.mmu
            .switch_table(Some(PageTable { root: table_root }), true);
        hart.current_enclave = Some(enclave);
        hart.privilege = Privilege::User;
        match hart.saved_enclave_ctx.take() {
            Some((pc, regs)) => {
                hart.pc = pc;
                hart.regs = regs;
            }
            None => {
                // Nothing saved (e.g. resume after suspension on another
                // hart): start at the entry point like a fresh entry.
                hart.pc = entry;
                hart.regs = [0; 32];
            }
        }
        self.stats.context_switches += 1;
        self.stats.tlb_flushes += 1;
    }

    /// Atomically switches a hart back to the host context after EEXIT,
    /// saving the enclave PC + registers for a later ERESUME.
    pub fn exit_enclave(&mut self, hart: &mut HartState) {
        hart.saved_enclave_ctx = Some((hart.pc, hart.regs));
        let host = hart.saved_host_table.take();
        hart.mmu.switch_table(host, false);
        hart.current_enclave = None;
        self.stats.context_switches += 1;
        self.stats.tlb_flushes += 1;
    }

    /// Flushes TLB entries referencing a frame whose bitmap bit changed
    /// (§IV-B: prevents stale-TLB bitmap-check bypass).
    pub fn flush_for_bitmap_change(&mut self, harts: &mut [HartState], ppn: Ppn) {
        for hart in harts {
            hart.mmu.tlb.flush_ppn(ppn);
        }
        self.stats.tlb_flushes += 1;
    }

    /// Records and routes an exception taken during enclave execution
    /// (§III-B): memory-management exceptions to EMS, the rest to the CS OS.
    pub fn route_exception(&mut self, hart: &HartState, cause: Exception) -> ExceptionRecord {
        let route = match cause {
            Exception::PageFault { .. } | Exception::Misaligned { .. } => ExceptionRoute::Ems,
            Exception::Timer | Exception::IllegalInstruction | Exception::External => {
                ExceptionRoute::CsOs
            }
        };
        match route {
            ExceptionRoute::Ems => self.stats.to_ems += 1,
            ExceptionRoute::CsOs => self.stats.to_cs += 1,
        }
        ExceptionRecord {
            cause,
            pc: hart.pc,
            route,
        }
    }
}

/// Compile-time `Send` pins for the sharded-execution refactor
/// (`hypertee::shard`): each shard domain owns a whole gate and, through
/// its pipeline, every in-flight ticket; both cross the worker-pool
/// boundary, so a regression to non-`Send` state (an `Rc`, a raw
/// pointer) must fail the build here, not a test run.
fn assert_send<T: Send>() {}
const _: fn() = assert_send::<EmCall>;
const _: fn() = assert_send::<HartState>;
const _: fn() = assert_send::<RequestTicket>;

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee_fabric::message::Status;

    fn hart(priv_: Privilege, enclave: Option<u64>) -> HartState {
        let mut h = HartState::new(0, 32);
        h.privilege = priv_;
        h.current_enclave = enclave.map(EnclaveId);
        h
    }

    #[test]
    fn cross_privilege_blocked() {
        let mut emcall = EmCall::new();
        let (mut hub, _cap) = IHub::new();
        // ECREATE needs OS privilege; user-mode invocation is blocked at the
        // gate (never reaches the mailbox).
        let h = hart(Privilege::User, None);
        let err = emcall
            .submit(&h, &mut hub, Primitive::Ecreate, vec![0, 0, 0, 0], vec![])
            .unwrap_err();
        assert_eq!(
            err,
            EmCallError::CrossPrivilege {
                required: Privilege::Os,
                actual: Privilege::User
            }
        );
        assert_eq!(hub.mailbox.pending_requests(), 0);
        assert_eq!(emcall.stats.blocked, 1);
    }

    #[test]
    fn identity_is_stamped_from_hart_state() {
        let mut emcall = EmCall::new();
        let (mut hub, cap) = IHub::new();
        let h = hart(Privilege::User, Some(7));
        emcall
            .submit(&h, &mut hub, Primitive::Ealloc, vec![7, 4096], vec![])
            .unwrap();
        let req = hub.ems_fetch_request(&cap).unwrap();
        assert_eq!(req.caller.enclave, Some(EnclaveId(7)));
        assert_eq!(req.caller.privilege, Privilege::User);
    }

    #[test]
    fn poll_returns_bound_response() {
        let mut emcall = EmCall::new();
        let (mut hub, cap) = IHub::new();
        let h = hart(Privilege::User, Some(1));
        let ticket = emcall
            .submit(&h, &mut hub, Primitive::Ealloc, vec![1, 4096], vec![])
            .unwrap();
        assert!(emcall.poll(&mut hub, &ticket).is_none());
        let req = hub.ems_fetch_request(&cap).unwrap();
        hub.ems_push_response(&cap, Response::ok(req.req_id, vec![0x2000_0000, 1]));
        let resp = emcall.poll(&mut hub, &ticket).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(emcall.stats.polls >= 2);
    }

    #[test]
    fn resubmit_reuses_ticket_req_id() {
        let mut emcall = EmCall::new();
        let (mut hub, cap) = IHub::new();
        let h = hart(Privilege::User, Some(1));
        let ticket = emcall
            .submit(&h, &mut hub, Primitive::Ealloc, vec![1, 4096], vec![])
            .unwrap();
        let first = hub.ems_fetch_request(&cap).unwrap();
        // Pretend the response was lost; resubmit under the same ticket.
        emcall
            .resubmit(
                &h,
                &mut hub,
                &ticket,
                Primitive::Ealloc,
                vec![1, 4096],
                vec![],
            )
            .unwrap();
        let second = hub.ems_fetch_request(&cap).unwrap();
        assert_eq!(first.req_id, second.req_id);
        assert_eq!(second.caller.enclave, Some(EnclaveId(1)));
        assert_eq!(emcall.stats.resubmissions, 1);
        // The gate still applies on the retry path.
        let os = hart(Privilege::Os, None);
        assert!(emcall
            .resubmit(
                &os,
                &mut hub,
                &ticket,
                Primitive::Ealloc,
                vec![1, 4096],
                vec![]
            )
            .is_err());
    }

    #[test]
    fn tickets_let_distinct_harts_overlap() {
        let mut emcall = EmCall::new();
        let (mut hub, cap) = IHub::new();
        let mut harts = Vec::new();
        for i in 0..4u32 {
            let mut h = HartState::new(i, 32);
            h.privilege = Privilege::User;
            h.current_enclave = Some(EnclaveId(u64::from(i) + 1));
            harts.push(h);
        }
        // All four harts submit before anyone polls.
        let tickets: Vec<RequestTicket> = harts
            .iter()
            .map(|h| {
                emcall
                    .submit(h, &mut hub, Primitive::Ealloc, vec![1, 4096], vec![])
                    .unwrap()
            })
            .collect();
        // EMS answers in reverse order, tagging each response with the
        // caller's enclave so delivery can be checked.
        let mut fetched = Vec::new();
        while let Some(req) = hub.ems_fetch_request(&cap) {
            fetched.push(req);
        }
        for req in fetched.iter().rev() {
            let tag = req.caller.enclave.unwrap().0;
            hub.ems_push_response(&cap, Response::ok(req.req_id, vec![tag, 1]));
        }
        // Each ticket collects exactly its own hart's response, once.
        for (h, ticket) in harts.iter().zip(&tickets) {
            let resp = emcall.poll(&mut hub, ticket).unwrap();
            assert_eq!(resp.vals[0], u64::from(h.hart_id) + 1);
            assert!(emcall.poll(&mut hub, ticket).is_none());
        }
    }

    #[test]
    fn polling_count_is_obfuscated() {
        let mut emcall = EmCall::new();
        let (mut hub, _cap) = IHub::new();
        let h = hart(Privilege::User, Some(1));
        let mut counts = std::collections::BTreeSet::new();
        for _ in 0..16 {
            let before = emcall.stats.polls;
            let t = emcall
                .submit(&h, &mut hub, Primitive::Ealloc, vec![1, 4096], vec![])
                .unwrap();
            let _ = emcall.poll(&mut hub, &t);
            counts.insert(emcall.stats.polls - before);
        }
        assert!(counts.len() > 1, "poll costs must vary: {counts:?}");
    }

    #[test]
    fn context_switch_roundtrip_flushes_tlb() {
        let mut emcall = EmCall::new();
        let mut h = hart(Privilege::Os, None);
        let host_table = PageTable { root: Ppn(500) };
        h.mmu.table = Some(host_table);
        emcall.enter_enclave(&mut h, EnclaveId(3), Ppn(900), 0x1000_0000);
        assert!(h.mmu.enclave_mode);
        assert_eq!(h.current_enclave, Some(EnclaveId(3)));
        assert_eq!(h.mmu.table, Some(PageTable { root: Ppn(900) }));
        assert_eq!(h.mmu.tlb.stats.flushes, 1);
        emcall.exit_enclave(&mut h);
        assert!(!h.mmu.enclave_mode);
        assert_eq!(h.mmu.table, Some(host_table), "host context restored");
        assert_eq!(h.current_enclave, None);
        assert_eq!(emcall.stats.tlb_flushes, 2);
    }

    #[test]
    fn nested_enter_preserves_original_host_table() {
        let mut emcall = EmCall::new();
        let mut h = hart(Privilege::Os, None);
        let host_table = PageTable { root: Ppn(500) };
        h.mmu.table = Some(host_table);
        emcall.enter_enclave(&mut h, EnclaveId(1), Ppn(901), 0);
        // A second enter (e.g. nested resume path) must not clobber the
        // saved host table with the enclave table.
        emcall.enter_enclave(&mut h, EnclaveId(1), Ppn(901), 0);
        emcall.exit_enclave(&mut h);
        assert_eq!(h.mmu.table, Some(host_table));
    }

    #[test]
    fn exception_routing_matches_paper() {
        let mut emcall = EmCall::new();
        let mut h = hart(Privilege::User, Some(1));
        h.pc = 0xabc;
        let r = emcall.route_exception(&h, Exception::PageFault { va: 0x2000_0000 });
        assert_eq!(r.route, ExceptionRoute::Ems);
        assert_eq!(r.pc, 0xabc);
        assert_eq!(
            emcall
                .route_exception(&h, Exception::Misaligned { va: 4 })
                .route,
            ExceptionRoute::Ems
        );
        assert_eq!(
            emcall.route_exception(&h, Exception::Timer).route,
            ExceptionRoute::CsOs
        );
        assert_eq!(
            emcall
                .route_exception(&h, Exception::IllegalInstruction)
                .route,
            ExceptionRoute::CsOs
        );
        assert_eq!(emcall.stats.to_ems, 2);
        assert_eq!(emcall.stats.to_cs, 2);
    }

    #[test]
    fn interrupt_monitor_tolerates_scheduler_ticks() {
        let mut mon = InterruptMonitor::standard();
        // 100 Hz ticks at 2.5 GHz: one interrupt every 25M cycles — each
        // lands in its own window.
        let mut now = 0u64;
        for _ in 0..100 {
            now += 25_000_000;
            assert_eq!(mon.record(now), InterruptVerdict::Continue);
        }
    }

    #[test]
    fn interrupt_monitor_flags_single_stepping() {
        let mut mon = InterruptMonitor::standard();
        // SGX-Step-style: an interrupt every few thousand cycles.
        let mut now = 0u64;
        let mut verdict = InterruptVerdict::Continue;
        for _ in 0..10 {
            now += 5_000;
            verdict = mon.record(now);
            if verdict == InterruptVerdict::Terminate {
                break;
            }
        }
        assert_eq!(verdict, InterruptVerdict::Terminate);
    }

    #[test]
    fn interrupt_monitor_resets_per_window() {
        let mut mon = InterruptMonitor::standard();
        // A short burst below the limit, then quiet, then another burst:
        // neither trips the monitor.
        for base in [0u64, 100_000_000] {
            for i in 0..4 {
                assert_eq!(mon.record(base + i * 1000), InterruptVerdict::Continue);
            }
        }
    }

    #[test]
    fn bitmap_change_flush_hits_all_harts() {
        use hypertee_mem::addr::{KeyId, Vpn};
        use hypertee_mem::pagetable::Perms;
        use hypertee_mem::tlb::TlbEntry;
        let mut emcall = EmCall::new();
        let mut harts = vec![hart(Privilege::User, None), hart(Privilege::User, None)];
        for h in harts.iter_mut() {
            h.mmu.tlb.insert(TlbEntry {
                vpn: Vpn(1),
                ppn: Ppn(42),
                perms: Perms::RW,
                key: KeyId::HOST,
                checked: true,
            });
        }
        emcall.flush_for_bitmap_change(&mut harts, Ppn(42));
        for h in harts.iter_mut() {
            assert!(h.mmu.tlb.lookup(Vpn(1)).is_none());
        }
    }
}
