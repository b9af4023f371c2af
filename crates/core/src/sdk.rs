//! The HyperTEE SDK: the HostApp/enclave programming model of §III-B.
//!
//! HostApps manage enclave environments through the HyperTEE APIs below;
//! each call is translated into the RPC-like EMCall and flows through the
//! mailbox to EMS, exactly as in Fig. 2/Fig. 3 of the paper.

use crate::machine::{EnclaveHandle, EnclaveInfo, Machine, MachineError, MachineResult};
use crate::manifest::EnclaveManifest;
use hypertee_ems::attest::Quote;
use hypertee_ems::control::layout;
use hypertee_fabric::message::{Primitive, Privilege};
use hypertee_mem::addr::Ppn;
use hypertee_mem::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use hypertee_mem::ownership::EnclaveId;

/// Shared-memory permission requested for a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmPerm {
    /// Read-only attachment.
    ReadOnly,
    /// Read-write attachment.
    ReadWrite,
}

impl ShmPerm {
    fn bits(self) -> u64 {
        match self {
            ShmPerm::ReadOnly => 0b01,
            ShmPerm::ReadWrite => 0b11,
        }
    }
}

impl Machine {
    /// Runs `f` with `hart_id` temporarily at `privilege`, restoring the
    /// hart's own privilege afterwards. EMCall stamps the privilege into a
    /// request at (re)submission, so the override never outlives `f`.
    pub(crate) fn with_privilege<R>(
        &mut self,
        hart_id: usize,
        privilege: Privilege,
        f: impl FnOnce(&mut Machine) -> MachineResult<R>,
    ) -> MachineResult<R> {
        let old = self.harts[hart_id].privilege;
        self.harts[hart_id].privilege = privilege;
        let out = f(self);
        self.harts[hart_id].privilege = old;
        out
    }

    /// Creates, loads, and measures an enclave from a manifest and image —
    /// ECREATE + EADD + EMEAS, driven by the CS OS on `hart_id`.
    ///
    /// # Errors
    ///
    /// Propagates gate, primitive, and memory errors.
    pub fn create_enclave(
        &mut self,
        hart_id: usize,
        manifest: &EnclaveManifest,
        image: &[u8],
    ) -> MachineResult<EnclaveHandle> {
        let window_pages = manifest.host_shared_bytes.div_ceil(PAGE_SIZE).max(1);
        let window_base = self
            .os
            .alloc_contiguous(window_pages)
            .ok_or(MachineError::OutOfMemory)?;
        // Stage the image in contiguous host frames for EADD to read.
        let image_pages = (image.len() as u64).div_ceil(PAGE_SIZE).max(1);
        let stage = self
            .os
            .alloc_contiguous(image_pages)
            .ok_or(MachineError::OutOfMemory)?;
        self.sys
            .phys
            .write(stage.base(), image)
            .map_err(MachineError::Mem)?;

        let eid = self.with_privilege(hart_id, Privilege::Os, |m| {
            let resp = m.invoke(
                hart_id,
                Primitive::Ecreate,
                vec![
                    manifest.heap_max,
                    manifest.stack_bytes,
                    manifest.host_shared_bytes,
                    window_base.base().0,
                ],
                vec![],
            )?;
            let eid = resp
                .new_enclave_id()
                .expect("ECREATE answers with the new enclave id");
            m.invoke(
                hart_id,
                Primitive::Eadd,
                vec![
                    eid,
                    layout::CODE_BASE.0,
                    stage.base().0,
                    image.len() as u64,
                    0b111,
                ],
                vec![],
            )?;
            m.invoke(hart_id, Primitive::Emeas, vec![eid], vec![])?;
            Ok(eid)
        })?;

        // Charge the size-dependent management time (EADD copy + EMEAS
        // measurement) that the generic primitive accounting skips.
        let engine = self.config.crypto_engine;
        let image_cost = image.len() as f64 * self.book.eadd_copy_per_byte
            + self.book.measure_cost(image.len() as u64, engine);
        self.charge_hart(
            hart_id,
            hypertee_sim::clock::Cycles(image_cost.round() as u64),
        );

        // Release the staging frames back to the OS.
        for i in 0..image_pages {
            self.sys
                .phys
                .zero_frame(Ppn(stage.0 + i))
                .map_err(MachineError::Mem)?;
            self.os.free(Ppn(stage.0 + i));
        }
        self.enclaves.insert(
            eid,
            EnclaveInfo {
                eid,
                host_window_pa: window_base.base(),
                host_window_bytes: manifest.host_shared_bytes,
                image_bytes: image.len() as u64,
                stack_bytes: manifest.stack_bytes,
            },
        );
        Ok(EnclaveHandle(eid))
    }

    /// Enters an enclave on a hart: EENTER followed by EMCall's atomic
    /// context switch.
    ///
    /// # Errors
    ///
    /// Gate/primitive failures; `WrongMode` if the hart is already inside
    /// an enclave.
    pub fn enter(&mut self, hart_id: usize, handle: EnclaveHandle) -> MachineResult<()> {
        if self.harts[hart_id].current_enclave.is_some() {
            return Err(MachineError::WrongMode);
        }
        let resp = self.with_privilege(hart_id, Privilege::Os, |m| {
            m.invoke(hart_id, Primitive::Eenter, vec![handle.0], vec![])
        })?;
        let (root, entry, _key) = resp
            .entry_context()
            .expect("EENTER answers with the entry context");
        self.emcall.enter_enclave(
            &mut self.harts[hart_id],
            EnclaveId(handle.0),
            Ppn(root),
            entry,
        );
        // ABI setup for fresh entries: stack pointer at the top of the
        // statically allocated stack (EMCall zeroed the bank).
        let info = self.enclave_info(handle)?;
        self.harts[hart_id].regs[2] =
            hypertee_ems::control::layout::STACK_BASE.0 + info.stack_bytes - 16;
        Ok(())
    }

    /// Resumes a stopped or suspended enclave on a hart.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::enter`].
    pub fn resume(&mut self, hart_id: usize, handle: EnclaveHandle) -> MachineResult<()> {
        if self.harts[hart_id].current_enclave.is_some() {
            return Err(MachineError::WrongMode);
        }
        let resp = self.with_privilege(hart_id, Privilege::Os, |m| {
            m.invoke(hart_id, Primitive::Eresume, vec![handle.0], vec![])
        })?;
        let (root, entry, _key) = resp
            .entry_context()
            .expect("ERESUME answers with the entry context");
        self.emcall.resume_enclave(
            &mut self.harts[hart_id],
            EnclaveId(handle.0),
            Ppn(root),
            entry,
        );
        Ok(())
    }

    /// Exits the enclave currently running on a hart (EEXIT + context
    /// restore).
    ///
    /// # Errors
    ///
    /// `WrongMode` when the hart is not inside an enclave.
    pub fn exit(&mut self, hart_id: usize) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(hart_id, Primitive::Eexit, vec![eid], vec![])?;
        self.emcall.exit_enclave(&mut self.harts[hart_id]);
        Ok(())
    }

    /// Destroys an enclave (must not be running on any hart).
    ///
    /// # Errors
    ///
    /// Gate/primitive failures.
    pub fn destroy(&mut self, hart_id: usize, handle: EnclaveHandle) -> MachineResult<()> {
        self.with_privilege(hart_id, Privilege::Os, |m| {
            m.invoke(hart_id, Primitive::Edestroy, vec![handle.0], vec![])
        })?;
        self.enclaves.remove(&handle.0);
        // The destroyed enclave's frames return to the pool and may be
        // reused for data or code: drop every hart's walk-cache pointers so
        // none of them can later interpret reused frames as page tables,
        // and bump the flush epoch so decoded-instruction caches drop any
        // lines decoded from the recycled frames. (TLB entries for the
        // torn-down mappings are already gone — the last exit_enclave
        // switched tables and flushed — so this adds no TLB flush and
        // leaves TlbStats trajectories unchanged.)
        for hart in &mut self.harts {
            hart.mmu.note_mapping_teardown();
        }
        Ok(())
    }

    fn current_eid(&self, hart_id: usize) -> MachineResult<u64> {
        self.harts[hart_id]
            .current_enclave
            .map(|e| e.0)
            .ok_or(MachineError::WrongMode)
    }

    /// EALLOC from inside the enclave on `hart_id`. Returns the mapped VA.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn ealloc(&mut self, hart_id: usize, bytes: u64) -> MachineResult<VirtAddr> {
        let eid = self.current_eid(hart_id)?;
        let resp = self.invoke(hart_id, Primitive::Ealloc, vec![eid, bytes], vec![])?;
        // New mappings were created: EMCall flushes the hart's cached
        // translations (TLB + walk cache) so the enclave observes them
        // (and no stale entries survive).
        self.harts[hart_id].mmu.flush_translations();
        Ok(VirtAddr(
            resp.mapped_va().expect("EALLOC answers with the mapped VA"),
        ))
    }

    /// EFREE from inside the enclave.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn efree(&mut self, hart_id: usize, va: VirtAddr, bytes: u64) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(hart_id, Primitive::Efree, vec![eid, va.0, bytes], vec![])?;
        self.harts[hart_id].mmu.flush_translations();
        Ok(())
    }

    /// EWB from the CS OS: asks EMS for swappable pages; the returned frames
    /// are reclaimed into the OS allocator (as after a disk swap-out).
    ///
    /// # Errors
    ///
    /// Primitive failures.
    pub fn ewb(&mut self, hart_id: usize, requested: u64) -> MachineResult<Vec<PhysAddr>> {
        let resp = self.with_privilege(hart_id, Privilege::Os, |m| {
            m.invoke(hart_id, Primitive::Ewb, vec![requested], vec![])
        })?;
        let pas: Vec<PhysAddr> = resp
            .written_back_frames()
            .iter()
            .map(|&p| PhysAddr(p))
            .collect();
        for pa in &pas {
            self.os.free(pa.ppn());
        }
        Ok(pas)
    }

    /// ESHMGET from inside the enclave: creates a shared region.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmget(
        &mut self,
        hart_id: usize,
        bytes: u64,
        max_perm: ShmPerm,
        device_shared: bool,
    ) -> MachineResult<u64> {
        let eid = self.current_eid(hart_id)?;
        let resp = self.invoke(
            hart_id,
            Primitive::Eshmget,
            vec![eid, bytes, max_perm.bits(), device_shared as u64],
            vec![],
        )?;
        Ok(resp.shm_id().expect("ESHMGET answers with the region id"))
    }

    /// ESHMSHR from the creator enclave: registers `receiver` with `perm`.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmshr(
        &mut self,
        hart_id: usize,
        shmid: u64,
        receiver: EnclaveHandle,
        perm: ShmPerm,
    ) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(
            hart_id,
            Primitive::Eshmshr,
            vec![eid, shmid, receiver.0, perm.bits()],
            vec![],
        )?;
        Ok(())
    }

    /// ESHMAT from inside an enclave: attaches a region created by `sender`.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmat(
        &mut self,
        hart_id: usize,
        shmid: u64,
        sender: EnclaveHandle,
    ) -> MachineResult<VirtAddr> {
        let eid = self.current_eid(hart_id)?;
        let resp = self.invoke(
            hart_id,
            Primitive::Eshmat,
            vec![eid, shmid, sender.0],
            vec![],
        )?;
        self.harts[hart_id].mmu.flush_translations();
        Ok(VirtAddr(
            resp.mapped_va().expect("ESHMAT answers with the mapped VA"),
        ))
    }

    /// ESHMDT from inside an enclave.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmdt(&mut self, hart_id: usize, shmid: u64) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(hart_id, Primitive::Eshmdt, vec![eid, shmid], vec![])?;
        self.harts[hart_id].mmu.flush_translations();
        Ok(())
    }

    /// ESHMDES from the creator enclave.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmdes(&mut self, hart_id: usize, shmid: u64) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(hart_id, Primitive::Eshmdes, vec![eid, shmid], vec![])?;
        Ok(())
    }

    /// EATTEST from inside the enclave: returns the parsed quote.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn attest(
        &mut self,
        hart_id: usize,
        handle: EnclaveHandle,
        challenge: &[u8],
    ) -> MachineResult<Quote> {
        let eid = self.current_eid(hart_id)?;
        if eid != handle.0 {
            return Err(MachineError::WrongMode);
        }
        let resp = self.invoke(hart_id, Primitive::Eattest, vec![eid], challenge.to_vec())?;
        Quote::from_bytes(&resp.payload)
            .map_err(|_| MachineError::Primitive(hypertee_fabric::message::Status::InvalidArgument))
    }

    /// Seals data under the enclave identity currently on `hart_id`.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; EMS-side failures map to `Primitive`.
    pub fn seal(&mut self, hart_id: usize, data: &[u8]) -> MachineResult<Vec<u8>> {
        let eid = self.current_eid(hart_id)?;
        self.ems
            .seal(eid, data)
            .map_err(|e| MachineError::Primitive(e.into()))
    }

    /// Unseals a blob under the enclave identity currently on `hart_id`.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; EMS-side failures map to `Primitive`.
    pub fn unseal(&mut self, hart_id: usize, blob: &[u8]) -> MachineResult<Vec<u8>> {
        let eid = self.current_eid(hart_id)?;
        self.ems
            .unseal(eid, blob)
            .map_err(|e| MachineError::Primitive(e.into()))
    }

    /// Writes into the enclave's address space from inside the enclave
    /// (hart must be entered).
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; memory faults otherwise.
    pub fn enclave_store(
        &mut self,
        hart_id: usize,
        va: VirtAddr,
        data: &[u8],
    ) -> MachineResult<()> {
        self.current_eid(hart_id)?;
        self.vm_store(hart_id, va, data)
    }

    /// Reads from the enclave's address space from inside the enclave.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; memory faults otherwise.
    pub fn enclave_load(
        &mut self,
        hart_id: usize,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> MachineResult<()> {
        self.current_eid(hart_id)?;
        self.vm_load(hart_id, va, buf)
    }

    /// HostApp writes into the shared window (host side, physical path).
    ///
    /// # Errors
    ///
    /// Bounds and memory faults.
    pub fn host_window_write(
        &mut self,
        handle: EnclaveHandle,
        offset: u64,
        data: &[u8],
    ) -> MachineResult<()> {
        let info = self.enclave_info(handle)?;
        if offset + data.len() as u64 > info.host_window_bytes {
            return Err(MachineError::Mem(hypertee_mem::MemFault::BusError {
                pa: info.host_window_pa.0 + offset,
            }));
        }
        let pa = PhysAddr(info.host_window_pa.0 + offset);
        self.sys.phys.write(pa, data).map_err(MachineError::Mem)?;
        // A raw physical write bypasses the MMU store hooks; drop any
        // decoded lines it may have rewritten on every hart.
        for icache in &mut self.icaches {
            icache.invalidate_range(pa.0, data.len() as u64);
        }
        Ok(())
    }

    /// HostApp reads from the shared window (host side).
    ///
    /// # Errors
    ///
    /// Bounds and memory faults.
    pub fn host_window_read(
        &mut self,
        handle: EnclaveHandle,
        offset: u64,
        buf: &mut [u8],
    ) -> MachineResult<()> {
        let info = self.enclave_info(handle)?;
        if offset + buf.len() as u64 > info.host_window_bytes {
            return Err(MachineError::Mem(hypertee_mem::MemFault::BusError {
                pa: info.host_window_pa.0 + offset,
            }));
        }
        self.sys
            .phys
            .read(PhysAddr(info.host_window_pa.0 + offset), buf)
            .map_err(MachineError::Mem)
    }

    /// The enclave-side VA of the host shared window.
    pub fn host_window_va(&self) -> VirtAddr {
        layout::HOST_SHARED_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::EnclaveManifest;

    fn manifest() -> EnclaveManifest {
        EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").unwrap()
    }

    #[test]
    fn quickstart_flow() {
        let mut m = Machine::boot_default();
        let e = m
            .create_enclave(0, &manifest(), b"quickstart image")
            .unwrap();
        m.enter(0, e).unwrap();
        let va = m.ealloc(0, 64 * 1024).unwrap();
        m.enclave_store(0, va, b"working set").unwrap();
        let mut buf = [0u8; 11];
        m.enclave_load(0, va, &mut buf).unwrap();
        assert_eq!(&buf, b"working set");
        let quote = m.attest(0, e, b"nonce").unwrap();
        assert!(quote.verify(&m.ek_public()));
        m.exit(0).unwrap();
        m.destroy(0, e).unwrap();
    }

    #[test]
    fn host_window_transfers_data_both_ways() {
        let mut m = Machine::boot_default();
        let e = m.create_enclave(0, &manifest(), b"window image").unwrap();
        // Host puts encrypted user input in the window…
        m.host_window_write(e, 0, b"user ciphertext in").unwrap();
        m.enter(0, e).unwrap();
        // …the enclave reads it through its mapping…
        let win = m.host_window_va();
        let mut buf = [0u8; 18];
        m.enclave_load(0, win, &mut buf).unwrap();
        assert_eq!(&buf, b"user ciphertext in");
        // …and writes a reply the host can see.
        m.enclave_store(0, win, b"enclave answer out").unwrap();
        m.exit(0).unwrap();
        let mut reply = [0u8; 18];
        m.host_window_read(e, 0, &mut reply).unwrap();
        assert_eq!(&reply, b"enclave answer out");
    }

    #[test]
    fn two_enclaves_shared_memory_flow() {
        let mut m = Machine::boot_default();
        let sender = m.create_enclave(0, &manifest(), b"sender").unwrap();
        let receiver = m.create_enclave(1, &manifest(), b"receiver").unwrap();
        m.enter(0, sender).unwrap();
        let shmid = m.shmget(0, 16 * 1024, ShmPerm::ReadWrite, false).unwrap();
        m.shmshr(0, shmid, receiver, ShmPerm::ReadWrite).unwrap();
        let s_va = m.shmat(0, shmid, sender).unwrap();
        m.enclave_store(0, s_va, b"cross-enclave message").unwrap();

        m.enter(1, receiver).unwrap();
        let r_va = m.shmat(1, shmid, sender).unwrap();
        let mut buf = [0u8; 21];
        m.enclave_load(1, r_va, &mut buf).unwrap();
        assert_eq!(&buf, b"cross-enclave message");

        m.shmdt(1, shmid).unwrap();
        m.shmdt(0, shmid).unwrap();
        m.shmdes(0, shmid).unwrap();
    }

    #[test]
    fn sealing_through_sdk() {
        let mut m = Machine::boot_default();
        let e = m.create_enclave(0, &manifest(), b"sealer image").unwrap();
        m.enter(0, e).unwrap();
        let blob = m.seal(0, b"model weights").unwrap();
        assert_eq!(m.unseal(0, &blob).unwrap(), b"model weights");
    }

    #[test]
    fn user_mode_cannot_create_enclaves_directly() {
        let mut m = Machine::boot_default();
        // Bypassing the SDK's privilege handling: a user-mode invoke of
        // ECREATE is blocked by the gate.
        let err = m
            .invoke(0, Primitive::Ecreate, vec![0, 0, 0, 0], vec![])
            .unwrap_err();
        assert!(matches!(err, MachineError::Gate(_)));
    }

    #[test]
    fn ewb_reclaims_frames_to_os() {
        let mut m = Machine::boot_default();
        let _e = m.create_enclave(0, &manifest(), b"swap target").unwrap();
        let avail_before = m.os.available();
        let pas = m.ewb(0, 4).unwrap();
        assert!(pas.len() >= 4);
        assert!(m.os.available() > avail_before);
    }
}
