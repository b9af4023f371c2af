//! Enclave life-cycle primitives: ECREATE, EADD, EMEAS, EENTER, ERESUME,
//! EEXIT, EDESTROY (Table II, §IV-A).

use crate::control::{layout, EnclaveConfig, EnclaveControl, EnclaveState};
use crate::error::{EmsError, EmsResult};
use crate::runtime::{Ems, EmsContext, StagedFrames};
use crate::txn::{Txn, UndoOp};
use hypertee_mem::addr::{KeyId, PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::ownership::{EnclaveId, PageOwner};
use hypertee_mem::pagetable::{PageTable, Perms};

fn perms_from_bits(bits: u8) -> Perms {
    Perms {
        r: bits & 1 != 0,
        w: bits & 2 != 0,
        x: bits & 4 != 0,
        u: true,
    }
}

fn perm_bits(p: Perms) -> u8 {
    (p.r as u8) | ((p.w as u8) << 1) | ((p.x as u8) << 2)
}

impl Ems {
    /// ECREATE: builds a new enclave — dedicated page table in enclave
    /// memory, fresh KeyID and derived keys, statically allocated stack, and
    /// the HostApp shared window (§IV-A "Data movement between HostApp and
    /// Enclave").
    ///
    /// `host_shared_pa` is the page-aligned base of the OS-provided frames
    /// backing the shared window (plaintext, *not* enclave memory).
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unaligned/oversized configs, `Exhausted` when
    /// frames or KeyIDs run out, `AccessDenied` when the proposed host
    /// window overlaps enclave memory.
    pub fn ecreate(
        &mut self,
        ctx: &mut EmsContext<'_>,
        config: EnclaveConfig,
        host_shared_pa: u64,
    ) -> EmsResult<EnclaveId> {
        // Sanity checks (§III-B ③).
        if !host_shared_pa.is_multiple_of(PAGE_SIZE)
            || config.heap_max > (layout::HOST_SHARED_BASE.0 - layout::HEAP_BASE.0)
            || config.stack_bytes > (layout::HEAP_BASE.0 - layout::STACK_BASE.0)
            || config.host_shared_bytes > (layout::SHM_BASE.0 - layout::HOST_SHARED_BASE.0)
        {
            return Err(EmsError::InvalidArgument);
        }
        let stack_pages = config.stack_bytes.div_ceil(PAGE_SIZE);
        let host_pages = config.host_shared_bytes.div_ceil(PAGE_SIZE);
        // The host window must not point at enclave memory.
        for i in 0..host_pages {
            let ppn = Ppn(host_shared_pa / PAGE_SIZE + i);
            if self.pool_bitmap_is_enclave(ctx, ppn)? {
                return Err(EmsError::AccessDenied);
            }
        }

        let eid = self.fresh_eid();
        let mut txn = Txn::begin(self.injector.abort_step());
        let key = self.alloc_keyid(ctx)?;
        // The brand-new table is discarded wholesale on failure, so —
        // unlike EALLOC/EADD on a live table — *everything* here rolls
        // back, the KeyID included. (A victim suspended by `alloc_keyid`
        // stays suspended; ERESUME revives it.)
        txn.record(UndoOp::ReleaseKey(key));
        let nonce = self.rng.gen_bytes32();
        let (aes, mac) = self.vault.enclave_memory_keys(eid.0, &nonce);
        ctx.hub
            .ems_program_key(&self.cap, &mut ctx.sys.engine, key, &aes, &mac);

        // Stage frames for the page-table skeleton plus per-region leaves.
        let pt_budget = 6 + stack_pages.div_ceil(512) + host_pages.div_ceil(512);
        let mut staged = match StagedFrames::stage(pt_budget, &mut self.pool, ctx) {
            Ok(s) => s,
            Err(e) => {
                if self.rollback(ctx, txn).is_err() {
                    return Err(EmsError::BadState);
                }
                return Err(e);
            }
        };

        let mut data_frames = Vec::new();
        let built: Result<PageTable, EmsError> = 'build: {
            let table = match PageTable::try_new(&mut staged, &mut ctx.sys.phys) {
                Ok(t) => t,
                Err(f) => break 'build Err(f.into()),
            };
            // Statically allocate and map the stack (enclave-encrypted).
            // No UnmapLeaf undos here: the whole table is discarded on
            // failure, so leaves need not be unpicked one by one.
            for i in 0..stack_pages {
                if let Err(e) = txn.step() {
                    break 'build Err(e);
                }
                let frame = match self.pool.take(ctx.os_frames, ctx.sys) {
                    Ok(f) => f,
                    Err(e) => break 'build Err(e),
                };
                txn.record(UndoOp::ReturnToPool(frame));
                if self
                    .ownership
                    .claim(frame, PageOwner::Enclave(eid))
                    .is_err()
                {
                    break 'build Err(EmsError::AccessDenied);
                }
                txn.record(UndoOp::ReleaseOwnership(frame, PageOwner::Enclave(eid)));
                // Establish integrity MACs by writing zeros through the key.
                let sys = &mut *ctx.sys;
                if let Err(f) = sys.engine.zero_page(&mut sys.phys, frame, key) {
                    break 'build Err(f.into());
                }
                if let Err(f) = table.map(
                    VirtAddr(layout::STACK_BASE.0 + i * PAGE_SIZE),
                    frame,
                    Perms::RW,
                    key,
                    &mut staged,
                    &mut ctx.sys.phys,
                ) {
                    break 'build Err(f.into());
                }
                data_frames.push(frame);
            }

            // Map the HostApp shared window (plaintext KeyID 0). The frames
            // are the OS's, so nothing to undo beyond discarding the table.
            for i in 0..host_pages {
                if let Err(e) = txn.step() {
                    break 'build Err(e);
                }
                let ppn = Ppn(host_shared_pa / PAGE_SIZE + i);
                if let Err(f) = table.map(
                    VirtAddr(layout::HOST_SHARED_BASE.0 + i * PAGE_SIZE),
                    ppn,
                    Perms::RW,
                    KeyId::HOST,
                    &mut staged,
                    &mut ctx.sys.phys,
                ) {
                    break 'build Err(f.into());
                }
            }
            Ok(table)
        };

        let pt_frames = staged.unstage(&mut self.pool, ctx);
        let fail = match built {
            Ok(table) => {
                let mut claimed = Vec::new();
                let mut claim_err = None;
                for f in &pt_frames {
                    match self.ownership.claim(*f, PageOwner::EmsPrivate) {
                        Ok(()) => claimed.push(*f),
                        Err(_) => {
                            claim_err = Some(EmsError::AccessDenied);
                            break;
                        }
                    }
                }
                match claim_err {
                    None => {
                        let mut control =
                            EnclaveControl::new(eid, table, pt_frames, key, nonce, config);
                        control.key_nonce = nonce;
                        control.data_frames = data_frames;
                        self.enclaves.insert(eid.0, control);
                        return Ok(eid);
                    }
                    Some(e) => {
                        for f in claimed {
                            let _ = self.ownership.release(f, PageOwner::EmsPrivate);
                        }
                        e
                    }
                }
            }
            Err(e) => e,
        };

        // Failure: roll back stack frames and the KeyID, then discard the
        // half-built table's frames — nothing references the abandoned root,
        // so pooling them (zeroed) is safe, unlike the live-table case.
        let rolled = self.rollback(ctx, txn);
        for f in pt_frames {
            let _ = self.pool.give_back(f, ctx.sys);
        }
        if rolled.is_err() {
            return Err(EmsError::BadState);
        }
        Err(fail)
    }

    fn pool_bitmap_is_enclave(&mut self, ctx: &mut EmsContext<'_>, ppn: Ppn) -> EmsResult<bool> {
        Ok(ctx.sys.bitmap.is_enclave(ppn, &mut ctx.sys.phys)?)
    }

    /// EADD: copies `len` bytes from CS memory at `src_pa` into the enclave
    /// at `dest_va`, mapping fresh enclave pages with `perm_bits`
    /// (bit 0 = R, 1 = W, 2 = X), and extends the measurement.
    ///
    /// # Errors
    ///
    /// `BadState` after measurement, `InvalidArgument` for bad ranges.
    pub fn eadd(
        &mut self,
        ctx: &mut EmsContext<'_>,
        eid: u64,
        dest_va: u64,
        src_pa: u64,
        len: u64,
        perm_bits: u8,
    ) -> EmsResult<()> {
        let enclave = self.enclave(eid)?;
        if enclave.state != EnclaveState::Building {
            return Err(EmsError::BadState);
        }
        if !dest_va.is_multiple_of(PAGE_SIZE)
            || len == 0
            || dest_va < layout::CODE_BASE.0
            || dest_va + len > layout::STACK_BASE.0
        {
            return Err(EmsError::InvalidArgument);
        }
        let key = enclave.key.ok_or(EmsError::BadState)?;
        let table = enclave.page_table;
        let pages = len.div_ceil(PAGE_SIZE);
        let perms = perms_from_bits(perm_bits);
        let mut staged = StagedFrames::stage(2 + pages.div_ceil(512), &mut self.pool, ctx)?;
        let mut txn = Txn::begin(self.injector.abort_step());
        let mut added = Vec::new();
        let mut err: Option<EmsError> = None;
        for i in 0..pages {
            let va = VirtAddr(dest_va + i * PAGE_SIZE);
            let chunk_len = (len - i * PAGE_SIZE).min(PAGE_SIZE) as usize;
            let src = PhysAddr(src_pa + i * PAGE_SIZE);
            match self.eadd_one(
                ctx,
                &mut staged,
                &mut txn,
                eid,
                va,
                src,
                chunk_len,
                key,
                table,
                perms,
            ) {
                Ok((frame, page_buf)) => added.push((va, frame, page_buf)),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        // Branch frames woven into the live table are kept on both paths
        // (same dangling-PTE argument as EALLOC); only leaves roll back.
        let pt_frames = staged.unstage(&mut self.pool, ctx);
        for f in &pt_frames {
            if self.ownership.claim(*f, PageOwner::EmsPrivate).is_err() {
                err.get_or_insert(EmsError::AccessDenied);
            }
        }
        let enclave = self.enclave_mut(eid)?;
        enclave.pt_frames.extend(pt_frames);
        match err {
            None => {
                // The measurement extends only after every page landed — a
                // rolled-back EADD must leave the measurement untouched so
                // the retried request reproduces the same digest.
                let enclave = self.enclave_mut(eid)?;
                for (va, frame, data) in added {
                    enclave.extend_measurement(va, perm_bits, &data);
                    enclave.data_frames.push(frame);
                }
                Ok(())
            }
            Some(e) => {
                if self.rollback(ctx, txn).is_err() {
                    self.poison(eid);
                    return Err(EmsError::BadState);
                }
                Err(e)
            }
        }
    }

    /// One EADD page: take → claim → copy-through-key → map, undo-logged.
    #[allow(clippy::too_many_arguments)]
    fn eadd_one(
        &mut self,
        ctx: &mut EmsContext<'_>,
        staged: &mut StagedFrames,
        txn: &mut Txn,
        eid: u64,
        va: VirtAddr,
        src: PhysAddr,
        chunk_len: usize,
        key: KeyId,
        table: PageTable,
        perms: Perms,
    ) -> EmsResult<(Ppn, Vec<u8>)> {
        txn.step()?;
        let frame = self.pool.take(ctx.os_frames, ctx.sys)?;
        txn.record(UndoOp::ReturnToPool(frame));
        let owner = PageOwner::Enclave(EnclaveId(eid));
        self.ownership
            .claim(frame, owner)
            .map_err(|_| EmsError::AccessDenied)?;
        txn.record(UndoOp::ReleaseOwnership(frame, owner));
        // EMS reads the image chunk from CS memory (unidirectional access)
        // and writes it through the enclave's key.
        let mut page_buf = vec![0u8; PAGE_SIZE as usize];
        ctx.sys.phys.read(src, &mut page_buf[..chunk_len])?;
        let sys = &mut *ctx.sys;
        sys.engine
            .write(&mut sys.phys, frame.base(), key, &page_buf)?;
        table.map(va, frame, perms, key, staged, &mut ctx.sys.phys)?;
        txn.record(UndoOp::UnmapLeaf(table, va));
        Ok((frame, page_buf))
    }

    /// EMEAS: finalises the measurement and moves the enclave to `Measured`.
    ///
    /// # Errors
    ///
    /// `BadState` unless the enclave is still building.
    pub fn emeas(&mut self, eid: u64) -> EmsResult<[u8; 32]> {
        let enclave = self.enclave_mut(eid)?;
        if enclave.state != EnclaveState::Building {
            return Err(EmsError::BadState);
        }
        let digest = enclave.finalize_measurement();
        enclave.state = EnclaveState::Measured;
        Ok(digest)
    }

    /// EENTER: transitions to `Running` and returns what EMCall needs for
    /// the atomic context switch: page-table root, entry PC, KeyID.
    ///
    /// # Errors
    ///
    /// `BadState` unless the enclave is `Measured` or `Stopped`.
    pub fn eenter(
        &mut self,
        _ctx: &mut EmsContext<'_>,
        eid: u64,
    ) -> EmsResult<(Ppn, VirtAddr, KeyId)> {
        let enclave = self.enclave_mut(eid)?;
        match enclave.state {
            EnclaveState::Measured | EnclaveState::Stopped => {}
            _ => return Err(EmsError::BadState),
        }
        let key = enclave.key.ok_or(EmsError::BadState)?;
        enclave.state = EnclaveState::Running;
        enclave.switches += 1;
        Ok((enclave.page_table.root, enclave.entry, key))
    }

    /// ERESUME: like EENTER but also revives `Suspended` enclaves by
    /// re-deriving and re-programming their memory key under a fresh KeyID
    /// (§IV-C KeyID exhaustion recovery).
    ///
    /// # Errors
    ///
    /// `BadState` unless `Stopped` or `Suspended`.
    pub fn eresume(
        &mut self,
        ctx: &mut EmsContext<'_>,
        eid: u64,
    ) -> EmsResult<(Ppn, VirtAddr, KeyId)> {
        let state = self.enclave(eid)?.state;
        match state {
            EnclaveState::Stopped => self.eenter(ctx, eid),
            EnclaveState::Suspended => {
                let key = self.alloc_keyid(ctx)?;
                let (nonce, table_root, prev_key) = {
                    let e = self.enclave(eid)?;
                    (
                        e.key_nonce,
                        e.page_table,
                        e.prev_key.ok_or(EmsError::BadState)?,
                    )
                };
                let (aes, mac) = self.vault.enclave_memory_keys(eid, &nonce);
                ctx.hub
                    .ems_program_key(&self.cap, &mut ctx.sys.engine, key, &aes, &mac);
                // Rewrite the fresh KeyID into the enclave's own leaf PTEs.
                // Host-window (KeyID 0) and shared-memory PTEs keep theirs.
                let mappings = table_root.mappings(&mut ctx.sys.phys)?;
                for (va, pte) in mappings {
                    if pte.key() == prev_key {
                        table_root.unmap(va, &mut ctx.sys.phys)?;
                        table_root.map_raw(va, pte.ppn(), pte.perms(), key, &mut ctx.sys.phys)?;
                    }
                }
                let enclave = self.enclave_mut(eid)?;
                enclave.key = Some(key);
                enclave.prev_key = None;
                enclave.state = EnclaveState::Running;
                enclave.switches += 1;
                Ok((enclave.page_table.root, enclave.entry, key))
            }
            _ => Err(EmsError::BadState),
        }
    }

    /// EEXIT: transitions `Running` → `Stopped`.
    ///
    /// # Errors
    ///
    /// `BadState` unless running.
    pub fn eexit(&mut self, eid: u64) -> EmsResult<()> {
        let enclave = self.enclave_mut(eid)?;
        if enclave.state != EnclaveState::Running {
            return Err(EmsError::BadState);
        }
        enclave.state = EnclaveState::Stopped;
        enclave.switches += 1;
        Ok(())
    }

    /// EDESTROY: reclaims every page (zeroed back into the pool), releases
    /// ownership, revokes the key, and removes the control structure. Shared
    /// regions the enclave was attached to are detached; regions it created
    /// are destroyed once no connections remain.
    ///
    /// Destruction is *resumable* rather than transactional: there is no
    /// useful state to roll back to (the enclave is going away either way),
    /// so a mid-destroy abort marks the enclave poisoned and a retried
    /// EDESTROY simply continues from the first unreclaimed frame. The
    /// control structure — and the poison mark — go away only at the end.
    ///
    /// # Errors
    ///
    /// `NotFound` for unknown enclaves; `Aborted` on an injected
    /// mid-destroy fault (retry to finish the teardown).
    pub fn edestroy(&mut self, ctx: &mut EmsContext<'_>, eid: u64) -> EmsResult<()> {
        // Deliberately NOT `self.enclave()`: EDESTROY is the one primitive a
        // poisoned enclave still accepts.
        if !self.enclaves.contains_key(&eid) {
            return Err(EmsError::NotFound);
        }
        // A poisoned enclave's structures may already disagree; reclaim what
        // can be reclaimed instead of erroring out of the teardown.
        let tolerant = self.is_poisoned(eid);
        let mut txn = Txn::begin(self.injector.abort_step());
        // Detach from any shared regions (idempotent: a resumed destroy
        // finds the attachments already gone).
        let shm_ids: Vec<u64> = self.shms.keys().copied().collect();
        for sid in shm_ids {
            let Some(shm) = self.shms.get_mut(&sid) else {
                continue;
            };
            if shm.attached.remove(&eid).is_some() {
                shm.active_connections = shm.active_connections.saturating_sub(1);
            }
            let (creator, active) = (shm.creator, shm.active_connections);
            if creator == EnclaveId(eid) && active == 0 {
                self.destroy_shm_internal(ctx, sid)?;
            }
        }
        // Reclaim data pages, popping each frame only once it is fully
        // reclaimed so a resumed destroy continues exactly where it stopped.
        self.reclaim_frames(ctx, &mut txn, eid, false, tolerant)?;
        // Reclaim page-table pages the same way.
        self.reclaim_frames(ctx, &mut txn, eid, true, tolerant)?;
        let Some(enclave) = self.enclaves.remove(&eid) else {
            return Err(EmsError::NotFound);
        };
        if let Some(key) = enclave.key {
            ctx.hub.ems_revoke_key(&self.cap, &mut ctx.sys.engine, key);
            self.free_keyid(key);
        }
        self.unpoison(eid);
        Ok(())
    }

    /// Incrementally reclaims one of an enclave's frame lists (`pt` selects
    /// page-table frames over data frames). On an injected abort the enclave
    /// is poisoned and the list keeps its unreclaimed tail for the retry.
    fn reclaim_frames(
        &mut self,
        ctx: &mut EmsContext<'_>,
        txn: &mut Txn,
        eid: u64,
        pt: bool,
        tolerant: bool,
    ) -> EmsResult<()> {
        let owner = if pt {
            PageOwner::EmsPrivate
        } else {
            PageOwner::Enclave(EnclaveId(eid))
        };
        loop {
            let frame = {
                let Some(e) = self.enclaves.get(&eid) else {
                    return Err(EmsError::NotFound);
                };
                let list = if pt { &e.pt_frames } else { &e.data_frames };
                match list.last() {
                    Some(f) => *f,
                    None => return Ok(()),
                }
            };
            if txn.step().is_err() {
                self.poison(eid);
                return Err(EmsError::Aborted);
            }
            match self.ownership.release(frame, owner) {
                Ok(()) => self.pool.give_back(frame, ctx.sys)?,
                Err(_) if tolerant => {} // structures disagree; skip the frame
                Err(_) => return Err(EmsError::AccessDenied),
            }
            if let Some(e) = self.enclaves.get_mut(&eid) {
                let list = if pt {
                    &mut e.pt_frames
                } else {
                    &mut e.data_frames
                };
                list.pop();
            }
        }
    }

    /// The perm-bits encoding used across primitives (exposed for the SDK).
    pub fn encode_perms(p: Perms) -> u8 {
        perm_bits(p)
    }

    /// Inverse of [`Ems::encode_perms`].
    pub fn decode_perms(bits: u8) -> Perms {
        perms_from_bits(bits)
    }
}
