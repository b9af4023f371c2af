//! iHub: the fabric hub mediating CS ↔ EMS interaction (§III-A, Fig. 1).
//!
//! The hub owns the mailbox and the DMA whitelist, and gates the operations
//! that only EMS may perform behind [`EmsCapability`], a token minted exactly
//! once. This makes the paper's unidirectional isolation structural: CS-side
//! code cannot even *name* the EMS-only operations.

use crate::dma::{DeviceId, DmaWhitelist, DmaWindow};
use crate::iommu::{IoVpn, Iommu, IommuEntry};
use crate::mailbox::Mailbox;
use crate::message::{Request, Response};
use hypertee_faults::{FaultPlan, FaultStats};
use hypertee_mem::addr::KeyId;
use hypertee_mem::mktme::MktmeEngine;
use hypertee_mem::phys::PhysMemory;

/// The EMS-side authority token. Created once by [`IHub::new`]; the EMS
/// runtime keeps it and nothing else ever sees one.
#[derive(Debug)]
pub struct EmsCapability {
    _private: (),
}

/// The fabric hub.
#[derive(Debug)]
pub struct IHub {
    /// The primitive mailbox (CS submits/polls; EMS fetches/responds).
    pub mailbox: Mailbox,
    dma: DmaWhitelist,
    /// The EMS-managed IOMMU for translating devices (§V-B, §IX).
    pub iommu: Iommu,
}

impl IHub {
    /// Builds the hub and mints the single EMS capability.
    pub fn new() -> (IHub, EmsCapability) {
        (
            IHub {
                mailbox: Mailbox::new(),
                dma: DmaWhitelist::new(),
                iommu: Iommu::new(64),
            },
            EmsCapability { _private: () },
        )
    }

    /// Arms fault injection on the fabric-resident sites (mailbox and DMA
    /// whitelist) from one replayable plan. The EMS-side sites derive their
    /// own injectors from the same plan.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.mailbox.arm_faults(plan.injector("mailbox"));
        self.dma.arm_faults(plan.injector("dma"));
    }

    /// Aggregated faults injected at the fabric sites so far.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.mailbox.fault_stats().clone();
        stats.merge(self.dma.fault_stats());
        stats
    }

    // ---- EMS-only operations (require the capability) ----------------------

    /// EMS fetches the next pending primitive request.
    pub fn ems_fetch_request(&mut self, _cap: &EmsCapability) -> Option<Request> {
        self.mailbox.fetch_request()
    }

    /// EMS pushes a completed response.
    pub fn ems_push_response(&mut self, _cap: &EmsCapability, response: Response) {
        self.mailbox.push_response(response);
    }

    /// EMS programs a memory-encryption key slot (§IV-C: "configured only by
    /// EMS via iHub").
    pub fn ems_program_key(
        &mut self,
        _cap: &EmsCapability,
        engine: &mut MktmeEngine,
        key: KeyId,
        aes_key: &[u8; 16],
        mac_key: &[u8; 32],
    ) {
        engine.program_key(key, aes_key, mac_key);
    }

    /// EMS revokes a key slot (KeyID exhaustion, §IV-C).
    pub fn ems_revoke_key(&mut self, _cap: &EmsCapability, engine: &mut MktmeEngine, key: KeyId) {
        engine.revoke_key(key);
    }

    /// EMS installs a DMA whitelist window (§V-C).
    pub fn ems_grant_dma(&mut self, _cap: &EmsCapability, dev: DeviceId, window: DmaWindow) {
        self.dma.grant(dev, window);
    }

    /// EMS revokes all DMA windows of a device.
    pub fn ems_revoke_dma(&mut self, _cap: &EmsCapability, dev: DeviceId) {
        self.dma.revoke_all(dev);
    }

    /// EMS installs one IOMMU mapping for a translating device (§IX:
    /// "address translation table maintenance").
    pub fn ems_iommu_map(
        &mut self,
        _cap: &EmsCapability,
        dev: DeviceId,
        iova: IoVpn,
        entry: IommuEntry,
    ) {
        self.iommu.map(dev, iova, entry);
    }

    /// EMS removes one IOMMU mapping (with IOTLB invalidation).
    pub fn ems_iommu_unmap(&mut self, _cap: &EmsCapability, dev: DeviceId, iova: IoVpn) -> bool {
        self.iommu.unmap(dev, iova)
    }

    /// EMS detaches a translating device entirely.
    pub fn ems_iommu_detach(&mut self, _cap: &EmsCapability, dev: DeviceId) {
        self.iommu.detach(dev);
    }

    // ---- Hardware-path operations ------------------------------------------

    /// A DMA engine attempts an access; the whitelist decides. On success
    /// the access is performed against CS physical memory (devices sit below
    /// address translation but above the whitelist registers).
    ///
    /// Returns `false` (access discarded) when no window covers the request.
    pub fn dma_access(
        &mut self,
        dev: DeviceId,
        mem: &mut PhysMemory,
        addr: hypertee_mem::addr::PhysAddr,
        data: DmaOp<'_>,
    ) -> bool {
        let (len, write) = match &data {
            DmaOp::Read(buf) => (buf.len() as u64, false),
            DmaOp::Write(buf) => (buf.len() as u64, true),
        };
        if !self.dma.check(dev, addr, len, write) {
            return false;
        }
        match data {
            DmaOp::Read(buf) => mem.read(addr, buf).is_ok(),
            DmaOp::Write(buf) => mem.write(addr, buf).is_ok(),
        }
    }

    /// DMA accesses discarded so far (observability for tests/benches).
    pub fn dma_discarded(&self) -> u64 {
        self.dma.discarded
    }

    /// A *translating* device (IOMMU-attached GPU etc.) attempts an access
    /// at an I/O virtual address. Translation faults discard the access.
    pub fn dma_access_iommu(
        &mut self,
        dev: DeviceId,
        mem: &mut PhysMemory,
        iova: u64,
        data: DmaOp<'_>,
    ) -> bool {
        let (len, write) = match &data {
            DmaOp::Read(buf) => (buf.len() as u64, false),
            DmaOp::Write(buf) => (buf.len() as u64, true),
        };
        let Some(pa) = self.iommu.translate(dev, iova, len, write) else {
            return false;
        };
        match data {
            DmaOp::Read(buf) => mem.read(pa, buf).is_ok(),
            DmaOp::Write(buf) => mem.write(pa, buf).is_ok(),
        }
    }
}

/// Direction and buffer of one DMA transfer.
#[derive(Debug)]
pub enum DmaOp<'a> {
    /// Device reads CS memory into its own buffer.
    Read(&'a mut [u8]),
    /// Device writes its buffer into CS memory.
    Write(&'a [u8]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::DmaPerm;
    use crate::message::{CallerIdentity, Primitive, Privilege};
    use hypertee_mem::addr::PhysAddr;

    fn request() -> Request {
        Request {
            req_id: 0,
            primitive: Primitive::Ecreate,
            caller: CallerIdentity {
                privilege: Privilege::Os,
                enclave: None,
            },
            args: vec![],
            payload: vec![],
        }
    }

    #[test]
    fn ems_round_trip_through_hub() {
        let (mut hub, cap) = IHub::new();
        let ticket = hub.mailbox.submit(request());
        let req = hub.ems_fetch_request(&cap).unwrap();
        hub.ems_push_response(&cap, Response::ok(req.req_id, vec![9]));
        assert_eq!(hub.mailbox.poll(&ticket).unwrap().vals, vec![9]);
    }

    #[test]
    fn key_programming_goes_through_hub() {
        let (mut hub, cap) = IHub::new();
        let mut engine = MktmeEngine::new(true);
        hub.ems_program_key(&cap, &mut engine, KeyId(4), &[1; 16], &[2; 32]);
        assert!(engine.key_programmed(KeyId(4)));
        hub.ems_revoke_key(&cap, &mut engine, KeyId(4));
        assert!(!engine.key_programmed(KeyId(4)));
    }

    #[test]
    fn dma_denied_without_window() {
        let (mut hub, _cap) = IHub::new();
        let mut mem = PhysMemory::new(1 << 20);
        let mut buf = [0u8; 16];
        assert!(!hub.dma_access(
            DeviceId(0),
            &mut mem,
            PhysAddr(0x1000),
            DmaOp::Read(&mut buf)
        ));
        assert_eq!(hub.dma_discarded(), 1);
    }

    #[test]
    fn dma_window_enables_transfer() {
        let (mut hub, cap) = IHub::new();
        let mut mem = PhysMemory::new(1 << 20);
        mem.write(PhysAddr(0x2000), b"device-visible payload!!")
            .unwrap();
        hub.ems_grant_dma(
            &cap,
            DeviceId(1),
            DmaWindow {
                base: PhysAddr(0x2000),
                size: 0x1000,
                perm: DmaPerm::ReadWrite,
            },
        );
        let mut buf = [0u8; 24];
        assert!(hub.dma_access(
            DeviceId(1),
            &mut mem,
            PhysAddr(0x2000),
            DmaOp::Read(&mut buf)
        ));
        assert_eq!(&buf, b"device-visible payload!!");
        // Outside the window the access is discarded and memory untouched.
        assert!(!hub.dma_access(
            DeviceId(1),
            &mut mem,
            PhysAddr(0x8000),
            DmaOp::Write(b"evil")
        ));
        let mut probe = [0u8; 4];
        mem.read(PhysAddr(0x8000), &mut probe).unwrap();
        assert_eq!(probe, [0u8; 4]);
    }

    #[test]
    fn revoked_device_loses_access() {
        let (mut hub, cap) = IHub::new();
        let mut mem = PhysMemory::new(1 << 20);
        hub.ems_grant_dma(
            &cap,
            DeviceId(2),
            DmaWindow {
                base: PhysAddr(0),
                size: 0x1000,
                perm: DmaPerm::ReadWrite,
            },
        );
        hub.ems_revoke_dma(&cap, DeviceId(2));
        let mut buf = [0u8; 4];
        assert!(!hub.dma_access(DeviceId(2), &mut mem, PhysAddr(0), DmaOp::Read(&mut buf)));
    }
}
