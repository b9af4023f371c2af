//! Multi-key memory encryption engine with integrity (§IV-C).
//!
//! "HyperTEE leverages a commercial multi-key memory encryption engine,
//! similar to Intel MK-TME and AMD SME. Each enclave is assigned a unique
//! encryption key and identification (KeyID), configured only by EMS via
//! iHub… HyperTEE employs SHA-3 based MAC (28-bit)… In case of an integrity
//! violation, an exception is triggered."
//!
//! The engine sits between the cores and [`crate::phys::PhysMemory`]:
//! physical memory holds *ciphertext* for encrypted KeyIDs. Reads through
//! the wrong KeyID therefore really return garbage and (when integrity is
//! on) really fault — the behaviour the paper's attack-surface analysis
//! (§VIII-C, "PTW cannot decrypt enclave data correctly") relies on.

use crate::addr::{KeyId, PhysAddr, Ppn, PAGE_SIZE};
use crate::phys::PhysMemory;
use crate::MemFault;
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::mac::{mac28, mac28_lines, mac28_ref, MacTag, MAC_BATCH_LINES};
use std::collections::HashMap;

/// Memory-line granularity of encryption and MAC (bytes).
pub const LINE_SIZE: u64 = 64;

/// CTR nonce of every line's keystream (the "MKTME1" domain tag); the line's
/// physical address is the tweak.
const MKTME_NONCE: u64 = 0x4d4b_544d_4531_0001;

/// XORs a line's keystream into `line` (decrypt or encrypt).
fn xor_line(line: &mut [u8], ks: &[u8; LINE_SIZE as usize]) {
    for (b, k) in line.iter_mut().zip(ks) {
        *b ^= k;
    }
}

#[derive(Clone)]
struct KeySlot {
    cipher: Aes128,
    mac_key: [u8; 32],
}

impl core::fmt::Debug for KeySlot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "KeySlot {{ <redacted> }}")
    }
}

/// Engine event counters (timing-model input), plus host-speed fast-path
/// hit counters (observability only — they price nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MktmeStats {
    /// Bytes encrypted on writes.
    pub bytes_encrypted: u64,
    /// Bytes decrypted on reads.
    pub bytes_decrypted: u64,
    /// MAC verifications performed.
    pub mac_checks: u64,
    /// MAC failures raised.
    pub mac_failures: u64,
    /// Writes that covered a whole aligned line and skipped the
    /// read-decrypt-splice RMW (fast path).
    pub full_line_writes: u64,
    /// 16-byte keystream blocks processed through the multi-line span fast
    /// path (one physical-memory round trip for the whole request).
    pub keystream_blocks_batched: u64,
}

/// Lines of MAC tags per [`MacTable`] page (each page covers 32 KiB of
/// protected memory; a tag page costs 2 KiB plus its zero keys).
const MAC_PAGE_LINES: u64 = 512;

/// Memory lines per 4 KiB frame: the granularity of zero-pending state.
const FRAME_LINES: u64 = PAGE_SIZE / LINE_SIZE;

/// Sentinel for "no tag recorded": real tags are 28-bit, so `u32::MAX`
/// can never collide with one.
const MAC_EMPTY: u32 = u32::MAX;

/// Sentinel for a zero-pending line: its tag is that of an all-zero line
/// under the MAC key recorded for its frame, materialised on demand.
const MAC_ZERO_PENDING: u32 = u32::MAX - 1;

/// The line tags of one 32 KiB stretch, plus the MAC key each of its eight
/// frames was last zeroed under (meaningful only while the frame still has
/// zero-pending lines).
struct MacPage {
    tags: [u32; MAC_PAGE_LINES as usize],
    zero_keys: [[u8; 32]; (MAC_PAGE_LINES / FRAME_LINES) as usize],
}

impl core::fmt::Debug for MacPage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Zero keys are key material: never print them.
        f.debug_struct("MacPage")
            .field("tags", &self.tags)
            .finish_non_exhaustive()
    }
}

/// The tag of an all-zero line at `line_base` under `mac_key`.
fn zero_line_tag(mac_key: &[u8; 32], line_base: u64) -> MacTag {
    mac28(mac_key, line_base, &[0u8; LINE_SIZE as usize])
}

/// Paged flat MAC store indexed by line number — replaces the previous
/// per-line `HashMap<u64, MacTag>`: one hash probe per 512-line page plus
/// an array index, instead of one probe per line.
///
/// Each line is empty, tagged, or *zero-pending*: a frame zeroed through
/// [`MktmeEngine::zero_page`] records one copy of the writer's MAC key
/// instead of 64 tags, and [`MacTable::get`] derives the tag of an
/// all-zero line from it. Observably the table holds exactly what eager
/// tagging would have stored.
#[derive(Debug, Default)]
pub struct MacTable {
    pages: HashMap<u64, Box<MacPage>>,
}

impl MacTable {
    fn page_mut(&mut self, line: u64) -> &mut MacPage {
        self.pages.entry(line / MAC_PAGE_LINES).or_insert_with(|| {
            Box::new(MacPage {
                tags: [MAC_EMPTY; MAC_PAGE_LINES as usize],
                zero_keys: [[0; 32]; (MAC_PAGE_LINES / FRAME_LINES) as usize],
            })
        })
    }

    /// The tag of entry `idx` (line number `line`) of `page`.
    fn tag_at(page: &MacPage, line: u64, idx: usize) -> Option<MacTag> {
        match page.tags[idx] {
            MAC_EMPTY => None,
            MAC_ZERO_PENDING => Some(zero_line_tag(
                &page.zero_keys[idx / FRAME_LINES as usize],
                line * LINE_SIZE,
            )),
            tag => Some(MacTag(tag)),
        }
    }

    /// Looks up the tag recorded for a line number (`pa / LINE_SIZE`).
    pub fn get(&self, line: u64) -> Option<MacTag> {
        let page = self.pages.get(&(line / MAC_PAGE_LINES))?;
        Self::tag_at(page, line, (line % MAC_PAGE_LINES) as usize)
    }

    /// [`MacTable::get`] for a line about to be verified: a zero-pending
    /// line's tag is materialised and stored, so each is hashed at most
    /// once. Other lines cost the same single lookup as `get`.
    fn settle(&mut self, line: u64) -> Option<MacTag> {
        let page = self.pages.get_mut(&(line / MAC_PAGE_LINES))?;
        let idx = (line % MAC_PAGE_LINES) as usize;
        let tag = Self::tag_at(page, line, idx)?;
        page.tags[idx] = tag.0;
        Some(tag)
    }

    /// Records the tag for a line number (replacing any zero-pending state).
    pub fn insert(&mut self, line: u64, tag: MacTag) {
        self.page_mut(line).tags[(line % MAC_PAGE_LINES) as usize] = tag.0;
    }

    /// Marks every line of `frame` zero-pending under `mac_key`.
    fn set_zero_pending(&mut self, frame: Ppn, mac_key: &[u8; 32]) {
        let first_line = frame.0 * FRAME_LINES;
        let page = self.page_mut(first_line);
        let idx = (first_line % MAC_PAGE_LINES) as usize;
        page.tags[idx..idx + FRAME_LINES as usize].fill(MAC_ZERO_PENDING);
        page.zero_keys[idx / FRAME_LINES as usize] = *mac_key;
    }

    /// Number of lines with a recorded tag (observability/audits).
    pub fn len(&self) -> usize {
        self.pages
            .values()
            .map(|p| p.tags.iter().filter(|&&t| t != MAC_EMPTY).count())
            .sum()
    }

    /// Whether no line has a recorded tag.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The multi-key engine.
#[derive(Debug)]
pub struct MktmeEngine {
    keys: HashMap<u16, KeySlot>,
    /// Per-line MACs: line number → tag (keyed by the writing key's
    /// MAC key, so re-programming the same key under a new KeyID — the
    /// suspension/resume path of §IV-C — keeps lines verifiable).
    macs: MacTable,
    integrity: bool,
    /// Counters.
    pub stats: MktmeStats,
}

impl MktmeEngine {
    /// Creates an engine; `integrity` enables the 28-bit MAC path.
    pub fn new(integrity: bool) -> Self {
        MktmeEngine {
            keys: HashMap::new(),
            macs: MacTable::default(),
            integrity,
            stats: MktmeStats::default(),
        }
    }

    /// Whether integrity protection is enabled.
    pub fn integrity_enabled(&self) -> bool {
        self.integrity
    }

    /// Programs a key slot. In the real SoC only EMS can reach this register
    /// interface (via iHub); the fabric layer enforces that restriction.
    ///
    /// # Panics
    ///
    /// Panics when programming KeyID 0, which is architecturally plaintext.
    pub fn program_key(&mut self, key: KeyId, aes_key: &[u8; 16], mac_key: &[u8; 32]) {
        assert!(key.is_encrypted(), "KeyID 0 is the plaintext domain");
        self.keys.insert(
            key.0,
            KeySlot {
                cipher: Aes128::new(aes_key),
                mac_key: *mac_key,
            },
        );
    }

    /// Revokes a key slot (KeyID exhaustion handling, §IV-C). Lines written
    /// under the key keep their MACs, so stale reuse is detectable.
    pub fn revoke_key(&mut self, key: KeyId) {
        self.keys.remove(&key.0);
    }

    /// Whether a KeyID currently has a programmed key.
    pub fn key_programmed(&self, key: KeyId) -> bool {
        self.keys.contains_key(&key.0)
    }

    /// Number of programmed keys.
    pub fn keys_in_use(&self) -> usize {
        self.keys.len()
    }

    /// Applies the memory keystream to `buf`, whose first byte is the start
    /// of the line at `first_line_base`: each line is tweaked by its own
    /// physical address, the whole run streamed through one
    /// [`Aes128::ctr_lines`] call.
    fn keystream(slot: &KeySlot, first_line_base: u64, buf: &mut [u8]) {
        slot.cipher.ctr_lines(first_line_base, MKTME_NONCE, buf);
    }

    /// One line's keystream, generated once so a read-modify-write can
    /// decrypt and re-encrypt the line with two XORs.
    fn line_keystream(slot: &KeySlot, line_base: u64) -> [u8; LINE_SIZE as usize] {
        let mut ks = [0u8; LINE_SIZE as usize];
        Self::keystream(slot, line_base, &mut ks);
        ks
    }

    /// [`MktmeEngine::keystream`] for one line over the pre-optimization
    /// scalar AES (reference data plane).
    fn keystream_ref(slot: &KeySlot, line_base: u64, line: &mut [u8]) {
        let iv = ctr_iv(line_base, MKTME_NONCE);
        slot.cipher.ctr_apply_ref(&iv, line);
    }

    /// Tags for every line of a plaintext span, in line order. Aligned
    /// groups of eight consecutive lines go through the lane-sliced
    /// [`mac28_lines`] batch; the remainder falls back to [`mac28`]. MAC
    /// computation touches neither physical memory nor the engine counters,
    /// so batching is invisible to the timing model.
    fn span_tags(slot: &KeySlot, span_base: u64, span: &[u8]) -> Vec<MacTag> {
        let nlines = span.len() / LINE_SIZE as usize;
        let mut tags = Vec::with_capacity(nlines);
        let mut i = 0usize;
        while i + MAC_BATCH_LINES <= nlines {
            let chunk: &[u8; MAC_BATCH_LINES * LINE_SIZE as usize] = span
                [i * LINE_SIZE as usize..(i + MAC_BATCH_LINES) * LINE_SIZE as usize]
                .try_into()
                .expect("eight lines");
            tags.extend(mac28_lines(
                &slot.mac_key,
                span_base + i as u64 * LINE_SIZE,
                chunk,
            ));
            i += MAC_BATCH_LINES;
        }
        while i < nlines {
            let line_base = span_base + i as u64 * LINE_SIZE;
            tags.push(mac28(
                &slot.mac_key,
                line_base,
                &span[i * LINE_SIZE as usize..(i + 1) * LINE_SIZE as usize],
            ));
            i += 1;
        }
        tags
    }

    /// Zeroes `frame` through `key` — the EMS "zero before mapping" step
    /// (§IV-A).
    ///
    /// Observably identical to `write(mem, frame.base(), key, &[0; 4096])`:
    /// physical memory receives the same ciphertext (the page's keystream),
    /// and the counters, raw-access trajectory and faults match. The
    /// difference is cost: one [`Aes128::ctr_lines`] pass and no Keccak.
    /// Instead of 64 line tags the MAC table records the frame as
    /// zero-pending under the key's MAC key (see [`MacTable`]).
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] for an unprogrammed encrypted KeyID or an
    /// out-of-range frame.
    pub fn zero_page(
        &mut self,
        mem: &mut PhysMemory,
        frame: Ppn,
        key: KeyId,
    ) -> Result<(), MemFault> {
        let frame_base = frame.base();
        if !key.is_encrypted() {
            return mem.write(frame_base, &[0u8; PAGE_SIZE as usize]);
        }
        let slot = self
            .keys
            .get(&key.0)
            .ok_or(MemFault::BusError { pa: frame_base.0 })?;
        self.stats.bytes_encrypted += PAGE_SIZE;
        let mut page = [0u8; PAGE_SIZE as usize];
        Self::keystream(slot, frame_base.0, &mut page);
        mem.write(frame_base, &page)?;
        // The per-line trajectory of `write`: one read and one write per
        // line, the last write being the one just made.
        mem.access_count += 2 * FRAME_LINES - 1;
        self.stats.keystream_blocks_batched += PAGE_SIZE / 16;
        self.stats.full_line_writes += FRAME_LINES;
        if self.integrity {
            self.macs.set_zero_pending(frame, &slot.mac_key);
        }
        Ok(())
    }

    /// Writes `data` at `pa` through `key`.
    ///
    /// For encrypted KeyIDs this stores ciphertext at line granularity and
    /// refreshes each line's MAC. Fast paths (host wall-clock only — the
    /// modelled byte/MAC charges are identical to the scalar data plane):
    ///
    /// * a write covering a whole aligned line skips the
    ///   read-decrypt-splice RMW entirely;
    /// * a partial line generates its keystream once and XORs it twice
    ///   (decrypt, then re-encrypt after the splice);
    /// * a request spanning several contiguous lines makes one physical
    ///   round trip for the whole span and streams the keystream across it.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] for unprogrammed encrypted KeyIDs or
    /// out-of-range addresses.
    pub fn write(
        &mut self,
        mem: &mut PhysMemory,
        pa: PhysAddr,
        key: KeyId,
        data: &[u8],
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.write(pa, data);
        }
        let slot = self
            .keys
            .get(&key.0)
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_encrypted += data.len() as u64;
        let span_base = pa.0 & !(LINE_SIZE - 1);
        let span_end = (pa.0 + data.len() as u64).div_ceil(LINE_SIZE) * LINE_SIZE;
        let nlines = ((span_end - span_base) / LINE_SIZE).max(1);
        if nlines > 1 {
            let mut span = vec![0u8; (span_end - span_base) as usize];
            if mem.read(PhysAddr(span_base), &mut span).is_ok() {
                // The raw-access counter stays on the per-line trajectory
                // (one read + one write per line) even though the span makes
                // a single round trip each way.
                mem.access_count += 2 * (nlines - 1);
                self.stats.keystream_blocks_batched += span.len() as u64 / 16;
                // Assemble the plaintext span: only the first and last line
                // can be partial; decrypt those (keeping their keystreams)
                // and splice `data` over the whole span — full lines never
                // need their old contents.
                let line = LINE_SIZE as usize;
                let last = span.len() - line;
                let head = (pa.0 != span_base).then(|| Self::line_keystream(slot, span_base));
                let tail = (pa.0 + data.len() as u64 != span_end)
                    .then(|| Self::line_keystream(slot, span_end - LINE_SIZE));
                let xor_edges = |span: &mut [u8]| {
                    if let Some(ks) = &head {
                        xor_line(&mut span[..line], ks);
                    }
                    if let Some(ks) = &tail {
                        xor_line(&mut span[last..], ks);
                    }
                };
                xor_edges(&mut span);
                let off = (pa.0 - span_base) as usize;
                span[off..off + data.len()].copy_from_slice(data);
                self.stats.full_line_writes +=
                    nlines - u64::from(head.is_some()) - u64::from(tail.is_some());
                // MAC the plaintext span eight lines at a time, then
                // re-encrypt it in place: the edge lines with their saved
                // keystreams, the full lines in one streamed pass.
                if self.integrity {
                    for (i, tag) in Self::span_tags(slot, span_base, &span)
                        .into_iter()
                        .enumerate()
                    {
                        self.macs.insert(span_base / LINE_SIZE + i as u64, tag);
                    }
                }
                xor_edges(&mut span);
                let lo = if head.is_some() { line } else { 0 };
                let hi = if tail.is_some() { last } else { span.len() };
                if lo < hi {
                    Self::keystream(slot, span_base + lo as u64, &mut span[lo..hi]);
                }
                return mem.write(PhysAddr(span_base), &span);
            }
            // Span read refused (range straddles the end of installed
            // memory): fall through to the per-line path, which faults at
            // exactly the line the scalar data plane would.
        }
        let mut written = 0usize;
        let mut addr = pa.0;
        while written < data.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(data.len() - written);
            let mut line = [0u8; LINE_SIZE as usize];
            // The raw read happens even for a full line, so the access
            // trajectory (and any fault it would raise) is unchanged.
            mem.read(PhysAddr(line_base), &mut line)?;
            let ks = Self::line_keystream(slot, line_base);
            if off == 0 && take == LINE_SIZE as usize {
                // Full aligned line: skip the decrypt-splice RMW.
                line.copy_from_slice(&data[written..written + take]);
                self.stats.full_line_writes += 1;
            } else {
                // Decrypt the current line and splice in the new bytes.
                xor_line(&mut line, &ks);
                line[off..off + take].copy_from_slice(&data[written..written + take]);
            }
            // Refresh the MAC over the plaintext line.
            if self.integrity {
                let tag = mac28(&slot.mac_key, line_base, &line);
                self.macs.insert(line_base / LINE_SIZE, tag);
            }
            // Re-encrypt with the same keystream and store.
            xor_line(&mut line, &ks);
            mem.write(PhysAddr(line_base), &line)?;
            written += take;
            addr += take as u64;
        }
        Ok(())
    }

    /// Reads through `key` into `buf`.
    ///
    /// Requests spanning several contiguous lines make one physical round
    /// trip for the whole span; per-line MAC verification, fill order, and
    /// every fault are identical to the scalar data plane. The first read
    /// of a zero-pending line stores its materialised tag.
    ///
    /// # Errors
    ///
    /// [`MemFault::IntegrityViolation`] when a MAC check fails (tampering,
    /// wrong KeyID, or unauthenticated data); [`MemFault::BusError`] for
    /// unprogrammed encrypted KeyIDs or out-of-range addresses.
    pub fn read(
        &mut self,
        mem: &mut PhysMemory,
        pa: PhysAddr,
        key: KeyId,
        buf: &mut [u8],
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.read(pa, buf);
        }
        let slot = self
            .keys
            .get(&key.0)
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_decrypted += buf.len() as u64;
        let span_base = pa.0 & !(LINE_SIZE - 1);
        let span_end = (pa.0 + buf.len() as u64).div_ceil(LINE_SIZE) * LINE_SIZE;
        let nlines = ((span_end - span_base) / LINE_SIZE).max(1);
        if nlines > 1 {
            let mut span = vec![0u8; (span_end - span_base) as usize];
            if mem.read(PhysAddr(span_base), &mut span).is_ok() {
                self.stats.keystream_blocks_batched += span.len() as u64 / 16;
                // Decrypt the whole span and batch-compute the expected tags
                // up front (neither touches memory or counters); comparisons
                // below stay strictly per-line so counter trajectories and
                // the first-failing-line fault are identical to the scalar
                // data plane.
                Self::keystream(slot, span_base, &mut span);
                let tags = if self.integrity {
                    Self::span_tags(slot, span_base, &span)
                } else {
                    Vec::new()
                };
                let mut done = 0usize;
                for (i, line) in span.chunks(LINE_SIZE as usize).enumerate() {
                    let line_base = span_base + i as u64 * LINE_SIZE;
                    if i > 0 {
                        // Keep the raw-access counter on the per-line
                        // trajectory, including after an early MAC-failure
                        // return (k+1 line reads for a failure at line k).
                        mem.access_count += 1;
                    }
                    let off = (pa.0.max(line_base) - line_base) as usize;
                    let take = (LINE_SIZE as usize - off).min(buf.len() - done);
                    if self.integrity {
                        self.stats.mac_checks += 1;
                        let valid = match self.macs.settle(line_base / LINE_SIZE) {
                            Some(tag) => tags[i] == tag,
                            None => false,
                        };
                        if !valid {
                            self.stats.mac_failures += 1;
                            return Err(MemFault::IntegrityViolation { pa: line_base });
                        }
                    }
                    buf[done..done + take].copy_from_slice(&line[off..off + take]);
                    done += take;
                }
                return Ok(());
            }
            // Fall through: fault at exactly the line the scalar path would.
        }
        let mut done = 0usize;
        let mut addr = pa.0;
        while done < buf.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(buf.len() - done);
            let mut line = [0u8; LINE_SIZE as usize];
            mem.read(PhysAddr(line_base), &mut line)?;
            Self::keystream(slot, line_base, &mut line);
            if self.integrity {
                self.stats.mac_checks += 1;
                let valid = match self.macs.settle(line_base / LINE_SIZE) {
                    Some(tag) => mac28(&slot.mac_key, line_base, &line) == tag,
                    None => false,
                };
                if !valid {
                    self.stats.mac_failures += 1;
                    return Err(MemFault::IntegrityViolation { pa: line_base });
                }
            }
            buf[done..done + take].copy_from_slice(&line[off..off + take]);
            done += take;
            addr += take as u64;
        }
        Ok(())
    }

    /// The seed's scalar write path (per-line RMW, cloned key slot, scalar
    /// AES/Keccak), kept verbatim as the differential oracle and the
    /// "before" measurement of the tracked benchmark pipeline. Shares the
    /// key and MAC state with the optimized path, so the two can be
    /// interleaved freely.
    ///
    /// # Errors
    ///
    /// As [`MktmeEngine::write`].
    pub fn write_ref(
        &mut self,
        mem: &mut PhysMemory,
        pa: PhysAddr,
        key: KeyId,
        data: &[u8],
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.write(pa, data);
        }
        let slot = self
            .keys
            .get(&key.0)
            .cloned()
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_encrypted += data.len() as u64;
        let mut written = 0usize;
        let mut addr = pa.0;
        while written < data.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(data.len() - written);
            let mut line = [0u8; LINE_SIZE as usize];
            mem.read(PhysAddr(line_base), &mut line)?;
            Self::keystream_ref(&slot, line_base, &mut line);
            line[off..off + take].copy_from_slice(&data[written..written + take]);
            if self.integrity {
                let tag = mac28_ref(&slot.mac_key, line_base, &line);
                self.macs.insert(line_base / LINE_SIZE, tag);
            }
            Self::keystream_ref(&slot, line_base, &mut line);
            mem.write(PhysAddr(line_base), &line)?;
            written += take;
            addr += take as u64;
        }
        Ok(())
    }

    /// The seed's scalar read path — differential oracle and benchmark
    /// baseline for [`MktmeEngine::read`].
    ///
    /// # Errors
    ///
    /// As [`MktmeEngine::read`].
    pub fn read_ref(
        &mut self,
        mem: &mut PhysMemory,
        pa: PhysAddr,
        key: KeyId,
        buf: &mut [u8],
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.read(pa, buf);
        }
        let slot = self
            .keys
            .get(&key.0)
            .cloned()
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_decrypted += buf.len() as u64;
        let mut done = 0usize;
        let mut addr = pa.0;
        while done < buf.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(buf.len() - done);
            let mut line = [0u8; LINE_SIZE as usize];
            mem.read(PhysAddr(line_base), &mut line)?;
            Self::keystream_ref(&slot, line_base, &mut line);
            if self.integrity {
                self.stats.mac_checks += 1;
                let valid = match self.macs.get(line_base / LINE_SIZE) {
                    Some(tag) => mac28_ref(&slot.mac_key, line_base, &line) == tag,
                    None => false,
                };
                if !valid {
                    self.stats.mac_failures += 1;
                    return Err(MemFault::IntegrityViolation { pa: line_base });
                }
            }
            buf[done..done + take].copy_from_slice(&line[off..off + take]);
            done += take;
            addr += take as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMemory, MktmeEngine) {
        let mem = PhysMemory::new(4 << 20);
        let mut engine = MktmeEngine::new(true);
        engine.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
        engine.program_key(KeyId(2), &[0x22; 16], &[0xa2; 32]);
        (mem, engine)
    }

    #[test]
    fn encrypted_roundtrip() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x10_000);
        engine
            .write(&mut mem, pa, KeyId(1), b"enclave secret data")
            .unwrap();
        let mut buf = [0u8; 19];
        engine.read(&mut mem, pa, KeyId(1), &mut buf).unwrap();
        assert_eq!(&buf, b"enclave secret data");
    }

    #[test]
    fn memory_holds_ciphertext() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x10_000);
        engine
            .write(&mut mem, pa, KeyId(1), b"enclave secret data")
            .unwrap();
        // A raw (host KeyID 0) read sees ciphertext, not the plaintext.
        let mut raw = [0u8; 19];
        mem.read(pa, &mut raw).unwrap();
        assert_ne!(&raw, b"enclave secret data");
    }

    #[test]
    fn wrong_keyid_read_faults() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x20_000);
        engine.write(&mut mem, pa, KeyId(1), &[0x5a; 64]).unwrap();
        let mut buf = [0u8; 64];
        assert!(matches!(
            engine.read(&mut mem, pa, KeyId(2), &mut buf),
            Err(MemFault::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn physical_tampering_detected() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x30_000);
        engine.write(&mut mem, pa, KeyId(1), &[7u8; 64]).unwrap();
        // Attacker flips a ciphertext bit through the plaintext domain.
        let mut raw = [0u8; 1];
        mem.read(pa, &mut raw).unwrap();
        raw[0] ^= 0x80;
        mem.write(pa, &raw).unwrap();
        let mut buf = [0u8; 64];
        assert!(matches!(
            engine.read(&mut mem, pa, KeyId(1), &mut buf),
            Err(MemFault::IntegrityViolation { .. })
        ));
        assert_eq!(engine.stats.mac_failures, 1);
    }

    #[test]
    fn unauthenticated_lines_rejected() {
        let (mut mem, mut engine) = setup();
        // Nothing was ever written with KeyID 1 at this line.
        let mut buf = [0u8; 16];
        assert!(matches!(
            engine.read(&mut mem, PhysAddr(0x40_000), KeyId(1), &mut buf),
            Err(MemFault::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn unprogrammed_key_is_bus_error() {
        let (mut mem, mut engine) = setup();
        let mut buf = [0u8; 8];
        assert!(matches!(
            engine.read(&mut mem, PhysAddr(0x1000), KeyId(9), &mut buf),
            Err(MemFault::BusError { .. })
        ));
        assert!(engine
            .write(&mut mem, PhysAddr(0x1000), KeyId(9), &[0; 8])
            .is_err());
    }

    #[test]
    fn partial_line_write_preserves_rest() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x50_000);
        engine.write(&mut mem, pa, KeyId(1), &[0xaa; 64]).unwrap();
        // Overwrite 8 bytes in the middle of the line.
        engine
            .write(&mut mem, PhysAddr(pa.0 + 20), KeyId(1), &[0xbb; 8])
            .unwrap();
        let mut buf = [0u8; 64];
        engine.read(&mut mem, pa, KeyId(1), &mut buf).unwrap();
        assert_eq!(&buf[..20], &[0xaa; 20]);
        assert_eq!(&buf[20..28], &[0xbb; 8]);
        assert_eq!(&buf[28..], &[0xaa; 36]);
    }

    #[test]
    fn key_revocation() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x60_000);
        engine.write(&mut mem, pa, KeyId(1), &[1u8; 64]).unwrap();
        engine.revoke_key(KeyId(1));
        assert!(!engine.key_programmed(KeyId(1)));
        let mut buf = [0u8; 64];
        assert!(engine.read(&mut mem, pa, KeyId(1), &mut buf).is_err());
        // Reprogramming with a different key does not resurrect plaintext.
        engine.program_key(KeyId(1), &[0x99; 16], &[0x88; 32]);
        assert!(matches!(
            engine.read(&mut mem, pa, KeyId(1), &mut buf),
            Err(MemFault::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn host_keyid_bypasses_engine() {
        let (mut mem, mut engine) = setup();
        engine
            .write(&mut mem, PhysAddr(0x100), KeyId::HOST, b"plain")
            .unwrap();
        let mut raw = [0u8; 5];
        mem.read(PhysAddr(0x100), &mut raw).unwrap();
        assert_eq!(&raw, b"plain");
        assert_eq!(engine.stats.bytes_encrypted, 0);
    }

    #[test]
    fn distinct_keys_produce_distinct_ciphertexts() {
        let (mut mem, mut engine) = setup();
        engine
            .write(&mut mem, PhysAddr(0x1000), KeyId(1), &[0u8; 64])
            .unwrap();
        engine
            .write(&mut mem, PhysAddr(0x2000), KeyId(2), &[0u8; 64])
            .unwrap();
        let mut c1 = [0u8; 64];
        let mut c2 = [0u8; 64];
        mem.read(PhysAddr(0x1000), &mut c1).unwrap();
        mem.read(PhysAddr(0x2000), &mut c2).unwrap();
        assert_ne!(c1, c2);
        assert_ne!(c1, [0u8; 64]);
    }

    /// Raw bytes, counters and (materialised) tags after zeroing frame 7
    /// with `zero`, on a fresh engine.
    fn zeroed_with(
        integrity: bool,
        zero: impl Fn(&mut MktmeEngine, &mut PhysMemory) -> Result<(), MemFault>,
    ) -> (Vec<u8>, MktmeStats, u64, Vec<Option<MacTag>>, usize) {
        let mut mem = PhysMemory::new(4 << 20);
        let mut engine = MktmeEngine::new(integrity);
        engine.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
        zero(&mut engine, &mut mem).unwrap();
        let mut raw = vec![0u8; PAGE_SIZE as usize];
        mem.read(PhysAddr(0x7000), &mut raw).unwrap();
        let tags = (0..FRAME_LINES)
            .map(|i| engine.macs.get(0x7000 / LINE_SIZE + i))
            .collect();
        (raw, engine.stats, mem.access_count, tags, engine.macs.len())
    }

    #[test]
    fn zero_page_matches_eager_zero_write() {
        for integrity in [true, false] {
            let lazy = zeroed_with(integrity, |e, m| e.zero_page(m, Ppn(7), KeyId(1)));
            let eager = zeroed_with(integrity, |e, m| {
                e.write_ref(m, PhysAddr(0x7000), KeyId(1), &[0; PAGE_SIZE as usize])
            });
            let fast = zeroed_with(integrity, |e, m| {
                e.write(m, PhysAddr(0x7000), KeyId(1), &[0; PAGE_SIZE as usize])
            });
            assert_eq!(lazy.0, eager.0, "ciphertext");
            assert_ne!(lazy.0, vec![0u8; PAGE_SIZE as usize]);
            assert_eq!(lazy.3, eager.3, "materialised tags");
            assert_eq!(lazy.4, eager.4, "tag count");
            // The reference plane does not batch, so compare the charged
            // counters with it and every counter with the fast write.
            assert_eq!(lazy.1.bytes_encrypted, eager.1.bytes_encrypted);
            assert_eq!(lazy.2, eager.2, "raw access count");
            assert_eq!(lazy, fast);
        }
    }

    /// The raw table entry of a line and its frame's recorded zero key.
    fn raw_entry(engine: &MktmeEngine, line: u64) -> (u32, [u8; 32]) {
        let page = &engine.macs.pages[&(line / MAC_PAGE_LINES)];
        let idx = (line % MAC_PAGE_LINES) as usize;
        (page.tags[idx], page.zero_keys[idx / FRAME_LINES as usize])
    }

    #[test]
    fn zero_page_marks_lines_pending_until_written_or_read() {
        let (mut mem, mut engine) = setup();
        let frame = Ppn(9);
        engine.zero_page(&mut mem, frame, KeyId(1)).unwrap();
        let first = frame.base().0 / LINE_SIZE;
        assert!((0..FRAME_LINES)
            .all(|i| raw_entry(&engine, first + i) == (MAC_ZERO_PENDING, [0xa1; 32])));
        // A partial write into line 3 replaces its pending state with the
        // tag eager tagging stores; its neighbours stay pending.
        let line3 = frame.base().0 + 3 * LINE_SIZE;
        engine
            .write(&mut mem, PhysAddr(line3 + 5), KeyId(1), &[9; 7])
            .unwrap();
        let mut line = [0u8; LINE_SIZE as usize];
        line[5..12].fill(9);
        assert_eq!(
            raw_entry(&engine, first + 3).0,
            mac28(&[0xa1; 32], line3, &line).0
        );
        assert_eq!(raw_entry(&engine, first + 2).0, MAC_ZERO_PENDING);
        assert_eq!(raw_entry(&engine, first + 4).0, MAC_ZERO_PENDING);
        // Reading lines 4..6 stores their materialised tags, and they read
        // back as zeros.
        let mut buf = [0xffu8; 2 * LINE_SIZE as usize];
        engine
            .read(&mut mem, PhysAddr(line3 + LINE_SIZE), KeyId(1), &mut buf)
            .unwrap();
        assert_eq!(buf, [0u8; 2 * LINE_SIZE as usize]);
        for i in [4, 5] {
            let base = frame.base().0 + i * LINE_SIZE;
            assert_eq!(
                raw_entry(&engine, first + i).0,
                zero_line_tag(&[0xa1; 32], base).0
            );
        }
        assert_eq!(raw_entry(&engine, first + 6).0, MAC_ZERO_PENDING);
        // Re-zeroing under another key records that key for the frame.
        engine.zero_page(&mut mem, frame, KeyId(2)).unwrap();
        assert!((0..FRAME_LINES)
            .all(|i| raw_entry(&engine, first + i) == (MAC_ZERO_PENDING, [0xa2; 32])));
        assert_eq!(engine.macs.len(), FRAME_LINES as usize);
    }

    #[test]
    fn zero_page_faults_like_write() {
        let (mut mem, mut engine) = setup();
        let (mut mem_w, mut engine_w) = setup();
        let out_of_range = Ppn((4 << 20) / PAGE_SIZE);
        let zero = [0u8; PAGE_SIZE as usize];
        for (frame, key) in [(out_of_range, KeyId(1)), (Ppn(1), KeyId(9))] {
            let a = engine.zero_page(&mut mem, frame, key);
            let b = engine_w.write(&mut mem_w, frame.base(), key, &zero);
            assert!(matches!(a, Err(MemFault::BusError { pa: p }) if p == frame.base().0));
            assert_eq!(a, b);
        }
        assert_eq!(engine.stats, engine_w.stats);
        assert_eq!(mem.access_count, mem_w.access_count);
        assert!(engine.macs.is_empty());
    }
}
