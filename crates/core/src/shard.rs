//! Sharded, `Send`-able parallel simulation (DESIGN.md §12).
//!
//! HyperTEE's architecture is decoupled by construction — CS harts run
//! independently while the EMS services management calls from its own
//! cluster — but the reproduction executed every hart and every EMS round
//! on one host thread. This module shards the simulation the same way the
//! paper shards the silicon:
//!
//! * a [`ShardDomain`] is a fully self-contained sub-machine: a subset of
//!   CS harts with their per-hart clocks and PTW walk caches, a private
//!   slice of physical memory ([`MemPartition`]), its own EMCall gate and
//!   pipeline (which holds every in-flight mailbox ticket), and its own EMS
//!   lane with its own scheduler stream;
//! * a [`ShardedMachine`] owns a *fixed* set of domains plus the validated
//!   [`PartitionMap`]; construction rejects overlapping or mis-sized
//!   memory slices outright;
//! * [`ShardedMachine::pump_barrier`] runs every domain one pump round on
//!   a scoped worker pool and merges the [`ShardPumpReport`] payloads in
//!   stable shard-id order.
//!
//! # Determinism contract
//!
//! The shard count is part of the *configuration*; the worker-thread count
//! is not. Each domain boots from `derive_stream(seed, shard_id)` — a
//! splitmix64-derived per-shard stream — and never shares mutable state
//! with a sibling, so a domain's trace depends only on `(seed, shard_id)`.
//! Merges happen in shard-id order after the barrier regardless of which
//! worker finished first. Identical seed therefore yields identical trace
//! hashes and counters at 1, 2, 4, or 8 threads; `threads == 1` runs the
//! domains inline on the calling thread and is the reference behavior.

use crate::machine::{Machine, MachineError, MachineResult};
use crate::pipeline::PipelineStats;
use hypertee_mem::addr::{Ppn, PAGE_SIZE};
use hypertee_mem::audit::{AuditError, ConsistencyAudit};
use hypertee_mem::partition::{
    MemPartition, PartitionError, PartitionMap, PartitionReconciliation,
};
use hypertee_sim::clock::Cycles;
use hypertee_sim::config::SocConfig;
use hypertee_sim::rng::{derive_stream, SplitMix64};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Compile-time `Send` witness: mentioning `assert_send::<T>` only
/// compiles when `T: Send`.
pub fn assert_send<T: Send>() {}

// The shard types must cross threads: these bindings fail to *compile* if
// any of them ever grows a non-Send member (e.g. an Rc or a raw pointer).
const _: fn() = assert_send::<Machine>;
const _: fn() = assert_send::<ShardDomain>;
const _: fn() = assert_send::<ShardPumpReport>;
const _: fn() = assert_send::<BarrierReport>;

/// Configuration of a sharded machine.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of shard domains (fixed; part of the deterministic
    /// configuration — changing it changes the trace).
    pub shards: usize,
    /// Worker threads servicing the domains (free; any value yields the
    /// same trace). `0` and `1` both mean inline execution.
    pub threads: usize,
    /// Master seed; each domain boots from `derive_stream(seed, shard_id)`.
    pub seed: u64,
    /// Per-shard SoC shape (every domain is a machine of this shape).
    pub soc: SocConfig,
}

impl ShardSpec {
    /// A spec over the default SoC shape.
    #[must_use]
    pub fn new(shards: usize, threads: usize, seed: u64) -> ShardSpec {
        ShardSpec {
            shards,
            threads,
            seed,
            soc: SocConfig::default(),
        }
    }
}

/// One shard: a self-contained sub-machine plus its memory slice and its
/// private splitmix stream for campaign-level draws.
pub struct ShardDomain {
    /// Dense shard id (`0..shards`); also the stable merge position.
    pub shard_id: usize,
    /// The seed this domain booted from (`derive_stream(master, shard_id)`).
    pub seed: u64,
    /// The shard's slice of the global frame space.
    pub partition: MemPartition,
    /// The sub-machine: this shard's harts, memory, EMCall gate, pipeline, EMS.
    pub machine: Machine,
    /// Campaign-level stream for this shard (backoff jitter inside the
    /// machine derives from `seed` on its own; this stream is for drivers).
    pub rng: SplitMix64,
}

impl core::fmt::Debug for ShardDomain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ShardDomain {{ id: {}, base: {:#x}, frames: {} }}",
            self.shard_id, self.partition.base.0, self.partition.frames
        )
    }
}

impl ShardDomain {
    /// Translates a shard-local frame number to the global frame space.
    #[must_use]
    pub fn global_ppn(&self, local: Ppn) -> Ppn {
        Ppn(self.partition.base.0 + local.0)
    }
}

/// Barrier-merge payload: what one domain reports at a pump barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPumpReport {
    /// Reporting shard.
    pub shard_id: usize,
    /// Requests the shard's EMS serviced this round.
    pub serviced: usize,
    /// The shard's simulated clock after the round.
    pub clock: Cycles,
}

/// The merged result of one pump barrier, in stable shard-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierReport {
    /// Per-shard payloads, indexed by shard id.
    pub per_shard: Vec<ShardPumpReport>,
    /// Requests serviced across all shards this round.
    pub serviced: usize,
    /// Merged simulated clock: the max over the shard clocks, exactly as
    /// the single machine max-merges its per-hart clocks.
    pub clock: Cycles,
}

/// Merged audit verdict over every shard.
#[derive(Debug, Clone)]
pub struct ShardedAudit {
    /// Per-shard consistency audits, in shard-id order.
    pub audits: Vec<ConsistencyAudit>,
    /// The cross-shard ownership reconciliation.
    pub reconciliation: PartitionReconciliation,
}

/// Why a sharded audit failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAuditError {
    /// A shard's own consistency audit failed.
    Audit {
        /// The failing shard.
        shard: usize,
        /// Its audit error.
        error: AuditError,
    },
    /// Cross-shard reconciliation found a frame outside its owner's slice.
    Partition(PartitionError),
}

impl core::fmt::Display for ShardAuditError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShardAuditError::Audit { shard, error } => {
                write!(f, "shard {shard} audit failed: {error}")
            }
            ShardAuditError::Partition(p) => write!(f, "reconciliation failed: {p}"),
        }
    }
}

impl std::error::Error for ShardAuditError {}

/// The sharded SoC: a fixed set of [`ShardDomain`]s behind a validated
/// partition map, serviced by a variable-size worker pool.
pub struct ShardedMachine {
    domains: Vec<ShardDomain>,
    partitions: PartitionMap,
    threads: usize,
}

impl core::fmt::Debug for ShardedMachine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ShardedMachine {{ shards: {}, threads: {} }}",
            self.domains.len(),
            self.threads
        )
    }
}

impl ShardedMachine {
    /// Boots `spec.shards` domains over the canonical even partition of
    /// the global frame space.
    ///
    /// # Errors
    ///
    /// [`MachineError::Partition`] for a degenerate spec (zero shards),
    /// [`MachineError::Boot`] when a shard's firmware fails verification.
    pub fn boot(spec: ShardSpec) -> MachineResult<ShardedMachine> {
        if spec.shards == 0 {
            return Err(MachineError::Partition(PartitionError::Empty));
        }
        let per_shard_frames = spec.soc.phys_mem_bytes / PAGE_SIZE;
        let map =
            PartitionMap::split_even(Ppn(0), per_shard_frames * spec.shards as u64, spec.shards)
                .map_err(MachineError::Partition)?;
        ShardedMachine::assemble(spec, map)
    }

    /// Boots over an explicit partition layout. Construction *rejects*
    /// overlapping, empty, or mis-sized slices — a sharded machine can
    /// never exist on an ambiguous ownership map.
    ///
    /// # Errors
    ///
    /// [`MachineError::Partition`] with the offending [`PartitionError`];
    /// [`MachineError::Boot`] when a shard's firmware fails verification.
    pub fn boot_with_partitions(
        spec: ShardSpec,
        parts: Vec<MemPartition>,
    ) -> MachineResult<ShardedMachine> {
        let map = PartitionMap::new(parts).map_err(MachineError::Partition)?;
        if map.shards() != spec.shards {
            return Err(MachineError::Partition(PartitionError::BadShardId(
                map.shards().max(spec.shards) - 1,
            )));
        }
        let per_shard_frames = spec.soc.phys_mem_bytes / PAGE_SIZE;
        for p in map.partitions() {
            if p.frames != per_shard_frames {
                return Err(MachineError::Partition(PartitionError::SizeMismatch {
                    shard: p.shard_id,
                    expected: per_shard_frames,
                    got: p.frames,
                }));
            }
        }
        ShardedMachine::assemble(spec, map)
    }

    fn assemble(spec: ShardSpec, map: PartitionMap) -> MachineResult<ShardedMachine> {
        let mut domains = Vec::with_capacity(spec.shards);
        for shard_id in 0..spec.shards {
            let seed = derive_stream(spec.seed, shard_id as u64);
            let machine = Machine::boot(spec.soc.clone(), seed)?;
            domains.push(ShardDomain {
                shard_id,
                seed,
                partition: map.partition(shard_id),
                machine,
                // Campaign stream: decorrelated from the machine seed so
                // driver draws never collide with machine-internal streams.
                rng: SplitMix64::new(derive_stream(seed, 0x7368_6172_6400)),
            });
        }
        Ok(ShardedMachine {
            domains,
            partitions: map,
            threads: spec.threads.max(1),
        })
    }

    /// Shard count (fixed configuration).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.domains.len()
    }

    /// Worker-thread count (free execution parameter).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The validated partition map.
    #[must_use]
    pub fn partition_map(&self) -> &PartitionMap {
        &self.partitions
    }

    /// The domains, in shard-id order.
    #[must_use]
    pub fn domains(&self) -> &[ShardDomain] {
        &self.domains
    }

    /// Mutable access to the domains (single-threaded driver use).
    pub fn domains_mut(&mut self) -> &mut [ShardDomain] {
        &mut self.domains
    }

    /// Runs `f` once per domain on the worker pool and returns the results
    /// in shard-id order, independent of scheduling. With one thread the
    /// domains run inline in shard order (the reference path).
    pub fn par_map<T, F>(&mut self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut ShardDomain) -> T + Sync,
    {
        par_run(self.domains.iter_mut().collect(), self.threads, |_, d| f(d))
    }

    /// One pump barrier: every domain pumps its own pipeline one scheduling
    /// round (EMS plan + service on that shard's lane) in parallel, then
    /// the per-shard payloads are merged in stable shard-id order.
    pub fn pump_barrier(&mut self) -> BarrierReport {
        let per_shard = self.par_map(|d| ShardPumpReport {
            shard_id: d.shard_id,
            serviced: d.machine.pump(),
            clock: d.machine.clock,
        });
        let serviced = per_shard.iter().map(|r| r.serviced).sum();
        let clock = per_shard
            .iter()
            .map(|r| r.clock)
            .max()
            .unwrap_or(Cycles::ZERO);
        BarrierReport {
            per_shard,
            serviced,
            clock,
        }
    }

    /// Merged simulated clock: max over the shard clocks (the SoC-level
    /// wall time of the parallel composition).
    #[must_use]
    pub fn merged_clock(&self) -> Cycles {
        self.domains
            .iter()
            .map(|d| d.machine.clock)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Merged pipeline counters in stable shard order: monotone counters
    /// sum; `serviced_per_core` concatenates shard 0's cores first; the
    /// high-water marks sum, giving the *upper bound* of the concurrent
    /// composition (each shard's HWM was reached on its own timeline).
    #[must_use]
    pub fn merged_stats(&self) -> PipelineStats {
        let mut merged = PipelineStats::default();
        for d in &self.domains {
            let s = d.machine.pipeline_stats();
            merged.submitted += s.submitted;
            merged.completed += s.completed;
            merged.in_flight += s.in_flight;
            merged.in_flight_hwm += s.in_flight_hwm;
            merged.serviced_per_core.extend(s.serviced_per_core);
            merged.queue_depth_hwm += s.queue_depth_hwm;
            merged.retries += s.retries;
            merged.timeouts += s.timeouts;
            merged.shed += s.shed;
            merged.expired += s.expired;
        }
        merged
    }

    /// Runs every shard's [`Machine::audit`] plus the cross-shard frame
    /// reconciliation: every frame a shard's EMS pool stewards must fall
    /// inside that shard's slice of the global frame space.
    ///
    /// # Errors
    ///
    /// The first failure in shard-id order (deterministic verdict).
    pub fn audit_all(&mut self) -> Result<ShardedAudit, ShardAuditError> {
        let mut audits = Vec::with_capacity(self.domains.len());
        let mut held: Vec<Vec<Ppn>> = Vec::with_capacity(self.domains.len());
        for d in &mut self.domains {
            let audit = d.machine.audit().map_err(|error| ShardAuditError::Audit {
                shard: d.shard_id,
                error,
            })?;
            audits.push(audit);
            held.push(
                d.machine
                    .ems
                    .pool()
                    .free_list()
                    .iter()
                    .map(|&local| d.global_ppn(local))
                    .collect(),
            );
        }
        let reconciliation = self
            .partitions
            .reconcile(&held)
            .map_err(ShardAuditError::Partition)?;
        Ok(ShardedAudit {
            audits,
            reconciliation,
        })
    }
}

/// Runs `f(index, item)` over owned `items` on a pool of `threads` scoped
/// workers and returns the results *in item order*, independent of which
/// worker ran what when. `threads <= 1` executes inline in order (the
/// reference path). Campaign drivers pass owned configs; [`ShardedMachine::
/// par_map`] passes `&mut` domain borrows, so no domain is ever visible to
/// two workers.
pub fn par_run<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let mut indexed: Vec<(usize, I)> = items.into_iter().enumerate().collect();
    if threads <= 1 || indexed.len() <= 1 {
        return indexed.drain(..).map(|(i, item)| f(i, item)).collect();
    }
    let n = indexed.len();
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(indexed.into_iter().collect());
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let workers = threads.min(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue lock").pop_front();
                let Some((i, item)) = next else { break };
                let out = f(i, item);
                results.lock().expect("result lock").push((i, out));
            });
        }
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, out) in results.into_inner().expect("result lock") {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_partitions_evenly_and_derives_distinct_seeds() {
        let sm = ShardedMachine::boot(ShardSpec::new(4, 1, 7)).unwrap();
        assert_eq!(sm.shards(), 4);
        let seeds: std::collections::BTreeSet<u64> = sm.domains().iter().map(|d| d.seed).collect();
        assert_eq!(seeds.len(), 4, "per-shard seeds must be distinct");
        let frames = SocConfig::default().phys_mem_bytes / PAGE_SIZE;
        for (i, d) in sm.domains().iter().enumerate() {
            assert_eq!(d.shard_id, i);
            assert_eq!(d.partition.frames, frames);
            assert_eq!(d.partition.base.0, i as u64 * frames);
        }
    }

    #[test]
    fn overlapping_partitions_are_rejected_at_construction() {
        let frames = SocConfig::default().phys_mem_bytes / PAGE_SIZE;
        let parts = vec![
            MemPartition {
                shard_id: 0,
                base: Ppn(0),
                frames,
            },
            MemPartition {
                shard_id: 1,
                base: Ppn(frames - 1), // overlaps shard 0's last frame
                frames,
            },
        ];
        let err = ShardedMachine::boot_with_partitions(ShardSpec::new(2, 1, 7), parts)
            .map(|_| ())
            .expect_err("overlap must be rejected");
        assert_eq!(err, MachineError::Partition(PartitionError::Overlap(0, 1)));
    }

    #[test]
    fn mis_sized_partitions_are_rejected_at_construction() {
        let frames = SocConfig::default().phys_mem_bytes / PAGE_SIZE;
        let parts = vec![
            MemPartition {
                shard_id: 0,
                base: Ppn(0),
                frames: frames / 2,
            },
            MemPartition {
                shard_id: 1,
                base: Ppn(frames),
                frames,
            },
        ];
        let err = ShardedMachine::boot_with_partitions(ShardSpec::new(2, 1, 7), parts)
            .map(|_| ())
            .expect_err("undersized slice must be rejected");
        assert_eq!(
            err,
            MachineError::Partition(PartitionError::SizeMismatch {
                shard: 0,
                expected: frames,
                got: frames / 2,
            })
        );
    }

    #[test]
    fn par_run_preserves_item_order_at_any_width() {
        let items: Vec<u64> = (0..13).collect();
        let reference: Vec<u64> = par_run(items.clone(), 1, |i, x| x * 10 + i as u64);
        for threads in [2usize, 4, 8] {
            let out = par_run(items.clone(), threads, |i, x| x * 10 + i as u64);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn pump_barrier_merges_in_shard_order() {
        let mut sm = ShardedMachine::boot(ShardSpec::new(2, 2, 11)).unwrap();
        let report = sm.pump_barrier();
        assert_eq!(report.per_shard.len(), 2);
        assert_eq!(report.per_shard[0].shard_id, 0);
        assert_eq!(report.per_shard[1].shard_id, 1);
        assert_eq!(report.clock, sm.merged_clock());
    }

    #[test]
    fn audit_all_is_green_on_a_fresh_machine() {
        let mut sm = ShardedMachine::boot(ShardSpec::new(2, 1, 3)).unwrap();
        let verdict = sm.audit_all().unwrap();
        assert_eq!(verdict.audits.len(), 2);
        assert_eq!(verdict.reconciliation.shards, 2);
    }
}
