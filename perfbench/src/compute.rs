//! `enclave_compute`: assembled programs in step-limited slices.
//!
//! Three enclaves are created during set-up, each on its own hart (EMCall
//! keeps one saved register context per hart, so enclaves cannot take turns
//! on a single hart). Slices alternate between the enclaves: each resumes
//! one enclave, runs its program for a step budget and exits it again, so
//! every world switch flushes that hart's TLB. The programs: a pointer
//! chase whose working set fits the 32-entry TLB reach, an in-place record
//! XOR (read-modify-write), and a page-stride walk over more pages than the
//! TLB holds.

use std::time::Instant;

use hypertee::exec::RunOutcome;
use hypertee::machine::{EnclaveHandle, Machine};
use hypertee::manifest::EnclaveManifest;
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_sim::config::SocConfig;
use hypertee_workloads::programs;

use crate::report::{fold, Episode, FNV_OFFSET};
use crate::trace::Tracer;

/// Steps per slice: the 4,000-instruction quantum of the Fig. 11 TLB-flush
/// sweep (`fig11_tlbflush`), so world switches and the TLB refills after
/// them recur often while execution still dominates.
const SLICE_STEPS: u64 = 4_000;

/// One enclave program and the exit code it must produce.
struct Program {
    name: &'static str,
    hart: usize,
    handle: EnclaveHandle,
    expected: u64,
    exit: Option<u64>,
}

/// The compute episode: enclaves created and warmed up.
pub struct Compute {
    m: Machine,
    programs: Vec<Program>,
    warmup_steps: u64,
    warmup_cycles: u64,
}

impl Compute {
    /// Boots, creates the three enclaves, and runs one warm-up slice each.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Compute {
        // The seed varies each size by at most a few percent, so that the
        // amount of work, and with it the host figures, hardly depends on it.
        let mut rng = ChaChaRng::from_u64(seed ^ 0xc0de_c0de);
        let nodes = 992 + rng.gen_range(32) as u16;
        let hops = 64_000 + rng.gen_range(1_000) as u32;
        let records = 60 + rng.gen_range(4) as u16;
        let passes = 2;
        let pages = 96 + rng.gen_range(4) as u16;
        let iterations = 112 + rng.gen_range(4) as u16;

        let mut m = tr.span("machine.boot", 0, || {
            Machine::boot(SocConfig::default(), seed).expect("pristine firmware boots")
        });
        let specs = [
            (
                "chase",
                programs::chase(nodes, hops),
                programs::chase_reference(nodes, hops),
            ),
            (
                "record_xor",
                programs::record_xor(records, passes),
                programs::record_xor_reference(records, passes),
            ),
            ("stride_walk", programs::stride_walk(pages, iterations), 0),
        ];
        let manifest = EnclaveManifest::parse("heap = 1M\nstack = 16K\nhost_shared = 4K")
            .expect("static manifest parses");
        let mut progs = Vec::new();
        let (mut warmup_steps, mut warmup_cycles) = (0, 0);
        for (hart, (name, image, expected)) in specs.into_iter().enumerate() {
            let id = hart as u64;
            let handle = tr
                .span("sdk.create_enclave", id, || {
                    m.create_enclave(hart, &manifest, &image)
                })
                .expect("enclave creation succeeds on a fresh machine");
            tr.span("sdk.enter", id, || m.enter(hart, handle))
                .expect("fresh enclave enters");
            let c0 = m.hart_clock(hart).0;
            let out = tr
                .span("cpu.run", id, || m.run_enclave_program(hart, SLICE_STEPS))
                .expect("warm-up slice runs");
            warmup_cycles += m.hart_clock(hart).0 - c0;
            assert_eq!(out, RunOutcome::StepLimit, "warm-up must not finish {name}");
            warmup_steps += SLICE_STEPS;
            tr.span("sdk.exit", id, || m.exit(hart))
                .expect("enclave exits");
            progs.push(Program {
                name,
                hart,
                handle,
                expected,
                exit: None,
            });
        }
        Compute {
            m,
            programs: progs,
            warmup_steps,
            warmup_cycles,
        }
    }

    /// The timed episode: round-robin slices until every program exits.
    pub fn run(&mut self, tr: &mut Tracer) -> Episode {
        let mut hash = FNV_OFFSET;
        let (mut slices, mut ok, mut steps, mut run_cycles) = (0u64, 0u64, 0u64, 0u64);
        let mut slice_ns = Vec::new();
        let mut errors = 0u64;
        while self.programs.iter().any(|p| p.exit.is_none()) {
            for i in 0..self.programs.len() {
                if self.programs[i].exit.is_some() {
                    continue;
                }
                let (id, hart, handle) = (i as u64, self.programs[i].hart, self.programs[i].handle);
                let m = &mut self.m;
                let t0 = Instant::now();
                slices += 1;
                let resumed = tr.span("sdk.resume", id, || m.resume(hart, handle));
                let c0 = m.hart_clock(hart).0;
                let out = tr.span("cpu.run", id, || m.run_enclave_program(hart, SLICE_STEPS));
                let c1 = m.hart_clock(hart).0;
                let exited = tr.span("sdk.exit", id, || m.exit(hart));
                slice_ns.push(t0.elapsed().as_nanos() as u64);
                run_cycles += c1 - c0;
                let code = match (resumed, out, exited) {
                    (Ok(()), Ok(RunOutcome::StepLimit), Ok(())) => {
                        steps += SLICE_STEPS;
                        1
                    }
                    (Ok(()), Ok(RunOutcome::Exited { code, retired }), Ok(())) => {
                        steps += retired;
                        self.programs[i].exit = Some(code);
                        fold(&mut hash, &[id, code]);
                        2
                    }
                    _ => {
                        // A fault or a failed world switch: the program is over.
                        errors += 1;
                        self.programs[i].exit = Some(u64::MAX);
                        3
                    }
                };
                if code != 3 {
                    ok += 1;
                }
                fold(&mut hash, &[id, code, c1 - c0, self.m.clock.0]);
            }
        }
        fold(&mut hash, &[self.m.clock.0, errors]);
        let mut ep = Episode::new(hash, slices, ok);
        ep.host_ops = steps;
        ep.latency_segments = (0..slice_ns.len()).map(|i| (i, i)).collect();
        ep.host_seg_ns = slice_ns;
        ep.sim("sim.cycles", self.m.clock.0 as f64);
        ep.sim(
            "sim.cpi",
            (run_cycles + self.warmup_cycles) as f64 / (steps + self.warmup_steps) as f64,
        );
        ep.counter("cpu.retired", (steps + self.warmup_steps) as f64);
        crate::report::machine_counters(&self.m, &mut ep);
        ep
    }

    /// The correctness gate (untimed): every program exited with the code
    /// its native reference computes.
    pub fn check(&mut self, _ep: &Episode) -> Result<(), String> {
        for p in &self.programs {
            match p.exit {
                Some(code) if code == p.expected => {}
                other => {
                    return Err(format!(
                        "{} exited with {other:?}, reference {}",
                        p.name, p.expected
                    ))
                }
            }
        }
        Ok(())
    }
}
