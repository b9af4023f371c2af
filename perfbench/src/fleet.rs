//! `fleet_clean` and `fleet_chaos`: open-loop enclave sessions through the
//! asynchronous request pipeline.
//!
//! Arrivals come from the chaos crate's seeded traffic generator with the
//! fleet tenant mix. Each admitted session walks ECREATE → EADD → EMEAS →
//! EENTER → (EALLOC/EFREE)×n → EEXIT → EDESTROY with one primitive in
//! flight, driven by `submit_as` / `pump` / `drain_completions` once per
//! simulated tick. Each tick is one host-timing segment. The chaos variant
//! arms the live fault mix, scripts the fleet preset's EMS crash-restarts
//! and applies its deadline and shed limit.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use hypertee::machine::{DegradePolicy, Machine, MachineError};
use hypertee::pipeline::Completion;
use hypertee_chaos::campaign::ChaosConfig;
use hypertee_chaos::traffic::{schedule, TenantProfile, TrafficConfig};
use hypertee_ems::control::layout;
use hypertee_fabric::message::{Primitive, Privilege, Response, Status};
use hypertee_faults::FaultPlan;
use hypertee_mem::addr::{Ppn, PAGE_SIZE};
use hypertee_mem::ownership::EnclaveId;
use hypertee_sim::clock::Cycles;
use hypertee_sim::config::{CoreConfig, EmsCluster, SocConfig};

use crate::report::{fold, percentile, Episode, FNV_OFFSET};
use crate::trace::Tracer;

/// Sessions one episode offers.
const SESSIONS: usize = 1400;
/// CS harts the fleet machine boots with.
const HARTS: usize = 8;
/// SLO limit, in multiples of the clean mailbox round trip: 512 × 9,470
/// cycles, about 4.85M cycles. It lies below the fleet preset's 8M-cycle
/// deadline (about 845 round trips), so latency added by retries and
/// back-off on `fleet_chaos` can miss the SLO without expiring.
const SLO_MULTIPLE: f64 = 512.0;
/// Bytes each entered session allocates (and frees) per EALLOC round.
const ALLOC_BYTES: u64 = 64 * 1024;
/// Ticks a shed submission backs off before retrying.
const SHED_BACKOFF_TICKS: u64 = 25;
/// Shed retries before a session gives up.
const SHED_GIVE_UP: u32 = 60;
/// Transient (`Exhausted`) rejections tolerated per step.
const STEP_RETRY_MAX: u32 = 4;
/// EDESTROY attempts before the enclave is declared leaked.
const DESTROY_TRY_MAX: u32 = 12;
/// Tick ceiling: an episode that has not drained by then is a failure.
const MAX_TICKS: u64 = 400_000;

/// Names of the eight primitives a session submits, in `Step` order.
const PRIM_NAMES: [&str; 8] = [
    "ecreate", "eadd", "emeas", "eenter", "ealloc", "efree", "eexit", "edestroy",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Create,
    Add,
    Meas,
    Enter,
    Alloc,
    Free,
    Exit,
    Destroy,
}

impl Step {
    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Ready,
    InFlight,
    Done,
    Failed,
}

#[derive(Debug)]
struct Session {
    tenant: usize,
    hart: usize,
    state: State,
    step: Step,
    wait_until: u64,
    shed_tries: u32,
    step_retries: u32,
    destroy_tries: u32,
    eid: u64,
    entered: bool,
    ops_left: u32,
    alloc_va: u64,
    window: Option<(Ppn, u64)>,
    stage: Option<(Ppn, u64)>,
    due_tick: u64,
    due_clock: u64,
}

/// One fleet episode, booted and ready to run.
pub struct Fleet {
    m: Machine,
    chaos: bool,
    tenants: Vec<TenantProfile>,
    max_live: usize,
    sessions: Vec<Session>,
    crash_ticks: Vec<u64>,
    hart_owner: Vec<Option<usize>>,
    /// In-flight call id → (session, step).
    route: HashMap<u64, (usize, Step)>,
    live: usize,
    // Episode accounting.
    hash: u64,
    attempted: u64,
    ok: u64,
    completions: u64,
    slo_hits: u64,
    slo_limit: u64,
    latencies: Vec<u64>,
    prim_latencies: [Vec<u64>; 8],
    session_cycles: Vec<u64>,
    admit_lag: Vec<u64>,
    /// Host time of each tick, ns.
    host_seg_ns: Vec<u64>,
    /// Due tick and finishing tick of each finished session.
    session_ticks: Vec<(usize, usize)>,
}

fn outcome_code(result: &Result<Response, MachineError>) -> u64 {
    match result {
        Ok(_) => 0,
        Err(MachineError::Primitive(s)) => 10 + s.code(),
        Err(MachineError::Timeout) => 90,
        Err(MachineError::DeadlineExpired) => 91,
        Err(MachineError::Backpressure) => 92,
        Err(_) => 99,
    }
}

fn image_byte(s: usize, i: usize) -> u8 {
    (s.wrapping_mul(31) ^ i.wrapping_mul(7) ^ 0x5a) as u8
}

impl Fleet {
    /// Boots the machine and generates the arrival schedule for `seed`.
    pub fn setup(seed: u64, chaos: bool, tr: &mut Tracer) -> Fleet {
        let soc = SocConfig {
            cs_cores: HARTS as u32,
            ems: EmsCluster {
                cores: 4,
                core: CoreConfig::ems_medium(),
            },
            crypto_engine: true,
            phys_mem_bytes: 256 << 20,
        };
        let mut m = tr.span("machine.boot", 0, || {
            Machine::boot(soc, seed).expect("pristine firmware boots")
        });
        let preset = ChaosConfig::fleet(seed);
        if chaos {
            m.degrade = DegradePolicy {
                shed_backlog_limit: preset.shed_backlog_limit,
                deadline: preset.deadline_cycles.map(Cycles),
            };
            m.arm_faults(&FaultPlan::new(seed, ChaosConfig::chaos_faults()));
        }
        let traffic = TrafficConfig::fleet(SESSIONS);
        let arrivals = schedule(seed, &traffic);
        let span = arrivals.last().map_or(1, |a| a.tick.max(1));
        let crashes = if chaos {
            u64::from(preset.scripted_crashes)
        } else {
            0
        };
        let crash_ticks = (1..=crashes).map(|i| span * i / (crashes + 1)).collect();
        let sessions = arrivals
            .iter()
            .map(|a| Session {
                tenant: a.tenant,
                hart: a.session % HARTS,
                state: State::Waiting,
                step: Step::Create,
                wait_until: 0,
                shed_tries: 0,
                step_retries: 0,
                destroy_tries: 0,
                eid: 0,
                entered: false,
                ops_left: 0,
                alloc_va: 0,
                window: None,
                stage: None,
                due_tick: a.tick,
                due_clock: 0,
            })
            .collect();
        let slo_limit = (m.book.mailbox_round_trip() * SLO_MULTIPLE).round() as u64;
        Fleet {
            m,
            chaos,
            tenants: traffic.tenants,
            max_live: traffic.max_live,
            sessions,
            crash_ticks,
            hart_owner: vec![None; HARTS],
            route: HashMap::new(),
            live: 0,
            hash: FNV_OFFSET ^ seed,
            attempted: 0,
            ok: 0,
            completions: 0,
            slo_hits: 0,
            slo_limit,
            latencies: Vec::new(),
            prim_latencies: Default::default(),
            session_cycles: Vec::new(),
            admit_lag: Vec::new(),
            host_seg_ns: Vec::new(),
            session_ticks: Vec::new(),
        }
    }

    fn free_frames(&mut self, range: Option<(Ppn, u64)>) {
        if let Some((base, pages)) = range {
            for i in 0..pages {
                let _ = self.m.sys.phys.zero_frame(Ppn(base.0 + i));
                self.m.os.free(Ppn(base.0 + i));
            }
        }
    }

    fn release_hart(&mut self, s: usize) {
        let hart = self.sessions[s].hart;
        if self.sessions[s].entered {
            self.m.emcall.exit_enclave(&mut self.m.harts[hart]);
            self.m.harts[hart].mmu.tlb.flush_all();
            self.sessions[s].entered = false;
        }
        if self.hart_owner[hart] == Some(s) {
            self.hart_owner[hart] = None;
        }
    }

    fn unreserve_enter(&mut self, s: usize, step: Step) {
        let hart = self.sessions[s].hart;
        if step == Step::Enter && self.hart_owner[hart] == Some(s) {
            self.hart_owner[hart] = None;
        }
    }

    fn terminate(&mut self, s: usize, state: State) {
        self.sessions[s].state = state;
        self.live -= 1;
    }

    /// Abandons a session after a failure. A known enclave is routed to
    /// EDESTROY first; `clean` says the EMS-side state is known, so host
    /// frames it might still reference can be recycled.
    fn fail_session(&mut self, s: usize, tick: u64, clean: bool) {
        self.release_hart(s);
        let stage = self.sessions[s].stage.take();
        self.free_frames(stage);
        let sess = &mut self.sessions[s];
        if sess.eid != 0 && sess.step != Step::Destroy {
            sess.step = Step::Destroy;
            sess.state = State::Ready;
            sess.wait_until = tick + 2;
            sess.step_retries = 0;
            return;
        }
        if sess.eid != 0 || !clean {
            // Leaked, not freed: the EMS may still reference the window.
            sess.window = None;
        }
        let window = self.sessions[s].window.take();
        self.free_frames(window);
        self.terminate(s, State::Failed);
    }

    fn retry_destroy(&mut self, s: usize, tick: u64) {
        let sess = &mut self.sessions[s];
        sess.destroy_tries += 1;
        sess.wait_until = tick + 8;
        if sess.destroy_tries > DESTROY_TRY_MAX {
            sess.window = None;
            self.terminate(s, State::Failed);
        }
    }

    fn finish_session(&mut self, s: usize, tick: u64) {
        let window = self.sessions[s].window.take();
        self.free_frames(window);
        let span = self.m.clock.0 - self.sessions[s].due_clock;
        self.session_cycles.push(span);
        let due = self.sessions[s].due_tick;
        self.session_ticks.push((due as usize, tick as usize));
        self.terminate(s, State::Done);
    }

    /// Stages host frames for ECREATE/EADD; `false` defers the session.
    fn stage_frames(&mut self, s: usize, profile: &TenantProfile) -> bool {
        if self.sessions[s].window.is_none() {
            let pages = profile.window_bytes.div_ceil(PAGE_SIZE).max(1);
            let Some(base) = self.m.os.alloc_contiguous(pages) else {
                return false;
            };
            self.sessions[s].window = Some((base, pages));
        }
        if self.sessions[s].stage.is_none() {
            let image: Vec<u8> = (0..profile.image_len as usize)
                .map(|i| image_byte(s, i))
                .collect();
            let pages = (image.len() as u64).div_ceil(PAGE_SIZE).max(1);
            let Some(base) = self.m.os.alloc_contiguous(pages) else {
                return false;
            };
            self.m
                .sys
                .phys
                .write(base.base(), &image)
                .expect("staging frames are in range");
            self.sessions[s].stage = Some((base, pages));
        }
        true
    }

    fn try_submit(&mut self, s: usize, tick: u64, tr: &mut Tracer) {
        let (step, hart, eid) = {
            let sess = &self.sessions[s];
            (sess.step, sess.hart, sess.eid)
        };
        let profile = self.tenants[self.sessions[s].tenant].clone();
        let (privilege, primitive, args) = match step {
            Step::Create => {
                if !self.stage_frames(s, &profile) {
                    self.sessions[s].wait_until = tick + 40;
                    return;
                }
                let window = self.sessions[s].window.expect("window staged");
                (
                    Privilege::Os,
                    Primitive::Ecreate,
                    vec![
                        profile.heap_bytes,
                        profile.stack_bytes,
                        profile.window_bytes,
                        window.0.base().0,
                    ],
                )
            }
            Step::Add => {
                let stage = self.sessions[s].stage.expect("stage survives to EADD");
                (
                    Privilege::Os,
                    Primitive::Eadd,
                    vec![
                        eid,
                        layout::CODE_BASE.0,
                        stage.0.base().0,
                        profile.image_len,
                        0b111,
                    ],
                )
            }
            Step::Meas => (Privilege::Os, Primitive::Emeas, vec![eid]),
            Step::Enter => {
                if self.hart_owner[hart].is_some() {
                    self.sessions[s].wait_until = tick + 2;
                    return;
                }
                self.hart_owner[hart] = Some(s);
                (Privilege::Os, Primitive::Eenter, vec![eid])
            }
            Step::Alloc => (Privilege::User, Primitive::Ealloc, vec![eid, ALLOC_BYTES]),
            Step::Free => (
                Privilege::User,
                Primitive::Efree,
                vec![eid, self.sessions[s].alloc_va, ALLOC_BYTES],
            ),
            Step::Exit => (Privilege::User, Primitive::Eexit, vec![eid]),
            Step::Destroy => (Privilege::Os, Primitive::Edestroy, vec![eid]),
        };
        self.attempted += 1;
        let m = &mut self.m;
        let submitted = tr.span("pipeline.submit", s as u64, || {
            m.submit_as(hart, privilege, primitive, args, vec![])
        });
        match submitted {
            Ok(call) => {
                self.route.insert(call.id, (s, step));
                self.sessions[s].state = State::InFlight;
            }
            Err(MachineError::Backpressure) => {
                // Shed at the gate: a failed attempt; back off and retry.
                fold(&mut self.hash, &[3, tick, s as u64, step.index() as u64]);
                self.unreserve_enter(s, step);
                let sess = &mut self.sessions[s];
                sess.shed_tries += 1;
                sess.wait_until = tick + SHED_BACKOFF_TICKS;
                if sess.shed_tries > SHED_GIVE_UP {
                    self.fail_session(s, tick, true);
                }
            }
            Err(_) => {
                self.unreserve_enter(s, step);
                self.fail_session(s, tick, true);
            }
        }
    }

    fn handle_completion(&mut self, s: usize, step: Step, c: &Completion, tick: u64) {
        self.sessions[s].state = State::Ready;
        self.sessions[s].wait_until = tick;
        match &c.result {
            Ok(resp) => {
                self.ok += 1;
                if c.latency.0 <= self.slo_limit {
                    self.slo_hits += 1;
                }
                self.sessions[s].step_retries = 0;
                self.apply_ok(s, step, resp, tick);
            }
            Err(MachineError::Primitive(Status::Exhausted)) => {
                self.unreserve_enter(s, step);
                let sess = &mut self.sessions[s];
                sess.step_retries += 1;
                sess.wait_until = tick + 4;
                if sess.step_retries > STEP_RETRY_MAX {
                    self.fail_session(s, tick, true);
                }
            }
            Err(MachineError::Primitive(status)) => {
                if step == Step::Destroy {
                    if *status == Status::NotFound {
                        // An earlier destroy whose response was lost did run.
                        self.finish_session(s, tick);
                    } else {
                        self.retry_destroy(s, tick);
                    }
                    return;
                }
                self.unreserve_enter(s, step);
                self.fail_session(s, tick, true);
            }
            Err(_) => {
                // Timeout / deadline expiry: the EMS-side outcome is unknown.
                if step == Step::Destroy {
                    self.retry_destroy(s, tick);
                    return;
                }
                self.unreserve_enter(s, step);
                self.fail_session(s, tick, false);
            }
        }
    }

    fn apply_ok(&mut self, s: usize, step: Step, resp: &Response, tick: u64) {
        let hart = self.sessions[s].hart;
        let tenant = self.sessions[s].tenant;
        match step {
            Step::Create => {
                self.sessions[s].eid = resp.new_enclave_id().unwrap_or(0);
                if self.sessions[s].eid == 0 {
                    self.fail_session(s, tick, true);
                    return;
                }
                self.sessions[s].step = Step::Add;
            }
            Step::Add => {
                let stage = self.sessions[s].stage.take();
                self.free_frames(stage);
                self.sessions[s].step = Step::Meas;
            }
            Step::Meas => self.sessions[s].step = Step::Enter,
            Step::Enter => {
                let Some((root, entry, _key)) = resp.entry_context() else {
                    self.fail_session(s, tick, true);
                    return;
                };
                let eid = self.sessions[s].eid;
                self.m.emcall.enter_enclave(
                    &mut self.m.harts[hart],
                    EnclaveId(eid),
                    Ppn(root),
                    entry,
                );
                self.m.harts[hart].regs[2] =
                    layout::STACK_BASE.0 + self.tenants[tenant].stack_bytes - 16;
                let sess = &mut self.sessions[s];
                sess.entered = true;
                sess.ops_left = self.tenants[tenant].entered_ops;
                sess.step = Step::Alloc;
            }
            Step::Alloc => {
                self.sessions[s].alloc_va = resp.mapped_va().unwrap_or(layout::HEAP_BASE.0);
                self.m.harts[hart].mmu.tlb.flush_all();
                self.sessions[s].step = Step::Free;
            }
            Step::Free => {
                self.m.harts[hart].mmu.tlb.flush_all();
                let sess = &mut self.sessions[s];
                sess.ops_left -= 1;
                sess.step = if sess.ops_left > 0 {
                    Step::Alloc
                } else {
                    Step::Exit
                };
            }
            Step::Exit => {
                self.m.emcall.exit_enclave(&mut self.m.harts[hart]);
                self.sessions[s].entered = false;
                self.hart_owner[hart] = None;
                self.sessions[s].step = Step::Destroy;
            }
            Step::Destroy => self.finish_session(s, tick),
        }
    }

    /// The timed episode: ticks until every session is terminal and the
    /// pipeline has drained.
    pub fn run(&mut self, tr: &mut Tracer) -> Episode {
        let mut tick = 0u64;
        let mut next_arrival = 0usize;
        let mut admit_queue: VecDeque<usize> = VecDeque::new();
        let mut active: Vec<usize> = Vec::new();
        let mut next_crash = 0usize;
        let mut ready: Vec<usize> = Vec::new();
        let n = self.sessions.len();
        loop {
            let drained = next_arrival == n && admit_queue.is_empty() && self.live == 0;
            if drained
                && next_crash == self.crash_ticks.len()
                && self.m.pipeline_stats().in_flight == 0
            {
                break;
            }
            if tick >= MAX_TICKS {
                break;
            }
            let tick_start = Instant::now();
            while next_arrival < n && self.sessions[next_arrival].due_tick <= tick {
                self.sessions[next_arrival].due_clock = self.m.clock.0;
                admit_queue.push_back(next_arrival);
                next_arrival += 1;
            }
            while self.live < self.max_live {
                let Some(s) = admit_queue.pop_front() else {
                    break;
                };
                self.admit_lag.push(tick - self.sessions[s].due_tick);
                self.sessions[s].state = State::Ready;
                self.sessions[s].wait_until = tick;
                self.live += 1;
                active.push(s);
            }
            if next_crash < self.crash_ticks.len() && tick >= self.crash_ticks[next_crash] {
                let m = &mut self.m;
                let dropped = tr.span("ems.crash_restart", tick, || m.crash_restart_ems());
                fold(&mut self.hash, &[4, tick, dropped as u64]);
                next_crash += 1;
            }
            active.retain(|&s| !matches!(self.sessions[s].state, State::Done | State::Failed));
            ready.clear();
            ready.extend(active.iter().copied().filter(|&s| {
                self.sessions[s].state == State::Ready && self.sessions[s].wait_until <= tick
            }));
            for &s in &ready {
                self.try_submit(s, tick, tr);
            }
            let m = &mut self.m;
            tr.span("pipeline.pump", tick, || m.pump());
            let m = &mut self.m;
            let done = tr.span("pipeline.drain", tick, || m.drain_completions());
            for c in done {
                let (s, step) = self
                    .route
                    .remove(&c.call.id)
                    .expect("every completion answers a session call");
                self.completions += 1;
                self.latencies.push(c.latency.0);
                self.prim_latencies[step.index()].push(c.latency.0);
                fold(
                    &mut self.hash,
                    &[
                        2,
                        tick,
                        s as u64,
                        step.index() as u64,
                        outcome_code(&c.result),
                        c.latency.0,
                        u64::from(c.attempts),
                    ],
                );
                self.handle_completion(s, step, &c, tick);
            }
            self.host_seg_ns
                .push(tick_start.elapsed().as_nanos() as u64);
            tick += 1;
        }
        fold(&mut self.hash, &[7, tick, self.m.clock.0]);
        self.episode()
    }

    fn episode(&mut self) -> Episode {
        let mut ep = Episode::new(self.hash, self.attempted, self.ok);
        ep.host_ops = self.completions;
        ep.host_seg_ns = std::mem::take(&mut self.host_seg_ns);
        ep.latency_segments = std::mem::take(&mut self.session_ticks);
        let lat = &mut self.latencies;
        lat.sort_unstable();
        self.session_cycles.sort_unstable();
        self.admit_lag.sort_unstable();
        ep.sim("sim.request_cycles_p50", percentile(lat, 50.0));
        ep.sim("sim.request_cycles_p99", percentile(lat, 99.0));
        ep.sim(
            "sim.slo_attain",
            self.slo_hits as f64 / self.attempted.max(1) as f64,
        );
        ep.sim(
            "sim.session_cycles_p99",
            percentile(&self.session_cycles, 99.0),
        );
        ep.sim("sim.cycles", self.m.clock.0 as f64);
        for (i, name) in PRIM_NAMES.iter().enumerate() {
            self.prim_latencies[i].sort_unstable();
            ep.counter(
                &format!("ems.{name}.cycles_p50"),
                percentile(&self.prim_latencies[i], 50.0),
            );
        }
        ep.counter(
            "traffic.admit_lag_ticks_p99",
            percentile(&self.admit_lag, 99.0),
        );
        let done = self
            .sessions
            .iter()
            .filter(|s| s.state == State::Done)
            .count();
        ep.note("fleet.sessions_done", done as f64);
        ep.note("fleet.sessions_failed", (self.sessions.len() - done) as f64);
        crate::report::machine_counters(&self.m, &mut ep);
        ep
    }

    /// The correctness gate (untimed): every session reached a terminal
    /// state, nothing is in flight, and the consistency audit is green.
    pub fn check(&mut self, ep: &Episode) -> Result<(), String> {
        if let Some((i, s)) = self
            .sessions
            .iter()
            .enumerate()
            .find(|(_, s)| !matches!(s.state, State::Done | State::Failed))
        {
            return Err(format!("session {i} not terminal: {:?}", s.state));
        }
        if self.m.pipeline_stats().in_flight != 0 || !self.route.is_empty() {
            return Err("calls still in flight after the episode".into());
        }
        if !self.chaos && ep.attempted != ep.ok {
            return Err(format!(
                "clean fleet failed {} of {} requests",
                ep.attempted - ep.ok,
                ep.attempted
            ));
        }
        self.m
            .audit()
            .map(|_| ())
            .map_err(|e| format!("consistency audit: {e:?}"))
    }
}
