//! `attest_storm`: a closed loop of attested clients on the service facade.
//!
//! The storm takes its shape from the chaos crate's serving preset,
//! `StormConfig::fleet()`: its client count and calls per handshake. An
//! episode makes `ROUNDS` of the preset's handshakes per client. The
//! clients take turns on one thread, each waiting for its reply before its
//! next operation. A client handshakes (challenge, SIGMA opening,
//! attestation, SIGMA verification), makes the `MIX` of authenticated
//! Ping/Seal/Unseal/Quote calls, then re-handshakes for its next round.
//! Ping and Seal carry the preset storm's 2- and 3-byte payloads. No
//! transport faults are armed.

use std::time::Instant;

use hypertee::machine::Machine;
use hypertee_chaos::StormConfig;
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::sha256::sha256;
use hypertee_crypto::sig::PublicKey;
use hypertee_ems::attest::{Quote, SigmaInitiator};
use hypertee_service::{request_mac, ServiceConfig, ServiceFacade, ServiceOp, SessionToken};
use hypertee_sim::config::SocConfig;

use crate::report::{fold, hash_bytes, Episode, FNV_OFFSET};
use crate::trace::Tracer;

/// Handshake-plus-calls rounds each client makes per episode: a sixth of
/// the preset's 24, so that a 25-second run repeats the episode 30–50
/// times.
const ROUNDS: usize = 4;
/// Authenticated calls of one session, in this fixed op order. Its length
/// must equal the preset's `calls_per_handshake`.
const MIX: [OpKind; 6] = [
    OpKind::Ping,
    OpKind::Seal,
    OpKind::Unseal,
    OpKind::Ping,
    OpKind::Seal,
    OpKind::Quote,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Ping,
    Seal,
    Unseal,
    Quote,
}

impl OpKind {
    fn span(self) -> &'static str {
        match self {
            OpKind::Ping => "facade.call.ping",
            OpKind::Seal => "facade.call.seal",
            OpKind::Unseal => "facade.call.unseal",
            OpKind::Quote => "facade.call.quote",
        }
    }
}

struct Client {
    rng: ChaChaRng,
    tenant: u64,
    session: Option<(SessionToken, [u8; 32])>,
    seq: u64,
    /// Last sealed blob and the plaintext it must unseal to.
    sealed: Option<(Vec<u8>, Vec<u8>)>,
}

/// One storm, booted with a probed facade.
pub struct Storm {
    m: Machine,
    facade: ServiceFacade,
    clients: Vec<Client>,
    ek: PublicKey,
    measurement: [u8; 32],
    /// Quotes returned by `Quote` calls with the report data they bind,
    /// verified after the timed window.
    quotes: Vec<(Vec<u8>, [u8; 32])>,
    errors: Vec<String>,
}

impl Storm {
    /// Boots the machine, probes the facade and seeds the clients.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Storm {
        let mut m = tr.span("machine.boot", 0, || {
            Machine::boot(SocConfig::default(), seed).expect("pristine firmware boots")
        });
        let mut facade =
            ServiceFacade::new(ServiceConfig::production(seed)).expect("production mode");
        tr.span("facade.probe", 0, || facade.probe(&mut m, 0))
            .expect("startup probe passes on pristine firmware");
        let measurement = facade
            .service_measurement()
            .expect("a passed probe pins the service measurement");
        let preset = StormConfig::fleet();
        assert_eq!(preset.calls_per_handshake as usize, MIX.len());
        let clients = (0..preset.clients)
            .map(|c| Client {
                rng: ChaChaRng::from_u64(seed ^ (0xc11e_0000 + c as u64)),
                tenant: 100 + c as u64,
                session: None,
                seq: 0,
                sealed: None,
            })
            .collect();
        let ek = m.ek_public();
        Storm {
            m,
            facade,
            clients,
            ek,
            measurement,
            quotes: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn handshake(&mut self, c: usize, now: u64, tr: &mut Tracer) -> Result<u64, String> {
        let id = c as u64;
        let (f, m, cl) = (&mut self.facade, &mut self.m, &mut self.clients[c]);
        let (cid, nonce) = tr
            .span("facade.issue_challenge", id, || {
                f.issue_challenge(cl.tenant, now)
            })
            .map_err(|e| format!("challenge: {e}"))?;
        let (init, msg1) = tr.span("sigma.start", id, || {
            SigmaInitiator::start_with_nonce(&mut cl.rng, nonce)
        });
        let (msg2, token) = tr
            .span("facade.attest", id, || f.attest(m, cid, &msg1, now))
            .map_err(|e| format!("attest: {e}"))?;
        let (ek, meas) = (&self.ek, &self.measurement);
        let key = tr
            .span("sigma.finish", id, || init.finish(&msg2, ek, meas))
            .map_err(|e| format!("sigma finish: {e:?}"))?;
        cl.session = Some((token.clone(), key));
        cl.seq = 0;
        Ok(hash_bytes(&key) ^ token.id ^ token.expires_at)
    }

    fn call(&mut self, c: usize, kind: OpKind, now: u64, tr: &mut Tracer) -> Result<u64, String> {
        let id = c as u64;
        let cl = &mut self.clients[c];
        let seq = cl.seq;
        let op = match kind {
            OpKind::Ping => ServiceOp::Ping(vec![c as u8, seq as u8]),
            OpKind::Seal => ServiceOp::Seal(vec![c as u8, seq as u8, 0x77]),
            OpKind::Unseal => {
                let (blob, _) = cl.sealed.as_ref().ok_or("unseal before seal")?;
                ServiceOp::Unseal(blob.clone())
            }
            OpKind::Quote => ServiceOp::Quote(cl.rng.gen_bytes32()),
        };
        let (token, key) = cl.session.clone().ok_or("call without a session")?;
        let mac = request_mac(&key, seq, &op);
        let (f, m) = (&mut self.facade, &mut self.m);
        let reply = tr
            .span(kind.span(), id, || f.call(m, &token, seq, &op, &mac, now))
            .map_err(|e| format!("{kind:?}: {e}"))?;
        if !tr.span("reply.verify", id, || reply.verify(&key)) {
            return Err(format!("{kind:?}: reply MAC does not verify"));
        }
        cl.seq += 1;
        match op {
            ServiceOp::Ping(data) if reply.payload != data => {
                return Err("ping echo differs".into());
            }
            ServiceOp::Seal(data) => cl.sealed = Some((reply.payload.clone(), data)),
            ServiceOp::Unseal(_) => {
                let (_, plain) = cl.sealed.as_ref().expect("checked above");
                if &reply.payload != plain {
                    return Err("Unseal(Seal(x)) != x".into());
                }
            }
            ServiceOp::Quote(report) => self.quotes.push((reply.payload.clone(), report)),
            ServiceOp::Ping(_) => {}
        }
        Ok(hash_bytes(&reply.payload))
    }

    /// The timed episode.
    pub fn run(&mut self, tr: &mut Tracer) -> Episode {
        let mut hash = FNV_OFFSET;
        let (mut attempted, mut ok, mut calls) = (0u64, 0u64, 0u64);
        let (mut op_ns, mut handshakes) = (Vec::new(), Vec::new());
        let mut now = 1u64;
        let clients = self.clients.len();
        for turn in 0..ROUNDS * (MIX.len() + 1) {
            let slot = turn % (MIX.len() + 1);
            for c in 0..clients {
                attempted += 1;
                let t0 = Instant::now();
                let result = if slot == 0 {
                    self.handshake(c, now, tr)
                } else {
                    calls += 1;
                    self.call(c, MIX[slot - 1], now, tr)
                };
                if slot == 0 {
                    handshakes.push((op_ns.len(), op_ns.len()));
                }
                op_ns.push(t0.elapsed().as_nanos() as u64);
                match result {
                    Ok(h) => {
                        ok += 1;
                        fold(&mut hash, &[c as u64, slot as u64, 0, h]);
                    }
                    Err(e) => {
                        fold(&mut hash, &[c as u64, slot as u64, 1]);
                        if self.errors.len() < 4 {
                            self.errors.push(format!("client {c} turn {turn}: {e}"));
                        }
                    }
                }
                now += 1;
            }
        }
        fold(&mut hash, &[self.m.clock.0]);
        let mut ep = Episode::new(hash, attempted, ok);
        ep.host_ops = calls;
        ep.host_seg_ns = op_ns;
        ep.latency_segments = handshakes;
        ep.sim("sim.cycles", self.m.clock.0 as f64);
        let s = &self.facade.stats;
        let rejects = s.not_ready_rejects
            + s.attest_failures
            + s.replayed_challenges
            + s.stale_challenges
            + s.nonce_mismatches
            + s.unknown_challenges
            + s.unknown_sessions
            + s.forged_tokens_rejected
            + s.epoch_rejects
            + s.expired_tokens
            + s.bad_sequence_rejects
            + s.bad_request_macs
            + s.backend_errors;
        ep.counter("facade.rejects", rejects as f64);
        ep.note("attest.handshakes", (ROUNDS * clients) as f64);
        crate::report::machine_counters(&self.m, &mut ep);
        ep
    }

    /// The correctness gate (untimed): every operation succeeded with a
    /// verified reply and round-tripping seals, and every quote verifies
    /// against the machine's endorsement key and binds its report data.
    pub fn check(&mut self, ep: &Episode) -> Result<(), String> {
        if let Some(e) = self.errors.first() {
            return Err(e.clone());
        }
        if ep.ok != ep.attempted {
            return Err(format!("{} operations failed", ep.attempted - ep.ok));
        }
        for (bytes, report) in &self.quotes {
            let q = Quote::from_bytes(bytes).map_err(|e| format!("quote decode: {e:?}"))?;
            if !q.verify(&self.ek) {
                return Err("quote does not verify against the endorsement key".into());
            }
            if q.report_data != sha256(report) || q.enclave_measurement != self.measurement {
                return Err("quote does not bind its report data or enclave".into());
            }
        }
        Ok(())
    }
}
