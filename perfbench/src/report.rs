//! Episode results and the counters read from the machine's public stats
//! structs.

use std::collections::BTreeMap;

use hypertee::machine::Machine;

/// FNV-1a offset basis (the digest's starting value).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fold of one event tuple into a running digest.
pub fn fold(hash: &mut u64, vals: &[u64]) {
    for v in vals {
        *hash ^= *v;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a fold of a byte string, eight bytes at a time.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        fold(&mut h, &[u64::from_le_bytes(w)]);
    }
    h
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Nearest-rank percentile of unsorted samples (sorts them in place).
pub fn percentile_u64(samples: &mut [u64], pct: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, pct)
}

/// What one timed episode produced. Everything except the host times
/// (`host_seg_ns`) is simulated or counted, so it repeats exactly for a
/// seed.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// FNV fold over the simulated outputs.
    pub digest: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that succeeded.
    pub ok: u64,
    /// Units of work the host-throughput metric counts.
    pub host_ops: u64,
    /// Host time of each segment of the timed window, ns. The segments
    /// cover the whole window; the seed fixes the work each one does.
    pub host_seg_ns: Vec<u64>,
    /// The first and last segment each latency sample spans.
    pub latency_segments: Vec<(usize, usize)>,
    /// Simulated metrics.
    pub sim: BTreeMap<String, f64>,
    /// Per-layer counters.
    pub counters: BTreeMap<String, f64>,
    /// Simulated figures only the readable report prints.
    pub notes: BTreeMap<String, f64>,
}

impl Episode {
    /// An episode with its digest and failure accounting.
    pub fn new(digest: u64, attempted: u64, ok: u64) -> Episode {
        Episode {
            digest,
            attempted,
            ok,
            ..Episode::default()
        }
    }

    /// Records a simulated metric.
    pub fn sim(&mut self, name: &str, value: f64) {
        self.sim.insert(name.to_string(), value);
    }

    /// Records a per-layer counter.
    pub fn counter(&mut self, name: &str, value: f64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Records a figure for the readable report.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Reads every per-layer counter the machine's public stats expose.
pub fn machine_counters(m: &Machine, ep: &mut Episode) {
    let p = m.pipeline_stats();
    ep.counter("pipeline.rounds", p.rounds as f64);
    ep.counter("pipeline.retries", p.retries as f64);
    ep.counter("pipeline.timeouts", p.timeouts as f64);
    ep.counter("pipeline.shed", p.shed as f64);
    ep.counter("pipeline.expired", p.expired as f64);
    ep.counter("pipeline.in_flight_hwm", p.in_flight_hwm as f64);
    ep.counter("pipeline.queue_depth_hwm", p.queue_depth_hwm as f64);
    ep.counter(
        "pipeline.attempts_per_ok",
        ratio(ep.attempted + p.retries, ep.ok),
    );

    let served: u64 = p.serviced_per_core.iter().sum();
    let busiest = p.serviced_per_core.iter().copied().max().unwrap_or(0);
    let cores = p.serviced_per_core.len() as u64;
    ep.counter("ems.served", m.ems.stats.served as f64);
    ep.counter("ems.core_imbalance", ratio(busiest * cores, served));
    ep.counter("ems.crash_restarts", m.ems.stats.crash_restarts as f64);

    let e = &m.emcall.stats;
    ep.counter("emcall.forwarded", e.forwarded as f64);
    ep.counter("emcall.polls", e.polls as f64);
    ep.counter("emcall.resubmissions", e.resubmissions as f64);
    ep.counter("emcall.tlb_flushes", e.tlb_flushes as f64);
    ep.counter("emcall.context_switches", e.context_switches as f64);

    let mb = &m.hub.mailbox.stats;
    ep.counter("mailbox.requests", mb.requests as f64);
    ep.counter("mailbox.empty_polls", mb.empty_polls as f64);
    ep.counter(
        "mailbox.poll_yield",
        ratio(mb.responses, mb.responses + mb.empty_polls),
    );
    ep.counter(
        "mailbox.dropped",
        (mb.dropped_requests + mb.dropped_responses) as f64,
    );
    ep.counter("mailbox.duplicated", mb.duplicated_responses as f64);
    ep.counter("faults.injected", m.fault_stats().total() as f64);

    let k = &m.sys.engine.stats;
    let served = m.ems.stats.served;
    for (name, v) in [
        ("mktme.bytes_encrypted", k.bytes_encrypted),
        ("mktme.bytes_decrypted", k.bytes_decrypted),
        ("mktme.mac_checks", k.mac_checks),
        ("mktme.full_line_writes", k.full_line_writes),
    ] {
        ep.counter(name, v as f64);
        ep.counter(&format!("{name}_per_req"), ratio(v, served));
    }

    let (mut th, mut tm, mut wh, mut wm) = (0, 0, 0, 0);
    let (mut dh, mut dm, mut di, mut df) = (0, 0, 0, 0);
    for (i, h) in m.harts.iter().enumerate() {
        th += h.mmu.tlb.stats.hits;
        tm += h.mmu.tlb.stats.misses;
        wh += h.mmu.walk_cache.stats.hits;
        wm += h.mmu.walk_cache.stats.misses;
        let d = m.icache_stats(i);
        dh += d.hits;
        dm += d.misses;
        di += d.invalidations;
        df += d.flushes;
    }
    ep.counter("tlb.hits", th as f64);
    ep.counter("tlb.misses", tm as f64);
    ep.counter("tlb.hit_ratio", ratio(th, th + tm));
    ep.counter("walkcache.hits", wh as f64);
    ep.counter("walkcache.misses", wm as f64);
    ep.counter("walkcache.hit_ratio", ratio(wh, wh + wm));
    ep.counter("dicache.hit_ratio", ratio(dh, dh + dm));
    ep.counter("dicache.invalidations", di as f64);
    ep.counter("dicache.flushes", df as f64);
}

/// Formats a number for JSON (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
