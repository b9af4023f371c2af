//! The repository benchmark: four seeded workloads, each measured end to
//! end (untraced) and layer by layer (traced). See BENCHMARK.json.
//!
//! ```text
//! perfbench --workload <fleet_clean|fleet_chaos|attest_storm|enclave_compute>
//!           --seed <n> --seconds <n> --trace <0|1> --metrics <name,...>
//!           [--trace-out <file>]
//! ```
//!
//! `--metrics` names the metrics to report, as BENCHMARK.json declares
//! them: its end-to-end metrics with `--trace 0`, its per-layer metrics
//! with `--trace 1`. BENCHMARK.json is the only list of metrics; this
//! program resolves each name it is given.
//!
//! A run repeats one episode — set-up, then the timed window — until
//! `--seconds` have passed. Every repetition replays the same seeded
//! inputs, so its simulated outputs must match the first repetition
//! exactly. Host metrics take each segment of the timed window at its
//! fastest over the repetitions, because slowdowns on a shared host only
//! ever add time; set-up time is the 10th percentile over the repetitions. With `--trace 1`
//! repetitions alternate untraced and traced, the fastest traced one gives
//! the per-layer metrics, and the two kinds must agree on every simulated
//! output. The last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `values` (metric name → number).

mod attest;
mod compute;
mod fleet;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use report::{num, percentile_u64, Episode};
use trace::Tracer;

/// Repetitions of each kind (untraced, traced) a run makes at least.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FleetClean,
    FleetChaos,
    AttestStorm,
    EnclaveCompute,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "fleet_clean" => Kind::FleetClean,
            "fleet_chaos" => Kind::FleetChaos,
            "attest_storm" => Kind::AttestStorm,
            "enclave_compute" => Kind::EnclaveCompute,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Kind::FleetClean => "fleet_clean",
            Kind::FleetChaos => "fleet_chaos",
            Kind::AttestStorm => "attest_storm",
            Kind::EnclaveCompute => "enclave_compute",
        }
    }
}

enum Work {
    Fleet(Box<fleet::Fleet>),
    Storm(Box<attest::Storm>),
    Compute(Box<compute::Compute>),
}

impl Work {
    fn setup(kind: Kind, seed: u64, tr: &mut Tracer) -> Work {
        match kind {
            Kind::FleetClean => Work::Fleet(Box::new(fleet::Fleet::setup(seed, false, tr))),
            Kind::FleetChaos => Work::Fleet(Box::new(fleet::Fleet::setup(seed, true, tr))),
            Kind::AttestStorm => Work::Storm(Box::new(attest::Storm::setup(seed, tr))),
            Kind::EnclaveCompute => Work::Compute(Box::new(compute::Compute::setup(seed, tr))),
        }
    }

    fn run(&mut self, tr: &mut Tracer) -> Episode {
        match self {
            Work::Fleet(w) => w.run(tr),
            Work::Storm(w) => w.run(tr),
            Work::Compute(w) => w.run(tr),
        }
    }

    fn check(&mut self, ep: &Episode) -> Result<(), String> {
        match self {
            Work::Fleet(w) => w.check(ep),
            Work::Storm(w) => w.check(ep),
            Work::Compute(w) => w.check(ep),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    metrics: Vec<String>,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let kind = Kind::parse(get("workload")?).ok_or("unknown --workload")?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let metrics = get("metrics")?.split(',').map(str::to_string).collect();
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        metrics,
        trace_out: kv.get("trace-out").cloned(),
    })
}

/// Whether two episodes agree on everything simulated, which must repeat
/// exactly for a seed.
fn same_outputs(a: &Episode, b: &Episode) -> bool {
    (a.digest, a.attempted, a.ok) == (b.digest, b.attempted, b.ok)
        && a.sim == b.sim
        && a.counters == b.counters
        && a.notes == b.notes
        && a.latency_segments == b.latency_segments
}

/// Elementwise minimum of two runs of host times, which the seed lays out
/// identically.
fn keep_fastest(best: &mut Vec<u64>, new: Vec<u64>) -> Result<(), String> {
    if best.is_empty() {
        *best = new;
    } else if best.len() != new.len() {
        return Err(format!(
            "{} host samples, rep 0 had {}",
            new.len(),
            best.len()
        ));
    } else {
        best.iter_mut().zip(new).for_each(|(b, n)| *b = (*b).min(n));
    }
    Ok(())
}

/// Everything measured over one run's repetitions.
#[derive(Default)]
struct Run {
    first: Option<Episode>,
    /// Peak resident memory after the first repetition, MB.
    peak_rss_mb: f64,
    /// Set-up time of each untraced repetition, ns.
    setup_ns: Vec<u64>,
    /// Each segment's fastest host time over the untraced repetitions, ns.
    /// Host slowdowns on a shared VM come and go within a repetition and
    /// only ever add time, so the fastest time of each short segment
    /// measures the program rather than its neighbours.
    best_seg_ns: Vec<u64>,
    untraced_wall_s: Vec<f64>,
    traced_wall_s: Vec<f64>,
    /// The traced repetition with the shortest wall time, and its spans.
    fastest_trace: Option<(f64, Tracer)>,
}

impl Run {
    fn reps(&self) -> (usize, usize) {
        (self.untraced_wall_s.len(), self.traced_wall_s.len())
    }

    /// Percentile of the latency samples, in µs. A sample's latency is the
    /// sum of the fastest times of the segments it spans.
    fn latency_us(&self, ep: &Episode, pct: f64) -> f64 {
        let mut prefix = vec![0u64];
        for ns in &self.best_seg_ns {
            prefix.push(prefix[prefix.len() - 1] + ns);
        }
        let mut lat: Vec<u64> = ep
            .latency_segments
            .iter()
            .map(|&(first, last)| prefix[last + 1] - prefix[first])
            .collect();
        percentile_u64(&mut lat, pct) / 1e3
    }

    /// The timed window's host time: the sum of its fastest segments, s.
    fn window_s(&self) -> f64 {
        self.best_seg_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Operations an episode attempted and failed (the result line's counts).
fn counts(ep: &Episode) -> (u64, u64) {
    (ep.attempted, ep.attempted - ep.ok)
}

fn measure(args: &Args) -> Result<Run, ((u64, u64), String)> {
    let start = Instant::now();
    let mut run = Run::default();
    for rep in 0u64.. {
        let traced = args.trace && rep % 2 == 1;
        let mut tr = Tracer::new(traced);
        let t0 = Instant::now();
        let root = tr.begin("driver", rep);
        let mut work = Work::setup(args.kind, args.seed, &mut tr);
        let setup = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut ep = work.run(&mut tr);
        let run_s = t1.elapsed().as_secs_f64();
        tr.end(root);
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "rep {rep} traced={traced} setup_s={setup:.6} run_s={run_s:.6} ops={}",
            ep.host_ops
        );
        if let Err(e) = work.check(&ep) {
            return Err((counts(&ep), format!("correctness gate (rep {rep}): {e}")));
        }
        drop(work);
        match &run.first {
            None => {
                // Read before later repetitions can fragment the heap, so
                // the figure is one episode's need, not the run length's.
                run.peak_rss_mb = report::peak_rss_mb();
                run.first = Some(ep.clone());
            }
            Some(first) if !same_outputs(first, &ep) => {
                let why = format!(
                    "rep {rep} (traced: {traced}) differs from rep 0 in its simulated \
                     outputs: digest {:#018x} vs {:#018x}",
                    ep.digest, first.digest
                );
                return Err((counts(&ep), why));
            }
            Some(_) => {}
        }
        if traced {
            run.traced_wall_s.push(wall);
            if run.fastest_trace.as_ref().is_none_or(|(w, _)| wall < *w) {
                run.fastest_trace = Some((wall, tr));
            }
        } else {
            run.untraced_wall_s.push(wall);
            run.setup_ns.push((setup * 1e9) as u64);
            keep_fastest(&mut run.best_seg_ns, std::mem::take(&mut ep.host_seg_ns))
                .map_err(|e| (counts(&ep), format!("rep {rep}: {e}")))?;
        }
        let (untraced, traced_reps) = run.reps();
        if start.elapsed().as_secs_f64() >= args.seconds
            && untraced >= MIN_REPS
            && (!args.trace || traced_reps >= MIN_REPS)
        {
            break;
        }
    }
    Ok(run)
}

fn end_to_end(run: &Run, ep: &Episode) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    // Set-up times are bimodal on a shared VM (a fast mode and one about
    // 1.5x slower), so their median flips between the modes from run to
    // run; the 10th percentile stays in the fast one.
    m.insert(
        "setup_s",
        percentile_u64(&mut run.setup_ns.clone(), 10.0) / 1e9,
    );
    m.insert("throughput_per_s", ep.host_ops as f64 / run.window_s());
    m.insert("latency_us_p50", run.latency_us(ep, 50.0));
    m.insert("ok_ratio", ep.ok as f64 / ep.attempted.max(1) as f64);
    m.insert("peak_rss_mb", run.peak_rss_mb);
    m
}

/// Resolves each requested per-layer metric. Counters and simulated
/// figures come from the episode; `<span>.self_s` and `<span>.us_p<n>` from
/// the spans of the fastest traced repetition. A layer this workload does
/// not touch reads 0. Every counter the episode measured and every span it
/// recorded must be requested, so that the self times add up to the wall
/// time and no measurement goes unreported.
fn per_layer(run: &Run, ep: &Episode, names: &[String]) -> Result<Vec<f64>, String> {
    let (_, tr) = run.fastest_trace.as_ref().expect("a traced run traces");
    let mut totals = tr.totals();
    let requested = |n: &str| names.iter().any(|m| m == n);
    let spans = totals.keys().map(|s| format!("{s}.self_s"));
    if let Some(n) = ep
        .sim
        .keys()
        .cloned()
        .chain(ep.counters.keys().cloned())
        .chain(spans)
        .find(|n| !requested(n))
    {
        return Err(format!("{n} is measured but not declared"));
    }
    let fastest = |w: &[f64]| w.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(names
        .iter()
        .map(|n| {
            if let Some(v) = ep.sim.get(n).or_else(|| ep.counters.get(n)) {
                return *v;
            }
            if let Some(t) = n.strip_suffix(".self_s").and_then(|s| totals.get(s)) {
                return t.self_ns as f64 / 1e9;
            }
            if let Some((span, pct)) = n.rsplit_once(".us_p") {
                if let (Some(t), Ok(pct)) = (totals.get_mut(span), pct.parse::<f64>()) {
                    return percentile_u64(&mut t.durations_ns, pct) / 1e3;
                }
            }
            match n.as_str() {
                "trace.wall_s" => totals["driver"].durations_ns[0] as f64 / 1e9,
                "trace.spans" => tr.spans().len() as f64,
                "trace.overhead_ratio" => {
                    fastest(&run.traced_wall_s) / fastest(&run.untraced_wall_s) - 1.0
                }
                _ => 0.0,
            }
        })
        .collect())
}

/// Human-readable report: the workload's metrics under their own names.
fn print_report(args: &Args, run: &Run, ep: &Episode, e2e: &BTreeMap<&'static str, f64>) {
    let (untraced, traced) = run.reps();
    println!(
        "perfbench {} seed={} reps={untraced} traced_reps={traced} segments={} latency_samples={}",
        args.kind.name(),
        args.seed,
        run.best_seg_ns.len(),
        ep.latency_segments.len()
    );
    println!(
        "digest {} seed={} {:#018x}",
        args.kind.name(),
        args.seed,
        ep.digest
    );
    let sim = |k: &str| ep.sim.get(k).copied().unwrap_or(0.0);
    let note = |k: &str| ep.notes.get(k).copied().unwrap_or(0.0);
    let failed = ep.attempted - ep.ok;
    let host_p99 = run.latency_us(ep, 99.0);
    let mut rows: Vec<(&str, f64, &str, &str)> = Vec::new();
    match args.kind {
        Kind::FleetClean | Kind::FleetChaos => {
            rows.push(("requests_per_s", e2e["throughput_per_s"], "1/s", "host"));
            rows.push(("session_host_us_p50", e2e["latency_us_p50"], "us", "host"));
            rows.push(("session_host_us_p99", host_p99, "us", "host"));
            rows.push((
                "request_cycles_p50",
                sim("sim.request_cycles_p50"),
                "cycles",
                "sim",
            ));
            rows.push((
                "request_cycles_p99",
                sim("sim.request_cycles_p99"),
                "cycles",
                "sim",
            ));
            rows.push(("slo_attain", sim("sim.slo_attain"), "ratio", "sim"));
            rows.push((
                "session_cycles_p99",
                sim("sim.session_cycles_p99"),
                "cycles",
                "sim",
            ));
            rows.push(("sim_cycles", sim("sim.cycles"), "cycles", "sim"));
            rows.push(("sessions_done", note("fleet.sessions_done"), "count", "sim"));
            rows.push((
                "sessions_failed",
                note("fleet.sessions_failed"),
                "count",
                "sim",
            ));
        }
        Kind::AttestStorm => {
            let hs = note("attest.handshakes") / run.window_s();
            rows.push(("handshakes_per_s", hs, "1/s", "host"));
            rows.push(("calls_per_s", e2e["throughput_per_s"], "1/s", "host"));
            rows.push(("handshake_us_p50", e2e["latency_us_p50"], "us", "host"));
            rows.push(("handshake_us_p99", host_p99, "us", "host"));
        }
        Kind::EnclaveCompute => {
            rows.push((
                "sim_mips",
                e2e["throughput_per_s"] / 1e6,
                "Minstr/s",
                "host",
            ));
            rows.push(("slice_us_p50", e2e["latency_us_p50"], "us", "host"));
            rows.push(("slice_us_p99", host_p99, "us", "host"));
            rows.push(("sim_cpi", sim("sim.cpi"), "cycles/instr", "sim"));
            rows.push(("sim_cycles", sim("sim.cycles"), "cycles", "sim"));
        }
    }
    rows.push(("attempted", ep.attempted as f64, "count", "sim"));
    rows.push(("succeeded", ep.ok as f64, "count", "sim"));
    rows.push(("failed", failed as f64, "count", "sim"));
    rows.push((
        "failed_ratio",
        failed as f64 / ep.attempted.max(1) as f64,
        "ratio",
        "sim",
    ));
    rows.push(("peak_rss_mb", e2e["peak_rss_mb"], "MB", "host"));
    rows.push(("setup_s", e2e["setup_s"], "s", "host"));
    for (name, v, unit, kind) in rows {
        println!("  {name:<22} {v:>16.4} {unit:<12} {kind}");
    }
}

fn print_json((attempted, failed): (u64, u64), correct: bool, values: &[(&str, f64)]) {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v)| format!("\"{n}\": {}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"values\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = match measure(&args) {
        Ok(run) => run,
        Err((failed_counts, why)) => {
            eprintln!("perfbench {}: FAILED {why}", args.kind.name());
            print_json(failed_counts, false, &[]);
            return ExitCode::from(1);
        }
    };
    let ep = run.first.take().expect("at least one repetition ran");
    let e2e = end_to_end(&run, &ep);
    print_report(&args, &run, &ep, &e2e);
    let values = if args.trace {
        if let (Some(path), Some((_, tr))) = (&args.trace_out, &run.fastest_trace) {
            let path = std::path::Path::new(path);
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, tr.dump()) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        per_layer(&run, &ep, &args.metrics)
    } else {
        args.metrics
            .iter()
            .map(|n| {
                e2e.get(n.as_str())
                    .copied()
                    .ok_or(format!("{n} is not measured"))
            })
            .collect()
    };
    match values {
        Ok(values) => {
            let named: Vec<(&str, f64)> = args
                .metrics
                .iter()
                .map(String::as_str)
                .zip(values)
                .collect();
            print_json(counts(&ep), true, &named);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.kind.name());
            print_json(counts(&ep), false, &[]);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [Kind; 4] = [
        Kind::FleetClean,
        Kind::FleetChaos,
        Kind::AttestStorm,
        Kind::EnclaveCompute,
    ];

    /// Sets up and runs one episode, then applies its correctness gate.
    fn episode(kind: Kind, seed: u64, traced: bool) -> Episode {
        let mut tr = Tracer::new(traced);
        let root = tr.begin("driver", 0);
        let mut work = Work::setup(kind, seed, &mut tr);
        let ep = work.run(&mut tr);
        tr.end(root);
        assert_eq!(tr.spans().is_empty(), !traced);
        work.check(&ep)
            .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", kind.name()));
        ep
    }

    #[test]
    fn same_seed_gives_identical_digest_and_sim_metrics() {
        for kind in KINDS {
            let (a, b) = (episode(kind, 7, false), episode(kind, 7, false));
            assert!(same_outputs(&a, &b), "{}", kind.name());
        }
    }

    #[test]
    fn traced_run_gives_the_untraced_digest() {
        for kind in KINDS {
            let (a, b) = (episode(kind, 7, false), episode(kind, 7, true));
            assert!(same_outputs(&a, &b), "{}", kind.name());
        }
    }

    #[test]
    fn the_seed_changes_the_inputs() {
        for kind in KINDS {
            assert_ne!(
                episode(kind, 7, false).digest,
                episode(kind, 8, false).digest,
                "{}",
                kind.name()
            );
        }
    }
}
