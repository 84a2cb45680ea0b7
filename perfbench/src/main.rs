//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_sweep|city_stream|ingest> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --list
//! ```
//!
//! A run builds its workload's inputs from the seed, runs its one-time
//! checks and one untimed warm-up pass, then timed passes until
//! `--seconds` have gone by, re-building the inputs between passes so
//! that set-up is timed across the whole run. A pass's time in the
//! program is reported in reference units (`refkernel`), so that the
//! host's drifting speed cancels out. Every pass's
//! outputs are checked; an operation whose check fails is counted in
//! `failed`. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! `--trace 1` alternates untraced and traced passes. Traced passes
//! keep the benchmark's span records and attach the program's
//! `obs::span` profiler; per-layer figures are medians over them, the
//! tracing overhead is the difference of the two medians, and the
//! spans are written to `results/out/`. See `README.md`.

mod checks;
mod city_stream;
mod ingest;
mod paper_sweep;
mod probe;
mod refkernel;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`0` where the
/// workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 52] = [
    ("bench.build_s", "s"),
    ("alphawan.plan_s", "s"),
    ("alphawan.plans", "count"),
    ("alphawan.evals", "count"),
    ("alphawan.eval_ns", "ns"),
    ("sim.traffic_s", "s"),
    ("sim.run_s", "s"),
    ("sim.run_txs", "count"),
    ("sim.run_ns_per_tx", "ns"),
    ("sim.metrics_s", "s"),
    ("sim.topology_s", "s"),
    ("sim.topology_rss_mb", "MB"),
    ("sim.stream_s", "s"),
    ("sim.stream_events", "count"),
    ("sim.stream_events_per_s", "1/s"),
    ("sim.stream_peak_live", "count"),
    ("sim.stream_shard_wall_max_s", "s"),
    ("sim.stream_shard_imbalance", "ratio"),
    ("sim.accum_updates", "count"),
    ("sim.wheel_cascades", "count"),
    ("gateway.encode_s", "s"),
    ("svc.start_s", "s"),
    ("svc.rx_cpu_s", "s"),
    ("svc.shard_cpu_s", "s"),
    ("svc.ctx_switches", "count"),
    ("svc.wall_pps", "1/s"),
    ("svc.ack_rtt_p50_us", "us"),
    ("svc.ack_rtt_p99_us", "us"),
    ("svc.ingest_latency_p50_us", "us"),
    ("svc.ingest_latency_p99_us", "us"),
    ("netserver.dedup_new", "count"),
    ("netserver.dedup_duplicate", "count"),
    ("netserver.dedup_late", "count"),
    ("gateway.parse_ns_per_pkt", "ns"),
    ("span.sim.plan_build_self_s", "s"),
    ("span.sim.sort_schedule_self_s", "s"),
    ("span.sim.event_loop_self_s", "s"),
    ("span.sim.lock_on_self_s", "s"),
    ("span.sim.verdicts_self_s", "s"),
    ("span.shard.ingest_self_s", "s"),
    ("span.shard.drain_self_s", "s"),
    ("span.shard.merge_self_s", "s"),
    ("span.solver.eval_self_s", "s"),
    ("span.solver.mutate_self_s", "s"),
    ("span.solver.repair_self_s", "s"),
    ("span.svc.batch_self_s", "s"),
    ("run.pass_s", "s"),
    ("run.cpu_s", "s"),
    ("run.ref_kernel_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

const WORKLOADS: [&str; 3] = ["paper_sweep", "city_stream", "ingest"];

/// What one pass did.
pub struct Pass {
    /// Wall seconds spent inside the program, every one of them in a
    /// lap (`Tracer::ref_lap`).
    pub wall_s: f64,
    /// CPU seconds the program spent, likewise in laps.
    pub cpu_s: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Share of a run's timed window spent re-building the inputs;
    /// `setup_s` is the median of the run's set-ups.
    const SETUP_SHARE: f64;
    /// Build every input a pass reads.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;
    /// Checks made once per run, apart from the passes:
    /// (operations attempted, operations failed).
    fn precheck(&mut self) -> (u64, u64);
    /// One pass: call the program, then check what it returned.
    fn pass(&mut self, index: u64, tr: &mut Tracer) -> Pass;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --list",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        print_list();
        std::process::exit(0);
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds <= 0.0 || args.seconds.is_nan()
    {
        usage();
    }
    args
}

/// `--list`: the workloads and metric names this binary prints, for
/// checking against `BENCHMARK.json`.
fn print_list() {
    let names = |m: &[(&str, &str)]| {
        m.iter()
            .map(|(n, u)| format!("{{\"name\":\"{n}\",\"unit\":\"{u}\"}}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "{{\"workloads\":[{}],\"end_to_end\":[{}],\"per_layer\":[{}]}}",
        WORKLOADS
            .iter()
            .map(|w| format!("\"{w}\""))
            .collect::<Vec<_>>()
            .join(","),
        names(&END_TO_END),
        names(&PER_LAYER)
    );
}

fn main() {
    let args = parse_args();
    // The benchmark runs the streamed engine in accumulator mode; the
    // variable is read by `ShardOpts::from_env`. Set before any thread
    // starts.
    std::env::set_var("ALPHAWAN_SIM_ACCUM", "1");
    match args.workload.as_str() {
        "paper_sweep" => run::<paper_sweep::PaperSweep>(&args),
        "city_stream" => run::<city_stream::CityStream>(&args),
        "ingest" => run::<ingest::Ingest>(&args),
        _ => usage(),
    }
}

/// SplitMix64 of `a` and `b`: derives independent seeds for each input
/// a workload draws from the run's `--seed`.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `q`-quantile of `v`, interpolated between the two nearest ranks
/// (0 for an empty `v`).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (s.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Sites whose `obs::span` time includes that of sites nested in them.
const SPAN_CHILDREN: [(&str, &[&str]); 1] = [("sim.event_loop", &["sim.lock_on", "sim.verdicts"])];

/// Self time per `obs::span` site since the last attach: the site's
/// estimated total minus that of the sites nested in it.
fn span_self_times(tr: &mut Tracer) {
    let report = obs::span::report();
    let total = |site: &str| {
        report
            .sites
            .iter()
            .find(|s| s.site == site)
            .map_or(0.0, |s| s.est_total_ns / 1e9)
    };
    for s in &report.sites {
        let children = SPAN_CHILDREN
            .iter()
            .find(|(p, _)| *p == s.site)
            .map_or(0.0, |(_, c)| c.iter().map(|c| total(c)).sum());
        tr.set(
            &format!("span.{}_self_s", s.site),
            (s.est_total_ns / 1e9 - children).max(0.0),
        );
    }
}

/// Build the workload's inputs and time the build.
fn timed_setup<W: Workload>(
    args: &Args,
    tr: &mut Tracer,
    times: &mut Vec<f64>,
    samples: &mut Vec<BTreeMap<String, f64>>,
) -> W {
    tr.recording = args.trace;
    tr.start_sample(-(times.len() as i64) - 1);
    let t0 = Instant::now();
    let work = W::setup(args.seed, tr);
    times.push(t0.elapsed().as_secs_f64());
    samples.push(tr.take_sample());
    tr.recording = false;
    work
}

fn run<W: Workload>(args: &Args) {
    let mut tr = Tracer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut layer_samples: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut setup_times = Vec::new();
    let mut work = timed_setup::<W>(args, &mut tr, &mut setup_times, &mut layer_samples);

    let (a, f) = work.precheck();
    attempted += a;
    failed += f;

    // Untimed warm-up pass, checked like the others.
    tr.start_sample(0);
    tr.ref_mark();
    let warm = work.pass(0, &mut tr);
    attempted += warm.attempted;
    failed += warm.failed;

    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (mut ref_walls, mut ref_cpus) = (Vec::new(), Vec::new());
    let mut traced_walls = Vec::new();
    let started = Instant::now();
    let mut index = 1u64;
    let min_passes = if args.trace { 2 } else { 1 };
    while index <= min_passes || started.elapsed().as_secs_f64() < args.seconds {
        // Set-up is timed across the whole window, not in one burst at
        // its start: the host's speed drifts over seconds, and set-ups
        // of tens of milliseconds would sample only a moment of it.
        while setup_times[1..].iter().sum::<f64>()
            < W::SETUP_SHARE * started.elapsed().as_secs_f64()
        {
            // Dropped first, so that a run never holds two builds.
            drop(work);
            work = timed_setup(args, &mut tr, &mut setup_times, &mut layer_samples);
        }
        // In a traced run every second pass is traced.
        let traced = args.trace && index.is_multiple_of(2);
        tr.recording = traced;
        if traced {
            obs::span::attach();
        }
        tr.start_sample(index as i64);
        tr.ref_mark();
        let p = work.pass(index, &mut tr);
        if traced {
            obs::span::detach();
            span_self_times(&mut tr);
            traced_walls.push(p.wall_s);
            tr.set("trace.pass_s", p.wall_s);
            layer_samples.push(tr.take_sample());
        } else {
            walls.push(p.wall_s);
            cpus.push(p.cpu_s);
            let (ref_wall, ref_cpu) = tr.busy_ref();
            ref_walls.push(ref_wall);
            ref_cpus.push(ref_cpu);
        }
        attempted += p.attempted;
        failed += p.failed;
        index += 1;
    }

    let setup_s = median(&setup_times);
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let values: Vec<f64> = layer_samples
                .iter()
                .filter_map(|s| s.get(name).copied())
                .collect();
            layers.insert(name, median(&values));
        }
        layers.insert("run.pass_s", median(&walls));
        layers.insert("run.cpu_s", median(&cpus));
        layers.insert("run.ref_kernel_s", median(tr.ref_readings()));
        layers.insert("trace.overhead_s", median(&traced_walls) - median(&walls));
        layers.insert("trace.spans", tr.span_count() as f64);
        write_spans(args, &tr);
        PER_LAYER.iter().map(|&(n, u)| (n, u, layers[n])).collect()
    } else {
        vec![
            ("setup_s", "s", setup_s),
            ("pass_ref", "ref", median(&ref_walls)),
            ("cpu_ref", "ref", median(&ref_cpus)),
            ("peak_rss_mb", "MB", probe::peak_rss_mb()),
        ]
    };

    eprintln!(
        "perfbench {}: seed {} set-ups {:.3?} pass walls {:.3?} traced {:.3?} cpu {:.3?} (+1 warm-up) in reference units {:.0?} reference kernel median {:.5} s attempted {attempted} failed {failed}",
        args.workload,
        args.seed,
        setup_times,
        walls,
        traced_walls,
        cpus,
        ref_walls,
        median(tr.ref_readings()),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// Write the traced run's spans under `results/out/`.
fn write_spans(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new("results/out");
    let path = dir.join(format!(
        "perfbench-{}-seed{}.spans.json",
        args.workload, args.seed
    ));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": {}}}\n",
        args.workload,
        args.seed,
        tr.spans_json()
    );
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
