//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-steady|serve-burst|infer-alexnet> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every run measures both halves of the system: fleet serving in
//! virtual time (`Server::run`) and real AlexNet inference on the CPU
//! (`Network::forward`). The workload picks the traffic and which half
//! is its own: that half gets most of the measured time and supplies
//! `setup_s` and `peak_rss_mb`; the other half is a companion, so every
//! metric has a value on every workload. The halves take turns through
//! the whole run.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics, and the spans the benchmark recorded around each layer call
//! are written to `perfbench/out/`. See `perfbench/NOTES.md`.

mod infer;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serve::Traffic;
use stats::median;

/// Named metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeSteady,
    ServeBurst,
    InferAlexnet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve-steady" => Some(Self::ServeSteady),
            "serve-burst" => Some(Self::ServeBurst),
            "infer-alexnet" => Some(Self::InferAlexnet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeSteady => "serve-steady",
            Self::ServeBurst => "serve-burst",
            Self::InferAlexnet => "infer-alexnet",
        }
    }

    /// The serving traffic and its Poisson request count. On
    /// `infer-alexnet` serving is the companion: the steady mix, shorter,
    /// so its few seconds still hold several `Server::run` calls.
    fn traffic(self) -> (Traffic, usize) {
        match self {
            Self::ServeSteady => (Traffic::Steady, 4_000_000),
            Self::ServeBurst => (Traffic::Burst, 300_000),
            Self::InferAlexnet => (Traffic::Steady, 1_000_000),
        }
    }

    fn serves(self) -> bool {
        self != Self::InferAlexnet
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set-up repetitions whose median is `setup_s`.
const SERVE_SETUPS: usize = 5;
const INFER_SETUPS: usize = 3;
/// Share of the time budget the workload's own half gets.
const OWN_SHARE: f64 = 0.7;

/// What each per-layer metric should move: an end-to-end metric and the
/// workload it moves on.
const COMPILE: &str =
    "serve_req_per_s on serve-burst; barely on serve-steady; none on infer-alexnet";
const BURST_POLICY: &str =
    "deadline share, p99, SoC and J/img on serve-burst; none on serve-steady";
const PLACEMENT: &str = "serve_j_per_img and serve_latency_ms_p50 on serve-steady";
const ORACLE: &str = "serve_req_per_s on serve-burst (setup_s if compiling moves into build)";
const CONV: &str = "infer_ms_p50 and infer_ms_p90 on infer-alexnet";
const LAYER_MAP: &[(&str, &str)] = &[
    ("serve.run_s", "serve_req_per_s on both serve workloads"),
    ("serve.us_per_req", "serve_req_per_s on serve-steady"),
    ("serve.dispatches", "serve_j_per_img on serve-burst"),
    ("serve.mean_batch", BURST_POLICY),
    ("serve.degraded_share", BURST_POLICY),
    ("serve.ladder_moves", BURST_POLICY),
    ("serve.rejected", BURST_POLICY),
    ("serve.platform_share.TX1", PLACEMENT),
    ("serve.busy_share.K20c", PLACEMENT),
    ("serve.busy_share.TX1", PLACEMENT),
    (
        "data.arrivals_ns_per_req",
        "serve_req_per_s on serve-steady",
    ),
    ("core.oracle_keys", ORACLE),
    ("core.oracle_fill_s", ORACLE),
    ("core.compile_ms_p50", COMPILE),
    ("core.simulate_schedule_us", COMPILE),
    ("kernels.tune_us", COMPILE),
    ("kernels.candidates", COMPILE),
    ("gpu.simulate_kernel_ms", COMPILE),
    ("gpu.wave_cache_hit_ratio", COMPILE),
    ("parallel.compile_speedup", "serve_req_per_s on serve-burst"),
    ("parallel.infer_speedup", "infer_ms_p50 on infer-alexnet"),
    ("nn.conv_ms", CONV),
    (
        "nn.fc_ms",
        "caps how far infer_degraded_ms_p50 can fall on infer-alexnet",
    ),
    ("nn.other_ms", "infer_ms_p50 on infer-alexnet"),
    (
        "nn.conv_ms_degraded",
        "infer_degraded_ms_p50 on infer-alexnet",
    ),
    ("tensor.gemm_gflops", CONV),
    ("tensor.im2col_gbs", CONV),
    ("trace.overhead", "none: the traced run's own cost"),
];

/// Median of the odd-indexed (traced) samples over the even-indexed
/// (untraced) ones, minus one.
fn overhead(samples: &[f64]) -> f64 {
    let pick = |parity: usize| -> Vec<f64> {
        samples
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &s)| s)
            .collect()
    };
    median(&pick(1)) / median(&pick(0)) - 1.0
}

fn run(args: &Args) -> Result<(Metrics, usize, usize), String> {
    let w = args.workload;
    let own_serve = w.serves();
    let (traffic, requests) = w.traffic();
    let secs_since = |t0: Instant| t0.elapsed().as_secs_f64();

    // Set-up. The workload's own half is set up several times; the
    // median of those is `setup_s`.
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..if own_serve { SERVE_SETUPS } else { 1 } {
        let t0 = Instant::now();
        let built = serve::setup(traffic, requests, args.seed)
            .map_err(|e| format!("serve set-up failed: {e}"))?;
        if own_serve {
            setup_s.push(secs_since(t0));
        }
        fleet = Some(built);
    }
    let fleet = fleet.expect("at least one serve set-up");

    // The serving working set is reached in the first call (arrivals
    // stream, in-flight state is bounded by the queues), so a serving
    // workload reads its peak memory right after it, before the AlexNet
    // weights exist.
    let mut served = serve::Served::default();
    let mut spent = [0.0f64; 2];
    let mut peak_rss_mb = 0.0;
    if own_serve {
        spans::set_recording(false);
        let t0 = Instant::now();
        served.run_once(&fleet);
        spent[0] += secs_since(t0);
        peak_rss_mb = stats::peak_rss_mb();
    }

    let mut net = None;
    for _ in 0..if own_serve { 1 } else { INFER_SETUPS } {
        // Free the previous copy first: peak memory is one network.
        drop(net.take());
        let t0 = Instant::now();
        net = Some(infer::alexnet(args.seed));
        if !own_serve {
            setup_s.push(secs_since(t0));
        }
    }
    let model = infer::model(net.expect("at least one AlexNet set-up"), args.seed);

    // Measurement: the two halves take turns for `--seconds` of measured
    // time, each turn going to the half furthest behind its share, so
    // both sample the whole run rather than one stretch of it. In a
    // traced run the workload's own calls alternate untraced and traced,
    // which gives the tracing overhead; companion calls are all traced.
    let share = if own_serve {
        [OWN_SHARE, 1.0 - OWN_SHARE]
    } else {
        [1.0 - OWN_SHARE, OWN_SHARE]
    };
    let min_pairs = if own_serve { 5 } else { 20 };
    let mut inferred = infer::Inferred::default();
    loop {
        let short = [served.secs.len() < 2, inferred.pairs() < min_pairs];
        if spent[0] + spent[1] >= args.seconds && !short[0] && !short[1] {
            break;
        }
        let half = if short[0] != short[1] {
            usize::from(short[1])
        } else {
            usize::from(spent[0] / share[0] > spent[1] / share[1])
        };
        let calls = [served.secs.len(), inferred.pairs()][half];
        let own = (half == 0) == own_serve;
        spans::set_recording(args.trace && (!own || calls % 2 == 1));
        let t0 = Instant::now();
        if half == 0 {
            served.run_once(&fleet);
        } else {
            inferred.pair_once(&model);
        }
        spent[half] += secs_since(t0);
    }
    if !own_serve {
        peak_rss_mb = stats::peak_rss_mb();
    }
    let (report, digest) = served
        .first()
        .ok_or("no Server::run call succeeded")?
        .clone();

    eprintln!(
        "{}: fleet capacity {:.0} img/s, offered load {:.3}x capacity, digest {digest:016x}",
        w.name(),
        fleet.capacity,
        fleet.offered_load,
    );
    for g in &report.gpus {
        eprintln!(
            "{}: {} images at ladder levels {:?}",
            w.name(),
            g.name,
            g.images_at_level
        );
    }
    eprintln!(
        "{}: {} Server::run calls, seconds {:.3?}; {} forward pairs",
        w.name(),
        served.secs.len(),
        served.secs,
        inferred.pairs()
    );

    let mut e2e = Metrics::default();
    serve::e2e(&fleet, &served, &report, &mut e2e);
    infer::e2e(&inferred, &mut e2e);
    e2e.push("setup_s", median(&setup_s), "s");
    e2e.push("peak_rss_mb", peak_rss_mb, "MB");

    let mut layers = Metrics::default();
    if args.trace {
        let trace_overhead = if own_serve {
            overhead(&served.secs)
        } else {
            overhead(&inferred.ms[0])
        };
        spans::set_recording(true);
        serve::serve_layer(&fleet, &served, &report, &mut layers);
        serve::data_layer(&fleet, &mut layers);
        serve::compile_layers(&fleet, &report, &mut layers);
        infer::nn_layer(&model, 5, &mut layers);
        infer::tensor_layer(&model, 5, &mut layers);
        infer::parallel_infer(&model, 3, &mut layers);
        layers.push("trace.overhead", trace_overhead, "ratio");
        let run_s = median(&served.secs);
        let fill = layers
            .0
            .iter()
            .find(|m| m.0 == "core.oracle_fill_s")
            .map_or(0.0, |m| m.1);
        // The fill prices every batch of every level used, a superset of
        // the keys the run itself compiled.
        eprintln!(
            "{}: Server::run {run_s:.3} s; oracle fill over every key of the levels used {fill:.3} s ({:.0} % of Server::run)",
            w.name(),
            100.0 * fill / run_s,
        );
        for (name, value, unit) in &layers.0 {
            let moves = LAYER_MAP
                .iter()
                .find(|(n, _)| n == name)
                .map_or("?", |(_, m)| m);
            eprintln!("  {name:<28} {value:>14.6} {unit:<8} -> {moves}");
        }
        let path = PathBuf::from("perfbench/out").join(format!(
            "{}-seed{}.trace.json",
            w.name(),
            args.seed
        ));
        spans::write_chrome_trace(&path)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        eprintln!("spans: {}", path.display());
    }

    let attempted = served.secs.len() + 2 * inferred.pairs();
    let failed = served.failed + inferred.failed;
    Ok((if args.trace { layers } else { e2e }, attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, attempted, failed) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut fields = Vec::new();
    let mut finite = true;
    for (name, value, unit) in &metrics.0 {
        finite &= value.is_finite();
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && finite,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
