//! Fleet serving: FleetNet on a K20c + Jetson TX1 fleet, served in
//! virtual time by `Server::run`.
//!
//! Every timing parameter of the traffic is derived at set-up from the
//! simulator's own costs, so the scenario keeps its meaning when the
//! cost model moves: the fleet capacity is the sum over platforms of
//! full-batch images per simulated second.

use pcnn_bench::baselines::fleet_net;
use pcnn_core::offline::gemm_layers_perforated;
use pcnn_core::prelude::{simulate_schedule, AppSpec, OfflineCompiler, Schedule};
use pcnn_core::soc::{score, SocInputs};
use pcnn_data::{TraceSpec, WorkloadKind};
use pcnn_gpu::arch::{GpuArch, JETSON_TX1, K20C};
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_kernels::sgemm::build_kernel;
use pcnn_kernels::tune_kernel_candidates;
use pcnn_nn::spec::NetworkSpec;
use pcnn_serve::{
    CostOracle, DegradationLadder, Platform, RouterPolicy, ServeReport, ServeWorkload, Server,
    ServerConfig,
};

use crate::spans::span;
use crate::stats::{fnv1a, median};
use crate::Metrics;

/// Server batch cap; also the batch the fleet capacity is priced at.
const MAX_BATCH: usize = 8;
/// Poisson interactive load as a share of fleet capacity.
const POISSON_LOAD: f64 = 0.6;
/// Camera frame rate of the real-time tenant.
const CAMERA_FPS: f64 = 30.0;
/// The bulk background job and the queue it is admitted into: the part
/// that does not fit is shed at admission.
const BULK_IMAGES: usize = 4096;
const BULK_QUEUE: usize = 1024;
/// Burst tenant: each burst lifts offered load to `BURST_PEAK_LOAD` x
/// capacity over a `BURST_WINDOW_S` window (all of its requests arrive at
/// the window's start); bursts arrive at `BURST_RATE` per second.
const BURST_PEAK_LOAD: f64 = 2.0;
const BURST_WINDOW_S: f64 = 0.02;
const BURST_RATE: f64 = 4.0;
const BURST_SHARE_OF_SPAN: f64 = 0.8;

/// Which arrival mix the fleet serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Camera + Poisson interactive at 0.6x capacity + a bulk job.
    Steady,
    /// The steady mix plus a seeded bursty interactive tenant.
    Burst,
}

/// A built fleet server and the scenario parameters it was derived from.
pub struct Fleet {
    pub net: &'static NetworkSpec,
    pub server: Server<'static>,
    /// Fleet capacity at full batch, images per simulated second.
    pub capacity: f64,
    /// Mean offered images per simulated second, as a multiple of
    /// `capacity`.
    pub offered_load: f64,
}

/// Index of the Poisson interactive tenant among the workloads.
const POISSON_TENANT: usize = 1;

/// Unperforated cost of a batch-`b` pass on `arch`, in simulated seconds.
fn pass_seconds(arch: &GpuArch, net: &NetworkSpec, b: usize) -> pcnn_core::Result<f64> {
    let schedule = OfflineCompiler::new(arch, net).try_compile_batch(b)?;
    Ok(simulate_schedule(arch, &schedule).seconds)
}

/// An interactive tenant with deadlines scaled to the fleet: the user
/// stops noticing delay at 10 reference full-batch passes and gives up at
/// 40. At 5 passes, Poisson clumps alone walked the ladder on about one
/// `serve-steady` seed in five.
fn interactive(name: &str, rate: f64, trace: TraceSpec, queue: usize, c_ref: f64) -> ServeWorkload {
    let app = AppSpec {
        name: name.into(),
        kind: WorkloadKind::Interactive,
        data_rate: rate,
        accuracy_sensitive: false,
    };
    let mut w = ServeWorkload::new(app, trace, queue);
    w.req.t_imperceptible = Some(10.0 * c_ref);
    w.req.t_unusable = Some(40.0 * c_ref);
    w
}

/// Builds the fleet server for `traffic` with `poisson_requests` Poisson
/// requests: every public constructor and build call before the first
/// request, which is what `setup_s` times.
pub fn setup(traffic: Traffic, poisson_requests: usize, seed: u64) -> pcnn_core::Result<Fleet> {
    let net: &'static NetworkSpec = Box::leak(Box::new(fleet_net()));
    let gpus: [&'static GpuArch; 2] = [&K20C, &JETSON_TX1];
    let mut capacity = 0.0;
    for gpu in gpus {
        capacity += MAX_BATCH as f64 / pass_seconds(gpu, net, MAX_BATCH)?;
    }
    let c_ref = pass_seconds(gpus[0], net, MAX_BATCH)?;
    let rate = POISSON_LOAD * capacity;
    let span_s = poisson_requests as f64 / rate;
    let frames = ((span_s * CAMERA_FPS) as usize).max(1);
    let mut workloads = vec![
        ServeWorkload::new(
            AppSpec::video_surveillance(CAMERA_FPS),
            TraceSpec::real_time(frames, CAMERA_FPS),
            64,
        ),
        interactive(
            "interactive",
            rate,
            TraceSpec::poisson(WorkloadKind::Interactive, poisson_requests, rate, seed),
            128,
            c_ref,
        ),
        ServeWorkload::new(
            AppSpec::image_tagging(),
            TraceSpec::background(BULK_IMAGES),
            BULK_QUEUE,
        ),
    ];
    let mut offered = rate + CAMERA_FPS;
    if traffic == Traffic::Burst {
        let extra = (BURST_PEAK_LOAD - POISSON_LOAD) * capacity * BURST_WINDOW_S;
        let burst_size = (extra as usize).max(1);
        // Bursts stop after ~80 % of the Poisson span, so calm returns
        // before the end and the makespan does not hinge on when the
        // last burst happens to land.
        let n_bursts = ((BURST_SHARE_OF_SPAN * span_s * BURST_RATE) as usize).max(1);
        // A seed distinct from the Poisson tenant's, derived from the
        // same workload seed.
        let burst_seed = seed ^ 0x9E37_79B9_7F4A_7C15;
        workloads.push(interactive(
            "bursts",
            BURST_RATE * burst_size as f64,
            TraceSpec::bursty(
                WorkloadKind::Interactive,
                n_bursts,
                burst_size,
                BURST_RATE,
                burst_seed,
            ),
            128,
            c_ref,
        ));
        offered += BURST_RATE * burst_size as f64;
    }
    let n_convs = net.conv_layers().len();
    let mut builder = Server::builder(net).config(
        ServerConfig::default()
            .with_max_batch(MAX_BATCH)
            .with_router(RouterPolicy::Affinity),
    );
    for gpu in gpus {
        builder = builder.platform(Platform::new(
            gpu,
            DegradationLadder::default_ladder(n_convs),
        ));
    }
    for w in workloads {
        builder = builder.workload(w);
    }
    Ok(Fleet {
        net,
        server: builder.build()?,
        capacity,
        offered_load: offered / capacity,
    })
}

/// The output checks on one report: every tenant's offered images are
/// either served or rejected, no tenant meets more deadlines than it
/// served, and every platform's ladder occupancy sums to its images.
/// Returns the first violation.
pub fn check(report: &ServeReport) -> Result<(), String> {
    for w in &report.workloads {
        if w.served_images + w.rejected_images != w.images {
            return Err(format!(
                "{}: served {} + rejected {} != offered {}",
                w.name, w.served_images, w.rejected_images, w.images
            ));
        }
        if w.deadlines_met > w.deadline_total {
            return Err(format!(
                "{}: deadlines met {} > deadline total {}",
                w.name, w.deadlines_met, w.deadline_total
            ));
        }
    }
    for g in &report.gpus {
        let sum: usize = g.images_at_level.iter().sum();
        if sum != g.images {
            return Err(format!(
                "{}: images_at_level sums to {sum}, images {}",
                g.name, g.images
            ));
        }
    }
    Ok(())
}

/// The measured `Server::run` calls of one benchmark run.
#[derive(Default)]
pub struct Served {
    /// The first successful call's report and the digest of its JSON
    /// rendering; every later call must match the digest.
    first: Option<(ServeReport, u64)>,
    /// Host seconds of each `Server::run`.
    pub secs: Vec<f64>,
    pub failed: usize,
}

impl Served {
    /// Times one `Server::run`. The call fails when it errs, its report
    /// breaks [`check`], or its digest differs from the first call's.
    pub fn run_once(&mut self, fleet: &Fleet) {
        let t0 = std::time::Instant::now();
        let out = span("Server::run", || fleet.server.run());
        self.secs.push(t0.elapsed().as_secs_f64());
        let report = match out {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve: Server::run failed: {e}");
                self.failed += 1;
                return;
            }
        };
        let digest = fnv1a(report.to_json().as_bytes());
        if let Err(e) = check(&report) {
            eprintln!("serve: output check failed: {e}");
            self.failed += 1;
        }
        match &self.first {
            None => self.first = Some((report, digest)),
            Some((_, d)) if *d != digest => {
                eprintln!("serve: digest {digest:016x} differs from the first call's {d:016x}");
                self.failed += 1;
            }
            Some(_) => {}
        }
    }

    /// The first successful call's report and digest.
    pub fn first(&self) -> Option<&(ServeReport, u64)> {
        self.first.as_ref()
    }
}

/// Total requests the fleet's traces offer.
fn requests(fleet: &Fleet) -> usize {
    fleet.server.workloads().iter().map(|w| w.trace.len()).sum()
}

/// SoC (eq. 15) of every deadline tenant with energy taken per served
/// image, averaged over those tenants. The report's own `soc` divides by
/// the tenant's total energy, so it falls as the trace lengthens.
fn soc_per_img(fleet: &Fleet, report: &ServeReport) -> f64 {
    let mut scores = Vec::new();
    for (w, r) in fleet.server.workloads().iter().zip(&report.workloads) {
        if r.deadline_s.is_none() || r.served_images == 0 {
            continue;
        }
        let response_time = match r.kind {
            WorkloadKind::RealTime => r.latency.max,
            _ => r.latency.mean,
        };
        let inputs = SocInputs {
            response_time,
            entropy: r.mean_entropy,
            energy_j: r.energy_j / r.served_images as f64,
        };
        scores.push(
            score(&w.req, &inputs)
                .expect("served tenant has positive energy")
                .score,
        );
    }
    scores.iter().sum::<f64>() / scores.len().max(1) as f64
}

/// The end-to-end serving metrics.
pub fn e2e(fleet: &Fleet, s: &Served, r: &ServeReport, m: &mut Metrics) {
    let reqs = requests(fleet) as f64;
    let rates: Vec<f64> = s.secs.iter().map(|t| reqs / t).collect();
    m.push("serve_req_per_s", median(&rates), "1/s");
    let (mut met, mut asked) = (0, 0);
    for w in r.workloads.iter().filter(|w| w.deadline_s.is_some()) {
        met += w.deadlines_met;
        asked += w.deadline_total + w.rejected_requests;
    }
    m.push(
        "serve_deadline_met_share",
        met as f64 / asked as f64,
        "share",
    );
    let lat = &r.workloads[POISSON_TENANT].latency;
    m.push("serve_latency_ms_p50", lat.p50 * 1e3, "sim_ms");
    m.push("serve_latency_ms_p99", lat.p99 * 1e3, "sim_ms");
    m.push("serve_soc_per_img", soc_per_img(fleet, r), "1/J");
    let served: usize = r.workloads.iter().map(|w| w.served_images).sum();
    let joules = r.total_energy_j + r.total_idle_energy_j;
    m.push("serve_j_per_img", joules / served as f64, "J");
    let offered: usize = r.workloads.iter().map(|w| w.images).sum();
    m.push(
        "serve_rejected_share",
        r.total_rejected() as f64 / offered as f64,
        "share",
    );
}

/// Per-layer metrics of the `serve` layer, all from the public report.
pub fn serve_layer(fleet: &Fleet, s: &Served, r: &ServeReport, m: &mut Metrics) {
    let run_s = median(&s.secs);
    m.push("serve.run_s", run_s, "s");
    m.push(
        "serve.us_per_req",
        run_s * 1e6 / requests(fleet) as f64,
        "us",
    );
    let dispatches: usize = r.gpus.iter().map(|g| g.dispatches).sum();
    let images: usize = r.gpus.iter().map(|g| g.images).sum();
    m.push("serve.dispatches", dispatches as f64, "count");
    m.push(
        "serve.mean_batch",
        images as f64 / dispatches.max(1) as f64,
        "images",
    );
    let degraded: usize = r
        .gpus
        .iter()
        .map(|g| g.images_at_level[1..].iter().sum::<usize>())
        .sum();
    m.push(
        "serve.degraded_share",
        degraded as f64 / images.max(1) as f64,
        "share",
    );
    let moves: usize = r
        .workloads
        .iter()
        .map(|w| w.degrade_up + w.degrade_down)
        .sum();
    m.push("serve.ladder_moves", moves as f64, "count");
    m.push("serve.rejected", r.total_rejected() as f64, "count");
    let by_name = |name: &str| {
        r.gpus
            .iter()
            .find(|g| g.name == name)
            .expect("fleet platform")
    };
    m.push(
        "serve.platform_share.TX1",
        by_name("TX1").images as f64 / images.max(1) as f64,
        "share",
    );
    for name in ["K20c", "TX1"] {
        let busy = by_name(name).busy_s / r.makespan_s;
        m.push(&format!("serve.busy_share.{name}"), busy, "share");
    }
}

/// `data` layer: host nanoseconds per arrival drawn from the Poisson
/// tenant's lazy trace.
pub fn data_layer(fleet: &Fleet, m: &mut Metrics) {
    let spec = &fleet.server.workloads()[POISSON_TENANT].trace;
    let t0 = std::time::Instant::now();
    let sum = span("TraceSpec::arrivals", || {
        spec.arrivals().fold(0.0, |acc, (t, n)| acc + t + n as f64)
    });
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(sum);
    m.push(
        "data.arrivals_ns_per_req",
        secs * 1e9 / spec.len() as f64,
        "ns",
    );
}

/// Every `(platform, level, batch)` key the run could have priced: each
/// platform's level 0 plus every level it served images at, at every
/// batch up to the cap.
fn oracle_keys(report: &ServeReport) -> Vec<(usize, usize, usize)> {
    let mut keys = Vec::new();
    for (p, g) in report.gpus.iter().enumerate() {
        for (level, &n) in g.images_at_level.iter().enumerate() {
            if level == 0 || n > 0 {
                keys.extend((1..=MAX_BATCH).map(|b| (p, level, b)));
            }
        }
    }
    keys
}

/// Fills a fresh `CostOracle` over `keys`; returns the wall seconds.
fn fill_oracle(fleet: &Fleet, keys: &[(usize, usize, usize)]) -> f64 {
    let mut oracle = CostOracle::new(fleet.server.platforms(), fleet.net);
    let t0 = std::time::Instant::now();
    for &(p, level, b) in keys {
        span("CostOracle::cost", || oracle.cost(p, level, b)).expect("oracle key compiles");
    }
    t0.elapsed().as_secs_f64()
}

/// The compile path (`core`, `kernels`, `gpu`) and its pool scaling,
/// measured over the oracle keys this run used.
pub fn compile_layers(fleet: &Fleet, report: &ServeReport, m: &mut Metrics) {
    let keys = oracle_keys(report);
    let threads = pcnn_parallel::current_threads();
    let fill_n = span("pcnn_parallel::with_threads", || {
        pcnn_parallel::with_threads(threads, || fill_oracle(fleet, &keys))
    });
    let fill_1 = span("pcnn_parallel::with_threads", || {
        pcnn_parallel::with_threads(1, || fill_oracle(fleet, &keys))
    });
    m.push("core.oracle_keys", keys.len() as f64, "count");
    m.push("core.oracle_fill_s", fill_n, "s");
    m.push("parallel.compile_speedup", fill_1 / fill_n, "x");

    // One schedule per (platform, level) at the smallest and the full
    // batch, each taken apart into the calls the compiler makes.
    let mut compile_ms = Vec::new();
    let mut sched_us = Vec::new();
    let mut tune_us = Vec::new();
    let mut candidates = Vec::new();
    let mut sim_ms = Vec::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    for &(p, level, b) in keys.iter().filter(|k| k.2 == 1 || k.2 == MAX_BATCH) {
        let platform = &fleet.server.platforms()[p];
        let rates = &platform.ladder.levels[level].rates;
        let compiler = OfflineCompiler::new(platform.arch, fleet.net);
        let t0 = std::time::Instant::now();
        let schedule: Schedule = span("OfflineCompiler::try_compile_perforated", || {
            compiler.try_compile_perforated(b, rates, true)
        })
        .expect("oracle key compiles");
        compile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = std::time::Instant::now();
        let cost = span("simulate_schedule", || {
            simulate_schedule(platform.arch, &schedule)
        });
        sched_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(cost);
        let shapes = gemm_layers_perforated(fleet.net, b, rates).expect("rates match the net");
        for (_, name, _, shape) in &shapes {
            let t0 = std::time::Instant::now();
            let tuned = span("tune_kernel_candidates", || {
                tune_kernel_candidates(platform.arch, *shape, 4)
            });
            tune_us.push(t0.elapsed().as_secs_f64() * 1e6);
            candidates.push(tuned.len() as f64);
            for t in &tuned {
                let kernel = span("build_kernel", || build_kernel(*shape, &t.config, name));
                std::hint::black_box(kernel);
            }
        }
        for layer in &schedule.layers {
            let mut cache = SimCache::new();
            let t0 = std::time::Instant::now();
            let r = span("simulate_kernel", || {
                simulate_kernel(platform.arch, &layer.kernel, layer.psm_policy(), &mut cache)
            });
            sim_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(r);
            hits += cache.hits();
            lookups += cache.hits() + cache.misses();
        }
    }
    m.push("core.compile_ms_p50", median(&compile_ms), "ms");
    m.push("core.simulate_schedule_us", median(&sched_us), "us");
    m.push("kernels.tune_us", median(&tune_us), "us");
    m.push(
        "kernels.candidates",
        candidates.iter().sum::<f64>() / candidates.len() as f64,
        "count",
    );
    m.push("gpu.simulate_kernel_ms", median(&sim_ms), "ms");
    m.push(
        "gpu.wave_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
}
