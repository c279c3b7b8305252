//! The two-level kernel simulator (see crate docs).

pub mod dispatch;
pub mod multitask;
pub mod trace;
pub mod warp;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::arch::GpuArch;
use crate::occupancy::KernelResources;
use trace::CtaTrace;

/// Number of main-loop iterations simulated in detail before extrapolating
/// to the full trip count.
const SAMPLE_ITERS: u32 = 6;

/// Everything the simulator needs to execute one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel name for diagnostics.
    pub name: String,
    /// Number of CTAs (paper eq. 4's `GridSize`).
    pub grid: usize,
    /// Static per-CTA resources.
    pub resources: KernelResources,
    /// Per-warp instruction trace template.
    pub trace: CtaTrace,
    /// Useful floating-point work of the whole launch, for `cpE`.
    pub flops: u64,
}

impl KernelDesc {
    /// Warps per CTA.
    pub fn warps_per_cta(&self) -> usize {
        self.resources.block_size.div_ceil(32)
    }
}

/// Content key of one wave simulation: the interned per-warp trace plus
/// the scalars [`simulate_wave`] reads. Kernel name and grid size do not
/// enter a wave, so they are not part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WaveKey {
    trace: u32,
    warps: usize,
    tlp: usize,
    active_sms: usize,
}

#[derive(Debug, Default)]
struct Memo {
    /// Every distinct trace seen, stored once; keys refer to it by index.
    traces: HashMap<CtaTrace, u32>,
    waves: HashMap<WaveKey, u64>,
}

/// Memoization of single-SM wave simulations, keyed by content.
///
/// A wave's cycle count depends only on the architecture, the kernel's
/// per-warp trace, its warps per CTA, the CTAs resident on the SM and the
/// number of SMs sharing DRAM bandwidth. The key is exactly those inputs
/// (the trace interned, so each distinct trace is stored once), which
/// makes one cache valid for every kernel simulated on one architecture:
/// a compiler can share it across all candidates of all layers of all its
/// compilations. The cache binds to the architecture of its first lookup
/// and panics if it is later used with a different one.
///
/// The cache is thread-safe: pool workers share it through `&SimCache`.
/// A miss simulates outside the lock, so two workers missing the same
/// wave at once may both simulate it; only the one that stores it counts
/// a miss (the other counts a hit), so [`hits`](Self::hits),
/// [`misses`](Self::misses) and the `sim.cache.*` / `sim.wave.*`
/// telemetry counters do not depend on thread timing.
#[derive(Debug, Default)]
pub struct SimCache {
    arch: OnceLock<GpuArch>,
    memo: Mutex<Memo>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SimCache {
    /// Creates an empty cache, bound to no architecture yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered by a wave already in the memo (including a
    /// racing worker's lookup whose wave another worker stored first).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Waves simulated in detail and stored: one per distinct key.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cycles for `tlp` CTAs of `kernel` to run to completion on one SM
    /// while `active_sms` SMs share DRAM bandwidth.
    ///
    /// Uses detailed simulation of a sampled number of main-loop iterations
    /// and linear extrapolation over the remaining trip count (steady-state
    /// CPI sampling).
    ///
    /// # Panics
    ///
    /// Panics if the cache is bound to a different architecture.
    pub fn wave_cycles(
        &self,
        arch: &GpuArch,
        kernel: &KernelDesc,
        tlp: usize,
        active_sms: usize,
    ) -> u64 {
        let trace = self.trace_id(arch, kernel);
        self.cycles(arch, kernel, trace, tlp, active_sms)
    }

    /// Checks the architecture binding and interns `kernel`'s trace. A
    /// launch calls this once, then looks its waves up with [`Self::cycles`]
    /// so each lookup hashes only the scalar part of the key.
    pub(crate) fn trace_id(&self, arch: &GpuArch, kernel: &KernelDesc) -> u32 {
        let bound = self.arch.get_or_init(|| arch.clone());
        assert!(
            bound == arch,
            "SimCache bound to architecture {} used with architecture {}: \
             one cache is valid for one architecture",
            bound.name,
            arch.name
        );
        let mut memo = self.lock();
        if let Some(&id) = memo.traces.get(&kernel.trace) {
            return id;
        }
        let id = memo.traces.len() as u32;
        memo.traces.insert(kernel.trace.clone(), id);
        id
    }

    /// [`Self::wave_cycles`] for a trace already interned by
    /// [`Self::trace_id`] on the same `arch` and `kernel`.
    pub(crate) fn cycles(
        &self,
        arch: &GpuArch,
        kernel: &KernelDesc,
        trace: u32,
        tlp: usize,
        active_sms: usize,
    ) -> u64 {
        let key = WaveKey {
            trace,
            warps: kernel.warps_per_cta(),
            tlp,
            active_sms,
        };
        let stored = self.lock().waves.get(&key).copied();
        if let Some(c) = stored {
            self.count_hit();
            return c;
        }
        // Simulated without holding the lock: other workers keep looking
        // up while this wave runs.
        let c = simulate_wave(arch, kernel, tlp, active_sms);
        if self.lock().waves.insert(key, c).is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            pcnn_telemetry::counter("sim.cache.misses", 1);
            count_wave(kernel);
        } else {
            // Another worker stored the same wave first.
            self.count_hit();
        }
        c
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        pcnn_telemetry::counter("sim.cache.hits", 1);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Telemetry for one stored wave simulation: exact or extrapolated, and
/// how many iterations the extrapolation covered.
fn count_wave(kernel: &KernelDesc) {
    let iters = kernel.trace.body_iters;
    if iters <= 2 * SAMPLE_ITERS {
        pcnn_telemetry::counter("sim.wave.exact", 1);
    } else {
        pcnn_telemetry::counter("sim.wave.extrapolated", 1);
        pcnn_telemetry::counter(
            "sim.wave.iters_extrapolated",
            u64::from(iters - 2 * SAMPLE_ITERS),
        );
    }
}

fn simulate_wave(arch: &GpuArch, kernel: &KernelDesc, tlp: usize, active_sms: usize) -> u64 {
    let warps = kernel.warps_per_cta();
    let iters = kernel.trace.body_iters;
    if iters <= 2 * SAMPLE_ITERS {
        // Short loop: simulate exactly.
        let ops = kernel.trace.sampled(iters);
        return warp::simulate_sm(arch, &ops, warps, tlp, active_sms);
    }
    // Two detailed runs give the steady-state cycles-per-iteration.
    let c1 = warp::simulate_sm(
        arch,
        &kernel.trace.sampled(SAMPLE_ITERS),
        warps,
        tlp,
        active_sms,
    );
    let c2 = warp::simulate_sm(
        arch,
        &kernel.trace.sampled(2 * SAMPLE_ITERS),
        warps,
        tlp,
        active_sms,
    );
    let per_iter = (c2.saturating_sub(c1)) as f64 / SAMPLE_ITERS as f64;
    c2 + (per_iter * (iters - 2 * SAMPLE_ITERS) as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::trace::{CtaTrace, Op};
    use super::*;
    use crate::arch::K20C;

    fn toy_kernel(iters: u32) -> KernelDesc {
        KernelDesc {
            name: "toy".into(),
            grid: 8,
            resources: KernelResources {
                block_size: 64,
                regs_per_thread: 32,
                shmem_per_block: 1024,
            },
            trace: CtaTrace {
                prologue: vec![(Op::Ialu, 4), (Op::Ldg, 2), (Op::WaitMem, 1)],
                body: vec![(Op::Lds, 4), (Op::Ffma, 32), (Op::Bar, 1)],
                body_iters: iters,
                epilogue: vec![(Op::Stg, 2)],
            },
            flops: 1_000_000,
        }
    }

    #[test]
    fn wave_cycles_scale_with_iters() {
        let k_short = toy_kernel(8);
        let k_long = toy_kernel(80);
        let c1 = SimCache::new();
        let c2 = SimCache::new();
        let short = c1.wave_cycles(&K20C, &k_short, 2, 13);
        let long = c2.wave_cycles(&K20C, &k_long, 2, 13);
        // 10x the iterations: well over 3x the cycles even after the fixed
        // prologue/memory-latency overhead of the short run.
        assert!(long > 3 * short, "long {long} vs short {short}");
    }

    #[test]
    fn extrapolation_close_to_exact() {
        // For a kernel whose trip count is just above the sampling
        // threshold, extrapolation must agree with exact simulation well.
        let k = toy_kernel(13);
        let exact = warp::simulate_sm(&K20C, &k.trace.sampled(13), k.warps_per_cta(), 2, 13);
        let cache = SimCache::new();
        let est = cache.wave_cycles(&K20C, &k, 2, 13);
        let err = (est as f64 - exact as f64).abs() / exact as f64;
        assert!(err < 0.15, "extrapolation error {err:.3}: {est} vs {exact}");
    }

    #[test]
    fn cache_is_hit() {
        let k = toy_kernel(40);
        let cache = SimCache::new();
        let a = cache.wave_cycles(&K20C, &k, 3, 13);
        let b = cache.wave_cycles(&K20C, &k, 3, 13);
        assert_eq!(a, b);
        assert_eq!(cache.lock().waves.len(), 1);
    }

    #[test]
    fn repeated_wave_cycles_do_not_resimulate() {
        let k = toy_kernel(40);
        let cache = SimCache::new();
        let a = cache.wave_cycles(&K20C, &k, 3, 13);
        for _ in 0..5 {
            assert_eq!(cache.wave_cycles(&K20C, &k, 3, 13), a);
        }
        assert_eq!(cache.misses(), 1, "same (tlp, active_sms) key re-simulated");
        assert_eq!(cache.hits(), 5);
        // A different key is a genuine miss.
        cache.wave_cycles(&K20C, &k, 4, 13);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 5);
    }

    #[test]
    fn more_tlp_takes_longer_per_wave_but_not_linearly() {
        // Running 4 CTAs together must take less than 4x the time of 1 CTA
        // (latency hiding) but at least as long as 1 CTA.
        let k = toy_kernel(40);
        let cache = SimCache::new();
        let one = cache.wave_cycles(&K20C, &k, 1, 13);
        let four = cache.wave_cycles(&K20C, &k, 4, 13);
        assert!(four >= one);
        assert!(four < 4 * one, "no latency hiding: {four} vs 4x{one}");
    }

    #[test]
    fn one_cache_serves_every_kernel_with_the_same_waves() {
        // Name and grid size do not enter a wave: a second kernel that
        // differs only in them is served entirely from the memo.
        let a = toy_kernel(40);
        let mut b = toy_kernel(40);
        b.name = "other".into();
        b.grid = 4096;
        let cache = SimCache::new();
        let ca = cache.wave_cycles(&K20C, &a, 3, 13);
        let cb = cache.wave_cycles(&K20C, &b, 3, 13);
        assert_eq!(ca, cb);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn different_wave_content_is_a_different_key() {
        // A different trip count or block size changes the wave: each is a
        // genuine miss with the value a fresh cache computes.
        let base = toy_kernel(40);
        let longer = toy_kernel(41);
        let mut wider = toy_kernel(40);
        wider.resources.block_size = 128;
        let shared = SimCache::new();
        for k in [&base, &longer, &wider] {
            let fresh = SimCache::new().wave_cycles(&K20C, k, 2, 13);
            assert_eq!(shared.wave_cycles(&K20C, k, 2, 13), fresh);
        }
        assert_eq!(shared.misses(), 3);
        assert_eq!(shared.hits(), 0);
        assert_eq!(shared.lock().traces.len(), 2, "block size shares the trace");
    }

    #[test]
    #[should_panic(expected = "one cache is valid for one architecture")]
    fn cache_bound_to_one_arch_rejects_another() {
        let k = toy_kernel(8);
        let cache = SimCache::new();
        cache.wave_cycles(&K20C, &k, 1, 13);
        cache.wave_cycles(&crate::arch::JETSON_TX1, &k, 1, 2);
    }

    #[test]
    #[should_panic(expected = "one cache is valid for one architecture")]
    fn cache_rejects_a_rescaled_copy_of_its_arch() {
        // Same name, different clock: still a different architecture.
        let k = toy_kernel(8);
        let cache = SimCache::new();
        cache.wave_cycles(&K20C, &k, 1, 13);
        cache.wave_cycles(&K20C.with_frequency_scale(0.5), &k, 1, 13);
    }

    #[test]
    fn shared_across_threads_matches_fresh_caches() {
        let kernels: Vec<KernelDesc> = (10..18).map(toy_kernel).collect();
        let cache = SimCache::new();
        let got: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        kernels
                            .iter()
                            .map(|k| cache.wave_cycles(&K20C, k, 2, 13))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let want: Vec<u64> = kernels
            .iter()
            .map(|k| SimCache::new().wave_cycles(&K20C, k, 2, 13))
            .collect();
        for g in &got {
            assert_eq!(g, &want);
        }
        // Racing workers that simulate the same wave count one miss
        // between them, so the counters are exact whatever the timing.
        assert_eq!(cache.misses(), 8);
        assert_eq!(cache.hits(), 3 * 8);
    }
}
