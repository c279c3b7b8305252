//! The cost oracle shares one wave cache per platform across every key it
//! compiles. That sharing must be invisible: every cost equals, bit for
//! bit, compiling the key on a fresh compiler and pricing the schedule
//! with the fresh-cache `simulate_schedule`, and the winning schedules are
//! the same. Run under several pool widths (`PCNN_THREADS=2`, `8`) so
//! workers racing on the shared cache are covered too.

use pcnn_bench::baselines::fleet_net;
use pcnn_core::prelude::*;
use pcnn_gpu::arch::{JETSON_TX1, K20C};
use pcnn_nn::spec::{alexnet, NetworkSpec};
use pcnn_serve::{CostOracle, DegradationLadder, Platform};

const MAX_BATCH: usize = 8;

fn fleet(spec: &NetworkSpec) -> Vec<Platform<'static>> {
    let n = spec.conv_layers().len();
    vec![
        Platform::new(&K20C, DegradationLadder::default_ladder(n)),
        Platform::new(&JETSON_TX1, DegradationLadder::default_ladder(n)),
    ]
}

fn bits(c: &NetworkCost) -> [u64; 5] {
    [
        c.seconds.to_bits(),
        c.energy.dynamic_j.to_bits(),
        c.energy.leakage_j.to_bits(),
        c.energy.dram_j.to_bits(),
        c.energy.constant_j.to_bits(),
    ]
}

/// Every default-ladder level x batch 1..=8 on both platforms.
fn assert_oracle_matches_fresh_compiles(spec: &NetworkSpec) {
    let platforms = fleet(spec);
    let mut oracle = CostOracle::new(&platforms, spec);
    for (p, platform) in platforms.iter().enumerate() {
        for (level, rung) in platform.ladder.levels.iter().enumerate() {
            assert_eq!(rung.time_scale, 1.0, "default ladder only perforates");
            for b in 1..=MAX_BATCH {
                let got = oracle.cost(p, level, b).unwrap();
                let fresh = OfflineCompiler::new(platform.arch, spec)
                    .try_compile_perforated(b, &rung.rates, true)
                    .unwrap();
                let want = simulate_schedule(platform.arch, &fresh);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} on {} level {level} batch {b}: {got:?} vs {want:?}",
                    spec.name,
                    platform.arch.name
                );
                let shared = oracle
                    .compiler(p)
                    .try_compile_perforated(b, &rung.rates, true)
                    .unwrap();
                assert_eq!(
                    shared, fresh,
                    "{} on {} level {level} batch {b}: winning schedules differ",
                    spec.name, platform.arch.name
                );
            }
        }
    }
}

#[test]
fn fleet_net_oracle_costs_equal_fresh_compiles() {
    assert_oracle_matches_fresh_compiles(&fleet_net());
}

#[test]
fn alexnet_oracle_costs_equal_fresh_compiles() {
    assert_oracle_matches_fresh_compiles(&alexnet());
}

#[test]
fn recompiling_a_key_set_simulates_no_new_waves() {
    let spec = fleet_net();
    let platforms = fleet(&spec);
    for platform in &platforms {
        let compiler = OfflineCompiler::new(platform.arch, &spec);
        let compile_all = || {
            for rung in &platform.ladder.levels {
                for b in 1..=MAX_BATCH {
                    let s = compiler
                        .try_compile_perforated(b, &rung.rates, true)
                        .unwrap();
                    compiler.simulate(&s);
                }
            }
        };
        compile_all();
        let cache = compiler.sim_cache();
        let (misses, hits) = (cache.misses(), cache.hits());
        assert!(misses > 0);
        // Keys share waves: far fewer simulations than lookups even on
        // the first pass over the key set.
        assert!(
            hits > misses,
            "{}: {hits} hits vs {misses} misses",
            platform.arch.name
        );
        compile_all();
        assert_eq!(
            cache.misses(),
            misses,
            "{}: the second pass re-simulated waves",
            platform.arch.name
        );
        assert!(cache.hits() > hits);
    }
}

#[test]
#[should_panic(expected = "one cache is valid for one architecture")]
fn a_compilers_cache_rejects_another_architecture() {
    let spec = fleet_net();
    let compiler = OfflineCompiler::new(&K20C, &spec);
    let k20_schedule = compiler.try_compile_batch(1).unwrap();
    let tx1_schedule = OfflineCompiler::new(&JETSON_TX1, &spec)
        .try_compile_batch(1)
        .unwrap();
    compiler.simulate(&k20_schedule);
    // The K20c-bound cache must refuse TX1 kernels rather than hand back
    // K20c wave timings for them.
    pcnn_gpu::sim::dispatch::simulate_kernel(
        &JETSON_TX1,
        &tx1_schedule.layers[0].kernel,
        tx1_schedule.layers[0].psm_policy(),
        compiler.sim_cache(),
    );
}
