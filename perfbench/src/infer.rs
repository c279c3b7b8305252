//! Full-size AlexNet f32 CPU inference at batch 1, closed loop.
//!
//! The conv tower follows the original network with conv2 taken
//! ungrouped (the shapes `BENCH_conv.json` sweeps), then FC6-FC8. Weights
//! are He-initialised from the workload seed through the public
//! `pcnn_nn` layer constructors.

use pcnn_nn::layer::{Conv2d, Layer, Linear, MaxPool2d};
use pcnn_nn::network::Network;
use pcnn_nn::perforation::{LayerPerforation, PerforationPlan};
use pcnn_serve::DegradationLadder;
use pcnn_tensor::{Conv2dGeometry, ConvAlgo, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::span;
use crate::stats::{median, percentile};
use crate::Metrics;

/// Builds AlexNet with weights drawn from `seed`.
pub fn alexnet(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv = |c, hw, k, s, p, oc| {
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(c, hw, hw, k, s, p),
            oc,
            &mut rng,
        ))
    };
    let mut layers = vec![
        conv(3, 227, 11, 4, 0, 96),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(3, 2)),
        conv(96, 27, 5, 1, 2, 256),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(3, 2)),
        conv(256, 13, 3, 1, 1, 384),
        Layer::Relu,
        conv(384, 13, 3, 1, 1, 384),
        Layer::Relu,
        conv(384, 13, 3, 1, 1, 256),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(3, 2)),
        Layer::Flatten,
    ];
    for (i, (fan_in, fan_out)) in [(256 * 6 * 6, 4096), (4096, 4096), (4096, 1000)]
        .into_iter()
        .enumerate()
    {
        layers.push(Layer::Linear(Linear::new(fan_in, fan_out, &mut rng)));
        if i < 2 {
            layers.push(Layer::Relu);
        }
    }
    Network::new("AlexNet", [3, 227, 227], layers)
}

/// One seeded 227x227 RGB image in `[-1, 1)`.
pub fn image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A4E_C0DE);
    Tensor::from_fn(vec![1, 3, 227, 227], |_| rng.gen_range(-1.0f32..1.0))
}

/// The two ladder levels the closed loop runs: level 0 (unperforated)
/// and the deepest default-ladder level.
pub fn plans(net: &Network) -> [PerforationPlan; 2] {
    let ladder = DegradationLadder::default_ladder(net.conv_count());
    let deepest = ladder.levels.last().expect("ladder is never empty");
    [
        PerforationPlan::identity(net.conv_count()),
        PerforationPlan::from_rates(deepest.rates.clone()),
    ]
}

/// A built network, its input and its reference logits per level.
pub struct Model {
    pub net: Network,
    pub input: Tensor,
    pub plans: [PerforationPlan; 2],
    /// Logits computed at pool width 1 — the program guarantees bitwise
    /// equality across pool widths.
    pub reference: [Vec<f32>; 2],
}

pub fn model(net: Network, seed: u64) -> Model {
    let input = image(seed);
    let plans = plans(&net);
    let reference = plans.clone().map(|plan| {
        span("pcnn_parallel::with_threads", || {
            pcnn_parallel::with_threads(1, || net.forward(&input, &plan))
        })
        .expect("reference forward")
        .into_vec()
    });
    Model {
        net,
        input,
        plans,
        reference,
    }
}

/// The measured closed loop: forward calls alternate level 0 and the
/// deepest level, so both sample the same stretch of machine time.
#[derive(Default)]
pub struct Inferred {
    /// Host milliseconds per call at level 0 and at the deepest level.
    pub ms: [Vec<f64>; 2],
    pub failed: usize,
}

impl Inferred {
    /// Level-0/deepest pairs run so far.
    pub fn pairs(&self) -> usize {
        self.ms[0].len()
    }

    /// Calls `Network::forward` once per level. A call fails when its
    /// logits are not finite or not bitwise equal to the width-1
    /// reference.
    pub fn pair_once(&mut self, m: &Model) {
        for (level, (plan, reference)) in m.plans.iter().zip(&m.reference).enumerate() {
            let t0 = std::time::Instant::now();
            let out = span("Network::forward", || m.net.forward(&m.input, plan));
            self.ms[level].push(t0.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok(logits) if logits.data().iter().any(|x| !x.is_finite()) => {
                    eprintln!("infer: level {level} logits are not finite");
                    self.failed += 1;
                }
                Ok(logits) if logits.data() != reference.as_slice() => {
                    eprintln!("infer: level {level} logits differ from the width-1 reference");
                    self.failed += 1;
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("infer: forward failed: {e}");
                    self.failed += 1;
                }
            }
        }
    }
}

pub fn e2e(r: &Inferred, m: &mut Metrics) {
    m.push("infer_ms_p50", median(&r.ms[0]), "ms");
    m.push("infer_ms_p90", percentile(&r.ms[0], 0.9), "ms");
    m.push("infer_degraded_ms_p50", median(&r.ms[1]), "ms");
}

/// `nn` layer: one forward walked layer by layer through
/// `Layer::forward_algo`, split into conv, fully-connected and the rest
/// (ReLU, pooling, flatten), at level 0 and with the deepest level's
/// perforation on the conv layers. Medians over `reps` walks.
pub fn nn_layer(model: &Model, reps: usize, m: &mut Metrics) {
    let net = &model.net;
    let mut perfs: Vec<Option<LayerPerforation>> = Vec::new();
    let mut ci = 0;
    for layer in net.layers() {
        perfs.push(match layer {
            Layer::Conv2d(c) => {
                let g = c.geometry();
                let rate = model.plans[1].rate(ci);
                ci += 1;
                Some(LayerPerforation::new(g.out_h, g.out_w, rate, 1))
            }
            _ => None,
        });
    }
    let walk = |perforated: bool| -> [f64; 3] {
        let mut ms = [0.0; 3];
        let mut x = model.input.clone();
        for (layer, perf) in net.layers().iter().zip(&perfs) {
            let perf = if perforated { perf.as_ref() } else { None };
            let t0 = std::time::Instant::now();
            let (out, _) = span("Layer::forward_algo", || {
                layer.forward_algo(&x, perf, ConvAlgo::Im2col)
            })
            .expect("layer forward");
            let slot = match layer {
                Layer::Conv2d(_) => 0,
                Layer::Linear(_) => 1,
                _ => 2,
            };
            ms[slot] += t0.elapsed().as_secs_f64() * 1e3;
            x = out;
        }
        std::hint::black_box(x);
        ms
    };
    let full: Vec<[f64; 3]> = (0..reps).map(|_| walk(false)).collect();
    let degraded: Vec<f64> = (0..reps).map(|_| walk(true)[0]).collect();
    let col = |i: usize| full.iter().map(|r| r[i]).collect::<Vec<_>>();
    m.push("nn.conv_ms", median(&col(0)), "ms");
    m.push("nn.fc_ms", median(&col(1)), "ms");
    m.push("nn.other_ms", median(&col(2)), "ms");
    m.push("nn.conv_ms_degraded", median(&degraded), "ms");
}

/// `tensor` layer: `im2col` and `gemm` on every AlexNet conv layer's
/// lowering (M = output channels, N = output positions, K = patch
/// length). Buffers are allocated and touched once before timing, as the
/// layers' pooled scratch buffers are. Bytes are computed from tensor
/// sizes (input read plus columns written), not measured. Medians over
/// `reps` sweeps.
pub fn tensor_layer(model: &Model, reps: usize, m: &mut Metrics) {
    let mut convs: Vec<_> = model
        .net
        .layers()
        .iter()
        .filter_map(|l| match l {
            Layer::Conv2d(c) => Some(c),
            _ => None,
        })
        .map(|c| {
            let g = c.geometry();
            let input: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
                .map(|i| ((i % 997) as f32 - 498.0) / 512.0)
                .collect();
            let cols = vec![1.0f32; g.patch_len() * g.out_positions()];
            let out = vec![1.0f32; c.out_channels() * g.out_positions()];
            (c, input, cols, out)
        })
        .collect();
    let mut gflops = Vec::new();
    let mut gbs = Vec::new();
    for _ in 0..reps {
        let (mut flops, mut gemm_s, mut bytes, mut im2col_s) = (0.0, 0.0, 0.0, 0.0);
        for (c, input, cols, out) in &mut convs {
            let g = c.geometry();
            let (m_, n, k) = (c.out_channels(), g.out_positions(), g.patch_len());
            let t0 = std::time::Instant::now();
            span("pcnn_tensor::im2col", || {
                pcnn_tensor::im2col(g, input, cols)
            });
            im2col_s += t0.elapsed().as_secs_f64();
            bytes += 4.0 * (input.len() + cols.len()) as f64;
            let (weight, _) = c.params();
            out.fill(0.0);
            let t0 = std::time::Instant::now();
            span("pcnn_tensor::gemm", || {
                pcnn_tensor::gemm(m_, n, k, weight.data(), cols, out)
            });
            gemm_s += t0.elapsed().as_secs_f64();
            flops += 2.0 * (m_ * n * k) as f64;
            std::hint::black_box(&out);
        }
        gflops.push(flops / gemm_s / 1e9);
        gbs.push(bytes / im2col_s / 1e9);
    }
    m.push("tensor.gemm_gflops", median(&gflops), "GFLOP/s");
    m.push("tensor.im2col_gbs", median(&gbs), "GB/s");
}

/// `parallel` layer: the forward pass at pool width 1 over width
/// `nproc`, medians of `reps` calls each.
pub fn parallel_infer(model: &Model, reps: usize, m: &mut Metrics) {
    let threads = pcnn_parallel::current_threads();
    let time_at = |width: usize| {
        let ms: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let out = span("pcnn_parallel::with_threads", || {
                    pcnn_parallel::with_threads(width, || {
                        model.net.forward(&model.input, &model.plans[0])
                    })
                });
                std::hint::black_box(out.expect("forward"));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&ms)
    };
    let one = time_at(1);
    let wide = time_at(threads);
    m.push("parallel.infer_speedup", one / wide, "x");
}
