//! Host-performance harness for the fast simulator kernels.
//!
//! Measures what the decoded-block cache, the MMIO read lease with
//! poll-loop fast-forward, and the lane convolution kernel buy on
//! the host, *after* proving they change nothing architectural:
//! every configuration is fingerprint-checked against the slow path
//! before a single timing sample is taken (the full matrix lives in
//! the `determinism_fingerprint` example, which CI runs as a hard
//! gate).
//!
//! Output is a table ready to paste into `docs/BASELINES.md`: warm
//! functional and timing-only LeNet-5 inference with the kernels off
//! (the pre-optimization baseline), with only the ISS-side kernels on,
//! and with everything on, plus lane-kernel-vs-reference convolution
//! microbenchmarks: the engine's INT8 conv on a dense and a depthwise
//! shape, and the golden executor's conv on a ResNet-50 3×3 layer. Wall-clock numbers are host-dependent; the *ratios*
//! are what the acceptance criterion pins (warm functional ≥5×).

use std::time::Instant;

use rvnv_bench::{conv_desc, inference_fingerprint, print_table};
use rvnv_compiler::{compile, CompileOptions};
use rvnv_nn::graph::ConvParams;
use rvnv_nn::tensor::WeightTensor;
use rvnv_nn::zoo::Model;
use rvnv_nn::{Shape, Tensor};
use rvnv_nvdla::config::Precision;
use rvnv_nvdla::engines::conv;
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{Soc, SocConfig};

/// Time `iters` calls of `f`, returning milliseconds per call for the
/// fastest of `reps` passes (minimum filters scheduler noise).
fn best_ms_per(reps: u32, iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1000.0 / f64::from(iters));
    }
    best
}

fn main() {
    let net = Model::LeNet5.build(1);
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let artifacts = compile(&net, &opt).expect("compile");
    let input = Tensor::random(net.input_shape(), 2);
    let bytes = artifacts.quantize_input(&input);
    let fw = Firmware::build(&artifacts).expect("fw");

    let kernels_on = SocConfig::zcu102_nv_small();
    let kernels_off = SocConfig {
        block_cache: false,
        ..kernels_on.clone()
    };

    // Determinism first: identical fingerprints on and off, cold and
    // warm, before any timing is believed.
    let mut soc_on = Soc::new(kernels_on.clone());
    let mut soc_off = Soc::new(kernels_off.clone());
    let cold_on = soc_on.run_firmware(&artifacts, &bytes, &fw).expect("on");
    let cold_off = soc_off.run_firmware(&artifacts, &bytes, &fw).expect("off");
    assert_eq!(
        inference_fingerprint(&cold_on),
        inference_fingerprint(&cold_off),
        "fast kernels changed an architectural observable — do not trust the timings"
    );
    let warm_on = soc_on.run_firmware(&artifacts, &bytes, &fw).expect("on");
    assert_eq!(
        inference_fingerprint(&warm_on),
        inference_fingerprint(&cold_on),
        "warm run diverged from cold"
    );
    println!(
        "fingerprint {:016x} (cycles {}, instructions {}) — kernels on == off, cold == warm",
        inference_fingerprint(&cold_on),
        cold_on.cycles,
        cold_on.instructions
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let run = |soc: &mut Soc, reps, iters| {
        best_ms_per(reps, iters, || {
            soc.run_firmware(&artifacts, &bytes, &fw).expect("run");
        })
    };

    // Warm functional inference: the accuracy flow's hot path.
    let func_off = run(&mut soc_off, 3, 5);
    let func_on = run(&mut soc_on, 5, 20);
    rows.push(vec![
        "warm functional".into(),
        format!("{func_off:.3}"),
        format!("{func_on:.3}"),
        format!("{:.1}x", func_off / func_on),
    ]);

    // Warm timing-only inference: the sweep flow's hot path.
    let mut t_on = Soc::new(SocConfig::zcu102_timing_only());
    let mut t_off = Soc::new(SocConfig {
        block_cache: false,
        ..SocConfig::zcu102_timing_only()
    });
    t_on.load_artifacts(&artifacts).expect("preload");
    t_off.load_artifacts(&artifacts).expect("preload");
    let timing_off = run(&mut t_off, 3, 5);
    let timing_on = run(&mut t_on, 5, 20);
    rows.push(vec![
        "warm timing-only".into(),
        format!("{timing_off:.3}"),
        format!("{timing_on:.3}"),
        format!("{:.1}x", timing_off / timing_on),
    ]);

    // Engine convolution in isolation: LeNet-5's largest layer shape
    // and a MobileNet depthwise layer (one of eight lanes used).
    let engine_cases = [
        (
            "lenet5 conv2",
            conv_desc(6, 12, 16, 5, 1, 0, 1, Precision::Int8),
            200,
        ),
        (
            "mobilenet depthwise",
            conv_desc(512, 14, 512, 3, 1, 1, 512, Precision::Int8),
            20,
        ),
    ];
    for (name, d, iters) in engine_cases {
        let feature = vec![7u8; (d.in_c * d.in_h * d.in_w) as usize];
        let weights = vec![3u8; d.wt_bytes as usize];
        assert_eq!(
            conv::compute(&d, &feature, &weights),
            conv::compute_reference(&d, &feature, &weights),
            "{name}: lane conv diverged from reference"
        );
        let conv_off = best_ms_per(5, iters, || {
            std::hint::black_box(conv::compute_reference(&d, &feature, &weights));
        });
        let conv_on = best_ms_per(5, iters, || {
            std::hint::black_box(conv::compute(&d, &feature, &weights));
        });
        rows.push(vec![
            format!("engine int8 conv, {name} (reference vs lanes)"),
            format!("{conv_off:.3}"),
            format!("{conv_on:.3}"),
            format!("{:.1}x", conv_off / conv_on),
        ]);
    }

    // Golden convolution: a ResNet-50 res3 3×3 layer (128 → 128 on
    // 28×28), the shape class INT8 calibration spends its time on.
    let p = ConvParams {
        weights: WeightTensor::random(128, 128, 3, 3, 1),
        bias: (0..128).map(|i| i as f32 * 1e-3).collect(),
        stride: 1,
        pad: 1,
        groups: 1,
    };
    let x = Tensor::random(Shape::new(128, 28, 28), 2);
    let out = Shape::new(128, 28, 28);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&rvnv_nn::conv::golden(&x, &p, out)),
        bits(&rvnv_nn::conv::golden_reference(&x, &p, out)),
        "golden lane conv diverged from reference"
    );
    let golden_off = best_ms_per(3, 1, || {
        std::hint::black_box(rvnv_nn::conv::golden_reference(&x, &p, out));
    });
    let golden_on = best_ms_per(3, 3, || {
        std::hint::black_box(rvnv_nn::conv::golden(&x, &p, out));
    });
    rows.push(vec![
        "golden conv, resnet50 res3 (reference vs lanes)".into(),
        format!("{golden_off:.3}"),
        format!("{golden_on:.3}"),
        format!("{:.1}x", golden_off / golden_on),
    ]);

    print_table(
        "Simulator kernel speedups — LeNet-5, host ms/run (min of reps)",
        &["path", "cache off", "cache on", "speedup"],
        &rows,
    );
    println!(
        "\nnote: 'cache off' disables the ISS-side kernels (block cache, read lease, \
         fast-forward) but the lane conv kernel is always in; the naive-conv seed baseline \
         is recorded in docs/BASELINES.md."
    );
    println!(
        "\nblock cache: {} hits, {} misses per warm run; {} status polls elided by the MMIO read lease",
        warm_on.block_cache.hits, warm_on.block_cache.misses, warm_on.elided_polls
    );
}
