//! Simulator-kernel benches: decoded-block cache + MMIO read lease on
//! the ISS side, the lane convolution kernel vs its naive oracle on the
//! engine side (INT8 dense and depthwise) and in the golden executor
//! (a ResNet-50 3×3 layer).
//!
//! Every group asserts bit-identical architectural results (the
//! determinism fingerprint: output bytes + instructions + cycles)
//! between the fast and slow paths *before* timing starts, so CI's
//! `--test` mode doubles as a correctness gate. The full on/off × cold/
//! warm × poll/wfi matrix lives in the `determinism_fingerprint`
//! example.

use criterion::{criterion_group, criterion_main, Criterion};
use rvnv_bench::{conv_desc, inference_fingerprint};
use rvnv_compiler::{compile, CompileOptions};
use rvnv_nn::graph::ConvParams;
use rvnv_nn::tensor::WeightTensor;
use rvnv_nn::zoo::Model;
use rvnv_nn::{Shape, Tensor};
use rvnv_nvdla::config::Precision;
use rvnv_nvdla::engines::conv;
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{Soc, SocConfig};

fn bench_iss_kernels(c: &mut Criterion) {
    let net = Model::LeNet5.build(1);
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let artifacts = compile(&net, &opt).expect("compile");
    let input = Tensor::random(net.input_shape(), 7);
    let input_bytes = artifacts.quantize_input(&input);
    let fw = Firmware::build(&artifacts).expect("fw");

    for (name, functional) in [("functional", true), ("timing_only", false)] {
        let base = if functional {
            SocConfig::zcu102_nv_small()
        } else {
            SocConfig::zcu102_timing_only()
        };
        let mut soc_on = Soc::new(base.clone());
        let mut soc_off = Soc::new(SocConfig {
            block_cache: false,
            ..base
        });
        soc_on.load_artifacts(&artifacts).expect("preload");
        soc_off.load_artifacts(&artifacts).expect("preload");

        // Determinism gate before any timing.
        let on = soc_on
            .run_firmware(&artifacts, &input_bytes, &fw)
            .expect("on");
        let off = soc_off
            .run_firmware(&artifacts, &input_bytes, &fw)
            .expect("off");
        assert_eq!(
            inference_fingerprint(&on),
            inference_fingerprint(&off),
            "{name}: block cache + read lease changed an architectural observable"
        );

        let mut g = c.benchmark_group(&format!("sim_kernels_{name}"));
        g.sample_size(10);
        g.bench_function("warm_cache_on", |b| {
            b.iter(|| {
                soc_on
                    .run_firmware(&artifacts, &input_bytes, &fw)
                    .expect("run")
                    .cycles
            })
        });
        g.bench_function("warm_cache_off", |b| {
            b.iter(|| {
                soc_off
                    .run_firmware(&artifacts, &input_bytes, &fw)
                    .expect("run")
                    .cycles
            })
        });
        g.finish();
    }
}

fn bench_conv_kernel(c: &mut Criterion) {
    let cases = [
        // LeNet-5 conv2: the model's heaviest convolution.
        (
            "lenet5_conv2",
            conv_desc(6, 12, 16, 5, 1, 0, 1, Precision::Int8),
        ),
        // A MobileNet depthwise 3×3: one of the kernel's eight lanes used.
        (
            "mobilenet_dw",
            conv_desc(512, 14, 512, 3, 1, 1, 512, Precision::Int8),
        ),
    ];
    let mut g = c.benchmark_group("sim_kernels_conv");
    for (name, d) in cases {
        let feature: Vec<u8> = (0..d.in_c * d.in_h * d.in_w)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        let weights: Vec<u8> = (0..d.wt_bytes)
            .map(|i| (i.wrapping_mul(17) >> 2) as u8)
            .collect();

        // Bit-exactness gate before any timing.
        let fast = conv::compute(&d, &feature, &weights);
        let slow = conv::compute_reference(&d, &feature, &weights);
        assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{name}: lane conv diverged from the reference"
        );
        g.bench_function(&format!("{name}_lanes"), |b| {
            b.iter(|| conv::compute(&d, &feature, &weights))
        });
        g.bench_function(&format!("{name}_reference"), |b| {
            b.iter(|| conv::compute_reference(&d, &feature, &weights))
        });
    }
    g.finish();
}

fn bench_golden_conv(c: &mut Criterion) {
    // ResNet-50 res3 3×3: 128 → 128 channels on 28×28, pad 1.
    let p = ConvParams {
        weights: WeightTensor::random(128, 128, 3, 3, 1),
        bias: (0..128).map(|i| i as f32 * 1e-3).collect(),
        stride: 1,
        pad: 1,
        groups: 1,
    };
    let x = Tensor::random(Shape::new(128, 28, 28), 2);
    let out = Shape::new(128, 28, 28);

    // Bit-exactness gate before any timing.
    let fast = rvnv_nn::conv::golden(&x, &p, out);
    let slow = rvnv_nn::conv::golden_reference(&x, &p, out);
    assert_eq!(
        fast.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        slow.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "golden lane conv diverged from the reference"
    );

    let mut g = c.benchmark_group("sim_kernels_golden_conv");
    g.sample_size(10);
    g.bench_function("resnet50_res3_lanes", |b| {
        b.iter(|| rvnv_nn::conv::golden(&x, &p, out))
    });
    g.bench_function("resnet50_res3_reference", |b| {
        b.iter(|| rvnv_nn::conv::golden_reference(&x, &p, out))
    });
    g.finish();
}

criterion_group!(
    sim_kernels,
    bench_iss_kernels,
    bench_conv_kernel,
    bench_golden_conv
);
criterion_main!(sim_kernels);
