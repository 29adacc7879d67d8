//! Determinism-fingerprint gate for the fast simulator kernels.
//!
//! The decoded-block cache, the MMIO read lease with poll-loop
//! fast-forward, and the lane convolution kernel are host-side
//! speedups only: they must not change a single modeled cycle, retired
//! instruction, or output byte. This example *proves* that for a set
//! of real firmwares and convolution shapes, and CI runs it as a hard
//! gate — any divergence aborts with a nonzero exit before anyone
//! trusts a benchmark number produced by the fast paths.
//!
//! What is asserted, per firmware variant (functional poll, functional
//! `wfi`, timing-only `wfi`, and an FP16 `nv_full` build):
//!
//! * the inference fingerprint (output bytes + instructions + cycles)
//!   is identical with the decoded-block cache on and off, on both a
//!   cold SoC and across warm repeat runs;
//! * pipeline stats, NVDLA stats (including CSB read counts, which the
//!   read lease credits back), firmware-measured cycles and arbiter
//!   waits agree exactly;
//! * a fully warm run decodes nothing: zero block-cache misses.
//!
//! Separately, the lane convolution kernel is checked bit-for-bit
//! against the naive tap-at-a-time reference over shapes covering
//! padding, stride, grouping, depthwise and fully-clipped windows, in
//! both INT8 and FP16 (where the summation order is the contract).
//!
//! The zoo's compiled artifacts are pinned too: the nine
//! configurations of the `zoo_compile` benchmark (Table II INT8
//! unfused with one calibration input, Table III FP16) are compiled
//! and their `.cfg` command, weight-image and firmware fingerprints
//! checked against the values recorded when that benchmark was made.
//! INT8 calibration runs the golden executor, so this also pins the
//! golden convolution's summation order on real models.
//!
//! Finally, the observability layer's honesty contract is gated the
//! same way: firmware runs and serve simulations with an armed
//! `rvnv_obs::Tracer` must be bit- and cycle-identical to untraced
//! ones, while recording a structurally valid, nonempty trace.

use rvnv_bench::{conv_desc, inference_fingerprint};
use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{compile, Artifacts, CompileOptions};
use rvnv_nn::hash::Fnv;
use rvnv_nn::zoo::Model;
use rvnv_nn::Tensor;
use rvnv_nvdla::config::Precision;
use rvnv_nvdla::engines::conv;
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{InferenceResult, Soc, SocConfig};

struct Variant {
    name: &'static str,
    config: SocConfig,
    artifacts: Artifacts,
    codegen: CodegenOptions,
}

fn variants() -> Vec<Variant> {
    let net = Model::LeNet5.build(1);
    let mut int8 = CompileOptions::int8();
    int8.calib_inputs = 1;
    let int8_artifacts = compile(&net, &int8).expect("int8 compile");
    let fp16_artifacts = compile(&net, &CompileOptions::fp16()).expect("fp16 compile");
    let wfi = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    vec![
        Variant {
            name: "functional/poll/int8",
            config: SocConfig::zcu102_nv_small(),
            artifacts: int8_artifacts.clone(),
            codegen: CodegenOptions::default(),
        },
        Variant {
            name: "functional/wfi/int8",
            config: SocConfig::zcu102_nv_small(),
            artifacts: int8_artifacts.clone(),
            codegen: wfi,
        },
        Variant {
            name: "timing-only/wfi/int8",
            config: SocConfig::zcu102_timing_only(),
            artifacts: int8_artifacts,
            codegen: wfi,
        },
        Variant {
            name: "functional/poll/fp16",
            config: SocConfig {
                hw: rvnv_nvdla::HwConfig::nv_full(),
                ..SocConfig::zcu102_nv_small()
            },
            artifacts: fp16_artifacts,
            codegen: CodegenOptions::default(),
        },
    ]
}

/// Every architectural observable two equivalent runs must share.
fn assert_identical(name: &str, fast: &InferenceResult, slow: &InferenceResult) {
    assert_eq!(
        inference_fingerprint(fast),
        inference_fingerprint(slow),
        "{name}: fingerprint diverged"
    );
    assert_eq!(fast.cycles, slow.cycles, "{name}: modeled cycles");
    assert_eq!(
        fast.firmware_cycles, slow.firmware_cycles,
        "{name}: firmware mcycle delta"
    );
    assert_eq!(
        fast.instructions, slow.instructions,
        "{name}: retired instructions"
    );
    assert_eq!(fast.raw_output, slow.raw_output, "{name}: output bytes");
    assert_eq!(fast.pipeline, slow.pipeline, "{name}: pipeline stats");
    assert_eq!(fast.nvdla, slow.nvdla, "{name}: NVDLA stats");
    assert_eq!(
        fast.cpu_arbiter_wait, slow.cpu_arbiter_wait,
        "{name}: arbiter waits"
    );
}

fn check_soc_kernels() {
    for v in variants() {
        let input = Tensor::random(Model::LeNet5.build(1).input_shape(), 2);
        let bytes = v.artifacts.quantize_input(&input);
        let fw = Firmware::build_with(&v.artifacts, v.codegen).expect("fw");

        let mut off_config = v.config.clone();
        off_config.block_cache = false;

        // Cold runs on fresh SoCs, kernels on vs off.
        let mut soc_on = Soc::new(v.config.clone());
        let mut soc_off = Soc::new(off_config);
        let cold_on = soc_on.run_firmware(&v.artifacts, &bytes, &fw).expect("on");
        let cold_off = soc_off
            .run_firmware(&v.artifacts, &bytes, &fw)
            .expect("off");
        assert_identical(&format!("{} cold", v.name), &cold_on, &cold_off);
        assert_eq!(
            cold_off.block_cache.hits + cold_off.block_cache.misses,
            0,
            "{}: cache-off runs must not touch the cache",
            v.name
        );

        // Warm repeats: bit-identical to cold, and fully warm runs
        // replay everything — no block is decoded twice.
        for i in 0..3 {
            let warm_on = soc_on.run_firmware(&v.artifacts, &bytes, &fw).expect("on");
            let warm_off = soc_off
                .run_firmware(&v.artifacts, &bytes, &fw)
                .expect("off");
            assert_identical(&format!("{} warm#{i}", v.name), &warm_on, &cold_on);
            assert_identical(&format!("{} warm#{i} off", v.name), &warm_off, &cold_on);
            assert_eq!(
                warm_on.block_cache.misses, 0,
                "{}: warm run #{i} decoded a block it should have cached",
                v.name
            );
        }

        println!(
            "{:<24} fingerprint {:016x}  cycles {:>9}  instructions {:>9}  ok",
            v.name,
            inference_fingerprint(&cold_on),
            cold_on.cycles,
            cold_on.instructions,
        );
    }
}

/// `(key, cfg, weights, firmware)` artifact fingerprints of the
/// `zoo_compile` benchmark's nine configurations, as recorded there.
const ZOO_RECORDED: [(&str, u64, u64, u64); 9] = [
    (
        "II/LeNet-5",
        0x1cef_77c9_e8fc_c8e7,
        0x30e3_53ab_f84a_8d17,
        0x549e_cfb3_0e39_d01e,
    ),
    (
        "II/ResNet-18",
        0x456b_4e32_879a_8d2f,
        0xc3aa_c5e5_c774_19f5,
        0xa2fe_d944_77d1_d7dc,
    ),
    (
        "II/ResNet-50",
        0x69d0_2564_ada5_8617,
        0xd8ff_9afa_ed2d_73b3,
        0x54c4_e4dd_8899_5f8c,
    ),
    (
        "III/LeNet-5",
        0x1aa0_78d0_e865_fa45,
        0x301e_1ed7_0940_66cf,
        0x224b_bf35_c84a_33a2,
    ),
    (
        "III/ResNet-18",
        0x39ec_9a41_0500_ac49,
        0xfcfa_8f8c_ea87_d702,
        0xa120_da37_ed9a_780b,
    ),
    (
        "III/ResNet-50",
        0x216e_f8a9_341e_a59d,
        0xbc40_a11a_1541_8feb,
        0xa571_e38a_fdaa_52af,
    ),
    (
        "III/MobileNet",
        0xe113_64f0_828b_e73a,
        0xb48c_7ad2_ab8d_84be,
        0x561f_b7ae_901a_18a3,
    ),
    (
        "III/GoogleNet",
        0xf86e_3c91_068e_44cf,
        0xb81d_ace7_a894_97c7,
        0x113f_a277_edc1_699f,
    ),
    (
        "III/AlexNet",
        0x2c57_e1ab_8175_92f1,
        0xfe01_b891_88c5_3a1e,
        0x7ac6_1cd8_1bd1_4213,
    ),
];

/// Compile the Table II (INT8, unfused, one calibration input) and
/// Table III (FP16) zoo and check every artifact fingerprint.
fn check_zoo_artifacts() {
    let mut int8 = CompileOptions::int8().unfused();
    int8.calib_inputs = 1;
    let fp16 = CompileOptions::fp16();
    let configs = Model::NV_SMALL
        .iter()
        .map(|&m| ("II", m, &int8))
        .chain(Model::ALL.iter().map(|&m| ("III", m, &fp16)));
    for ((table, model, opt), &(key, cfg, weights, firmware)) in configs.zip(&ZOO_RECORDED) {
        assert_eq!(format!("{table}/{}", model.name()), key, "config order");
        let artifacts = compile(&model.build(1), opt).expect("zoo compile");
        let fw = Firmware::build(&artifacts).expect("zoo firmware");
        let mut h = Fnv::new();
        for c in &artifacts.commands {
            h.str(&c.to_string());
        }
        let got_cfg = h.finish();
        let mut h = Fnv::new();
        h.bytes(&fw.image.bytes());
        let got = (got_cfg, artifacts.weights.fingerprint(), h.finish());
        assert_eq!(
            got,
            (cfg, weights, firmware),
            "{key}: artifact fingerprints (cfg, weights, firmware) moved"
        );
        println!("{key:<14} {cfg:016x} {weights:016x} {firmware:016x}  ok");
    }
}

/// The observability honesty contract as a hard gate: arming a
/// [`Tracer`] must not move a single modeled cycle, retired
/// instruction, or output byte — at the SoC level (firmware runs with
/// span emission) and at the serving level (the serve and fleet
/// queueing simulations, chaos and autoscaling included) —
/// while still actually recording spans that pass structural
/// validation.
fn check_tracing_invisible() {
    use rvnv_obs::{Tracer, TrackKind};

    // SoC level: a traced cold+warm pair against an untraced one.
    let net = Model::LeNet5.build(1);
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let artifacts = compile(&net, &opt).expect("compile");
    let input = Tensor::random(net.input_shape(), 2);
    let bytes = artifacts.quantize_input(&input);
    let fw = Firmware::build_with(&artifacts, CodegenOptions::default()).expect("fw");
    let tracer = Tracer::armed();
    let mut traced = Soc::new(SocConfig::zcu102_nv_small());
    let track = tracer.track("soc", TrackKind::Sync);
    traced.set_tracer(tracer.clone(), track);
    let mut plain = Soc::new(SocConfig::zcu102_nv_small());
    for run in 0..2 {
        let t = traced
            .run_firmware(&artifacts, &bytes, &fw)
            .expect("traced");
        let p = plain.run_firmware(&artifacts, &bytes, &fw).expect("plain");
        assert_identical(&format!("traced soc run#{run}"), &t, &p);
    }
    let trace = tracer.snapshot();
    assert!(
        !trace.spans.is_empty(),
        "the armed tracer must actually record spans"
    );
    trace.validate().expect("soc trace must be well-formed");

    // Serving level: armed vs disarmed simulation on synthetic
    // profiles — both serve worker modes plus a serial chaos spec
    // (every fault kind, timeout, retries), and a multi-pool
    // autoscaled fleet.
    use rvnv_soc::batch::Policy;
    use rvnv_soc::fleet::{self, FleetSpec, PoolProfile, PoolSpec, TrafficShape};
    use rvnv_soc::serve::{
        simulate, ArrivalProcess, FaultSpec, RequestTrace, ServeSpec, ServiceModel,
    };
    let hz = 100_000_000u64;
    let service = ServiceModel {
        preload: vec![2_000, 4_000],
        fill: vec![2_000, 4_000],
        compute: vec![60_000, 110_000],
        compute_with: vec![vec![61_000, 62_000], vec![111_000, 112_000]],
        preload_done: vec![vec![2_000, 8_000], vec![6_000, 4_000]],
        rewarm: 20_000,
    };
    let names = vec!["a".to_string(), "b".to_string()];
    let base = ServeSpec {
        process: ArrivalProcess::Poisson,
        rate_rps: 800,
        duration_ms: 40,
        seed: 42,
        workers: 2,
        policy: Policy::RoundRobin,
        pipelined: false,
        queue_depth: 8,
        slo_us: 5_000,
        timeout_us: 0,
        retries: 0,
        faults: None,
    };
    let chaos = ServeSpec {
        timeout_us: 1_500,
        retries: 2,
        faults: Some(FaultSpec {
            seed: 7,
            flip_per_million: 60_000,
            error_per_million: 60_000,
            spike_per_million: 60_000,
            spike_us: 800,
            hang_per_million: 40_000,
            crash_per_million: 40_000,
        }),
        ..base
    };
    let pipelined = ServeSpec {
        pipelined: true,
        ..base
    };
    for (label, spec) in [("serial", base), ("pipelined", pipelined), ("chaos", chaos)] {
        spec.validate().expect("gate spec is consistent");
        let reqs = RequestTrace::generate(
            spec.process,
            spec.rate_rps,
            spec.duration_cycles(hz),
            2,
            spec.seed,
            hz,
        );
        let serve_tracer = Tracer::armed();
        let on = simulate(&reqs, &service, &spec, &names, hz, &serve_tracer);
        let off = simulate(&reqs, &service, &spec, &names, hz, &Tracer::disarmed());
        assert_eq!(
            on, off,
            "{label}: traced serve report diverged from untraced"
        );
        if label == "chaos" {
            assert!(
                on.faults.injected() > 0,
                "the chaos spec must inject faults"
            );
        }
        let spans = serve_tracer.snapshot();
        assert!(
            !spans.spans.is_empty(),
            "{label}: the armed tracer must record spans"
        );
        spans.validate().expect("serve trace must be well-formed");
    }

    let pool = |service: ServiceModel, models| PoolProfile { service, models };
    let profiles = vec![
        pool(service.clone(), vec![0, 1]),
        pool(
            ServiceModel {
                preload: vec![4_000],
                fill: vec![4_000],
                compute: vec![30_000],
                compute_with: vec![vec![30_000]],
                preload_done: vec![vec![0]],
                rewarm: 15_000,
            },
            vec![1],
        ),
    ];
    let spec = FleetSpec {
        pools: vec![
            PoolSpec {
                workers: 1,
                min_workers: 1,
                max_workers: 4,
                queue_depth: 4,
                ..PoolSpec::default()
            },
            PoolSpec {
                workers: 1,
                min_workers: 1,
                max_workers: 3,
                queue_depth: 4,
                models: Some(vec![1]),
                ..PoolSpec::default()
            },
        ],
        shape: TrafficShape::FlashCrowd,
        rate_rps: 1_500,
        duration_ms: 80,
        seed: 42,
        slo_us: 1_500,
        scale_window_ms: 5,
        ..FleetSpec::default()
    };
    spec.validate(2).expect("gate fleet spec is consistent");
    let reqs = fleet::shaped_trace(
        spec.shape,
        spec.rate_rps,
        spec.duration_cycles(hz),
        2,
        spec.seed,
        hz,
    );
    let fleet_tracer = Tracer::armed();
    let on = fleet::simulate(&reqs, &profiles, &spec, &names, hz, &fleet_tracer);
    let off = fleet::simulate(&reqs, &profiles, &spec, &names, hz, &Tracer::disarmed());
    assert_eq!(on, off, "traced fleet report diverged from untraced");
    assert!(
        on.per_pool.iter().any(|p| p.scale_ups > 0),
        "the flash crowd must move the autoscaler"
    );
    let spans = fleet_tracer.snapshot();
    assert!(
        !spans.spans.is_empty(),
        "fleet: the armed tracer must record spans"
    );
    spans.validate().expect("fleet trace must be well-formed");
    println!(
        "tracing armed == disarmed: bit- and cycle-identical at SoC, serve (serial, pipelined, chaos) and fleet level  ok"
    );
}

/// Pseudo-random byte pattern (xorshift; no external deps).
fn pattern(len: usize, mut seed: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        seed ^= seed << 13;
        seed ^= seed >> 17;
        seed ^= seed << 5;
        out.push((seed >> 16) as u8);
    }
    out
}

/// Replace f16 NaN encodings with max-normal values: NaN *inputs* are
/// the one case IEEE 754 leaves underdetermined (payload propagation),
/// and encoded model data never contains them.
fn strip_f16_nans(bytes: &mut [u8]) {
    for p in bytes.chunks_exact_mut(2) {
        let v = u16::from_le_bytes([p[0], p[1]]);
        if v & 0x7C00 == 0x7C00 && v & 0x03FF != 0 {
            let clean = (v & 0x8000) | 0x7BFF;
            p.copy_from_slice(&clean.to_le_bytes());
        }
    }
}

fn check_conv_kernel() {
    let shapes = [
        conv_desc(1, 3, 1, 2, 1, 0, 1, Precision::Int8),
        conv_desc(3, 8, 4, 3, 1, 1, 1, Precision::Int8),
        conv_desc(4, 7, 6, 5, 2, 2, 2, Precision::Int8),
        conv_desc(1, 1, 1, 3, 1, 1, 1, Precision::Int8), // pad > data
        conv_desc(2, 5, 2, 5, 1, 4, 1, Precision::Int8), // windows clip all edges
        conv_desc(8, 4, 8, 1, 1, 0, 8, Precision::Int8), // depthwise
        conv_desc(16, 5, 10, 5, 1, 0, 1, Precision::Int8), // fc-style whole-plane
        conv_desc(3, 8, 4, 3, 1, 1, 1, Precision::Fp16),
        conv_desc(4, 6, 6, 5, 2, 2, 2, Precision::Fp16),
        conv_desc(2, 5, 2, 5, 1, 4, 1, Precision::Fp16),
        conv_desc(16, 5, 10, 5, 1, 0, 1, Precision::Fp16),
    ];
    let mut outputs = 0usize;
    for (i, d) in shapes.into_iter().enumerate() {
        let elem = d.precision.bytes() as usize;
        let mut feature = pattern(
            (d.in_c * d.in_h * d.in_w) as usize * elem,
            0xA11CE + i as u32,
        );
        let mut weights = pattern(d.wt_bytes as usize, 0xFACE + i as u32);
        if d.precision == Precision::Fp16 {
            strip_f16_nans(&mut feature);
            strip_f16_nans(&mut weights);
        }
        let fast = conv::compute(&d, &feature, &weights);
        let slow = conv::compute_reference(&d, &feature, &weights);
        assert_eq!(fast.len(), slow.len(), "conv shape {i}: length");
        for (j, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "conv shape {i} output {j}: lanes {a} vs reference {b}"
            );
        }
        outputs += fast.len();
    }
    println!("conv lanes == reference bit-for-bit across {outputs} outputs  ok");
}

fn main() {
    check_soc_kernels();
    check_conv_kernel();
    check_zoo_artifacts();
    check_tracing_invisible();
    println!("determinism fingerprint: all fast-kernel paths are architecturally invisible");
}
