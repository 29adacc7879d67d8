//! `warm_infer`: compile once, then run a seeded stream of distinct
//! inputs on resident SoCs. Each round sends one functional frame per
//! model through the paper's poll firmware, then the same frames
//! timing-only.

use rvnv_compiler::{compile, Artifacts, CompileOptions};
use rvnv_nn::exec::Executor;
use rvnv_nn::zoo::Model;
use rvnv_nn::{Network, Op, Tensor};
use rvnv_obs::{Json, TrackKind};
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{InferenceResult, Soc, SocConfig};
use rvnv_util::Fnv;

use crate::{Cx, Pass, Workload};

/// The frame mix: nv_small INT8 LeNet-5 and ResNet-18 (golden check
/// affordable), nv_full FP16 models covering dense, depthwise,
/// 11x11/stride-4 and FC-heavy convolutions.
const MODELS: [(Model, bool); 6] = [
    (Model::LeNet5, true),
    (Model::ResNet18, true),
    (Model::ResNet50, false),
    (Model::MobileNet, false),
    (Model::GoogLeNet, false),
    (Model::AlexNet, false),
];

struct Resident {
    key: &'static str,
    int8: bool,
    net: Network,
    artifacts: Artifacts,
    firmware: Firmware,
    functional: Soc,
    timing: Soc,
    func_config: SocConfig,
    /// Cycles and instructions of the set-up's cold timing-only run.
    cold: (u64, u64),
}

pub struct State {
    models: Vec<Resident>,
}

pub struct Warm;

fn configs(int8: bool, traced: bool) -> (SocConfig, SocConfig) {
    let (func, timing) = if int8 {
        (
            SocConfig::zcu102_nv_small(),
            SocConfig::zcu102_timing_only(),
        )
    } else {
        (
            SocConfig::zcu102_nv_full(),
            SocConfig::zcu102_nv_full_timing_only(),
        )
    };
    (
        SocConfig {
            capture_timeline: traced,
            ..func
        },
        SocConfig {
            capture_timeline: traced,
            ..timing
        },
    )
}

fn output_digest(r: &InferenceResult) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&r.raw_output);
    h.mix(r.cycles);
    h.mix(r.instructions);
    h.finish()
}

fn setup_one(cx: &mut Cx, model: Model, int8: bool) -> Result<Resident, String> {
    let key = model.name();
    let opt = if int8 {
        let mut o = CompileOptions::int8();
        o.calib_inputs = 1;
        o
    } else {
        CompileOptions::fp16()
    };
    let (net, _) = cx.host.time("nn.build", key, || model.build(1));
    cx.attribute_calibration(key, &net, &opt);
    let (artifacts, _) = cx
        .host
        .time("compiler.compile", key, || compile(&net, &opt));
    let artifacts = artifacts.map_err(|e| format!("compile: {e}"))?;
    let (firmware, _) = cx
        .host
        .time("soc.firmware", key, || Firmware::build(&artifacts));
    let firmware = firmware.map_err(|e| format!("firmware: {e}"))?;
    cx.count("compiler.commands", artifacts.commands.len() as f64);
    cx.count(
        "compiler.weight_bytes",
        artifacts.weights.total_bytes() as f64,
    );
    cx.count("riscv.firmware_bytes", firmware.size_bytes() as f64);

    let (func_config, timing_config) = configs(int8, cx.traced);
    let (socs, _) = cx.host.time("soc.load", key, || {
        let mut f = Soc::new(func_config.clone());
        let mut t = Soc::new(timing_config);
        let loaded = f
            .load_artifacts(&artifacts)
            .and(t.load_artifacts(&artifacts));
        loaded.map(|()| (f, t))
    });
    let (mut functional, mut timing) = socs.map_err(|e| format!("load: {e}"))?;
    if cx.tracer.is_armed() {
        let t = cx
            .tracer
            .track(&format!("functional {key}"), TrackKind::Sync);
        functional.set_tracer(cx.tracer.clone(), t);
        let t = cx.tracer.track(&format!("timing {key}"), TrackKind::Sync);
        timing.set_tracer(cx.tracer.clone(), t);
    }
    let input = Tensor::random(net.input_shape(), cx.input_seed(u64::MAX, 0));
    let bytes = artifacts.quantize_input(&input);
    let (cold, _) = cx.host.time("soc.cold_run", key, || {
        timing.run_firmware(&artifacts, &bytes, &firmware)
    });
    let cold = cold.map_err(|e| format!("cold run: {e}"))?;
    cx.modeled.mix(output_digest(&cold));
    Ok(Resident {
        key,
        int8,
        net,
        artifacts,
        firmware,
        functional,
        timing,
        func_config,
        cold: (cold.cycles, cold.instructions),
    })
}

/// How far, in INT8 output steps, the golden logit of the SoC's top
/// class may sit below the golden maximum. INT8 logits carry rounding
/// noise of a few steps (median largest-logit error: 2 steps on LeNet-5,
/// 4 on ResNet-18, over 400 and 60 random inputs with one calibration
/// input), so a golden top-2 gap inside this band is a tie INT8 cannot
/// resolve.
const TIE_STEPS: f32 = 4.0;

/// Check a functional frame: bit-identity with a cold run of the same
/// input on a fresh SoC, and for INT8 also agreement with the golden
/// executor (FP16 golden runs cost more than the frames).
fn check_frame(
    cx: &mut Cx,
    m: &Resident,
    input: &Tensor,
    bytes: &[u8],
    r: &InferenceResult,
) -> Result<(), String> {
    let (cold, _) = cx.host.time("soc.reference", m.key, || {
        Soc::new(m.func_config.clone()).run_firmware(&m.artifacts, bytes, &m.firmware)
    });
    let cold = cold.map_err(|e| format!("cold reference: {e}"))?;
    if output_digest(&cold) != output_digest(r) {
        return Err("warm frame differs from a cold run of the same input".into());
    }
    if m.int8 {
        // The SoC returns logits (softmax runs on the CPU side and keeps
        // the argmax), so compare against the golden logits.
        let out = m.net.node(m.net.output());
        let logits = if matches!(out.op, Op::Softmax) {
            out.inputs[0]
        } else {
            m.net.output()
        };
        let (golden, _) = cx.host.time("nn.golden", m.key, || {
            Executor::new(&m.net).run_to(input, logits)
        });
        let golden = golden.map_err(|e| format!("golden: {e}"))?;
        let (want, got) = (golden.argmax(), r.output.argmax());
        let g = golden.data();
        let gap = (g[want] - g[got]) / m.artifacts.output_scale;
        if gap > TIE_STEPS {
            return Err(format!(
                "argmax {got}, golden {want}, golden gap {gap:.2} INT8 steps"
            ));
        }
    }
    Ok(())
}

impl Workload for Warm {
    type State = State;
    const SETUP_REPEATS: usize = 3;
    const STAGE_NAMES: [&'static str; 2] = [
        "one functional frame on each resident model",
        "the same frames, timing-only",
    ];

    fn setup(&self, cx: &mut Cx) -> State {
        let mut models = Vec::new();
        for (model, int8) in MODELS {
            cx.host.next_op();
            let op = cx.host.begin("bench.op", model.name());
            let r = setup_one(cx, model, int8);
            cx.host.end(op);
            match r {
                Ok(m) => {
                    cx.check(model.name(), Ok(()));
                    models.push(m);
                }
                Err(e) => cx.check(model.name(), Err(format!("set-up: {e}"))),
            }
        }
        State { models }
    }

    fn pass(&self, cx: &mut Cx, st: &mut State, index: u64) -> Pass {
        let mut infer_s = 0.0;
        let mut frames = Vec::new();
        for (k, m) in st.models.iter_mut().enumerate() {
            cx.host.next_op();
            let op = cx.host.begin("bench.op", m.key);
            let input = Tensor::random(m.net.input_shape(), cx.input_seed(index, k as u64));
            let bytes = m.artifacts.quantize_input(&input);
            let (r, t) = cx.host.time("soc.warm_func", m.key, || {
                m.functional.run_firmware(&m.artifacts, &bytes, &m.firmware)
            });
            infer_s += t;
            let checked = match r {
                Ok(r) => {
                    cx.modeled.mix(output_digest(&r));
                    cx.count("nvdla.ops", r.nvdla.total_ops() as f64);
                    cx.count("nvdla.macs", r.nvdla.total_macs() as f64);
                    cx.count("nvdla.dma_bytes", r.nvdla.total_dma_bytes() as f64);
                    check_frame(cx, m, &input, &bytes, &r).map(|()| (r.cycles, r.instructions))
                }
                Err(e) => Err(format!("warm run: {e}")),
            };
            cx.host.end(op);
            let name = format!("functional {} frame {index}", m.key);
            match checked {
                Ok(modeled) => {
                    cx.check(&name, Ok(()));
                    frames.push(Some((bytes, modeled)));
                }
                Err(e) => {
                    cx.check(&name, Err(e));
                    frames.push(None);
                }
            }
        }

        // The same frames, timing-only.
        let mut timing_s = 0.0;
        for (m, frame) in st.models.iter_mut().zip(&frames) {
            let Some((bytes, func)) = frame else { continue };
            cx.host.next_op();
            let op = cx.host.begin("bench.op", m.key);
            let (r, t) = cx.host.time("soc.warm_timing", m.key, || {
                m.timing.run_firmware(&m.artifacts, bytes, &m.firmware)
            });
            cx.host.end(op);
            timing_s += t;
            let name = format!("timing-only {} frame {index}", m.key);
            let checked = match r {
                Ok(r) => {
                    cx.modeled.mix(r.cycles);
                    cx.count_run(&r);
                    // Timing-only cycles are input-independent: the
                    // warm frame must match the set-up's cold run.
                    if (r.cycles, r.instructions) == m.cold {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} cycles / {} instructions, cold run {:?}, functional {func:?}",
                            r.cycles, r.instructions, m.cold
                        ))
                    }
                }
                Err(e) => Err(format!("timing run: {e}")),
            };
            cx.check(&name, checked);
        }
        let mut p = Pass::new();
        p.insert("main_s", infer_s);
        p.insert("run_s", timing_s);
        p
    }

    fn summary(&self, st: &State) -> (Vec<String>, Json) {
        let names: Vec<&str> = st.models.iter().map(|m| m.key).collect();
        (
            vec![format!("resident models: {}", names.join(", "))],
            Json::Arr(names.into_iter().map(|n| Json::Str(n.into())).collect()),
        )
    }
}
