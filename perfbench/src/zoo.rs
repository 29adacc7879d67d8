//! `zoo_compile`: the paper-reproduction path. Table II's three
//! `nv_small` INT8 models and Table III's six `nv_full` FP16 models are
//! built by `Model::build` in set-up; each pass takes them through
//! `compile` and `Firmware::build` (`main_s`), then cold timing-only runs
//! on fresh SoCs (Table II, at a few system clocks) or on the virtual
//! platform (Table III) (`run_s`).

use rvnv_bench::{inference_fingerprint, nv_full_vp_timing};
use rvnv_compiler::{compile, Artifacts, CompileOptions, VirtualPlatform};
use rvnv_nn::zoo::Model;
use rvnv_nn::{Network, Shape, Tensor};
use rvnv_nvdla::regs::Block;
use rvnv_nvdla::HwConfig;
use rvnv_nvdla::NvdlaStats;
use rvnv_obs::{Json, TrackKind};
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{InferenceResult, Soc, SocConfig};
use rvnv_util::Fnv;

use crate::arith::{median, paper_err_pct};
use crate::{Cx, Pass, Workload};

/// System clocks of the Table II cold runs, MHz. The paper's cell is
/// the 100 MHz one.
const CLOCKS_MHZ: [u64; 3] = [50, 100, 200];
/// Cold-run rounds per pass; `run_s` takes their median.
const COLD_ROUNDS: usize = 3;
/// The engines whose modeled compute cycles the ledger lists.
const ENGINES: [(&str, Block); 6] = [
    ("conv", Block::Cacc),
    ("sdp", Block::Sdp),
    ("pdp", Block::Pdp),
    ("cdp", Block::Cdp),
    ("rubik", Block::Rubik),
    ("bdma", Block::Bdma),
];

/// Table II: processing time at 100 MHz (ms) and layer count.
fn paper_table2(model: Model) -> (f64, usize) {
    match model {
        Model::LeNet5 => (4.8, 9),
        Model::ResNet18 => (16.2, 86),
        Model::ResNet50 => (1100.0, 228),
        other => unreachable!("{} is not in Table II", other.name()),
    }
}

/// Table III: clock cycles.
fn paper_table3(model: Model) -> u64 {
    match model {
        Model::LeNet5 => 143_188,
        Model::ResNet18 => 324_387,
        Model::ResNet50 => 26_565_315,
        Model::MobileNet => 22_525_704,
        Model::GoogLeNet => 40_889_646,
        Model::AlexNet => 35_535_582,
    }
}

/// Artifact fingerprints (`.cfg` commands, weight image, firmware)
/// recorded when this benchmark was created.
const RECORDED: [(&str, u64, u64, u64); 9] = [
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

/// The LeNet-5 determinism fingerprint (functional, poll firmware,
/// INT8) the repository's fingerprint gate prints.
const RECORDED_DETERMINISM: u64 = 0x6dc3_23d6_5917_6d9f;

/// One paper cell with its modeled value.
#[derive(Debug, Clone)]
pub struct Cell {
    table: &'static str,
    model: &'static str,
    unit: &'static str,
    modeled: f64,
    paper: f64,
    engines: [u64; 6],
    layers: Option<(usize, usize)>,
}

impl Cell {
    fn ratio(&self) -> f64 {
        self.modeled / self.paper
    }
}

/// One compiled model.
struct Compiled {
    key: String,
    model: Model,
    input_shape: Shape,
    layer_count: usize,
    artifacts: Artifacts,
    firmware: Firmware,
}

pub struct State {
    /// The Table II and Table III networks, keyed as in [`RECORDED`].
    nets: Vec<(String, Model, Network)>,
    ledger: Vec<Cell>,
    /// (key, cfg, weights, firmware) fingerprints of the last pass.
    fingerprints: Vec<(String, u64, u64, u64)>,
    determinism: Option<u64>,
    /// Modeled cycles of every cold run in pass 0, for later passes.
    baseline: Option<Vec<u64>>,
}

pub struct Zoo;

fn engine_cycles(stats: &NvdlaStats) -> [u64; 6] {
    ENGINES.map(|(_, b)| stats.engine(b).compute_cycles)
}

fn cmd_fingerprint(a: &Artifacts) -> u64 {
    let mut h = Fnv::new();
    for c in &a.commands {
        h.str(&c.to_string());
    }
    h.finish()
}

fn fw_fingerprint(fw: &Firmware) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&fw.image.bytes());
    h.finish()
}

/// Compile and assemble one model as one op; returns the compiled model
/// and its compile time (compile + firmware).
fn compile_one(
    cx: &mut Cx,
    key: &str,
    model: Model,
    net: &Network,
    opt: &CompileOptions,
) -> Option<(Compiled, f64)> {
    let key = key.to_string();
    cx.host.next_op();
    let op = cx.host.begin("bench.op", &key);
    cx.attribute_calibration(&key, net, opt);
    let (artifacts, t_compile) = cx.host.time("compiler.compile", &key, || compile(net, opt));
    let artifacts = match artifacts {
        Ok(a) => a,
        Err(e) => {
            cx.host.end(op);
            cx.check(&key, Err(format!("compile: {e}")));
            return None;
        }
    };
    let (firmware, t_fw) = cx
        .host
        .time("soc.firmware", &key, || Firmware::build(&artifacts));
    cx.host.end(op);
    let firmware = match firmware {
        Ok(f) => f,
        Err(e) => {
            cx.check(&key, Err(format!("firmware: {e}")));
            return None;
        }
    };
    cx.count("compiler.commands", artifacts.commands.len() as f64);
    cx.count(
        "compiler.weight_bytes",
        artifacts.weights.total_bytes() as f64,
    );
    cx.count("riscv.firmware_bytes", firmware.size_bytes() as f64);
    Some((
        Compiled {
            key,
            model,
            input_shape: net.input_shape(),
            layer_count: net.layer_count(),
            artifacts,
            firmware,
        },
        t_compile + t_fw,
    ))
}

/// One cold timing-only run on a fresh SoC.
fn cold_soc_run(
    cx: &mut Cx,
    c: &Compiled,
    config: SocConfig,
    bytes: &[u8],
) -> Result<InferenceResult, String> {
    let (soc, _) = cx.host.time("soc.load", &c.key, || Soc::new(config));
    let mut soc = soc;
    if cx.tracer.is_armed() {
        let track = cx.tracer.track(&format!("cold {}", c.key), TrackKind::Sync);
        soc.set_tracer(cx.tracer.clone(), track);
    }
    let (r, _) = cx.host.time("soc.cold_run", &c.key, || {
        soc.run_firmware(&c.artifacts, bytes, &c.firmware)
    });
    let r = r.map_err(|e| format!("cold run: {e}"))?;
    if r.instructions == 0 || r.cycles == 0 || r.raw_output.len() != c.artifacts.output_len {
        return Err(format!(
            "cold run did not complete: {} instructions, {} cycles, {} of {} output bytes",
            r.instructions,
            r.cycles,
            r.raw_output.len(),
            c.artifacts.output_len
        ));
    }
    Ok(r)
}

fn count_engines(cx: &mut Cx, cycles: &[u64; 6]) {
    const NAMES: [&str; 6] = [
        "nvdla.conv_cycles",
        "nvdla.sdp_cycles",
        "nvdla.pdp_cycles",
        "nvdla.cdp_cycles",
        "nvdla.rubik_cycles",
        "nvdla.bdma_cycles",
    ];
    for (name, &c) in NAMES.iter().zip(cycles) {
        cx.count(name, c as f64);
    }
}

fn modeled_result(cx: &mut Cx, r: &InferenceResult) {
    cx.modeled.mix(inference_fingerprint(r));
}

/// The repository's determinism fingerprint: LeNet-5, INT8, poll
/// firmware, functional cold run on input seed 2.
fn determinism_fingerprint() -> Result<u64, String> {
    let net = Model::LeNet5.build(1);
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let a = compile(&net, &opt).map_err(|e| e.to_string())?;
    let fw = Firmware::build(&a).map_err(|e| e.to_string())?;
    let bytes = a.quantize_input(&Tensor::random(net.input_shape(), 2));
    let r = Soc::new(SocConfig::zcu102_nv_small())
        .run_firmware(&a, &bytes, &fw)
        .map_err(|e| e.to_string())?;
    Ok(inference_fingerprint(&r))
}

impl Workload for Zoo {
    type State = State;
    const SETUP_REPEATS: usize = 5;
    const STAGE_NAMES: [&'static str; 2] = [
        "compile + firmware of the 9 models",
        "one round of their cold runs (median of 3)",
    ];

    fn setup(&self, cx: &mut Cx) -> State {
        let tables = Model::NV_SMALL
            .iter()
            .map(|&m| ("II", m))
            .chain(Model::ALL.iter().map(|&m| ("III", m)));
        let nets = tables
            .map(|(table, model)| {
                let key = format!("{table}/{}", model.name());
                let (net, _) = cx.host.time("nn.build", &key, || model.build(1));
                (key, model, net)
            })
            .collect();
        State {
            nets,
            ledger: Vec::new(),
            fingerprints: Vec::new(),
            determinism: None,
            baseline: None,
        }
    }

    fn pass(&self, cx: &mut Cx, st: &mut State, index: u64) -> Pass {
        let mut int8 = CompileOptions::int8().unfused();
        int8.calib_inputs = 1;
        let fp16 = CompileOptions::fp16();
        let mut compile_s = 0.0;
        let (mut t2, mut t3) = (Vec::new(), Vec::new());
        for (key, model, net) in &st.nets {
            let (opt, set) = if key.starts_with("II/") {
                (&int8, &mut t2)
            } else {
                (&fp16, &mut t3)
            };
            if let Some((c, t)) = compile_one(cx, key, *model, net, opt) {
                compile_s += t;
                set.push(c);
            }
        }

        // Inputs: one seeded tensor per model and pass.
        let inputs = |cx: &Cx, set: &[Compiled], base: u64| -> Vec<Vec<u8>> {
            set.iter()
                .enumerate()
                .map(|(i, c)| {
                    let t = Tensor::random(c.input_shape, cx.input_seed(index, base + i as u64));
                    c.artifacts.quantize_input(&t)
                })
                .collect()
        };
        let in2 = inputs(cx, &t2, 0);
        let in3 = inputs(cx, &t3, 100);

        let mut errors: Vec<Option<String>> = vec![None; t2.len() + t3.len()];
        let mut cycles = Vec::new();
        let mut rounds = Vec::new();
        let mut ledger = Vec::new();
        for round in 0..COLD_ROUNDS {
            let first = round == 0;
            let mut cold_s = 0.0;
            for (i, c) in t2.iter().enumerate() {
                for mhz in CLOCKS_MHZ {
                    let config = SocConfig {
                        soc_hz: mhz * 1_000_000,
                        capture_timeline: cx.traced,
                        ..SocConfig::zcu102_timing_only()
                    };
                    let t = std::time::Instant::now();
                    let r = cold_soc_run(cx, c, config, &in2[i]);
                    cold_s += t.elapsed().as_secs_f64();
                    match r {
                        Ok(r) => {
                            cycles.push(r.cycles);
                            if first {
                                modeled_result(cx, &r);
                                cx.count_run(&r);
                                if mhz == 100 {
                                    let (paper_ms, paper_layers) = paper_table2(c.model);
                                    let e = engine_cycles(&r.nvdla);
                                    count_engines(cx, &e);
                                    cx.count(
                                        "bus.cpu_arbiter_wait_cycles",
                                        r.cpu_arbiter_wait as f64,
                                    );
                                    ledger.push(Cell {
                                        table: "II",
                                        model: c.model.name(),
                                        unit: "ms",
                                        modeled: r.cycles as f64 / 1e5,
                                        paper: paper_ms,
                                        engines: e,
                                        layers: Some((c.layer_count, paper_layers)),
                                    });
                                }
                            }
                        }
                        Err(e) => errors[i] = Some(e),
                    }
                }
            }
            for (i, c) in t3.iter().enumerate() {
                let (vp, t_vp) = cx.host.time("compiler.vp", &c.key, || {
                    let mut vp = VirtualPlatform::with_timing(
                        HwConfig::nv_full(),
                        512 << 20,
                        nv_full_vp_timing(),
                    );
                    vp.set_functional(false);
                    let run = vp.run(&c.artifacts, &in3[i], false);
                    run.map(|run| (run, vp.nvdla().stats().clone()))
                });
                cold_s += t_vp;
                match vp {
                    Ok((run, stats)) if run.commands == c.artifacts.commands.len() => {
                        cycles.push(run.cycles);
                        if first {
                            cx.modeled.mix(run.cycles);
                            let e = engine_cycles(&stats);
                            count_engines(cx, &e);
                            ledger.push(Cell {
                                table: "III",
                                model: c.model.name(),
                                unit: "cycles",
                                modeled: run.cycles as f64,
                                paper: paper_table3(c.model) as f64,
                                engines: e,
                                layers: None,
                            });
                        }
                    }
                    Ok((run, _)) => {
                        errors[t2.len() + i] = Some(format!(
                            "vp replayed {} of {} commands",
                            run.commands,
                            c.artifacts.commands.len()
                        ))
                    }
                    Err(e) => errors[t2.len() + i] = Some(format!("vp: {e}")),
                }
                // The firmware must also run to completion on a fresh SoC.
                let config = SocConfig {
                    capture_timeline: cx.traced,
                    ..SocConfig::zcu102_nv_full_timing_only()
                };
                let t = std::time::Instant::now();
                let r = cold_soc_run(cx, c, config, &in3[i]);
                cold_s += t.elapsed().as_secs_f64();
                match r {
                    Ok(r) => {
                        cycles.push(r.cycles);
                        if first {
                            modeled_result(cx, &r);
                            cx.count_run(&r);
                        }
                    }
                    Err(e) => errors[t2.len() + i] = Some(e),
                }
            }
            rounds.push(cold_s);
        }

        // Modeled cycles repeat exactly across rounds and passes.
        let per_round = cycles.len() / COLD_ROUNDS;
        let repeat_ok = (1..COLD_ROUNDS)
            .all(|r| cycles[r * per_round..(r + 1) * per_round] == cycles[..per_round]);
        let first_round = cycles[..per_round].to_vec();
        let pass_ok = st.baseline.get_or_insert_with(|| first_round.clone()) == &first_round;
        for (i, c) in t2.iter().chain(&t3).enumerate() {
            let r = match errors[i].take() {
                Some(e) => Err(e),
                None if !repeat_ok || !pass_ok => {
                    Err("modeled cycles changed between identical cold runs".into())
                }
                None => Ok(()),
            };
            cx.check(&c.key, r);
        }

        st.fingerprints = t2
            .iter()
            .chain(&t3)
            .map(|c| {
                (
                    c.key.clone(),
                    cmd_fingerprint(&c.artifacts),
                    c.artifacts.weights.fingerprint(),
                    fw_fingerprint(&c.firmware),
                )
            })
            .collect();
        for &(_, a, b, f) in &st.fingerprints {
            cx.modeled.mix(a);
            cx.modeled.mix(b);
            cx.modeled.mix(f);
        }
        if st.determinism.is_none() {
            let span = cx.host.begin("bench.fingerprint", "LeNet-5");
            let fp = determinism_fingerprint();
            cx.host.end(span);
            match fp {
                Ok(v) => st.determinism = Some(v),
                Err(e) => cx.check("determinism fingerprint", Err(e)),
            }
        }
        let err = if ledger.is_empty() {
            0.0
        } else {
            paper_err_pct(&ledger.iter().map(Cell::ratio).collect::<Vec<_>>())
        };
        st.ledger = ledger;

        let mut p = Pass::new();
        p.insert("main_s", compile_s);
        p.insert("run_s", median(&rounds));
        p.insert("paper_err_pct", err);
        p
    }

    fn summary(&self, st: &State) -> (Vec<String>, Json) {
        let mut lines = vec![
            "paper ledger (Table II @100 MHz in ms, Table III in cycles):".to_string(),
            format!(
                "  {:<5} {:<10} {:>14} {:>14} {:>7}  {:>10} {:>10} {:>10} {:>10} {:>6} {:>6}  layers",
                "table", "model", "modeled", "paper", "ratio", "conv", "sdp", "pdp", "cdp", "rubik", "bdma"
            ),
        ];
        let mut cells = Vec::new();
        for c in &st.ledger {
            let layers = c
                .layers
                .map_or_else(String::new, |(m, p)| format!("{m} vs {p}"));
            lines.push(format!(
                "  {:<5} {:<10} {:>14.3} {:>14.3} {:>6.3}x  {:>10} {:>10} {:>10} {:>10} {:>6} {:>6}  {layers}",
                c.table,
                c.model,
                c.modeled,
                c.paper,
                c.ratio(),
                c.engines[0],
                c.engines[1],
                c.engines[2],
                c.engines[3],
                c.engines[4],
                c.engines[5],
            ));
            let mut o = std::collections::BTreeMap::new();
            o.insert("table".to_string(), Json::Str(c.table.into()));
            o.insert("model".to_string(), Json::Str(c.model.into()));
            o.insert("unit".to_string(), Json::Str(c.unit.into()));
            o.insert("modeled".to_string(), Json::Float(c.modeled));
            o.insert("paper".to_string(), Json::Float(c.paper));
            o.insert("ratio".to_string(), Json::Float(c.ratio()));
            for ((name, _), v) in ENGINES.iter().zip(c.engines) {
                o.insert(format!("{name}_cycles"), Json::Int(v));
            }
            if let Some((m, p)) = c.layers {
                o.insert("layers".to_string(), Json::Int(m as u64));
                o.insert("paper_layers".to_string(), Json::Int(p as u64));
            }
            cells.push(Json::Obj(o));
        }
        let ratios: Vec<f64> = st.ledger.iter().map(Cell::ratio).collect();
        if !ratios.is_empty() {
            lines.push(format!(
                "  paper_err_pct = {:.3}% over {} cells (geometric-mean factor error)",
                paper_err_pct(&ratios),
                ratios.len()
            ));
        }
        lines.push("artifact fingerprints (cfg / weights / firmware) vs recorded:".into());
        let mut fps = Vec::new();
        for (key, a, b, f) in &st.fingerprints {
            let verdict = match RECORDED.iter().find(|r| r.0 == key) {
                Some(&(_, ra, rb, rf)) if (ra, rb, rf) == (*a, *b, *f) => "match",
                Some(_) => "DIFFERS",
                None => "not recorded",
            };
            lines.push(format!("  {key:<14} {a:016x} {b:016x} {f:016x}  {verdict}"));
            fps.push(Json::Str(format!(
                "{key} {a:016x} {b:016x} {f:016x} {verdict}"
            )));
        }
        if let Some(d) = st.determinism {
            let verdict = if d == RECORDED_DETERMINISM {
                "match"
            } else {
                "DIFFERS"
            };
            lines.push(format!(
                "  LeNet-5 determinism fingerprint {d:016x} (recorded {RECORDED_DETERMINISM:016x}) {verdict}"
            ));
            fps.push(Json::Str(format!("determinism {d:016x} {verdict}")));
        }
        let mut o = std::collections::BTreeMap::new();
        o.insert("ledger".to_string(), Json::Arr(cells));
        o.insert("fingerprints".to_string(), Json::Arr(fps));
        (lines, Json::Obj(o))
    }
}
