//! The repository benchmark: workloads over the rv-nvdla user path,
//! timed on the host clock from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo_compile|warm_serve|warm_infer|serve_plan --seed N --seconds S --trace 0|1
//! ```
//!
//! `BENCHMARK.json` runs `zoo_compile` and `warm_serve`; `warm_serve` is
//! `warm_infer` and `serve_plan` together, which also run on their own.
//!
//! `--trace 0` measures the end-to-end metrics, the same four for every
//! workload (`setup_s`, `main_s`, `run_s`, `peak_rss_mb`); `--trace 1`
//! runs one untraced and one traced pass, checks that both produce the
//! same modeled outputs, and reports the per-layer metrics from the
//! traced one. The last stdout line is the result object; `perfbench/out/`
//! receives the full report and, when traced, the Perfetto span files.
//! See `perfbench/README.md` for the workloads and the metric map.

mod arith;
mod host;
mod machine;
mod serve;
mod warm;
mod warm_serve;
mod zoo;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rvnv_compiler::CompileOptions;
use rvnv_nn::quant::CalibrationTable;
use rvnv_nn::{Network, Tensor};
use rvnv_obs::{Json, Tracer};
use rvnv_soc::soc::InferenceResult;
use rvnv_util::{mix64, Fnv};

use crate::arith::median;
use crate::host::Host;

/// Everything a workload's set-up and passes share.
pub struct Cx {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Host-clock span recorder (armed in the traced pass only).
    pub host: Host,
    /// Modeled-cycle tracer (armed in the traced pass only).
    pub tracer: Tracer,
    /// In the traced pass: capture timelines and make the extra calls
    /// that split one public call into layers (e.g. calibration out of
    /// compile).
    pub traced: bool,
    /// Per-layer counters.
    pub counts: BTreeMap<&'static str, f64>,
    /// Digest of every modeled output (cycles, output bytes, reports).
    pub modeled: Fnv,
    /// Ops attempted and failed, with the first few failures.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Cx {
    fn new(seed: u64) -> Self {
        Cx {
            seed,
            host: Host::new(),
            tracer: Tracer::disarmed(),
            traced: false,
            counts: BTreeMap::new(),
            modeled: Fnv::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// A seed for input `k` of pass `pass`, derived from the workload seed.
    pub fn input_seed(&self, pass: u64, k: u64) -> u64 {
        derive_seed(self.seed, pass, k)
    }

    /// Record one op's correctness check.
    pub fn check(&mut self, op: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{op}: {why}"));
            }
        }
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// The ISS counters of one SoC run.
    pub fn count_run(&mut self, r: &InferenceResult) {
        self.count("riscv.instructions", r.instructions as f64);
        self.count("riscv.elided_polls", r.elided_polls as f64);
        self.count("riscv.block_cache_hits", r.block_cache.hits as f64);
        self.count("riscv.block_cache_misses", r.block_cache.misses as f64);
    }

    /// In the traced pass, run the INT8 calibration `compile` is about
    /// to run, on the same inputs, so that `nn.calibrate` can be split
    /// out of `compiler.compile`.
    pub fn attribute_calibration(&mut self, label: &str, net: &Network, opt: &CompileOptions) {
        if !self.traced || opt.calib_inputs == 0 {
            return;
        }
        let inputs: Vec<Tensor> = (0..opt.calib_inputs)
            .map(|i| Tensor::random(net.input_shape(), opt.calib_seed + i as u64))
            .collect();
        let _ = self.host.time("nn.calibrate", label, || {
            CalibrationTable::calibrate(net, &inputs)
        });
    }
}

/// The seed of input `k` of pass `pass` under workload seed `seed`.
pub fn derive_seed(seed: u64, pass: u64, k: u64) -> u64 {
    mix64(mix64(seed ^ 0xB5E1_C0DE) ^ (pass << 20) ^ k)
}

/// What one pass measured, by metric name: its [`STAGES`] in seconds and
/// any [`MODELED`] results.
pub type Pass = BTreeMap<&'static str, f64>;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The timed stages of a pass, keys of [`Pass`]: every workload reports
/// both, as medians over passes, besides `setup_s` and `peak_rss_mb`.
/// `main_s` is the workload's dominant stage and `run_s` its second one;
/// each workload names them in [`Workload::STAGE_NAMES`].
pub const STAGES: [&str; 2] = ["main_s", "run_s"];

/// Deterministic modeled results a pass may add to [`Pass`]; the traced
/// run reports them as per-layer metrics (0 where a workload has none).
const MODELED: [(&str, &str); 2] = [("paper_err_pct", "%"), ("knee_rps", "req/s")];

pub trait Workload {
    type State;
    /// How often set-up runs in an untraced run; its median is `setup_s`.
    const SETUP_REPEATS: usize;
    /// What [`STAGES`] time in this workload, for the report.
    const STAGE_NAMES: [&'static str; 2];
    fn setup(&self, cx: &mut Cx) -> Self::State;
    /// One pass: its [`STAGES`] times, plus any [`MODELED`] results.
    fn pass(&self, cx: &mut Cx, state: &mut Self::State, index: u64) -> Pass;
    /// Human-readable report lines and their JSON form.
    fn summary(&self, state: &Self::State) -> (Vec<String>, Json);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is not 0 or 1")),
                })
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (expected --workload --seed --seconds --trace)"
                ))
            }
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Everything printed and saved at the end of a run.
struct Outcome {
    metrics: Vec<Metric>,
    correct: bool,
    extra: BTreeMap<String, Json>,
    lines: Vec<String>,
}

/// Untraced run: passes until `seconds` of pass time have gone by (to
/// the nearest whole pass, so that a run of long passes neither stops
/// short nor overruns by most of a pass), with the `SETUP_REPEATS` set-ups
/// spread evenly over the run, so that their median does not hang on
/// the machine's state during one short stretch.
fn measure<W: Workload>(w: &W, seed: u64, seconds: u64) -> Outcome {
    let mut cx = Cx::new(seed);
    let mut setups = Vec::new();
    let timed_setup = |cx: &mut Cx, setups: &mut Vec<f64>| {
        let t = Instant::now();
        let state = w.setup(cx);
        setups.push(t.elapsed().as_secs_f64());
        state
    };
    let mut state = timed_setup(&mut cx, &mut setups);
    let repeats = u32::try_from(W::SETUP_REPEATS).expect("a handful of set-ups");
    let budget = Duration::from_secs(seconds);
    let mut measured = Duration::ZERO;
    let mut passes = Vec::new();
    while passes.is_empty() || measured + measured / (2 * passes.len() as u32) < budget {
        let done = u32::try_from(setups.len()).expect("a handful of set-ups");
        if done < repeats && measured >= budget * done / repeats {
            drop(state);
            state = timed_setup(&mut cx, &mut setups);
        }
        let t = Instant::now();
        passes.push(w.pass(&mut cx, &mut state, passes.len() as u64));
        measured += t.elapsed();
    }
    // The passes' state holds the results the report shows; set-ups
    // still owed at the end are timed and dropped.
    let (mut lines, summary) = w.summary(&state);
    while setups.len() < W::SETUP_REPEATS {
        drop(state);
        state = timed_setup(&mut cx, &mut setups);
    }
    drop(state);
    let mut metrics = vec![("setup_s", median(&setups), "s")];
    for (i, (name, what)) in STAGES.into_iter().zip(W::STAGE_NAMES).enumerate() {
        let samples: Vec<f64> = passes.iter().map(|p| p[name]).collect();
        metrics.push((name, median(&samples), "s"));
        lines.insert(i, format!("{name} times {what}"));
    }
    metrics.push(("peak_rss_mb", machine::peak_rss_mb().unwrap_or(0.0), "MB"));

    let mut extra = BTreeMap::new();
    extra.insert("summary".into(), summary);
    extra.insert("passes".into(), Json::Int(passes.len() as u64));
    extra.insert("setup_samples_s".into(), floats(&setups));
    let per_pass: BTreeMap<String, Json> = STAGES
        .iter()
        .map(|&k| {
            let v: Vec<f64> = passes.iter().map(|p| p[k]).collect();
            (k.to_string(), floats(&v))
        })
        .collect();
    extra.insert("pass_samples_s".into(), Json::Obj(per_pass));
    finish(cx, metrics, true, extra, lines)
}

/// Traced run: set-up + pass 0 untraced, then again traced; the two
/// must agree on every modeled output.
fn traced<W: Workload>(w: &W, seed: u64, out_stem: &str) -> Outcome {
    let mut cx = Cx::new(seed);
    let t = Instant::now();
    {
        let mut state = w.setup(&mut cx);
        w.pass(&mut cx, &mut state, 0);
    }
    let untraced_wall = t.elapsed().as_secs_f64();
    let untraced_digest = cx.modeled.finish();

    cx.modeled = Fnv::new();
    cx.counts.clear();
    cx.traced = true;
    cx.tracer = Tracer::armed();
    cx.host.set_armed(true);
    let root = cx.host.begin("bench.run", "traced pass");
    let setup = cx.host.begin("bench.setup", "");
    let mut state = w.setup(&mut cx);
    cx.host.end(setup);
    let pass = cx.host.begin("bench.pass", "0");
    let modeled = w.pass(&mut cx, &mut state, 0);
    cx.host.end(pass);
    let traced_wall = cx.host.end(root);
    let same = cx.modeled.finish() == untraced_digest;
    cx.check(
        "traced pass",
        if same {
            Ok(())
        } else {
            Err("modeled outputs differ from the untraced pass".into())
        },
    );

    let spans = cx.host.spans();
    let selfs = host::self_times(spans);
    let tot = host::totals(spans);
    let total = |name: &str| tot.get(name).copied().unwrap_or(0.0);
    // Calls made only to split a public call into layers; the untraced
    // pass does not make them, so they are not tracing overhead.
    let attribution: f64 = [
        "nn.calibrate",
        "serve.trace",
        "fleet.trace",
        "serve.replay_plan",
        "fleet.replay_plan",
    ]
    .iter()
    .map(|n| total(n))
    .sum();
    let attributed: f64 = selfs
        .iter()
        .filter(|(n, _)| !n.starts_with("bench."))
        .map(|(_, v)| v)
        .sum();
    let unattributed = traced_wall - attributed;

    let mut metrics: Vec<Metric> = Vec::new();
    let mut s = |name, v| metrics.push((name, v, "s"));
    s("nn.build_s", total("nn.build"));
    s("nn.calibrate_s", total("nn.calibrate"));
    s("nn.golden_s", total("nn.golden"));
    s("soc.reference_s", total("soc.reference"));
    s(
        "compiler.lower_s",
        total("compiler.compile") - total("nn.calibrate"),
    );
    s("compiler.vp_s", total("compiler.vp"));
    s("soc.firmware_s", total("soc.firmware"));
    s("soc.load_s", total("soc.load"));
    s("soc.cold_run_s", total("soc.cold_run"));
    s("soc.warm_func_s", total("soc.warm_func"));
    s("soc.warm_timing_s", total("soc.warm_timing"));
    s(
        "nvdla.compute_s",
        total("soc.warm_func") - total("soc.warm_timing"),
    );
    s("serve.calibrate_s", total("serve.calibrate"));
    s("fleet.calibrate_s", total("fleet.calibrate"));
    s("serve.trace_s", total("serve.trace"));
    s("fleet.trace_s", total("fleet.trace"));
    s("serve.sim_s", total("serve.plan") - total("serve.trace"));
    s("fleet.sim_s", total("fleet.plan") - total("fleet.trace"));
    s(
        "serve.replay_s",
        total("serve.serve") - total("serve.replay_plan"),
    );
    s(
        "fleet.replay_s",
        total("fleet.run") - total("fleet.replay_plan"),
    );
    s("obs.overhead_s", traced_wall - untraced_wall - attribution);
    s("bench.unattributed_s", unattributed);
    let count = |n: &str| cx.counts.get(n).copied().unwrap_or(0.0);
    for name in COUNTERS {
        metrics.push((name, count(name), "count"));
    }
    for (name, unit) in MODELED {
        metrics.push((name, modeled.get(name).copied().unwrap_or(0.0), unit));
    }
    let hits = count("riscv.block_cache_hits");
    let lookups = hits + count("riscv.block_cache_misses");
    metrics.push((
        "riscv.block_cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    ));

    let out = out_dir();
    let host_file = out.join(format!("{out_stem}.host.perfetto.json"));
    let modeled_file = out.join(format!("{out_stem}.modeled.perfetto.json"));
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&host_file, host::to_chrome_json(spans)))
        .and_then(|()| {
            std::fs::write(
                &modeled_file,
                rvnv_obs::to_chrome_json(&cx.tracer.snapshot(), 100_000_000),
            )
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write span files: {e}");
    }

    let mut lines = vec![format!(
        "traced pass: wall {traced_wall:.3} s, untraced {untraced_wall:.3} s, \
         modeled outputs {}",
        if same { "identical" } else { "DIFFER" }
    )];
    lines.push("layer self time (s), traced pass:".into());
    for (name, v) in &selfs {
        lines.push(format!(
            "  {name:<24} {v:>10.4}  {:>5.1}%",
            100.0 * v / traced_wall
        ));
    }
    lines.push(format!(
        "  {:<24} {attributed:>10.4}  of wall {traced_wall:.4}; unattributed {unattributed:.4}",
        "layers total"
    ));
    lines.push(format!(
        "spans: {} (host) -> {}; modeled -> {}",
        spans.len(),
        host_file.display(),
        modeled_file.display()
    ));
    // nvdla.compute_s per model: functional minus timing-only frame time.
    let by_label = |name: &str| {
        let mut m: BTreeMap<&str, f64> = BTreeMap::new();
        for sp in spans.iter().filter(|sp| sp.name == name) {
            *m.entry(sp.label.as_str()).or_insert(0.0) += (sp.end_ns - sp.start_ns) as f64 * 1e-9;
        }
        m
    };
    let timing = by_label("soc.warm_timing");
    let mut compute = BTreeMap::new();
    for (model, func) in by_label("soc.warm_func") {
        let c = func - timing.get(model).copied().unwrap_or(0.0);
        lines.push(format!("  nvdla.compute_s {model:<12} {c:>10.4}"));
        compute.insert(model.to_string(), Json::Float(c));
    }
    let (summary_lines, summary) = w.summary(&state);
    lines.extend(summary_lines);
    let mut extra = BTreeMap::new();
    extra.insert("summary".into(), summary);
    extra.insert("nvdla_compute_s_per_model".into(), Json::Obj(compute));
    extra.insert(
        "self_time_s".into(),
        Json::Obj(
            selfs
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::Float(*v)))
                .collect(),
        ),
    );
    extra.insert("traced_wall_s".into(), Json::Float(traced_wall));
    extra.insert("untraced_wall_s".into(), Json::Float(untraced_wall));
    finish(cx, metrics, same, extra, lines)
}

/// Counters the workloads accumulate into [`Cx::counts`], reported by
/// every traced run (0 where a workload does not reach the layer).
const COUNTERS: [&str; 23] = [
    "compiler.commands",
    "compiler.weight_bytes",
    "riscv.firmware_bytes",
    "nvdla.ops",
    "nvdla.macs",
    "nvdla.dma_bytes",
    "riscv.instructions",
    "riscv.elided_polls",
    "nvdla.conv_cycles",
    "nvdla.sdp_cycles",
    "nvdla.pdp_cycles",
    "nvdla.cdp_cycles",
    "nvdla.rubik_cycles",
    "nvdla.bdma_cycles",
    "bus.cpu_arbiter_wait_cycles",
    "serve.requests",
    "serve.dropped",
    "serve.retries",
    "fleet.requests",
    "fleet.shed",
    "fleet.scale_events",
    "serve.replay_frames",
    "fleet.spot_frames",
];

fn floats(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Float(x)).collect())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn finish(
    cx: Cx,
    metrics: Vec<Metric>,
    same: bool,
    mut extra: BTreeMap<String, Json>,
    lines: Vec<String>,
) -> Outcome {
    extra.insert(
        "failures".into(),
        Json::Arr(cx.failures.iter().cloned().map(Json::Str).collect()),
    );
    extra.insert("attempted".into(), Json::Int(cx.attempted));
    extra.insert("failed".into(), Json::Int(cx.failed));
    Outcome {
        metrics,
        correct: same && cx.failed == 0 && cx.attempted > 0,
        extra,
        lines,
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    Ok(match (args.workload.as_str(), args.trace) {
        ("zoo_compile", false) => measure(&zoo::Zoo, args.seed, args.seconds),
        ("zoo_compile", true) => traced(&zoo::Zoo, args.seed, &stem),
        ("warm_infer", false) => measure(&warm::Warm, args.seed, args.seconds),
        ("warm_infer", true) => traced(&warm::Warm, args.seed, &stem),
        ("serve_plan", false) => measure(&serve::Plan, args.seed, args.seconds),
        ("serve_plan", true) => traced(&serve::Plan, args.seed, &stem),
        ("warm_serve", false) => measure(&warm_serve::WarmServe, args.seed, args.seconds),
        ("warm_serve", true) => traced(&warm_serve::WarmServe, args.seed, &stem),
        (other, _) => {
            return Err(format!(
                "unknown workload `{other}` (expected zoo_compile|warm_serve|warm_infer|serve_plan)"
            ))
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = machine::facts(args.seed);
    println!("machine: {machine}");
    for line in &outcome.lines {
        println!("{line}");
    }
    for f in outcome
        .extra
        .get("failures")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        println!("FAILED {}", f.as_str().unwrap_or(""));
    }
    let mut metrics = BTreeMap::new();
    for &(name, value, unit) in &outcome.metrics {
        println!("metric {name:<28} {value:>16.6} {unit}");
        let mut m = BTreeMap::new();
        m.insert("value".to_string(), Json::Float(value));
        m.insert("unit".to_string(), Json::Str(unit.to_string()));
        metrics.insert(name.to_string(), Json::Obj(m));
    }
    let attempted = outcome.extra["attempted"].as_u64().unwrap_or(0);
    let failed = outcome.extra["failed"].as_u64().unwrap_or(0);
    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Json::Bool(outcome.correct));
    result.insert("attempted".to_string(), Json::Int(attempted));
    result.insert("failed".to_string(), Json::Int(failed));
    result.insert("metrics".to_string(), Json::Obj(metrics));
    let result = Json::Obj(result);

    let mut report = outcome.extra;
    report.insert("machine".into(), machine);
    report.insert("result".into(), result.clone());
    let out = out_dir();
    let file = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, Json::Obj(report).to_string()))
    {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("report: {}", file.display());
    println!("{result}");
    ExitCode::SUCCESS
}
