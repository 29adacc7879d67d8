//! `rv-nvdla` — command-line front end for the bare-metal RISC-V + NVDLA
//! SoC toolflow.
//!
//! Run `rv-nvdla` with no arguments for the usage banner. The banner,
//! the parser and each command's accepted-flag list all derive from one
//! table, [`COMMANDS`]: every flag is declared once as a [`Flag`], and a
//! command lists the flags it accepts. Arguments are parsed in a single
//! pass, so a flag's value is never also read as a flag, a repeated
//! flag is an error, and an unknown flag is rejected with the command's
//! accepted list — a mistyped option can never be silently ignored.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use rv_nvdla::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    match Args::parse(cmd, &args[1..]).and_then(|a| (cmd.main)(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// One command-line flag: its name, the metavar of the value it
/// consumes (`None` for a switch) and one line of help. A `required`
/// flag is checked by the parser and printed unbracketed.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    required: bool,
    help: &'static str,
}

impl Flag {
    const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            required: false,
            help,
        }
    }

    const fn valued(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(metavar),
            required: false,
            help,
        }
    }

    /// `--name VALUE`, as the usage synopsis and error messages show it.
    fn form(&self) -> String {
        match self.value {
            Some(metavar) => format!("{} {metavar}", self.name),
            None => self.name.to_string(),
        }
    }
}

// The flag table: every flag is declared here once, and each entry of
// `COMMANDS` lists the flags its command accepts.
const FP16: Flag = Flag::switch("--fp16", "FP16 on nv_full instead of INT8 on nv_small");
const UNFUSED: Flag = Flag::switch("--unfused", "one register sequence per layer (no fusion)");
const OUT: Flag = Flag::valued("--out", "DIR", "artifact directory (default .)");
const WFI: Flag = Flag::switch("--wfi", "wfi firmware instead of the poll loop");
const TIMING: Flag = Flag::switch("--timing-only", "model cycles, skip the arithmetic");
const REPEAT: Flag = Flag::valued("--repeat", "N", "inferences to run (default 1)");
const TRACE: Flag = Flag::valued("--trace-out", "FILE", "write a modeled-time trace");
const METRICS: Flag = Flag::valued("--metrics-out", "FILE", "write a metrics dump");
const CLOCKS: Flag = Flag::valued("--clocks", "MHZ,..", "system clocks to sweep");
const THREADS: Flag = Flag::valued("--threads", "N", "worker threads (default: host cores)");
const MODELS: Flag = Flag {
    required: true,
    ..Flag::valued("--models", "A,B[,..]", "zoo models to keep resident")
};
const FRAMES: Flag = Flag::valued("--frames", "N", "frames to drain (default 16)");
const POLICY: Flag = Flag::valued("--policy", "rr|sqf|eff", "dispatch policy (default rr)");
const PIPELINE: Flag = Flag::switch("--pipeline", "overlap the next input with compute");
const FUNCTIONAL: Flag = Flag::switch("--functional", "compute real outputs");
const RATE: Flag = Flag::valued("--rate", "R", "arrivals per second of modeled time");
const DURATION: Flag = Flag::valued("--duration", "MS", "modeled milliseconds of arrivals");
const SEED: Flag = Flag::valued("--seed", "S", "seed of the trace or first fuzz case");
const WORKERS: Flag = Flag::valued("--workers", "W", "warm worker SoCs");
const QUEUE: Flag = Flag::valued("--queue-depth", "D", "admission queue bound");
const SLO: Flag = Flag::valued("--slo-us", "U", "total-latency SLO, modeled µs");
const ARRIVALS: Flag = Flag::valued("--arrivals", "poisson|fixed", "arrival process");
const TIMEOUT: Flag = Flag::valued("--timeout-us", "U", "watchdog per attempt, modeled µs");
const RETRIES: Flag = Flag::valued("--retries", "N", "retry budget per request");
const FAULTS: Flag = Flag::valued(
    "--faults",
    "seed=S,flips=F,errors=E,spikes=P,spike-us=U,hangs=H,crashes=C",
    "seeded chaos plan",
);
const JSON: Flag = Flag::switch("--json", "print the modeled report as JSON");
const POOLS: Flag = Flag::valued("--pools", "CLASS[:k=v,..][;..]", "worker pools");
const ROUTE: Flag = Flag::valued("--route", "POLICY", "load-balancer policy");
const SHAPE: Flag = Flag::valued("--shape", "SHAPE", "traffic shape");
const SCALE_WIN: Flag = Flag::valued("--scale-window", "MS", "autoscaler SLO window");
const SCALE_UP: Flag = Flag::valued("--scale-up-below", "PCT", "grow under PCT% SLO");
const SCALE_DOWN: Flag = Flag::valued("--scale-down-above", "PCT", "shrink over PCT% SLO");
const SPOT: Flag = Flag::valued("--spot-windows", "K", "windows to spot-replay");
const WIN_FRAMES: Flag = Flag::valued("--window-frames", "N", "frames per window");
const BUDGET: Flag = Flag::valued("--budget", "N", "cases per target");
const SHRINK: Flag = Flag::switch("--shrink", "minimize a failing input");

/// One subcommand: its name, the metavar of its one bare argument (if
/// it takes one), the flags it accepts, its help prose and its body.
struct Command {
    name: &'static str,
    positional: Option<&'static str>,
    flags: &'static [Flag],
    help: &'static str,
    main: fn(&Args) -> Result<(), AnyError>,
}

/// Every subcommand, in usage-banner order.
const COMMANDS: [Command; 10] = [
    Command {
        name: "compile",
        positional: Some("<model>"),
        flags: &[FP16, UNFUSED, OUT],
        help: "Compile a zoo model; write config file, weight .bin,\n\
               assembly and program-memory .mem image.",
        main: cmd_compile,
    },
    Command {
        name: "run",
        positional: Some("<model>"),
        flags: &[FP16, UNFUSED, WFI, TIMING, REPEAT, TRACE, METRICS],
        help: "Run N bare-metal inferences on the co-simulated SoC;\n\
               repeats after the first reuse the resident weight image\n\
               (compile-once/run-many hot path). --trace-out writes a\n\
               Perfetto-loadable modeled-time trace, --metrics-out a\n\
               JSON metrics dump (docs/OBSERVABILITY.md).",
        main: cmd_run,
    },
    Command {
        name: "sweep",
        positional: Some("<model>"),
        flags: &[FP16, UNFUSED, CLOCKS, THREADS],
        help: "Timing-only system-clock sweep (wfi firmware) against\n\
               the 100 MHz MIG, fanned out across worker threads.\n\
               Default clocks: 50,100,150,200.",
        main: cmd_sweep,
    },
    Command {
        name: "batch",
        positional: None,
        flags: &[
            MODELS, FRAMES, POLICY, THREADS, PIPELINE, FUNCTIONAL, WFI, FP16, UNFUSED, TRACE,
            METRICS,
        ],
        help: "Keep every listed model resident in DRAM at disjoint\n\
               bases and drain an interleaved frame queue across them\n\
               on one SoC per worker thread (timing-only + wfi unless\n\
               --functional). --pipeline double-buffers the inputs:\n\
               frame N+1's preload streams during frame N's compute\n\
               and contends at the DRAM arbiter. Reports per-model\n\
               cycles, per-frame latency, arbiter contention and\n\
               end-to-end throughput.",
        main: cmd_batch,
    },
    Command {
        name: "serve",
        positional: None,
        flags: &[
            MODELS, RATE, DURATION, SEED, WORKERS, POLICY, PIPELINE, QUEUE, SLO, ARRIVALS, TIMEOUT,
            RETRIES, FAULTS, FP16, UNFUSED, JSON, TRACE, METRICS,
        ],
        help: "Open-loop serving: a seeded arrival trace (R req/s of\n\
               modeled time for MS ms) drains through a bounded\n\
               admission queue into W warm worker SoCs with every\n\
               model resident. Reports queue-wait/service/total\n\
               latency percentiles (p50/p95/p99), offered vs\n\
               achieved throughput, drops, and SLO attainment at\n\
               the --slo-us target; the dispatch plan is replayed\n\
               on real SoCs and cross-checked cycle-exactly.\n\
               --faults arms a seeded chaos plan (rates in events\n\
               per million frame attempts); --timeout-us bounds\n\
               each attempt (the watchdog) and --retries the retry\n\
               budget. See docs/RESILIENCE.md.",
        main: cmd_serve,
    },
    Command {
        name: "fleet",
        positional: None,
        flags: &[
            MODELS, POOLS, ROUTE, SHAPE, RATE, DURATION, SEED, SLO, SCALE_WIN, SCALE_UP,
            SCALE_DOWN, SPOT, WIN_FRAMES, FP16, UNFUSED, JSON, TRACE, METRICS,
        ],
        help: "Fleet-scale serving: a shaped arrival trace (--shape\n\
               steady|diurnal|bursty|flash-crowd) drains through a\n\
               front-end load balancer (--route weighted|least-loaded|\n\
               model-affinity) into heterogeneous pools of warm worker\n\
               SoCs, each with bounded admission and a reactive\n\
               autoscaler ([min..max] workers against a rolling SLO\n\
               window; every scale-up pays the pool's re-warm cost in\n\
               modeled time). Pool grammar, `;`-separated:\n\
               \x20 --pools \"nv_small:workers=2,queue=8;nv_full:workers=1,models=ResNet-50\"\n\
               (class nv_small|nv_full, keys workers|min|max|queue|models,\n\
               models `+`-separated). K windows of the dispatch plan are\n\
               spot-replayed on real per-pool SoCs and cross-checked\n\
               cycle-exactly. See docs/FLEET.md.",
        main: cmd_fleet,
    },
    Command {
        name: "fuzz",
        positional: Some("<target|all>"),
        flags: &[SEED, BUDGET, SHRINK],
        help: "Seeded differential fuzzing over the standing\n\
               contracts (targets riscv|bus|net|batch|serve|fleet).\n\
               Case i derives its input from seed S+i and checks the\n\
               target's oracle; with --shrink a failure is reduced to\n\
               a minimal input and printed as a one-line replay\n\
               command. --budget (or env RVNV_FUZZ_BUDGET) bounds the\n\
               cases per target; counterexamples are also written\n\
               under target/fuzz/. See docs/FUZZING.md.",
        main: cmd_fuzz,
    },
    Command {
        name: "traces",
        positional: None,
        flags: &[],
        help: "Run the standard NVDLA validation traces as firmware.",
        main: cmd_traces,
    },
    Command {
        name: "resources",
        positional: None,
        flags: &[],
        help: "Print the Table I resource model for nv_small/nv_full.",
        main: cmd_resources,
    },
    Command {
        name: "models",
        positional: None,
        flags: &[],
        help: "List the model zoo.",
        main: cmd_models,
    },
];

/// The usage banner: each command's synopsis (wrapped at 80 columns)
/// and help prose, then one help line per flag.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut out = format!("usage: rv-nvdla <{}> [options]\n\n", names.join("|"));
    let mut flags: Vec<&Flag> = Vec::new();
    for cmd in &COMMANDS {
        let mut line = format!(
            "{}{}",
            cmd.name,
            cmd.positional.map_or(String::new(), |p| format!(" {p}"))
        );
        for f in cmd.flags {
            let form = if f.required {
                f.form()
            } else {
                format!("[{}]", f.form())
            };
            if line.len() + 1 + form.len() > 80 {
                out += &line;
                out.push('\n');
                line = " ".repeat(cmd.name.len());
            }
            line += &format!(" {form}");
            if !flags.iter().any(|g| g.name == f.name) {
                flags.push(f);
            }
        }
        let _ = writeln!(out, "{line}");
        for help in cmd.help.lines() {
            let _ = writeln!(out, "\t{help}");
        }
    }
    out += "\nflags:\n";
    for f in flags {
        let _ = writeln!(out, "  {:18}  {}", f.name, f.help);
    }
    out
}

/// A command line parsed once against its [`Command`]: the bare
/// argument, if any, and each flag given with its value.
struct Args<'a> {
    cmd: &'static Command,
    positional: Option<&'a str>,
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Parse `raw` left to right. A value flag consumes the next
    /// argument whatever it looks like; anything else starting with `-`
    /// must be one of the command's flags, given at most once.
    fn parse(cmd: &'static Command, raw: &'a [String]) -> Result<Self, AnyError> {
        let mut args = Args {
            cmd,
            positional: None,
            given: Vec::new(),
        };
        let mut raw = raw.iter();
        while let Some(a) = raw.next() {
            if !a.starts_with('-') {
                if cmd.positional.is_none() || args.positional.is_some() {
                    return Err(format!(
                        "unexpected argument `{a}` for `{}` ({} expected)",
                        cmd.name,
                        match cmd.positional {
                            None => "no positional argument",
                            Some(_) => "at most 1",
                        }
                    )
                    .into());
                }
                args.positional = Some(a);
                continue;
            }
            let Some(flag) = cmd.flags.iter().find(|f| f.name == a) else {
                let mut accepted: Vec<&str> = cmd.flags.iter().map(|f| f.name).collect();
                accepted.sort_unstable();
                if accepted.is_empty() {
                    accepted.push("none");
                }
                return Err(format!(
                    "unknown flag `{a}` for `{}` (accepted: {})",
                    cmd.name,
                    accepted.join(", ")
                )
                .into());
            };
            if args.given.iter().any(|&(name, _)| name == flag.name) {
                return Err(format!("flag `{a}` given more than once for `{}`", cmd.name).into());
            }
            let value = match flag.value {
                Some(_) => Some(raw.next().ok_or_else(|| format!("{a} needs a value"))?),
                None => None,
            };
            args.given.push((flag.name, value.map(String::as_str)));
        }
        match cmd.flags.iter().find(|f| f.required && !args.has(f)) {
            Some(missing) => Err(format!("{} needs {}", cmd.name, missing.form()).into()),
            None => Ok(args),
        }
    }

    /// `Some(value)` when `flag` was given (`value` is `None` for a
    /// switch). Reading a flag the command does not declare is a bug.
    fn get(&self, flag: &Flag) -> Option<Option<&'a str>> {
        debug_assert!(
            self.cmd.flags.iter().any(|f| f.name == flag.name),
            "`{}` reads undeclared flag {}",
            self.cmd.name,
            flag.name
        );
        self.given
            .iter()
            .find(|&&(name, _)| name == flag.name)
            .map(|&(_, value)| value)
    }

    fn has(&self, flag: &Flag) -> bool {
        self.get(flag).is_some()
    }

    fn value(&self, flag: &Flag) -> Option<&'a str> {
        self.get(flag).flatten()
    }

    /// `flag`'s value as a number of the caller's integer type.
    fn number<T: FromStr>(&self, flag: &Flag) -> Result<Option<T>, AnyError> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad {} `{v}`", flag.name).into())
            })
            .transpose()
    }

    /// `flag`'s value as a number that must be at least 1; `what` says
    /// why 0 makes no sense.
    fn positive<T: FromStr + From<u8> + PartialEq>(
        &self,
        flag: &Flag,
        what: &str,
    ) -> Result<Option<T>, AnyError> {
        match self.number(flag)? {
            Some(n) if n == T::from(0) => {
                Err(format!("{} must be >= 1 ({what})", flag.name).into())
            }
            other => Ok(other),
        }
    }
}

fn find_model(name: &str) -> Result<Model, AnyError> {
    // Accept both the paper's spelling ("LeNet-5") and the file-stem
    // spelling the compiler emits ("lenet5").
    fn norm(s: &str) -> String {
        s.chars()
            .filter(|c| !matches!(c, '-' | '_'))
            .collect::<String>()
            .to_ascii_lowercase()
    }
    Model::ALL
        .into_iter()
        .find(|m| norm(m.name()) == norm(name))
        .ok_or_else(|| format!("unknown model `{name}`; try `rv-nvdla models`").into())
}

/// The zoo model named by the command's `<model>` argument.
fn model_arg(args: &Args) -> Result<Model, AnyError> {
    find_model(args.positional.ok_or("missing model name")?)
}

/// INT8 calibrated on a single input: the CLI's default precision.
fn int8_options() -> CompileOptions {
    let mut o = CompileOptions::int8();
    o.calib_inputs = 1;
    o
}

/// The compile options `--fp16` and `--unfused` select.
fn compile_options(args: &Args) -> CompileOptions {
    let opt = if args.has(&FP16) {
        CompileOptions::fp16()
    } else {
        int8_options()
    };
    if args.has(&UNFUSED) {
        opt.unfused()
    } else {
        opt
    }
}

/// `--threads N`, defaulting to the host's available parallelism.
fn threads(args: &Args) -> Result<usize, AnyError> {
    Ok(args.number(&THREADS)?.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }))
}

/// The observability sinks shared by `run`/`batch`/`serve`/`fleet`:
/// `--trace-out FILE` (Chrome-trace/Perfetto JSON of the modeled-time
/// spans) and `--metrics-out FILE` (the unified metrics snapshot). See
/// docs/OBSERVABILITY.md.
struct ObsOut {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    tracer: Tracer,
}

impl ObsOut {
    /// Parse the two flags. The tracer is armed only when `--trace-out`
    /// asks for spans — disarmed, every emission site in the simulators
    /// is a single branch, and arming never changes a modeled cycle.
    fn from_args(args: &Args) -> ObsOut {
        let trace_out = args.value(&TRACE).map(PathBuf::from);
        let metrics_out = args.value(&METRICS).map(PathBuf::from);
        let tracer = if trace_out.is_some() {
            Tracer::armed()
        } else {
            Tracer::disarmed()
        };
        ObsOut {
            trace_out,
            metrics_out,
            tracer,
        }
    }

    /// Whether `--metrics-out` asked for a metrics dump.
    fn wants_metrics(&self) -> bool {
        self.metrics_out.is_some()
    }

    /// Write whichever sinks were requested: the trace with its µs
    /// timestamps denominated at `soc_hz`, and the metrics snapshot.
    /// Quiet on stdout so `--json` output stays machine-parseable.
    fn write(&self, soc_hz: u64, metrics: &MetricsRegistry) -> Result<(), AnyError> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, to_chrome_json(&self.tracer.snapshot(), soc_hz))?;
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, format!("{}\n", metrics.snapshot().to_json()))?;
        }
        Ok(())
    }
}

fn cmd_compile(args: &Args) -> Result<(), AnyError> {
    let model = model_arg(args)?;
    let opt = compile_options(args);
    let out_dir = PathBuf::from(args.value(&OUT).unwrap_or("."));
    std::fs::create_dir_all(&out_dir)?;

    let net = model.build(1);
    let artifacts = compile(&net, &opt)?;
    let fw = Firmware::build(&artifacts)?;
    let stem = model.name().to_lowercase().replace('-', "");

    let config_path = out_dir.join(format!("{stem}.cfg"));
    std::fs::write(&config_path, write_config_file(&artifacts.commands))?;
    let weights_path = out_dir.join(format!("{stem}_weights.bin"));
    std::fs::write(&weights_path, artifacts.weights.to_bin())?;
    let asm_path = out_dir.join(format!("{stem}.s"));
    std::fs::write(&asm_path, &fw.assembly)?;
    let mem_path = out_dir.join(format!("{stem}.mem"));
    std::fs::write(&mem_path, fw.to_mem_format())?;

    println!(
        "{}: {} ops, {} commands -> {}, {}, {}, {}",
        model.name(),
        artifacts.ops.len(),
        artifacts.commands.len(),
        config_path.display(),
        weights_path.display(),
        asm_path.display(),
        mem_path.display()
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), AnyError> {
    let model = model_arg(args)?;
    let opt = compile_options(args);
    let repeat: u64 = args.number(&REPEAT)?.unwrap_or(1).max(1);
    let obs = ObsOut::from_args(args);
    let net = model.build(1);
    // The cache is trivially one entry here; `run` goes through it so
    // the CLI exercises the same path a long-lived server would.
    let cache = ArtifactCache::new();
    let artifacts = cache.get_or_compile(&net, &opt)?;
    let mut config = if args.has(&TIMING) {
        SocConfig::zcu102_timing_only()
    } else {
        SocConfig::zcu102_nv_small()
    };
    config.hw = opt.hw.clone();
    if obs.tracer.is_armed() {
        // Per-op child spans come from the captured timeline.
        config.capture_timeline = true;
    }
    let soc_hz = config.soc_hz;
    let metrics = MetricsRegistry::new();
    let mut soc = Soc::new(config);
    if obs.tracer.is_armed() {
        let track = obs.tracer.track("soc", TrackKind::Sync);
        soc.set_tracer(obs.tracer.clone(), track);
    }
    let input = Tensor::random(net.input_shape(), 7);
    let input_bytes = artifacts.quantize_input(&input);
    let wfi = args.has(&WFI);
    let codegen = CodegenOptions {
        wait_mode: if wfi { WaitMode::Wfi } else { WaitMode::Poll },
        ..CodegenOptions::default()
    };
    let fw = Firmware::build_with(&artifacts, codegen)?;

    let cold_start = Instant::now();
    let result = soc.run_firmware(&artifacts, &input_bytes, &fw)?;
    let cold_host = cold_start.elapsed();
    if obs.wants_metrics() {
        result.publish(&metrics);
    }
    println!(
        "{}: {} cycles = {:.2} ms @100 MHz | {} instructions | firmware {} B | class {}",
        model.name(),
        result.cycles,
        result.latency_ms(100_000_000),
        result.instructions,
        result.firmware_bytes,
        result.output.argmax()
    );
    if !result.timeline.is_empty() {
        println!("per-op timeline (first 8):");
        for op in result.timeline.iter().take(8) {
            println!(
                "  {:8} {:>9} .. {:>9}  ({} cycles)",
                op.block.name(),
                op.start,
                op.done,
                op.done - op.start
            );
        }
    }
    if repeat > 1 {
        // Warm repeats: weights stay resident, firmware and quantized
        // input are reused; every run must replay identical cycles.
        let warm_start = Instant::now();
        let mut cache_stats = result.block_cache;
        let mut elided_polls = result.elided_polls;
        for i in 1..repeat {
            let warm = soc.run_firmware(&artifacts, &input_bytes, &fw)?;
            if obs.wants_metrics() {
                warm.publish(&metrics);
            }
            if warm.cycles != result.cycles || warm.raw_output != result.raw_output {
                return Err(format!(
                    "warm run {i} diverged: {} cycles vs {}",
                    warm.cycles, result.cycles
                )
                .into());
            }
            cache_stats = warm.block_cache;
            elided_polls = warm.elided_polls;
        }
        let warm_host = warm_start.elapsed() / (repeat - 1) as u32;
        println!(
            "repeat x{repeat}: all warm runs bit-identical | host {:.2} ms cold, {:.2} ms warm ({:.1}x)",
            cold_host.as_secs_f64() * 1e3,
            warm_host.as_secs_f64() * 1e3,
            cold_host.as_secs_f64() / warm_host.as_secs_f64().max(1e-9),
        );
        println!(
            "block cache: {} hits, {} misses per warm run | {} status polls elided by the read lease",
            cache_stats.hits, cache_stats.misses, elided_polls,
        );
    }
    obs.write(soc_hz, &metrics)?;
    Ok(())
}

/// One point of a `sweep`: system clock in MHz plus its measured result.
struct SweepRow {
    soc_mhz: u64,
    cycles: u64,
    ms: f64,
}

fn cmd_sweep(args: &Args) -> Result<(), AnyError> {
    let model = model_arg(args)?;
    let opt = compile_options(args);
    let clocks: Vec<u64> = match args.value(&CLOCKS) {
        None => vec![50, 100, 150, 200],
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad clock `{s}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    if clocks.is_empty() || clocks.contains(&0) {
        return Err("clock list must be nonempty and nonzero".into());
    }
    let threads = threads(args)?.clamp(1, clocks.len());

    let net = model.build(1);
    let cache = ArtifactCache::new();
    let artifacts = cache.get_or_compile(&net, &opt)?;
    // Sweep points exist for timing throughput: wfi firmware retires
    // ~100x fewer instructions than the poll loop at near-identical
    // modeled latency, so it is the sweep wait mode.
    let fw = Firmware::build_with(
        &artifacts,
        CodegenOptions {
            wait_mode: WaitMode::Wfi,
            ..CodegenOptions::default()
        },
    )?;
    let input = Tensor::random(net.input_shape(), 7);
    let input_bytes = artifacts.quantize_input(&input);

    // Fan the sweep points out across worker threads: each worker owns
    // its SoC, all share the compiled artifacts and firmware.
    let start = Instant::now();
    let results = rvnv_soc::sweep::fan_out(clocks.len(), threads, |i| {
        let soc_mhz = clocks[i];
        let mut config = SocConfig::zcu102_timing_only();
        config.hw = opt.hw.clone();
        config.soc_hz = soc_mhz * 1_000_000;
        let mut soc = Soc::new(config);
        soc.run_firmware(&artifacts, &input_bytes, &fw)
            .map(|r| SweepRow {
                soc_mhz,
                cycles: r.cycles,
                ms: r.cycles as f64 * 1000.0 / (soc_mhz as f64 * 1e6),
            })
            .map_err(|e| format!("{soc_mhz} MHz: {e}"))
    });
    let mut rows: Vec<SweepRow> = Vec::with_capacity(clocks.len());
    for row in results {
        rows.push(row.map_err(|e| -> AnyError { e.into() })?);
    }
    rows.sort_by_key(|r| r.soc_mhz);

    println!(
        "{} timing-only sweep vs 100 MHz MIG DDR4 ({} points, {} threads, host {:.0} ms):",
        model.name(),
        rows.len(),
        threads,
        start.elapsed().as_secs_f64() * 1e3,
    );
    println!("  soc clock   cycles         latency      fps");
    for r in &rows {
        println!(
            "  {:>6} MHz  {:>12}  {:>9.2} ms  {:>7.1}",
            r.soc_mhz,
            r.cycles,
            r.ms,
            1000.0 / r.ms
        );
    }
    Ok(())
}

/// Parse the `--models A,B[,..]` list: every entry must name a zoo
/// model, the list must be nonempty, and a model may appear only once
/// (two copies of one model cannot be resident at one base — compile
/// different seeds as different models instead).
fn parse_model_list(args: &Args) -> Result<Vec<Model>, AnyError> {
    let names: Vec<&str> = args
        .value(&MODELS)
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .collect();
    if names.is_empty() {
        return Err("--models list must not be empty".into());
    }
    let mut models: Vec<Model> = Vec::with_capacity(names.len());
    for name in names {
        let model = find_model(name)?;
        if models.contains(&model) {
            return Err(format!(
                "duplicate model `{name}` in --models (each model can be resident once)"
            )
            .into());
        }
        models.push(model);
    }
    Ok(models)
}

fn cmd_batch(args: &Args) -> Result<(), AnyError> {
    let models = parse_model_list(args)?;
    let obs = ObsOut::from_args(args);
    let metrics = MetricsRegistry::new();
    let frames: usize = args
        .positive(&FRAMES, "an empty batch serves nothing")?
        .unwrap_or(16);
    let policy: Policy = args.value(&POLICY).unwrap_or("rr").parse()?;
    let pipeline = args.has(&PIPELINE);
    let threads = threads(args)?.clamp(1, frames);
    let functional = args.has(&FUNCTIONAL);
    let opt = compile_options(args);
    // The server flow is timing throughput; wfi firmware is its wait
    // mode (as in `sweep`). `--functional` computes real outputs with
    // the poll firmware `run` uses, unless `--wfi` asks otherwise.
    let wfi = args.has(&WFI) || !functional;
    let mut config = if functional {
        SocConfig::zcu102_nv_small()
    } else {
        SocConfig::zcu102_timing_only()
    };
    config.hw = opt.hw.clone();
    let codegen = CodegenOptions {
        wait_mode: if wfi { WaitMode::Wfi } else { WaitMode::Poll },
        ..CodegenOptions::default()
    };

    // Lay the models out at disjoint DRAM bases and build the frame
    // stream: frame i exercises model i % N with its own random input.
    let nets: Vec<_> = models.iter().map(|m| m.build(1)).collect();
    let cache = ArtifactCache::new();
    let artifacts = layout_models(&cache, &nets, &opt)?;
    let frame_stream: Vec<Frame> = (0..frames)
        .map(|i| {
            let m = i % models.len();
            let input = Tensor::random(nets[m].input_shape(), 1000 + i as u64);
            Frame {
                model: m,
                bytes: artifacts[m].quantize_input(&input),
            }
        })
        .collect();

    let start = Instant::now();
    let report = run_parallel(
        &config,
        policy,
        pipeline,
        &artifacts,
        codegen,
        &frame_stream,
        threads,
        &obs.tracer,
    )?;
    let host_ms = start.elapsed().as_secs_f64() * 1e3;

    println!(
        "batch: {} models resident, {} frames, policy {}, {}, {} worker SoC(s):",
        artifacts.len(),
        report.total_frames(),
        policy.name(),
        if report.pipelined {
            "pipelined preload"
        } else {
            "serial preload"
        },
        threads,
    );
    println!("  model       frames  cycles/frame  service lat   arbiter wait");
    for (name, stats) in &report.per_model {
        println!(
            "  {:10} {:>6}  {:>12}  {:>8.2} ms  {:>12}",
            name,
            stats.frames,
            stats.cycles_per_frame(),
            config.cycles_to_ms(stats.latency_per_frame()),
            stats.arbiter_wait,
        );
    }
    println!(
        "  total: {} cycles | modeled {:.1} frames/s compute, {:.1} e2e @{} MHz | warm frame {:.2} ms | host {:.0} ms ({:.1} frames/s)",
        report.total_cycles(),
        report.modeled_fps(config.soc_hz),
        report.e2e_fps(config.soc_hz),
        config.soc_hz / 1_000_000,
        config.cycles_to_ms(report.warm_frame_latency()),
        host_ms,
        // Both host numbers from the same interval (end to end,
        // including per-worker setup), so the pair is self-consistent.
        report.total_frames() as f64 / (host_ms / 1e3).max(1e-9),
    );
    if obs.wants_metrics() {
        report.publish(&metrics);
    }
    obs.write(config.soc_hz, &metrics)?;
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), AnyError> {
    let models = parse_model_list(args)?;
    let obs = ObsOut::from_args(args);
    let mut spec = ServeSpec::default();
    let rate = args.positive(&RATE, "a rate of 0 offers no load")?;
    spec.rate_rps = rate.unwrap_or(spec.rate_rps);
    let duration = args.positive(&DURATION, "modeled milliseconds of arrivals")?;
    spec.duration_ms = duration.unwrap_or(spec.duration_ms);
    spec.seed = args.number(&SEED)?.unwrap_or(spec.seed);
    let workers = args.positive(&WORKERS, "the pool needs a worker")?;
    spec.workers = workers.unwrap_or(spec.workers);
    let depth = args.positive(&QUEUE, "an unqueued server drops every burst")?;
    spec.queue_depth = depth.unwrap_or(spec.queue_depth);
    spec.slo_us = args.number(&SLO)?.unwrap_or(spec.slo_us);
    if let Some(p) = args.value(&POLICY) {
        spec.policy = p.parse()?;
    }
    if let Some(a) = args.value(&ARRIVALS) {
        spec.process = a.parse()?;
    }
    let timeout = args.positive(&TIMEOUT, "a zero deadline aborts every attempt at birth")?;
    spec.timeout_us = timeout.unwrap_or(spec.timeout_us);
    spec.retries = args.number(&RETRIES)?.unwrap_or(spec.retries);
    if let Some(f) = args.value(&FAULTS) {
        spec.faults = Some(f.parse::<FaultSpec>()?);
    }
    spec.pipelined = args.has(&PIPELINE);
    spec.validate()?;

    let opt = compile_options(args);
    // Serving is a timing flow: timing-only SoC, wfi firmware (as in
    // `sweep` and the default `batch`).
    let mut config = SocConfig::zcu102_timing_only();
    config.hw = opt.hw.clone();
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };

    let nets: Vec<_> = models.iter().map(|m| m.build(1)).collect();
    let cache = ArtifactCache::new();
    let artifacts = layout_models(&cache, &nets, &opt)?;
    let calib_start = Instant::now();
    let server = Server::new(config.clone(), artifacts, codegen)?;
    let calib_ms = calib_start.elapsed().as_secs_f64() * 1e3;
    let report = server.serve_traced(&spec, &obs.tracer)?;

    let metrics = MetricsRegistry::new();
    if obs.wants_metrics() {
        report.publish(&metrics);
    }
    obs.write(config.soc_hz, &metrics)?;
    if args.has(&JSON) {
        // Machine-readable report on stdout, nothing else: every field
        // is modeled (host wall-clock excluded), so two runs of the
        // same spec print byte-identical JSON.
        println!("{}", report.to_json());
        return Ok(());
    }

    let ms = |cycles: u64| config.cycles_to_ms(cycles);
    println!(
        "serve: {} model(s) resident, {} arrivals at {} req/s for {} ms (seed {}), \
         {} worker(s), policy {}, {}, queue depth {}:",
        report.per_model.len(),
        report.process.name(),
        report.rate_rps,
        spec.duration_ms,
        report.seed,
        report.workers,
        report.policy.name(),
        if report.pipelined {
            "pipelined preload"
        } else {
            "serial preload"
        },
        report.queue_depth,
    );
    println!("  latency (ms)     p50      p95      p99     mean      max");
    for (name, s) in [
        ("queue wait", report.queue_wait),
        ("service", report.service),
        ("total", report.total),
    ] {
        println!(
            "  {:12} {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}",
            name,
            ms(s.p50),
            ms(s.p95),
            ms(s.p99),
            ms(s.mean),
            ms(s.max),
        );
    }
    println!("  model       offered  served  dropped  p99 total");
    for m in &report.per_model {
        println!(
            "  {:10} {:>8}  {:>6}  {:>7}  {:>7.3} ms",
            m.name,
            m.offered,
            m.served,
            m.dropped,
            ms(m.total.p99),
        );
    }
    for (w, stats) in report.per_worker.iter().enumerate() {
        let util = if report.makespan_cycles == 0 {
            0.0
        } else {
            100.0 * stats.busy_cycles as f64 / report.makespan_cycles as f64
        };
        println!(
            "  worker {w}: {} frame(s), {util:.1}% busy over the {:.1} ms drain",
            stats.frames,
            ms(report.makespan_cycles),
        );
    }
    if spec.faults.is_some() || spec.timeout_us > 0 {
        let f = report.faults;
        println!(
            "  faults: {} injected (hangs {}, bus errors {}, corruptions {}, spikes {}, \
             crashes {}) | timeouts {} retries {} failovers {} sheds {} exhausted {}",
            f.injected(),
            f.hangs,
            f.bus_errors,
            f.corruptions_detected,
            f.spikes,
            f.crashes,
            f.timeouts,
            f.retries,
            f.failovers,
            f.sheds,
            f.exhausted,
        );
    }
    println!(
        "  offered {:.1} req/s -> achieved {:.1} req/s | dropped {} ({:.1}%) | \
         SLO {} us attained {:.1}% | replay divergence {} | calib {:.0} ms + serve host {:.0} ms",
        report.offered_rate(),
        report.achieved_rate(),
        report.dropped,
        100.0 * report.drop_rate(),
        spec.slo_us,
        100.0 * report.slo_attainment(),
        report.replay_divergence,
        calib_ms,
        report.host_seconds * 1e3,
    );
    Ok(())
}

fn cmd_fleet(args: &Args) -> Result<(), AnyError> {
    let models = parse_model_list(args)?;
    let obs = ObsOut::from_args(args);
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    let mut spec = FleetSpec::default();
    if let Some(s) = args.value(&POOLS) {
        spec.pools = parse_pools(s, &names)?;
    }
    if let Some(r) = args.value(&ROUTE) {
        spec.route = r.parse()?;
    }
    if let Some(s) = args.value(&SHAPE) {
        spec.shape = s.parse()?;
    }
    let rate = args.positive(&RATE, "a rate of 0 offers no load")?;
    spec.rate_rps = rate.unwrap_or(spec.rate_rps);
    let duration = args.positive(&DURATION, "modeled milliseconds of arrivals")?;
    spec.duration_ms = duration.unwrap_or(spec.duration_ms);
    spec.seed = args.number(&SEED)?.unwrap_or(spec.seed);
    spec.slo_us = args.number(&SLO)?.unwrap_or(spec.slo_us);
    spec.scale_window_ms = args.number(&SCALE_WIN)?.unwrap_or(spec.scale_window_ms);
    spec.scale_up_below = args.number(&SCALE_UP)?.unwrap_or(spec.scale_up_below);
    spec.scale_down_above = args.number(&SCALE_DOWN)?.unwrap_or(spec.scale_down_above);
    spec.spot_windows = args.number(&SPOT)?.unwrap_or(spec.spot_windows);
    spec.window_frames = args.number(&WIN_FRAMES)?.unwrap_or(spec.window_frames);
    spec.validate(models.len())?;

    // Fail the class/model mismatch before paying for compilation:
    // nv_small cannot host the larger zoo models.
    for (i, p) in spec.pools.iter().enumerate() {
        if p.class != SocClass::NvSmall {
            continue;
        }
        let resident = p
            .models
            .clone()
            .unwrap_or_else(|| (0..models.len()).collect());
        for m in resident {
            if !Model::NV_SMALL.contains(&models[m]) {
                return Err(format!(
                    "pool {i} (nv_small): model `{}` is nv_full-only — give it an nv_full \
                     pool or restrict this pool's models= list (see `rv-nvdla models`)",
                    models[m].name()
                )
                .into());
            }
        }
    }

    let opt = compile_options(args);
    // Fleet serving is a timing flow (wfi firmware, timing-only SoCs);
    // the per-pool hardware class overrides `opt.hw` inside `Fleet::new`.
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    let nets: Vec<_> = models.iter().map(|m| m.build(1)).collect();
    let calib_start = Instant::now();
    let fleet = Fleet::new(&nets, &opt, codegen, &spec)?;
    let calib_ms = calib_start.elapsed().as_secs_f64() * 1e3;
    let report = fleet.run_traced(&spec, &obs.tracer)?;

    let metrics = MetricsRegistry::new();
    if obs.wants_metrics() {
        report.publish(&metrics);
    }
    obs.write(report.soc_hz, &metrics)?;
    if args.has(&JSON) {
        // Machine-readable report on stdout, nothing else: every field
        // is modeled (host wall-clock excluded), so two runs of the
        // same spec print byte-identical JSON.
        println!("{}", report.to_json());
        return Ok(());
    }

    let ms = |cycles: u64| cycles as f64 * 1e3 / report.soc_hz as f64;
    println!(
        "fleet: {} model(s) across {} pool(s), route {}, {} arrivals at {} req/s for {} ms (seed {}):",
        models.len(),
        report.per_pool.len(),
        report.route.name(),
        report.shape.name(),
        report.rate_rps,
        spec.duration_ms,
        report.seed,
    );
    println!("  pool  class     workers              routed  served  dropped  p99 total     SLO%  models");
    for (i, p) in report.per_pool.iter().enumerate() {
        let journey = format!(
            "{} -> {} [{}..{}] +{}/-{}",
            p.workers_start,
            p.workers_final,
            spec.pools[i].min_workers,
            spec.pools[i].max_workers,
            p.scale_ups,
            p.scale_downs,
        );
        let slo_pct = if p.routed == 0 {
            100.0
        } else {
            100.0 * p.slo_attained as f64 / p.routed as f64
        };
        let resident = p
            .models
            .iter()
            .map(|&m| models[m].name())
            .collect::<Vec<_>>()
            .join("+");
        println!(
            "  {i:>4}  {:8}  {journey:<19} {:>6}  {:>6}  {:>7}  {:>7.3} ms  {slo_pct:>5.1}  {resident}",
            p.class.name(),
            p.routed,
            p.served,
            p.dropped,
            ms(p.total.p99),
        );
    }
    println!("  latency (ms)     p50      p95      p99     mean      max");
    for (name, s) in [
        ("queue wait", report.queue_wait),
        ("service", report.service),
        ("total", report.total),
    ] {
        println!(
            "  {name:12} {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}",
            ms(s.p50),
            ms(s.p95),
            ms(s.p99),
            ms(s.mean),
            ms(s.max),
        );
    }
    println!(
        "  offered {:.1} req/s -> achieved {:.1} req/s | dropped {} ({:.1}%) | shed {} | \
         SLO {} us attained {:.1}% | spot replay {} frame(s), divergence {} | \
         calib {:.0} ms + fleet host {:.0} ms",
        report.offered_rate(),
        report.achieved_rate(),
        report.dropped,
        100.0 * report.drop_rate(),
        report.shed,
        spec.slo_us,
        100.0 * report.slo_attainment(),
        report.replayed_frames,
        report.replay_divergence,
        calib_ms,
        report.host_seconds * 1e3,
    );
    Ok(())
}

fn cmd_fuzz(args: &Args) -> Result<(), AnyError> {
    let target = args
        .positional
        .ok_or("missing fuzz target (one of riscv|bus|net|batch|serve|fleet|all)")?;
    let seed: u64 = args.number(&SEED)?.unwrap_or(1);
    let budget = match args.number(&BUDGET)? {
        Some(b) => b,
        None => match std::env::var("RVNV_FUZZ_BUDGET") {
            Ok(v) => v
                .parse()
                .map_err(|_| format!("bad RVNV_FUZZ_BUDGET `{v}`"))?,
            Err(_) => 100,
        },
    };
    if budget == 0 {
        return Err("bad --budget `0` (must be >= 1)".into());
    }
    let do_shrink = args.has(&SHRINK);
    let started = Instant::now();
    let reports = rvnv_fuzz::run(target, seed, budget, do_shrink)?;
    let mut failures = 0usize;
    for r in &reports {
        match &r.counterexample {
            None => println!(
                "fuzz {:<6} ok: {} cases passed (seeds {}..={})",
                r.target,
                r.executed,
                r.base_seed,
                r.base_seed.wrapping_add(r.budget - 1),
            ),
            Some(cx) => {
                failures += 1;
                println!(
                    "fuzz {:<6} FAILED at seed {} after {} cases",
                    r.target, cx.seed, r.executed
                );
                println!("  oracle: {}", cx.message);
                println!(
                    "  input shrank {} -> {} elements; minimized:",
                    cx.size_orig, cx.size_min
                );
                for line in cx.minimized.lines() {
                    println!("    {line}");
                }
                println!("  repro: {}", cx.repro);
                // Persist the counterexample so CI can upload it.
                let dir = PathBuf::from("target/fuzz");
                std::fs::create_dir_all(&dir)?;
                let path = dir.join(format!("{}.counterexample.txt", r.target));
                std::fs::write(
                    &path,
                    format!(
                        "target: {}\nseed: {}\nsize: {} -> {}\noracle: {}\nrepro: {}\n\n{}\n",
                        cx.target,
                        cx.seed,
                        cx.size_orig,
                        cx.size_min,
                        cx.message,
                        cx.repro,
                        cx.minimized
                    ),
                )?;
                println!("  written: {}", path.display());
            }
        }
    }
    println!(
        "fuzz: {}/{} targets clean in {:.1}s",
        reports.len() - failures,
        reports.len(),
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        return Err(format!(
            "fuzz found {failures} counterexample(s); replay with the printed `rv-nvdla fuzz` \
             command(s)"
        )
        .into());
    }
    Ok(())
}

fn cmd_traces(_: &Args) -> Result<(), AnyError> {
    for trace in rvnv_compiler::traces::all() {
        let asm = rvnv_compiler::codegen::generate_assembly(&trace.commands);
        let image = rvnv_riscv::assemble(&asm)?;
        let fw = Firmware {
            assembly: asm,
            image,
        };
        // Minimal artifacts shell for the harness.
        let net = rv_nvdla::prelude::Model::LeNet5.build(1);
        let mut artifacts = compile(&net, &int8_options())?;
        artifacts.commands = trace.commands.clone();
        artifacts.weights = trace.preload.clone();
        artifacts.input_len = 0;
        artifacts.output_len = 0;
        artifacts.output_shape = rvnv_nn::Shape::new(0, 0, 0);

        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let result = soc.run_firmware(&artifacts, &[], &fw)?;
        let mut ok = true;
        for (addr, bytes) in &trace.expect {
            ok &= soc.with_dram_peek(*addr, bytes.len(), |got| got == bytes.as_slice());
        }
        println!(
            "trace {:12} {} ({} commands, {} cycles)",
            trace.name,
            if ok { "PASS" } else { "FAIL" },
            trace.commands.len(),
            result.cycles
        );
        if !ok {
            return Err(format!("trace {} failed", trace.name).into());
        }
    }
    Ok(())
}

fn cmd_resources(_: &Args) -> Result<(), AnyError> {
    use rvnv_soc::resources;
    for cfg in [
        rvnv_nvdla::HwConfig::nv_small(),
        rvnv_nvdla::HwConfig::nv_full(),
    ] {
        let u = resources::nvdla(&cfg);
        println!(
            "{:9} LUT {:>7}  Regs {:>7}  BRAM {:>4}  DSP {:>5}  fits ZCU102: {}",
            cfg.name,
            u.lut,
            u.regs,
            u.bram,
            u.dsp,
            resources::fits_zcu102(&u)
        );
    }
    Ok(())
}

fn cmd_models(_: &Args) -> Result<(), AnyError> {
    for m in Model::ALL {
        let net = m.build(1);
        let nv_small = if Model::NV_SMALL.contains(&m) {
            "nv_small+nv_full"
        } else {
            "nv_full only"
        };
        println!(
            "{:10} input {:10} layers {:4} ({nv_small})",
            m.name(),
            net.input_shape().to_string(),
            net.layer_count()
        );
    }
    Ok(())
}
