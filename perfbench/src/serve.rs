//! `serve_plan`: capacity planning over LeNet-5 and ResNet-18 on
//! `nv_small` and `nv_full`. Each pass plans a fixed matrix over two
//! minutes of modeled open-loop traffic, then replays a few short plans
//! on real SoCs (`Server::serve`, `Fleet::run`).

use std::sync::Arc;

use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{ArtifactCache, Artifacts, CompileOptions};
use rvnv_nn::zoo::Model;
use rvnv_obs::{Json, Tracer};
use rvnv_soc::batch::{layout_models, Policy};
use rvnv_soc::fleet::{
    Fleet, FleetReport, FleetSpec, PoolSpec, RoutePolicy, SocClass, TrafficShape,
};
use rvnv_soc::serve::{ArrivalProcess, FaultSpec, ServeReport, ServeSpec, Server};
use rvnv_soc::soc::SocConfig;
use rvnv_util::Fnv;

use crate::arith::{knee_rps, SweepPoint};
use crate::{derive_seed, Cx, Pass, Workload};

/// Modeled length of every planned trace: two minutes.
const PLAN_MS: u64 = 120_000;
/// Modeled length of the replayed traces.
const REPLAY_MS: u64 = 300;
const SLO_US: u64 = 20_000;
/// The knee sweep, req/s. The 20 req/s grid keeps the knee a property
/// of the server rather than of the seed: the 1-worker serial p99 sits
/// about a millisecond inside the SLO at 100 req/s and just past it at
/// 120 req/s for every seed, while rates in between pass or fail by seed.
const KNEE_RATES: [u64; 10] = [20, 40, 60, 80, 100, 120, 140, 160, 180, 200];
/// Offered rates below and above the 1-worker knee.
const MATRIX_RATES: [u64; 2] = [80, 160];
const CHAOS_RATES: [u64; 2] = [80, 200];
const FLEET_RATE: u64 = 400;

pub struct State {
    small: Server,
    full: Server,
    fleet: Fleet,
    fleet_base: FleetSpec,
    /// Per-op modeled digests of pass 0, which later passes must repeat.
    baseline: Option<Vec<u64>>,
    knee: Option<u64>,
}

pub struct Plan;

fn serve_spec(seed: u64, rate_rps: u64) -> ServeSpec {
    ServeSpec {
        process: ArrivalProcess::Poisson,
        rate_rps,
        duration_ms: PLAN_MS,
        seed,
        workers: 1,
        policy: Policy::RoundRobin,
        pipelined: false,
        queue_depth: 8,
        slo_us: SLO_US,
        timeout_us: 0,
        retries: 0,
        faults: None,
    }
}

/// Digest of a report's modeled fields (its JSON form omits host time).
fn digest(report: &Json) -> u64 {
    let mut h = Fnv::new();
    h.str(&report.to_string());
    h.finish()
}

/// Books that must balance in every serve report.
fn serve_books(r: &ServeReport) -> Result<(), String> {
    let f = &r.faults;
    if r.offered != r.served + r.dropped {
        return Err(format!(
            "offered {} != served {} + dropped {}",
            r.offered, r.served, r.dropped
        ));
    }
    if f.timeouts + f.bus_errors + f.corruptions_detected + f.crashes
        != f.retries + f.failovers + f.sheds + f.exhausted
    {
        return Err(format!("fault books do not balance: {f:?}"));
    }
    if r.slo_attained > r.served || r.offered == 0 {
        return Err(format!(
            "{} of {} served within SLO",
            r.slo_attained, r.served
        ));
    }
    Ok(())
}

fn fleet_books(r: &FleetReport) -> Result<(), String> {
    if r.offered == 0 || r.served + r.dropped + r.shed != r.offered {
        return Err(format!(
            "offered {} != served {} + dropped {} + shed {}",
            r.offered, r.served, r.dropped, r.shed
        ));
    }
    match r.per_pool.iter().find(|p| p.routed != p.served + p.dropped) {
        Some(p) => Err(format!("pool {} books do not balance", p.class.name())),
        None => Ok(()),
    }
}

/// The modeled-cycle tracer for one plan: armed in the traced pass, but
/// private to the call, since two minutes of traffic make far more spans
/// than a span file should hold.
fn plan_tracer(cx: &Cx) -> Tracer {
    if cx.traced {
        Tracer::armed()
    } else {
        Tracer::disarmed()
    }
}

/// A plan's modeled spans must form a valid trace; they are dropped
/// after the check.
fn check_spans(cx: &mut Cx, tracer: Tracer) -> Result<(), String> {
    if !tracer.is_armed() {
        return Ok(());
    }
    let (checked, _) = cx.host.time("obs.validate", "plan spans", || {
        let trace = tracer.snapshot();
        drop(tracer);
        trace.validate()?;
        if trace.spans.is_empty() {
            return Err("the armed tracer recorded no spans".to_string());
        }
        Ok(())
    });
    checked
}

impl Plan {
    /// Plan one serve spec as one op.
    fn plan(
        &self,
        cx: &mut Cx,
        server: &Server,
        spec: &ServeSpec,
        label: &str,
        digests: &mut Vec<u64>,
    ) -> Option<ServeReport> {
        cx.host.next_op();
        let op = cx.host.begin("bench.op", label);
        if cx.traced {
            let _ = cx.host.time("serve.trace", label, || server.trace(spec));
        }
        let tracer = plan_tracer(cx);
        let (r, _) = cx
            .host
            .time("serve.plan", label, || server.plan_traced(spec, &tracer));
        let spans = check_spans(cx, tracer);
        cx.host.end(op);
        let r = r
            .map_err(|e| e.to_string())
            .and_then(|r| serve_books(&r).map(|()| r))
            .and_then(|r| spans.map(|()| r));
        match r {
            Ok(r) => {
                let d = digest(&r.to_json());
                cx.modeled.mix(d);
                digests.push(d);
                cx.count("serve.requests", r.offered as f64);
                cx.count("serve.dropped", r.dropped as f64);
                cx.count("serve.retries", r.faults.retries as f64);
                cx.check(label, Ok(()));
                Some(r)
            }
            Err(e) => {
                digests.push(0);
                cx.check(label, Err(e));
                None
            }
        }
    }

    fn replay(&self, cx: &mut Cx, server: &Server, spec: &ServeSpec, label: &str) -> f64 {
        cx.host.next_op();
        let op = cx.host.begin("bench.op", label);
        if cx.traced {
            let _ = cx
                .host
                .time("serve.replay_plan", label, || server.plan(spec));
        }
        let (r, t) = cx.host.time("serve.serve", label, || {
            server.serve_traced(spec, &cx.tracer)
        });
        cx.host.end(op);
        let checked = match r {
            Ok(r) if r.replay_divergence == 0 && r.served > 0 => {
                cx.modeled.mix(digest(&r.to_json()));
                cx.count("serve.replay_frames", r.served as f64);
                Ok(())
            }
            Ok(r) => Err(format!(
                "replay divergence {} over {} frames",
                r.replay_divergence, r.served
            )),
            Err(e) => Err(e.to_string()),
        };
        cx.check(label, checked);
        t
    }
}

impl Workload for Plan {
    type State = State;
    const SETUP_REPEATS: usize = 9;
    const STAGE_NAMES: [&'static str; 2] =
        ["the serve and fleet plan matrix", "the four real replays"];

    fn setup(&self, cx: &mut Cx) -> State {
        let wfi = CodegenOptions {
            wait_mode: WaitMode::Wfi,
            ..CodegenOptions::default()
        };
        let mut int8 = CompileOptions::int8();
        int8.calib_inputs = 1;
        let fp16 = CompileOptions::fp16();
        cx.host.next_op();
        let op = cx.host.begin("bench.op", "set-up");
        let (nets, _) = cx.host.time("nn.build", "LeNet-5, ResNet-18", || {
            vec![Model::LeNet5.build(1), Model::ResNet18.build(1)]
        });
        for net in &nets {
            cx.attribute_calibration(net.name(), net, &int8);
        }
        let layout = |cx: &mut Cx, opt: &CompileOptions, label| -> Vec<Arc<Artifacts>> {
            let (a, _) = cx.host.time("compiler.compile", label, || {
                layout_models(&ArtifactCache::new(), &nets, opt)
            });
            a.expect("LeNet-5 and ResNet-18 compile")
        };
        let small_set = layout(cx, &int8, "nv_small int8");
        let full_set = layout(cx, &fp16, "nv_full fp16");
        let (small, _) = cx.host.time("serve.calibrate", "nv_small", || {
            Server::new(SocConfig::zcu102_timing_only(), small_set, wfi)
        });
        let (full, _) = cx.host.time("serve.calibrate", "nv_full", || {
            Server::new(SocConfig::zcu102_nv_full_timing_only(), full_set, wfi)
        });
        // Two pools and one spot window each: the replay fan-out runs two
        // threads, within this machine class's two cores.
        let fleet_base = FleetSpec {
            pools: vec![
                PoolSpec {
                    class: SocClass::NvSmall,
                    workers: 1,
                    min_workers: 1,
                    max_workers: 3,
                    queue_depth: 8,
                    models: None,
                },
                PoolSpec {
                    class: SocClass::NvFull,
                    workers: 1,
                    min_workers: 1,
                    max_workers: 2,
                    queue_depth: 8,
                    models: None,
                },
            ],
            rate_rps: FLEET_RATE,
            duration_ms: PLAN_MS,
            seed: cx.input_seed(0, 900),
            slo_us: SLO_US,
            spot_windows: 1,
            window_frames: 16,
            ..FleetSpec::default()
        };
        let (fleet, _) = cx.host.time("fleet.calibrate", "2 pools", || {
            Fleet::new(&nets, &int8, wfi, &fleet_base)
        });
        cx.host.end(op);
        let built = small.and_then(|s| full.and_then(|f| fleet.map(|fl| (s, f, fl))));
        let (small, full, fleet) = built.expect("servers and fleet calibrate");
        cx.check("set-up", Ok(()));
        State {
            small,
            full,
            fleet,
            fleet_base,
            baseline: None,
            knee: None,
        }
    }

    fn pass(&self, cx: &mut Cx, st: &mut State, _index: u64) -> Pass {
        // Every pass plans the same seeded matrix, so every later pass
        // must reproduce pass 0's modeled reports exactly.
        let workload_seed = cx.seed;
        let seed = |k: u64| derive_seed(workload_seed, 0, k);
        let mut digests = Vec::new();
        let start = std::time::Instant::now();

        let mut sweep = Vec::new();
        for rate in KNEE_RATES {
            let spec = serve_spec(seed(rate), rate);
            if let Some(r) = self.plan(cx, &st.small, &spec, &format!("knee {rate}"), &mut digests)
            {
                sweep.push(SweepPoint {
                    rate_rps: rate,
                    p99_cycles: r.total.p99,
                    dropped: r.dropped,
                });
            }
        }
        let slo_cycles = serve_spec(0, 1).slo_cycles(SocConfig::zcu102_timing_only().soc_hz);
        st.knee = knee_rps(&sweep, slo_cycles);
        if st.knee.is_none() {
            cx.check("knee", Err("no swept rate meets the SLO".into()));
        }

        for (class, server) in [("nv_small", &st.small), ("nv_full", &st.full)] {
            for process in [ArrivalProcess::Poisson, ArrivalProcess::Fixed] {
                for rate in MATRIX_RATES {
                    for policy in [
                        Policy::RoundRobin,
                        Policy::ShortestQueueFirst,
                        Policy::EarliestFinish,
                    ] {
                        for pipelined in [false, true] {
                            let spec = ServeSpec {
                                process,
                                policy,
                                pipelined,
                                ..serve_spec(seed(1000 + rate), rate)
                            };
                            let label = format!(
                                "{class} {} {rate} {} {}",
                                process.name(),
                                policy.name(),
                                if pipelined { "pipelined" } else { "serial" }
                            );
                            self.plan(cx, server, &spec, &label, &mut digests);
                        }
                    }
                }
            }
            for rate in CHAOS_RATES {
                let faults = FaultSpec {
                    seed: seed(2000 + rate),
                    flip_per_million: 5_000,
                    error_per_million: 10_000,
                    spike_per_million: 20_000,
                    spike_us: 2_000,
                    hang_per_million: 5_000,
                    crash_per_million: 2_000,
                };
                let spec = ServeSpec {
                    workers: 2,
                    timeout_us: SLO_US,
                    retries: 2,
                    faults: Some(faults),
                    ..serve_spec(seed(3000 + rate), rate)
                };
                self.plan(
                    cx,
                    server,
                    &spec,
                    &format!("{class} chaos {rate}"),
                    &mut digests,
                );
            }
        }

        for shape in [
            TrafficShape::Steady,
            TrafficShape::Diurnal,
            TrafficShape::Bursty,
            TrafficShape::FlashCrowd,
        ] {
            for route in [
                RoutePolicy::Weighted,
                RoutePolicy::LeastLoaded,
                RoutePolicy::ModelAffinity,
            ] {
                let spec = FleetSpec {
                    shape,
                    route,
                    ..st.fleet_base.clone()
                };
                let label = format!("fleet {} {}", shape.name(), route.name());
                cx.host.next_op();
                let op = cx.host.begin("bench.op", &label);
                if cx.traced {
                    let _ = cx
                        .host
                        .time("fleet.trace", &label, || st.fleet.trace(&spec));
                }
                let tracer = plan_tracer(cx);
                let (r, _) = cx.host.time("fleet.plan", &label, || {
                    st.fleet.plan_traced(&spec, &tracer)
                });
                let spans = check_spans(cx, tracer);
                cx.host.end(op);
                let r = r
                    .map_err(|e| e.to_string())
                    .and_then(|r| fleet_books(&r).map(|()| r))
                    .and_then(|r| spans.map(|()| r));
                match r {
                    Ok(r) => {
                        let d = digest(&r.to_json());
                        cx.modeled.mix(d);
                        digests.push(d);
                        cx.count("fleet.requests", r.offered as f64);
                        cx.count("fleet.shed", r.shed as f64);
                        let scale: u64 =
                            r.per_pool.iter().map(|p| p.scale_ups + p.scale_downs).sum();
                        cx.count("fleet.scale_events", scale as f64);
                        cx.check(&label, Ok(()));
                    }
                    Err(e) => {
                        digests.push(0);
                        cx.check(&label, Err(e));
                    }
                }
            }
        }
        let plan_s = start.elapsed().as_secs_f64();

        // Short real replays: two workers at most, one thread each.
        // Fixed arrivals give every seed the same number of frames.
        let mut replay_s = 0.0;
        let short = |rate, policy, pipelined, k| ServeSpec {
            process: ArrivalProcess::Fixed,
            duration_ms: REPLAY_MS,
            workers: 2,
            policy,
            pipelined,
            ..serve_spec(seed(k), rate)
        };
        replay_s += self.replay(
            cx,
            &st.small,
            &short(300, Policy::EarliestFinish, true, 4001),
            "replay nv_small pipelined",
        );
        replay_s += self.replay(
            cx,
            &st.small,
            &short(150, Policy::RoundRobin, false, 4002),
            "replay nv_small serial",
        );
        replay_s += self.replay(
            cx,
            &st.full,
            &short(300, Policy::ShortestQueueFirst, true, 4003),
            "replay nv_full pipelined",
        );
        let spec = FleetSpec {
            route: RoutePolicy::LeastLoaded,
            duration_ms: 1_000,
            ..st.fleet_base.clone()
        };
        cx.host.next_op();
        let op = cx.host.begin("bench.op", "fleet spot replay");
        if cx.traced {
            let _ = cx
                .host
                .time("fleet.replay_plan", "spot", || st.fleet.plan(&spec));
        }
        let (r, t) = cx.host.time("fleet.run", "spot", || {
            st.fleet.run_traced(&spec, &cx.tracer)
        });
        cx.host.end(op);
        replay_s += t;
        let checked = match r {
            Ok(r) if r.replay_divergence == 0 && r.replayed_frames > 0 => {
                cx.modeled.mix(digest(&r.to_json()));
                cx.count("fleet.spot_frames", r.replayed_frames as f64);
                Ok(())
            }
            Ok(r) => Err(format!(
                "spot replay divergence {} over {} frames",
                r.replay_divergence, r.replayed_frames
            )),
            Err(e) => Err(e.to_string()),
        };
        cx.check("fleet spot replay", checked);

        match &st.baseline {
            None => st.baseline = Some(digests),
            Some(b) if *b != digests => cx.check(
                "plan matrix",
                Err("a plan changed between identical passes".into()),
            ),
            Some(_) => {}
        }

        let mut p = Pass::new();
        p.insert("main_s", plan_s);
        p.insert("run_s", replay_s);
        p.insert("knee_rps", st.knee.map_or(0.0, |k| k as f64));
        p
    }

    fn summary(&self, st: &State) -> (Vec<String>, Json) {
        let knee = st
            .knee
            .map_or_else(|| "none".to_string(), |k| k.to_string());
        (
            vec![format!(
                "knee (1 worker, serial, rr, nv_small, p99 <= {} ms, 0 drops): {knee} req/s",
                SLO_US / 1000
            )],
            st.knee.map_or(Json::Null, Json::Int),
        )
    }
}
