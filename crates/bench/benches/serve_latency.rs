//! Host-cost bench for the serving subsystem.
//!
//! Three costs matter to a serving experiment's wall clock:
//!
//! * `calibrate` — measuring the per-model/per-pair service profile on
//!   a real SoC (`N` warm frames + `N²` staged pairs; paid once per
//!   server).
//! * `plan_below_knee` / `plan_above_knee` — one pure queueing
//!   simulation of a 1-second Poisson trace, below and above the
//!   saturation knee (the above-knee point exercises the full
//!   queue/drop machinery). This is the per-point cost of a rate
//!   sweep, and the reason `examples/load_test.rs` can afford dense
//!   hockey-stick curves.
//! * `serve_replay` — a short full serve: plan plus the cycle-exact
//!   replay of every dispatched frame on a real worker SoC.
//!
//! Before timing, the bench asserts the serving oracles (determinism
//! and zero replay divergence, serial and pipelined), so `cargo bench
//! -- --test` doubles as a correctness check in CI.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{ArtifactCache, Artifacts, CompileOptions};
use rvnv_nn::zoo::Model;
use rvnv_obs::Tracer;
use rvnv_soc::batch::{layout_models, Policy};
use rvnv_soc::serve::{simulate, ArrivalProcess, FaultSpec, ServeSpec, Server};
use rvnv_soc::soc::SocConfig;

fn artifacts() -> Vec<Arc<Artifacts>> {
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let nets = [Model::LeNet5.build(1), Model::ResNet18.build(1)];
    let cache = ArtifactCache::new();
    layout_models(&cache, &nets, &opt).expect("layout")
}

fn wfi_codegen() -> CodegenOptions {
    CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    }
}

fn spec_at(rate: u64, pipelined: bool) -> ServeSpec {
    ServeSpec {
        process: ArrivalProcess::Poisson,
        rate_rps: rate,
        duration_ms: 1_000,
        seed: 42,
        workers: 1,
        policy: Policy::RoundRobin,
        pipelined,
        queue_depth: 8,
        slo_us: 20_000,
        timeout_us: 0,
        retries: 0,
        faults: None,
    }
}

fn bench_serve_latency(c: &mut Criterion) {
    let config = SocConfig::zcu102_timing_only();
    let artifacts = artifacts();
    let server = Server::new(config.clone(), artifacts.clone(), wfi_codegen()).expect("calibrate");

    // Correctness oracles before any timing: a fixed seed reproduces
    // the report bit-for-bit, and the dispatch plan replays
    // cycle-exactly on real SoCs in both worker modes.
    for pipelined in [false, true] {
        let spec = ServeSpec {
            duration_ms: 100,
            ..spec_at(300, pipelined)
        };
        let mut a = server.serve(&spec).expect("serve");
        let mut b = server.serve(&spec).expect("serve again");
        assert_eq!(a.replay_divergence, 0, "plan must replay cycle-exactly");
        a.host_seconds = 0.0;
        b.host_seconds = 0.0;
        assert_eq!(a, b, "fixed seed must reproduce the report");
        assert!(a.served > 0 && a.total.p99 >= a.total.p50);
    }

    let mut g = c.benchmark_group("serve_latency");
    g.sample_size(10);
    g.bench_function("calibrate", |b| {
        b.iter(|| {
            Server::new(config.clone(), artifacts.clone(), wfi_codegen())
                .expect("calibrate")
                .service_model()
                .compute
                .clone()
        })
    });
    g.bench_function("plan_below_knee", |b| {
        b.iter(|| server.plan(&spec_at(100, false)).expect("plan").served)
    });
    g.bench_function("plan_above_knee", |b| {
        b.iter(|| server.plan(&spec_at(400, false)).expect("plan").served)
    });
    // Faults-off overhead: a quiet chaos spec (all rates zero) must be
    // bit-invisible (pinned by tests/properties.rs) and host-free —
    // this row is asserted ≈ `plan_below_knee` in docs/BASELINES.md.
    g.bench_function("plan_below_knee_quiet_faults", |b| {
        let spec = ServeSpec {
            faults: Some(FaultSpec {
                seed: 42,
                ..FaultSpec::default()
            }),
            ..spec_at(100, false)
        };
        b.iter(|| server.plan(&spec).expect("plan").served)
    });
    // And the cost of an actually-armed storm: a 15% composite rate
    // with timeouts and bounded retries over the same trace.
    g.bench_function("plan_below_knee_chaos_15pct", |b| {
        let spec = ServeSpec {
            timeout_us: 10_000,
            retries: 2,
            faults: Some(FaultSpec {
                seed: 42,
                flip_per_million: 30_000,
                error_per_million: 60_000,
                spike_per_million: 30_000,
                spike_us: 2_000,
                hang_per_million: 15_000,
                crash_per_million: 15_000,
            }),
            ..spec_at(100, false)
        };
        b.iter(|| {
            let r = server.plan(&spec).expect("plan");
            assert!(r.faults.injected() > 0);
            r.served
        })
    });
    // Tracing overhead, both sides of the arm switch. The plain row
    // runs with a disarmed tracer, which must cost nothing measurable
    // (every emission site is one `Option` branch; see
    // docs/BASELINES.md), and the armed row prices actually recording
    // spans.
    let sim_spec = spec_at(100, false);
    let sim_trace = server.trace(&sim_spec);
    let sim_names = vec!["lenet5".to_string(), "resnet18".to_string()];
    g.bench_function("sim_below_knee", |b| {
        let tracer = Tracer::disarmed();
        b.iter(|| {
            simulate(
                &sim_trace,
                server.service_model(),
                &sim_spec,
                &sim_names,
                config.soc_hz,
                &tracer,
            )
            .served
        })
    });
    g.bench_function("sim_below_knee_armed_tracer", |b| {
        b.iter(|| {
            let tracer = Tracer::armed();
            let r = simulate(
                &sim_trace,
                server.service_model(),
                &sim_spec,
                &sim_names,
                config.soc_hz,
                &tracer,
            );
            assert!(!tracer.snapshot().spans.is_empty());
            r.served
        })
    });
    g.bench_function("serve_replay_100ms_300rps", |b| {
        let spec = ServeSpec {
            duration_ms: 100,
            ..spec_at(300, true)
        };
        b.iter(|| {
            let r = server.serve(&spec).expect("serve");
            assert_eq!(r.replay_divergence, 0);
            r.served
        })
    });
    g.finish();
}

criterion_group!(serve_latency, bench_serve_latency);
criterion_main!(serve_latency);
