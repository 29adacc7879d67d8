//! Queueing oracle: pinned FNV digests of the serve and fleet
//! simulators over a fixed matrix of synthetic profiles.
//!
//! No SoC is built. Every case runs a seeded request trace against
//! hand-written [`ServiceModel`]s / [`PoolProfile`]s (three models,
//! asymmetric pipelined contention) and folds three things into one
//! digest:
//!
//! * the `to_json()` bytes of the report (the `--json` output);
//! * the `publish` → [`MetricsSnapshot`] dump (the `--metrics-out`
//!   output);
//! * every per-request record.
//!
//! It also checks that an armed tracer leaves the report unchanged and
//! that its spans are well-formed. Any change to the queueing
//! behaviour moves a digest; the failure names the cases that moved
//! and prints the recomputed table.

#[path = "queueing_oracle/sim.rs"]
mod sim;

use rvnv_nn::hash::Fnv;
use rvnv_obs::{MetricsRegistry, Tracer};
use rvnv_soc::batch::Policy;
use rvnv_soc::fleet::{
    shaped_trace, FleetOutcome, FleetReport, FleetSpec, PoolProfile, PoolSpec, RoutePolicy,
    SocClass, TrafficShape,
};
use rvnv_soc::serve::{
    ArrivalProcess, FaultSpec, RequestOutcome, RequestTrace, ServeReport, ServeSpec, ServiceModel,
};

const HZ: u64 = 100_000_000;
const SEEDS: [u64; 3] = [1, 2, 3];
const POLICIES: [Policy; 3] = [
    Policy::RoundRobin,
    Policy::ShortestQueueFirst,
    Policy::EarliestFinish,
];

fn names() -> Vec<String> {
    vec!["a".into(), "b".into(), "c".into()]
}

/// Three models with distinct costs. The contention matrices are
/// asymmetric, and two pairs stream a preload that outlasts the
/// contended compute.
fn serve_profile() -> ServiceModel {
    ServiceModel {
        preload: vec![2_000, 6_000, 3_500],
        fill: vec![2_200, 6_500, 3_600],
        compute: vec![40_000, 150_000, 90_000],
        compute_with: vec![
            vec![41_000, 43_500, 42_000],
            vec![152_000, 151_000, 155_000],
            vec![91_500, 94_000, 90_800],
        ],
        preload_done: vec![
            vec![2_500, 45_000, 4_000],
            vec![2_100, 6_800, 3_900],
            vec![2_400, 7_000, 95_000],
        ],
        rewarm: 300_000,
    }
}

/// A pool-local profile over `models` from per-model `(preload,
/// compute)` pairs, serial costs only (fleet pools are serial).
fn pool_profile(costs: &[(u64, u64)], models: Vec<usize>, rewarm: u64) -> PoolProfile {
    let n = costs.len();
    PoolProfile {
        service: ServiceModel {
            preload: costs.iter().map(|c| c.0).collect(),
            fill: costs.iter().map(|c| c.0).collect(),
            compute: costs.iter().map(|c| c.1).collect(),
            compute_with: costs.iter().map(|c| vec![c.1; n]).collect(),
            preload_done: vec![vec![0; n]; n],
            rewarm,
        },
        models,
    }
}

/// Heterogeneous pools with subset residency: a generalist `nv_small`
/// pool, an `nv_full` pool holding models 1 and 2, and an `nv_small`
/// pool dedicated to model 0.
fn fleet_profiles() -> Vec<PoolProfile> {
    vec![
        pool_profile(
            &[(2_000, 40_000), (6_000, 150_000), (3_500, 90_000)],
            vec![0, 1, 2],
            300_000,
        ),
        pool_profile(&[(6_000, 30_000), (3_500, 20_000)], vec![1, 2], 250_000),
        pool_profile(&[(2_000, 40_000)], vec![0], 120_000),
    ]
}

fn fleet_pools(autoscaled: bool) -> Vec<PoolSpec> {
    let pool = |class, workers, max: usize, queue_depth, models| PoolSpec {
        class,
        workers,
        min_workers: 1,
        max_workers: if autoscaled { max } else { workers },
        queue_depth,
        models,
    };
    vec![
        pool(SocClass::NvSmall, 2, 5, 6, None),
        pool(SocClass::NvFull, 1, 3, 4, Some(vec![1, 2])),
        pool(SocClass::NvSmall, 1, 1, 3, Some(vec![0])),
    ]
}

/// The digest of one case: report JSON, metrics dump and records.
fn digest(json: String, metrics: &MetricsRegistry, records: impl Iterator<Item = [u64; 6]>) -> u64 {
    let mut h = Fnv::new();
    h.str(&json);
    h.str(&metrics.snapshot().to_json().to_string());
    for r in records {
        for v in r {
            h.mix(v);
        }
    }
    h.finish()
}

fn serve_case(spec: &ServeSpec) -> (u64, ServeReport) {
    spec.validate().expect("oracle specs are consistent");
    let trace = RequestTrace::generate(
        spec.process,
        spec.rate_rps,
        spec.duration_cycles(HZ),
        3,
        spec.seed,
        HZ,
    );
    let service = serve_profile();
    let tracer = Tracer::armed();
    let traced = sim::serve(&trace, &service, spec, &names(), HZ, Some(&tracer));
    let plain = sim::serve(&trace, &service, spec, &names(), HZ, None);
    assert_eq!(traced, plain, "{spec:?}: an armed tracer moved the report");
    tracer
        .snapshot()
        .validate()
        .unwrap_or_else(|e| panic!("{spec:?}: malformed trace: {e}"));
    let metrics = MetricsRegistry::new();
    plain.publish(&metrics);
    let records = plain.records.iter().map(|r| match r.outcome {
        RequestOutcome::Served {
            worker,
            queue_wait,
            service,
            completion,
        } => [
            r.model as u64,
            r.arrival,
            worker as u64,
            queue_wait,
            service,
            completion,
        ],
        RequestOutcome::Dropped => [r.model as u64, r.arrival, u64::MAX, 0, 0, 0],
    });
    let d = digest(plain.to_json().to_string(), &metrics, records);
    (d, plain)
}

fn fleet_case(spec: &FleetSpec) -> (u64, FleetReport) {
    spec.validate(3).expect("oracle specs are consistent");
    let trace = shaped_trace(
        spec.shape,
        spec.rate_rps,
        spec.duration_cycles(HZ),
        3,
        spec.seed,
        HZ,
    );
    let profiles = fleet_profiles();
    let tracer = Tracer::armed();
    let traced = sim::fleet(&trace, &profiles, spec, &names(), HZ, Some(&tracer));
    let plain = sim::fleet(&trace, &profiles, spec, &names(), HZ, None);
    assert_eq!(traced, plain, "{spec:?}: an armed tracer moved the report");
    tracer
        .snapshot()
        .validate()
        .unwrap_or_else(|e| panic!("{spec:?}: malformed trace: {e}"));
    let metrics = MetricsRegistry::new();
    plain.publish(&metrics);
    let records = plain.records.iter().map(|r| match r.outcome {
        FleetOutcome::Served {
            pool,
            queue_wait,
            service,
            completion,
        } => [
            r.model as u64,
            r.arrival,
            pool as u64,
            queue_wait,
            service,
            completion,
        ],
        FleetOutcome::Dropped { pool } => [r.model as u64, r.arrival, pool as u64, 1, 0, 0],
        FleetOutcome::Shed => [r.model as u64, r.arrival, u64::MAX, 2, 0, 0],
    });
    let d = digest(plain.to_json().to_string(), &metrics, records);
    (d, plain)
}

/// Compare computed digests with the pinned table, naming every case
/// that moved.
fn check(table: &str, got: &[(String, u64)], pinned: &[u64]) {
    let moved: Vec<&str> = got
        .iter()
        .enumerate()
        .filter(|(i, (_, d))| pinned.get(*i) != Some(d))
        .map(|(_, (name, _))| name.as_str())
        .collect();
    if moved.is_empty() && got.len() == pinned.len() {
        return;
    }
    let mut table_src = String::new();
    for row in got.chunks(4) {
        let row: Vec<String> = row.iter().map(|(_, d)| format!("0x{d:016x}")).collect();
        table_src.push_str(&format!("    {},\n", row.join(", ")));
    }
    panic!(
        "{table}: {} of {} cases moved ({} pinned), first: {:?}\nrecomputed table:\n{table_src}",
        moved.len(),
        got.len(),
        pinned.len(),
        &moved[..moved.len().min(8)]
    );
}

/// 3 seeds × {rr, sqf, eff} × {serial, pipelined} × {1, 3 workers} ×
/// {Poisson, fixed}, each offered just under the pool's capacity so
/// the queue both fills and drains.
#[test]
fn serve_matrix_is_pinned() {
    let mut got = Vec::new();
    let mut dropped = 0;
    for seed in SEEDS {
        for policy in POLICIES {
            for pipelined in [false, true] {
                for workers in [1usize, 3] {
                    for process in [ArrivalProcess::Poisson, ArrivalProcess::Fixed] {
                        let spec = ServeSpec {
                            process,
                            rate_rps: 900 * workers as u64,
                            duration_ms: 200,
                            seed,
                            workers,
                            policy,
                            pipelined,
                            queue_depth: 4,
                            slo_us: 3_000,
                            timeout_us: 0,
                            retries: 0,
                            faults: None,
                        };
                        let name = format!(
                            "seed={seed} {} pipelined={pipelined} workers={workers} {}",
                            policy.name(),
                            process.name()
                        );
                        let (digest, report) = serve_case(&spec);
                        dropped += report.dropped;
                        got.push((name, digest));
                    }
                }
            }
        }
    }
    assert!(dropped > 0, "the matrix must overflow the admission queue");
    check("serve", &got, &SERVE_PINNED);
}

/// Serial chaos: every fault kind under a timeout and retry budget; a
/// timeout alone; and a crash storm whose failovers meet a shallow
/// queue.
#[test]
fn serve_chaos_matrix_is_pinned() {
    let every_kind = |seed| FaultSpec {
        seed,
        flip_per_million: 40_000,
        error_per_million: 40_000,
        spike_per_million: 60_000,
        spike_us: 1_200,
        hang_per_million: 30_000,
        crash_per_million: 50_000,
    };
    let crash_storm = |seed| FaultSpec {
        seed,
        crash_per_million: 400_000,
        ..FaultSpec::default()
    };
    let mut got = Vec::new();
    // Hangs, timeouts, retries, bus errors, corruptions, spikes,
    // crashes, failovers, sheds, exhausted budgets.
    let mut seen = [0u64; 10];
    for seed in SEEDS {
        for policy in POLICIES {
            for workers in [1usize, 3] {
                let base = ServeSpec {
                    process: ArrivalProcess::Poisson,
                    rate_rps: 700 * workers as u64,
                    duration_ms: 200,
                    seed,
                    workers,
                    policy,
                    pipelined: false,
                    queue_depth: 4,
                    slo_us: 3_000,
                    timeout_us: 2_500,
                    retries: 2,
                    faults: None,
                };
                let variants = [
                    (
                        "every-kind",
                        ServeSpec {
                            faults: Some(every_kind(seed + 100)),
                            ..base
                        },
                    ),
                    (
                        "timeout-only",
                        ServeSpec {
                            timeout_us: 1_200,
                            retries: 1,
                            ..base
                        },
                    ),
                    (
                        "crash-storm",
                        ServeSpec {
                            queue_depth: 2,
                            retries: 1,
                            faults: Some(crash_storm(seed + 200)),
                            ..base
                        },
                    ),
                ];
                for (variant, spec) in variants {
                    let name = format!("seed={seed} {} workers={workers} {variant}", policy.name());
                    let (digest, report) = serve_case(&spec);
                    let f = report.faults;
                    for (total, seen) in seen.iter_mut().zip([
                        f.hangs,
                        f.timeouts,
                        f.retries,
                        f.bus_errors,
                        f.corruptions_detected,
                        f.spikes,
                        f.crashes,
                        f.failovers,
                        f.sheds,
                        f.exhausted,
                    ]) {
                        *total += seen;
                    }
                    got.push((name, digest));
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every fault path must fire somewhere in the matrix: {seen:?}"
    );
    check("serve chaos", &got, &SERVE_CHAOS_PINNED);
}

/// {weighted, least-loaded, model-affinity} × {steady, diurnal,
/// bursty, flash-crowd} × {fixed-size, autoscaled} over heterogeneous
/// pools with subset residency. Seed 1 runs a loose SLO (the
/// autoscaler grows and drains), seed 2 a tight one (the front door
/// sheds).
#[test]
fn fleet_matrix_is_pinned() {
    let mut got = Vec::new();
    // Drops, sheds, scale-ups, drains.
    let mut seen = [0u64; 4];
    for (seed, slo_us) in [(1u64, 3_000u64), (2, 100)] {
        for route in [
            RoutePolicy::Weighted,
            RoutePolicy::LeastLoaded,
            RoutePolicy::ModelAffinity,
        ] {
            for shape in [
                TrafficShape::Steady,
                TrafficShape::Diurnal,
                TrafficShape::Bursty,
                TrafficShape::FlashCrowd,
            ] {
                for autoscaled in [false, true] {
                    let spec = FleetSpec {
                        pools: fleet_pools(autoscaled),
                        route,
                        shape,
                        rate_rps: 6_000,
                        duration_ms: 150,
                        seed,
                        slo_us,
                        scale_window_ms: 10,
                        ..FleetSpec::default()
                    };
                    let name = format!(
                        "seed={seed} {} {} autoscaled={autoscaled}",
                        route.name(),
                        shape.name()
                    );
                    let (digest, report) = fleet_case(&spec);
                    seen[0] += report.dropped;
                    seen[1] += report.shed;
                    seen[2] += report.per_pool.iter().map(|p| p.scale_ups).sum::<u64>();
                    seen[3] += report.per_pool.iter().map(|p| p.scale_downs).sum::<u64>();
                    got.push((name, digest));
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "drops, sheds, scale-ups and drains must all occur: {seen:?}"
    );
    check("fleet", &got, &FLEET_PINNED);
}

#[rustfmt::skip]
const SERVE_PINNED: [u64; 72] = [
    0xbddc9ea40a065e84, 0x4562bb87e7d1155a, 0x7a812c82c852c1f9, 0xc118af7bc1d50677,
    0x26ebbfa583d806ba, 0x972e264733a99bde, 0xa357558df2cde623, 0xffae3af27f030f4a,
    0x286ee4570bb888fa, 0xac4cc05fa56ed27d, 0x3a7a8d84338a8d5d, 0x535727b99a533213,
    0x053b92166f0bdcfe, 0x619a3e7c6c35fb87, 0x15ff8d3c6174f147, 0xdbd73628f6b15c56,
    0xfd2b63f034027b8c, 0x0625c875116095f2, 0xdc9a4baf0dc274b6, 0xfc7638d38c160a1a,
    0xd318fc504c7f972d, 0x3c8b5d90aece96c5, 0x3cc9a53f58cc61ce, 0x98eaf61bd67a7e86,
    0x9f34ee520d16ab03, 0xb6bc06689f1e59fa, 0x5d7bf11e63c4a560, 0x608c6572daa8308a,
    0x5747181be378565a, 0x712697f3268ad731, 0x17165e8383efe783, 0x4e11e1cb9d87ad07,
    0x7dca30d6450d7720, 0xdea92d4d5126dbbc, 0x51a57b9f2f0af355, 0xfe994ad92e0e3356,
    0x97bd3cea8d5fc23c, 0xbcf7c9cb9fbabab3, 0x7c5e8b02bfd9366c, 0xe2d0b47b453310a5,
    0xf3dcc646767c5bff, 0x9660034a9e479a53, 0x1ccbf1ac303f2b79, 0x9f1499e013ce2351,
    0x3082b990d374d55e, 0x9b7a36620c99b637, 0xface9df2a8e00401, 0x537acb60e47916cf,
    0xa59e0350b5169e43, 0x38321ed186610ae0, 0xe8888068a809d44a, 0x773f5a964d06ea91,
    0x0e8e1e254e227136, 0xadbe681c92e1881b, 0x202100cd1eaa5660, 0x22eb61774db538ef,
    0x2f6c1f3456d7f14d, 0xabbb1f5565c61b89, 0xb37767d702557d20, 0xf7127024e2103357,
    0x08e55c0a2aa9f590, 0x9bba905e966a5932, 0xc782bed71e21cb63, 0x96e789bbd45eb441,
    0x8d98d5c093e42ff3, 0x13122075afbb6365, 0x8205af271b7b70be, 0x555991691a3ad516,
    0xb3a6dd85c98742ec, 0xe4122f7bb669cd43, 0x8e31b9e2f8b9c450, 0x61560a021e4919fe,
];

#[rustfmt::skip]
const SERVE_CHAOS_PINNED: [u64; 54] = [
    0x6e559024eead18f6, 0x2ada32b28cae5ecd, 0x5a01283b3e004a17, 0xd6bf8c3f0e7d35e2,
    0xa6c9b5bdcee46b8b, 0x1a1632d3fc0e9a2a, 0x48195f463bb01ecd, 0xf408f6e8174195ad,
    0x5ddc0c31b4ddadcc, 0x1a464ea15681a959, 0x274388ecad10b4cc, 0xa6c7d118fc27b686,
    0x3f89ec53778d5a47, 0x1212f67d834173d0, 0x972343798e6beff5, 0x9090ea8d9c3f53c7,
    0xd1b71d0c8ff4d60f, 0xcc26f8590dc1d0bd, 0x8bf08e32a38f088d, 0xe1a1d5a5cd61b3bd,
    0x8b01da8223a5869b, 0x7ef210142de91198, 0x52dc2ed81e6dafa5, 0x65dac5d6f01ac252,
    0xdae3d615605eec2d, 0x3d9ab4b491c34814, 0x6ed6b2b5914e12a5, 0x03728d18f9eaf131,
    0x9b4137c34eedc8b5, 0xcb52ddf759bfd6fe, 0x17100a83f49d7210, 0x7a66370ce6f2248f,
    0xd27557617fffd091, 0x6299daad2bcf2b6c, 0x51d92389a9c42f42, 0x43bb77df856a8d23,
    0x4facb10f030703ae, 0x8b38f3a364bbe062, 0xe54621bdc113e7c9, 0x65dfc760b513bf43,
    0x09091acc6a263bd8, 0x6c11ff846bb37d33, 0xbe4348f61ff5989b, 0x7aa2f76bbe37721f,
    0x56a5c642a40680e8, 0xc69643b96f9933bc, 0x64e9648d2b64679e, 0x5c092537e3c55a82,
    0xe1557ff2df7d521a, 0x2255cab3bcb45d97, 0xdf631025c6f7e3d3, 0xef8d9f0d4f6bb2db,
    0x2fe7f4a4a76fac8e, 0x8213717f59da34d3,
];

#[rustfmt::skip]
const FLEET_PINNED: [u64; 48] = [
    0xdf5a9ca0114e1f37, 0xc25e51bbdeecafa7, 0x46682947c9d91c9c, 0x2fbcc4ea02f65773,
    0x7e9dd9b3f82a716c, 0x9e8b9f0bfa37b13d, 0xe02897f8525d352b, 0x94cccd5d00719849,
    0x1dca5ec304dfe2dc, 0xd617fe530e6d7ed1, 0x056f1da00f80083a, 0x042f959929b17678,
    0x3bb8601b57bf461c, 0x8ac9f0b474139559, 0x374c3c4a6c81b1cb, 0xd0ad3014ff968009,
    0x4d1d2dbfbec91093, 0x7980d4ec61ddee8f, 0xda20e36423dcd02b, 0x484479ccd442764b,
    0x9654119269e8b456, 0xd2bf0f8a7b80702b, 0x8432a9fd1a333af8, 0x4bc123346ae02dbb,
    0x5e11f1c238dba4c1, 0x13651690900f724d, 0xfe36b8c0ec39da48, 0x254c962a4a9bf20f,
    0x483284b87df8f8a7, 0xfb186432e02769ad, 0xcb21fa04036ada39, 0x60d7e3fceba673e3,
    0x5ef0f1fb52e2460a, 0xbe8d0c6bcdbfd505, 0x05cf5c2ca90714cd, 0x6d26538bbb723305,
    0x17618524ae138b7d, 0x258699cbcd6c43c9, 0x010bbbf4e2b4f375, 0x167024650a255c94,
    0x484d2b5ca5340b41, 0x44fd2649f564388c, 0x4dcb15cfb794176f, 0x36e951aebf6845c8,
    0x83c078006983f43f, 0x6103e5811d2cad5d, 0xe20e7ee4cc258f8b, 0x936a466b8d8a04d6,
];
