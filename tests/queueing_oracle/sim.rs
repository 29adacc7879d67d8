//! The simulator entry points the queueing oracle drives. Keeping the
//! calls here lets the oracle's cases and pinned digests stay
//! byte-for-byte unchanged when the simulators' signatures move.

use rvnv_obs::Tracer;
use rvnv_soc::fleet::{self, FleetReport, FleetSpec, PoolProfile};
use rvnv_soc::serve::{self, RequestTrace, ServeReport, ServeSpec, ServiceModel};

/// Serve simulation, spans into `tracer` when given.
pub fn serve(
    trace: &RequestTrace,
    service: &ServiceModel,
    spec: &ServeSpec,
    names: &[String],
    hz: u64,
    tracer: Option<&Tracer>,
) -> ServeReport {
    let disarmed = Tracer::disarmed();
    serve::simulate(trace, service, spec, names, hz, tracer.unwrap_or(&disarmed))
}

/// Fleet simulation, spans into `tracer` when given.
pub fn fleet(
    trace: &RequestTrace,
    profiles: &[PoolProfile],
    spec: &FleetSpec,
    names: &[String],
    hz: u64,
    tracer: Option<&Tracer>,
) -> FleetReport {
    let disarmed = Tracer::disarmed();
    fleet::simulate(
        trace,
        profiles,
        spec,
        names,
        hz,
        tracer.unwrap_or(&disarmed),
    )
}
