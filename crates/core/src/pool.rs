//! One worker pool's event-driven queueing core, shared by
//! [`crate::serve`] (one pool, no router) and [`crate::fleet`] (N pools
//! behind a balancer).
//!
//! A [`Pool`] is a bounded admission queue in front of a set of
//! workers, simulated in modeled cycles against a calibrated
//! [`ServiceModel`]. It owns:
//!
//! * the worker clocks — the fleet autoscaler grows and shrinks them
//!   ([`Pool::add_worker`], [`Pool::retire_busiest`]);
//! * the admission queue and its dispatch [`Order`];
//! * the serial and pipelined worker steps, and the serial chaos path
//!   (fault lottery, watchdog, retries, crash failover);
//! * per-worker span emission;
//! * the [`Dispatch`] log of frames served since the caller last
//!   [took](Pool::served) them, in dispatch order. Callers fold each
//!   batch into their records and statistics right away, and keep the
//!   [`Planned`] frames a real-SoC [`replay`] needs only when they will
//!   replay: a plan-only run holds no per-frame log.
//!
//! An arrival goes straight to the lowest-index idle worker; queued
//! work goes to the earliest-free worker (lowest index on ties).

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rvnv_compiler::codegen::CodegenOptions;
use rvnv_compiler::Artifacts;
use rvnv_obs::{SpanKind, Tracer, TrackId, TrackKind};
use rvnv_util::mix64;

use crate::batch::{BatchError, Policy, Scheduler};
use crate::serve::{FaultReport, FaultSpec, Request, ServeSpec, ServiceModel, WorkerStats};
use crate::soc::SocConfig;
use crate::sweep::fan_out;

/// The order a pool dequeues its admitted requests in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Order {
    /// One FIFO across every model: a fleet pool.
    Fifo,
    /// Per-model FIFOs, the next model picked by a [`Policy`]: a server.
    Policy(Policy),
}

/// One served frame, in dispatch order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dispatch {
    /// Index of the request in the trace.
    pub request: usize,
    /// Pool-local model slot.
    pub model: usize,
    /// Worker that served it (an index into the pool's workers at
    /// dispatch time).
    pub worker: usize,
    /// Arrival → dispatch (see [`crate::serve`] for the split per
    /// worker mode).
    pub queue_wait: u64,
    /// Dispatch → completion.
    pub service: u64,
    /// Absolute completion cycle.
    pub completion: u64,
    /// The frame latency a real-SoC replay must reproduce
    /// ([`crate::batch::FrameLatency`] semantics).
    pub predicted: u64,
    /// The first frame of a pipelined burst (one pipeline fill).
    pub burst_start: bool,
}

impl Dispatch {
    /// Queue wait plus service.
    pub(crate) fn total(&self) -> u64 {
        self.queue_wait.saturating_add(self.service)
    }

    /// What a replay of this frame needs.
    pub(crate) fn planned(&self) -> Planned {
        Planned {
            request: self.request,
            model: self.model,
            predicted: self.predicted,
        }
    }
}

/// A served frame as the real-SoC [`replay`] needs it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planned {
    /// Index of the request in the trace.
    pub request: usize,
    /// Pool-local model slot.
    pub model: usize,
    /// The frame latency the replay must reproduce.
    pub predicted: u64,
}

/// Event-driven state of one simulated worker, apart from its clock.
#[derive(Debug, Clone)]
pub(crate) struct Worker {
    /// Pipelined mode: the `(request, model)` whose input is (being)
    /// staged and whose compute starts at the worker's clock.
    staged: Option<(usize, usize)>,
    /// Completion cycle of the previous frame in the open burst.
    burst_prev_completion: u64,
    /// The next frame opens a burst.
    burst_start: bool,
    pub stats: WorkerStats,
    track: TrackId,
}

/// What one frame attempt drew from the chaos lottery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFault {
    /// Silent output corruption, caught by the fingerprint check.
    Flip,
    /// Typed mid-frame bus error.
    BusErr,
    /// The frame completes but takes a latency spike.
    Spike,
    /// The firmware hangs; only the watchdog recovers the worker.
    Hang,
    /// The worker crashes mid-frame and must re-warm.
    Crash,
}

/// Draw the fault (if any) for one `(request, attempt)` — a pure
/// function of the spec's seed, so fault traces replay bit-identically.
fn draw_fault(f: &FaultSpec, request: usize, attempt: u32) -> Option<FrameFault> {
    let h = mix64(
        mix64(f.seed ^ (request as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ u64::from(attempt),
    );
    let lot = h % 1_000_000;
    let mut edge = 0;
    for (rate, fault) in [
        (f.flip_per_million, FrameFault::Flip),
        (f.error_per_million, FrameFault::BusErr),
        (f.spike_per_million, FrameFault::Spike),
        (f.hang_per_million, FrameFault::Hang),
        (f.crash_per_million, FrameFault::Crash),
    ] {
        edge += u64::from(rate);
        if lot < edge {
            return Some(fault);
        }
    }
    None
}

/// The serial chaos path's state: the armed fault plan, the watchdog
/// and retry budget, and what the machinery observed.
#[derive(Debug, Clone)]
pub(crate) struct Chaos {
    /// The armed plan (`None` = never faults; a timeout alone still
    /// arms the chaos path).
    faults: Option<FaultSpec>,
    /// Spike magnitude in cycles.
    spike_cycles: u64,
    /// Per-attempt timeout in cycles (0 = none).
    timeout: u64,
    /// Retry budget per request.
    retries: u32,
    /// Shed a retry once a request is this many cycles past arrival.
    shed_after: u64,
    /// Attempts consumed per request (survives a crash failover, so a
    /// requeued request never re-draws the fault that killed it).
    attempts: Vec<u32>,
    pub report: FaultReport,
}

impl Chaos {
    /// The chaos path `spec` arms over `requests` requests, or `None`
    /// when neither a non-quiet fault plan nor a timeout is configured
    /// (the fault-free fast path).
    pub(crate) fn for_spec(spec: &ServeSpec, soc_hz: u64, requests: usize) -> Option<Chaos> {
        let faults = spec.faults.filter(|f| !f.is_quiet());
        let timeout = spec.timeout_cycles(soc_hz);
        if faults.is_none() && timeout == 0 {
            return None;
        }
        Some(Chaos {
            faults,
            spike_cycles: spec.faults.map_or(0, |f| f.spike_cycles(soc_hz)),
            timeout,
            retries: spec.retries,
            shed_after: spec.slo_cycles(soc_hz).max(timeout).saturating_mul(4),
            attempts: vec![0; requests],
            report: FaultReport::default(),
        })
    }
}

/// How one pool dispatches, and how its spans are labeled.
pub(crate) struct PoolSetup<'a> {
    /// Calibrated costs, indexed by pool-local model slot.
    pub service: &'a ServiceModel,
    pub order: Order,
    pub pipelined: bool,
    pub workers: usize,
    /// Admission-queue bound.
    pub queue_depth: usize,
    pub chaos: Option<Chaos>,
    /// Span label per pool-local model slot.
    pub labels: Vec<&'a str>,
    /// Worker tracks are named `{worker_track}{serial}`; serials are
    /// never reused, so a retired worker's track is never recycled.
    pub worker_track: String,
    /// Name of the pool's async queue-wait track.
    pub queue_track: String,
}

/// One pool's event-driven queueing state.
pub(crate) struct Pool<'a> {
    service: &'a ServiceModel,
    requests: &'a [Request],
    order: Order,
    pipelined: bool,
    queue_depth: usize,
    /// Per-model FIFO of queued request indices.
    queues: Vec<VecDeque<usize>>,
    queued: usize,
    /// Round-robin rotation cursor.
    cursor: usize,
    /// When each worker's next decision point occurs. Kept apart from
    /// `workers`: dispatch and the fleet balancer scan only the clocks.
    clocks: Vec<u64>,
    pub workers: Vec<Worker>,
    /// Boxed so the fault-free path moves a pointer, not the state.
    pub chaos: Option<Box<Chaos>>,
    /// Frames served since the last [`served`](Self::served) call.
    log: Vec<Dispatch>,
    tracer: &'a Tracer,
    labels: Vec<&'a str>,
    worker_track: String,
    serial: usize,
    queue_track: TrackId,
}

impl<'a> Pool<'a> {
    /// A pool with `setup.workers` idle workers at cycle 0, serving
    /// requests of `requests` (indexed as in the trace). Spans land in
    /// `tracer`; disarmed, every emission site is one branch.
    pub(crate) fn new(setup: PoolSetup<'a>, requests: &'a [Request], tracer: &'a Tracer) -> Self {
        let mut pool = Pool {
            service: setup.service,
            requests,
            order: setup.order,
            pipelined: setup.pipelined,
            queue_depth: setup.queue_depth,
            queues: vec![VecDeque::new(); setup.service.models()],
            queued: 0,
            cursor: 0,
            clocks: Vec::with_capacity(setup.workers),
            workers: Vec::with_capacity(setup.workers),
            chaos: setup.chaos.map(Box::new),
            log: Vec::new(),
            tracer,
            labels: setup.labels,
            worker_track: setup.worker_track,
            serial: 0,
            queue_track: TrackId::NONE,
        };
        for _ in 0..setup.workers {
            pool.add_worker(0, 0);
        }
        pool.queue_track = tracer.track(&setup.queue_track, TrackKind::Async);
        pool
    }

    /// Requests admitted but not yet dispatched.
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    /// Each worker's clock: when its next decision point occurs.
    pub(crate) fn clocks(&self) -> &[u64] {
        &self.clocks
    }

    /// Take the frames served since the last call, in dispatch order.
    pub(crate) fn served(&mut self) -> std::vec::Drain<'_, Dispatch> {
        self.log.drain(..)
    }

    /// Add a worker that is warm (free) at `ready_at`; a warm-up from
    /// `from` shows as a `rewarm` span on its new track.
    pub(crate) fn add_worker(&mut self, from: u64, ready_at: u64) {
        let track = if self.tracer.is_armed() {
            let t = self.tracer.track(
                &format!("{}{}", self.worker_track, self.serial),
                TrackKind::Sync,
            );
            self.tracer
                .span(t, SpanKind::Rewarm, from, ready_at, "scale-up");
            t
        } else {
            TrackId::NONE
        };
        self.serial += 1;
        self.clocks.push(ready_at);
        self.workers.push(Worker {
            staged: None,
            burst_prev_completion: 0,
            burst_start: false,
            stats: WorkerStats::default(),
            track,
        });
    }

    /// Drain the most-loaded worker (latest clock, lowest index on
    /// ties): it finishes its in-flight frame, already accounted at
    /// dispatch, and leaves.
    pub(crate) fn retire_busiest(&mut self) {
        let mut victim = 0;
        for (i, &clock) in self.clocks.iter().enumerate() {
            if clock > self.clocks[victim] {
                victim = i;
            }
        }
        self.clocks.remove(victim);
        self.workers.remove(victim);
    }

    /// Offer request `request` (pool-local `model`) arriving at `at`,
    /// after [`advance`](Self::advance)`(at)`: straight to the
    /// lowest-index idle worker, else into the queue if it has room.
    /// `false` means the request is dropped.
    pub(crate) fn admit(&mut self, request: usize, model: usize, at: u64) -> bool {
        // After `advance(at)` a worker with a staged frame has a clock
        // past `at`, so a clock at or before `at` means idle.
        let idle = self.clocks.iter().position(|&clock| clock <= at);
        if let Some(w) = idle {
            // The idle worker's clock catches up to now.
            self.clocks[w] = at;
            self.enqueue(model, request);
            self.step(w);
            true
        } else if self.queued < self.queue_depth {
            self.enqueue(model, request);
            true
        } else {
            false
        }
    }

    /// Let every worker process its decision points up to `until`.
    pub(crate) fn advance(&mut self, until: u64) {
        loop {
            // The earliest ready worker, ties to the lowest index: with
            // work queued every worker is ready; otherwise only a
            // pipelined worker with a staged frame is.
            let ready = if self.queued > 0 {
                (0..self.clocks.len()).min_by_key(|&w| self.clocks[w])
            } else if self.pipelined {
                (0..self.clocks.len())
                    .filter(|&w| self.workers[w].staged.is_some())
                    .min_by_key(|&w| self.clocks[w])
            } else {
                None
            };
            match ready {
                Some(w) if self.clocks[w] <= until => self.step(w),
                _ => break,
            }
        }
    }

    fn enqueue(&mut self, model: usize, request: usize) {
        self.queues[model].push_back(request);
        self.queued += 1;
    }

    /// Pick the model to dequeue next. Under a [`Policy`] this mirrors
    /// its semantics in [`crate::batch`]: `current` is the model about
    /// to compute while the picked request's input streams behind it
    /// (pipelined); estimates come from the calibrated profile rather
    /// than batch's last-observed cycles, since a server knows its
    /// residents. `None` when the queue is empty.
    fn pick(&mut self, current: Option<usize>) -> Option<usize> {
        let nonempty = self
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty());
        match self.order {
            Order::Fifo => nonempty.min_by_key(|(_, q)| q[0]).map(|(m, _)| m),
            Order::Policy(Policy::RoundRobin) => {
                let n = self.queues.len();
                let pick = (0..n)
                    .map(|off| (self.cursor + off) % n)
                    .find(|&m| !self.queues[m].is_empty())?;
                self.cursor = (pick + 1) % n;
                Some(pick)
            }
            Order::Policy(Policy::ShortestQueueFirst) => {
                nonempty.min_by_key(|(m, q)| (q.len(), *m)).map(|(m, _)| m)
            }
            Order::Policy(Policy::EarliestFinish) => {
                let s = self.service;
                let hide = current.map_or(0, |c| s.compute[c]);
                nonempty
                    .min_by_key(|(m, _)| (s.preload[*m].max(hide) + s.compute[*m], *m))
                    .map(|(m, _)| m)
            }
        }
    }

    /// Dequeue the next `(model, request)` by the pool's order.
    fn pop(&mut self, current: Option<usize>) -> Option<(usize, usize)> {
        let m = self.pick(current)?;
        self.queued -= 1;
        Some((m, self.queues[m].pop_front().expect("picked nonempty")))
    }

    /// Advance one worker's state machine at its decision point.
    fn step(&mut self, w: usize) {
        if self.pipelined {
            self.step_pipelined(w);
        } else if let Some(mut chaos) = self.chaos.take() {
            self.step_chaos(w, &mut chaos);
            self.chaos = Some(chaos);
        } else {
            self.step_serial(w);
        }
    }

    /// A request's wait in the admission queue, `[arrival, dispatch]`.
    fn queue_wait_span(&self, arrival: u64, dispatch: u64, request: usize) {
        if self.tracer.is_armed() && dispatch > arrival {
            self.tracer.span(
                self.queue_track,
                SpanKind::QueueWait,
                arrival,
                dispatch,
                &format!("req {request}"),
            );
        }
    }

    /// A serial frame's spans: queue wait, then preload + compute on
    /// the worker track from `start` to `completion`.
    fn serial_spans(&self, w: usize, m: usize, request: usize, start: u64, completion: u64) {
        if self.tracer.is_armed() {
            self.queue_wait_span(self.requests[request].arrival, start, request);
            let track = self.workers[w].track;
            let loaded = start + self.service.preload[m];
            let label = self.labels[m];
            self.tracer
                .span(track, SpanKind::Preload, start, loaded, label);
            self.tracer
                .span(track, SpanKind::Compute, loaded, completion, label);
        }
    }

    /// Fault-free serial step: dequeue, quiet preload, compute.
    fn step_serial(&mut self, w: usize) {
        let (m, req) = self.pop(None).expect("step called with work");
        let svc = self.service.preload[m] + self.service.compute[m];
        let arrival = self.requests[req].arrival;
        let start = self.clocks[w].max(arrival);
        self.serial_spans(w, m, req, start, start + svc);
        self.log.push(Dispatch {
            request: req,
            model: m,
            worker: w,
            queue_wait: start - arrival,
            service: svc,
            completion: start + svc,
            predicted: svc,
            burst_start: false,
        });
        let worker = &mut self.workers[w];
        worker.stats.frames += 1;
        worker.stats.busy_cycles += svc;
        self.clocks[w] = start + svc;
    }

    /// Pipelined step: either start a burst (dequeue and stream the
    /// fill), or compute the staged request while the next pick's
    /// input streams behind it.
    fn step_pipelined(&mut self, w: usize) {
        let now = self.clocks[w];
        let Some((req, m)) = self.workers[w].staged.take() else {
            // Burst start: dequeue and stream the fill.
            let (m, req) = self.pop(None).expect("step called with work");
            let fill = self.service.fill[m];
            if self.tracer.is_armed() {
                let track = self.workers[w].track;
                self.tracer
                    .span(track, SpanKind::PsBurst, now, now + fill, self.labels[m]);
            }
            let worker = &mut self.workers[w];
            worker.staged = Some((req, m));
            worker.burst_start = true;
            worker.burst_prev_completion = now;
            worker.stats.busy_cycles += fill;
            self.clocks[w] = now + fill;
            return;
        };
        let next = self.pop(Some(m));
        let (compute, window) = match next {
            Some((nm, _)) => {
                let c = self.service.compute_with[m][nm];
                (c, c.max(self.service.preload_done[m][nm]))
            }
            None => (self.service.compute[m], self.service.compute[m]),
        };
        let completion = now + compute;
        let arrival = self.requests[req].arrival;
        if self.tracer.is_armed() {
            self.queue_wait_span(arrival, now, req);
            let track = self.workers[w].track;
            self.tracer
                .span(track, SpanKind::Compute, now, completion, self.labels[m]);
            if let Some((nm, _)) = next {
                // The staged successor's input still streaming after
                // this frame's compute retired (dropped when empty).
                self.tracer.span(
                    track,
                    SpanKind::PsBurst,
                    completion,
                    now + window,
                    self.labels[nm],
                );
            }
        }
        let worker = &mut self.workers[w];
        worker.staged = next.map(|(nm, nr)| (nr, nm));
        self.log.push(Dispatch {
            request: req,
            model: m,
            worker: w,
            queue_wait: now - arrival,
            service: compute,
            completion,
            predicted: completion - worker.burst_prev_completion,
            burst_start: std::mem::take(&mut worker.burst_start),
        });
        worker.burst_prev_completion = completion;
        worker.stats.frames += 1;
        worker.stats.busy_cycles += window;
        self.clocks[w] = now + window;
    }

    /// Serial step under chaos: the worker holds the request through a
    /// bounded retry loop on its own modeled timeline (retry affinity —
    /// failed attempts and backoffs burn this worker's cycles, they
    /// never go back through the queue). Clock arithmetic saturates: a
    /// timeout or SLO near `u64::MAX` cycles pins the clock at the end
    /// of modeled time instead of wrapping.
    fn step_chaos(&mut self, w: usize, chaos: &mut Chaos) {
        let (m, req) = self.pop(None).expect("step called with work");
        let svc = self.service.preload[m] + self.service.compute[m];
        let arrival = self.requests[req].arrival;
        // A crash-requeued request can land on a worker whose clock is
        // still behind the request's arrival (it sat idle through the
        // crash and its clock never advanced); the frame physically
        // starts once both the worker and the request exist.
        let dispatch = self.clocks[w].max(arrival);
        let mut start = dispatch;
        let mut served: Option<u64> = None;
        let mut crashed = false;
        loop {
            let attempt = chaos.attempts[req];
            chaos.attempts[req] += 1;
            let fault = chaos
                .faults
                .as_ref()
                .and_then(|f| draw_fault(f, req, attempt));
            let (burn, label) = match fault {
                None | Some(FrameFault::Spike) => {
                    let dur = if fault == Some(FrameFault::Spike) {
                        chaos.report.spikes += 1;
                        svc.saturating_add(chaos.spike_cycles)
                    } else {
                        svc
                    };
                    if chaos.timeout > 0 && dur > chaos.timeout {
                        // The watchdog aborts the attempt at the
                        // deadline.
                        chaos.report.timeouts += 1;
                        (chaos.timeout, "timeout")
                    } else {
                        served = Some(dur);
                        break;
                    }
                }
                Some(FrameFault::BusErr) => {
                    // A typed bus error surfaces mid-frame.
                    chaos.report.bus_errors += 1;
                    (svc / 2, "bus_err")
                }
                Some(FrameFault::Flip) => {
                    // Silent corruption: the frame runs to completion;
                    // the output fingerprint check catches it there.
                    chaos.report.corruptions_detected += 1;
                    (svc, "corrupt")
                }
                Some(FrameFault::Hang) => {
                    // A hung poll loop: only the watchdog (the
                    // validated-nonzero timeout) gets us back.
                    chaos.report.hangs += 1;
                    chaos.report.timeouts += 1;
                    (chaos.timeout, "hang")
                }
                Some(FrameFault::Crash) => {
                    chaos.report.crashes += 1;
                    crashed = true;
                    (svc / 2, "crash")
                }
            };
            let burnt = start.saturating_add(burn);
            // The failed attempt's burn, labeled by what killed it.
            self.tracer
                .span(self.workers[w].track, SpanKind::Retry, start, burnt, label);
            start = burnt;
            if crashed {
                break;
            }
            // The attempt failed: exhaust, shed, or back off and retry
            // on this same worker.
            if attempt >= chaos.retries {
                chaos.report.exhausted += 1;
                break;
            }
            let backoff = (chaos.timeout / 2).saturating_mul(1u64 << attempt.min(20));
            if start.saturating_sub(arrival).saturating_add(backoff) > chaos.shed_after {
                chaos.report.sheds += 1;
                break;
            }
            chaos.report.retries += 1;
            let resumed = start.saturating_add(backoff);
            self.tracer.span(
                self.workers[w].track,
                SpanKind::Retry,
                start,
                resumed,
                "backoff",
            );
            start = resumed;
        }
        let free = if let Some(dur) = served {
            let completion = start.saturating_add(dur);
            self.serial_spans(w, m, req, start, completion);
            // The replay runs the clean frame: fault burns exist only
            // in modeled time (their bus-level realism is pinned by the
            // soc chaos tests), so the predicted frame latency stays
            // the clean cost — which is what keeps replay divergence at
            // zero under faults.
            self.log.push(Dispatch {
                request: req,
                model: m,
                worker: w,
                queue_wait: start - arrival,
                service: dur,
                completion,
                predicted: svc,
                burst_start: false,
            });
            self.workers[w].stats.frames += 1;
            completion
        } else if crashed {
            // Failover: the in-flight request goes back to the head of
            // its queue (keeping its attempt history, so a
            // serially-crashing request exhausts its budget rather than
            // ping-ponging forever) if the admission bound still has
            // room; the worker pays the re-warm recovery before taking
            // more work either way.
            if chaos.attempts[req] > chaos.retries {
                chaos.report.exhausted += 1;
            } else if self.queued < self.queue_depth {
                // Already admitted and dequeued once, it must not lose
                // its place behind later arrivals.
                self.queues[m].push_front(req);
                self.queued += 1;
                chaos.report.failovers += 1;
            } else {
                chaos.report.sheds += 1;
            }
            let free = start.saturating_add(self.service.rewarm);
            self.tracer.span(
                self.workers[w].track,
                SpanKind::Rewarm,
                start,
                free,
                self.labels[m],
            );
            free
        } else {
            // Shed or exhausted: the request stays dropped; the worker
            // only burned the failed attempts.
            start
        };
        self.workers[w].stats.busy_cycles += free - dispatch;
        self.clocks[w] = free;
    }
}

/// Served-request samples of one group (a whole run, one model, one
/// pool), gathered as frames are served and summarized into
/// [`crate::serve::LatencyStats`] at the end.
#[derive(Debug, Clone, Default)]
pub(crate) struct Samples {
    pub queue_wait: Vec<u64>,
    pub service: Vec<u64>,
    pub total: Vec<u64>,
    /// Samples whose total met the SLO.
    pub slo_attained: u64,
    /// Latest completion cycle (0 when empty).
    pub makespan: u64,
}

impl Samples {
    /// Record one served frame against an SLO of `slo` cycles.
    pub(crate) fn add(&mut self, d: &Dispatch, slo: u64) {
        let total = d.total();
        self.queue_wait.push(d.queue_wait);
        self.service.push(d.service);
        self.total.push(total);
        self.slo_attained += u64::from(total <= slo);
        self.makespan = self.makespan.max(d.completion);
    }

    /// Requests served.
    pub(crate) fn served(&self) -> u64 {
        self.total.len() as u64
    }
}

/// One real-SoC replay: bursts of planned frames run back to back on a
/// fresh SoC of `config` with every model of `artifacts` resident.
pub(crate) struct ReplayJob<'a> {
    pub config: &'a SocConfig,
    /// Indexed by pool-local model slot.
    pub artifacts: &'a [Arc<Artifacts>],
    /// Each burst replays as one `run_sequence` (one pipeline fill).
    pub bursts: Vec<Vec<Planned>>,
}

/// Replay every job on its own SoC (fanned out across threads),
/// streaming per-request input bytes that are deterministic in `seed`
/// and the request index alone, and compare each frame's modeled
/// latency with the plan's prediction. Returns `(divergent frames,
/// planned frames)`. A frame the replay lost or added counts as
/// divergent.
///
/// Replaying real (varied) images proves the planned cycles are
/// input-independent; bytes are generated lazily per planned frame, so
/// dropped requests never materialize any.
pub(crate) fn replay(
    jobs: &[ReplayJob<'_>],
    codegen: CodegenOptions,
    pipelined: bool,
    seed: u64,
) -> Result<(u64, u64), BatchError> {
    let measured = fan_out(
        jobs.len(),
        jobs.len(),
        |j| -> Result<Vec<u64>, BatchError> {
            let job = &jobs[j];
            // Sequences bypass the policy, so any one will do.
            let mut sched = Scheduler::new(
                job.config,
                Policy::RoundRobin,
                pipelined,
                job.artifacts,
                codegen,
            )?;
            for d in job.bursts.iter().flatten() {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED << 16) ^ d.request as u64);
                let bytes = (0..job.artifacts[d.model].input_len)
                    .map(|_| rng.gen_range(0u8..=255))
                    .collect();
                sched.serial().enqueue_bytes(d.model, bytes)?;
            }
            let mut latencies = Vec::new();
            for burst in &job.bursts {
                let seq: Vec<usize> = burst.iter().map(|d| d.model).collect();
                let report = sched.run_sequence(&seq)?;
                latencies.extend(report.frame_latencies.iter().map(|f| f.cycles));
            }
            Ok(latencies)
        },
    );
    let mut divergence = 0u64;
    let mut frames = 0u64;
    for (job, run) in jobs.iter().zip(measured) {
        let latencies = run?;
        let planned = job.bursts.iter().flatten();
        divergence += planned
            .clone()
            .zip(&latencies)
            .filter(|(d, &l)| d.predicted != l)
            .count() as u64;
        let n = planned.count();
        divergence += n.abs_diff(latencies.len()) as u64;
        frames += n as u64;
    }
    Ok((divergence, frames))
}
