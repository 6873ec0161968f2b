//! The closed-loop replay: one client thread sends each trace request and
//! waits for its reply before sending the next.
//!
//! A trace tick is a flush boundary, not a wall-clock time: at every
//! `Tick` the client flushes the engine, which re-solves every session that
//! received events since the previous tick. Failed requests are counted, not
//! fatal; every served configuration is checked with `is_valid` and folded
//! into a digest.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use svgic_core::extensions::DynamicEvent;
use svgic_core::SvgicInstance;
use svgic_engine::fingerprint::Fnv;
use svgic_engine::prelude::*;
use svgic_engine::{CreateSession, EngineRequest, EngineResponse};
use svgic_workload::{Trace, TraceEvent};

use crate::spans::{nanos_between, now, seconds_between, SpanId, SpanLog, NO_SPAN};

/// What one replay of a trace produced.
#[derive(Debug, Default)]
pub struct Replayed {
    /// When the measured window began (after warmup).
    pub measure_start: Option<Instant>,
    /// Length of the measured window, in seconds.
    pub wall_s: f64,
    /// Create, submit, query and close calls completed in the window
    /// (flushes excluded), the numerator of `throughput_rps`.
    pub requests: u64,
    /// Every engine call the replay made, flushes included.
    pub attempted: u64,
    /// Engine calls that returned an error.
    pub failed: u64,
    /// Served configurations that failed `is_valid`.
    pub invalid: u64,
    /// Refresh waits in the window, in nanoseconds, sorted: each flush's
    /// latency once for every group that had events queued for it.
    pub refresh_ns: Vec<u64>,
    /// `create_session` latencies in the window, in nanoseconds, sorted.
    pub open_ns: Vec<u64>,
    /// `query_configuration` latencies in the window, in nanoseconds,
    /// sorted.
    pub query_ns: Vec<u64>,
    /// Sum of served SAVG utilities over non-empty query replies.
    pub utility_sum: f64,
    /// Sum of the LP bounds of the same replies.
    pub bound_sum: f64,
    /// Non-empty query replies in the window.
    pub served: u64,
    /// Digest over every query reply of the whole trace.
    pub digest: u64,
    /// Engine counters at the end of the window.
    pub stats: Option<StatsSnapshot>,
    /// `mem_total_bytes()` of a `stats()` read at the window's middle tick,
    /// while sessions are live (the trace closes them all by its end).
    pub mid_mem_bytes: u64,
}

/// Folds one served view into the digest. The fold matches the one
/// `svgic_workload::LoadDriver` uses, so the two agree on the same replay.
fn digest_view(hasher: &mut Fnv, key: u64, view: &ConfigurationView) {
    hasher.write_u64(key);
    hasher.write_u64(view.generation);
    hasher.write_u64(view.present.len() as u64);
    for &user in &view.present {
        hasher.write_u64(user as u64);
    }
    hasher.write_u64(view.catalog.len() as u64);
    for &item in &view.catalog {
        hasher.write_u64(item as u64);
    }
    for user in 0..view.configuration.num_users() {
        for &item in view.configuration.items_of(user) {
            hasher.write_u64(item as u64);
        }
    }
    hasher.write_f64(view.utility);
}

fn valid(view: &ConfigurationView) -> bool {
    view.present.is_empty() || view.configuration.is_valid(view.catalog.len())
}

/// Replay state for one pass over one trace.
struct Client<'a> {
    log: &'a mut SpanLog,
    out: Replayed,
    digest: Fnv,
    measuring: bool,
    next_request: u64,
    /// Sessions with events queued since the last flush.
    waiting: HashSet<u64>,
}

impl Client<'_> {
    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Counts one engine call's outcome.
    fn settle<R>(&mut self, result: Result<R, EngineError>, counts: bool) -> Option<R> {
        self.out.attempted += 1;
        match result {
            Ok(value) => {
                if counts && self.measuring {
                    self.out.requests += 1;
                }
                Some(value)
            }
            Err(_) => {
                self.out.failed += 1;
                None
            }
        }
    }

    /// Counts a request that cannot be sent because an earlier failure left
    /// its session unknown.
    fn unsendable(&mut self) {
        self.out.attempted += 1;
        self.out.failed += 1;
    }

    /// Checks and digests a served view.
    fn observe(&mut self, key: u64, view: &ConfigurationView, parent: SpanId, request: u64) {
        let span = self.log.open("client.check", parent, request);
        digest_view(&mut self.digest, key, view);
        if !valid(view) {
            self.out.invalid += 1;
        }
        if self.measuring && !view.present.is_empty() {
            self.out.served += 1;
            self.out.utility_sum += view.utility;
            self.out.bound_sum += view.lp_bound;
        }
        self.log.close(span);
    }

    fn flush<T: EngineTransport>(&mut self, engine: &mut T, parent: SpanId) {
        let request = self.request_id();
        let t0 = now();
        let result = engine.flush();
        let t1 = now();
        self.log.record("engine.flush", parent, request, t0, t1);
        if self.measuring {
            let wait = nanos_between(t0, t1);
            self.out
                .refresh_ns
                .extend(std::iter::repeat_n(wait, self.waiting.len()));
        }
        self.waiting.clear();
        self.settle(result, false);
    }

    fn submit<T: EngineTransport>(
        &mut self,
        engine: &mut T,
        key: u64,
        session: Option<SessionId>,
        event: impl FnOnce() -> SessionEvent,
        parent: SpanId,
    ) {
        let request = self.request_id();
        let prepare = self.log.open("client.prepare", parent, request);
        let event = event();
        self.log.close(prepare);
        let Some(id) = session else {
            self.unsendable();
            return;
        };
        let t0 = now_if(self.log.enabled());
        let result = engine.submit_event(id, event);
        self.record_if("engine.submit", parent, request, t0);
        if self.settle(result, true).is_some() {
            self.waiting.insert(key);
        }
    }

    /// Ends warmup: resets the engine counters (caches stay warm), starts
    /// the measured window and, in a traced pass, the pass span.
    fn start_measuring<T: EngineTransport>(&mut self, engine: &mut T, traced: bool) -> SpanId {
        let reset = engine.reset_stats();
        self.settle(reset, false);
        self.measuring = true;
        self.log.set_enabled(traced);
        self.out.measure_start = Some(now());
        self.log.open("workload.pass", NO_SPAN, 0)
    }

    fn record_if(&mut self, name: &'static str, parent: SpanId, request: u64, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.log.record(name, parent, request, t0, now());
        }
    }
}

/// Reads the clock only when a traced pass needs the span.
fn now_if(enabled: bool) -> Option<Instant> {
    enabled.then(now)
}

/// Replays `trace` through `engine`, treating the first `warmup_ticks`
/// ticks as set-up: at that boundary the engine counters are reset (its
/// caches stay warm) and the measured window starts. The digest covers the
/// whole trace. `instances` are the trace's built templates.
pub fn replay<T: EngineTransport>(
    engine: &mut T,
    trace: &Trace,
    instances: &[SvgicInstance],
    warmup_ticks: usize,
    log: &mut SpanLog,
) -> Replayed {
    let mut client = Client {
        log,
        out: Replayed::default(),
        digest: Fnv::new(),
        measuring: false,
        next_request: 0,
        waiting: HashSet::new(),
    };
    let mut sessions: HashMap<u64, SessionId> = HashMap::new();
    // Warmup is set-up: spans start with the measured window.
    let traced = client.log.enabled();
    client.log.set_enabled(false);
    let mut pass = NO_SPAN;
    let mut tick_span = NO_SPAN;
    let mid_tick = warmup_ticks + trace.ticks.saturating_sub(warmup_ticks) / 2;

    if warmup_ticks == 0 {
        pass = client.start_measuring(engine, traced);
    }

    for event in &trace.events {
        match event {
            TraceEvent::Tick(tick) => {
                let parent = if tick_span == NO_SPAN {
                    pass
                } else {
                    tick_span
                };
                client.flush(engine, parent);
                client.log.close(tick_span);
                if !client.measuring && *tick == warmup_ticks {
                    pass = client.start_measuring(engine, traced);
                }
                if *tick == mid_tick {
                    let stats = engine.stats();
                    if let Some(stats) = client.settle(stats, false) {
                        client.out.mid_mem_bytes = stats.mem_total_bytes();
                    }
                }
                let request = client.request_id();
                tick_span = client.log.open("workload.tick", pass, request);
            }
            TraceEvent::Open {
                key,
                template,
                seed,
                present,
            } => {
                let request = client.request_id();
                let prepare = client.log.open("client.prepare", tick_span, request);
                let spec = instances.get(*template).map(|instance| CreateSession {
                    instance: instance.clone(),
                    initial_present: present.clone(),
                    seed: *seed,
                });
                client.log.close(prepare);
                let Some(spec) = spec else {
                    client.unsendable();
                    continue;
                };
                let t0 = now();
                let result = engine.create_session(spec);
                let t1 = now();
                client
                    .log
                    .record("engine.create", tick_span, request, t0, t1);
                if client.measuring {
                    client.out.open_ns.push(nanos_between(t0, t1));
                }
                if let Some(view) = client.settle(result, true) {
                    // The initial view is checked but not digested, as in
                    // `LoadDriver`.
                    if !valid(&view) {
                        client.out.invalid += 1;
                    }
                    sessions.insert(*key, view.session);
                }
            }
            TraceEvent::Join { key, user } => {
                let user = *user;
                let session = sessions.get(key).copied();
                client.submit(
                    engine,
                    *key,
                    session,
                    || SessionEvent::Membership(DynamicEvent::Join(user)),
                    tick_span,
                );
            }
            TraceEvent::Leave { key, user } => {
                let user = *user;
                let session = sessions.get(key).copied();
                client.submit(
                    engine,
                    *key,
                    session,
                    || SessionEvent::Membership(DynamicEvent::Leave(user)),
                    tick_span,
                );
            }
            TraceEvent::Catalog { key, items } => {
                let session = sessions.get(key).copied();
                client.submit(
                    engine,
                    *key,
                    session,
                    || SessionEvent::SetCatalog(items.clone()),
                    tick_span,
                );
            }
            TraceEvent::Lambda { key, value } => {
                let value = *value;
                let session = sessions.get(key).copied();
                client.submit(
                    engine,
                    *key,
                    session,
                    || SessionEvent::RetuneLambda(value),
                    tick_span,
                );
            }
            TraceEvent::Query { key } => {
                let request = client.request_id();
                let Some(&id) = sessions.get(key) else {
                    client.unsendable();
                    continue;
                };
                let t0 = now();
                let result = engine.query_configuration(id);
                let t1 = now();
                client
                    .log
                    .record("engine.query", tick_span, request, t0, t1);
                if client.measuring {
                    client.out.query_ns.push(nanos_between(t0, t1));
                }
                if let Some(view) = client.settle(result, true) {
                    client.observe(*key, &view, tick_span, request);
                }
            }
            TraceEvent::Close { key } => {
                let request = client.request_id();
                client.waiting.remove(key);
                let Some(id) = sessions.remove(key) else {
                    client.unsendable();
                    continue;
                };
                let t0 = now_if(client.log.enabled());
                let result = engine.close_session(id);
                client.record_if("engine.close", tick_span, request, t0);
                client.settle(result, true);
            }
        }
    }

    // Final sweep: flush what the last tick queued, then read and close every
    // session still open, in key order so the digest is order-stable.
    client.flush(engine, tick_span);
    client.log.close(tick_span);
    let sweep = {
        let request = client.request_id();
        client.log.open("workload.sweep", pass, request)
    };
    let mut leftovers: Vec<(u64, SessionId)> = sessions.into_iter().collect();
    leftovers.sort_unstable();
    for (key, id) in leftovers {
        let request = client.request_id();
        let t0 = now_if(client.log.enabled());
        let result = engine.query_configuration(id);
        client.record_if("engine.query", sweep, request, t0);
        if let Some(view) = client.settle(result, true) {
            client.observe(key, &view, sweep, request);
        }
        let request = client.request_id();
        let t0 = now_if(client.log.enabled());
        let result = engine.close_session(id);
        client.record_if("engine.close", sweep, request, t0);
        client.settle(result, true);
    }
    client.log.close(sweep);
    let end = now();
    client.log.close(pass);

    if let Some(start) = client.out.measure_start {
        client.out.wall_s = seconds_between(start, end);
    }
    let stats = engine.stats();
    client.out.stats = client.settle(stats, false);
    client.out.digest = client.digest.finish();
    for samples in [
        &mut client.out.refresh_ns,
        &mut client.out.open_ns,
        &mut client.out.query_ns,
    ] {
        samples.sort_unstable();
    }
    client.out
}

/// One request and its reply, as the codec probe replays them.
pub type Frame = (EngineRequest, Result<EngineResponse, EngineError>);

/// A transport that forwards to `inner` and keeps a copy of the first
/// `cap` request/reply pairs for the codec probe.
pub struct Tap<'a, T> {
    pub inner: &'a mut T,
    pub frames: Vec<Frame>,
    pub cap: usize,
}

impl<T: EngineTransport> EngineTransport for Tap<'_, T> {
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        if self.frames.len() >= self.cap {
            return self.inner.request(request);
        }
        let copy = request.clone();
        let reply = self.inner.request(request);
        self.frames.push((copy, reply.clone()));
        reply
    }
}
