//! The driver-facing transport trait: one surface for in-process and remote
//! engines.
//!
//! [`EngineTransport`] is the contract the load drivers
//! (`svgic-workload`) and the cluster router (`svgic-cluster`) program
//! against. It has exactly one required method — [`EngineTransport::request`],
//! the typed request/response exchange — and provides every convenience
//! method (`create_session`, `flush`, `export_session`, …) as a default
//! implementation over it, so a transport only has to move
//! [`EngineRequest`]s and [`EngineResponse`]s.
//!
//! Two implementations exist:
//!
//! * [`Engine`] itself — `request` is [`Engine::handle`], a function call;
//! * `svgic_net::NetClient` — `request` is a codec round trip over a framed
//!   TCP connection to a remote `loadgen serve` process.
//!
//! Because the engine is deterministic and the codec is canonical, a driver
//! generic over `EngineTransport` produces **identical configuration
//! digests** through either implementation; only the latency changes. That
//! equality is asserted in `tests/net_service.rs` and the CI `net-smoke`
//! step.
//!
//! A transport that answers a request with the wrong response variant (a
//! server bug or a corrupted stream) surfaces as
//! [`EngineError::Transport`] — the only error the in-process engine never
//! returns.

use crate::api::{
    ConfigurationView, CreateSession, EngineError, EngineInfo, EngineRequest, EngineResponse,
    SessionEvent, SessionId,
};
use crate::engine::Engine;
use crate::session::SessionExport;
use crate::stats::StatsSnapshot;

/// Builds the error for a response variant the request can never produce.
fn mismatch(wanted: &'static str, got: &EngineResponse) -> EngineError {
    let got = match got {
        EngineResponse::SessionCreated(_) => "SessionCreated",
        EngineResponse::EventAccepted { .. } => "EventAccepted",
        EngineResponse::Configuration(_) => "Configuration",
        EngineResponse::Resolved(_) => "Resolved",
        EngineResponse::SessionClosed { .. } => "SessionClosed",
        EngineResponse::Flushed => "Flushed",
        EngineResponse::Stats(_) => "Stats",
        EngineResponse::StatsReset => "StatsReset",
        EngineResponse::SessionExported(_) => "SessionExported",
        EngineResponse::SessionImported(_) => "SessionImported",
        EngineResponse::Description(_) => "Description",
        EngineResponse::StandbyStored => "StandbyStored",
        EngineResponse::StandbyTaken(_) => "StandbyTaken",
        EngineResponse::Crashed => "Crashed",
    };
    EngineError::Transport(format!("protocol mismatch: wanted {wanted}, got {got}"))
}

/// One engine-shaped endpoint: the in-process [`Engine`] or a remote engine
/// behind a wire protocol.
///
/// All provided methods are thin typed wrappers over [`request`]
/// — implementors only supply the exchange itself. Every method takes
/// `&mut self` because a remote transport writes to a socket even for reads.
///
/// [`request`]: EngineTransport::request
pub trait EngineTransport {
    /// Sends one request and returns the engine's response.
    ///
    /// Transport-level failures (IO, framing, codec) are reported as
    /// [`EngineError::Transport`]; engine-level rejections come back as the
    /// engine's own error variants, exactly as the in-process call would
    /// return them.
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError>;

    /// Opens a session and solves its initial configuration.
    fn create_session(&mut self, spec: CreateSession) -> Result<ConfigurationView, EngineError> {
        match self.request(EngineRequest::CreateSession(Box::new(spec)))? {
            EngineResponse::SessionCreated(view) => Ok(view),
            other => Err(mismatch("SessionCreated", &other)),
        }
    }

    /// Queues an event; returns the session's pending-event count.
    fn submit_event(
        &mut self,
        session: SessionId,
        event: SessionEvent,
    ) -> Result<usize, EngineError> {
        match self.request(EngineRequest::SubmitEvent(session, event))? {
            EngineResponse::EventAccepted { pending, .. } => Ok(pending),
            other => Err(mismatch("EventAccepted", &other)),
        }
    }

    /// Reads the last served configuration without solving.
    fn query_configuration(
        &mut self,
        session: SessionId,
    ) -> Result<ConfigurationView, EngineError> {
        match self.request(EngineRequest::QueryConfiguration(session))? {
            EngineResponse::Configuration(view) => Ok(view),
            other => Err(mismatch("Configuration", &other)),
        }
    }

    /// Applies the session's pending events now and forces a full LP
    /// re-solve.
    fn force_resolve(&mut self, session: SessionId) -> Result<ConfigurationView, EngineError> {
        match self.request(EngineRequest::ForceResolve(session))? {
            EngineResponse::Resolved(view) => Ok(view),
            other => Err(mismatch("Resolved", &other)),
        }
    }

    /// Closes a session; returns its lifetime event count.
    fn close_session(&mut self, session: SessionId) -> Result<u64, EngineError> {
        match self.request(EngineRequest::CloseSession(session))? {
            EngineResponse::SessionClosed {
                lifetime_events, ..
            } => Ok(lifetime_events),
            other => Err(mismatch("SessionClosed", &other)),
        }
    }

    /// Applies every session's pending events in one batched dispatch.
    fn flush(&mut self) -> Result<(), EngineError> {
        match self.request(EngineRequest::Flush)? {
            EngineResponse::Flushed => Ok(()),
            other => Err(mismatch("Flushed", &other)),
        }
    }

    /// Reads a point-in-time snapshot of the engine: counters, the solve
    /// ledger, the telemetry ring and the span sections.
    fn stats(&mut self) -> Result<StatsSnapshot, EngineError> {
        match self.request(EngineRequest::QueryStats)? {
            EngineResponse::Stats(snapshot) => Ok(*snapshot),
            other => Err(mismatch("Stats", &other)),
        }
    }

    /// Resets the engine counters (sessions and caches stay warm).
    fn reset_stats(&mut self) -> Result<(), EngineError> {
        match self.request(EngineRequest::ResetStats)? {
            EngineResponse::StatsReset => Ok(()),
            other => Err(mismatch("StatsReset", &other)),
        }
    }

    /// Drains a session into its transferable form (live-migration out).
    fn export_session(&mut self, session: SessionId) -> Result<SessionExport, EngineError> {
        match self.request(EngineRequest::ExportSession(session))? {
            EngineResponse::SessionExported(export) => Ok(*export),
            other => Err(mismatch("SessionExported", &other)),
        }
    }

    /// Adopts an exported session under a fresh local id (live-migration
    /// in).
    fn import_session(&mut self, export: SessionExport) -> Result<SessionId, EngineError> {
        match self.request(EngineRequest::ImportSession(Box::new(export)))? {
            EngineResponse::SessionImported(id) => Ok(id),
            other => Err(mismatch("SessionImported", &other)),
        }
    }

    /// Probes the engine's shape and occupancy.
    fn describe(&mut self) -> Result<EngineInfo, EngineError> {
        match self.request(EngineRequest::Describe)? {
            EngineResponse::Description(info) => Ok(info),
            other => Err(mismatch("Description", &other)),
        }
    }

    /// Clones a session into its transferable form without draining it (the
    /// replication half of warm standby).
    fn snapshot_session(&mut self, session: SessionId) -> Result<SessionExport, EngineError> {
        match self.request(EngineRequest::SnapshotSession(session))? {
            EngineResponse::SessionExported(export) => Ok(*export),
            other => Err(mismatch("SessionExported", &other)),
        }
    }

    /// Stores a standby replica under a cluster-assigned key (overwrites any
    /// previous replica under the same key).
    fn put_standby(&mut self, key: u64, export: SessionExport) -> Result<(), EngineError> {
        match self.request(EngineRequest::PutStandby(key, Box::new(export)))? {
            EngineResponse::StandbyStored => Ok(()),
            other => Err(mismatch("StandbyStored", &other)),
        }
    }

    /// Removes and returns the standby replica under a key, if any.
    fn take_standby(&mut self, key: u64) -> Result<Option<SessionExport>, EngineError> {
        match self.request(EngineRequest::TakeStandby(key))? {
            EngineResponse::StandbyTaken(export) => Ok(export.map(|b| *b)),
            other => Err(mismatch("StandbyTaken", &other)),
        }
    }

    /// Simulates a node crash: wipes the engine back to its
    /// freshly-constructed state (sessions, standbys, caches, counters).
    fn crash(&mut self) -> Result<(), EngineError> {
        match self.request(EngineRequest::Crash)? {
            EngineResponse::Crashed => Ok(()),
            other => Err(mismatch("Crashed", &other)),
        }
    }
}

impl EngineTransport for Engine {
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        self.handle(request)
    }
}

impl<T: EngineTransport + ?Sized> EngineTransport for &mut T {
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        (**self).request(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_core::example::running_example;
    use svgic_core::extensions::DynamicEvent;

    /// Drives the engine exclusively through the trait surface — what a
    /// remote client exercises — and checks the typed wrappers unwrap the
    /// right variants.
    #[test]
    fn trait_surface_covers_the_whole_engine() {
        let mut engine = Engine::new(crate::engine::EngineConfig {
            workers: 2,
            shards: 2,
            auto_flush_pending: 0,
            ..crate::engine::EngineConfig::default()
        });
        let backend: &mut dyn EngineTransport = &mut engine;
        let view = backend
            .create_session(CreateSession {
                instance: running_example(),
                initial_present: vec![],
                seed: 11,
            })
            .expect("creates");
        let id = view.session;
        let pending = backend
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .expect("submits");
        assert_eq!(pending, 1);
        backend.flush().expect("flushes");
        let view = backend.query_configuration(id).expect("queries");
        assert_eq!(view.present, vec![1, 2, 3]);
        let info = backend.describe().expect("describes");
        assert_eq!(info.workers, 2);
        assert_eq!(info.sessions, 1);
        assert_eq!(info.pending_events, 0);
        let stats = backend.stats().expect("stats");
        let metrics = stats.metrics();
        assert!(metrics
            .iter()
            .any(|(name, value)| name == "requests" && *value > 0.0));
        assert!(metrics.iter().all(|(_, value)| value.is_finite()));
        assert!(
            !stats.telemetry.is_empty(),
            "the default engine samples telemetry on every flush"
        );
        assert!(
            !stats.profile.is_empty(),
            "the default engine attributes solves to its template ledger"
        );
        assert!(
            stats.phases.is_empty() && stats.collapsed.is_empty(),
            "span sections stay empty while tracing is off"
        );
        assert_eq!(stats.sessions_created, 1);
        backend.reset_stats().expect("resets");
        assert_eq!(backend.stats().expect("stats").sessions_created, 0);
        let export = backend.export_session(id).expect("exports");
        assert!(export.has_warm_capital());
        let id = backend.import_session(export).expect("imports");
        let resolved = backend.force_resolve(id).expect("resolves");
        assert!(resolved.configuration.is_valid(resolved.catalog.len()));
        let lifetime = backend.close_session(id).expect("closes");
        assert_eq!(lifetime, 1);
        assert!(matches!(
            backend.query_configuration(id),
            Err(EngineError::UnknownSession(_))
        ));
    }

    /// The standby/crash wrappers: snapshot leaves the session live, a put
    /// standby comes back on take, and crash wipes everything.
    #[test]
    fn standby_surface_roundtrips_and_crash_wipes() {
        let mut engine = Engine::new(crate::engine::EngineConfig {
            workers: 1,
            shards: 1,
            auto_flush_pending: 0,
            ..crate::engine::EngineConfig::default()
        });
        let backend: &mut dyn EngineTransport = &mut engine;
        let view = backend
            .create_session(CreateSession {
                instance: running_example(),
                initial_present: vec![],
                seed: 21,
            })
            .expect("creates");
        let id = view.session;
        let snapshot = backend.snapshot_session(id).expect("snapshots");
        assert!(snapshot.has_warm_capital());
        backend
            .query_configuration(id)
            .expect("session stays live after a snapshot");
        backend.put_standby(0xBEEF, snapshot).expect("stores");
        assert!(
            backend.take_standby(0x5151).expect("takes").is_none(),
            "unknown key takes nothing"
        );
        let taken = backend
            .take_standby(0xBEEF)
            .expect("takes")
            .expect("replica present");
        assert_eq!(taken.generation, 1);
        assert!(
            backend.take_standby(0xBEEF).expect("takes").is_none(),
            "take removes the replica"
        );
        backend.put_standby(0xBEEF, taken).expect("stores again");
        backend.crash().expect("crashes");
        let info = backend.describe().expect("describes");
        assert_eq!(info.sessions, 0, "crash drops sessions");
        assert!(
            backend.take_standby(0xBEEF).expect("takes").is_none(),
            "crash drops standbys"
        );
        assert_eq!(
            backend.stats().expect("stats").sessions_created,
            0,
            "crash resets counters"
        );
        let view = backend
            .create_session(CreateSession {
                instance: running_example(),
                initial_present: vec![],
                seed: 21,
            })
            .expect("creates after crash");
        assert_eq!(view.session, SessionId(1), "session ids restart");
    }
}
