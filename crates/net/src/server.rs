//! The blocking TCP server: one engine, one acceptor, per-connection reader
//! and writer threads.
//!
//! Thread anatomy (all `std::thread`, no async runtime):
//!
//! ```text
//!                  ┌────────────┐   Job (request id, EngineRequest,
//!   conn A reader ─┤            │        reply sender)
//!   conn B reader ─┤ mpsc queue ├──► engine thread (owns the Engine,
//!   conn C reader ─┤            │    handles jobs strictly in arrival
//!                  └────────────┘    order — the serving path stays
//!                                    the engine's own batched scheduler)
//!        ▲                                      │
//!   acceptor thread                per-connection writer threads
//!   (TcpListener::incoming)        (response frames, matched by id)
//! ```
//!
//! Every connection gets its own reader thread (decodes frames into typed
//! requests) and writer thread (serializes response frames); the single
//! engine thread is the only place engine state is touched, so the server
//! adds **no** concurrency semantics the in-process engine did not already
//! have — a trace served over N connections is handled in the exact arrival
//! order of its requests. Responses carry the request id of the frame that
//! caused them, so a pipelining client can match them.
//!
//! Failure containment: a frame that fails to *decode* is answered with an
//! `EngineError::Transport` response (the connection lives on); a stream
//! whose framing is unrecoverable (bad magic, oversized length, mid-frame
//! death) is dropped without the engine ever seeing a partial request — a
//! malformed client cannot mutate any engine state.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use svgic_engine::codec::{decode_request, encode_response};
use svgic_engine::{Engine, EngineError, EngineRequest, Phase, SpanRecord, Tracer};

use crate::frame::{read_frame, write_frame, Frame, FrameKind};

/// A unit of work handed from a connection reader to the engine thread.
enum Job {
    /// A decoded request plus the route back to its connection's writer.
    Request {
        request_id: u64,
        request: EngineRequest,
        reply: Sender<Frame>,
        /// When the reader finished decoding the frame (tracing only, `None`
        /// while tracing is off). The engine thread closes this into a
        /// [`Phase::WireWait`] span at pickup: the time a decoded request
        /// spent queued behind other connections' work.
        decoded_at: Option<Instant>,
    },
    /// Stop the engine thread (sent when a client requests shutdown).
    Shutdown,
}

/// A running server: an [`Engine`] fronted by a TCP listener.
///
/// Construct with [`NetServer::bind`]; the server serves in background
/// threads until a client sends a shutdown frame
/// ([`crate::NetClient::shutdown_server`]), then [`NetServer::join`]
/// returns. Dropping the handle detaches the threads (the process keeps
/// serving), which is what `loadgen serve` relies on after printing the
/// bound address.
pub struct NetServer {
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    engine_thread: JoinHandle<()>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) and
    /// starts serving `engine` in background threads.
    pub fn bind(addr: impl ToSocketAddrs, engine: Engine) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (job_tx, job_rx) = channel::<Job>();
        let stopping = Arc::new(AtomicBool::new(false));
        // The readers need the tracer to stamp decode times, but the engine
        // itself moves into its thread — clone the (Arc-backed) handle first.
        let tracer = engine.tracer().clone();

        let engine_thread = {
            let tracer = tracer.clone();
            std::thread::spawn(move || {
                let mut engine = engine;
                while let Ok(job) = job_rx.recv() {
                    match job {
                        Job::Request {
                            request_id,
                            request,
                            reply,
                            decoded_at,
                        } => {
                            // Close the wire-wait span: decode done → engine
                            // pickup, the queueing delay the mpsc hop added.
                            tracer.finish(
                                decoded_at,
                                Phase::WireWait,
                                request_id,
                                0,
                                SpanRecord::NO_SHARD,
                            );
                            // Serve under the frame's request id so the
                            // engine's Serve span (and everything inside it)
                            // correlates with the id the client chose and
                            // will see echoed.
                            let result = engine.handle_traced(request_id, request);
                            // A dead connection just drops its responses.
                            let _ = reply.send(Frame {
                                kind: FrameKind::Response,
                                request_id,
                                payload: encode_response(&result),
                            });
                        }
                        Job::Shutdown => break,
                    }
                }
            })
        };

        let acceptor = {
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let job_tx = job_tx.clone();
                    let stopping = Arc::clone(&stopping);
                    let tracer = tracer.clone();
                    std::thread::spawn(move || {
                        serve_connection(stream, addr, job_tx, stopping, tracer)
                    });
                }
            })
        };

        Ok(NetServer {
            addr,
            acceptor,
            engine_thread,
        })
    }

    /// The address the server actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client shuts the server down. The shutdown ack has
    /// been written to the requesting connection by the time this returns.
    pub fn join(self) {
        let _ = self.engine_thread.join();
        let _ = self.acceptor.join();
    }
}

/// Reader half of one connection: decode frames, feed the engine queue,
/// spawn the writer. Runs until the client hangs up, the stream desyncs, or
/// a shutdown frame arrives.
fn serve_connection(
    stream: TcpStream,
    server_addr: SocketAddr,
    job_tx: Sender<Job>,
    stopping: Arc<AtomicBool>,
    tracer: Tracer,
) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (conn_tx, conn_rx) = channel::<Frame>();
    let writer = std::thread::spawn(move || {
        let mut write_half = write_half;
        while let Ok(frame) = conn_rx.recv() {
            if write_frame(&mut write_half, &frame).is_err() {
                break;
            }
        }
    });

    let mut read_half = stream;
    // Clean hangup or unrecoverable framing (bad magic, oversized length,
    // mid-frame death) falls out of the `while let`: the connection closes
    // and the engine is never touched by the broken bytes.
    while let Ok(frame) = read_frame(&mut read_half) {
        match frame.kind {
            FrameKind::Request => match decode_request(&frame.payload) {
                Ok(request) => {
                    if job_tx
                        .send(Job::Request {
                            request_id: frame.request_id,
                            request,
                            reply: conn_tx.clone(),
                            decoded_at: tracer.begin(),
                        })
                        .is_err()
                    {
                        break; // engine thread already stopped
                    }
                }
                // Structurally sound frame, malformed payload: tell the
                // client and keep serving — the engine never saw it.
                Err(e) => {
                    let error: Result<svgic_engine::EngineResponse, EngineError> =
                        Err(EngineError::Transport(format!("request decode: {e}")));
                    let _ = conn_tx.send(Frame {
                        kind: FrameKind::Response,
                        request_id: frame.request_id,
                        payload: encode_response(&error),
                    });
                }
            },
            FrameKind::Shutdown => {
                // Flush the ack before the engine thread stops:
                // `NetServer::join` returns as soon as it does, and a
                // process that exits right after must not take an unsent
                // ack with it. The writer drains once every reply sender
                // is gone (queued jobs hold clones until the engine
                // answers them).
                let _ = conn_tx.send(Frame {
                    kind: FrameKind::Shutdown,
                    request_id: frame.request_id,
                    payload: Vec::new(),
                });
                drop(conn_tx);
                let _ = writer.join();
                stopping.store(true, Ordering::SeqCst);
                let _ = job_tx.send(Job::Shutdown);
                // Poke the acceptor loose from its blocking accept with a
                // throwaway connection.
                let _ = TcpStream::connect(server_addr);
                return;
            }
            // A server never receives response frames; the stream is
            // confused — drop it.
            FrameKind::Response => break,
        }
    }
    drop(conn_tx);
    let _ = writer.join();
}
