//! Per-connection state machine for the event-driven handler loop.
//!
//! A [`Conn`] owns a non-blocking socket plus everything a request needs
//! to survive *suspension*: the resumable [`FrameDecoder`] (partial
//! frames park here — the structural fix for the PR-9 mid-frame timeout
//! desync), an explicit write buffer (partial writes park here), the
//! in-flight engine round trip with its RAII admission [`Permit`]
//! (panics and severed connections return the permit through `Drop` —
//! the fix for the permit leak), and any injected client-stall
//! deferral. A small pool of event workers sweeps thousands of these
//! machines; no OS thread ever belongs to a connection.
//!
//! The engine round trip allocates nothing: a connection owns one
//! [`ReplySlot`] for its whole life and numbers its requests; the command
//! carries the slot, the number and the owning worker's [`Doorbell`], and
//! the engine's fill-then-ring is what brings the worker back to
//! [`Conn::poll`] — not a timer. A reply to an earlier, timed-out request
//! carries an older number and is never mistaken for the current one.
//!
//! Each [`Conn::poll`] makes whatever progress the socket allows and
//! returns, telling the worker what this connection still waits on
//! ([`Polled::busy`], [`Polled::timer`]) so the worker can size its nap.
//! The lifecycle counters are recorded at the same decision
//! points as the threaded path, so both conservation identities —
//! `accepts == admits + sheds` and
//! `accepts == responses + sheds + dropped_conns` — hold verbatim, and
//! [`Conn::abort`] settles any half-decided request when a connection is
//! severed or a handler panics, so they hold even then.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use dtt_core::FaultPoint;

use crate::admission::{Gate, Permit};
use crate::engine::{read_cache, Doorbell, EngineCmd, Reply, ReplySlot, ReplyTo};
use crate::proto::{FrameDecoder, Request, Response};
use crate::server::Shared;

/// Frames decided per poll before yielding to other connections.
const FRAMES_PER_POLL: usize = 32;

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 4096;

/// What one [`Conn::poll`] accomplished.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Polled {
    /// `false` once the connection is finished (clean close or sever);
    /// the worker drops the `Conn`.
    pub keep: bool,
    /// Whether any bytes moved or any request advanced — workers use
    /// this to decide between another sweep and a nap.
    pub progressed: bool,
    /// A request in flight, a stall deferral or unflushed output: the
    /// connection is mid-exchange, so the worker keeps its naps short.
    pub busy: bool,
    /// When this connection must be polled again even if nothing rings:
    /// its request deadline or the end of its stall deferral.
    pub timer: Option<Instant>,
}

impl Polled {
    /// The verdict for a finished connection.
    pub(crate) fn closed(progressed: bool) -> Polled {
        Polled {
            keep: false,
            progressed,
            busy: false,
            timer: None,
        }
    }
}

/// An engine round trip in flight: the command is enqueued, the sequence
/// number its reply will carry and the fallback answer are parked here,
/// and the admission permit is held — returned by `Drop` on every exit
/// path.
struct Pending {
    seq: u64,
    deadline: Instant,
    fallback: Fallback,
    _permit: Permit,
}

/// The degraded answer if the engine misses the deadline or stops.
enum Fallback {
    /// Write applied but not confirmed fresh.
    PutOk,
    /// Serve the last-committed cell.
    Get { query: u8 },
    /// Serve the last-committed shard-row aggregate for the key.
    GetKey { key: u64 },
}

/// One client connection's complete suspended state.
pub(crate) struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded-but-unwritten response bytes.
    out: Vec<u8>,
    out_pos: usize,
    /// Where the engine answers this connection, request after request.
    reply: Arc<ReplySlot>,
    /// The owning event worker's doorbell, handed to the engine with
    /// every command.
    worker: Arc<Doorbell>,
    /// Sequence number of the last request sent to the engine.
    seq: u64,
    pending: Option<Pending>,
    /// A decoded request deferred by an injected client stall.
    deferred: Option<Request>,
    stall_until: Option<Instant>,
    /// Requests counted by `on_accept` but not yet decided; settled by
    /// [`Conn::abort`] if the connection dies first.
    undecided: u32,
    peer_eof: bool,
    /// Close once the write buffer drains (malformed input was answered).
    closing: bool,
    /// Close immediately, discarding the write buffer (injected
    /// conn-drop or a transport error).
    severed: bool,
}

impl Conn {
    /// Wraps an accepted stream for the event worker behind `worker`;
    /// switches it to non-blocking mode.
    pub(crate) fn new(stream: TcpStream, worker: Arc<Doorbell>) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            reply: Arc::new(ReplySlot::default()),
            worker,
            seq: 0,
            pending: None,
            deferred: None,
            stall_until: None,
            undecided: 0,
            peer_eof: false,
            closing: false,
            severed: false,
        })
    }

    /// Advances the connection as far as the socket allows: flush,
    /// resolve the in-flight engine reply, read, decide buffered frames.
    /// Under `draining` no *new* frames are decided; the in-flight
    /// request still finishes (and is flushed) before the close.
    pub(crate) fn poll(&mut self, shared: &Shared, draining: bool) -> Polled {
        let mut progressed = false;

        if self.severed {
            return self.sever(shared, progressed);
        }

        // Injected client stall: the decoded request waits out its
        // deferral without holding an OS thread hostage.
        if let Some(until) = self.stall_until {
            if Instant::now() < until {
                match self.flush() {
                    Ok(p) => progressed |= p,
                    Err(_) => return self.sever(shared, true),
                }
                return self.polled(progressed);
            }
            self.stall_until = None;
            progressed = true;
        }
        if self.pending.is_none() {
            if let Some(req) = self.deferred.take() {
                self.decide(shared, req);
                progressed = true;
            }
        }

        progressed |= self.poll_pending(shared);

        match self.flush() {
            Ok(p) => progressed |= p,
            Err(_) => return self.sever(shared, true),
        }

        // Read only while no request is in flight: the kernel socket
        // buffer back-pressures pipelining clients, so a connection's
        // memory stays bounded by one frame plus one response.
        if !self.peer_eof && !self.closing && self.pending.is_none() && self.deferred.is_none() {
            match self.fill() {
                Ok(p) => progressed |= p,
                Err(_) => return self.sever(shared, true),
            }
        }

        if !draining {
            let mut decided = 0;
            while decided < FRAMES_PER_POLL
                && !self.closing
                && !self.severed
                && self.pending.is_none()
                && self.deferred.is_none()
            {
                let decoded = match self.decoder.next_payload() {
                    Ok(Some(payload)) => Request::decode(payload),
                    Ok(None) => break,
                    Err(_) => {
                        // Hostile length prefix: answer once, then close.
                        self.queue(Response::Err { code: 1 });
                        self.closing = true;
                        progressed = true;
                        break;
                    }
                };
                progressed = true;
                decided += 1;
                let Some(request) = decoded else {
                    // Malformed payload: answer once, then desync-close.
                    self.queue(Response::Err { code: 1 });
                    self.closing = true;
                    break;
                };
                shared.stats.on_accept();
                self.undecided += 1;
                // Injected slow client: stretch the gap between decode
                // and admission by the plan's delay — as a deferral, not
                // a blocked worker.
                if shared.probe.fire(FaultPoint::ClientStall) {
                    self.stall_until = Some(Instant::now() + shared.probe.delay_duration());
                    self.deferred = Some(request);
                    break;
                }
                self.decide(shared, request);
            }
            if self.severed {
                return self.sever(shared, progressed);
            }
            match self.flush() {
                Ok(p) => progressed |= p,
                Err(_) => return self.sever(shared, true),
            }
        }

        let idle =
            self.pending.is_none() && self.deferred.is_none() && self.out_pos == self.out.len();
        if idle && (self.closing || draining || self.peer_eof) {
            return Polled::closed(true);
        }
        self.polled(progressed)
    }

    /// The verdict for a connection that stays: what it still waits on.
    fn polled(&self, progressed: bool) -> Polled {
        Polled {
            keep: true,
            progressed,
            busy: self.pending.is_some()
                || self.deferred.is_some()
                || self.out_pos < self.out.len(),
            timer: self
                .stall_until
                .or(self.pending.as_ref().map(|p| p.deadline)),
        }
    }

    /// Settles every accepted-but-undecided request so the conservation
    /// identities survive a severed connection or a handler panic: an
    /// enqueued request is conserved as admitted-then-dropped, anything
    /// earlier in the lifecycle as shed.
    pub(crate) fn abort(&mut self, shared: &Shared) {
        if self.pending.take().is_some() {
            shared.stats.on_admit();
            shared.stats.on_dropped_conn();
            self.undecided = self.undecided.saturating_sub(1);
        }
        self.deferred = None;
        self.stall_until = None;
        while self.undecided > 0 {
            shared.stats.on_shed();
            self.undecided -= 1;
        }
        self.severed = true;
    }

    fn sever(&mut self, shared: &Shared, progressed: bool) -> Polled {
        self.abort(shared);
        Polled::closed(progressed)
    }

    /// Decides one accepted request: shed, sever, answer inline, or
    /// enqueue to the engine and park.
    fn decide(&mut self, shared: &Shared, request: Request) {
        // Admission, decided exactly once per request: an injected queue
        // overflow, a full gate, or a saturated engine mailbox all shed
        // through the same client-visible path.
        let overflow = shared.probe.fire(FaultPoint::AcceptOverflow);
        let permit = if overflow {
            None
        } else {
            Gate::acquire(&shared.gate)
        };
        let Some(permit) = permit else {
            self.record_shed(shared);
            return;
        };
        if shared.probe.fire(FaultPoint::ConnDrop) {
            // Injected mid-batch connection drop: admitted, then severed
            // without a response; conserved via dropped_conns. The permit
            // returns via its drop at the end of this scope.
            shared.stats.on_admit();
            shared.stats.on_dropped_conn();
            self.undecided -= 1;
            self.severed = true;
            return;
        }
        match request {
            Request::Ping => self.respond(shared, Response::Pong),
            Request::Put { key, value } => {
                let reply = self.next_reply();
                let cmd = EngineCmd::Put { key, value, reply };
                match shared.cmd_tx.try_send(cmd) {
                    Ok(()) => self.park(shared, Fallback::PutOk, permit),
                    // A full mailbox is a shed — the bounded accept queue
                    // is part of admission. A stopped engine sheds writes
                    // too: the put cannot land.
                    Err(_) => self.record_shed(shared),
                }
            }
            Request::Get { query } => {
                let reply = self.next_reply();
                let cmd = EngineCmd::Get { query, reply };
                match shared.cmd_tx.try_send(cmd) {
                    Ok(()) => self.park(shared, Fallback::Get { query }, permit),
                    Err(mpsc::TrySendError::Full(_)) => self.record_shed(shared),
                    Err(mpsc::TrySendError::Disconnected(_)) => {
                        // Engine stopped (drain race): reads degrade to
                        // last-committed state rather than erroring.
                        let resp = self.fallback_response(shared, &Fallback::Get { query });
                        self.respond(shared, resp);
                    }
                }
            }
            Request::GetKey { key } => {
                let reply = self.next_reply();
                let cmd = EngineCmd::GetKey { key, reply };
                match shared.cmd_tx.try_send(cmd) {
                    Ok(()) => self.park(shared, Fallback::GetKey { key }, permit),
                    Err(mpsc::TrySendError::Full(_)) => self.record_shed(shared),
                    Err(mpsc::TrySendError::Disconnected(_)) => {
                        let resp = self.fallback_response(shared, &Fallback::GetKey { key });
                        self.respond(shared, resp);
                    }
                }
            }
        }
    }

    /// The reply address for the next engine command: this connection's
    /// slot under a fresh sequence number. A command the mailbox refuses
    /// simply wastes its number.
    fn next_reply(&mut self) -> ReplyTo {
        self.seq += 1;
        ReplyTo {
            slot: Arc::clone(&self.reply),
            seq: self.seq,
            worker: Arc::clone(&self.worker),
        }
    }

    fn park(&mut self, shared: &Shared, fallback: Fallback, permit: Permit) {
        self.pending = Some(Pending {
            seq: self.seq,
            deadline: Instant::now() + shared.deadline,
            fallback,
            _permit: permit,
        });
    }

    /// Checks the in-flight engine round trip: reply, deadline, or a
    /// stopped engine. Returns whether the request resolved.
    fn poll_pending(&mut self, shared: &Shared) -> bool {
        let Some(pending) = &self.pending else {
            return false;
        };
        // Read the flag before the slot: an engine that stopped has made
        // its last fill, so "stopped, then empty" cannot miss a reply.
        let stopped = shared.engine_stopped.load(Ordering::SeqCst);
        let response = match self.reply.take(pending.seq) {
            Some(Reply::Ok { degraded }) => match pending.fallback {
                Fallback::PutOk => Response::Ok { degraded },
                // A read answered with a write ack is a protocol mixup;
                // fall back to last-committed state.
                _ => self.fallback_response(shared, &pending.fallback),
            },
            Some(Reply::Value { degraded, value }) => match pending.fallback {
                Fallback::Get { .. } | Fallback::GetKey { .. } => {
                    Response::Value { degraded, value }
                }
                // A write answered with a value: applied but unconfirmed.
                Fallback::PutOk => Response::Ok { degraded: true },
            },
            None => {
                if !stopped && Instant::now() < pending.deadline {
                    return false;
                }
                // Deadline passed — the command is enqueued (the engine
                // will still process it, and its late reply will carry a
                // stale sequence number) — or the engine is gone: the
                // client gets the degraded answer now.
                self.fallback_response(shared, &pending.fallback)
            }
        };
        let pending = self.pending.take().expect("pending just observed");
        self.respond(shared, response);
        drop(pending); // returns the permit
        true
    }

    /// The degraded answer from last-committed state — poison-tolerant,
    /// so a panic elsewhere cannot take the fallback path down.
    fn fallback_response(&self, shared: &Shared, fallback: &Fallback) -> Response {
        match *fallback {
            Fallback::PutOk => Response::Ok { degraded: true },
            Fallback::Get { query } => {
                let cached = read_cache(&shared.cache);
                Response::Value {
                    degraded: true,
                    value: cached.cells[usize::from(query.min(1))],
                }
            }
            Fallback::GetKey { key } => {
                let cached = read_cache(&shared.cache);
                let value = match shared.key_map {
                    Some(map) => cached
                        .rows
                        .get(map.row_of(key))
                        .copied()
                        .unwrap_or(cached.cells[0]),
                    None => cached.cells[0],
                };
                Response::Value {
                    degraded: true,
                    value,
                }
            }
        }
    }

    fn record_shed(&mut self, shared: &Shared) {
        shared.stats.on_shed();
        self.undecided = self.undecided.saturating_sub(1);
        self.queue(Response::Shed);
    }

    fn respond(&mut self, shared: &Shared, response: Response) {
        shared.stats.on_admit();
        if matches!(
            response,
            Response::Ok { degraded: true } | Response::Value { degraded: true, .. }
        ) {
            shared.stats.on_degraded();
        }
        // Counted before the bytes reach the socket: once the server
        // commits to an answer the request is a response; a failed write
        // just closes the connection — the answer was produced, delivery
        // is the peer's loss.
        shared.stats.on_response();
        self.undecided = self.undecided.saturating_sub(1);
        self.queue(response);
    }

    /// Encodes a response frame straight into the write buffer — length
    /// prefix patched in after the payload, no intermediate `Vec` (never
    /// fails — delivery happens in [`Conn::flush`]).
    fn queue(&mut self, response: Response) {
        let header = self.out.len();
        self.out.extend_from_slice(&[0; 4]);
        response.encode_into(&mut self.out);
        let len = u32::try_from(self.out.len() - header - 4).expect("responses are a few bytes");
        self.out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes as much of the output buffer as the socket accepts.
    fn flush(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(progressed)
    }

    /// Reads whatever the socket has into the frame decoder.
    fn fill(&mut self) -> io::Result<bool> {
        let mut buf = [0u8; READ_CHUNK];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    progressed = true;
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc::Receiver;
    use std::sync::Mutex;
    use std::time::Duration;

    use dtt_core::eventcount::{ParkOutcome, Waiters};
    use dtt_core::FaultProbe;

    use crate::admission::ServeStats;
    use crate::engine::{CacheState, StopSignal};
    use crate::proto::write_frame;

    /// One real loopback connection polled by the test thread itself, with
    /// the test holding the engine's end of the mailbox: every interleaving
    /// of request, reply, deadline and engine stop is the test's to choose.
    struct Rig {
        shared: Shared,
        mailbox: Receiver<EngineCmd>,
        worker: Arc<Doorbell>,
        conn: Conn,
        client: TcpStream,
        replies: FrameDecoder,
    }

    impl Rig {
        fn new(deadline: Duration, cells: [i64; 2]) -> Rig {
            let (cmd_tx, mailbox) = mpsc::sync_channel(8);
            let shared = Shared {
                stats: ServeStats::new(),
                gate: Arc::new(Gate::new(4)),
                probe: FaultProbe::disarmed(),
                cache: Arc::new(Mutex::new(CacheState {
                    cells,
                    rows: Vec::new(),
                })),
                key_map: None,
                cmd_tx,
                engine_stopped: Arc::new(AtomicBool::new(false)),
                draining: AtomicBool::new(false),
                active_conns: AtomicUsize::new(0),
                drained: Waiters::default(),
                deadline,
            };
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            client.set_nonblocking(true).unwrap();
            let (stream, _) = listener.accept().unwrap();
            let worker = Arc::new(Doorbell::default());
            Rig {
                conn: Conn::new(stream, Arc::clone(&worker)).unwrap(),
                shared,
                mailbox,
                worker,
                client,
                replies: FrameDecoder::new(),
            }
        }

        /// Sends `request` and polls until the connection has parked it on
        /// the engine; returns the reply address the engine would answer.
        fn park(&mut self, request: Request) -> ReplyTo {
            write_frame(&mut self.client, &request.encode()).unwrap();
            let give_up = Instant::now() + Duration::from_secs(5);
            while self.conn.pending.is_none() {
                assert!(Instant::now() < give_up, "request never parked");
                self.conn.poll(&self.shared, false);
            }
            match self
                .mailbox
                .try_recv()
                .expect("a parked request is in the mailbox")
            {
                EngineCmd::Put { reply, .. }
                | EngineCmd::Get { reply, .. }
                | EngineCmd::GetKey { reply, .. } => reply,
                EngineCmd::Shutdown => unreachable!("connections never send Shutdown"),
            }
        }

        /// Polls until the client can read one whole response.
        fn response(&mut self) -> Response {
            let give_up = Instant::now() + Duration::from_secs(5);
            let mut buf = [0u8; 64];
            loop {
                assert!(Instant::now() < give_up, "no response");
                self.conn.poll(&self.shared, false);
                match self.client.read(&mut buf) {
                    Ok(n) => self.replies.extend(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("client read: {e}"),
                }
                if let Some(payload) = self.replies.next_payload().unwrap() {
                    return Response::decode(payload).expect("decodable response");
                }
            }
        }

        fn assert_conserved(&self, responses: u64, degraded: u64) {
            let snap = self.shared.stats.snapshot();
            assert!(
                snap.admission_conserved() && snap.lifecycle_conserved(),
                "{snap:?}"
            );
            assert_eq!(snap.serve_responses, responses, "{snap:?}");
            assert_eq!(snap.serve_degraded_reads, degraded, "{snap:?}");
            assert_eq!(self.shared.gate.available(), 4, "every permit returned");
        }
    }

    /// Request N misses its deadline and is answered from fallback; the
    /// engine fills the slot for N only afterwards. Request N+1 on the
    /// same connection must wait for its own reply, not consume N's.
    #[test]
    fn late_reply_to_a_timed_out_request_is_not_taken_by_the_next() {
        let mut rig = Rig::new(Duration::from_millis(20), [7, 7]);
        let first = rig.park(Request::Get { query: 0 });
        let fallback = Response::Value {
            degraded: true,
            value: 7,
        };
        assert_eq!(rig.response(), fallback, "deadline passed, nobody answered");

        let late = Reply::Value {
            degraded: false,
            value: 111,
        };
        let first_seq = first.seq;
        first.answer(late, &mut Vec::new());
        let second = rig.park(Request::Get { query: 0 });
        assert_eq!(second.seq, first_seq + 1);
        for _ in 0..3 {
            rig.conn.poll(&rig.shared, false);
        }
        assert!(rig.conn.pending.is_some(), "the stale reply resolved it");

        let fresh = Reply::Value {
            degraded: false,
            value: 222,
        };
        second.answer(fresh, &mut Vec::new());
        let answered = Response::Value {
            degraded: false,
            value: 222,
        };
        assert_eq!(rig.response(), answered);
        rig.assert_conserved(2, 1);
    }

    /// What `TryRecvError::Disconnected` used to do: the engine goes away
    /// with a request parked on it — here with the command still unread in
    /// the mailbox — and the request resolves to its degraded fallback at
    /// once, not at its deadline.
    #[test]
    fn engine_stop_resolves_a_parked_request_to_its_fallback() {
        let mut rig = Rig::new(Duration::from_secs(60), [9, 3]);
        let unanswered = rig.park(Request::Get { query: 1 });
        rig.worker.clear();
        let t0 = Instant::now();
        drop(unanswered);
        drop(StopSignal {
            stopped: Arc::clone(&rig.shared.engine_stopped),
            workers: vec![Arc::clone(&rig.worker)],
        });
        let nap = rig.worker.nap(Duration::from_secs(60));
        assert_eq!(nap, ParkOutcome::Skipped, "the stop rings the worker");
        let fallback = Response::Value {
            degraded: true,
            value: 3,
        };
        assert_eq!(rig.response(), fallback);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "waited out the deadline"
        );
        rig.assert_conserved(1, 1);
    }
}
