//! `serve_put` and `serve_get`: an in-process `Server` with the keyed view
//! (2 event workers, the engine, 1 runtime worker) driven over real TCP by a
//! closed loop of `min(2, nproc)` connections, one client thread each. `Conn`
//! allows one request in flight per connection, so an open loop would
//! degenerate to this anyway.
//!
//! The client is the benchmark's own, on `proto::write_frame`/`read_frame`,
//! so the traced run can put a span around each of its four steps.

use std::io;
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dtt_serve::proto::{read_frame, write_frame};
use dtt_serve::{Request, Response, ServeConfig, Server, ViewKind};
use dtt_workloads::KeyMap;

use super::{Rep, RepArgs, Stopwatch};
use crate::host;
use crate::rng::{Fnv, Rng};
use crate::span::Tracer;

/// Requests per connection per repetition: ~0.6 s on the reference host.
/// Every round trip is a latency sample: whole windows of 256 per connection
/// (a repetition's samples are kept connection by connection), and from two
/// connections the 1001 samples a repetition's p99 needs.
const PUTS_PER_CONN: u64 = 512;
const GETS_PER_CONN: u64 = 1024;
/// Puts applied during set-up of `serve_get`, so reads see a populated view.
const PREPOPULATE: u64 = 128;

pub fn keyed_config() -> ServeConfig {
    ServeConfig {
        view: ViewKind::Keyed,
        ..ServeConfig::default()
    }
}

/// Client connections: the connection budget is the core count.
pub fn conns() -> usize {
    host::nproc().min(2)
}

/// One framed connection. Spans: `request{client.encode, client.write,
/// client.wait_read, client.decode}`.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(server: &Server) -> io::Result<Conn> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        // A reply that never comes must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn { stream })
    }

    pub fn request(&mut self, request: Request, tr: &mut Tracer) -> io::Result<Response> {
        let depth = tr.depth();
        tr.next_op();
        tr.begin("request");
        let reply = self.exchange(request, tr);
        tr.close_to(depth);
        reply
    }

    fn exchange(&mut self, request: Request, tr: &mut Tracer) -> io::Result<Response> {
        tr.begin("client.encode");
        let payload = request.encode();
        tr.end();
        tr.begin("client.write");
        write_frame(&mut self.stream, &payload)?;
        tr.end();
        tr.begin("client.wait_read");
        let frame = read_frame(&mut self.stream)?;
        tr.end();
        tr.begin("client.decode");
        let reply = frame.as_deref().and_then(Response::decode);
        tr.end();
        reply.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no decodable reply"))
    }
}

/// The plain model of the keyed view: last value per slot.
struct Model {
    map: KeyMap,
    grid: Vec<Vec<i64>>,
}

impl Model {
    fn new() -> Model {
        let cfg = keyed_config();
        let (rows, cols) = cfg.dims;
        Model {
            map: KeyMap {
                rows,
                cols,
                key_space: cfg.key_space,
            },
            grid: vec![vec![0; cols]; rows],
        }
    }

    fn put(&mut self, key: u64, value: i64) {
        let (r, c) = self.map.slot_of(key);
        self.grid[r][c] = value;
    }

    fn row_sum(&self, row: usize) -> i64 {
        self.grid[row].iter().sum()
    }

    fn total(&self) -> i64 {
        (0..self.grid.len()).map(|r| self.row_sum(r)).sum()
    }

    fn avg(&self) -> i64 {
        self.total() / (self.grid.len() * self.grid[0].len()) as i64
    }

    /// What the server must answer to a read.
    fn answer(&self, request: Request) -> i64 {
        match request {
            Request::Get { query: 0 } => self.total(),
            Request::Get { .. } => self.avg(),
            Request::GetKey { key } => self.row_sum(self.map.row_of(key)),
            Request::Ping | Request::Put { .. } => unreachable!("not a read"),
        }
    }
}

/// A put whose slot belongs to connection `c` alone (slot parity = key
/// parity: the key space and the slot count are both even), so the two
/// connections' writes commute and one merged model checks both.
fn seeded_put(rng: &mut Rng, c: usize, conns: usize) -> (u64, i64) {
    let r = rng.next_u64();
    let key_space = keyed_config().key_space;
    let key = (r % key_space) / conns as u64 * conns as u64 + c as u64;
    (key % key_space, ((r >> 32) % 1000) as i64)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Put,
    Get,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientOut {
    samples_us: Vec<f64>,
    failures: Vec<String>,
    puts: Vec<(u64, i64)>,
    hash: Fnv,
}

fn rep(args: &RepArgs, mode: Mode) -> Rep {
    let t0 = Instant::now();
    let mut rep = Rep::default();
    let seed = args.seed;
    let conns = conns();
    let per_conn = match mode {
        Mode::Put => args.ops(PUTS_PER_CONN, 1),
        Mode::Get => args.ops(GETS_PER_CONN, 1),
    };
    let warm = (per_conn / 20).max(1);

    let mut server = Server::start(keyed_config()).expect("bind an ephemeral local port");
    let mut model = Model::new();
    let mut quiet = Tracer::off();
    let mut links: Vec<Conn> = (0..conns)
        .map(|_| Conn::connect(&server).expect("connect to the local server"))
        .collect();
    match links[0].request(Request::Ping, &mut quiet) {
        Ok(Response::Pong) => {}
        other => rep.fail(|| format!("seed {seed}: first ping answered {other:?}")),
    }
    if mode == Mode::Get {
        let mut rng = Rng::new(seed, 6);
        for n in 0..args.ops(PREPOPULATE, 1) {
            let (key, value) = seeded_put(&mut rng, 0, 1);
            model.put(key, value);
            let reply = links[0].request(Request::Put { key, value }, &mut quiet);
            if !matches!(reply, Ok(Response::Ok { degraded: false })) {
                rep.fail(|| format!("seed {seed} set-up put {n}: {reply:?}"));
            }
        }
    }

    // Each client warms up, meets the others at the barrier, runs its timed
    // requests, and meets them again; the main thread times between the two.
    let start = Barrier::new(conns + 1);
    let done = Barrier::new(conns + 1);
    let model_ref = &model;
    let outs: Vec<(ClientOut, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = links
            .drain(..)
            .enumerate()
            .map(|(c, mut conn)| {
                let (start, done) = (&start, &done);
                s.spawn(move || {
                    let mut tr = Tracer::new(t0, c as u32, args.trace);
                    let mut quiet = Tracer::off();
                    let mut out = ClientOut::default();
                    let mut rng = Rng::new(seed, 16 + c as u64);
                    let mut one = |n: u64, tr: &mut Tracer| {
                        let request = match mode {
                            Mode::Put => {
                                let (key, value) = seeded_put(&mut rng, c, conns);
                                out.puts.push((key, value));
                                out.hash.push(key ^ (value as u64) << 32);
                                Request::Put { key, value }
                            }
                            Mode::Get => {
                                let r = rng.next_u64();
                                out.hash.push(r);
                                if n.is_multiple_of(2) {
                                    Request::Get {
                                        query: (r % 2) as u8,
                                    }
                                } else {
                                    Request::GetKey { key: r >> 8 }
                                }
                            }
                        };
                        let reply = conn.request(request, tr);
                        let ok = match (mode, &reply) {
                            (Mode::Put, Ok(Response::Ok { degraded: false })) => true,
                            (
                                Mode::Get,
                                Ok(Response::Value {
                                    degraded: false,
                                    value,
                                }),
                            ) => *value == model_ref.answer(request),
                            _ => false,
                        };
                        if !ok {
                            out.failures.push(format!(
                                "seed {seed} conn {c} request {n} {request:?}: {reply:?}"
                            ));
                        }
                    };
                    for n in 0..warm {
                        one(n, &mut quiet);
                    }
                    start.wait();
                    let mut samples_us = Vec::with_capacity(per_conn as usize);
                    let mut last = Instant::now();
                    for n in 0..per_conn {
                        one(warm + n, &mut tr);
                        let now = Instant::now();
                        samples_us.push((now - last).as_secs_f64() * 1e6);
                        last = now;
                    }
                    done.wait();
                    out.samples_us = samples_us;
                    (out, tr)
                })
            })
            .collect();
        start.wait();
        rep.setup_s = t0.elapsed().as_secs_f64();
        let watch = Stopwatch::start();
        done.wait();
        (rep.timed_s, rep.cpu_s) = watch.stop();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    rep.ops = per_conn * conns as u64;
    let mut hash = Fnv::default();
    for (out, tr) in outs {
        rep.samples_us.extend(out.samples_us);
        for f in out.failures {
            rep.fail(|| f);
        }
        for (key, value) in out.puts {
            model.put(key, value);
        }
        hash.push(out.hash.finish());
        rep.tracers.push(tr);
    }
    rep.stream_hash = hash.finish();

    // The served state after the run equals the model, read over a fresh
    // connection; the server's books balance.
    let mut conn = Conn::connect(&server).expect("connect to the local server");
    let rows = model.grid.len() as u64;
    let finals = [Request::Get { query: 0 }, Request::Get { query: 1 }]
        .into_iter()
        .chain((0..rows).map(|r| Request::GetKey {
            key: r * model.map.cols as u64,
        }));
    for request in finals {
        let reply = conn.request(request, &mut quiet);
        let want = model.answer(request);
        if !matches!(reply, Ok(Response::Value { degraded: false, value }) if value == want) {
            rep.fail(|| format!("seed {seed} final {request:?}: {reply:?}, model {want}"));
        }
    }
    drop(conn);
    let stats = server.stats();
    if !(stats.admission_conserved() && stats.lifecycle_conserved()) || stats.serve_sheds > 0 {
        rep.fail(|| format!("seed {seed}: server books {stats:?}"));
    }
    rep.serve = Some(stats);
    if let Err(e) = server.shutdown(Duration::from_secs(10)) {
        rep.fail(|| format!("seed {seed}: shutdown {e}"));
    }
    rep
}

pub fn rep_put(args: &RepArgs) -> Rep {
    rep(args, Mode::Put)
}

pub fn rep_get(args: &RepArgs) -> Rep {
    rep(args, Mode::Get)
}
