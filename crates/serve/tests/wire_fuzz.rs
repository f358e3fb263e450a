//! Hostile bytes on the wire: a seeded byte fuzz of the frame decoder and
//! the request/response codecs, plus one server-level check that a
//! malformed client cannot desync the server or break its ledger.
//!
//! The decoder properties, over seeded random wires:
//!
//! * no input panics — truncation at every offset, arbitrary chunk
//!   splits, random payload bytes, length prefixes at and past
//!   [`MAX_FRAME`];
//! * the decoder never holds more than one frame (`MAX_FRAME + 4` bytes)
//!   plus the read chunk just appended;
//! * framing is independent of payload contents: every frame after an
//!   unknown-opcode payload still comes out intact and decodes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dtt_serve::proto::{write_frame, MAX_FRAME};
use dtt_serve::{Client, FrameDecoder, Request, Response, ServeConfig, Server};

/// SplitMix64: a seeded stream, so a failure names its seed and replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// Random bytes of a random length below `n`.
    fn junk(&mut self, n: usize) -> Vec<u8> {
        let len = self.below(n);
        self.bytes(len)
    }
}

/// One frame of a generated wire: its payload, and the request it carries
/// if the payload is a valid request.
struct Frame {
    payload: Vec<u8>,
    request: Option<Request>,
}

fn random_request(rng: &mut Rng) -> Request {
    match rng.below(4) {
        0 => Request::Ping,
        1 => Request::Put {
            key: rng.next(),
            value: rng.next() as i64,
        },
        2 => Request::Get {
            query: rng.next() as u8,
        },
        _ => Request::GetKey { key: rng.next() },
    }
}

/// A frame that is valid, carries an unknown opcode, has a known opcode at
/// the wrong length, or is random bytes.
fn random_frame(rng: &mut Rng) -> Frame {
    let payload = match rng.below(4) {
        0 => {
            let request = random_request(rng);
            return Frame {
                payload: request.encode(),
                request: Some(request),
            };
        }
        1 => {
            let mut p = rng.junk(24);
            p.insert(0, 4 + rng.below(252) as u8);
            p
        }
        2 => {
            let mut p = random_request(rng).encode();
            p.push(rng.next() as u8);
            p
        }
        _ => rng.junk(40),
    };
    let request = Request::decode(&payload);
    Frame { payload, request }
}

fn wire_of(frames: &[Frame]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        write_frame(&mut wire, &f.payload).unwrap();
    }
    wire
}

/// Feeds `wire` in random chunks, draining after each one, and returns the
/// yielded payloads. Checks the buffer bound after every append.
fn feed(rng: &mut Rng, dec: &mut FrameDecoder, wire: &[u8], max_chunk: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < wire.len() {
        let chunk = 1 + rng.below(max_chunk.min(wire.len() - at));
        dec.extend(&wire[at..at + chunk]);
        at += chunk;
        assert!(
            dec.buffered() <= MAX_FRAME as usize + 4 + chunk,
            "decoder holds {} bytes after a {chunk}-byte read",
            dec.buffered()
        );
        while let Some(payload) = dec.next_frame().unwrap() {
            out.push(payload);
        }
    }
    out
}

#[test]
fn truncation_at_every_offset_yields_exactly_the_complete_frames() {
    for seed in 1..=8u64 {
        let mut rng = Rng(seed);
        let frames: Vec<Frame> = (0..12).map(|_| random_frame(&mut rng)).collect();
        let wire = wire_of(&frames);
        let mut ends = Vec::new();
        let mut end = 0;
        for f in &frames {
            end += 4 + f.payload.len();
            ends.push(end);
        }
        for cut in 0..=wire.len() {
            let mut dec = FrameDecoder::new();
            let got = feed(&mut rng, &mut dec, &wire[..cut], 7);
            let complete = ends.iter().take_while(|&&e| e <= cut).count();
            assert_eq!(got.len(), complete, "seed {seed}, cut {cut}");
            for (payload, frame) in got.iter().zip(&frames) {
                assert_eq!(payload, &frame.payload, "seed {seed}, cut {cut}");
            }
            let consumed = if complete == 0 { 0 } else { ends[complete - 1] };
            assert_eq!(dec.buffered(), cut - consumed, "seed {seed}, cut {cut}");
            assert_eq!(dec.mid_frame(), cut > consumed);
        }
    }
}

#[test]
fn every_frame_after_a_bad_opcode_still_decodes() {
    for seed in 100..164u64 {
        let mut rng = Rng(seed);
        let frames: Vec<Frame> = (0..64).map(|_| random_frame(&mut rng)).collect();
        let wire = wire_of(&frames);
        let mut dec = FrameDecoder::new();
        let max_chunk = 1 + rng.below(300);
        let got = feed(&mut rng, &mut dec, &wire, max_chunk);
        assert_eq!(got.len(), frames.len(), "seed {seed}");
        for (payload, frame) in got.iter().zip(&frames) {
            assert_eq!(Request::decode(payload), frame.request, "seed {seed}");
        }
        assert!(!dec.mid_frame(), "seed {seed}");
    }
}

#[test]
fn length_prefixes_at_and_past_max_frame() {
    // Exactly MAX_FRAME is a frame: it decodes to no request, and the next
    // frame after it is intact.
    let mut rng = Rng(7);
    let mut big = rng.bytes(MAX_FRAME as usize);
    big[0] = 1; // a Put opcode at the wrong length
    let mut wire = Vec::new();
    write_frame(&mut wire, &big).unwrap();
    write_frame(&mut wire, &Request::Ping.encode()).unwrap();
    let mut dec = FrameDecoder::new();
    let got = feed(&mut rng, &mut dec, &wire, 4096);
    assert_eq!(got.len(), 2);
    assert_eq!(Request::decode(&got[0]), None);
    assert_eq!(Request::decode(&got[1]), Some(Request::Ping));

    // Past MAX_FRAME the decoder refuses as soon as the prefix is in,
    // whatever follows, without buffering toward the claimed length.
    let mut lengths = vec![MAX_FRAME + 1, MAX_FRAME * 2, u32::MAX];
    lengths.extend((0..32).map(|_| MAX_FRAME + 1 + (rng.next() as u32 % (u32::MAX - MAX_FRAME))));
    for len in lengths {
        let mut dec = FrameDecoder::new();
        let prefix = len.to_le_bytes();
        for &b in &prefix[..3] {
            dec.extend(&[b]);
            assert_eq!(dec.next_frame().unwrap(), None);
        }
        dec.extend(&prefix[3..]);
        dec.extend(&rng.junk(64));
        assert!(dec.next_frame().is_err(), "length {len} accepted");
        assert!(dec.buffered() <= 4 + 64);
    }
}

#[test]
fn codecs_never_panic_and_canonicalize() {
    let mut rng = Rng(0xD77);
    for _ in 0..20_000 {
        let mut bytes = rng.junk(24);
        if !bytes.is_empty() && rng.below(2) == 0 {
            bytes[0] %= 6; // bias toward known opcodes
        }
        if let Some(req) = Request::decode(&bytes) {
            assert_eq!(req.encode(), bytes, "requests have one encoding");
        }
        if let Some(resp) = Response::decode(&bytes) {
            assert_eq!(Response::decode(&resp.encode()), Some(resp));
            assert_eq!(resp.encode().len(), bytes.len());
        }
    }
}

/// A client that sends a valid `Put`, then an unknown-opcode frame, then
/// closes mid-frame: the `Put` is answered, the bad frame gets an error
/// and a close, both ledger identities hold, and the server goes on
/// serving other clients.
#[test]
fn a_hostile_client_cannot_desync_the_server() {
    let mut server = Server::start(ServeConfig {
        deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, &Request::Put { key: 3, value: 11 }.encode()).unwrap();
    write_frame(&mut wire, &[0xEE, 1, 2, 3]).unwrap();
    // The first two bytes of a length prefix, then the close.
    wire.extend_from_slice(&[9, 0]);
    stream.write_all(&wire).unwrap();

    let mut dec = FrameDecoder::new();
    let mut replies = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => dec.extend(&buf[..n]),
            // A reset after the server's close is a close too.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("reading replies: {e}"),
        }
        while let Some(payload) = dec.next_frame().unwrap() {
            replies.push(Response::decode(&payload).expect("decodable reply"));
        }
    }
    drop(stream);
    assert_eq!(
        replies,
        vec![Response::Ok { degraded: false }, Response::Err { code: 1 }]
    );

    let mut client = Client::connect(&addr.to_string()).unwrap();
    assert_eq!(client.request(Request::Ping).unwrap(), Response::Pong);
    assert_eq!(
        client.request(Request::Get { query: 0 }).unwrap(),
        Response::Value {
            degraded: false,
            value: 11
        }
    );
    drop(client);

    // Every connection is reaped before the ledger is read.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_conn_count() > 0 {
        assert!(Instant::now() < deadline, "connections never reaped");
        std::thread::sleep(Duration::from_millis(2));
    }
    let snap = server.stats();
    assert_eq!((snap.serve_accepts, snap.serve_responses), (3, 3));
    assert!(snap.admission_conserved(), "{snap:?}");
    assert!(snap.lifecycle_conserved(), "{snap:?}");
    server.shutdown(Duration::from_secs(10)).unwrap();
}
