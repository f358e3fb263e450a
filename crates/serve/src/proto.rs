//! The wire protocol: length-prefixed frames with fixed little-endian
//! request/response payloads.
//!
//! A frame is a `u32` little-endian payload length followed by the
//! payload; payloads start with a one-byte opcode. The protocol is
//! deliberately minimal — the front-end's value is the overload behaviour
//! around it, not the transport — but it is strict: oversized frames,
//! unknown opcodes and short payloads are decode errors that close the
//! connection rather than desynchronize it.

use std::io::{self, Read, Write};

/// Frames larger than this are rejected before allocation: a corrupt or
/// hostile length prefix must not balloon server memory.
pub const MAX_FRAME: u32 = 64 * 1024;

/// A client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Write `value` at `key`. Keys map onto the served view's tracked
    /// input (wrapping), so every key is valid.
    Put {
        /// Client key, mapped onto the view's input space.
        key: u64,
        /// Value to store.
        value: i64,
    },
    /// Read the derived aggregate selected by `query` (view-defined:
    /// `0` = total/peak, `1` = avg/peak).
    Get {
        /// Aggregate selector.
        query: u8,
    },
    /// Read the tthread-maintained aggregate of the shard-row `key` maps
    /// to (keyed view). On the non-keyed views this answers the primary
    /// aggregate, like `Get { query: 0 }`.
    GetKey {
        /// Client key, folded onto the keyed view's slot space.
        key: u64,
    },
}

/// A server response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Write acknowledged. `degraded` means the write was applied but the
    /// derived views could not be confirmed fresh within the request
    /// deadline (commit-race retries exhausted or a wedged tthread).
    Ok {
        /// Freshness could not be confirmed within the deadline.
        degraded: bool,
    },
    /// Read result. `degraded` means the value is the last-committed
    /// state rather than a confirmed-fresh read.
    Value {
        /// Served from last-committed state under overload or a wedge.
        degraded: bool,
        /// The aggregate value.
        value: i64,
    },
    /// Admission control rejected the request: the server is at its
    /// concurrency limit (or its accept queue is full). The client may
    /// retry after a backoff.
    Shed,
    /// Protocol-level error (unknown query, malformed request).
    Err {
        /// Stable error code.
        code: u8,
    },
}

impl Request {
    /// Encodes the request payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            Request::Ping => vec![0],
            Request::Put { key, value } => {
                let mut out = Vec::with_capacity(17);
                out.push(1);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
                out
            }
            Request::Get { query } => vec![2, query],
            Request::GetKey { key } => {
                let mut out = Vec::with_capacity(9);
                out.push(3);
                out.extend_from_slice(&key.to_le_bytes());
                out
            }
        }
    }

    /// Decodes a request payload; `None` on unknown opcode or bad length.
    pub fn decode(buf: &[u8]) -> Option<Request> {
        match (buf.first()?, buf.len()) {
            (0, 1) => Some(Request::Ping),
            (1, 17) => Some(Request::Put {
                key: u64::from_le_bytes(buf[1..9].try_into().ok()?),
                value: i64::from_le_bytes(buf[9..17].try_into().ok()?),
            }),
            (2, 2) => Some(Request::Get { query: buf[1] }),
            (3, 9) => Some(Request::GetKey {
                key: u64::from_le_bytes(buf[1..9].try_into().ok()?),
            }),
            _ => None,
        }
    }
}

impl Response {
    /// Encodes the response payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10);
        self.encode_into(&mut out);
        out
    }

    /// Appends the response payload (no frame header) to `out`: the
    /// server encodes straight into a connection's write buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Response::Pong => out.push(0),
            Response::Ok { degraded } => out.extend_from_slice(&[1, u8::from(degraded)]),
            Response::Value { degraded, value } => {
                out.extend_from_slice(&[2, u8::from(degraded)]);
                out.extend_from_slice(&value.to_le_bytes());
            }
            Response::Shed => out.push(3),
            Response::Err { code } => out.extend_from_slice(&[4, code]),
        }
    }

    /// Decodes a response payload; `None` on unknown opcode or bad length.
    pub fn decode(buf: &[u8]) -> Option<Response> {
        match (buf.first()?, buf.len()) {
            (0, 1) => Some(Response::Pong),
            (1, 2) => Some(Response::Ok {
                degraded: buf[1] != 0,
            }),
            (2, 10) => Some(Response::Value {
                degraded: buf[1] != 0,
                value: i64::from_le_bytes(buf[2..10].try_into().ok()?),
            }),
            (3, 1) => Some(Response::Shed),
            (4, 2) => Some(Response::Err { code: buf[1] }),
            _ => None,
        }
    }
}

/// Writes one frame: `u32` little-endian length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Incremental, resumable frame parser: the per-connection read state.
///
/// The blocking [`read_frame`] loses bytes if a read times out mid-frame
/// — it has nowhere to park a partial length prefix or payload, so a
/// `WouldBlock`/`TimedOut` error after 1–3 length bytes silently drops
/// them and desynchronizes the stream (the PR-9 `handle_conn` bug). The
/// decoder fixes that structurally: callers [`FrameDecoder::extend`] it
/// with whatever bytes a non-blocking read produced — zero, a dribble,
/// or several pipelined frames — and [`FrameDecoder::next_frame`] yields
/// a frame only once it is complete. Partial frames stay buffered across
/// calls indefinitely; a timeout is no longer an error the parser can
/// even observe.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames; compacted
    /// opportunistically so the buffer does not creep.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder (no partial frame).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read off the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed prefixes are dead weight.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame's payload, or `None` if more bytes
    /// are needed (the partial frame stays buffered).
    ///
    /// # Errors
    ///
    /// `ErrorKind::InvalidData` for a length prefix over [`MAX_FRAME`] —
    /// a corrupt or hostile frame must not balloon memory, and the
    /// stream is unrecoverable past it.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.next_payload()?.map(<[u8]>::to_vec))
    }

    /// [`FrameDecoder::next_frame`] without the copy: the payload is
    /// borrowed from the decoder's buffer until the next call.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_frame`].
    pub fn next_payload(&mut self) -> io::Result<Option<&[u8]>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4-byte slice"));
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length exceeds MAX_FRAME",
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos += total;
        Ok(Some(&self.buf[start..self.pos]))
    }

    /// Bytes buffered but not yet yielded (partial-frame diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when a partial frame is parked in the buffer.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }
}

/// Reads one frame's payload. `Ok(None)` on a clean EOF at a frame
/// boundary; mid-frame EOF, oversized lengths and read timeouts surface
/// as errors.
///
/// Only safe on **blocking** streams without read timeouts: an error
/// return loses any partially-read frame. Connections with timeouts or
/// non-blocking sockets must use [`FrameDecoder`] instead.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ping,
            Request::Put {
                key: u64::MAX,
                value: i64::MIN,
            },
            Request::Put { key: 0, value: 0 },
            Request::Get { query: 1 },
            Request::GetKey { key: 0 },
            Request::GetKey { key: u64::MAX },
        ] {
            assert_eq!(Request::decode(&req.encode()), Some(req));
        }
    }

    #[test]
    fn decoder_resumes_across_arbitrary_splits() {
        // Two frames fed one byte at a time: every intermediate call must
        // report "more needed", never drop a byte, and both frames must
        // come out intact — the resumable-state guarantee the blocking
        // read_frame cannot give.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Put { key: 7, value: -3 }.encode()).unwrap();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();

        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(
            Request::decode(&frames[0]),
            Some(Request::Put { key: 7, value: -3 })
        );
        assert_eq!(Request::decode(&frames[1]), Some(Request::Ping));
        assert!(!dec.mid_frame());
    }

    #[test]
    fn decoder_yields_pipelined_frames_from_one_chunk() {
        let mut wire = Vec::new();
        for q in 0..5u8 {
            write_frame(&mut wire, &Request::Get { query: q }.encode()).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        for q in 0..5u8 {
            assert_eq!(
                Request::decode(&dec.next_frame().unwrap().unwrap()),
                Some(Request::Get { query: q })
            );
        }
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_hostile_lengths_without_allocating() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_buffer_compacts_after_consumption() {
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 1024]).unwrap();
        for _ in 0..16 {
            dec.extend(&wire);
            assert!(dec.next_frame().unwrap().is_some());
        }
        // The consumed prefix must not accumulate across frames.
        assert!(
            dec.buf.len() <= 2 * wire.len(),
            "decoder buffer grew to {} bytes over 16 consumed frames",
            dec.buf.len()
        );
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Pong,
            Response::Ok { degraded: true },
            Response::Ok { degraded: false },
            Response::Value {
                degraded: true,
                value: -7,
            },
            Response::Shed,
            Response::Err { code: 3 },
        ] {
            assert_eq!(Response::decode(&resp.encode()), Some(resp));
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert_eq!(Request::decode(&[]), None);
        assert_eq!(Request::decode(&[9]), None);
        assert_eq!(Request::decode(&[1, 0, 0]), None); // short Put
        assert_eq!(Response::decode(&[2, 0]), None); // short Value
        assert_eq!(Response::decode(&[77]), None);
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, &[]).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![]));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // A hostile length prefix is rejected before allocation.
        let mut bad = io::Cursor::new((MAX_FRAME + 1).to_le_bytes().to_vec());
        assert!(read_frame(&mut bad).is_err());
    }
}
