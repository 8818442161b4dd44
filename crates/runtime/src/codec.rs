//! Frame codec for the TCP overlay: length-prefixed binary frames.
//!
//! Each frame is `varint(payload_len) ++ payload`. The payload starts
//! with a frame tag (`1` = protocol messages, `2` = heartbeat),
//! followed by the sender id and, for message frames, the message
//! count and each [`Message`] in [`Wire`] encoding. Attribute keys are
//! interned per connection (see `transmob_pubsub::wire`): encoder and
//! decoder each keep a string table that grows as frames flow and is
//! discarded with the connection, so a redialed link always starts
//! from an empty table on both sides.
//!
//! # Robustness
//!
//! [`FrameDecoder::read_frame`] never panics on hostile input: a
//! length prefix beyond [`MAX_FRAME`], a truncated payload, an unknown
//! tag, or any structural decode failure surfaces as
//! [`ReadError::Corrupt`] with a reason, distinguished from socket
//! errors ([`ReadError::Io`]) so the transport can count corruption
//! separately and name the cause when it takes a link down.

use std::fmt;
use std::io::{self, BufRead, Read};

use transmob_core::Message;
use transmob_pubsub::wire::{StrDecTable, StrEncTable, Wire, WireError, WireReader, WireWriter};

/// Hard cap on one frame's payload size (64 MiB). A corrupt or hostile
/// length prefix beyond this is rejected before any allocation.
pub const MAX_FRAME: usize = 1 << 26;

/// The one framing of the TCP overlay.
// Kept only because `bench_e2e` names it; ROADMAP item 2's first PR deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub enum WireMode {
    /// Length-prefixed binary frames with interned attribute keys.
    #[default]
    Binary,
}

/// One wire frame of the TCP overlay.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A batch of protocol messages from a neighbouring broker — one
    /// frame, one write, contents applied in order at the receiver
    /// (per-link FIFO is per frame and within each frame).
    Msg {
        /// Sending broker.
        from: u32,
        /// The coalesced messages, in send order.
        msgs: Vec<Message>,
    },
    /// A heartbeat (failure-detector probe).
    Ping {
        /// Sending broker.
        from: u32,
    },
}

const TAG_MSG: u8 = 1;
const TAG_PING: u8 = 2;

/// A frame-read failure, separating transport death from corruption.
#[derive(Debug)]
pub enum ReadError {
    /// The socket failed; the bytes that did arrive were well-formed.
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Corrupt(WireError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read error: {e}"),
            ReadError::Corrupt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Per-connection frame encoder. Owns the outgoing half of the string
/// table, so it must live and die with one connection: a reconnect
/// gets a fresh encoder (and the peer a fresh decoder).
#[derive(Debug)]
pub struct FrameEncoder {
    strs: StrEncTable,
    payload: Vec<u8>,
    out: Vec<u8>,
    /// Debug-build oracle: a mirror of the peer's decoder, fed every
    /// encoded frame in order, asserting that what we put on the wire
    /// decodes back to exactly the frame we meant to send.
    #[cfg(debug_assertions)]
    mirror: StrDecTable,
    /// Debug-build fault injection ([`FrameEncoder::inject_encode_failure`]).
    #[cfg(debug_assertions)]
    fail_next: bool,
}

impl FrameEncoder {
    /// A fresh encoder for a new connection.
    // `bench_e2e` passes the argument; ROADMAP item 2's first PR deletes it.
    pub fn new(_: WireMode) -> FrameEncoder {
        FrameEncoder {
            strs: StrEncTable::new(),
            payload: Vec::new(),
            out: Vec::new(),
            #[cfg(debug_assertions)]
            mirror: StrDecTable::new(),
            #[cfg(debug_assertions)]
            fail_next: false,
        }
    }

    /// Test hook (debug builds only): makes the next [`FrameEncoder::encode`]
    /// call fail with an error marked `injected`, so the transport's
    /// serialize-failure accounting can be exercised — binary encoding
    /// is total by construction, so a real failure cannot be provoked.
    #[cfg(debug_assertions)]
    pub fn inject_encode_failure(&mut self) {
        self.fail_next = true;
    }

    /// Number of attribute keys interned so far on this connection.
    pub fn interned(&self) -> usize {
        self.strs.len()
    }

    /// Encodes `frame`, returning the complete on-wire bytes, length
    /// prefix included. The returned slice borrows the encoder's
    /// internal buffer and is valid until the next `encode` call.
    ///
    /// # Errors
    ///
    /// Binary encoding is total; only the debug-build fault hook
    /// ([`FrameEncoder::inject_encode_failure`]) makes it fail, and the
    /// caller must surface that — never drop the frame silently.
    pub fn encode(&mut self, frame: &Frame) -> Result<&[u8], WireError> {
        #[cfg(debug_assertions)]
        if self.fail_next {
            self.fail_next = false;
            return Err(WireError("injected encode failure".into()));
        }
        self.out.clear();
        self.payload.clear();
        let mut w = WireWriter::new(&mut self.payload, &mut self.strs);
        match frame {
            Frame::Msg { from, msgs } => {
                w.byte(TAG_MSG);
                w.varint(u64::from(*from));
                msgs.enc(&mut w);
            }
            Frame::Ping { from } => {
                w.byte(TAG_PING);
                w.varint(u64::from(*from));
            }
        }
        let mut prefix = [0u8; 10];
        let n = write_varint(&mut prefix, self.payload.len() as u64);
        self.out.extend_from_slice(&prefix[..n]);
        self.out.extend_from_slice(&self.payload);
        #[cfg(debug_assertions)]
        {
            // The mirror consumes the same string-table state stream
            // the real peer will, so it must see every frame exactly
            // once, in order — which it does: one connection has one
            // owner, and it calls encode() once per frame.
            let decoded = decode_payload(&self.payload, &mut self.mirror)
                .expect("debug oracle: binary frame does not decode");
            assert_eq!(
                &decoded, frame,
                "debug oracle: binary round-trip changed the frame"
            );
        }
        Ok(&self.out)
    }
}

/// Per-connection frame decoder. Owns the incoming half of the string
/// table; a reconnect gets a fresh decoder.
#[derive(Debug)]
pub struct FrameDecoder {
    strs: StrDecTable,
    payload: Vec<u8>,
}

impl FrameDecoder {
    /// A fresh decoder for a new connection.
    // `bench_e2e` passes the argument; ROADMAP item 2's first PR deletes it.
    pub fn new(_: WireMode) -> FrameDecoder {
        FrameDecoder {
            strs: StrDecTable::new(),
            payload: Vec::new(),
        }
    }

    /// Reads one frame. `Ok(None)` is clean EOF at a frame boundary;
    /// EOF inside a frame is corruption (the peer died mid-write or
    /// the stream desynced).
    pub fn read_frame(&mut self, r: &mut impl BufRead) -> Result<Option<Frame>, ReadError> {
        let Some(len) = read_varint(r)? else {
            return Ok(None);
        };
        if len > MAX_FRAME as u64 {
            return Err(ReadError::Corrupt(WireError(format!(
                "frame length {len} exceeds cap {MAX_FRAME}"
            ))));
        }
        self.payload.resize(len as usize, 0);
        if let Err(e) = r.read_exact(&mut self.payload) {
            return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                ReadError::Corrupt(WireError("eof inside frame payload".into()))
            } else {
                ReadError::Io(e)
            });
        }
        decode_payload(&self.payload, &mut self.strs)
            .map(Some)
            .map_err(ReadError::Corrupt)
    }

    /// Decodes one frame payload (no length prefix) against this
    /// connection's string table. Exposed for the codec tests.
    pub fn decode_payload(&mut self, payload: &[u8]) -> Result<Frame, WireError> {
        decode_payload(payload, &mut self.strs)
    }
}

fn decode_payload(payload: &[u8], strs: &mut StrDecTable) -> Result<Frame, WireError> {
    let mut r = WireReader::new(payload, strs);
    let frame = match r.byte()? {
        TAG_MSG => {
            let from = u32::dec(&mut r)?;
            let msgs = Vec::<Message>::dec(&mut r)?;
            Frame::Msg { from, msgs }
        }
        TAG_PING => Frame::Ping {
            from: u32::dec(&mut r)?,
        },
        t => return Err(WireError(format!("unknown frame tag {t}"))),
    };
    if !r.is_exhausted() {
        return Err(WireError(format!(
            "{} trailing bytes after frame",
            r.remaining()
        )));
    }
    Ok(frame)
}

fn write_varint(buf: &mut [u8; 10], mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = b;
            return n + 1;
        }
        buf[n] = b | 0x80;
        n += 1;
    }
}

/// Reads a length-prefix varint byte-by-byte. `Ok(None)` = EOF before
/// the first byte (a clean close); EOF mid-varint is corruption.
fn read_varint(r: &mut impl Read) -> Result<Option<u64>, ReadError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut one = [0u8; 1];
        match r.read(&mut one) {
            Ok(0) => {
                return if first {
                    Ok(None)
                } else {
                    Err(ReadError::Corrupt(WireError(
                        "eof inside frame length prefix".into(),
                    )))
                };
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
        first = false;
        let b = one[0];
        if shift == 63 && b > 1 {
            return Err(ReadError::Corrupt(WireError(
                "length prefix overflow".into(),
            )));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
        if shift > 63 {
            return Err(ReadError::Corrupt(WireError(
                "length prefix longer than 10 bytes".into(),
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use transmob_broker::PubSubMsg;
    use transmob_pubsub::{ClientId, PubId, Publication, PublicationMsg};

    fn pub_frame(from: u32, n: u64) -> Frame {
        let msgs = (0..n)
            .map(|i| {
                Message::PubSub(PubSubMsg::Publish(PublicationMsg::new(
                    PubId(i),
                    ClientId(1),
                    Publication::new()
                        .with("price", i as i64)
                        .with("sym", "IBM"),
                )))
            })
            .collect();
        Frame::Msg { from, msgs }
    }

    #[test]
    fn binary_stream_round_trips_multiple_frames() {
        let mut enc = FrameEncoder::new(WireMode::Binary);
        let frames = vec![pub_frame(1, 3), Frame::Ping { from: 1 }, pub_frame(1, 5)];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(enc.encode(f).unwrap());
        }
        let mut dec = FrameDecoder::new(WireMode::Binary);
        let mut cur = Cursor::new(wire);
        for f in &frames {
            assert_eq!(&dec.read_frame(&mut cur).unwrap().unwrap(), f);
        }
        assert!(dec.read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn interning_makes_later_frames_smaller() {
        let mut enc = FrameEncoder::new(WireMode::Binary);
        let first = enc.encode(&pub_frame(1, 4)).unwrap().len();
        let second = enc.encode(&pub_frame(1, 4)).unwrap().len();
        assert!(
            second < first,
            "second frame ({second} B) should drop the raw keys of the first ({first} B)"
        );
        assert_eq!(enc.interned(), 2);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut dec = FrameDecoder::new(WireMode::Binary);
        // varint(2^40) followed by nothing.
        let mut cur = Cursor::new(vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
        match dec.read_frame(&mut cur) {
            Err(ReadError::Corrupt(e)) => assert!(e.0.contains("exceeds cap"), "{e}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_corruption_not_clean_close() {
        let mut enc = FrameEncoder::new(WireMode::Binary);
        let bytes = enc.encode(&pub_frame(1, 2)).unwrap().to_vec();
        for cut in 1..bytes.len() {
            let mut dec = FrameDecoder::new(WireMode::Binary);
            let mut cur = Cursor::new(bytes[..cut].to_vec());
            match dec.read_frame(&mut cur) {
                Err(ReadError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_payload_errors_cleanly() {
        let mut dec = FrameDecoder::new(WireMode::Binary);
        // length 4, then a bogus tag + noise.
        let mut cur = Cursor::new(vec![4, 0xee, 0x01, 0x02, 0x03]);
        assert!(matches!(
            dec.read_frame(&mut cur),
            Err(ReadError::Corrupt(_))
        ));
        // A valid tag but trailing junk after the frame body.
        let mut cur = Cursor::new(vec![3, TAG_PING, 1, 0xaa]);
        let mut dec = FrameDecoder::new(WireMode::Binary);
        assert!(matches!(
            dec.read_frame(&mut cur),
            Err(ReadError::Corrupt(_))
        ));
    }

    #[test]
    fn fresh_decoder_rejects_interned_backrefs_from_old_connection() {
        // Two frames from one encoder; a decoder that only sees the
        // second (as after a redial with a stale stream) must error,
        // not resolve ids against a table it never built.
        let mut enc = FrameEncoder::new(WireMode::Binary);
        let _ = enc.encode(&pub_frame(1, 2)).unwrap();
        let second = enc.encode(&pub_frame(1, 2)).unwrap().to_vec();
        let mut dec = FrameDecoder::new(WireMode::Binary);
        let mut cur = Cursor::new(second);
        assert!(matches!(
            dec.read_frame(&mut cur),
            Err(ReadError::Corrupt(_))
        ));
    }
}
