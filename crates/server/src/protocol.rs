//! Wire protocol: length-prefixed, CRC-framed request/response messages.
//!
//! Framing is byte-identical in shape to the WAL codec (`dq-storage`):
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! The CRC is the same CRC-32/ISO-HDLC the WAL uses; a mismatch means
//! the stream is corrupt and the session is closed (there is no way to
//! resynchronize a byte stream after a torn frame). Payloads start with
//! a one-byte opcode; strings are `u32 LE` length + UTF-8 bytes.
//!
//! Requests:
//!
//! | op | name  | body                                   |
//! |----|-------|----------------------------------------|
//! | 1  | Hello | profile JSON string (empty = no profile)|
//! | 2  | Query | QQL statement text                     |
//! | 3  | Ping  | —                                      |
//!
//! Responses (status byte first):
//!
//! | status | name | body                                 |
//! |--------|------|--------------------------------------|
//! | 0      | Ok   | rendered result string               |
//! | 1      | Err  | error message string                 |
//! | 2      | Pong | —                                    |

use std::io::{self, Read, Write};

/// Frames larger than this are rejected — a length prefix beyond it
/// means a corrupt or hostile stream, not a big result.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// CRC32 of `bytes` (single-shot, CRC-32/ISO-HDLC): the WAL's checksum.
pub use dq_storage::crc32;

/// Protocol-level failure: framing, checksum, or encoding.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket error.
    Io(io::Error),
    /// Frame length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// Payload checksum mismatch — stream corrupt.
    BadCrc {
        /// CRC carried in the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// Unknown opcode / status byte or malformed body.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "io: {e}"),
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds MAX_FRAME ({MAX_FRAME})")
            }
            ProtocolError::BadCrc { expected, actual } => {
                write!(f, "crc mismatch: frame says {expected:#010x}, payload is {actual:#010x}")
            }
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens (or rebinds) the session: `profile_json` is a serialized
    /// `dq-core` `UserProfile` supplying the session's `WITH QUALITY`
    /// defaults; empty means the unconstrained profile.
    Hello {
        /// Serialized profile, or `""`.
        profile_json: String,
    },
    /// One QQL statement.
    Query {
        /// Statement text.
        sql: String,
    },
    /// Liveness probe.
    Ping,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Statement succeeded; `body` is the rendered result (paper-style
    /// table for SELECT, report for INSPECT/EXPLAIN).
    Ok {
        /// Rendered result.
        body: String,
    },
    /// Statement failed.
    Err {
        /// Error message.
        message: String,
    },
    /// Reply to [`Request::Ping`] and [`Request::Hello`].
    Pong,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_str(buf: &[u8], at: &mut usize) -> Result<String, ProtocolError> {
    if buf.len() < *at + 4 {
        return Err(ProtocolError::Malformed("truncated string length".into()));
    }
    let len = u32::from_le_bytes(buf[*at..*at + 4].try_into().unwrap()) as usize;
    *at += 4;
    if buf.len() < *at + len {
        return Err(ProtocolError::Malformed("truncated string body".into()));
    }
    let s = std::str::from_utf8(&buf[*at..*at + len])
        .map_err(|e| ProtocolError::Malformed(format!("invalid utf-8: {e}")))?
        .to_owned();
    *at += len;
    Ok(s)
}

impl Request {
    /// Serializes to a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { profile_json } => {
                out.push(1);
                put_str(&mut out, profile_json);
            }
            Request::Query { sql } => {
                out.push(2);
                put_str(&mut out, sql);
            }
            Request::Ping => out.push(3),
        }
        out
    }

    /// Parses a payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let op = *payload
            .first()
            .ok_or_else(|| ProtocolError::Malformed("empty request".into()))?;
        let mut at = 1;
        match op {
            1 => Ok(Request::Hello {
                profile_json: take_str(payload, &mut at)?,
            }),
            2 => Ok(Request::Query {
                sql: take_str(payload, &mut at)?,
            }),
            3 => Ok(Request::Ping),
            other => Err(ProtocolError::Malformed(format!("unknown request op {other}"))),
        }
    }
}

impl Response {
    /// Serializes to a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok { body } => {
                out.push(0);
                put_str(&mut out, body);
            }
            Response::Err { message } => {
                out.push(1);
                put_str(&mut out, message);
            }
            Response::Pong => out.push(2),
        }
        out
    }

    /// Parses a payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let status = *payload
            .first()
            .ok_or_else(|| ProtocolError::Malformed("empty response".into()))?;
        let mut at = 1;
        match status {
            0 => Ok(Response::Ok {
                body: take_str(payload, &mut at)?,
            }),
            1 => Ok(Response::Err {
                message: take_str(payload, &mut at)?,
            }),
            2 => Ok(Response::Pong),
            other => Err(ProtocolError::Malformed(format!(
                "unknown response status {other}"
            ))),
        }
    }
}

/// Wraps a payload in a `[len][crc][payload]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Tries to pop one complete frame's payload off the front of `buf`.
/// Returns `Ok(None)` when more bytes are needed; on success the frame
/// bytes are drained from `buf`.
pub fn try_unframe(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ProtocolError> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let total = 8 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let expected = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let payload = buf[8..total].to_vec();
    let actual = crc32(&payload);
    if actual != expected {
        return Err(ProtocolError::BadCrc { expected, actual });
    }
    buf.drain(0..total);
    Ok(Some(payload))
}

/// Blocking write of one framed payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtocolError> {
    w.write_all(&frame(payload))?;
    w.flush()?;
    Ok(())
}

/// Blocking read of one framed payload (for the synchronous client).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtocolError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let expected = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(ProtocolError::BadCrc { expected, actual });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_wal_vectors() {
        // Same check values the dq-storage CRC pins — one checksum
        // definition across the whole system.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Hello {
                profile_json: "{\"user\":\"trader\"}".into(),
            },
            Request::Query {
                sql: "SELECT * FROM t WITH QUALITY (v@age <= 5)".into(),
            },
            Request::Ping,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Ok { body: "k | v\n1 | 2\n".into() },
            Response::Err { message: "unknown table `x`".into() },
            Response::Pong,
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn unframe_handles_partial_and_coalesced_frames() {
        let a = Request::Ping.encode();
        let b = Request::Query { sql: "SELECT 1".into() }.encode();
        let mut stream = frame(&a);
        stream.extend_from_slice(&frame(&b));
        // feed the coalesced bytes one at a time
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for byte in stream {
            buf.push(byte);
            while let Some(p) = try_unframe(&mut buf).unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, vec![a, b]);
        assert!(buf.is_empty());
    }

    #[test]
    fn corrupt_frame_is_rejected() {
        let mut framed = frame(&Request::Ping.encode());
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        let mut buf = framed;
        assert!(matches!(
            try_unframe(&mut buf),
            Err(ProtocolError::BadCrc { .. })
        ));
        // oversized length prefix
        let mut huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            try_unframe(&mut huge),
            Err(ProtocolError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[9]).is_err());
        assert!(Request::decode(&[2, 10, 0, 0, 0, b'x']).is_err()); // truncated body
        assert!(Response::decode(&[7]).is_err());
        let bad_utf8 = {
            let mut v = vec![2u8, 2, 0, 0, 0];
            v.extend_from_slice(&[0xFF, 0xFE]);
            v
        };
        assert!(Request::decode(&bad_utf8).is_err());
    }
}
