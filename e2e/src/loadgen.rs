//! The load generator: one thread, one raw connection, a closed loop.
//!
//! The connection waits for replies by polling a nonblocking socket
//! with `yield_now` between polls. A client that blocks in the kernel
//! gets co-scheduled with the server's polling worker on a 2-core box
//! and flips it between "sleeps 200 µs per request" and "never sleeps":
//! B11's blocking loadgen measured 3 424, 3 511 and 19 992 qps for one
//! client on one binary. A thread that is never asleep cannot be
//! co-located that way. `analytic_scan` alone blocks, because its
//! statements run the engine's own 2-thread operators and a polling
//! client would steal their core.

use dq_server::protocol::{frame, try_unframe, ProtocolError, Request};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One statement as it goes on the wire: encoded and framed.
pub fn query_frame(sql: &str) -> Vec<u8> {
    frame(
        &Request::Query {
            sql: sql.to_owned(),
        }
        .encode(),
    )
}

/// What a reply must be: the length and CRC of the expected payload.
/// The frame header carries the CRC and `try_unframe` verifies it, so
/// checking a reply costs two integer compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub len: u32,
    pub crc: u32,
}

/// One framed reply: the header's CRC (verified) and the payload.
#[derive(Debug)]
pub struct Reply {
    pub crc: u32,
    pub payload: Vec<u8>,
}

impl Reply {
    pub fn matches(&self, expect: Expect) -> bool {
        self.payload.len() == expect.len as usize && self.crc == expect.crc
    }
}

/// A raw protocol connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    /// Connects; `polling` picks how [`Conn::recv`] waits.
    pub fn connect(addr: SocketAddr, polling: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(polling)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            chunk: vec![0; 64 * 1024],
        })
    }

    /// Writes one already-framed request.
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let mut at = 0;
        while at < frame.len() {
            match self.stream.write(&frame[at..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Waits for one complete reply frame.
    pub fn recv(&mut self) -> Result<Reply, ProtocolError> {
        loop {
            let crc = self
                .buf
                .get(4..8)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
            if let Some(payload) = try_unframe(&mut self.buf)? {
                let crc = crc.expect("a complete frame has a header");
                return Ok(Reply { crc, payload });
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(ProtocolError::Io(ErrorKind::UnexpectedEof.into())),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// One statement of the stream: which request frame to send, what the
/// reply must be, and how its latency is classed.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub stmt: u32,
    pub expect: Expect,
    pub class: Class,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A `SELECT` on a catalog that has not changed since the last one:
    /// what the `query_*` metrics are over.
    Read,
    /// The first `SELECT` after a `TAG`, which replans and rebuilds the
    /// lazy indexes; it has its own metric.
    ReadAfterWrite,
    /// A `TAG`.
    Write,
}

/// When a drive ends: a measuring window, or a statement count (which
/// makes every counter a function of the seed alone).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Statements(u64),
}

/// One completed statement: when its reply arrived (seconds into the
/// drive), how long it took, and its class.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub us: f64,
    pub class: Class,
}

/// Raw per-statement latencies of one drive.
#[derive(Debug, Default)]
pub struct Samples {
    pub all: Vec<Sample>,
    /// Statements sent.
    pub attempted: u64,
    /// Error frames, wrong bodies and protocol errors.
    pub failed: u64,
    /// First send to last reply.
    pub elapsed: Duration,
}

impl Samples {
    pub fn ops_per_s(&self) -> f64 {
        self.all.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Latencies of the statements `keep` selects.
    pub fn us(&self, keep: impl Fn(Class) -> bool) -> Vec<f64> {
        self.all
            .iter()
            .filter(|s| keep(s.class))
            .map(|s| s.us)
            .collect()
    }

    /// The drive cut into `k` equal stretches of time, oldest first. A
    /// metric reported as the median over stretches shrugs off a noisy
    /// second that a whole-window figure would carry.
    pub fn stretches(&self, k: usize) -> Vec<&[Sample]> {
        let len = self.elapsed.as_secs_f64() / k as f64;
        let mut out = Vec::with_capacity(k);
        let mut from = 0;
        for i in 1..=k {
            let to = if i == k {
                self.all.len()
            } else {
                from + self.all[from..].partition_point(|s| s.at_s < len * i as f64)
            };
            out.push(&self.all[from..to]);
            from = to;
        }
        out
    }
}

/// What the per-reply hook sees.
pub struct Done<'a> {
    /// Position of the reply in this drive, from 0.
    pub seq: u64,
    pub step: &'a Step,
    pub sent: Instant,
    pub received: Instant,
    pub reply: &'a Reply,
}

/// Drives `period` cyclically from position `*pos` with `depth`
/// requests in flight, checking every reply, until `stop`. `on_reply`
/// runs after each reply; time it spends is not in any latency sample.
/// A protocol error ends the drive: a byte stream cannot resynchronize.
pub fn drive(
    conn: &mut Conn,
    frames: &[Vec<u8>],
    period: &[Step],
    pos: &mut usize,
    depth: usize,
    stop: Stop,
    on_reply: &mut dyn FnMut(Done<'_>),
) -> Samples {
    let mut samples = Samples::default();
    // Room for a million statements up front, so that no latency sample
    // is taken while the vector moves; untouched pages cost nothing.
    samples.all.reserve(1 << 20);
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(depth);
    let start = Instant::now();
    let mut last = start;
    loop {
        let stopping = match stop {
            Stop::After(d) => last.duration_since(start) >= d,
            Stop::Statements(n) => samples.attempted >= n,
        };
        while !stopping && in_flight.len() < depth {
            let at = *pos % period.len();
            let now = Instant::now();
            if conn.send(&frames[period[at].stmt as usize]).is_err() {
                samples.attempted += 1;
                samples.failed += (in_flight.len() + 1) as u64;
                samples.elapsed = last.duration_since(start);
                return samples;
            }
            in_flight.push_back((at, now));
            *pos += 1;
            samples.attempted += 1;
        }
        let Some((at, sent_at)) = in_flight.pop_front() else {
            break;
        };
        let reply = match conn.recv() {
            Ok(r) => r,
            Err(_) => {
                samples.failed += (in_flight.len() + 1) as u64;
                break;
            }
        };
        last = Instant::now();
        let step = &period[at];
        samples.all.push(Sample {
            at_s: last.duration_since(start).as_secs_f64(),
            us: last.duration_since(sent_at).as_secs_f64() * 1e6,
            class: step.class,
        });
        if !reply.matches(step.expect) {
            samples.failed += 1;
        }
        on_reply(Done {
            seq: samples.all.len() as u64 - 1,
            step,
            sent: sent_at,
            received: last,
            reply: &reply,
        });
    }
    samples.elapsed = last.duration_since(start);
    samples
}
