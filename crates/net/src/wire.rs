//! Length-prefixed request/response wire protocol.
//!
//! Every message is one frame:
//!
//! ```text
//! magic(0xA7, 1B) | kind(1B) | body_len(u32 LE, 4B) | body(body_len B)
//! ```
//!
//! Readers use [`Read::read_exact`], so a frame split across any number of
//! socket writes — at any byte boundary — reassembles transparently; a
//! stream that ends mid-frame yields a typed [`NetError::Io`], and any
//! grammar violation a [`NetError::Protocol`]. Decoding never panics. The
//! gradient bytes inside [`Request::PushGradient`] are opaque here: they are
//! whatever the session's [`GradientCompressor`] produced (v2 CRC frames
//! included), checked by the codec on decode.
//!
//! The server writes its three training-plane replies straight from what it
//! holds (no owned [`Response`] is built per pull): the dense `Model` from
//! the snapshot, the `State` blob, and the `Round`, whose body is
//!
//! ```text
//! base_round(u64) | round(u64) | epoch(u32) | done(u8) | count(u32) | count x member
//! member = worker(u32) | instances(u64) | has_frame(u8) | [len(u32) | frame]
//! ```
//!
//! — the codec frames of one closed round exactly as the workers pushed
//! them, by ascending worker id, the receiver's own listed without its bytes.
//!
//! A `Predict` body is kept as it was read: [`PredictBatch`] is scored
//! straight from its bytes, no instance decoded into vectors.
//!
//! [`GradientCompressor`]: sketchml_core::GradientCompressor

use crate::error::{ErrorCode, NetError};
use sketchml_ml::{dot_pairs, GlmModel};
use std::io::{Read, Write};

/// Single supported protocol version; `Hello` negotiates a range so future
/// versions can interoperate. Version 2 replaced the weight-delta pull of
/// version 1 with the round and state pulls; version 3 removed
/// `PushStatus::Backpressure` (status byte 3): a push is placed in its
/// worker's slot of the open round or answered, never queued.
pub const PROTOCOL_VERSION: u16 = 3;

/// Frame lead-in byte; anything else is a protocol error.
pub const MAGIC: u8 = 0xA7;

/// Hard cap on one frame's body, protecting the reader from adversarial
/// length prefixes (256 MiB comfortably holds a 32M-feature dense model).
pub const MAX_BODY: usize = 256 << 20;

/// Outcome of a `PushGradient`, carried by [`Response::PushAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushStatus {
    /// The push is a member of the open round (or repeats one that is).
    Accepted,
    /// The round already closed; the worker should re-pull and catch up.
    Stale,
    /// Training is complete; no more pushes are needed.
    Done,
}

impl PushStatus {
    fn to_u8(self) -> u8 {
        match self {
            PushStatus::Accepted => 0,
            PushStatus::Stale => 1,
            PushStatus::Done => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => PushStatus::Accepted,
            1 => PushStatus::Stale,
            2 => PushStatus::Done,
            _ => return None,
        })
    }
}

/// One sparse instance of a `Predict` request: ascending feature indices
/// plus their values.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictInstance {
    /// Strictly ascending feature indices.
    pub indices: Vec<u32>,
    /// Feature values, parallel to `indices`.
    pub values: Vec<f64>,
}

/// Bytes of one `(index, value)` pair of a `Predict` body.
const PAIR: usize = 12;

/// A `Predict` batch in its wire form: the frame body
///
/// ```text
/// n(u32) | n x instance,   instance = nnz(u32) | nnz x (index(u32) | value(f64))
/// ```
///
/// The client packs it once ([`PredictBatch::new`]) and sends these bytes.
/// The server holds the body [`Request::read_from`] read, whose structure
/// that call checked — the count, every `nnz` against the bytes left, no
/// trailing bytes — and scores it straight from those bytes
/// ([`PredictBatch::scores`]): no instance is decoded into vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictBatch {
    body: Vec<u8>,
}

impl PredictBatch {
    /// Packs `instances` into one body: one allocation, a 12-byte store per
    /// pair.
    ///
    /// # Errors
    /// [`NetError::Protocol`] if an instance has more indices than values or
    /// fewer, or if the body would exceed [`MAX_BODY`].
    pub fn new(instances: &[PredictInstance]) -> Result<Self, NetError> {
        let mut pairs = 0usize;
        for (k, inst) in instances.iter().enumerate() {
            if inst.indices.len() != inst.values.len() {
                return Err(NetError::Protocol(format!(
                    "predict instance {k} has {} indices but {} values",
                    inst.indices.len(),
                    inst.values.len()
                )));
            }
            pairs = pairs.saturating_add(inst.indices.len());
        }
        let body_len = pairs
            .saturating_mul(PAIR)
            .saturating_add(4 * (1 + instances.len()));
        if body_len > MAX_BODY {
            return Err(NetError::Protocol(format!(
                "a predict batch of {} instances and {pairs} pairs exceeds MAX_BODY {MAX_BODY}",
                instances.len()
            )));
        }
        // MAX_BODY keeps every count inside a u32.
        let mut body = Vec::with_capacity(body_len);
        body.extend_from_slice(&(instances.len() as u32).to_le_bytes());
        for inst in instances {
            body.extend_from_slice(&(inst.indices.len() as u32).to_le_bytes());
            let start = body.len();
            body.resize(start + PAIR * inst.indices.len(), 0);
            let pairs = inst.indices.iter().zip(&inst.values);
            for (dst, (i, v)) in body[start..].chunks_exact_mut(PAIR).zip(pairs) {
                dst[..4].copy_from_slice(&i.to_le_bytes());
                dst[4..].copy_from_slice(&v.to_le_bytes());
            }
        }
        Ok(PredictBatch { body })
    }

    /// Checks a received body's structure and keeps it.
    fn from_body(body: Vec<u8>) -> Result<Self, NetError> {
        let mut c = Cursor::new(&body);
        for _ in 0..c.count(4)? {
            let nnz = c.count(PAIR)?;
            c.take(PAIR * nnz)?;
        }
        c.finish()?;
        Ok(PredictBatch { body })
    }

    /// Number of instances: the body's leading count.
    pub fn len(&self) -> usize {
        u32::from_le_bytes(self.body[..4].try_into().expect("4B")) as usize
    }

    /// Whether the batch holds no instance.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scores every instance against `model`, in order, in one pass over the
    /// bytes: each is checked — indices strictly ascending and inside the
    /// model, values finite — as it is summed by [`dot_pairs`], the loop
    /// [`GlmModel::score`] runs, so each score equals `GlmModel::score` on
    /// that instance to the bit.
    ///
    /// # Errors
    /// [`NetError::Protocol`] naming the first instance and pair that fail.
    pub fn scores(&self, model: &GlmModel) -> Result<Vec<f64>, NetError> {
        let len = self.len();
        let mut scores = Vec::with_capacity(len);
        let mut rest = &self.body[4..];
        for k in 0..len {
            // The structure was checked when the batch was packed or read.
            let (nnz, tail) = rest.split_at(4);
            let nnz = u32::from_le_bytes(nnz.try_into().expect("4B")) as usize;
            let (pairs, tail) = tail.split_at(PAIR * nnz);
            rest = tail;
            let pairs = pairs.chunks_exact(PAIR).map(|p| {
                let (i, v) = p.split_at(4);
                (
                    u32::from_le_bytes(i.try_into().expect("4B")),
                    f64::from_le_bytes(v.try_into().expect("8B")),
                )
            });
            let score = dot_pairs::<true>(pairs, &model.weights)
                .map_err(|e| NetError::Protocol(format!("predict instance {k}: {e}")))?;
            scores.push(score);
        }
        Ok(scores)
    }
}

/// One worker's contribution to a closed round, as a [`Response::Round`]
/// lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMember {
    /// The worker that pushed it.
    pub worker: u32,
    /// Instances in that worker's slice: its weight in the round's mean.
    pub instances: u64,
    /// The codec frame exactly as pushed; `None` for the receiver's own,
    /// which kept the bytes it sent.
    pub frame: Option<Vec<u8>>,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a session: the client's supported protocol version range.
    Hello {
        /// Lowest version the client speaks.
        min_version: u16,
        /// Highest version the client speaks.
        max_version: u16,
    },
    /// Asks for the serialized training setup (the server is the single
    /// config authority, so a recovering worker needs only address + id).
    GetConfig,
    /// Fetches the model snapshot for `round`; with `wait`, blocks until
    /// the store has advanced to at least that round (or training is done).
    PullModel {
        /// Requesting worker id (0-based), for logs/stats.
        worker: u32,
        /// Round whose model the worker wants.
        round: u64,
        /// Block server-side until the round is available.
        wait: bool,
    },
    /// From a worker whose replica has `have_round` rounds applied: asks for
    /// the round that follows. Answered with [`Response::Round`] — that
    /// round's frames, or none if it has not closed — or, when the replica is
    /// not exactly one round behind, with [`Response::State`].
    PullRound {
        /// Requesting worker id (0-based): its own frame is left out.
        worker: u32,
        /// Rounds applied to the replica the worker holds.
        have_round: u64,
        /// Block server-side (bounded) until that round has closed.
        wait: bool,
    },
    /// A worker's compressed contribution for one round.
    PushGradient {
        /// Pushing worker id (0-based).
        worker: u32,
        /// Global round the gradient was computed against.
        round: u64,
        /// Sum of per-instance losses over the worker's slice.
        loss_sum: f64,
        /// Number of instances in the worker's slice.
        instances: u64,
        /// Compressed gradient bytes (opaque codec frame).
        payload: Vec<u8>,
    },
    /// Scores a batch of sparse instances against the live model.
    Predict {
        /// Instances to score, in their wire form.
        batch: PredictBatch,
    },
    /// Fetches the latest end-of-epoch checkpoint (serialized bytes).
    GetCheckpoint,
    /// Fetches a JSON summary of server counters.
    GetStats,
    /// Asks the server to stop serving (used by tests and the CLI).
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Accepts the session at the negotiated version.
    HelloAck {
        /// Version both sides will speak.
        version: u16,
    },
    /// The serialized [`ServeSetup`](crate::server::ServeSetup) JSON.
    Config {
        /// JSON document.
        json: String,
    },
    /// A model snapshot.
    Model {
        /// Rounds of training baked into these weights.
        round: u64,
        /// Epochs completed.
        epoch: u32,
        /// Whether training has finished.
        done: bool,
        /// Dense weight vector.
        weights: Vec<f64>,
    },
    /// What turns the model and optimizer of `base_round` into those of
    /// `round`: the frames the workers pushed for it. `round == base_round`
    /// with no members means nothing has closed since.
    Round {
        /// Rounds applied to the replica these frames apply to.
        base_round: u64,
        /// Rounds applied once they are: `base_round` or `base_round + 1`.
        round: u64,
        /// Epoch (0-based) the round belongs to.
        epoch: u32,
        /// No round follows this one.
        done: bool,
        /// Contributions by ascending worker id.
        members: Vec<RoundMember>,
    },
    /// The live training state, for a replica that cannot be stepped to it.
    State {
        /// Rounds applied to the state.
        round: u64,
        /// Model and optimizer as a v3 [`Checkpoint`](sketchml_ml::Checkpoint)
        /// frame.
        bytes: Vec<u8>,
    },
    /// Acknowledges a push.
    PushAck {
        /// What happened to the push.
        status: PushStatus,
        /// The server's current round at the time of the ack.
        round: u64,
    },
    /// Scores for a `Predict` batch, in request order.
    Prediction {
        /// Raw model scores (margins), one per instance.
        scores: Vec<f64>,
    },
    /// The latest checkpoint.
    CheckpointBlob {
        /// Epochs the checkpoint covers.
        epochs_done: u64,
        /// Serialized [`Checkpoint`](sketchml_ml::Checkpoint) bytes.
        bytes: Vec<u8>,
    },
    /// JSON counter summary.
    Stats {
        /// JSON document.
        json: String,
    },
    /// Confirms a shutdown request.
    ShutdownAck,
    /// A typed failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// --- frame kinds -----------------------------------------------------------

const K_HELLO: u8 = 0x01;
const K_HELLO_ACK: u8 = 0x02;
const K_GET_CONFIG: u8 = 0x03;
const K_CONFIG: u8 = 0x04;
const K_PULL_MODEL: u8 = 0x05;
const K_MODEL: u8 = 0x06;
const K_PUSH_GRADIENT: u8 = 0x07;
const K_PUSH_ACK: u8 = 0x08;
const K_PREDICT: u8 = 0x09;
const K_PREDICTION: u8 = 0x0A;
const K_GET_CHECKPOINT: u8 = 0x0B;
const K_CHECKPOINT_BLOB: u8 = 0x0C;
const K_GET_STATS: u8 = 0x0D;
const K_STATS: u8 = 0x0E;
const K_SHUTDOWN: u8 = 0x0F;
const K_SHUTDOWN_ACK: u8 = 0x10;
const K_PULL_ROUND: u8 = 0x11;
const K_ROUND: u8 = 0x12;
const K_STATE: u8 = 0x13;
const K_ERROR: u8 = 0x7F;

// --- body cursor -----------------------------------------------------------

/// Bounds-checked little-endian cursor over one frame body. Every accessor
/// returns a typed error on underrun — malformed bodies can never panic the
/// handler thread.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                NetError::Protocol(format!(
                    "body underrun: wanted {n} bytes at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2B")))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// A u32-length-prefixed byte section.
    fn bytes(&mut self) -> Result<Vec<u8>, NetError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, NetError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| NetError::Protocol("string section is not UTF-8".into()))
    }

    /// A count of items about to be decoded, sanity-bounded so a forged
    /// count cannot trigger a huge allocation before the underrun check.
    fn count(&mut self, bytes_per_item: usize) -> Result<usize, NetError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(bytes_per_item.max(1)) > remaining {
            return Err(NetError::Protocol(format!(
                "count {n} x {bytes_per_item}B exceeds the {remaining}B left in the body"
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), NetError> {
        if self.pos != self.buf.len() {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after the message body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

// --- framing ---------------------------------------------------------------

/// Bytes of the frame header (magic, kind, body length).
const FRAME_HEADER: usize = 6;

fn write_frame_header(w: &mut impl Write, kind: u8, body_len: usize) -> Result<(), NetError> {
    if body_len > MAX_BODY {
        return Err(NetError::Protocol(format!(
            "outgoing body of {body_len} bytes exceeds MAX_BODY {MAX_BODY}"
        )));
    }
    let mut header = [0u8; FRAME_HEADER];
    header[0] = MAGIC;
    header[1] = kind;
    header[2..6].copy_from_slice(&(body_len as u32).to_le_bytes());
    w.write_all(&header)?;
    Ok(())
}

fn write_frame(w: &mut impl Write, kind: u8, body: &[u8]) -> Result<(), NetError> {
    write_frame_header(w, kind, body.len())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Writes a [`Response::Model`] frame straight from a weight slice — the
/// server's snapshot is serialised without being cloned — and returns the
/// frame's length in bytes.
///
/// # Errors
/// [`NetError::Io`] on write failure, [`NetError::Protocol`] if the body
/// exceeds [`MAX_BODY`].
pub(crate) fn write_model(
    w: &mut impl Write,
    round: u64,
    epoch: u32,
    done: bool,
    weights: &[f64],
) -> Result<usize, NetError> {
    let mut head = Vec::with_capacity(17);
    head.extend_from_slice(&round.to_le_bytes());
    head.extend_from_slice(&epoch.to_le_bytes());
    head.push(u8::from(done));
    // MAX_BODY, checked with the header, keeps the count inside a u32.
    head.extend_from_slice(&(weights.len() as u32).to_le_bytes());
    let body_len = head.len() + 8 * weights.len();
    write_frame_header(w, K_MODEL, body_len)?;
    w.write_all(&head)?;
    // 64 KiB at a time: large enough that a `BufWriter` passes each piece
    // through to the socket instead of copying it again.
    let mut buf = [0u8; 8 * 8192];
    for chunk in weights.chunks(8192) {
        for (dst, v) in buf.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf[..8 * chunk.len()])?;
    }
    w.flush()?;
    Ok(FRAME_HEADER + body_len)
}

/// Writes a [`Response::Round`] frame and returns its length in bytes. Each
/// member is `(worker, instances, frame)`; the frames are borrowed — the
/// server forwards the payloads its handlers received without copying them.
///
/// # Errors
/// [`NetError::Io`] on write failure, [`NetError::Protocol`] if the body
/// exceeds [`MAX_BODY`].
pub(crate) fn write_round<'a>(
    w: &mut impl Write,
    base_round: u64,
    round: u64,
    epoch: u32,
    done: bool,
    members: impl Iterator<Item = (u32, u64, Option<&'a [u8]>)> + Clone,
) -> Result<usize, NetError> {
    let (count, body_len) = members
        .clone()
        .fold((0usize, 25), |(n, len), (_, _, frame)| {
            (n + 1, len + 13 + frame.map_or(0, |f| 4 + f.len()))
        });
    write_frame_header(w, K_ROUND, body_len)?;
    w.write_all(&base_round.to_le_bytes())?;
    w.write_all(&round.to_le_bytes())?;
    w.write_all(&epoch.to_le_bytes())?;
    w.write_all(&[u8::from(done)])?;
    // MAX_BODY, checked with the header, keeps count and lengths inside a u32.
    w.write_all(&(count as u32).to_le_bytes())?;
    for (worker, instances, frame) in members {
        w.write_all(&worker.to_le_bytes())?;
        w.write_all(&instances.to_le_bytes())?;
        w.write_all(&[u8::from(frame.is_some())])?;
        if let Some(frame) = frame {
            w.write_all(&(frame.len() as u32).to_le_bytes())?;
            w.write_all(frame)?;
        }
    }
    w.flush()?;
    Ok(FRAME_HEADER + body_len)
}

/// Writes a [`Response::State`] frame around borrowed checkpoint bytes and
/// returns its length in bytes.
///
/// # Errors
/// [`NetError::Io`] on write failure, [`NetError::Protocol`] if the body
/// exceeds [`MAX_BODY`].
pub(crate) fn write_state(w: &mut impl Write, round: u64, bytes: &[u8]) -> Result<usize, NetError> {
    let body_len = 12 + bytes.len();
    write_frame_header(w, K_STATE, body_len)?;
    w.write_all(&round.to_le_bytes())?;
    // MAX_BODY, checked with the header, keeps the length inside a u32.
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(FRAME_HEADER + body_len)
}

/// Writes a [`Response::CheckpointBlob`] frame around borrowed checkpoint
/// bytes — the server's published blob is sent without being copied.
///
/// # Errors
/// [`NetError::Io`] on write failure, [`NetError::Protocol`] if the body
/// exceeds [`MAX_BODY`].
pub(crate) fn write_checkpoint_blob(
    w: &mut impl Write,
    epochs_done: u64,
    bytes: &[u8],
) -> Result<(), NetError> {
    let mut head = [0u8; 12];
    head[..8].copy_from_slice(&epochs_done.to_le_bytes());
    // MAX_BODY, checked with the header, keeps the length inside a u32.
    head[8..].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
    write_frame_header(w, K_CHECKPOINT_BLOB, head.len() + bytes.len())?;
    w.write_all(&head)?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one raw frame: `(kind, body)`. Blocks until the full frame has
/// arrived (partial reads reassemble via `read_exact`).
fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), NetError> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    if header[0] != MAGIC {
        return Err(NetError::Protocol(format!(
            "bad frame magic 0x{:02X} (expected 0x{MAGIC:02X})",
            header[0]
        )));
    }
    let kind = header[1];
    let len = u32::from_le_bytes(header[2..6].try_into().expect("4B")) as usize;
    if len > MAX_BODY {
        return Err(NetError::Protocol(format!(
            "frame body of {len} bytes exceeds MAX_BODY {MAX_BODY}"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((kind, body))
}

impl Request {
    /// Serializes the request as one frame.
    ///
    /// # Errors
    /// [`NetError::Io`] on write failure, [`NetError::Protocol`] if the body
    /// exceeds [`MAX_BODY`].
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let mut body = Vec::new();
        let kind = match self {
            Request::Hello {
                min_version,
                max_version,
            } => {
                body.extend_from_slice(&min_version.to_le_bytes());
                body.extend_from_slice(&max_version.to_le_bytes());
                K_HELLO
            }
            Request::GetConfig => K_GET_CONFIG,
            Request::PullModel {
                worker,
                round,
                wait,
            } => {
                body.extend_from_slice(&worker.to_le_bytes());
                body.extend_from_slice(&round.to_le_bytes());
                body.push(u8::from(*wait));
                K_PULL_MODEL
            }
            Request::PullRound {
                worker,
                have_round,
                wait,
            } => {
                body.extend_from_slice(&worker.to_le_bytes());
                body.extend_from_slice(&have_round.to_le_bytes());
                body.push(u8::from(*wait));
                K_PULL_ROUND
            }
            Request::PushGradient {
                worker,
                round,
                loss_sum,
                instances,
                payload,
            } => {
                body.extend_from_slice(&worker.to_le_bytes());
                body.extend_from_slice(&round.to_le_bytes());
                body.extend_from_slice(&loss_sum.to_le_bytes());
                body.extend_from_slice(&instances.to_le_bytes());
                put_bytes(&mut body, payload);
                K_PUSH_GRADIENT
            }
            Request::Predict { batch } => return write_frame(w, K_PREDICT, &batch.body),
            Request::GetCheckpoint => K_GET_CHECKPOINT,
            Request::GetStats => K_GET_STATS,
            Request::Shutdown => K_SHUTDOWN,
        };
        write_frame(w, kind, &body)
    }

    /// Reads and decodes one request frame.
    ///
    /// # Errors
    /// [`NetError::Io`] on a truncated stream, [`NetError::Protocol`] on any
    /// grammar violation. Never panics.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NetError> {
        Self::read_sized(r).map(|(req, _)| req)
    }

    /// [`read_from`](Self::read_from) plus the frame's length in bytes, for
    /// the server's traffic counters.
    pub(crate) fn read_sized(r: &mut impl Read) -> Result<(Self, usize), NetError> {
        let (kind, body) = read_frame(r)?;
        let frame_len = FRAME_HEADER + body.len();
        if kind == K_PREDICT {
            // The batch keeps the body it is scored from.
            let batch = PredictBatch::from_body(body)?;
            return Ok((Request::Predict { batch }, frame_len));
        }
        let mut c = Cursor::new(&body);
        let req = match kind {
            K_HELLO => Request::Hello {
                min_version: c.u16()?,
                max_version: c.u16()?,
            },
            K_GET_CONFIG => Request::GetConfig,
            K_PULL_MODEL => Request::PullModel {
                worker: c.u32()?,
                round: c.u64()?,
                wait: c.u8()? != 0,
            },
            K_PULL_ROUND => Request::PullRound {
                worker: c.u32()?,
                have_round: c.u64()?,
                wait: c.u8()? != 0,
            },
            K_PUSH_GRADIENT => Request::PushGradient {
                worker: c.u32()?,
                round: c.u64()?,
                loss_sum: c.f64()?,
                instances: c.u64()?,
                payload: c.bytes()?,
            },
            K_GET_CHECKPOINT => Request::GetCheckpoint,
            K_GET_STATS => Request::GetStats,
            K_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(NetError::Protocol(format!(
                    "unknown request kind 0x{other:02X}"
                )))
            }
        };
        c.finish()?;
        Ok((req, frame_len))
    }
}

impl Response {
    /// Serializes the response as one frame.
    ///
    /// # Errors
    /// [`NetError::Io`] on write failure, [`NetError::Protocol`] if the body
    /// exceeds [`MAX_BODY`].
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let mut body = Vec::new();
        let kind = match self {
            Response::HelloAck { version } => {
                body.extend_from_slice(&version.to_le_bytes());
                K_HELLO_ACK
            }
            Response::Config { json } => {
                put_bytes(&mut body, json.as_bytes());
                K_CONFIG
            }
            Response::Model {
                round,
                epoch,
                done,
                weights,
            } => return write_model(w, *round, *epoch, *done, weights).map(drop),
            Response::Round {
                base_round,
                round,
                epoch,
                done,
                members,
            } => {
                let members = members
                    .iter()
                    .map(|m| (m.worker, m.instances, m.frame.as_deref()));
                return write_round(w, *base_round, *round, *epoch, *done, members).map(drop);
            }
            Response::State { round, bytes } => return write_state(w, *round, bytes).map(drop),
            Response::PushAck { status, round } => {
                body.push(status.to_u8());
                body.extend_from_slice(&round.to_le_bytes());
                K_PUSH_ACK
            }
            Response::Prediction { scores } => {
                body.extend_from_slice(&(scores.len() as u32).to_le_bytes());
                for s in scores {
                    body.extend_from_slice(&s.to_le_bytes());
                }
                K_PREDICTION
            }
            Response::CheckpointBlob { epochs_done, bytes } => {
                return write_checkpoint_blob(w, *epochs_done, bytes);
            }
            Response::Stats { json } => {
                put_bytes(&mut body, json.as_bytes());
                K_STATS
            }
            Response::ShutdownAck => K_SHUTDOWN_ACK,
            Response::Error { code, message } => {
                body.extend_from_slice(&code.to_u16().to_le_bytes());
                put_bytes(&mut body, message.as_bytes());
                K_ERROR
            }
        };
        write_frame(w, kind, &body)
    }

    /// Reads and decodes one response frame.
    ///
    /// # Errors
    /// [`NetError::Io`] on a truncated stream, [`NetError::Protocol`] on any
    /// grammar violation. Never panics.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NetError> {
        let (kind, body) = read_frame(r)?;
        let mut c = Cursor::new(&body);
        let resp = match kind {
            K_HELLO_ACK => Response::HelloAck { version: c.u16()? },
            K_CONFIG => Response::Config { json: c.string()? },
            K_MODEL => {
                let round = c.u64()?;
                let epoch = c.u32()?;
                let done = c.u8()? != 0;
                let n = c.count(8)?;
                let mut weights = Vec::with_capacity(n);
                for _ in 0..n {
                    weights.push(c.f64()?);
                }
                Response::Model {
                    round,
                    epoch,
                    done,
                    weights,
                }
            }
            K_ROUND => {
                let base_round = c.u64()?;
                let round = c.u64()?;
                let epoch = c.u32()?;
                let done = c.u8()? != 0;
                // A member is at least its id, its count and the flag.
                let n = c.count(13)?;
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    let worker = c.u32()?;
                    let instances = c.u64()?;
                    let frame = match c.u8()? {
                        0 => None,
                        1 => Some(c.bytes()?),
                        other => {
                            return Err(NetError::Protocol(format!(
                                "round member flag {other} is neither 0 nor 1"
                            )))
                        }
                    };
                    members.push(RoundMember {
                        worker,
                        instances,
                        frame,
                    });
                }
                Response::Round {
                    base_round,
                    round,
                    epoch,
                    done,
                    members,
                }
            }
            K_STATE => Response::State {
                round: c.u64()?,
                bytes: c.bytes()?,
            },
            K_PUSH_ACK => {
                let raw = c.u8()?;
                let status = PushStatus::from_u8(raw)
                    .ok_or_else(|| NetError::Protocol(format!("unknown push status {raw}")))?;
                Response::PushAck {
                    status,
                    round: c.u64()?,
                }
            }
            K_PREDICTION => {
                let n = c.count(8)?;
                let mut scores = Vec::with_capacity(n);
                for _ in 0..n {
                    scores.push(c.f64()?);
                }
                Response::Prediction { scores }
            }
            K_CHECKPOINT_BLOB => Response::CheckpointBlob {
                epochs_done: c.u64()?,
                bytes: c.bytes()?,
            },
            K_STATS => Response::Stats { json: c.string()? },
            K_SHUTDOWN_ACK => Response::ShutdownAck,
            K_ERROR => {
                let raw = c.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| NetError::Protocol(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    message: c.string()?,
                }
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unknown response kind 0x{other:02X}"
                )))
            }
        };
        c.finish()?;
        Ok(resp)
    }

    /// Converts an `Error` response into `Err(NetError::Remote)`, passing
    /// every other response through.
    ///
    /// # Errors
    /// [`NetError::Remote`] when `self` is [`Response::Error`].
    pub fn into_result(self) -> Result<Response, NetError> {
        match self {
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: &Request) -> Request {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        Request::read_from(&mut buf.as_slice()).unwrap()
    }

    fn roundtrip_resp(resp: &Response) -> Response {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        Response::read_from(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn every_request_roundtrips() {
        for req in [
            Request::Hello {
                min_version: 1,
                max_version: 3,
            },
            Request::GetConfig,
            Request::PullModel {
                worker: 2,
                round: 77,
                wait: true,
            },
            Request::PullRound {
                worker: 1,
                have_round: 76,
                wait: true,
            },
            Request::PushGradient {
                worker: 3,
                round: 12,
                loss_sum: -0.75,
                instances: 40,
                payload: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
            Request::Predict {
                batch: PredictBatch::new(&[
                    PredictInstance {
                        indices: vec![1, 7, 9],
                        values: vec![0.5, -0.25, 2.0],
                    },
                    PredictInstance {
                        indices: vec![],
                        values: vec![],
                    },
                ])
                .unwrap(),
            },
            Request::Predict {
                batch: PredictBatch::new(&[]).unwrap(),
            },
            Request::GetCheckpoint,
            Request::GetStats,
            Request::Shutdown,
        ] {
            assert_eq!(roundtrip_req(&req), req);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        for resp in [
            Response::HelloAck { version: 2 },
            Response::Config {
                json: "{\"workers\":4}".into(),
            },
            Response::Model {
                round: 9,
                epoch: 2,
                done: false,
                weights: vec![0.0, -1.5, 3.25],
            },
            Response::Round {
                base_round: 9,
                round: 10,
                epoch: 2,
                done: false,
                members: vec![
                    RoundMember {
                        worker: 0,
                        instances: 75,
                        frame: Some(vec![0xC0, 0xDE, 0xC0]),
                    },
                    RoundMember {
                        worker: 2,
                        instances: 0,
                        frame: None,
                    },
                    RoundMember {
                        worker: 3,
                        instances: u64::MAX,
                        frame: Some(vec![]),
                    },
                ],
            },
            Response::Round {
                base_round: 10,
                round: 10,
                epoch: 3,
                done: true,
                members: vec![],
            },
            Response::State {
                round: 41,
                bytes: vec![0xC3, b'S', b'K', b'P', 9],
            },
            Response::PushAck {
                status: PushStatus::Stale,
                round: 10,
            },
            Response::Prediction {
                scores: vec![0.1, -0.9],
            },
            Response::CheckpointBlob {
                epochs_done: 3,
                bytes: vec![1, 2, 3],
            },
            Response::Stats { json: "{}".into() },
            Response::ShutdownAck,
            Response::Error {
                code: ErrorCode::Backpressure,
                message: "queue full".into(),
            },
        ] {
            assert_eq!(roundtrip_resp(&resp), resp);
        }
    }

    #[test]
    fn bad_magic_kind_and_lengths_fail_typed() {
        // Bad magic.
        let err = Request::read_from(&mut [0x00u8, 0x01, 0, 0, 0, 0].as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        // Unknown kind.
        let err = Request::read_from(&mut [MAGIC, 0x66, 0, 0, 0, 0].as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        // Oversized length prefix.
        let mut huge = vec![MAGIC, K_PUSH_GRADIENT];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Request::read_from(&mut huge.as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        // Truncated body: Io, not a panic.
        let mut buf = Vec::new();
        Request::GetStats.write_to(&mut buf).unwrap();
        buf[2] = 40; // claim a 40-byte body that never arrives
        let err = Request::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "{err}");
        // Trailing garbage after a valid body.
        let mut buf = Vec::new();
        Request::PullModel {
            worker: 0,
            round: 1,
            wait: false,
        }
        .write_to(&mut buf)
        .unwrap();
        let body_len = buf.len() - 6;
        buf[2] = (body_len + 3) as u8;
        buf.extend_from_slice(&[9, 9, 9]);
        let err = Request::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    fn framed(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut buf = vec![MAGIC, kind];
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn forged_counts_fail_before_allocating() {
        // Predict frames claiming 2^31 instances in a 12-byte body; one
        // instance whose `nnz` claims 2^31 pairs, or one pair more than it
        // carries; and a valid batch followed by trailing bytes.
        let pair = |i: u32, v: f64| [&i.to_le_bytes()[..], &v.to_le_bytes()].concat();
        let many = [&(1u32 << 31).to_le_bytes()[..], &[0; 8]].concat();
        let instance = |nnz: u32, pairs: &[Vec<u8>]| {
            [&1u32.to_le_bytes()[..], &nnz.to_le_bytes(), &pairs.concat()].concat()
        };
        let pairs = [pair(3, 0.5), pair(9, -1.0)];
        let good = instance(2, &pairs);
        assert!(Request::read_from(&mut framed(K_PREDICT, &good).as_slice()).is_ok());
        for (what, body, needle) in [
            ("instance count", many, "x 4B exceeds"),
            ("forged nnz", instance(1 << 31, &pairs), "x 12B exceeds"),
            ("nnz one too many", instance(3, &pairs), "x 12B exceeds"),
            (
                "trailing bytes",
                [&good[..], &[0xEE; 5]].concat(),
                "trailing",
            ),
        ] {
            let err = Request::read_from(&mut framed(K_PREDICT, &body).as_slice()).unwrap_err();
            assert!(matches!(err, NetError::Protocol(_)), "{what}: {err}");
            assert!(err.to_string().contains(needle), "{what}: {err}");
        }

        // A Round claiming 2^31 members, and one whose only member claims a
        // 2^31-byte frame, in bodies of a few dozen bytes; a State claiming a
        // 2^31-byte blob. Each is stopped before anything is sized from it.
        let round_head = |members: u32| {
            let mut body = vec![0u8; 21];
            body.extend_from_slice(&members.to_le_bytes());
            body
        };
        let mut many = round_head(1 << 31);
        many.extend_from_slice(&[0; 13]);
        let mut long = round_head(1);
        long.extend_from_slice(&[0; 12]);
        long.push(1);
        long.extend_from_slice(&(1u32 << 31).to_le_bytes());
        long.extend_from_slice(&[0xAB; 8]);
        let mut state = 7u64.to_le_bytes().to_vec();
        state.extend_from_slice(&(1u32 << 31).to_le_bytes());
        state.extend_from_slice(&[0xAB; 8]);
        for (what, kind, body) in [
            ("member count", K_ROUND, many),
            ("frame length", K_ROUND, long),
            ("state length", K_STATE, state),
        ] {
            let err = Response::read_from(&mut framed(kind, &body).as_slice()).unwrap_err();
            assert!(matches!(err, NetError::Protocol(_)), "{what}: {err}");
            let needle = if what == "member count" {
                "x 13B exceeds"
            } else {
                "body underrun"
            };
            assert!(err.to_string().contains(needle), "{what}: {err}");
        }
    }

    #[test]
    fn write_model_keeps_the_dense_frame_bytes() {
        // More than one 8192-weight chunk, the last one short.
        let weights: Vec<f64> = (0..2 * 8192 + 5).map(|i| i as f64 / 3.0 - 1e3).collect();
        let mut expected = vec![MAGIC, K_MODEL];
        expected.extend_from_slice(&((17 + 8 * weights.len()) as u32).to_le_bytes());
        expected.extend_from_slice(&9u64.to_le_bytes());
        expected.extend_from_slice(&2u32.to_le_bytes());
        expected.push(1);
        expected.extend_from_slice(&(weights.len() as u32).to_le_bytes());
        for w in &weights {
            expected.extend_from_slice(&w.to_le_bytes());
        }
        let mut written = Vec::new();
        let len = write_model(&mut written, 9, 2, true, &weights).unwrap();
        assert_eq!(len, written.len());
        assert!(written == expected, "dense frame bytes changed");
        // The owned response goes through the same writer.
        let resp = Response::Model {
            round: 9,
            epoch: 2,
            done: true,
            weights,
        };
        let mut owned = Vec::new();
        resp.write_to(&mut owned).unwrap();
        assert!(owned == expected);
        assert_eq!(roundtrip_resp(&resp), resp);
    }

    #[test]
    fn write_checkpoint_blob_keeps_the_frame_bytes() {
        let blob: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let mut expected = vec![MAGIC, K_CHECKPOINT_BLOB];
        expected.extend_from_slice(&((12 + blob.len()) as u32).to_le_bytes());
        expected.extend_from_slice(&3u64.to_le_bytes());
        expected.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        expected.extend_from_slice(&blob);
        let mut written = Vec::new();
        write_checkpoint_blob(&mut written, 3, &blob).unwrap();
        assert!(written == expected, "checkpoint frame bytes changed");
        // The owned response goes through the same writer.
        let resp = Response::CheckpointBlob {
            epochs_done: 3,
            bytes: blob,
        };
        let mut owned = Vec::new();
        resp.write_to(&mut owned).unwrap();
        assert!(owned == expected);
        assert_eq!(roundtrip_resp(&resp), resp);
    }

    #[test]
    fn write_round_forwards_borrowed_frames_and_leaves_the_receivers_out() {
        let frames = [vec![1u8, 2, 3], vec![], vec![9u8; 70_000]];
        // As the server answers worker 1: its own frame is not sent.
        let members = [
            (0u32, 75u64, Some(frames[0].as_slice())),
            (1, 74, None),
            (2, 0, Some(frames[1].as_slice())),
            (3, 76, Some(frames[2].as_slice())),
        ];
        let mut frame = Vec::new();
        let len = write_round(&mut frame, 4, 5, 1, false, members.iter().copied()).unwrap();
        assert_eq!(len, frame.len());
        assert_eq!(len, FRAME_HEADER + 25 + 4 * 13 + 3 * 4 + 3 + 70_000);
        let expected = Response::Round {
            base_round: 4,
            round: 5,
            epoch: 1,
            done: false,
            members: members
                .iter()
                .map(|&(worker, instances, frame)| RoundMember {
                    worker,
                    instances,
                    frame: frame.map(<[u8]>::to_vec),
                })
                .collect(),
        };
        assert_eq!(
            Response::read_from(&mut frame.as_slice()).unwrap(),
            expected
        );
        // The owned response goes through the same writer.
        let mut owned = Vec::new();
        expected.write_to(&mut owned).unwrap();
        assert!(owned == frame);

        let blob: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let mut frame = Vec::new();
        let len = write_state(&mut frame, 41, &blob).unwrap();
        assert_eq!(len, frame.len());
        assert_eq!(
            Response::read_from(&mut frame.as_slice()).unwrap(),
            Response::State {
                round: 41,
                bytes: blob
            }
        );
    }

    #[test]
    fn hostile_round_bodies_fail_typed() {
        let members = [(0u32, 75u64, Some(&[1u8, 2, 3][..])), (1, 74, None)];
        let mut good = Vec::new();
        write_round(&mut good, 4, 5, 1, false, members.iter().copied()).unwrap();
        assert!(Response::read_from(&mut good.as_slice()).is_ok());
        let reframed = |body: &[u8]| {
            let mut frame = vec![MAGIC, K_ROUND];
            frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frame.extend_from_slice(body);
            frame
        };
        let body = &good[FRAME_HEADER..];
        // The flag byte of member 0 sits after the 25-byte head, its id and
        // its count.
        let mut bad_flag = body.to_vec();
        bad_flag[25 + 12] = 2;
        let cases = [
            ("flag byte", bad_flag),
            ("trailing bytes", [body, &[0xEE; 3]].concat()),
        ];
        for (what, body) in cases {
            let err = Response::read_from(&mut reframed(&body).as_slice()).unwrap_err();
            assert!(matches!(err, NetError::Protocol(_)), "{what}: {err}");
        }
        // Every proper prefix of the body, framed as if it were complete.
        for cut in 0..body.len() {
            let err = Response::read_from(&mut reframed(&body[..cut]).as_slice()).unwrap_err();
            assert!(matches!(err, NetError::Protocol(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn error_response_converts_to_remote_error() {
        let resp = Response::Error {
            code: ErrorCode::BadState,
            message: "not training".into(),
        };
        let err = resp.into_result().unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::BadState,
                ..
            }
        ));
        assert!(Response::ShutdownAck.into_result().is_ok());
    }
}
