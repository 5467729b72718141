//! Model + optimizer checkpointing.
//!
//! Long SGD runs (the paper's Table 2 jobs take up to 23 hours) need
//! restartable state: the weight vector alone is not enough because the
//! optimizer's moments and step counter shape every subsequent update. A
//! checkpoint captures both as one checksummed binary frame.
//!
//! ## Format
//!
//! **v3** is the one format, written and read. All integers and floats are
//! little-endian:
//!
//! ```text
//! magic      4B   C3 53 4B 50                 (never the start of a JSON text)
//! version    u32  3
//! loss       u8   0 Logistic | 1 Hinge | 2 Squared
//! l2         f64
//! weights    vec                              (dim = its length, > 0)
//! optimizer  u8 tag = rule + (3 if the state is sketched), then per rule:
//!   0 Sgd       lr
//!   1 Momentum  lr gamma   state(velocity)
//!   2 AdaGrad   lr epsilon state(accum)
//!   3 Adam      lr beta1 beta2 epsilon  t(u64)  state(m) state(v)
//! epochs     u64
//! checksum   u64  over every preceding byte
//!
//! state = vec under tags 1-3, table under tags 4-6 (Sgd has none: tag 0)
//! vec   = len(u64) | len x f64          (len == dim)
//! table = rows(u64) | cols(u64) | seed(u64) | rows*cols x f64
//!                                         (seed == the role's fixed seed)
//! ```
//!
//! The JSON documents of v1 and v2 are refused like any other input that is
//! not a v3 frame: their first byte is not the magic's.

use crate::error::MlError;
use crate::loss::GlmLoss;
use crate::model::GlmModel;
use crate::opt_state::{OptStateMode, OptimizerState, Store, SEED_G, SEED_M, SEED_U, SEED_V};
use crate::optimizer::{AdaGrad, Adam, AdamConfig, Momentum, Sgd};
use sketchml_sketches::hash::mix64;
use sketchml_sketches::CountSketch;
use std::io::{Read, Write};

/// A restartable training state: model + optimizer state + epoch cursor.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The GLM being trained.
    pub model: GlmModel,
    /// The optimizer with its auxiliary state and any step counter.
    pub optimizer: OptimizerState,
    /// Epochs completed so far.
    pub epochs_done: usize,
}

/// Leading bytes of a frame. The first is neither ASCII whitespace nor `{`,
/// so no JSON document passes for a frame.
const MAGIC: [u8; 4] = [0xC3, b'S', b'K', b'P'];
/// Magic, version, loss tag, l2, weight count; optimizer tag; epochs, checksum.
const FIXED_LEN: usize = 4 + 4 + 1 + 8 + 8 + 1 + 8 + 8;

const TAG_SGD: u8 = 0;
const TAG_MOMENTUM: u8 = 1;
const TAG_ADAGRAD: u8 = 2;
const TAG_ADAM: u8 = 3;

impl Checkpoint {
    /// Current format version.
    pub const VERSION: u32 = 3;

    /// Bundles the pieces into a checkpoint. Accepts any concrete optimizer
    /// via the `From` conversions on [`OptimizerState`].
    pub fn new(model: GlmModel, optimizer: impl Into<OptimizerState>, epochs_done: usize) -> Self {
        Checkpoint {
            model,
            optimizer: optimizer.into(),
            epochs_done,
        }
    }

    /// Appends the v3 frame of a training state to `out`, straight from the
    /// borrowed parts: the one writer behind [`Self::save`] and
    /// [`Self::to_bytes`], for callers that must not clone the state first.
    pub fn write_parts(
        model: &GlmModel,
        optimizer: &OptimizerState,
        epochs_done: usize,
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.reserve(Self::encoded_len(model, optimizer));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&Self::VERSION.to_le_bytes());
        out.push(match model.loss {
            GlmLoss::Logistic => 0,
            GlmLoss::Hinge => 1,
            GlmLoss::Squared => 2,
        });
        put_f64s(out, &[model.l2]);
        put_vec(out, &model.weights);
        out.push(optimizer.tag());
        match optimizer {
            OptimizerState::Sgd(o) => put_f64s(out, &[o.lr]),
            OptimizerState::Momentum(o) => put_f64s(out, &[o.lr, o.gamma]),
            OptimizerState::AdaGrad(o) => put_f64s(out, &[o.lr, o.epsilon]),
            OptimizerState::Adam(o) => {
                let AdamConfig {
                    lr,
                    beta1,
                    beta2,
                    epsilon,
                } = o.config;
                put_f64s(out, &[lr, beta1, beta2, epsilon]);
                out.extend_from_slice(&o.t.to_le_bytes());
            }
        }
        for store in optimizer.stores() {
            match store {
                Store::Dense(x) => put_vec(out, x),
                Store::Sketched(t) => {
                    for n in [t.rows() as u64, t.cols() as u64, t.seed()] {
                        out.extend_from_slice(&n.to_le_bytes());
                    }
                    put_f64s(out, t.cells());
                }
            }
        }
        out.extend_from_slice(&(epochs_done as u64).to_le_bytes());
        let sum = checksum(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Length in bytes of the frame [`Self::write_parts`] would append, by
    /// arithmetic alone.
    pub fn encoded_len(model: &GlmModel, optimizer: &OptimizerState) -> usize {
        let head = match optimizer {
            OptimizerState::Sgd(_) => 8,
            OptimizerState::Momentum(_) | OptimizerState::AdaGrad(_) => 16,
            OptimizerState::Adam(_) => 40,
        };
        let state = optimizer.stores().map(|store| match store {
            Store::Dense(x) => 8 + 8 * x.len(),
            Store::Sketched(t) => 24 + 8 * t.cells().len(),
        });
        FIXED_LEN + 8 * model.weights.len() + head + state.sum::<usize>()
    }

    /// Writes the v3 frame to a writer.
    ///
    /// # Errors
    /// [`MlError::InvalidInput`] wrapping IO failures.
    pub fn save(&self, mut writer: impl Write) -> Result<(), MlError> {
        writer
            .write_all(&self.to_bytes()?)
            .and_then(|()| writer.flush())
            .map_err(|e| MlError::InvalidInput(format!("checkpoint write: {e}")))
    }

    /// Serializes to an in-memory buffer — the artifact a recovering worker
    /// pulls before it rejoins.
    ///
    /// # Errors
    /// None today; the signature predates the binary frame.
    pub fn to_bytes(&self) -> Result<Vec<u8>, MlError> {
        let mut buf = Vec::new();
        Self::write_parts(&self.model, &self.optimizer, self.epochs_done, &mut buf);
        Ok(buf)
    }

    /// Checks that `bytes` are one intact v3 frame that [`Self::from_bytes`]
    /// would load — magic, version, checksum, every tag, every length
    /// against the bytes that remain, optimizer state sized to the model,
    /// hyper-parameters in range, nothing trailing — without allocating.
    ///
    /// # Errors
    /// [`MlError::InvalidInput`] naming the first violation.
    pub fn validate(bytes: &[u8]) -> Result<(), MlError> {
        Frame::parse(bytes).map(drop)
    }

    /// Deserializes and validates an in-memory buffer: one v3 frame.
    ///
    /// # Errors
    /// [`MlError::InvalidInput`] on anything [`Self::validate`] refuses —
    /// corrupt or malformed input, another version, an empty model, optimizer
    /// state that does not fit the model.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MlError> {
        Frame::parse(bytes)?.build()
    }

    /// Deserializes from a reader; see [`Self::from_bytes`].
    ///
    /// # Errors
    /// As [`Self::from_bytes`], plus read failures.
    pub fn load(mut reader: impl Read) -> Result<Self, MlError> {
        let mut bytes = Vec::new();
        reader
            .read_to_end(&mut bytes)
            .map_err(|e| MlError::InvalidInput(format!("checkpoint read: {e}")))?;
        Self::from_bytes(&bytes)
    }
}

fn bad(msg: impl Into<String>) -> MlError {
    MlError::InvalidInput(msg.into())
}

// --- v3 writer helpers -------------------------------------------------------

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_vec(out: &mut Vec<u8>, xs: &[f64]) {
    out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    put_f64s(out, xs);
}

/// 64 bits over `bytes`: `h ← mix64(h ^ word)` along the little-endian
/// words, the last one zero-padded, starting from the length. Each step is a
/// bijection of the word for a fixed `h` and of `h` for a fixed word, so two
/// inputs that differ in one word — any single flipped bit — never collide.
fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for w in &mut words {
        h = mix64(h ^ u64::from_le_bytes(w.try_into().expect("8B")));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    mix64(h ^ u64::from_le_bytes(last))
}

// --- v3 reader -----------------------------------------------------------------

/// Bounds-checked little-endian reader over what is left of a frame.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], MlError> {
        if n > self.0.len() {
            return Err(bad(format!(
                "checkpoint truncated: wanted {n} bytes, {} left",
                self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, MlError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, MlError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn f64(&mut self) -> Result<f64, MlError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The bytes of `n` f64s. `n` comes from the input: it is held to the
    /// bytes that remain before anything is sized by it.
    fn f64s(&mut self, n: u64) -> Result<&'a [u8], MlError> {
        let len = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .filter(|&len| len <= self.0.len())
            .ok_or_else(|| {
                bad(format!(
                    "checkpoint declares {n} values with {} bytes left",
                    self.0.len()
                ))
            })?;
        self.take(len)
    }

    /// A dense optimizer vector, which must span the model.
    fn state_vec(&mut self, dim: usize) -> Result<&'a [u8], MlError> {
        let n = self.u64()?;
        if n != dim as u64 {
            return Err(bad(format!(
                "optimizer state has {n} entries, the model {dim}"
            )));
        }
        self.f64s(n)
    }

    /// A rule's state vector in its role (`name`, fixed `seed`): dense under
    /// tags 1-3, a table under 4-6.
    fn store(
        &mut self,
        sketched: bool,
        dim: usize,
        (name, role_seed): (&str, u64),
    ) -> Result<StoreFrame<'a>, MlError> {
        if !sketched {
            return Ok(StoreFrame::Dense(self.state_vec(dim)?));
        }
        let (rows, cols, seed) = (self.u64()?, self.u64()?, self.u64()?);
        // Every process hashes a role's keys under the same seed; a table
        // under another would step the same frames to different weights.
        if seed != role_seed {
            return Err(bad(format!(
                "sketch table `{name}` has seed {seed:#x}, not its fixed seed {role_seed:#x}"
            )));
        }
        // `OptStateMode`'s shape rule, applied before the cell count sizes
        // anything (a shape past usize is out of range too).
        let fit = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
        let (r, c) = (fit(rows), fit(cols));
        OptStateMode::sketched(r, c).validate().map_err(|e| {
            bad(format!(
                "sketch table shape {rows}x{cols} is out of range: {e}"
            ))
        })?;
        let cells = self.f64s((r * c) as u64)?;
        Ok(StoreFrame::Sketched(r, c, seed, cells))
    }

    fn momentum_head(&mut self) -> Result<(f64, f64), MlError> {
        let (lr, gamma) = (self.f64()?, self.f64()?);
        in_range(Momentum::new(0, lr, gamma))?;
        Ok((lr, gamma))
    }

    fn adagrad_head(&mut self) -> Result<(f64, f64), MlError> {
        let (lr, epsilon) = (self.f64()?, self.f64()?);
        in_range(AdaGrad::with_epsilon(0, lr, epsilon))?;
        Ok((lr, epsilon))
    }

    fn adam_head(&mut self) -> Result<(AdamConfig, u64), MlError> {
        let config = AdamConfig {
            lr: self.f64()?,
            beta1: self.f64()?,
            beta2: self.f64()?,
            epsilon: self.f64()?,
        };
        in_range(Adam::new(0, config))?;
        Ok((config, self.u64()?))
    }
}

/// Hyper-parameters go through the constructors' own range checks (at
/// dimension 0, which allocates nothing).
fn in_range<T>(built: Result<T, MlError>) -> Result<(), MlError> {
    built
        .map(drop)
        .map_err(|e| bad(format!("checkpoint optimizer: {e}")))
}

fn floats(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8B")))
        .collect()
}

/// A checked state vector, its values still in the frame: dense, or a
/// `rows x cols` table and its seed.
enum StoreFrame<'a> {
    Dense(&'a [u8]),
    Sketched(usize, usize, u64, &'a [u8]),
}

impl StoreFrame<'_> {
    fn build(&self) -> Result<Store, MlError> {
        Ok(match *self {
            StoreFrame::Dense(values) => Store::Dense(floats(values)),
            StoreFrame::Sketched(rows, cols, seed, cells) => Store::Sketched(
                CountSketch::from_cells(rows, cols, seed, Some(floats(cells)))
                    .map_err(|e| bad(format!("checkpoint sketch table: {e}")))?,
            ),
        })
    }
}

/// The optimizer section of a checked frame.
enum OptFrame<'a> {
    Sgd(f64),
    Momentum(f64, f64, StoreFrame<'a>),
    AdaGrad(f64, f64, StoreFrame<'a>),
    Adam(AdamConfig, u64, StoreFrame<'a>, StoreFrame<'a>),
}

/// A v3 frame that passed every check, borrowed from the input: what
/// [`Checkpoint::validate`] proves and [`Checkpoint::from_bytes`] builds from.
struct Frame<'a> {
    loss: GlmLoss,
    l2: f64,
    weights: &'a [u8],
    optimizer: OptFrame<'a>,
    epochs_done: usize,
}

impl<'a> Frame<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self, MlError> {
        if bytes.len() < FIXED_LEN {
            return Err(bad(format!(
                "checkpoint truncated: {} bytes cannot hold a frame",
                bytes.len()
            )));
        }
        if bytes[..4] != MAGIC {
            return Err(bad("not a v3 checkpoint frame (bad magic)"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4B"));
        if version != Checkpoint::VERSION {
            return Err(bad(format!(
                "checkpoint version {version} is not the supported {}",
                Checkpoint::VERSION
            )));
        }
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8B")) {
            return Err(bad("checkpoint checksum mismatch"));
        }
        let mut r = Reader(&body[8..]);

        let loss = match r.u8()? {
            0 => GlmLoss::Logistic,
            1 => GlmLoss::Hinge,
            2 => GlmLoss::Squared,
            other => return Err(bad(format!("unknown loss tag {other}"))),
        };
        let l2 = r.f64()?;
        if l2 < 0.0 {
            return Err(bad(format!("l2 must be non-negative, got {l2}")));
        }
        let dim = r.u64()?;
        let weights = r.f64s(dim)?;
        if weights.is_empty() {
            return Err(bad("checkpoint has an empty model"));
        }
        let dim = weights.len() / 8;

        let tag = r.u8()?;
        let sketched = tag > TAG_ADAM;
        let optimizer = match tag - 3 * u8::from(sketched) {
            TAG_SGD => {
                let lr = r.f64()?;
                in_range(Sgd::new(lr))?;
                OptFrame::Sgd(lr)
            }
            TAG_MOMENTUM => {
                let (lr, gamma) = r.momentum_head()?;
                OptFrame::Momentum(lr, gamma, r.store(sketched, dim, ("velocity", SEED_U))?)
            }
            TAG_ADAGRAD => {
                let (lr, epsilon) = r.adagrad_head()?;
                OptFrame::AdaGrad(lr, epsilon, r.store(sketched, dim, ("accum", SEED_G))?)
            }
            TAG_ADAM => {
                let (config, t) = r.adam_head()?;
                let m = r.store(sketched, dim, ("m", SEED_M))?;
                OptFrame::Adam(config, t, m, r.store(sketched, dim, ("v", SEED_V))?)
            }
            _ => return Err(bad(format!("unknown optimizer tag {tag}"))),
        };
        let epochs_done =
            usize::try_from(r.u64()?).map_err(|_| bad("epochs_done does not fit this platform"))?;
        if !r.0.is_empty() {
            return Err(bad(format!(
                "{} trailing bytes after the checkpoint",
                r.0.len()
            )));
        }
        Ok(Frame {
            loss,
            l2,
            weights,
            optimizer,
            epochs_done,
        })
    }

    fn build(&self) -> Result<Checkpoint, MlError> {
        let optimizer = match &self.optimizer {
            OptFrame::Sgd(lr) => OptimizerState::Sgd(Sgd { lr: *lr }),
            OptFrame::Momentum(lr, gamma, velocity) => OptimizerState::Momentum(Momentum {
                lr: *lr,
                gamma: *gamma,
                velocity: velocity.build()?,
            }),
            OptFrame::AdaGrad(lr, epsilon, accum) => OptimizerState::AdaGrad(AdaGrad {
                lr: *lr,
                epsilon: *epsilon,
                accum: accum.build()?,
            }),
            OptFrame::Adam(config, t, m, v) => OptimizerState::Adam(Adam {
                config: *config,
                m: m.build()?,
                v: v.build()?,
                t: *t,
            }),
        };
        Ok(Checkpoint {
            model: GlmModel {
                weights: floats(self.weights),
                loss: self.loss,
                l2: self.l2,
            },
            optimizer,
            epochs_done: self.epochs_done,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::GlmLoss;
    use crate::optimizer::OptimizerKind;
    use crate::vector::{Instance, SparseVector};

    fn toy() -> Vec<Instance> {
        (0..100)
            .map(|i| {
                let x = (i as f64 / 50.0) - 1.0;
                Instance::new(
                    SparseVector::new(vec![0], vec![x]).unwrap(),
                    if x > 0.1 { 1.0 } else { -1.0 },
                )
            })
            .collect()
    }

    #[test]
    fn resume_is_bitwise_identical_to_uninterrupted_run() {
        let data = toy();
        let total = 40;
        let split = 17;

        // Uninterrupted run.
        let mut m1 = GlmModel::new(1, GlmLoss::Logistic, 0.01).unwrap();
        let mut o1: OptimizerState = Adam::new(1, AdamConfig::with_lr(0.05)).unwrap().into();
        for _ in 0..total {
            let g = m1.batch_gradient(&data);
            m1.apply_gradient(&mut o1, &g.keys, &g.values);
        }

        // Interrupted at `split`, checkpointed, resumed.
        let mut m2 = GlmModel::new(1, GlmLoss::Logistic, 0.01).unwrap();
        let mut o2: OptimizerState = Adam::new(1, AdamConfig::with_lr(0.05)).unwrap().into();
        for _ in 0..split {
            let g = m2.batch_gradient(&data);
            m2.apply_gradient(&mut o2, &g.keys, &g.values);
        }
        let buf = Checkpoint::new(m2, o2, split).to_bytes().unwrap();
        let ck = Checkpoint::from_bytes(&buf).unwrap();
        assert_eq!(ck.epochs_done, split);
        let (mut m2, mut o2) = (ck.model, ck.optimizer);
        for _ in split..total {
            let g = m2.batch_gradient(&data);
            m2.apply_gradient(&mut o2, &g.keys, &g.values);
        }

        assert_eq!(m1.weights, m2.weights, "resume must be exact");
        assert_eq!(o1.as_adam().unwrap().steps(), o2.as_adam().unwrap().steps());
    }

    #[test]
    fn every_kind_and_mode_roundtrips_bit_exact() {
        let data = toy();
        for kind in [
            OptimizerKind::Sgd(0.05),
            OptimizerKind::Momentum(0.05, 0.9),
            OptimizerKind::AdaGrad(0.1, 1e-8),
            OptimizerKind::Adam(AdamConfig::with_lr(0.05)),
        ] {
            for mode in [OptStateMode::Dense, OptStateMode::sketched(3, 512)] {
                let mut model = GlmModel::new(1, GlmLoss::Logistic, 0.01).unwrap();
                let mut opt = OptimizerState::build(kind, mode, 1).unwrap();
                for _ in 0..10 {
                    let g = model.batch_gradient(&data);
                    model.apply_gradient(&mut opt, &g.keys, &g.values);
                }
                let buf = Checkpoint::new(model.clone(), opt.clone(), 10)
                    .to_bytes()
                    .unwrap();
                assert_eq!(buf.len(), Checkpoint::encoded_len(&model, &opt));
                Checkpoint::validate(&buf).unwrap();
                let ck = Checkpoint::from_bytes(&buf).unwrap();
                assert_eq!(ck.epochs_done, 10);
                // Every stored bit comes back: the reload encodes to the
                // same frame, and the borrowed writer is the owned one.
                assert_eq!(ck.to_bytes().unwrap(), buf, "{} {mode:?}", kind.name());
                let mut borrowed = vec![0xEE];
                Checkpoint::write_parts(&model, &opt, 10, &mut borrowed);
                assert_eq!(borrowed[1..], buf[..], "write_parts appends the frame");
                let (mut ma, mut oa) = (model, opt);
                let (mut mb, mut ob) = (ck.model, ck.optimizer);
                for _ in 0..10 {
                    let g = ma.batch_gradient(&data);
                    ma.apply_gradient(&mut oa, &g.keys, &g.values);
                    let g = mb.batch_gradient(&data);
                    mb.apply_gradient(&mut ob, &g.keys, &g.values);
                }
                assert_eq!(
                    ma.weights,
                    mb.weights,
                    "{} {mode:?} resume must be exact",
                    kind.name()
                );
            }
        }
    }

    /// The frames the hostile-input tests start from: one dense, one
    /// sketched, small enough to flip every bit.
    fn small_frames() -> Vec<Vec<u8>> {
        let model = GlmModel::new(3, GlmLoss::Hinge, 0.5).unwrap();
        [OptStateMode::Dense, OptStateMode::sketched(2, 4)]
            .into_iter()
            .map(|mode| {
                let mut opt =
                    OptimizerState::build(OptimizerKind::Adam(AdamConfig::default()), mode, 3)
                        .unwrap();
                let mut model = model.clone();
                model.apply_gradient(&mut opt, &[0, 2], &[0.5, -0.25]);
                Checkpoint::new(model, opt, 7).to_bytes().unwrap()
            })
            .collect()
    }

    /// Overwrites `frame[at..]`'s first bytes and re-seals the checksum, so
    /// the structural checks — not the checksum — have to catch the forgery.
    fn forge(frame: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
        let mut f = frame[..frame.len() - 8].to_vec();
        f[at..at + with.len()].copy_from_slice(with);
        let sum = checksum(&f);
        f.extend_from_slice(&sum.to_le_bytes());
        f
    }

    fn rejected(bytes: &[u8]) -> String {
        let by_validate = Checkpoint::validate(bytes).unwrap_err();
        let by_load = Checkpoint::from_bytes(bytes).unwrap_err();
        assert!(matches!(by_validate, MlError::InvalidInput(_)));
        assert!(matches!(by_load, MlError::InvalidInput(_)));
        by_validate.to_string()
    }

    #[test]
    fn rejects_future_versions_and_garbage() {
        let frame = &small_frames()[0];
        let mut future = frame.clone();
        future[4..8].copy_from_slice(&999u32.to_le_bytes());
        assert!(rejected(&future).contains("version 999"));
        // The JSON documents of v1 (a bare Adam object) and v2 (a tagged
        // state) are not frames, whatever version they claim.
        for json in [
            r#"{"version":1,"model":{"weights":[0.5],"loss":"Hinge","l2":0.0},
                "optimizer":{"config":{"lr":0.05,"beta1":0.9,"beta2":0.999,"epsilon":1e-8},
                "m":[0.1],"v":[0.01],"t":7},"epochs_done":3}"#,
            r#"{"version":2,"model":{"weights":[0.5],"loss":"Hinge","l2":0.0},
                "optimizer":{"Sgd":{"lr":0.1}},"epochs_done":0}"#,
        ] {
            assert!(rejected(json.as_bytes()).contains("bad magic"));
            assert!(Checkpoint::load(json.as_bytes()).is_err());
        }
        for garbage in [&b"not json"[..], b"{}", b""] {
            rejected(garbage);
        }
    }

    #[test]
    fn every_truncation_bit_flip_and_trailing_byte_is_a_typed_error() {
        for frame in small_frames() {
            Checkpoint::validate(&frame).unwrap();
            for cut in 0..frame.len() {
                rejected(&frame[..cut]);
            }
            for bit in 0..8 * frame.len() {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                rejected(&flipped);
            }
            let mut trailing = frame.clone();
            trailing.push(0);
            rejected(&trailing);
            // Sealed inside the checksum, a surplus byte is still surplus.
            let mut inside = frame[..frame.len() - 8].to_vec();
            inside.extend_from_slice(&[0; 9]);
            assert!(rejected(&forge(&inside, 0, &[])).contains("trailing"));
        }
    }

    #[test]
    fn forged_lengths_fail_before_anything_is_sized_by_them() {
        let frames = small_frames();
        let (dense, sketched) = (&frames[0], &frames[1]);
        // Offsets per the layout table: dim at 17; the optimizer section
        // follows the 3 weights.
        const DIM_AT: usize = 17;
        const OPT_AT: usize = DIM_AT + 8 + 3 * 8;
        const ADAM_HEAD: usize = 1 + 4 * 8 + 8;
        for huge in [u64::MAX, u64::MAX / 8, 1 << 40] {
            let msg = rejected(&forge(dense, DIM_AT, &huge.to_le_bytes()));
            assert!(msg.contains("declares"), "{msg}");
            // Dense moment vector: must equal the model's dim.
            let msg = rejected(&forge(dense, OPT_AT + ADAM_HEAD, &huge.to_le_bytes()));
            assert!(msg.contains("the model 3"), "{msg}");
        }
        // One weight too many fits the buffer and shifts what follows.
        rejected(&forge(dense, DIM_AT, &4u64.to_le_bytes()));
        assert!(rejected(&forge(dense, DIM_AT, &0u64.to_le_bytes())).contains("empty model"));
        // Sketch table shape: rows x cols.
        let rows_at = OPT_AT + ADAM_HEAD;
        for (rows, cols) in [
            (u64::MAX, u64::MAX),
            (1 << 32, 1 << 32),
            (64, u64::from(u32::MAX)),
            (65, 1),
            (0, 8),
            (2, 0),
        ] {
            let shape = [rows.to_le_bytes(), cols.to_le_bytes()].concat();
            let msg = rejected(&forge(sketched, rows_at, &shape));
            assert!(msg.contains("out of range"), "{rows}x{cols}: {msg}");
        }
        // In range, but more cells than bytes remain.
        let shape = [64u64.to_le_bytes(), (1u64 << 20).to_le_bytes()].concat();
        assert!(rejected(&forge(sketched, rows_at, &shape)).contains("declares"));
        // Unknown tags, out-of-range hyper-parameters.
        assert!(rejected(&forge(dense, 8, &[3])).contains("loss tag"));
        assert!(rejected(&forge(dense, OPT_AT, &[7])).contains("optimizer tag"));
        let msg = rejected(&forge(dense, OPT_AT + 1, &(-0.1f64).to_le_bytes()));
        assert!(msg.contains("lr must be positive"), "{msg}");
    }

    #[test]
    fn a_table_under_another_seed_is_refused() {
        // A table is hashed under its role's fixed seed; one under any other
        // would load, pass `spec()`, and step every key differently from its
        // peers. Offsets as above: the sketched frame's `m` table follows
        // the Adam head, its `v` table the 2 x 4 cells of `m`.
        const M_SEED_AT: usize = 17 + 8 + 3 * 8 + 1 + 4 * 8 + 8 + 16;
        const V_SEED_AT: usize = M_SEED_AT + 8 + 2 * 4 * 8 + 16;
        let sketched = &small_frames()[1];
        let seed_at = |at: usize| u64::from_le_bytes(sketched[at..at + 8].try_into().unwrap());
        assert_eq!((seed_at(M_SEED_AT), seed_at(V_SEED_AT)), (SEED_M, SEED_V));
        for (at, role, forged) in [
            (M_SEED_AT, "`m`", 12345u64),
            (M_SEED_AT, "`m`", SEED_V),
            (V_SEED_AT, "`v`", 12345),
        ] {
            let msg = rejected(&forge(sketched, at, &forged.to_le_bytes()));
            let fixed = if role == "`m`" { SEED_M } else { SEED_V };
            for needle in [role, &format!("{forged:#x}"), &format!("{fixed:#x}")] {
                assert!(msg.contains(needle), "{needle}: {msg}");
            }
        }
    }

    #[test]
    fn optimizer_state_shorter_than_the_model_is_rejected() {
        // Each of these used to load, then panic on the first `step`.
        let model = GlmModel::new(3, GlmLoss::Logistic, 0.0).unwrap();
        let short: [OptimizerState; 3] = [
            Momentum::new(2, 0.1, 0.9).unwrap().into(),
            AdaGrad::new(2, 0.1).unwrap().into(),
            Adam::new(2, AdamConfig::default()).unwrap().into(),
        ];
        for opt in short {
            let name = opt.name();
            let bytes = Checkpoint::new(model.clone(), opt, 0).to_bytes().unwrap();
            assert!(rejected(&bytes).contains("the model 3"), "{name}");
        }
    }
}
