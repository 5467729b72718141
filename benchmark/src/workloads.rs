//! The six workloads and the training task each one runs.
//!
//! Every workload trains (or compresses the gradients of) the same kind of
//! task the shipped `sketchml-serve` builds from its flags, so the
//! in-process workloads and the replay construct it exactly as the server
//! does: same dataset recipe, same `TrainSpec`, same batch schedule.

use sketchml_cluster::TrainSpec;
use sketchml_data::{SparseDatasetSpec, Task as DataTask};
use sketchml_ml::GlmLoss;

/// Bytes per second of a 100 Mbit/s link.
pub const LINK_100MBIT: f64 = 12.5e6;

/// Which driver runs the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One `sketchml-serve` child plus `workers` `sketchml-worker` children
    /// over a Unix socket; `throttled` puts the relay between them, and
    /// `predict` adds one closed-loop predict connection.
    Socket { throttled: bool, predict: bool },
    /// In-process compress + decompress of harvested worker gradients.
    Codec,
    /// In-process `train_allreduce_with_policy` over a ring.
    Allreduce,
}

/// One workload: a name that stays stable across PRs, the reason it exists,
/// and the task it runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name (`BENCHMARK.json` lists the same ones).
    pub name: &'static str,
    /// Driver.
    pub kind: Kind,
    /// Model dimension `d`.
    pub features: u32,
    /// Training workers.
    pub workers: usize,
    /// Registry name of the gradient codec.
    pub compressor: &'static str,
    /// Seconds one epoch of the task takes on the reference box, used to
    /// turn `--seconds` into a whole number of epochs: the work is fixed by
    /// the arguments, never by how fast this run happens to go.
    pub epoch_seconds: f64,
}

/// All workloads, in the order a full run interleaves them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "train_lan",
        kind: Kind::Socket {
            throttled: false,
            predict: false,
        },
        features: 1 << 18,
        workers: 2,
        compressor: "sketchml",
        epoch_seconds: 0.67,
    },
    Workload {
        name: "train_100mbit",
        kind: Kind::Socket {
            throttled: true,
            predict: false,
        },
        features: 1 << 17,
        workers: 2,
        compressor: "sketchml",
        epoch_seconds: 4.4,
    },
    Workload {
        name: "train_100mbit_raw",
        kind: Kind::Socket {
            throttled: true,
            predict: false,
        },
        features: 1 << 17,
        workers: 2,
        compressor: "raw",
        epoch_seconds: 5.0,
    },
    Workload {
        name: "serve_mixed",
        kind: Kind::Socket {
            throttled: false,
            predict: true,
        },
        features: 1 << 17,
        workers: 1,
        compressor: "sketchml",
        epoch_seconds: 0.5,
    },
    Workload {
        name: "codec_roundtrip",
        kind: Kind::Codec,
        features: 1 << 20,
        workers: 2,
        compressor: "sketchml",
        epoch_seconds: 0.0,
    },
    Workload {
        name: "allreduce_ring",
        kind: Kind::Allreduce,
        features: 1 << 17,
        workers: 4,
        compressor: "sketchml",
        epoch_seconds: 0.0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Full-size or smoke-size inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Dataset instances before the 75/25 split.
    pub instances: usize,
    /// Upper limit on `d`.
    pub max_features: u32,
}

impl Scale {
    /// The sizes every published number uses.
    pub const FULL: Scale = Scale {
        instances: 100_000,
        max_features: u32::MAX,
    };
    /// Tiny sizes for `--smoke`: checks only, no numbers.
    pub const SMOKE: Scale = Scale {
        instances: 4_000,
        max_features: 1 << 14,
    };
}

/// Average nonzeros per instance (`--avg-nnz`).
pub const AVG_NNZ: usize = 64;
/// Mini-batch share (`--batch-ratio`): 20 rounds per epoch, so the rounds
/// that end an epoch are 5 % of the samples and stay out of the p90.
pub const BATCH_RATIO: f64 = 0.05;
/// Rounds per epoch that follow from [`BATCH_RATIO`].
pub const ROUNDS_PER_EPOCH: usize = 20;
/// The best epoch's model must score below this on the test split. An
/// untrained logistic model scores ln 2 = 0.693. The loss after the last
/// epoch is no target: past the first epoch it wanders with the batch order
/// (0.55 to 0.71 over 30 epochs of one seed of `serve_mixed`).
pub const LOSS_CEILING: f64 = 0.68;

/// The training task of one run of a workload.
#[derive(Debug, Clone)]
pub struct Task {
    /// Model dimension.
    pub features: u32,
    /// Dataset instances.
    pub instances: usize,
    /// Training workers.
    pub workers: usize,
    /// Codec name.
    pub compressor: &'static str,
    /// Epochs to train.
    pub epochs: usize,
    /// The run's `--seed`.
    pub seed: u64,
}

impl Task {
    /// The task `workload` runs for `--seconds seconds` at `scale`.
    pub fn new(workload: &Workload, seed: u64, seconds: f64, scale: Scale) -> Task {
        let epochs = if workload.epoch_seconds > 0.0 && scale == Scale::FULL {
            ((seconds / workload.epoch_seconds).round() as usize).max(2)
        } else {
            2
        };
        Task {
            features: workload.features.min(scale.max_features),
            instances: scale.instances,
            workers: workload.workers,
            compressor: workload.compressor,
            epochs,
            seed,
        }
    }

    /// The dataset recipe, field for field what `sketchml-serve` builds from
    /// `--instances --features --avg-nnz --seed`.
    pub fn dataset(&self) -> SparseDatasetSpec {
        SparseDatasetSpec {
            name: "serve".into(),
            instances: self.instances,
            features: self.features,
            avg_nnz: AVG_NNZ,
            skew: 1.1,
            label_noise: 0.05,
            task: DataTask::Classification,
            seed: self.seed ^ 0xDA7A,
        }
    }

    /// The training protocol, as `sketchml-serve` sets it.
    pub fn train_spec(&self) -> TrainSpec {
        let mut spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, self.epochs);
        spec.seed = self.seed;
        spec
    }
}
