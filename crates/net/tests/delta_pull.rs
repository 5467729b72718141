//! Sparse model-delta pulls against an in-process [`Server`].
//!
//! The delta is lossless by construction (absolute values, assigned), so the
//! tests hold it to bit-equality: a replica advanced by deltas equals a
//! dense pull at every round — across an epoch end, a straggler-timeout
//! round, an empty round and a worker that fell two rounds behind — and a
//! run trains to the same bits as before deltas existed (the pinned values
//! come from the same test code on the commit before, pulling dense).

use sketchml_cluster::network::CostModel;
use sketchml_cluster::worker::{partition, process_glm_batch, WorkerScratch};
use sketchml_cluster::TrainSpec;
use sketchml_core::compressor_by_name;
use sketchml_data::{Batcher, SparseDatasetSpec, Task};
use sketchml_ml::{GlmLoss, GlmModel, Instance};
use sketchml_net::{
    run_worker, Client, ErrorCode, Listener, ModelView, NetError, PullKind, PushStatus, Request,
    Response, ServeSetup, Server, PROTOCOL_VERSION,
};
use std::io::{BufReader, BufWriter};

const DIM: usize = 512;
const ROUNDS_PER_EPOCH: u64 = 4;
const EPOCHS: usize = 3;

fn setup(workers: usize) -> ServeSetup {
    let dataset = SparseDatasetSpec {
        name: "delta".into(),
        instances: 600,
        features: DIM as u32,
        avg_nnz: 16,
        skew: 1.1,
        label_noise: 0.05,
        task: Task::Classification,
        seed: 0xD17A,
    };
    let mut spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, EPOCHS);
    spec.seed = 0x5EED;
    let mut setup = ServeSetup::new(dataset, spec, workers);
    setup.batch_ratio = 0.25;
    // Long against a healthy worker's round, so only the rounds a test
    // worker sits out on purpose are partial.
    setup.round_timeout_ms = 1_000;
    setup
}

fn start(setup: ServeSetup) -> (Server, String) {
    let server = Server::bind_tcp(setup, "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

/// Order-sensitive digest of the weights' bit patterns.
fn weights_digest(weights: &[f64]) -> u64 {
    weights.iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ w.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn stat(json: &str, key: &str) -> u64 {
    let v: serde::Value = serde_json::from_str(json).unwrap();
    let obj = v.as_obj().expect("stats is an object");
    serde::field(obj, key)
        .unwrap_or_else(|_| panic!("stats has no {key}: {json}"))
        .as_u64()
        .unwrap_or_else(|| panic!("{key} is not a count: {json}"))
}

/// A valid `sketchml` payload carrying `values` at `keys`.
fn sketchml_payload(keys: Vec<u64>, values: Vec<f64>) -> Vec<u8> {
    compressor_by_name("sketchml")
        .unwrap()
        .compress(&sketchml_core::SparseGradient::new(DIM as u64, keys, values).unwrap())
        .unwrap()
        .payload
        .to_vec()
}

#[track_caller]
fn assert_refused(pushed: Result<(PushStatus, u64), NetError>, what: &str) {
    let err = pushed.expect_err(what);
    assert!(
        matches!(
            err,
            NetError::Remote {
                code: ErrorCode::BadState,
                ..
            }
        ),
        "{what}: {err}"
    );
}

/// What a test worker does with a round instead of the usual push.
#[derive(Clone, Copy, PartialEq)]
enum Plan {
    Push,
    /// Pushes the gradient of no instances: nothing for the round to change.
    PushEmpty,
    /// Pushes nothing and moves on, as a straggler the timeout cut off.
    SitOut,
    /// Pushes nothing for this round or the next and only then pulls again:
    /// two rounds behind, one more than the retained delta covers.
    SitOutTwo,
}

fn plan(worker: u32, round: u64) -> Plan {
    match (worker, round) {
        (_, 2) => Plan::PushEmpty,
        (1, 5) => Plan::SitOut,
        (1, 8) => Plan::SitOutTwo,
        _ => Plan::Push,
    }
}

/// `run_worker`'s loop with the plan above, holding the delta-advanced
/// replica to a dense pull of the same round every time. Returns the kinds
/// of its pulls by the round they produced.
fn checked_worker(addr: &str, worker: u32) -> Vec<(u64, PullKind)> {
    let mut client = Client::connect(addr).unwrap();
    let setup = client.get_config().unwrap();
    let spec = setup.spec;
    let (train, _test) = setup.dataset.generate_split();
    let compressor = compressor_by_name(&setup.compressor).unwrap();
    let cost = CostModel::cluster1();
    let mut ws = WorkerScratch::new();
    let mut batcher = Batcher::new(train.len(), setup.batch_ratio, spec.seed);
    assert_eq!(batcher.batches_per_epoch() as u64, ROUNDS_PER_EPOCH);
    let mut batches = Vec::new();
    let mut model = GlmModel::new(DIM, spec.loss, spec.l2).unwrap();
    let mut kinds = Vec::new();

    let mut replica = client.pull_model(worker, 0, false).unwrap();
    let mut round = replica.round;
    assert_eq!(round, 0, "the test workers join before training starts");
    loop {
        let kind = client
            .pull_update(worker, &mut replica, round, true)
            .unwrap();
        kinds.push((replica.round, kind));
        // No round can close between the two pulls: it needs this worker's
        // push or a second of waiting for it.
        let dense = client.pull_model(worker, 0, false).unwrap();
        assert_eq!(dense.round, replica.round, "worker {worker}");
        assert_eq!(dense.weights.len(), replica.weights.len());
        for (k, (d, r)) in dense.weights.iter().zip(&replica.weights).enumerate() {
            assert_eq!(
                d.to_bits(),
                r.to_bits(),
                "worker {worker}, round {}, weight {k} after a {kind:?} pull",
                replica.round
            );
        }
        if replica.done {
            return kinds;
        }
        assert_eq!(replica.round, round, "worker {worker} was left behind");

        while batches.len() as u64 <= round {
            batches.extend(batcher.epoch());
        }
        let plan = plan(worker, round);
        match plan {
            Plan::SitOut => {
                round += 1;
                continue;
            }
            Plan::SitOutTwo => {
                round += 2;
                continue;
            }
            Plan::Push | Plan::PushEmpty => {}
        }
        let slice: Vec<Instance> = if plan == Plan::PushEmpty {
            Vec::new()
        } else {
            partition(&batches[round as usize], setup.workers)[worker as usize]
                .iter()
                .map(|&i| train[i].clone())
                .collect()
        };
        model.weights.clone_from(&replica.weights);
        let msg = process_glm_batch(&model, &slice, compressor.as_ref(), &cost, &mut ws).unwrap();
        let (status, _) = client
            .push_gradient(
                worker,
                round,
                msg.loss_sum,
                msg.instances as u64,
                msg.payload,
            )
            .unwrap();
        if status == PushStatus::Done {
            // The push for the round past the last one raced the summary.
            return kinds;
        }
        assert_eq!(
            status,
            PushStatus::Accepted,
            "worker {worker} round {round}"
        );
        round += 1;
    }
}

#[test]
fn delta_replica_equals_dense_pull_at_every_round() {
    let (server, addr) = start(setup(2));
    let workers: Vec<_> = (0..2u32)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || checked_worker(&addr, w))
        })
        .collect();
    let kinds: Vec<Vec<(u64, PullKind)>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let summary = server.wait_trained();
    let weights = server.store().snapshot().model.weights.clone();
    let stats = server.stats_json();
    server.shutdown();
    server.join();

    assert!(!summary.aborted, "{summary:?}");
    let rounds = ROUNDS_PER_EPOCH * EPOCHS as u64;
    assert_eq!(summary.rounds, rounds);
    // Rounds 5, 8 and 9 went without worker 1; round 2 was full but empty.
    assert_eq!(summary.partial_rounds, 3, "{summary:?}");

    // Worker 0 never misses a round: deltas all the way.
    assert!(
        kinds[0].iter().all(|&(_, k)| k == PullKind::Delta),
        "{:?}",
        kinds[0]
    );
    // Worker 1 comes back one round behind after round 5 (the retained
    // delta still fits) and two behind after rounds 8 and 9 (dense).
    let dense_at: Vec<u64> = kinds[1]
        .iter()
        .filter(|&&(_, k)| k == PullKind::Dense)
        .map(|&(r, _)| r)
        .collect();
    assert_eq!(dense_at, [10], "{:?}", kinds[1]);
    assert!(kinds[1].contains(&(6, PullKind::Delta)), "{:?}", kinds[1]);
    // Every round was pulled across, the epoch ends (4, 8, 12) included.
    for r in 1..=rounds {
        assert!(kinds[0].iter().any(|&(round, _)| round == r), "round {r}");
    }

    // Dense: two bootstraps, a checking pull beside every pull, one
    // fallback. Delta: everything else the workers' loops pulled.
    let loop_pulls = (kinds[0].len() + kinds[1].len()) as u64;
    assert_eq!(stat(&stats, "pulls_dense"), 2 + loop_pulls + 1);
    assert_eq!(stat(&stats, "pulls_delta"), loop_pulls - 1);
    assert_eq!(stat(&stats, "rejected_pushes"), 0);

    // The same plan on the commit before this one, pulling dense.
    assert_eq!(summary.best_test_loss.to_bits(), PLANNED_BEST_TEST_LOSS);
    assert_eq!(weights_digest(&weights), PLANNED_WEIGHTS_DIGEST);
}

const PLANNED_BEST_TEST_LOSS: u64 = 4603238599823719646;
const PLANNED_WEIGHTS_DIGEST: u64 = 9848514813569991728;

#[test]
fn run_worker_trains_to_the_same_bits_with_one_dense_pull_each() {
    let (server, addr) = start(setup(2));
    let workers: Vec<_> = (0..2u32)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, w))
        })
        .collect();
    let summary = server.wait_trained();
    let worker_stats: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().unwrap().unwrap())
        .collect();
    let weights = server.store().snapshot().model.weights.clone();
    let stats = Client::connect(&addr).unwrap().get_stats().unwrap();
    server.shutdown();
    server.join();

    assert!(!summary.aborted, "{summary:?}");
    assert_eq!(summary.full_rounds, summary.rounds, "{summary:?}");
    // `run_worker` against the commit before this one (dense pulls).
    assert_eq!(summary.best_test_loss.to_bits(), RUN_BEST_TEST_LOSS);
    assert_eq!(summary.final_test_loss.to_bits(), RUN_FINAL_TEST_LOSS);
    assert_eq!(weights_digest(&weights), RUN_WEIGHTS_DIGEST);

    let rounds = ROUNDS_PER_EPOCH * EPOCHS as u64;
    for s in &worker_stats {
        assert_eq!(s.pulls_dense, 1, "{s:?}");
        // One per round it computed on, and at least one that saw `done`.
        assert!(s.pulls_delta > rounds, "{s:?}");
    }
    assert_eq!(stat(&stats, "pulls_dense"), 2);
    assert_eq!(
        stat(&stats, "pulls_delta"),
        worker_stats.iter().map(|s| s.pulls_delta).sum::<u64>()
    );
    assert_eq!(
        stat(&stats, "pulls"),
        stat(&stats, "pulls_dense") + stat(&stats, "pulls_delta")
    );
    // A delta names the few weights a round moved; the dense frame all 512.
    let dense_frame = 6 + 17 + 8 * DIM as u64;
    assert!(stat(&stats, "bytes_down") > 2 * dense_frame);
    assert!(
        stat(&stats, "bytes_down") < 2 * dense_frame + stat(&stats, "pulls_delta") * dense_frame
    );
    assert!(stat(&stats, "bytes_up") > 0);
    assert_eq!(stat(&stats, "rejected_pushes"), 0);
}

const RUN_BEST_TEST_LOSS: u64 = 4603199782782044696;
const RUN_FINAL_TEST_LOSS: u64 = 4603257096073696514;
const RUN_WEIGHTS_DIGEST: u64 = 14171211438138006896;

#[test]
fn pushes_the_trainer_would_drop_are_refused_not_accepted() {
    let mut setup = setup(2);
    setup.idle_timeout_ms = 60_000;
    let (server, addr) = start(setup);
    let mut client = Client::connect(&addr).unwrap();
    let payload = sketchml_payload(vec![3], vec![0.5]);
    // More than the push queue holds (4 x workers): were they queued, the
    // later ones would be answered `Backpressure`.
    for i in 0..20u64 {
        for (worker, round) in [(0, 1 + i), (2, 0), (u32::MAX, 0)] {
            assert_refused(
                client.push_gradient(worker, round, 0.25, 1, payload.clone()),
                &format!("worker {worker} round {round}"),
            );
        }
    }
    let stats = client.get_stats().unwrap();
    assert_eq!(stat(&stats, "rejected_pushes"), 60);
    assert_eq!(stat(&stats, "pushes"), 0);
    assert_eq!(stat(&stats, "backpressure_rejects"), 0);
    assert_eq!(stat(&stats, "round"), 0);
    // A replica round from nowhere is not the base of anything: dense.
    let reply = client
        .call(&Request::PullDelta {
            worker: 0,
            have_round: u64::MAX,
            round: 0,
            wait: false,
        })
        .unwrap();
    assert!(
        matches!(reply, Response::Model { round: 0, .. }),
        "{reply:?}"
    );
    // The connection and the queue are as good as new: a push that can
    // count is taken.
    let (status, _) = client.push_gradient(1, 0, 0.25, 1, payload).unwrap();
    assert_eq!(status, PushStatus::Accepted);
    assert_eq!(stat(&client.get_stats().unwrap(), "pushes"), 1);
    server.shutdown();
    assert!(server.join().aborted);
}

/// `instances` and `loss_sum` are a peer's claims, and the trainer weights
/// the whole round by them: `u64::MAX` instances used to overflow the
/// round's total (a panicked trainer in a debug build, `wait_trained` never
/// returning; a wrapped sum and a part scaled by 2.5e17 in a release one).
#[test]
fn a_push_with_forged_instances_or_loss_is_refused_and_the_run_completes() {
    let mut setup = setup(2);
    setup.spec.max_epochs = 1;
    // Worker 1 never lands a push: every round closes on the timeout.
    setup.round_timeout_ms = 50;
    setup.idle_timeout_ms = 60_000;
    let (server, addr) = start(setup);
    let mut client = Client::connect(&addr).unwrap();
    let payload = sketchml_payload(vec![3, 70, 400], vec![0.5, -0.25, 0.1]);
    let refused = |client: &mut Client, loss_sum: f64, instances: u64| {
        assert_refused(
            client.push_gradient(1, 0, loss_sum, instances, payload.clone()),
            &format!("loss_sum {loss_sum} instances {instances}"),
        );
    };

    let (status, _) = client
        .push_gradient(0, 0, 30.0, 75, payload.clone())
        .unwrap();
    assert_eq!(status, PushStatus::Accepted);
    refused(&mut client, 30.0, u64::MAX);
    assert_eq!(stat(&client.get_stats().unwrap(), "rejected_pushes"), 1);
    // One more than the whole dataset (no slice is larger), and losses no
    // finite batch sums to.
    refused(&mut client, 30.0, 601);
    refused(&mut client, f64::NAN, 75);
    refused(&mut client, f64::INFINITY, 75);
    assert_eq!(stat(&client.get_stats().unwrap(), "rejected_pushes"), 4);
    assert_eq!(stat(&client.get_stats().unwrap(), "pushes"), 1);

    // The round closes on worker 0's push alone, and so do the rest.
    for round in 1..=ROUNDS_PER_EPOCH {
        let view = client.pull_model(0, round, true).unwrap();
        assert_eq!(view.round, round, "the trainer is alive");
        if round < ROUNDS_PER_EPOCH {
            let (status, _) = client
                .push_gradient(0, round, 30.0, 75, payload.clone())
                .unwrap();
            assert_eq!(status, PushStatus::Accepted, "round {round}");
        }
    }
    let summary = server.wait_trained();
    server.shutdown();
    server.join();
    assert!(!summary.aborted, "{summary:?}");
    assert_eq!(summary.rounds, ROUNDS_PER_EPOCH);
    assert_eq!(summary.partial_rounds, ROUNDS_PER_EPOCH, "{summary:?}");
    assert!(summary.final_test_loss.is_finite(), "{summary:?}");
}

/// A one-connection server that answers `Hello`, then each request with the
/// next scripted frame, and returns the requests it saw.
fn scripted_server(replies: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<Vec<Request>>) {
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_desc();
    let handle = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let mut writer = BufWriter::new(conn.try_clone().unwrap());
        let mut reader = BufReader::new(conn);
        assert!(matches!(
            Request::read_from(&mut reader).unwrap(),
            Request::Hello { .. }
        ));
        Response::HelloAck {
            version: PROTOCOL_VERSION,
        }
        .write_to(&mut writer)
        .unwrap();
        let mut seen = Vec::new();
        for reply in replies {
            seen.push(Request::read_from(&mut reader).unwrap());
            std::io::Write::write_all(&mut writer, &reply).unwrap();
            std::io::Write::flush(&mut writer).unwrap();
        }
        seen
    });
    (addr, handle)
}

fn frame(response: Response) -> Vec<u8> {
    let mut frame = Vec::new();
    response.write_to(&mut frame).unwrap();
    frame
}

/// A delta that assigns `weights[k]` to each of `keys`.
fn delta_frame(base_round: u64, round: u64, keys: &[u64], weights: &[f64]) -> Vec<u8> {
    frame(Response::ModelDelta {
        base_round,
        round,
        epoch: 0,
        done: false,
        keys: keys.to_vec(),
        values: keys.iter().map(|&k| weights[k as usize]).collect(),
    })
}

#[test]
fn a_delta_that_does_not_fit_the_replica_never_touches_it() {
    let server_weights = [0.0, 1.5, 0.0, -2.5, 0.0, 0.0, 0.0, 9.0];
    let dense = frame(Response::Model {
        round: 7,
        epoch: 1,
        done: false,
        weights: server_weights.to_vec(),
    });
    let (addr, server) = scripted_server(vec![
        // Right base, but weight 7 of a 4-weight replica.
        delta_frame(3, 4, &[1, 7], &server_weights),
        // Fits, but starts from a round the replica is not at...
        delta_frame(2, 4, &[1, 3], &server_weights),
        // ...so the client asks for the dense model instead.
        dense,
        // Right base and in range: assigned.
        delta_frame(7, 8, &[1, 3], &[0.0, -1.0, 0.0, 4.0]),
    ]);
    let mut client = Client::connect(&addr).unwrap();
    let mut replica = ModelView {
        round: 3,
        epoch: 0,
        done: false,
        weights: vec![0.25; 4],
    };

    let err = client.pull_update(0, &mut replica, 4, true).unwrap_err();
    assert!(matches!(err, NetError::Protocol(_)), "{err}");
    assert_eq!((replica.round, &replica.weights), (3, &vec![0.25; 4]));

    let kind = client.pull_update(0, &mut replica, 4, true).unwrap();
    assert_eq!(kind, PullKind::Dense);
    assert_eq!((replica.round, replica.epoch), (7, 1));
    assert_eq!(replica.weights, server_weights);

    let kind = client.pull_update(0, &mut replica, 8, true).unwrap();
    assert_eq!(kind, PullKind::Delta);
    assert_eq!(replica.round, 8);
    assert_eq!(
        replica.weights,
        [0.0, -1.0, 0.0, 4.0, 0.0, 0.0, 0.0, 9.0],
        "assigned, not added"
    );

    let seen = server.join().unwrap();
    let have = |r: &Request| match r {
        Request::PullDelta { have_round, .. } => Some(*have_round),
        _ => None,
    };
    assert_eq!(have(&seen[0]), Some(3));
    assert_eq!(have(&seen[1]), Some(3));
    assert!(matches!(
        seen[2],
        Request::PullModel {
            round: 4,
            wait: false,
            ..
        }
    ));
    assert_eq!(have(&seen[3]), Some(7));
}
