//! The replica contract, against an in-process [`Server`].
//!
//! The downlink carries a round's codec frames, not weights: every worker
//! steps its own copy of model and optimizer from them. The copy is exact by
//! construction (same decode, same `driver::combine`, same `apply_gradient`,
//! same member order), so the tests hold it to bit-equality: a replica equals
//! a dense pull at every round — across epoch ends, an empty round, a
//! straggler-timeout round and a restore from the live state — for every
//! codec and worker count, and a run trains to pinned bits. The pins came
//! from the same plans on the commits that pulled dense, then deltas, and
//! were re-pinned when the `sketchml` frame moved to one sketch row and
//! ⌊n/64⌋ exact pairs, which changes what every replica decodes.

use sketchml_cluster::network::CostModel;
use sketchml_cluster::worker::{partition, process_glm_batch, WorkerScratch};
use sketchml_cluster::TrainSpec;
use sketchml_core::{compressor_by_name, SparseGradient};
use sketchml_data::{Batcher, SparseDatasetSpec, Task};
use sketchml_ml::{
    Checkpoint, GlmLoss, GlmModel, Instance, OptimizerKind, OptimizerState, SparseVector,
};
use sketchml_net::{
    run_worker, Client, ErrorCode, Listener, NetError, PredictInstance, Pulled, PushStatus,
    Replica, Request, Response, RoundMember, ServeSetup, Server, PROTOCOL_VERSION,
};
use std::io::{BufReader, BufWriter};

const DIM: usize = 512;
const ROUNDS_PER_EPOCH: u64 = 4;
const EPOCHS: usize = 3;
const ROUNDS: u64 = ROUNDS_PER_EPOCH * EPOCHS as u64;

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

/// A valid `sketchml` payload carrying `values` at `keys` of a `dim`-model.
fn sketchml_payload(dim: usize, keys: Vec<u64>, values: Vec<f64>) -> Vec<u8> {
    compressor_by_name("sketchml")
        .unwrap()
        .compress(&SparseGradient::new(dim as u64, keys, values).unwrap())
        .unwrap()
        .payload
        .to_vec()
}

/// Model and optimizer as one v3 frame: equal bytes, equal bits of both.
fn state_bytes(model: &GlmModel, optimizer: &OptimizerState) -> Vec<u8> {
    let mut bytes = Vec::new();
    Checkpoint::write_parts(model, optimizer, 0, &mut bytes);
    bytes
}

fn replica_bytes(replica: &Replica) -> Vec<u8> {
    state_bytes(replica.model(), replica.optimizer())
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
    /// Pushes nothing and waits for the round to close without it, as a
    /// straggler the timeout cut off.
    SitOut,
    /// Pushes nothing for this round or the next and only then pulls again:
    /// two rounds behind, one more than the server keeps frames for.
    SitOutTwo,
}

fn everyone_pushes(_worker: u32, _round: u64) -> Plan {
    Plan::Push
}

fn straggler_plan(worker: u32, round: u64) -> Plan {
    match (worker, round) {
        (_, 2) => Plan::PushEmpty,
        (1, 5) => Plan::SitOut,
        (1, 8) => Plan::SitOutTwo,
        _ => Plan::Push,
    }
}

/// `run_worker`'s loop on the public [`Client`], with a plan, holding the
/// replica to a waiting dense pull of the same round every time it moves.
/// Returns what each pull did, by the round it left the replica at, and the
/// replica's final state.
fn checked_worker(
    addr: &str,
    worker: u32,
    plan: fn(u32, u64) -> Plan,
) -> (Vec<(u64, Pulled)>, Vec<u8>) {
    let mut client = Client::connect(addr).unwrap();
    let mut monitor = Client::connect(addr).unwrap();
    let setup = client.get_config().unwrap();
    let (train, _test) = setup.dataset.generate_split();
    let compressor = compressor_by_name(&setup.compressor).unwrap();
    let cost = CostModel::cluster1();
    let mut ws = WorkerScratch::new();
    let mut batcher = Batcher::new(train.len(), setup.batch_ratio, setup.spec.seed);
    assert_eq!(batcher.batches_per_epoch() as u64, ROUNDS_PER_EPOCH);
    let mut batches = Vec::new();
    let mut replica = Replica::new(&setup).unwrap();
    let mut pulls = Vec::new();
    let mut pushed: Option<(Vec<u8>, u64)> = None;

    loop {
        let own = pushed.as_ref().map(|(frame, n)| (frame.as_slice(), *n));
        // Without a push of its own in flight the worker still waits when it
        // sits a round out: that is how it learns the round closed.
        let wait = pushed.is_some() || plan(worker, replica.round()) == Plan::SitOut;
        let before = replica.round();
        let pulled = client
            .pull_round(worker, &mut replica, own, wait)
            .unwrap_or_else(|e| panic!("worker {worker} at round {before}: {e}"));
        pulls.push((replica.round(), pulled));
        match pulled {
            Pulled::Round { listed } => {
                assert_eq!(replica.round(), before + 1);
                assert_eq!(listed, pushed.take().is_some(), "worker {worker}");
            }
            Pulled::State => {
                assert!(replica.round() > before + 1, "worker {worker}");
                assert!(pushed.is_none());
            }
            Pulled::Nothing => assert_eq!(replica.round(), before),
        }
        if replica.round() != before {
            // No round can close between the two pulls: it needs this
            // worker's push or a second of waiting for it.
            let dense = monitor.pull_model(worker, replica.round(), true).unwrap();
            assert_eq!(dense.round, replica.round(), "worker {worker}");
            let weights = &replica.model().weights;
            assert_eq!(dense.weights.len(), weights.len());
            for (k, (d, r)) in dense.weights.iter().zip(weights).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    r.to_bits(),
                    "worker {worker}, round {}, weight {k} after {pulled:?}",
                    replica.round()
                );
            }
        }
        if replica.done() {
            return (pulls, replica_bytes(&replica));
        }
        if pulled == Pulled::State || (pulled == Pulled::Nothing && wait) {
            continue;
        }

        let round = replica.round();
        while batches.len() as u64 <= round {
            batches.extend(batcher.epoch());
        }
        let plan = plan(worker, round);
        match plan {
            Plan::SitOut => continue,
            Plan::SitOutTwo => {
                // Until the published model has both rounds baked in.
                monitor.pull_model(worker, round + 2, true).unwrap();
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
        let msg = process_glm_batch(replica.model(), &slice, compressor.as_ref(), &cost, &mut ws)
            .unwrap();
        let instances = msg.instances as u64;
        let (status, _) = client
            .push_gradient(worker, round, msg.loss_sum, instances, msg.payload.clone())
            .unwrap();
        assert_eq!(
            status,
            PushStatus::Accepted,
            "worker {worker} round {round}"
        );
        pushed = Some((msg.payload, instances));
    }
}

/// The server's final model and optimizer, from the checkpoint it serves.
fn final_state(addr: &str) -> Vec<u8> {
    let (epochs, blob) = Client::connect(addr).unwrap().get_checkpoint().unwrap();
    assert_eq!(epochs, EPOCHS as u64);
    let ck = Checkpoint::from_bytes(&blob).unwrap();
    state_bytes(&ck.model, &ck.optimizer)
}

#[test]
fn replica_equals_dense_pull_at_every_round_for_every_codec_and_worker_count() {
    for codec in ["sketchml", "raw", "zipml"] {
        for workers in [1usize, 2, 4] {
            let mut setup = setup(workers);
            setup.compressor = codec.into();
            // No round may close without everyone, however slow this host.
            setup.round_timeout_ms = 60_000;
            let (server, addr) = start(setup);
            let handles: Vec<_> = (0..workers as u32)
                .map(|w| {
                    let addr = addr.clone();
                    std::thread::spawn(move || checked_worker(&addr, w, everyone_pushes))
                })
                .collect();
            let runs: Vec<_> = handles.into_iter().map(|w| w.join().unwrap()).collect();
            let summary = server.wait_trained();
            let served = final_state(&addr);
            let stats = server.stats_json();
            server.shutdown();
            server.join();

            let what = format!("{codec} x {workers}");
            assert!(!summary.aborted, "{what}: {summary:?}");
            assert_eq!(
                (summary.rounds, summary.full_rounds),
                (ROUNDS, ROUNDS),
                "{what}"
            );
            for (worker, (pulls, state)) in runs.iter().enumerate() {
                // Every round was stepped across, the epoch ends included,
                // and none by anything but its frames.
                let stepped: Vec<u64> = pulls
                    .iter()
                    .filter(|(_, p)| *p == Pulled::Round { listed: true })
                    .map(|&(r, _)| r)
                    .collect();
                assert_eq!(
                    stepped,
                    (1..=ROUNDS).collect::<Vec<_>>(),
                    "{what}: {pulls:?}"
                );
                assert!(
                    pulls.iter().all(|(_, p)| *p != Pulled::State),
                    "{what}: {pulls:?}"
                );
                // Model *and* optimizer, bit for bit.
                assert!(
                    *state == served,
                    "{what}: worker {worker} ended on another state"
                );
            }
            // The only dense pulls are the checking ones, one per step.
            assert_eq!(
                stat(&stats, "pulls_dense"),
                workers as u64 * ROUNDS,
                "{what}"
            );
            assert_eq!(stat(&stats, "pulls_state"), 0, "{what}");
            assert_eq!(stat(&stats, "rejected_pushes"), 0, "{what}");
        }
    }
}

#[test]
fn a_straggler_steps_from_frames_that_do_not_list_it_or_restores_the_live_state() {
    let (server, addr) = start(setup(2));
    let handles: Vec<_> = (0..2u32)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || checked_worker(&addr, w, straggler_plan))
        })
        .collect();
    let runs: Vec<_> = handles.into_iter().map(|w| w.join().unwrap()).collect();
    let summary = server.wait_trained();
    let weights = server.store().snapshot().model.weights.clone();
    let served = final_state(&addr);
    let stats = server.stats_json();
    server.shutdown();
    server.join();

    assert!(!summary.aborted, "{summary:?}");
    assert_eq!(summary.rounds, ROUNDS);
    // Rounds 5, 8 and 9 went without worker 1; round 2 was full but empty.
    assert_eq!(summary.partial_rounds, 3, "{summary:?}");

    // Worker 0 never misses a round: its own frame and the other's (or its
    // own alone) all the way.
    let (pulls0, state0) = &runs[0];
    for r in 1..=ROUNDS {
        assert!(
            pulls0.contains(&(r, Pulled::Round { listed: true })),
            "round {r}: {pulls0:?}"
        );
    }
    assert!(
        pulls0.iter().all(|(_, p)| *p != Pulled::State),
        "{pulls0:?}"
    );
    // Worker 1 sits round 5 out: the frames of round 6 do not list it, and
    // they are all it needs. It sits 8 and 9 out: the server kept the frames
    // of round 10 only, so it is sent the live state — in the middle of the
    // third epoch — and its next push (checked in the worker) is accepted.
    let (pulls1, state1) = &runs[1];
    let unlisted: Vec<u64> = pulls1
        .iter()
        .filter(|(_, p)| *p == Pulled::Round { listed: false })
        .map(|&(r, _)| r)
        .collect();
    assert_eq!(unlisted, [6], "{pulls1:?}");
    let restored: Vec<u64> = pulls1
        .iter()
        .filter(|(_, p)| *p == Pulled::State)
        .map(|&(r, _)| r)
        .collect();
    assert_eq!(restored, [10], "{pulls1:?}");
    assert!(
        pulls1.contains(&(11, Pulled::Round { listed: true })),
        "{pulls1:?}"
    );
    assert!(*state0 == served && *state1 == served);

    assert_eq!(stat(&stats, "pulls_state"), 1);
    assert_eq!(stat(&stats, "rejected_pushes"), 0);
    assert_eq!(
        stat(&stats, "pulls"),
        stat(&stats, "pulls_dense") + stat(&stats, "pulls_round") + stat(&stats, "pulls_state")
    );

    // The same plan at its pins (see the module doc).
    assert_eq!(summary.best_test_loss.to_bits(), PLANNED_BEST_TEST_LOSS);
    assert_eq!(weights_digest(&weights), PLANNED_WEIGHTS_DIGEST);
}

const PLANNED_BEST_TEST_LOSS: u64 = 4603250461193276239;
const PLANNED_WEIGHTS_DIGEST: u64 = 14091242379709340307;

#[test]
fn run_worker_trains_to_the_same_bits_and_no_weights_cross_the_wire() {
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
    // An inference client scores against the trained model: scores, not
    // weights, come back, and `GetStats` counts every call.
    const PREDICTS: u64 = 5;
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..PREDICTS {
        let batch = vec![PredictInstance {
            indices: vec![3, 64, DIM as u32 - 1],
            values: vec![1.0, -0.5, 2.0],
        }];
        assert_eq!(client.predict(batch).unwrap().len(), 1);
    }
    let stats = client.get_stats().unwrap();
    server.shutdown();
    server.join();

    assert!(!summary.aborted, "{summary:?}");
    assert_eq!(summary.full_rounds, summary.rounds, "{summary:?}");
    // `run_worker` at its pins (see the module doc).
    assert_eq!(summary.best_test_loss.to_bits(), RUN_BEST_TEST_LOSS);
    assert_eq!(summary.final_test_loss.to_bits(), RUN_FINAL_TEST_LOSS);
    assert_eq!(weights_digest(&weights), RUN_WEIGHTS_DIGEST);

    for s in &worker_stats {
        assert_eq!(s.pulls_state, 0, "{s:?}");
        // The look before the first push, then one per round.
        assert_eq!(s.pulls_round, 1 + ROUNDS, "{s:?}");
        assert_eq!(
            (s.pushes_accepted, s.pushes_stale, s.pushes_dropped),
            (ROUNDS, 0, 0),
            "{s:?}"
        );
        assert_eq!(s.final_round, ROUNDS, "{s:?}");
    }
    // Nobody asked for weights, or for the state.
    assert_eq!(stat(&stats, "pulls_dense"), 0);
    assert_eq!(stat(&stats, "pulls_state"), 0);
    assert_eq!(stat(&stats, "pulls_round"), 2 * (1 + ROUNDS));
    assert_eq!(stat(&stats, "pulls"), stat(&stats, "pulls_round"));
    // Each worker is sent the other's frame and a 31-byte head per member
    // and reply: what comes down is what went up, not a dense frame a round.
    let (up, down) = (stat(&stats, "bytes_up"), stat(&stats, "bytes_down"));
    assert!(up > 0 && down < up + 2 * (1 + ROUNDS) * 64, "{stats}");
    assert_eq!(stat(&stats, "rejected_pushes"), 0);
    assert_eq!(stat(&stats, "predicts"), PREDICTS);
}

const RUN_BEST_TEST_LOSS: u64 = 4603283796193224730;
const RUN_FINAL_TEST_LOSS: u64 = 4603372665836189251;
const RUN_WEIGHTS_DIGEST: u64 = 5211135461888410990;

#[test]
fn pushes_the_trainer_would_drop_are_refused_not_accepted() {
    let mut setup = setup(2);
    setup.idle_timeout_ms = 60_000;
    let (server, addr) = start(setup);
    let mut client = Client::connect(&addr).unwrap();
    let payload = sketchml_payload(DIM, vec![3], vec![0.5]);
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
    assert_eq!(stat(&stats, "round"), 0);
    // A replica round from nowhere is not the base of anything: the state.
    let reply = client
        .call(&Request::PullRound {
            worker: 0,
            have_round: u64::MAX,
            wait: false,
        })
        .unwrap();
    assert!(
        matches!(reply, Response::State { round: 0, .. }),
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

/// What a worker whose rounds may close without it at any moment did.
struct Raced {
    attempted: u64,
    accepted: u64,
    stale: u64,
    dropped: u64,
    state: Vec<u8>,
}

/// `run_worker`'s loop on the public [`Client`], carried on past a `Done`
/// ack until the replica is level with the finished run.
fn racing_worker(addr: &str, worker: u32) -> Raced {
    let mut client = Client::connect(addr).unwrap();
    let setup = client.get_config().unwrap();
    let (train, _test) = setup.dataset.generate_split();
    let compressor = compressor_by_name(&setup.compressor).unwrap();
    let cost = CostModel::cluster1();
    let mut ws = WorkerScratch::new();
    let mut batcher = Batcher::new(train.len(), setup.batch_ratio, setup.spec.seed);
    let mut batches = Vec::new();
    let mut replica = Replica::new(&setup).unwrap();
    let mut pushed: Option<(Vec<u8>, u64)> = None;
    let (mut attempted, mut accepted, mut stale, mut dropped) = (0, 0, 0, 0);
    loop {
        let own = pushed.as_ref().map(|(frame, n)| (frame.as_slice(), *n));
        let wait = pushed.is_some();
        match client.pull_round(worker, &mut replica, own, wait).unwrap() {
            Pulled::Round { listed } => {
                if pushed.take().is_some() && !listed {
                    dropped += 1;
                }
            }
            Pulled::State => {
                pushed = None;
                continue;
            }
            Pulled::Nothing if wait && !replica.done() => continue,
            Pulled::Nothing => {}
        }
        if replica.done() {
            let state = replica_bytes(&replica);
            return Raced {
                attempted,
                accepted,
                stale,
                dropped,
                state,
            };
        }
        let round = replica.round();
        while batches.len() as u64 <= round {
            batches.extend(batcher.epoch());
        }
        let slice: Vec<Instance> = partition(&batches[round as usize], setup.workers)
            [worker as usize]
            .iter()
            .map(|&i| train[i].clone())
            .collect();
        let msg = process_glm_batch(replica.model(), &slice, compressor.as_ref(), &cost, &mut ws)
            .unwrap();
        let instances = msg.instances as u64;
        // Up to 2 ms late, differently every round and worker: pushes land
        // on both sides of the 1 ms window's edge.
        let late = (round * 3 + u64::from(worker)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
        std::thread::sleep(std::time::Duration::from_micros(late % 2_000));
        let (status, _) = client
            .push_gradient(worker, round, msg.loss_sum, instances, msg.payload.clone())
            .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
        match status {
            PushStatus::Accepted => {
                pushed = Some((msg.payload, instances));
                accepted += 1;
            }
            PushStatus::Stale => stale += 1,
            // The last round closed without this worker: the pulls at the
            // top bring the replica level and see `done`.
            PushStatus::Done => continue,
        }
        attempted += 1;
    }
}

/// With a 1 ms straggler window rounds close under the workers' feet all the
/// time. A push used to be acked `Accepted` when it was queued and dropped if
/// the window closed before the trainer popped it; now the ack is given under
/// the lock that makes it a member, so accepted means listed.
#[test]
fn an_accepted_push_is_a_member_of_its_round_however_short_the_straggler_window() {
    let mut setup = setup(3);
    setup.round_timeout_ms = 1;
    setup.idle_timeout_ms = 60_000;
    // Batches of 6 of the 450 training rows: 75 rounds an epoch.
    setup.batch_ratio = 6.0 / 450.0;
    let (server, addr) = start(setup);
    let workers: Vec<_> = (0..3u32)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || racing_worker(&addr, w))
        })
        .collect();
    let raced: Vec<Raced> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let summary = server.wait_trained();
    let served = final_state(&addr);
    let stats = server.stats_json();
    server.shutdown();
    server.join();

    assert!(!summary.aborted, "{summary:?}");
    assert!(summary.rounds >= 200, "{summary:?}");
    for (worker, r) in raced.iter().enumerate() {
        assert_eq!(r.dropped, 0, "worker {worker}");
        assert_eq!(r.accepted + r.stale, r.attempted, "worker {worker}");
        assert!(r.state == served, "worker {worker} ended on another state");
    }
    // The server's books are the workers': every accepted push took a slot,
    // and every slot taken was listed in the round that closed on it.
    let accepted: u64 = raced.iter().map(|r| r.accepted).sum();
    assert_eq!(stat(&stats, "pushes"), accepted, "{stats}");
    assert_eq!(
        stat(&stats, "stale_pushes"),
        raced.iter().map(|r| r.stale).sum::<u64>(),
        "{stats}"
    );
    assert!(
        accepted <= 3 * summary.full_rounds + 2 * summary.partial_rounds
            && accepted >= 3 * summary.full_rounds + summary.partial_rounds,
        "{accepted} pushes in {summary:?}"
    );
    assert_eq!(stat(&stats, "rejected_pushes"), 0, "{stats}");
}

/// The open round has one slot a worker: fifty pushes from one worker id
/// hold one decoded part, not fifty, and the round lists the first.
#[test]
fn a_repeated_push_is_acked_and_the_round_keeps_the_workers_first_frame() {
    let mut setup = setup(2);
    setup.round_timeout_ms = 60_000;
    setup.idle_timeout_ms = 60_000;
    let (server, addr) = start(setup);
    let mut client = Client::connect(&addr).unwrap();
    let first = sketchml_payload(DIM, vec![3], vec![0.5]);
    for i in 0..50u64 {
        let (payload, instances) = match i {
            0 => (first.clone(), 1),
            _ => (sketchml_payload(DIM, vec![3 + i], vec![0.25]), 7),
        };
        let acked = client
            .push_gradient(0, 0, 0.25, instances, payload)
            .unwrap();
        assert_eq!(acked, (PushStatus::Accepted, 0), "push {i}");
    }
    assert_eq!(stat(&client.get_stats().unwrap(), "pushes"), 1);
    // Worker 1 fills the table: the round closes on worker 0's first frame.
    let other = sketchml_payload(DIM, vec![9], vec![1.0]);
    let acked = client.push_gradient(1, 0, 0.25, 2, other).unwrap();
    assert_eq!(acked, (PushStatus::Accepted, 0));
    let reply = client
        .call(&Request::PullRound {
            worker: 1,
            have_round: 0,
            wait: true,
        })
        .unwrap();
    let Response::Round {
        base_round: 0,
        round: 1,
        members,
        ..
    } = reply
    else {
        panic!("{reply:?}");
    };
    assert_eq!(members, [member(0, 1, Some(&first)), member(1, 2, None)]);
    assert_eq!(stat(&client.get_stats().unwrap(), "pushes"), 2);
    server.shutdown();
    assert!(server.join().aborted);
}

/// The trainer used to publish `done` and only then store the summary: a
/// reader in between saw a finished run without figures.
#[test]
fn get_stats_never_says_done_without_the_summary() {
    let (server, addr) = start(setup(1));
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || run_worker(&addr, 0))
    };
    let mut monitor = Client::connect(&addr).unwrap();
    let mut polls = 0u64;
    loop {
        let json = monitor.get_stats().unwrap();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let obj = v.as_obj().unwrap();
        polls += 1;
        if serde::field(obj, "done").unwrap() == &serde::Value::Bool(true) {
            let summary = serde::field(obj, "summary").unwrap();
            assert!(summary.as_obj().is_some(), "poll {polls}: {json}");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    worker.join().unwrap().unwrap();
    assert_eq!(server.wait_trained().rounds, ROUNDS);
    server.shutdown();
    server.join();
}

fn instance(indices: &[u32], values: &[f64]) -> PredictInstance {
    PredictInstance {
        indices: indices.to_vec(),
        values: values.to_vec(),
    }
}

/// `GlmModel::score` of each instance, as bit patterns.
fn glm_scores(model: &GlmModel, batch: &[PredictInstance]) -> Vec<u64> {
    batch
        .iter()
        .map(|inst| {
            let features = SparseVector::new(inst.indices.clone(), inst.values.clone()).unwrap();
            model.score(&Instance::new(features, 0.0)).to_bits()
        })
        .collect()
}

/// The server used to decide whether to keep a predict's snapshot for the
/// next request by waiting for that request: every call on a long-lived
/// connection scored against the model of its first.
#[test]
fn a_long_lived_predict_connection_scores_against_the_model_published_last() {
    let (server, addr) = start(setup(2));
    let batch = vec![
        instance(&[3, 64, DIM as u32 - 1], &[1.0, -0.5, 2.0]),
        instance(&[0, 17], &[0.25, 4.0]),
    ];
    let mut client = Client::connect(&addr).unwrap();
    let before = client.predict(batch.clone()).unwrap();
    // Nothing has trained yet: the round-0 model is all zeros.
    assert_eq!(before, vec![0.0; batch.len()]);
    let workers: Vec<_> = (0..2u32)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, w))
        })
        .collect();
    server.wait_trained();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    let published = server.store().snapshot();
    assert!(published.done && published.round == ROUNDS);
    let after = client.predict(batch.clone()).unwrap();
    let after: Vec<u64> = after.iter().map(|s| s.to_bits()).collect();
    assert_eq!(after, glm_scores(&published.model, &batch));
    assert!(after.iter().any(|&s| s != 0.0f64.to_bits()));
    server.shutdown();
    server.join();
}

/// An instance the model cannot score is answered `Malformed`, naming it,
/// and the connection stays usable: its frame was read whole.
#[test]
fn an_invalid_predict_instance_is_answered_malformed() {
    let (server, addr) = start(setup(1));
    let good = instance(&[1, 5], &[0.5, -1.0]);
    let mut client = Client::connect(&addr).unwrap();
    for (what, bad, needle) in [
        (
            "descending",
            instance(&[9, 3], &[1.0, 1.0]),
            "strictly ascending",
        ),
        (
            "duplicate",
            instance(&[4, 4], &[1.0, 1.0]),
            "strictly ascending",
        ),
        ("NaN", instance(&[2, 7], &[1.0, f64::NAN]), "non-finite"),
        ("infinite", instance(&[2], &[f64::INFINITY]), "non-finite"),
        (
            "index d",
            instance(&[2, DIM as u32], &[1.0, 1.0]),
            "outside",
        ),
    ] {
        match client.predict(vec![good.clone(), bad]) {
            Err(NetError::Remote {
                code: ErrorCode::Malformed,
                message,
            }) => {
                assert!(message.contains("predict instance 1"), "{what}: {message}");
                assert!(message.contains(needle), "{what}: {message}");
            }
            other => panic!("{what}: {other:?}"),
        }
        assert_eq!(
            client.predict(vec![good.clone()]).unwrap().len(),
            1,
            "{what}"
        );
    }
    let stats = client.get_stats().unwrap();
    assert_eq!(stat(&stats, "predicts"), 5);
    assert_eq!(stat(&stats, "predict_instances"), 5);
    server.shutdown();
    server.join();
}

/// A one-epoch session of two workers in which worker 1 never lands a push:
/// every round closes on the timeout, on worker 0 alone.
fn start_with_a_hostile_worker() -> (Server, String) {
    let mut setup = setup(2);
    setup.spec.max_epochs = 1;
    setup.round_timeout_ms = 50;
    setup.idle_timeout_ms = 60_000;
    start(setup)
}

/// `instances` and `loss_sum` are a peer's claims, and the trainer weights
/// the whole round by them: `u64::MAX` instances used to overflow the
/// round's total (a panicked trainer in a debug build, `wait_trained` never
/// returning; a wrapped sum and a part scaled by 2.5e17 in a release one).
#[test]
fn a_push_with_forged_instances_or_loss_is_refused_and_the_run_completes() {
    let (server, addr) = start_with_a_hostile_worker();
    let mut client = Client::connect(&addr).unwrap();
    let payload = sketchml_payload(DIM, vec![3, 70, 400], vec![0.5, -0.25, 0.1]);
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

/// Nobody looked at a payload before the trainer did, and the trainer
/// returned its decode error out of the run: one bad frame, every worker's
/// next pull saw `done`, and the summary said `aborted` ("trainer aborted at
/// round 0: codec error: …"). Now the handler that accepts a push decodes it.
#[test]
fn an_undecodable_or_wrong_dimension_push_is_refused_and_the_run_completes() {
    let (server, addr) = start_with_a_hostile_worker();
    let mut honest = Client::connect(&addr).unwrap();
    let mut hostile = Client::connect(&addr).unwrap();
    let mut replica = Replica::new(&honest.get_config().unwrap()).unwrap();
    let good = sketchml_payload(DIM, vec![3, 70, 400], vec![0.5, -0.25, 0.1]);
    let mut flipped = good.clone();
    flipped[0] ^= 0x40;
    let bad_frames = [
        ("truncated", good[..good.len() / 2].to_vec()),
        ("bit-flipped", flipped),
        (
            "another dimension",
            sketchml_payload(DIM + 1, vec![3, 70, 400], vec![0.5, -0.25, 0.1]),
        ),
        ("empty", Vec::new()),
    ];

    for round in 0..ROUNDS_PER_EPOCH {
        for (what, frame) in &bad_frames {
            let pushed = hostile.push_gradient(1, round, 30.0, 75, frame.clone());
            let err = pushed.expect_err(what);
            assert!(
                matches!(&err, NetError::Remote { code: ErrorCode::BadState, message }
                    if message.contains("refused: its frame")),
                "{what}: {err}"
            );
        }
        let (status, _) = honest
            .push_gradient(0, round, 30.0, 75, good.clone())
            .unwrap();
        assert_eq!(status, PushStatus::Accepted, "round {round}");
        // The round closes on the honest push after the straggler timeout.
        let pulled = honest
            .pull_round(0, &mut replica, Some((&good, 75)), true)
            .unwrap();
        assert_eq!(pulled, Pulled::Round { listed: true }, "round {round}");
    }
    assert!(replica.done());
    let rejected = ROUNDS_PER_EPOCH * bad_frames.len() as u64;
    let stats = honest.get_stats().unwrap();
    assert_eq!(stat(&stats, "rejected_pushes"), rejected, "{stats}");
    assert_eq!(stat(&stats, "pushes"), ROUNDS_PER_EPOCH, "{stats}");

    let summary = server.wait_trained();
    let view = honest.pull_model(0, 0, false).unwrap();
    server.shutdown();
    server.join();
    assert!(!summary.aborted, "{summary:?}");
    assert_eq!(summary.partial_rounds, ROUNDS_PER_EPOCH, "{summary:?}");
    // The honest worker's replica is still the server's model.
    assert!(view.done && view.round == ROUNDS_PER_EPOCH);
    for (k, (s, r)) in view
        .weights
        .iter()
        .zip(&replica.model().weights)
        .enumerate()
    {
        assert_eq!(s.to_bits(), r.to_bits(), "weight {k}");
    }
    assert!(view.weights.iter().any(|&w| w != 0.0));
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

fn member(worker: u32, instances: u64, frame: Option<&[u8]>) -> RoundMember {
    RoundMember {
        worker,
        instances,
        frame: frame.map(<[u8]>::to_vec),
    }
}

fn round_reply(base_round: u64, round: u64, members: Vec<RoundMember>) -> Vec<u8> {
    frame(Response::Round {
        base_round,
        round,
        epoch: 0,
        done: false,
        members,
    })
}

/// Whether the script's worker pushed for the round it pulls.
#[derive(Clone, Copy, PartialEq)]
enum Own {
    Pushed,
    NoPush,
}

#[test]
fn a_hostile_round_or_state_reply_is_a_typed_error_that_never_touches_the_replica() {
    let setup = setup(4);
    // This test is worker 1, two rounds in.
    let (mine, other, third) = (
        sketchml_payload(DIM, vec![3, 70, 400], vec![0.5, -0.25, 0.1]),
        sketchml_payload(DIM, vec![3, 71, 400], vec![0.25, 0.5, -0.1]),
        sketchml_payload(DIM, vec![5], vec![1.0]),
    );
    let wide = sketchml_payload(DIM + 1, vec![3], vec![0.5]);
    let good_round = |base: u64| {
        round_reply(
            base,
            base + 1,
            vec![
                member(0, 75, Some(&other)),
                member(1, 74, None),
                member(3, 75, Some(&third)),
            ],
        )
    };
    let state = |model: &GlmModel, optimizer: &OptimizerState, round: u64| {
        frame(Response::State {
            round,
            bytes: state_bytes(model, optimizer),
        })
    };
    let fresh = Replica::new(&setup).unwrap();
    let adam = |dim: usize| {
        OptimizerState::build(setup.spec.optimizer, setup.spec.opt_state, dim).unwrap()
    };
    let mut torn = state_bytes(fresh.model(), fresh.optimizer());
    let middle = torn.len() / 2;
    torn[middle] ^= 1;
    let mut many_members = round_reply(2, 3, vec![]);
    let at = many_members.len() - 4;
    many_members[at..].copy_from_slice(&(1u32 << 31).to_le_bytes());

    use Own::{NoPush, Pushed};
    let hostile: Vec<(&str, Own, Vec<u8>)> = vec![
        (
            "more members than workers",
            Pushed,
            round_reply(
                2,
                3,
                (0..5)
                    .map(|w| member(w, 70, (w != 1).then_some(&other[..])))
                    .collect(),
            ),
        ),
        ("more members than bytes", Pushed, many_members),
        (
            "ids not ascending",
            Pushed,
            round_reply(
                2,
                3,
                vec![member(3, 75, Some(&third)), member(0, 75, Some(&other))],
            ),
        ),
        (
            "an id twice",
            Pushed,
            round_reply(
                2,
                3,
                vec![member(0, 75, Some(&other)), member(0, 75, Some(&other))],
            ),
        ),
        (
            "an id outside the session",
            Pushed,
            round_reply(
                2,
                3,
                vec![member(0, 75, Some(&other)), member(4, 75, Some(&third))],
            ),
        ),
        (
            "someone else's frame missing",
            Pushed,
            round_reply(2, 3, vec![member(0, 75, None), member(1, 74, None)]),
        ),
        (
            "own frame present",
            Pushed,
            round_reply(
                2,
                3,
                vec![member(0, 75, Some(&other)), member(1, 74, Some(&mine))],
            ),
        ),
        ("listed without having pushed", NoPush, good_round(2)),
        (
            "listed with another count than pushed",
            Pushed,
            round_reply(2, 3, vec![member(0, 75, Some(&other)), member(1, 73, None)]),
        ),
        (
            "more instances than the dataset",
            Pushed,
            round_reply(
                2,
                3,
                vec![member(0, 601, Some(&other)), member(1, 74, None)],
            ),
        ),
        ("another base round", Pushed, good_round(1)),
        (
            "a round too far",
            Pushed,
            round_reply(2, 4, vec![member(0, 75, Some(&other))]),
        ),
        ("a round backwards", Pushed, round_reply(2, 1, vec![])),
        (
            "members in a round that did not close",
            Pushed,
            round_reply(2, 2, vec![member(0, 75, Some(&other))]),
        ),
        (
            "a frame that does not decode",
            Pushed,
            round_reply(
                2,
                3,
                vec![
                    member(0, 75, Some(&other[..other.len() / 2])),
                    member(1, 74, None),
                ],
            ),
        ),
        (
            "a frame of another dimension",
            Pushed,
            round_reply(
                2,
                3,
                vec![
                    member(0, 75, Some(&other)),
                    member(1, 74, None),
                    member(2, 75, Some(&wide)),
                ],
            ),
        ),
        (
            "a state with a bad checksum",
            NoPush,
            frame(Response::State {
                round: 9,
                bytes: torn,
            }),
        ),
        (
            "a state of another dimension",
            NoPush,
            state(
                &GlmModel::new(DIM + 1, setup.spec.loss, setup.spec.l2).unwrap(),
                &adam(DIM + 1),
                9,
            ),
        ),
        (
            "a state of another optimizer",
            NoPush,
            state(
                fresh.model(),
                &OptimizerState::build(OptimizerKind::Sgd(0.05), setup.spec.opt_state, DIM)
                    .unwrap(),
                9,
            ),
        ),
        (
            "a state of another loss",
            NoPush,
            state(
                &GlmModel::new(DIM, GlmLoss::Hinge, setup.spec.l2).unwrap(),
                &adam(DIM),
                9,
            ),
        ),
        (
            "a state from the past",
            NoPush,
            state(fresh.model(), fresh.optimizer(), 1),
        ),
    ];

    // Two honest rounds first, so the replica has weights and moments to
    // lose; then every hostile reply; then an honest round again.
    let mut script = vec![good_round(0), good_round(1)];
    script.extend(hostile.iter().map(|(_, _, reply)| reply.clone()));
    script.push(good_round(2));
    let (addr, server) = scripted_server(script);
    let mut client = Client::connect(&addr).unwrap();
    let mut replica = Replica::new(&setup).unwrap();
    let own = Some((&mine[..], 74));
    for round in 1..=2 {
        let pulled = client.pull_round(1, &mut replica, own, true).unwrap();
        assert_eq!(pulled, Pulled::Round { listed: true });
        assert_eq!(replica.round(), round);
    }
    let before = replica_bytes(&replica);
    assert!(before != replica_bytes(&fresh), "the honest rounds stepped");

    for (what, pushed, _) in &hostile {
        let own = if *pushed == Pushed { own } else { None };
        let err = client
            .pull_round(1, &mut replica, own, true)
            .expect_err(what);
        assert!(matches!(err, NetError::Protocol(_)), "{what}: {err}");
        assert_eq!(replica.round(), 2, "{what}");
        assert!(!replica.done(), "{what}");
        assert!(
            replica_bytes(&replica) == before,
            "{what}: weights or optimizer state moved"
        );
    }

    let pulled = client.pull_round(1, &mut replica, own, true).unwrap();
    assert_eq!(pulled, Pulled::Round { listed: true });
    assert_eq!(replica.round(), 3);
    assert!(replica_bytes(&replica) != before);

    let seen = server.join().unwrap();
    assert!(
        seen.iter().enumerate().all(|(i, r)| matches!(
            r,
            Request::PullRound {
                worker: 1,
                have_round,
                wait: true
            } if *have_round == (i as u64).min(2)
        )),
        "{seen:?}"
    );
}

/// A peer that still speaks protocol 1 — weight deltas — or 2 — a push
/// status this server never sends — fails at `Hello`, typed, not on an
/// unknown frame kind in the middle of a run.
#[test]
fn a_protocol_1_hello_is_refused_with_the_version_error() {
    let (server, addr) = start(setup(1));
    let conn = sketchml_net::Conn::connect(&addr).unwrap();
    let mut writer = BufWriter::new(conn.try_clone().unwrap());
    let mut reader = BufReader::new(conn);
    Request::Hello {
        min_version: 1,
        max_version: 2,
    }
    .write_to(&mut writer)
    .unwrap();
    let reply = Response::read_from(&mut reader).unwrap();
    assert!(
        matches!(
            &reply,
            Response::Error {
                code: ErrorCode::Version,
                message
            } if message.contains("version 3")
        ),
        "{reply:?}"
    );
    assert_eq!(PROTOCOL_VERSION, 3);
    // A range that includes 3 is served.
    let conn = sketchml_net::Conn::connect(&addr).unwrap();
    let mut writer = BufWriter::new(conn.try_clone().unwrap());
    let mut reader = BufReader::new(conn);
    Request::Hello {
        min_version: 1,
        max_version: 3,
    }
    .write_to(&mut writer)
    .unwrap();
    assert_eq!(
        Response::read_from(&mut reader).unwrap(),
        Response::HelloAck { version: 3 }
    );
    server.shutdown();
    server.join();
}

/// `GetConfig` carries the server's whole setup; a document that lacks a
/// field — here the straggler window — is a typed error, not a default.
#[test]
fn a_config_missing_a_field_is_a_typed_error() {
    let json = serde_json::to_string(&setup(2)).unwrap();
    let field = r#""round_timeout_ms":1000,"#;
    assert!(json.contains(field), "{json}");
    let short = json.replace(field, "");
    let replies = [json, short].map(|json| frame(Response::Config { json }));
    let (addr, server) = scripted_server(replies.to_vec());
    let mut client = Client::connect(&addr).unwrap();
    let whole = client.get_config().unwrap();
    assert_eq!(
        (whole.workers, whole.round_timeout_ms, whole.compressor),
        (2, 1_000, "sketchml".to_string())
    );
    let err = client.get_config().unwrap_err();
    assert!(
        matches!(&err, NetError::Protocol(msg) if msg.contains("round_timeout_ms")),
        "{err:?}"
    );
    drop(client);
    assert_eq!(server.join().unwrap().len(), 2);
}
