//! Frame decode over partial stream reads.
//!
//! TCP gives no message boundaries: a request frame carrying a valid
//! SketchML v2 (or Count-Sketch CSK) gradient payload can arrive split at
//! ANY byte boundary across multiple socket reads. These tests split such
//! a frame at every boundary across two socket writes and require the
//! reader to either reassemble it exactly or fail with a typed error —
//! never panic, never misparse.

#![cfg(unix)]

use sketchml_core::{compressor_by_name, SparseGradient};
use sketchml_net::{NetError, PushStatus, Request, Response, RoundMember};
use std::io::{BufReader, Read, Write};
use std::os::unix::net::UnixStream;

/// Encodes a request into its exact wire bytes.
fn request_bytes(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    req.write_to(&mut buf).unwrap();
    buf
}

fn response_bytes(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    resp.write_to(&mut buf).unwrap();
    buf
}

/// A small but non-trivial gradient: irregular keys, mixed-sign values.
fn gradient(dim: u64, nnz: usize) -> SparseGradient {
    let keys: Vec<u64> = (0..nnz as u64).map(|i| (i * 37 + 5) % dim).collect();
    let mut keys: Vec<u64> = {
        let mut k = keys;
        k.sort_unstable();
        k.dedup();
        k
    };
    keys.truncate(nnz);
    let values: Vec<f64> = keys
        .iter()
        .map(|&k| {
            if k % 2 == 0 {
                0.25 + k as f64
            } else {
                -(k as f64) / 3.0
            }
        })
        .collect();
    SparseGradient::new(dim, keys, values).unwrap()
}

/// A `PushGradient` request whose payload is a real compressed frame from
/// the registry compressor `name`.
fn push_request(name: &str) -> (Request, SparseGradient) {
    let compressor = compressor_by_name(name).unwrap();
    let grad = gradient(1 << 14, 48);
    let compressed = compressor.compress(&grad).unwrap();
    (
        Request::PushGradient {
            worker: 3,
            round: 17,
            loss_sum: 2.5,
            instances: 64,
            payload: compressed.payload.to_vec(),
        },
        grad,
    )
}

/// Writes `bytes[..split]`, yields to let the reader consume the partial
/// prefix, then writes the rest. The reader must reassemble.
fn split_write(
    mut sender: UnixStream,
    bytes: Vec<u8>,
    split: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        sender.write_all(&bytes[..split]).unwrap();
        sender.flush().unwrap();
        // Give the reader a chance to attempt (and block on) a short read.
        std::thread::yield_now();
        sender.write_all(&bytes[split..]).unwrap();
        sender.flush().unwrap();
    })
}

#[test]
fn v2_frame_reassembles_at_every_split_boundary() {
    let (req, grad) = push_request("sketchml");
    let bytes = request_bytes(&req);
    let compressor = compressor_by_name("sketchml").unwrap();
    for split in 0..=bytes.len() {
        let (sender, receiver) = UnixStream::pair().unwrap();
        let writer = split_write(sender, bytes.clone(), split);
        let mut reader = BufReader::new(receiver);
        let decoded = Request::read_from(&mut reader)
            .unwrap_or_else(|e| panic!("split at byte {split}: {e}"));
        writer.join().unwrap();
        let Request::PushGradient {
            worker,
            round,
            payload,
            ..
        } = &decoded
        else {
            panic!("split at byte {split}: wrong variant {decoded:?}");
        };
        assert_eq!((*worker, *round), (3, 17), "split at byte {split}");
        // The reassembled payload must still be a decodable v2 frame.
        let recovered = compressor.decompress(payload).unwrap();
        assert_eq!(recovered.dim(), grad.dim(), "split at byte {split}");
    }
}

#[test]
fn csk_frame_reassembles_at_every_split_boundary() {
    // Count-Sketch frames exercise a different payload grammar (CSK magic,
    // table + heavy-hitter sections) under the same transport splitting.
    let (req, grad) = push_request("countsketch:4x512:16");
    let bytes = request_bytes(&req);
    let compressor = compressor_by_name("countsketch:4x512:16").unwrap();
    for split in 0..=bytes.len() {
        let (sender, receiver) = UnixStream::pair().unwrap();
        let writer = split_write(sender, bytes.clone(), split);
        let mut reader = BufReader::new(receiver);
        let decoded = Request::read_from(&mut reader)
            .unwrap_or_else(|e| panic!("split at byte {split}: {e}"));
        writer.join().unwrap();
        let Request::PushGradient { payload, .. } = &decoded else {
            panic!("split at byte {split}: wrong variant");
        };
        let recovered = compressor.decompress(payload).unwrap();
        assert_eq!(recovered.dim(), grad.dim(), "split at byte {split}");
    }
}

#[test]
fn response_frame_reassembles_at_every_split_boundary() {
    let resp = Response::Model {
        round: 9,
        epoch: 2,
        done: false,
        weights: (0..257).map(|i| i as f64 / 7.0).collect(),
    };
    let bytes = response_bytes(&resp);
    // Sample every boundary in the header + first section, then stride
    // through the (homogeneous) weight block to keep the test fast.
    let boundaries: Vec<usize> = (0..=bytes.len())
        .filter(|&i| i <= 64 || i >= bytes.len() - 64 || i % 97 == 0)
        .collect();
    for split in boundaries {
        let (sender, receiver) = UnixStream::pair().unwrap();
        let writer = split_write(sender, bytes.clone(), split);
        let mut reader = BufReader::new(receiver);
        let decoded = Response::read_from(&mut reader)
            .unwrap_or_else(|e| panic!("split at byte {split}: {e}"));
        writer.join().unwrap();
        let Response::Model { round, weights, .. } = decoded else {
            panic!("split at byte {split}: wrong variant");
        };
        assert_eq!(round, 9, "split at byte {split}");
        assert_eq!(weights.len(), 257, "split at byte {split}");
    }
}

#[test]
fn round_pull_frames_reassemble_at_every_split_and_fail_typed_at_every_cut() {
    // A round of three as worker 1 is sent it: two real codec frames around
    // its own, which is listed without bytes.
    let frame = |name: &str| match push_request(name).0 {
        Request::PushGradient { payload, .. } => payload,
        other => panic!("not a push: {other:?}"),
    };
    let round = Response::Round {
        base_round: 16,
        round: 17,
        epoch: 1,
        done: false,
        members: vec![
            RoundMember {
                worker: 0,
                instances: 64,
                frame: Some(frame("sketchml")),
            },
            RoundMember {
                worker: 1,
                instances: 63,
                frame: None,
            },
            RoundMember {
                worker: 2,
                instances: 64,
                frame: Some(frame("zipml")),
            },
        ],
    };
    let pull = Request::PullRound {
        worker: 1,
        have_round: 16,
        wait: true,
    };
    let round_bytes = response_bytes(&round);
    for split in 0..=round_bytes.len() {
        let (sender, receiver) = UnixStream::pair().unwrap();
        let writer = split_write(sender, round_bytes.clone(), split);
        let decoded = Response::read_from(&mut BufReader::new(receiver))
            .unwrap_or_else(|e| panic!("split at byte {split}: {e}"));
        writer.join().unwrap();
        assert_eq!(decoded, round, "split at byte {split}");
    }
    let pull_bytes = request_bytes(&pull);
    for split in 0..=pull_bytes.len() {
        let (sender, receiver) = UnixStream::pair().unwrap();
        let writer = split_write(sender, pull_bytes.clone(), split);
        let decoded = Request::read_from(&mut BufReader::new(receiver))
            .unwrap_or_else(|e| panic!("split at byte {split}: {e}"));
        writer.join().unwrap();
        assert_eq!(decoded, pull, "split at byte {split}");
    }
    // A stream that ends inside the frame: typed, never a panic or a round.
    for cut in 0..round_bytes.len() {
        match Response::read_from(&mut &round_bytes[..cut]) {
            Ok(decoded) => panic!("cut at byte {cut}: decoded {decoded:?}"),
            Err(NetError::Io(_)) | Err(NetError::Protocol(_)) => {}
            Err(other) => panic!("cut at byte {cut}: wrong error class {other}"),
        }
    }
}

#[test]
fn truncated_stream_fails_typed_at_every_boundary_never_panics() {
    let (req, _) = push_request("sketchml");
    let bytes = request_bytes(&req);
    for cut in 0..bytes.len() {
        let (mut sender, receiver) = UnixStream::pair().unwrap();
        sender.write_all(&bytes[..cut]).unwrap();
        drop(sender); // EOF mid-frame
        let mut reader = BufReader::new(receiver);
        match Request::read_from(&mut reader) {
            Ok(decoded) => panic!("cut at byte {cut}: decoded {decoded:?} from a truncated stream"),
            // Typed failure is the contract: EOF surfaces as Io, a
            // headerless sliver as Protocol. Panics fail the test runner.
            Err(NetError::Io(_)) | Err(NetError::Protocol(_)) => {}
            Err(other) => panic!("cut at byte {cut}: wrong error class {other}"),
        }
    }
}

#[test]
fn garbage_after_partial_header_fails_typed() {
    // A valid prefix spliced with garbage must fail typed, not panic or
    // hang: corrupt the byte right after each split point.
    let ack = response_bytes(&Response::PushAck {
        status: PushStatus::Accepted,
        round: 4,
    });
    for split in 0..ack.len() {
        let mut corrupted = ack.clone();
        corrupted[split] ^= 0xFF;
        let (mut sender, receiver) = UnixStream::pair().unwrap();
        sender.write_all(&corrupted).unwrap();
        drop(sender);
        let mut reader = BufReader::new(receiver);
        match Response::read_from(&mut reader) {
            // Flipping a bit in (say) the round field still decodes — that
            // is CRC territory for the inner gradient frames, not the outer
            // envelope. What must never happen is a panic or an untyped
            // error.
            Ok(_) => {}
            Err(NetError::Io(_)) | Err(NetError::Protocol(_)) => {}
            Err(other) => panic!("corrupt at byte {split}: wrong error class {other}"),
        }
    }
}

#[test]
fn byte_at_a_time_delivery_reassembles() {
    // The pathological case: every byte in its own segment.
    let (req, _) = push_request("countsketch:4x512:16");
    let bytes = request_bytes(&req);
    let (mut sender, receiver) = UnixStream::pair().unwrap();
    let writer = std::thread::spawn(move || {
        for b in bytes {
            sender.write_all(&[b]).unwrap();
            sender.flush().unwrap();
        }
    });
    let mut reader = BufReader::new(receiver);
    let decoded = Request::read_from(&mut reader).unwrap();
    writer.join().unwrap();
    assert!(matches!(decoded, Request::PushGradient { round: 17, .. }));
    // Nothing may remain buffered: exactly one frame was sent.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}
