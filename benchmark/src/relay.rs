//! The network of the throttled workloads: a Unix-socket forwarder with one
//! token bucket per direction shared by every connection (it models the
//! server's NIC, so two workers pulling at once split the downlink) and exact
//! per-direction byte and frame counters.
//!
//! Every accepted connection gets two blocking pump threads. A pump reads a
//! chunk, reserves its transmission slot on the direction's virtual link,
//! sleeps until the slot's end and only then delivers the chunk, so a chunk
//! arrives when its last byte would have left a real link of that rate. The
//! link keeps a virtual clock instead of refilling tokens on wake-up, and the
//! clock is pulled up to real time only when a pump had to wait for data: a
//! pump that oversleeps, or is not scheduled for a while with bytes queued
//! behind it, delivers late but catches up, as a backlogged link would. The
//! long-run rate therefore holds on a host that steals CPU time.
//!
//! The pumps also parse the `sketchml-net` frame headers (`0xA7 | kind |
//! len:u32le`) of the bytes they forward, so a run can check that what the
//! relay counted is exactly the frames the programs exchanged.

use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Forwarding granularity. 16 KiB is 1.3 ms of a 12.5 MB/s link: small
/// enough that two connections interleave finely, large enough that the
/// per-chunk syscalls stay far below the link time.
const CHUNK: usize = 16 * 1024;

/// How far the virtual clock may lag behind real time when data arrive on
/// an idle link, i.e. the bucket depth in seconds.
const BURST: Duration = Duration::from_millis(4);

const FRAME_MAGIC: u8 = 0xA7;
const FRAME_HEADER: usize = 6;

/// One direction's virtual link.
struct Link {
    /// Bytes per second; `None` forwards as fast as the sockets allow.
    rate: Option<f64>,
    next_free: Mutex<Instant>,
    bytes: AtomicU64,
    frames: AtomicU64,
    frame_bytes: AtomicU64,
    bad_magic: AtomicU64,
    /// Bytes forwarded that did not complete a frame when their stream ended.
    dangling: AtomicU64,
}

impl Link {
    fn new(rate: Option<f64>) -> Self {
        Link {
            rate,
            next_free: Mutex::new(Instant::now()),
            bytes: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            frame_bytes: AtomicU64::new(0),
            bad_magic: AtomicU64::new(0),
            dangling: AtomicU64::new(0),
        }
    }

    /// Reserves the link for `n` bytes and returns when their last byte
    /// leaves it. `backlogged` says the bytes were already queued when the
    /// previous chunk left, so the link has not been idle since.
    fn reserve(&self, n: usize, backlogged: bool) -> Option<Instant> {
        let rate = self.rate?;
        let mut next_free = self
            .next_free
            .lock()
            .expect("a pump panicked holding the link clock");
        if !backlogged {
            let now = Instant::now();
            let floor = now.checked_sub(BURST).unwrap_or(now);
            if *next_free < floor {
                *next_free = floor;
            }
        }
        *next_free += Duration::from_secs_f64(n as f64 / rate);
        Some(*next_free)
    }
}

/// Incremental parser of the frame headers inside one forwarded stream.
#[derive(Default)]
struct FrameScan {
    header: [u8; FRAME_HEADER],
    header_len: usize,
    body_left: usize,
    frame_len: u64,
}

impl FrameScan {
    fn feed(&mut self, mut buf: &[u8], link: &Link) {
        while !buf.is_empty() {
            if self.body_left > 0 {
                let n = self.body_left.min(buf.len());
                self.body_left -= n;
                buf = &buf[n..];
                if self.body_left == 0 {
                    self.complete(link);
                }
                continue;
            }
            let n = (FRAME_HEADER - self.header_len).min(buf.len());
            self.header[self.header_len..self.header_len + n].copy_from_slice(&buf[..n]);
            self.header_len += n;
            buf = &buf[n..];
            if self.header_len == FRAME_HEADER {
                if self.header[0] != FRAME_MAGIC {
                    link.bad_magic.fetch_add(1, Ordering::Relaxed);
                }
                let len = u32::from_le_bytes(self.header[2..6].try_into().expect("4 bytes"));
                self.body_left = len as usize;
                self.frame_len = FRAME_HEADER as u64 + u64::from(len);
                self.header_len = 0;
                if self.body_left == 0 {
                    self.complete(link);
                }
            }
        }
    }

    fn complete(&mut self, link: &Link) {
        link.frames.fetch_add(1, Ordering::Relaxed);
        link.frame_bytes
            .fetch_add(self.frame_len, Ordering::Relaxed);
        self.frame_len = 0;
    }

    /// Bytes seen since the last completed frame.
    fn dangling(&self) -> u64 {
        if self.frame_len > 0 {
            self.frame_len - self.body_left as u64
        } else {
            self.header_len as u64
        }
    }
}

fn pump(mut src: UnixStream, mut dst: UnixStream, link: &Link) {
    let mut buf = vec![0u8; CHUNK];
    let mut scan = FrameScan::default();
    // A read that filled the buffer left more behind it in the socket.
    let mut backlogged = false;
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let reserved = link.reserve(n, backlogged);
        backlogged = n == buf.len();
        if let Some(deadline) = reserved {
            let now = Instant::now();
            if deadline > now {
                std::thread::sleep(deadline - now);
            }
        }
        if dst.write_all(&buf[..n]).is_err() {
            break;
        }
        link.bytes.fetch_add(n as u64, Ordering::Relaxed);
        scan.feed(&buf[..n], link);
    }
    link.dangling.fetch_add(scan.dangling(), Ordering::Relaxed);
    // Pass the end of stream on, and stop reading a source nobody drains.
    let _ = dst.shutdown(std::net::Shutdown::Write);
    let _ = src.shutdown(std::net::Shutdown::Read);
}

/// Counters of one direction at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCounters {
    /// Bytes delivered.
    pub bytes: u64,
    /// Complete frames delivered.
    pub frames: u64,
    /// Header plus body bytes of those frames.
    pub frame_bytes: u64,
    /// Frames whose first byte was not the protocol magic.
    pub bad_magic: u64,
    /// Bytes of streams that ended inside a frame.
    pub dangling: u64,
}

/// Both directions at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayCounters {
    /// Client → server.
    pub up: LinkCounters,
    /// Server → client.
    pub down: LinkCounters,
}

impl RelayCounters {
    /// True when every forwarded byte belonged to a complete, well-formed
    /// frame.
    pub fn frames_account_for_all_bytes(&self) -> bool {
        [self.up, self.down]
            .iter()
            .all(|l| l.bytes == l.frame_bytes && l.bad_magic == 0 && l.dangling == 0)
    }
}

/// The two directions: client→server is `up`, server→client is `down`.
struct Links {
    up: Link,
    down: Link,
}

/// A running relay. [`Relay::stop`] must be called once the programs on both
/// sides have closed their connections.
pub struct Relay {
    listen: PathBuf,
    links: Arc<Links>,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl Relay {
    /// Listens on `listen` and forwards every connection to `upstream`, each
    /// direction limited to `rate` bytes per second.
    pub fn start(listen: &Path, upstream: &Path, rate: Option<f64>) -> std::io::Result<Relay> {
        let listener = UnixListener::bind(listen)?;
        let links = Arc::new(Links {
            up: Link::new(rate),
            down: Link::new(rate),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let upstream = upstream.to_path_buf();
        let acceptor = {
            let links = Arc::clone(&links);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { continue };
                    // A refused upstream closes the client, which then fails
                    // its own run loudly.
                    let Ok(server) = UnixStream::connect(&upstream) else {
                        continue;
                    };
                    let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone())
                    else {
                        continue;
                    };
                    let up = Arc::clone(&links);
                    pumps.push(std::thread::spawn(move || {
                        pump(client, server, &up.up);
                    }));
                    let down = Arc::clone(&links);
                    pumps.push(std::thread::spawn(move || {
                        pump(server2, client2, &down.down);
                    }));
                }
                for p in pumps {
                    let _ = p.join();
                }
            })
        };
        Ok(Relay {
            listen: listen.to_path_buf(),
            links,
            stop,
            acceptor,
        })
    }

    /// The counters right now (pumps may be mid-chunk).
    pub fn counters(&self) -> RelayCounters {
        read_counters(&self.links)
    }

    /// Stops accepting, waits for every pump to see its streams end, and
    /// returns the final counters.
    pub fn stop(self) -> RelayCounters {
        self.stop.store(true, Ordering::SeqCst);
        // Wakes the acceptor out of `accept`.
        drop(UnixStream::connect(&self.listen));
        let _ = self.acceptor.join();
        let _ = std::fs::remove_file(&self.listen);
        read_counters(&self.links)
    }
}

fn read_counters(links: &Links) -> RelayCounters {
    let read = |l: &Link| LinkCounters {
        bytes: l.bytes.load(Ordering::Relaxed),
        frames: l.frames.load(Ordering::Relaxed),
        frame_bytes: l.frame_bytes.load(Ordering::Relaxed),
        bad_magic: l.bad_magic.load(Ordering::Relaxed),
        dangling: l.dangling.load(Ordering::Relaxed),
    };
    RelayCounters {
        up: read(&links.up),
        down: read(&links.down),
    }
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

/// What [`selftest`] measured.
#[derive(Debug, Clone, Copy)]
pub struct SelfTest {
    /// Signed deviation of the throttled transfer time from bytes ÷ rate.
    pub rate_error_pct: f64,
    /// Cost of forwarding one megabyte with no rate limit.
    pub passthrough_ms_per_mb: f64,
    /// Bytes, order and frame counts survived writes split at odd sizes.
    pub split_ok: bool,
    /// Bytes pushed through the throttled link.
    pub throttled_bytes: u64,
}

impl SelfTest {
    /// The full check: intact bytes, and the transfer within 3 % of bytes ÷
    /// rate either way.
    pub fn passed(&self) -> bool {
        self.split_ok && self.rate_error_pct.abs() <= 3.0
    }

    /// What a defect of the relay would break: lost bytes, or a link faster
    /// than its rate. A transfer that took too long is the host not
    /// scheduling the pumps or the sender, which slows the workload behind
    /// the relay the same way it slows every other workload.
    pub fn sound(&self) -> bool {
        self.split_ok && self.rate_error_pct >= -3.0
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A stream of well-formed frames with pseudo-random bodies, `total` bytes
/// long, plus its frame count.
fn framed_stream(total: usize, body: usize) -> (Vec<u8>, u64) {
    let mut out = Vec::with_capacity(total);
    let mut frames = 0;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    while out.len() < total {
        let room = total - out.len();
        if room < FRAME_HEADER {
            // Pad the tail with empty frames' worth of header only if it
            // fits; otherwise stop short.
            break;
        }
        let len = body.min(room - FRAME_HEADER);
        out.push(FRAME_MAGIC);
        out.push(0x07);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        for _ in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.push(x as u8);
        }
        frames += 1;
    }
    (out, frames)
}

/// Sends `data` through a fresh relay to a sink that hashes what it gets,
/// writing in pieces of the sizes `pieces` cycles through. Returns the
/// seconds from first write to the sink's receipt, whether the sink saw the
/// same bytes, and the relay's counters.
fn push_through(
    dir: &Path,
    rate: Option<f64>,
    data: &[u8],
    pieces: &[usize],
) -> std::io::Result<(f64, bool, RelayCounters)> {
    let sink_path = dir.join("sink.sock");
    let relay_path = dir.join("rt.sock");
    let _ = std::fs::remove_file(&sink_path);
    let _ = std::fs::remove_file(&relay_path);
    let sink = UnixListener::bind(&sink_path)?;
    let sink_thread = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut conn, _) = sink.accept()?;
        let mut hash = FNV_OFFSET;
        let mut count = 0u64;
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            let n = conn.read(&mut buf)?;
            if n == 0 {
                break;
            }
            fnv1a(&mut hash, &buf[..n]);
            count += n as u64;
        }
        // The receipt is itself one well-formed frame.
        let mut receipt = vec![FRAME_MAGIC, 0x08];
        receipt.extend_from_slice(&16u32.to_le_bytes());
        receipt.extend_from_slice(&count.to_le_bytes());
        receipt.extend_from_slice(&hash.to_le_bytes());
        conn.write_all(&receipt)
    });
    let relay = Relay::start(&relay_path, &sink_path, rate)?;
    let mut conn = UnixStream::connect(&relay_path)?;
    let mut want = FNV_OFFSET;
    fnv1a(&mut want, data);

    let start = Instant::now();
    let mut rest = data;
    let mut i = 0;
    while !rest.is_empty() {
        let n = pieces[i % pieces.len()].min(rest.len());
        conn.write_all(&rest[..n])?;
        rest = &rest[n..];
        i += 1;
    }
    conn.shutdown(std::net::Shutdown::Write)?;
    let mut receipt = [0u8; FRAME_HEADER + 16];
    conn.read_exact(&mut receipt)?;
    let seconds = start.elapsed().as_secs_f64();
    drop(conn);

    sink_thread
        .join()
        .map_err(|_| std::io::Error::other("sink thread panicked"))??;
    let counters = relay.stop();
    let _ = std::fs::remove_file(&sink_path);
    let got_count = u64::from_le_bytes(receipt[6..14].try_into().expect("8 bytes"));
    let got_hash = u64::from_le_bytes(receipt[14..22].try_into().expect("8 bytes"));
    let intact = got_count == data.len() as u64 && got_hash == want;
    Ok((seconds, intact, counters))
}

/// Checks the relay against a sink inside this process: `throttled_bytes`
/// through a `rate` bytes/s link must take bytes ÷ rate seconds, a stream
/// written in pieces of every size from 1 to 17 bytes must arrive intact
/// with every frame counted, and an unthrottled transfer gives the relay's
/// own cost.
pub fn selftest(dir: &Path, rate: f64, throttled_bytes: usize) -> std::io::Result<SelfTest> {
    let (data, frames) = framed_stream(throttled_bytes, 65_530);
    let (seconds, intact, counters) = push_through(dir, Some(rate), &data, &[64 * 1024])?;
    let ideal = data.len() as f64 / rate;
    let rate_error_pct = (seconds - ideal) / ideal * 100.0;
    let throttled_ok = intact
        && counters.up.frames == frames
        && counters.up.bytes == data.len() as u64
        && counters.down.frames == 1
        && counters.frames_account_for_all_bytes();

    let (small, small_frames) = framed_stream(200_000, 97);
    let pieces: Vec<usize> = (1..=17).collect();
    let (_, small_intact, small_counters) = push_through(dir, None, &small, &pieces)?;
    let split_ok = small_intact
        && small_counters.up.frames == small_frames
        && small_counters.up.bytes == small.len() as u64
        && small_counters.frames_account_for_all_bytes();

    let (big, _) = framed_stream(32 << 20, 1 << 20);
    let (free_seconds, free_intact, _) = push_through(dir, None, &big, &[64 * 1024])?;

    Ok(SelfTest {
        rate_error_pct,
        passthrough_ms_per_mb: free_seconds * 1e3 / (big.len() as f64 / 1e6),
        split_ok: split_ok && throttled_ok && free_intact,
        throttled_bytes: data.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_counted_whatever_the_split() {
        let (stream, frames) = framed_stream(10_000, 97);
        for piece in [1, 2, 5, 6, 7, 103, 10_000] {
            let link = Link::new(None);
            let mut scan = FrameScan::default();
            for chunk in stream.chunks(piece) {
                scan.feed(chunk, &link);
            }
            assert_eq!(link.frames.load(Ordering::Relaxed), frames, "piece {piece}");
            assert_eq!(
                link.frame_bytes.load(Ordering::Relaxed),
                stream.len() as u64
            );
            assert_eq!(scan.dangling(), 0);
            assert_eq!(link.bad_magic.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn a_stream_cut_inside_a_frame_leaves_dangling_bytes() {
        let (stream, _) = framed_stream(1_000, 97);
        let link = Link::new(None);
        let mut scan = FrameScan::default();
        scan.feed(&stream[..103 + 50], &link);
        assert_eq!(link.frames.load(Ordering::Relaxed), 1);
        assert_eq!(scan.dangling(), 50);
    }
}
