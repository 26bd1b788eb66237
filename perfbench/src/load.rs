//! The loopback load client: one closed loop per connection (window 1
//! for `rr_small`, a fixed window on each of two connections for
//! `pipe_book`) and the open-loop sender/receiver pair of `tenant_churn`.
//! Every socket is blocking; the client waits in `read`, `write` and
//! `sleep`, never in a spin.

use crate::corpus::{Corpus, Slot};
use crate::server::{Counts, ServerProc};
use crate::trace::{Span, Tracer};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The measured window of a run: requests before `t0` warm the server up,
/// requests after `t_end` are not sent (closed loop) or not scheduled
/// (open loop).
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Start of measurement.
    pub t0: Instant,
    /// End of measurement.
    pub t_end: Instant,
}

impl Phase {
    /// A phase of `seconds` starting after `warmup` from now.
    pub fn after(warmup: Duration, seconds: f64) -> Phase {
        let t0 = Instant::now() + warmup;
        Phase {
            t0,
            t_end: t0 + Duration::from_secs_f64(seconds),
        }
    }

    fn contains(&self, t: Instant) -> bool {
        t >= self.t0 && t <= self.t_end
    }

    /// Number of measurement windows: the phase in [`WINDOW`]s, at least 2.
    fn windows(&self) -> u32 {
        ((self.t_end - self.t0).as_secs_f64() / WINDOW.as_secs_f64())
            .round()
            .max(2.0) as u32
    }
}

/// Length of the measurement windows a phase is split into; throughput
/// and server CPU are reported as medians over them.
const WINDOW: Duration = Duration::from_millis(500);

/// One document verdict received inside the measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the verdict line was read.
    pub at: Instant,
    /// From the request's send (closed loop) or due time (open loop), µs.
    pub latency_us: f64,
    /// The document's body bytes.
    pub body_bytes: usize,
}

/// What one load loop measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every document verdict received inside the phase.
    pub samples: Vec<Sample>,
    /// The server's on-CPU ns at each window boundary the loop passed.
    pub cpu_marks: Vec<(Instant, u64)>,
    /// Latency of each publish inside the phase, in µs.
    pub publish_us: Vec<f64>,
    /// How late the open-loop generator sent each request, in µs.
    pub lateness_us: Vec<f64>,
    /// Requests whose response was checked.
    pub attempted: u64,
    /// Mismatched verdicts, protocol errors, timeouts, failed publishes.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
    /// What the server should report for this loop's traffic.
    pub counts: Counts,
    /// Client spans, when traced.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts a failure and keeps its note if there is room.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    /// Folds another loop's outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.cpu_marks.extend(other.cpu_marks);
        self.publish_us.extend(other.publish_us);
        self.lateness_us.extend(other.lateness_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 5 {
                self.notes.push(note);
            }
        }
        self.counts.merge(other.counts);
        self.spans.extend(other.spans);
    }
}

/// Samples the server's CPU time when the loop first passes each window
/// boundary of the phase, from `t0` to `t_end`.
struct CpuSampler<'a> {
    server: &'a ServerProc,
    phase: Phase,
    windows: u32,
    next: u32,
    marks: Vec<(Instant, u64)>,
}

impl<'a> CpuSampler<'a> {
    fn new(server: &'a ServerProc, phase: Phase) -> Self {
        let windows = phase.windows();
        CpuSampler {
            server,
            phase,
            windows,
            next: 0,
            marks: Vec::with_capacity(windows as usize + 1),
        }
    }

    fn boundary(&self, k: u32) -> Instant {
        self.phase.t0 + (self.phase.t_end - self.phase.t0) * k / self.windows
    }

    /// Takes one sample if `now` passed the next boundary (skipping any
    /// boundaries passed meanwhile).
    fn poll(&mut self, now: Instant) -> Result<(), String> {
        if self.next > self.windows || now < self.boundary(self.next) {
            return Ok(());
        }
        while self.next <= self.windows && now >= self.boundary(self.next) {
            self.next += 1;
        }
        self.marks.push((now, self.server.cpu_ns()?));
        Ok(())
    }
}

/// Reads one response line; `Err` on EOF, timeout or a socket error.
fn read_line(reader: &mut impl BufRead, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("server closed the connection".to_owned()),
        Ok(_) => {
            if line.ends_with('\n') {
                line.pop();
            }
            Ok(())
        }
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Client spans each client thread keeps at most: enough for a timeline,
/// and a bound on what a pipelined pass writes to the trace file.
const CLIENT_SPANS: usize = 20_000;

/// Records a client span while the thread's tracer has room.
fn record(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    request: u64,
    start: Instant,
    end: Instant,
) {
    if let Some(t) = tracer.as_mut().filter(|t| t.spans().len() < CLIENT_SPANS) {
        t.record(name, None, request, start, end);
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Drives connection `conn` of `conns`: keeps `window` framed requests
/// outstanding, cycling through the pool from the connection's own offset,
/// until `phase.t_end`; then drains. Only the connection that passes
/// `sample_cpu` samples the server's CPU. Client spans number the
/// connection's `k`-th request `k * conns + conn`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    server: &ServerProc,
    corpus: &Corpus,
    requests: &[Vec<u8>],
    window: usize,
    (conn, conns): (usize, usize),
    phase: Phase,
    sample_cpu: bool,
    epoch: Option<Instant>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut cpu = sample_cpu.then(|| CpuSampler::new(server, phase));
    if let Err(e) = closed_inner(
        server,
        corpus,
        requests,
        window,
        (conn, conns),
        phase,
        cpu.as_mut(),
        epoch,
        &mut out,
    ) {
        out.fail(e);
    }
    out.cpu_marks = cpu.map_or_else(Vec::new, |c| c.marks);
    out
}

#[allow(clippy::too_many_arguments)]
fn closed_inner(
    server: &ServerProc,
    corpus: &Corpus,
    requests: &[Vec<u8>],
    window: usize,
    (conn, conns): (usize, usize),
    phase: Phase,
    mut cpu: Option<&mut CpuSampler<'_>>,
    epoch: Option<Instant>,
    out: &mut Outcome,
) -> Result<(), String> {
    let stream = server.connect()?;
    out.counts.connections += 1;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = &stream;
    let mut tracer = epoch.map(Tracer::new);
    let mut inflight: VecDeque<(usize, Instant, u64)> = VecDeque::with_capacity(window);
    let mut next = conn * requests.len() / conns;
    let mut seq = conn as u64;
    let mut line = String::new();
    loop {
        let now = Instant::now();
        if let Some(cpu) = cpu.as_mut() {
            cpu.poll(now)?;
        }
        if now < phase.t_end {
            while inflight.len() < window {
                let n = next % requests.len();
                next += 1;
                let sent = Instant::now();
                writer
                    .write_all(&requests[n])
                    .map_err(|e| format!("write: {e}"))?;
                record(&mut tracer, "client.write", seq, sent, Instant::now());
                inflight.push_back((n, sent, seq));
                seq += conns as u64;
            }
        }
        let Some(&(n, sent, id)) = inflight.front() else {
            break;
        };
        read_line(&mut reader, &mut line)?;
        let received = Instant::now();
        inflight.pop_front();
        record(&mut tracer, "client.verdict", id, sent, received);
        out.attempted += 1;
        let expected = &corpus.expected[n];
        if &line != expected {
            out.fail(format!("document {n}: expected '{expected}', got '{line}'"));
        }
        out.counts.verdict(expected == "ok");
        if phase.contains(received) {
            out.samples.push(Sample {
                at: received,
                latency_us: micros(received - sent),
                body_bytes: corpus.docs[n].body.len(),
            });
        }
    }
    if let Some(t) = tracer {
        out.spans = t.into_spans();
    }
    Ok(())
}

/// Sends `texts` as `P` requests one at a time on a fresh connection, each
/// after its pause in `gaps`, and times each until its `ok`. The pauses
/// put each publish at an unrelated point of the server's idle-sleep
/// cycle, as a publish from an independent client would be.
pub fn publish_probe(
    server: &ServerProc,
    corpus: &Corpus,
    texts: &[(usize, String)],
    gaps: &[Duration],
) -> Outcome {
    let mut out = Outcome::default();
    let result = (|| -> Result<(), String> {
        let stream = server.connect()?;
        out.counts.connections += 1;
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        for ((schema, text), gap) in texts.iter().zip(gaps) {
            std::thread::sleep(*gap);
            let request = crate::corpus::frame("P", &corpus.ids[*schema], text.as_bytes());
            let sent = Instant::now();
            (&stream)
                .write_all(&request)
                .map_err(|e| format!("write: {e}"))?;
            read_line(&mut reader, &mut line)?;
            out.publish_us.push(micros(sent.elapsed()));
            out.attempted += 1;
            if line == "ok" {
                out.counts.published += 1;
            } else {
                out.fail(format!("publish answered '{line}'"));
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        out.fail(e);
    }
    out
}

/// Drives the open loop: the calling thread sends slot `k` of `schedule`
/// when it falls due, `start + k / rate`, and a second thread reads the
/// responses in order. Latency runs from each request's due time.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    server: &ServerProc,
    corpus: &Corpus,
    schedule: &[Slot],
    expected: &[String],
    rate: f64,
    start: Instant,
    phase: Phase,
    epoch: Option<Instant>,
) -> Outcome {
    let mut out = Outcome::default();
    let stream = match server.connect() {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.counts.connections += 1;
    let requests: Vec<Vec<u8>> = schedule
        .iter()
        .map(|slot| match slot {
            Slot::Doc(n) => corpus.request(*n),
            Slot::Publish { schema, text } => {
                crate::corpus::frame("P", &corpus.ids[*schema], text.as_bytes())
            }
        })
        .collect();
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    std::thread::scope(|scope| {
        let receiver =
            scope.spawn(|| receive(&stream, corpus, schedule, expected, rx, phase, epoch));
        let sent = send(server, &stream, &requests, due, tx, phase, epoch);
        let received = receiver.join().unwrap_or_else(|_| {
            let mut failed = Outcome::default();
            failed.fail("receiver thread panicked".to_owned());
            failed
        });
        out.merge(sent);
        out.merge(received);
    });
    out
}

/// The open-loop sender: sleeps until each slot is due, announces it to
/// the receiver, then writes it.
fn send(
    server: &ServerProc,
    stream: &TcpStream,
    requests: &[Vec<u8>],
    due: impl Fn(usize) -> Instant,
    tx: mpsc::Sender<(usize, Instant)>,
    phase: Phase,
    epoch: Option<Instant>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut cpu = CpuSampler::new(server, phase);
    let mut tracer = epoch.map(Tracer::new);
    let mut writer = stream;
    for (k, request) in requests.iter().enumerate() {
        let at = due(k);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let sent = Instant::now();
        if let Err(e) = cpu.poll(sent) {
            out.fail(e);
            break;
        }
        if phase.contains(at) {
            out.lateness_us
                .push(micros(sent.saturating_duration_since(at)));
        }
        if tx.send((k, at)).is_err() {
            break; // the receiver already failed and said why
        }
        if let Err(e) = writer.write_all(request) {
            out.fail(format!("write: {e}"));
            break;
        }
        record(&mut tracer, "client.write", k as u64, sent, Instant::now());
    }
    drop(tx);
    let now = Instant::now();
    if now < phase.t_end {
        std::thread::sleep(phase.t_end - now);
    }
    if let Err(e) = cpu.poll(Instant::now()) {
        out.fail(e);
    }
    out.cpu_marks = cpu.marks;
    if let Some(t) = tracer {
        out.spans = t.into_spans();
    }
    out
}

/// The open-loop receiver: matches each response line to the oldest
/// announced slot and checks it against the oracle.
fn receive(
    stream: &TcpStream,
    corpus: &Corpus,
    schedule: &[Slot],
    expected: &[String],
    rx: mpsc::Receiver<(usize, Instant)>,
    phase: Phase,
    epoch: Option<Instant>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = epoch.map(Tracer::new);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for (k, due) in rx {
        if let Err(e) = read_line(&mut reader, &mut line) {
            out.fail(format!("slot {k}: {e}"));
            // Unblock the sender: it stops once the channel closes.
            break;
        }
        let received = Instant::now();
        record(&mut tracer, "client.verdict", k as u64, due, received);
        out.attempted += 1;
        if line != expected[k] {
            out.fail(format!(
                "slot {k}: expected '{}', got '{line}'",
                expected[k]
            ));
        }
        match &schedule[k] {
            Slot::Doc(n) => {
                out.counts.verdict(expected[k] == "ok");
                if phase.contains(received) {
                    out.samples.push(Sample {
                        at: received,
                        latency_us: micros(received - due),
                        body_bytes: corpus.docs[*n].body.len(),
                    });
                }
            }
            Slot::Publish { .. } => {
                if line == "ok" {
                    out.counts.published += 1;
                }
                if phase.contains(due) {
                    out.publish_us.push(micros(received - due));
                }
            }
        }
    }
    if let Some(t) = tracer {
        out.spans = t.into_spans();
    }
    out
}
