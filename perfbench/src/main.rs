//! End-to-end loopback benchmark of `redet serve`.
//!
//! ```text
//! perfbench --redet <path to the redet binary> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1> [--server-cpu <n>]
//! ```
//!
//! One run generates the workload's schemas and documents from the seed,
//! computes every expected verdict in process, starts `redet serve` as a
//! child process several times to time its set-up, and drives the last
//! instance over the host loopback interface from this process (at most
//! two threads and two connections). Every response is checked against
//! the oracle, and the server's shutdown report against the client's own
//! counts. With `--trace 0` the last stdout line is the JSON result with
//! the end-to-end metrics. With `--trace 1` the pass is shorter and
//! records client spans, the in-process per-layer replays of `trace.rs`
//! follow, and the JSON carries the per-layer metrics. `run.py` builds
//! both binaries, pins this process to one CPU and passes another as
//! `--server-cpu`, so client and server never share a core by the
//! scheduler's choice.

mod corpus;
mod load;
mod server;
mod stats;
mod trace;

use corpus::{Corpus, Slot, Workload};
use load::{Outcome, Phase};
use redet_workloads::rng::StdRng;
use server::{Counts, ServerProc};
use stats::{median, percentile, tail_quantile};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// `redet serve` start-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Traffic before each measured phase.
const WARMUP: Duration = Duration::from_millis(500);
/// `pipe_book`: framed requests kept outstanding on each connection.
const PIPE_WINDOW: usize = 32;
/// `pipe_book`: connections, one per client thread.
const PIPE_CONNECTIONS: usize = 2;
/// `tenant_churn`: offered requests per second.
const CHURN_RATE: f64 = 2000.0;
/// `tenant_churn`: every this many slots is a publish.
const PUBLISH_EVERY: usize = 20;
/// Publishes timed after the measured phase of the closed-loop workloads.
const PROBE_PUBLISHES: usize = 500;
/// Range of the seeded pause before each of those publishes, in µs: wider
/// than the server's 1 ms idle sleep, so arrivals fall at every point of it.
const PROBE_GAP_US: std::ops::Range<u64> = 1_000..2_200;
/// Where traces and the run's schema files go, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";
/// Round trips of the loopback echo.
const RTT_ROUNDS: usize = 2000;
/// Documents each in-process replay covers at least.
const REPLAY_DOCS: usize = 2000;
/// Publish texts the registry replay compiles at most.
const REPLAY_PUBLISHES: usize = 200;
/// Share of `--seconds` a traced run measures end to end; the in-process
/// replays take about the rest.
const TRACED_PASS_SHARE: f64 = 0.7;
/// Rounds each document is replayed at least.
const REPLAY_ROUNDS: usize = 5;

struct Args {
    redet: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_cpu: Option<usize>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut redet = None;
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut server_cpu = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--redet" => redet = Some(PathBuf::from(value)),
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_owned());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    };
                }
                "--server-cpu" => {
                    server_cpu = Some(value.parse().map_err(|_| "bad --server-cpu")?);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Args {
            redet: redet.ok_or("--redet is required")?,
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            server_cpu,
        })
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("--burn") => return burn(),
        Some("--echo") => {
            if let Err(e) = trace::echo_serve() {
                eprintln!("perfbench --echo: {e}");
                std::process::exit(2);
            }
            return;
        }
        _ => {}
    }
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One metric of the JSON result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything the server will be sent, planned before it starts.
struct Plan {
    /// The framed request of each pool document.
    requests: Vec<Vec<u8>>,
    /// Seconds of the measured pass.
    seconds: f64,
    /// `tenant_churn`'s open-loop schedule, warm-up included.
    schedule: Vec<Slot>,
    /// The oracle's response line for each schedule slot.
    schedule_expected: Vec<String>,
    /// Publishes timed after the closed-loop workloads' measured pass.
    probe_publishes: Vec<(usize, String)>,
    /// The pause before each of those publishes.
    probe_gaps: Vec<Duration>,
}

impl Plan {
    fn new(args: &Args, corpus: &Corpus) -> Result<Plan, String> {
        let seconds = args.seconds * if args.trace { TRACED_PASS_SHARE } else { 1.0 };
        let churn = corpus.workload == Workload::TenantChurn;
        let slots = ((WARMUP.as_secs_f64() + seconds) * CHURN_RATE).ceil() as usize;
        let schedule = if churn {
            corpus.schedule(slots, PUBLISH_EVERY)
        } else {
            Vec::new()
        };
        let schedule_expected = corpus.oracle(&schedule)?;
        let probe_publishes = if churn {
            Vec::new()
        } else {
            (0..PROBE_PUBLISHES).map(|n| corpus.publish(n)).collect()
        };
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x9a95);
        let probe_gaps = probe_publishes
            .iter()
            .map(|_| Duration::from_micros(rng.gen_range(PROBE_GAP_US)))
            .collect();
        Ok(Plan {
            requests: (0..corpus.docs.len()).map(|n| corpus.request(n)).collect(),
            seconds,
            schedule,
            schedule_expected,
            probe_publishes,
            probe_gaps,
        })
    }

    /// Every text the server compiles after its startup schemas, in order.
    fn publish_texts(&self) -> Vec<String> {
        self.schedule
            .iter()
            .filter_map(|slot| match slot {
                Slot::Publish { text, .. } => Some(text.clone()),
                Slot::Doc(_) => None,
            })
            .chain(self.probe_publishes.iter().map(|(_, t)| t.clone()))
            .collect()
    }
}

/// Runs one benchmark; `Ok(false)` when any check failed.
fn run(args: &Args) -> Result<bool, String> {
    if !args.redet.is_file() {
        return Err(format!("no redet binary at {}", args.redet.display()));
    }
    let epoch = Instant::now();
    let workload = args.workload;
    let corpus = Corpus::generate(workload, args.seed)?;
    let plan = Plan::new(args, &corpus)?;
    let parallelism = effective_parallelism(args.server_cpu)?;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance: seed={} docs={} body_bytes={} corpus_hash={} schemas={} \
         scheduled_slots={} nproc={} effective_parallelism={parallelism:.3} \
         client_cpus={} server_cpu={} transport=host-loopback",
        args.seed,
        corpus.docs.len(),
        corpus.pool_bytes(),
        corpus.hash().hex(),
        corpus.ids.len(),
        plan.schedule.len(),
        online_cpus(),
        client_cpus(),
        args.server_cpu.map_or("any".to_owned(), |c| c.to_string()),
    );

    let work = Path::new(OUT_DIR).join(format!("work-{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = serve_and_measure(args, &corpus, &plan, &work, epoch);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, total) = result?;
    for note in &total.notes {
        eprintln!("perfbench: {note}");
    }
    let correct = total.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a run is already incorrect.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted,
        total.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Starts the server, runs the workload, checks everything, and returns
/// the metrics with the checked totals.
fn serve_and_measure(
    args: &Args,
    corpus: &Corpus,
    plan: &Plan,
    work: &Path,
    epoch: Instant,
) -> Result<(Vec<Metric>, Outcome), String> {
    let workload = corpus.workload;
    let mut schema_args = Vec::new();
    for (id, source) in corpus.ids.iter().zip(&corpus.sources) {
        let path = work.join(format!("{id}.dtd"));
        std::fs::write(&path, source).map_err(|e| format!("{}: {e}", path.display()))?;
        schema_args.push(format!("{id}={}", path.display()));
    }

    // Set-up: spawn → every schema compiled → first `ok` verdict, timed
    // SETUPS times; all but the last instance shut down at once.
    let first_ok = &plan.requests[corpus.first_ok()];
    let mut total = Outcome::default();
    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let instance = ServerProc::spawn(&args.redet, &schema_args, args.server_cpu)?;
        let mut expect = Counts::default();
        first_verdict(&instance, first_ok, &mut total, &mut expect)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            expect.connections += 1; // the Q connection
            cross_check(instance.shutdown()?, expect, &mut total);
        } else {
            server = Some((instance, expect));
        }
    }
    let (server, mut expect) = server.expect("SETUPS > 0");

    // The measured pass; a traced run also records client spans.
    let traced = args.trace.then_some(epoch);
    let requests = &plan.requests;
    let ticks_before = host_cpu_ticks();
    let mut pass = match workload {
        Workload::RrSmall => {
            let phase = Phase::after(WARMUP, plan.seconds);
            load::closed_loop(&server, corpus, requests, 1, (0, 1), phase, true, traced)
        }
        Workload::PipeBook => {
            let phase = Phase::after(WARMUP, plan.seconds);
            let mut merged = Outcome::default();
            std::thread::scope(|scope| {
                let others: Vec<_> = (1..PIPE_CONNECTIONS)
                    .map(|c| {
                        let server = &server;
                        scope.spawn(move || {
                            let conn = (c, PIPE_CONNECTIONS);
                            load::closed_loop(
                                server,
                                corpus,
                                requests,
                                PIPE_WINDOW,
                                conn,
                                phase,
                                false,
                                traced,
                            )
                        })
                    })
                    .collect();
                let conn = (0, PIPE_CONNECTIONS);
                merged.merge(load::closed_loop(
                    &server,
                    corpus,
                    requests,
                    PIPE_WINDOW,
                    conn,
                    phase,
                    true,
                    traced,
                ));
                for other in others {
                    match other.join() {
                        Ok(outcome) => merged.merge(outcome),
                        Err(_) => merged.fail("client thread panicked".to_owned()),
                    }
                }
            });
            merged
        }
        Workload::TenantChurn => {
            let start = Instant::now() + Duration::from_millis(5);
            let phase = Phase {
                t0: start + WARMUP,
                t_end: start + WARMUP + Duration::from_secs_f64(plan.seconds),
            };
            load::open_loop(
                &server,
                corpus,
                &plan.schedule,
                &plan.schedule_expected,
                CHURN_RATE,
                start,
                phase,
                traced,
            )
        }
    };
    let ticks_after = host_cpu_ticks();
    let probe = load::publish_probe(&server, corpus, &plan.probe_publishes, &plan.probe_gaps);

    // A traced run's in-process work, while the server idles.
    let mut tracer = Tracer::new(epoch);
    let layers = if args.trace {
        let responses: Vec<usize> = corpus.expected.iter().map(String::len).collect();
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let rtt =
            trace::socket_rtt_p50_us(&exe, args.server_cpu, requests, &responses, RTT_ROUNDS)?;
        let mut publishes = plan.publish_texts();
        publishes.truncate(REPLAY_PUBLISHES);
        let mut layers =
            trace::replay(corpus, &publishes, REPLAY_DOCS, REPLAY_ROUNDS, &mut tracer)?;
        layers.socket_rtt_p50_us = rtt;
        Some(layers)
    } else {
        None
    };

    // Shutdown, and the cross-check of the server's counts from outside.
    expect.merge(pass.counts);
    expect.merge(probe.counts);
    expect.connections += 1; // the Q connection
    cross_check(server.shutdown()?, expect, &mut total);

    let e2e = end_to_end(workload, &pass, &probe, epoch)?;
    let metrics = match layers {
        None => vec![
            metric("latency_p50_us", e2e.p50, "us"),
            metric("latency_p99_us", e2e.p99, "us"),
            metric("throughput_docs_per_s", e2e.throughput, "docs/s"),
            metric("goodput_mb_per_s", e2e.goodput, "MB/s"),
            metric("server_cpu_us_per_doc", e2e.cpu_us_per_doc, "us"),
            metric("publish_p50_us", e2e.publish_p50, "us"),
            metric("setup_s", median(&setup_s), "s"),
        ],
        Some(layers) => {
            if layers.mismatches > 0 {
                total.fail(format!("{} replayed verdicts disagree", layers.mismatches));
            }
            tracer.extend(std::mem::take(&mut pass.spans));
            let path =
                Path::new(OUT_DIR).join(format!("trace-{}-seed{}.csv", workload.name(), args.seed));
            tracer
                .write_csv(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
            layer_metrics(workload, &layers, &e2e)
        }
    };

    // The human-readable report: all eight end-to-end figures.
    total.merge(pass);
    total.merge(probe);
    print_e2e(workload, &e2e, median(&setup_s), &total);
    if let (Some((steal0, all0)), Some((steal1, all1))) = (ticks_before, ticks_after) {
        println!(
            "host steal {:.2}% of all CPUs' time during warm-up and pass",
            (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64 * 100.0
        );
    }
    Ok((metrics, total))
}

/// Splits the end-to-end time per document into the layers, prints the
/// table, and returns the per-layer metrics.
fn layer_metrics(workload: Workload, layers: &trace::Layers, e2e: &E2e) -> Vec<Metric> {
    // Pipelined requests overlap, so there a document costs the wall time
    // between verdicts; elsewhere it costs its own latency, socket included.
    let (e2e_us, socket) = match workload {
        Workload::PipeBook => (1e6 / e2e.throughput, None),
        Workload::RrSmall | Workload::TenantChurn => (e2e.p50, Some(layers.socket_rtt_p50_us)),
    };
    let registry_us = match workload {
        Workload::TenantChurn => layers.compile_cold_us / (PUBLISH_EVERY - 1) as f64,
        Workload::RrSmall | Workload::PipeBook => 0.0,
    };
    let d = trace::decompose(layers, e2e_us, socket, registry_us);
    println!("layer table ({}, µs per document):", workload.name());
    for (name, us) in &d.layers {
        println!("  {name:<10} {us:>12.3} {:>7.2}%", us / d.e2e_us * 100.0);
    }
    println!(
        "  {:<10} {:>12.3} {:>7.2}%",
        "remainder",
        d.remainder_us,
        d.remainder_share() * 100.0
    );
    println!(
        "  {:<10} {:>12.3} (layers + remainder = {:.3})",
        "e2e",
        d.e2e_us,
        d.total_us()
    );
    println!(
        "trace overhead {:.2}% on the request-path replay",
        layers.overhead_pct
    );
    vec![
        metric("socket.rtt_p50_us", layers.socket_rtt_p50_us, "us"),
        metric("remainder_us_per_doc", d.remainder_us, "us"),
        metric("router.open_ns", layers.router_open_ns, "ns"),
        metric("router.finish_ns", layers.router_finish_ns, "ns"),
        metric(
            "service.feed_bytes_ns_per_kb",
            layers.feed_ns_per_kb,
            "ns/KB",
        ),
        metric(
            "tokenizer.feed_ns_per_kb",
            layers.tokenizer_ns_per_kb,
            "ns/KB",
        ),
        metric("tokenizer.tags_per_kb", layers.tags_per_kb, "count/KB"),
        metric(
            "validator.ns_per_event",
            layers.validator_ns_per_event,
            "ns",
        ),
        metric("validator.events_per_doc", layers.events_per_doc, "count"),
        metric("core.ns_per_step", layers.core_ns_per_step, "ns"),
        metric("core.steps_per_doc", layers.steps_per_doc, "count"),
        metric("wire.render_ns", layers.wire_render_ns, "ns"),
        metric("registry.compile_cold_us", layers.compile_cold_us, "us"),
        metric("registry.compile_cached_us", layers.compile_cached_us, "us"),
        metric("registry.hit_ratio", layers.hit_ratio, "ratio"),
        metric("trace.overhead_pct", layers.overhead_pct, "%"),
    ]
}

/// Prints every end-to-end figure, `error_rate` included, with its unit.
fn print_e2e(workload: Workload, e2e: &E2e, setup_s: f64, total: &Outcome) {
    println!(
        "latency_p50_us        {:>12.3} us   (n={})",
        e2e.p50, e2e.samples
    );
    println!(
        "latency_p99_us        {:>12.3} us   (lowest p99 of {} chunks of >= {} samples; \
         all n={}: p99 {:.3} us has {} beyond, tail rule picks p{})",
        e2e.p99,
        e2e.p99_chunks,
        e2e.samples / e2e.p99_chunks,
        e2e.samples,
        e2e.p99_all,
        stats::beyond(e2e.samples, 0.99),
        e2e.tail
            .map_or("-".to_owned(), |q| format!("{}", q * 100.0))
    );
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("median of {} windows, {lo:.3}..{hi:.3}", v.len())
    };
    println!(
        "throughput_docs_per_s {:>12.3} docs/s ({})",
        e2e.throughput,
        range(&e2e.window_rates)
    );
    println!("goodput_mb_per_s      {:>12.3} MB/s", e2e.goodput);
    println!(
        "server_cpu_us_per_doc {:>12.3} us   ({})",
        e2e.cpu_us_per_doc,
        range(&e2e.window_cpu_us)
    );
    println!(
        "publish_p50_us        {:>12.3} us   (n={}, {})",
        e2e.publish_p50,
        e2e.publishes,
        if workload == Workload::TenantChurn {
            "in the open loop"
        } else {
            "probe after the measured pass"
        }
    );
    println!("setup_s               {setup_s:>12.6} s    (median of {SETUPS})");
    println!(
        "error_rate            {:>12.6} ratio ({} failed of {} attempted)",
        total.failed as f64 / total.attempted.max(1) as f64,
        total.failed,
        total.attempted
    );
    if let Some(late) = e2e.lateness_p99 {
        println!("generator lateness p99 {late:.1} us behind schedule");
    }
}

/// The end-to-end figures of one measured pass.
struct E2e {
    p50: f64,
    p99: f64,
    p99_chunks: usize,
    p99_all: f64,
    samples: usize,
    window_rates: Vec<f64>,
    window_cpu_us: Vec<f64>,
    tail: Option<f64>,
    throughput: f64,
    goodput: f64,
    cpu_us_per_doc: f64,
    publish_p50: f64,
    publishes: usize,
    lateness_p99: Option<f64>,
}

fn end_to_end(
    workload: Workload,
    pass: &Outcome,
    probe: &Outcome,
    epoch: Instant,
) -> Result<E2e, String> {
    let seconds = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64();
    let mut samples = pass.samples.clone();
    samples.sort_by_key(|s| s.at);
    let mut marks = pass.cpu_marks.clone();
    marks.sort_by_key(|m| m.0);
    let arrivals: Vec<(f64, usize)> = samples
        .iter()
        .map(|s| (seconds(s.at), s.body_bytes))
        .collect();
    let marks: Vec<(f64, u64)> = marks.iter().map(|&(t, ns)| (seconds(t), ns)).collect();
    let windows = stats::windows(&marks, &arrivals);
    if windows.is_empty() {
        return Err(format!(
            "{}: no verdict inside a measurement window",
            workload.name()
        ));
    }
    let in_order: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
    let mut latency = in_order.clone();
    latency.sort_by(f64::total_cmp);
    // A pipelined window of requests waits out a stall together.
    let group = match workload {
        Workload::PipeBook => PIPE_WINDOW * PIPE_CONNECTIONS,
        Workload::RrSmall | Workload::TenantChurn => 1,
    };
    let (p99, chunks) = stats::quietest_chunk_percentile(&in_order, 0.99, group);
    let publishes = if workload == Workload::TenantChurn {
        &pass.publish_us
    } else {
        &probe.publish_us
    };
    if publishes.is_empty() {
        return Err("no publish was timed".to_owned());
    }
    let lateness_p99 = (!pass.lateness_us.is_empty()).then(|| {
        let mut late = pass.lateness_us.clone();
        late.sort_by(f64::total_cmp);
        percentile(&late, 0.99)
    });
    let per_window =
        |f: &dyn Fn(&stats::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    Ok(E2e {
        p50: percentile(&latency, 0.5),
        p99,
        p99_chunks: chunks,
        p99_all: percentile(&latency, 0.99),
        samples: latency.len(),
        tail: tail_quantile(latency.len()),
        throughput: per_window(&stats::Window::docs_per_s),
        goodput: per_window(&|w| w.bytes_per_s() / 1e6),
        cpu_us_per_doc: per_window(&|w| w.cpu_ns_per_doc() / 1000.0),
        window_rates: windows.iter().map(stats::Window::docs_per_s).collect(),
        window_cpu_us: windows
            .iter()
            .map(|w| w.cpu_ns_per_doc() / 1000.0)
            .collect(),
        publish_p50: median(publishes),
        publishes: publishes.len(),
        lateness_p99,
    })
}

/// Sends the set-up probe and waits for its `ok`.
fn first_verdict(
    server: &ServerProc,
    request: &[u8],
    total: &mut Outcome,
    expect: &mut Counts,
) -> Result<(), String> {
    let stream = server.connect()?;
    expect.connections += 1;
    (&stream)
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    total.attempted += 1;
    expect.verdict(true);
    if line.trim_end() != "ok" {
        return Err(format!("set-up probe answered '{}'", line.trim_end()));
    }
    Ok(())
}

/// Compares the server's shutdown report with the client's counts.
fn cross_check(served: Counts, expect: Counts, total: &mut Outcome) {
    total.attempted += 1;
    if served != expect {
        total.failed += 1;
        total.notes.push(format!(
            "server reported {served:?}, client counted {expect:?}"
        ));
    }
}

/// Serial time of two equal CPU burns over the time of the same two burns
/// run at once, one here and one in a child process on the server's CPU:
/// about 2 when the client's and the server's CPUs run in parallel, about
/// 1 when they share one core.
fn effective_parallelism(server_cpu: Option<usize>) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let start = Instant::now();
    burn();
    burn();
    let serial = start.elapsed();
    let start = Instant::now();
    let mut child = server::pinned(&exe, server_cpu)
        .arg("--burn")
        .spawn()
        .map_err(|e| format!("parallelism probe: {e}"))?;
    burn();
    let status = child
        .wait()
        .map_err(|e| format!("parallelism probe: {e}"))?;
    if !status.success() {
        return Err(format!("parallelism probe exited with {status}"));
    }
    Ok(serial.as_secs_f64() / start.elapsed().as_secs_f64())
}

/// A fixed CPU-bound loop of a few tens of milliseconds.
fn burn() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..30_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
}

/// CPUs online on the host, from `/sys/devices/system/cpu/online` (a list
/// of ranges such as `0-1`); the affinity mask does not narrow it.
fn online_cpus() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .map(|list| {
            list.trim()
                .split(',')
                .map(|range| match range.split_once('-') {
                    Some((a, b)) => {
                        b.parse::<usize>().unwrap_or(0) + 1 - a.parse::<usize>().unwrap_or(0)
                    }
                    None => 1,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Steal and total ticks of all CPUs so far, from the `cpu` line of
/// `/proc/stat`: the time the hypervisor gave the host's virtual CPUs to
/// someone else, a diagnostic for runs whose figures stand apart.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The CPUs this process may run on, from `/proc/self/status`.
fn client_cpus() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("Cpus_allowed_list:")
                    .map(|v| v.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
