//! The `redet serve` child process: spawning it, timing its set-up,
//! sampling its CPU time, and cross-checking its shutdown report against
//! the client's own counts.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single socket read may block before the request counts
/// as timed out.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a shut-down server may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// The counters of the `served …` line `redet serve` prints at exit, or
/// the client's own tally of the same events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Connections opened.
    pub connections: u64,
    /// `V` verdicts.
    pub documents: u64,
    /// … of which `ok`.
    pub accepted: u64,
    /// … of which `err`.
    pub rejected: u64,
    /// Handles swept for idleness.
    pub swept: u64,
    /// Successful `P` publishes.
    pub published: u64,
    /// Header lines refused as protocol errors.
    pub protocol_errors: u64,
}

impl Counts {
    /// Parses `served C connections, D documents (A ok, R err), S
    /// idle-swept, P published, E protocol errors`.
    pub fn parse(line: &str) -> Option<Counts> {
        let rest = line.strip_prefix("served ")?;
        let numbers: Vec<u64> = rest
            .split(|c: char| !c.is_ascii_digit())
            .filter(|t| !t.is_empty())
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let [connections, documents, accepted, rejected, swept, published, protocol_errors] =
            numbers[..]
        else {
            return None;
        };
        Some(Counts {
            connections,
            documents,
            accepted,
            rejected,
            swept,
            published,
            protocol_errors,
        })
    }

    /// Counts one `V` verdict.
    pub fn verdict(&mut self, ok: bool) {
        self.documents += 1;
        if ok {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Counts) {
        self.connections += other.connections;
        self.documents += other.documents;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.swept += other.swept;
        self.published += other.published;
        self.protocol_errors += other.protocol_errors;
    }
}

/// A running `redet serve`; killed and reaped on drop unless it was shut
/// down cleanly.
pub struct ServerProc {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    /// The address the server printed after binding.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `redet serve` on an ephemeral loopback port with `schemas`
    /// (`id=path` pairs), pinned to `cpu` through `taskset` when given, and
    /// waits for its `listening on` line.
    pub fn spawn(
        redet: &Path,
        schemas: &[String],
        cpu: Option<usize>,
    ) -> Result<ServerProc, String> {
        let mut command = pinned(redet, cpu);
        command.args(["serve", "--addr", "127.0.0.1:0"]);
        for schema in schemas {
            command.args(["--schema", schema]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", redet.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProc {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("redet serve exited before listening".to_owned()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr
                    .parse()
                    .map_err(|_| format!("unparsable listen address '{addr}'"))?;
                return Ok(server);
            }
        }
    }

    /// Connects a client socket with Nagle off and the read timeout set.
    pub fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(stream)
    }

    /// The server's on-CPU time so far in ns, summed over its threads.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        let pid = self.child.as_ref().map_or(0, Child::id);
        cpu_ns(pid)
    }

    /// Sends `Q`, waits for the process to exit, and returns the counters
    /// of its `served …` line.
    pub fn shutdown(mut self) -> Result<Counts, String> {
        let mut stream = self.connect()?;
        stream
            .write_all(b"Q\n")
            .map_err(|e| format!("write Q: {e}"))?;
        let mut line = String::new();
        BufReader::new(&stream)
            .read_line(&mut line)
            .map_err(|e| format!("read Q response: {e}"))?;
        if line.trim_end() != "ok" {
            return Err(format!("Q answered '{}'", line.trim_end()));
        }
        drop(stream);
        let mut child = self.child.take().expect("not yet reaped");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("redet serve did not exit after Q".to_owned());
                }
            }
        };
        if !status.success() {
            return Err(format!("redet serve exited with {status}"));
        }
        let mut served = None;
        for line in (&mut self.stdout).lines() {
            let line = line.map_err(|e| format!("read server output: {e}"))?;
            if let Some(counts) = Counts::parse(&line) {
                served = Some(counts);
            }
        }
        served.ok_or_else(|| "redet serve printed no 'served' line".to_owned())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A command running `program`, pinned to `cpu` through `taskset` (which
/// execs it, so the child's pid is the program's) when given.
pub fn pinned(program: &Path, cpu: Option<usize>) -> Command {
    match cpu {
        Some(cpu) => {
            let mut command = Command::new("taskset");
            command.arg("-c").arg(cpu.to_string()).arg(program);
            command
        }
        None => Command::new(program),
    }
}

/// On-CPU ns of process `pid`: the sum over its threads of the first field
/// of `/proc/<pid>/task/<tid>/schedstat`. An error where no thread's
/// schedstat can be read, so the measurement never changes method.
fn cpu_ns(pid: u32) -> Result<u64, String> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .map_err(|e| format!("cannot list the server's threads: {e}"))?;
    let mut total = None;
    for task in tasks.flatten() {
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        if let Some(ns) = text
            .split_whitespace()
            .next()
            .and_then(|t| t.parse::<u64>().ok())
        {
            *total.get_or_insert(0) += ns;
        }
    }
    total.ok_or_else(|| format!("no thread of process {pid} has a readable schedstat"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_served_line() {
        let line = "served 4 connections, 9002 documents (9000 ok, 2 err), 0 idle-swept, \
                    200 published, 0 protocol errors";
        assert_eq!(
            Counts::parse(line),
            Some(Counts {
                connections: 4,
                documents: 9002,
                accepted: 9000,
                rejected: 2,
                swept: 0,
                published: 200,
                protocol_errors: 0,
            })
        );
        assert_eq!(Counts::parse("listening on 127.0.0.1:1"), None);
        assert_eq!(Counts::parse("served 1 connections"), None);
    }

    #[test]
    fn reads_own_cpu_time() {
        let before = cpu_ns(std::process::id()).unwrap();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = cpu_ns(std::process::id()).unwrap();
        assert!(after > before, "{before} -> {after} ({x})");
    }
}
