//! The open-loop load generator. One thread drives one non-blocking
//! connection: frames fall due on a fixed schedule (the pool's patterns
//! spread evenly at the target rate) and are written when due whether
//! or not earlier ones were answered. Each request is timed from when it
//! was due, so a stall is charged to every request it delays, and the
//! generator's own lateness is kept apart as `lag`.
//!
//! The thread polls its socket without sleeping, since a sleeping sender
//! wakes up tens of microseconds late and that would be charged to the
//! daemon; it yields between polls so that a daemon thread woken onto
//! its CPU runs at once instead of waiting out the spinner's time slice.
//! It holds one of the host's hardware threads for the length of a
//! phase.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dpsc_serve::wire::decode_response;
use dpsc_serve::Response;

use crate::traffic::Pool;

/// What one phase of traffic did.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Frames written.
    pub sent: u64,
    /// Frames answered (correctly or not).
    pub completed: u64,
    /// Patterns in frames answered with counts.
    pub patterns_answered: u64,
    pub errors: u64,
    pub overloaded: u64,
    /// Frames still unanswered when the drain window closed.
    pub unanswered: u64,
    /// Answers that differ from the oracle (or mix two epochs).
    pub mismatches: u64,
    /// Per answered frame: due time (from phase start) and latency from
    /// due, in nanoseconds, in completion order.
    pub due_ns: Vec<u64>,
    pub latency_ns: Vec<u64>,
    /// Per written frame: how late the generator wrote it.
    pub lag_ns: Vec<u64>,
    /// Frames still unanswered at the last due time.
    pub backlog_at_end: u64,
    /// When the schedule started.
    pub start: Option<Instant>,
    /// Length of the schedule.
    pub schedule_ns: u64,
    /// Frames due per second (patterns per second over mean batch).
    pub frames_per_s: f64,
}

impl PhaseResult {
    pub fn failed(&self) -> u64 {
        self.errors + self.overloaded + self.unanswered
    }
}

/// Checks one reply against the frame's expected answers.
fn matches(values: &[f64], expected: &[u64], alt: Option<&Vec<u64>>) -> bool {
    let eq = |want: &[u64]| {
        values.len() == want.len() && values.iter().zip(want).all(|(v, w)| v.to_bits() == *w)
    };
    eq(expected) || alt.is_some_and(|a| eq(a))
}

/// Runs `pool` frames from index `first` (wrapping) at `rate` patterns
/// per second for `duration`, then waits up to `drain` for the rest of
/// the answers. The stream is left blocking and empty of replies unless
/// the drain timed out.
pub fn run_phase(
    stream: &mut TcpStream,
    pool: &Pool,
    first: usize,
    rate: f64,
    duration: Duration,
    drain: Duration,
) -> PhaseResult {
    let frames = &pool.frames;
    // Due times: frame k is due once the patterns before it are due at
    // `rate` patterns per second.
    let mut due = Vec::new();
    let mut patterns_before = 0usize;
    let horizon = duration.as_nanos() as f64;
    loop {
        let t = patterns_before as f64 / rate * 1e9;
        if t >= horizon {
            break;
        }
        due.push(t as u64);
        patterns_before += frames[(first + due.len() - 1) % frames.len()].patterns.len();
    }
    let n = due.len();
    let frame_at = |k: usize| &frames[(first + k) % frames.len()];

    stream.set_nonblocking(true).expect("socket goes non-blocking");
    let mut res = PhaseResult {
        frames_per_s: n as f64 / duration.as_secs_f64(),
        schedule_ns: duration.as_nanos() as u64,
        ..PhaseResult::default()
    };
    res.lag_ns.reserve(n);
    res.latency_ns.reserve(n);
    res.due_ns.reserve(n);
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_sent = 0usize;
    let mut inbuf: Vec<u8> = vec![0; 1 << 16];
    let (mut in_start, mut in_end) = (0usize, 0usize);
    let mut next = 0usize;
    let mut done = 0usize;
    let start = Instant::now();
    res.start = Some(start);
    let deadline = duration + drain;
    loop {
        let now = start.elapsed().as_nanos() as u64;
        while next < n && due[next] <= now {
            let f = frame_at(next);
            out.extend_from_slice(&f.wire);
            res.lag_ns.push(now - due[next]);
            next += 1;
        }
        if out_sent < out.len() {
            match stream.write(&out[out_sent..]) {
                Ok(w) => out_sent += w,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("load generator write failed: {e}"),
            }
            if out_sent == out.len() {
                out.clear();
                out_sent = 0;
            }
        }
        if next == n && res.backlog_at_end == 0 && done < n {
            res.backlog_at_end = (n - done) as u64;
        }
        if in_end == inbuf.len() {
            if in_start > 0 {
                inbuf.copy_within(in_start..in_end, 0);
                in_end -= in_start;
                in_start = 0;
            } else {
                inbuf.resize(inbuf.len() * 2, 0);
            }
        }
        match stream.read(&mut inbuf[in_end..]) {
            Ok(0) => break,
            Ok(r) => in_end += r,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => panic!("load generator read failed: {e}"),
        }
        let mut got_any = false;
        while in_end - in_start >= 4 {
            let len =
                u32::from_le_bytes(inbuf[in_start..in_start + 4].try_into().expect("4 bytes"));
            let total = 4 + len as usize;
            if in_end - in_start < total {
                break;
            }
            let body = &inbuf[in_start + 4..in_start + total];
            let f = frame_at(done);
            match decode_response(body) {
                Ok(Response::Query { value }) if f.single => {
                    res.mismatches += u64::from(!matches(&[value], &f.expected, f.alt.as_ref()));
                    res.patterns_answered += 1;
                }
                Ok(Response::QueryBatch { values }) if !f.single => {
                    res.mismatches += u64::from(!matches(&values, &f.expected, f.alt.as_ref()));
                    res.patterns_answered += values.len() as u64;
                }
                Ok(Response::Overloaded) => res.overloaded += 1,
                Ok(Response::Error { .. }) => res.errors += 1,
                _ => res.mismatches += 1,
            }
            in_start += total;
            got_any = true;
            let now = start.elapsed().as_nanos() as u64;
            res.due_ns.push(due[done]);
            res.latency_ns.push(now.saturating_sub(due[done]));
            done += 1;
        }
        if in_start == in_end {
            in_start = 0;
            in_end = 0;
        }
        if done == n || (next == n && start.elapsed() >= deadline) {
            break;
        }
        if !got_any {
            std::thread::yield_now();
        }
    }
    res.sent = next as u64;
    res.completed = done as u64;
    res.unanswered = (next - done) as u64;
    stream.set_nonblocking(false).expect("socket goes blocking");
    res
}
