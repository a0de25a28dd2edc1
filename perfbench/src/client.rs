//! Keep-alive HTTP/1.1 client and the open- and closed-loop load generators.
//!
//! Every answer is checked where it lands: status 200, a body that parses as
//! JSON, and the `"type"` the request kind calls for. A request that fails
//! any of these counts as failed, never as a latency.

use crate::fixture::Key;
use crate::metrics::quantile;
use pathcost_server::json::{self, Json};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long before a request is due the open-loop sender stops sleeping and
/// spins instead.
const SPIN: Duration = Duration::from_micros(200);

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// One keep-alive round trip; returns the status and the body.
    pub fn post(&mut self, target: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Sends one request and checks the answer.
pub fn ask(conn: &mut Conn, key: &Key) -> Result<Json, String> {
    let (status, body) = conn
        .post("/query", &key.body)
        .map_err(|e| format!("transport: {e}"))?;
    check(status, &body, key.req.answer_type())
}

/// Status 200, well-formed JSON, and the expected answer type.
pub fn check(status: u16, body: &[u8], answer_type: &str) -> Result<Json, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(&body[..body.len().min(200)])
        ));
    }
    let json = json::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
    let got = json.get("type").and_then(Json::as_str);
    if got != Some(answer_type) {
        return Err(format!("expected a {answer_type} answer, got {got:?}"));
    }
    Ok(json)
}

/// Per-request outcome of the open loop.
#[derive(Clone, Copy, Default)]
pub struct Sample {
    /// Latency in µs from the scheduled send to the last byte read; `None`
    /// when the request failed.
    pub latency_us: Option<f64>,
    /// How late the send started against its schedule, µs.
    pub late_us: f64,
    /// Latency from the actual send, µs (excludes `late_us`).
    pub from_send_us: f64,
    /// Send start, seconds after the phase start.
    pub sent_s: f64,
}

/// One open-loop sender's samples, kept answers and first error.
type SenderLog = (Vec<(usize, Sample)>, Vec<(usize, Json)>, Option<String>);

pub struct OpenLoop {
    /// One sample per scheduled request, in schedule order.
    pub samples: Vec<Sample>,
    /// First error seen, if any.
    pub first_error: Option<String>,
    /// Bodies of the requests `keep` selected, by schedule index.
    pub kept: Vec<(usize, Json)>,
}

impl OpenLoop {
    pub fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.latency_us.is_none())
            .count()
    }

    /// Requests due by `t` seconds that had not started by then.
    pub fn backlog_at(&self, schedule: &[f64], t: f64) -> usize {
        schedule
            .iter()
            .zip(&self.samples)
            .filter(|(&due, s)| due <= t && s.sent_s > t)
            .count()
    }

    /// The backlog sampled every [`BACKLOG_STEP_S`] over the schedule.
    pub fn backlog_trend(&self, schedule: &[f64]) -> Backlog {
        let last_due = schedule.last().copied().unwrap_or(0.0);
        let steps = ((last_due / BACKLOG_STEP_S).round() as usize).max(4);
        let backlog: Vec<f64> = (1..=steps)
            .map(|k| self.backlog_at(schedule, k as f64 * last_due / steps as f64) as f64)
            .collect();
        let quarter = steps / 4;
        Backlog {
            early: quantile(&backlog[..quarter], 0.5),
            late: quantile(&backlog[steps - quarter..], 0.5),
            max: backlog.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// Interval at which the open loop's backlog is sampled, seconds.
const BACKLOG_STEP_S: f64 = 0.05;

/// The open loop's backlog over its schedule, in requests.
pub struct Backlog {
    /// Median over the first quarter of the schedule.
    pub early: f64,
    /// Median over the last quarter.
    pub late: f64,
    pub max: f64,
}

impl Backlog {
    /// The backlog grew when its median over the last quarter exceeds that
    /// over the first by more than two requests per connection. Medians, so
    /// that one stall of the machine, which leaves a backlog for some
    /// milliseconds, is not read as growth, while a rate above capacity,
    /// whose backlog climbs all along, is.
    pub fn grew(&self, conns: usize) -> bool {
        self.late > self.early + 2.0 * conns as f64
    }
}

/// Open loop: request `i` is due at `schedule[i]` seconds after the start,
/// whether or not earlier requests have finished. `conns` keep-alive
/// connections take due requests in order; each is timed from when it was
/// due, so a stall is charged to every request it delays.
pub fn open_loop(
    addr: SocketAddr,
    keys: &[Key],
    stream: &[u32],
    schedule: &[f64],
    conns: usize,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> OpenLoop {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    // A generator this far behind its schedule has a growing backlog: stop
    // sending, and leave the rest unsent (failed, and in the backlog).
    let last_due = schedule.last().copied().unwrap_or(0.0);
    let give_up = start + Duration::from_secs_f64(last_due + (0.5 * last_due).max(2.0));
    let per_thread: Vec<SenderLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).expect("connect to the server");
                    let mut out = Vec::new();
                    let mut kept = Vec::new();
                    let mut error = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= stream.len() {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(schedule[i]);
                        let now = Instant::now();
                        if now > give_up {
                            error.get_or_insert_with(|| {
                                "open loop fell too far behind its schedule".to_string()
                            });
                            continue;
                        }
                        // Sleep to just short of the due time, then spin:
                        // a thread that is already running sends on time,
                        // where one woken at the due time would send late
                        // by the scheduler's wake-up delay.
                        if due > now + SPIN {
                            std::thread::sleep(due - now - SPIN);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let sent = Instant::now();
                        let key = &keys[stream[i] as usize];
                        let mut sample = Sample {
                            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                            sent_s: (sent - start).as_secs_f64(),
                            ..Sample::default()
                        };
                        match ask(&mut conn, key) {
                            Ok(json) => {
                                let done = Instant::now();
                                sample.latency_us = Some((done - due).as_secs_f64() * 1e6);
                                sample.from_send_us = (done - sent).as_secs_f64() * 1e6;
                                if keep(i) {
                                    kept.push((i, json));
                                }
                            }
                            Err(e) => {
                                error.get_or_insert(e);
                                if let Ok(c) = Conn::connect(addr) {
                                    conn = c;
                                }
                            }
                        }
                        out.push((i, sample));
                    }
                    (out, kept, error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread"))
            .collect()
    });
    let unsent = Sample {
        sent_s: f64::INFINITY,
        ..Sample::default()
    };
    let mut samples = vec![unsent; stream.len()];
    let mut kept = Vec::new();
    let mut first_error = None;
    for (out, k, error) in per_thread {
        for (i, s) in out {
            samples[i] = s;
        }
        kept.extend(k);
        if first_error.is_none() {
            first_error = error;
        }
    }
    kept.sort_by_key(|(i, _)| *i);
    OpenLoop {
        samples,
        first_error,
        kept,
    }
}

pub struct ClosedLoop {
    pub ok: usize,
    /// Seconds after the start at which each successful answer arrived.
    pub done_s: Vec<f64>,
    pub failed: usize,
    pub elapsed_s: f64,
    /// Per connection, the key indices it completed, in order.
    pub sent: Vec<Vec<u32>>,
    pub first_error: Option<String>,
}

/// Closed loop: each of `streams.len()` connections sends its next request
/// as soon as the previous answer arrives, for `seconds`.
pub fn closed_loop(
    addr: SocketAddr,
    keys: &[Key],
    streams: &[Vec<u32>],
    seconds: f64,
) -> ClosedLoop {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).expect("connect to the server");
                    let (mut ok, mut failed) = (0, 0);
                    let mut sent = Vec::new();
                    let mut done_s = Vec::new();
                    let mut error = None;
                    for &k in stream.iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        match ask(&mut conn, &keys[k as usize]) {
                            Ok(_) => {
                                ok += 1;
                                done_s.push(start.elapsed().as_secs_f64());
                            }
                            Err(e) => {
                                failed += 1;
                                error.get_or_insert(e);
                                if let Ok(c) = Conn::connect(addr) {
                                    conn = c;
                                }
                            }
                        }
                        sent.push(k);
                    }
                    (ok, failed, sent, done_s, error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut out = ClosedLoop {
        ok: 0,
        done_s: Vec::new(),
        failed: 0,
        elapsed_s,
        sent: Vec::new(),
        first_error: None,
    };
    for (ok, failed, sent, done_s, error) in results {
        out.ok += ok;
        out.done_s.extend(done_s);
        out.failed += failed;
        out.sent.push(sent);
        if out.first_error.is_none() {
            out.first_error = error;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loop of `n` requests due every 2 ms, each sent at `sent(i)`.
    fn open_loop_sent(n: usize, sent: impl Fn(usize, f64) -> f64) -> (Vec<f64>, OpenLoop) {
        let schedule: Vec<f64> = (1..=n).map(|i| i as f64 * 0.002).collect();
        let samples = schedule
            .iter()
            .enumerate()
            .map(|(i, &due)| Sample {
                sent_s: sent(i, due),
                ..Sample::default()
            })
            .collect();
        let open = OpenLoop {
            samples,
            first_error: None,
            kept: Vec::new(),
        };
        (schedule, open)
    }

    #[test]
    fn a_stall_at_the_end_is_not_a_growing_backlog() {
        // On time, except a 10 ms stall over the last requests.
        let (schedule, open) = open_loop_sent(2_500, |i, due| if i >= 2_495 { 5.01 } else { due });
        let backlog = open.backlog_trend(&schedule);
        assert!(backlog.max >= 5.0);
        assert!(!backlog.grew(2));
    }

    #[test]
    fn a_rate_above_capacity_is_a_growing_backlog() {
        // Sends keep up with only two thirds of the rate.
        let (schedule, open) = open_loop_sent(2_500, |_, due| due * 1.5);
        assert!(open.backlog_trend(&schedule).grew(2));
    }
}
