//! The load generator: closed-loop and open-loop phases over keep-alive
//! connections, one thread and one connection per core.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::trace::{Span, Tracer};
use crate::workload::{Plan, Req};

/// What one phase saw.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Open loop only: `(request index, latency from the due time in
    /// µs)` per class.
    pub page_us: Vec<(u32, f64)>,
    pub report_us: Vec<(u32, f64)>,
    /// Open loop only: requests that failed or exceeded the latency limit.
    pub slo_misses: u64,
    /// Open loop only: worst delay between a request falling due (with
    /// its connection free) and the generator sending it, µs.
    pub max_lateness_us: f64,
    /// First failure, for the run log.
    pub first_error: Option<String>,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.page_us.extend(other.page_us);
        self.report_us.extend(other.report_us);
        self.slo_misses += other.slo_misses;
        self.max_lateness_us = self.max_lateness_us.max(other.max_lateness_us);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }
}

/// A request's latency limit: slower counts as an SLO miss.
pub const SLO: Duration = Duration::from_millis(20);

/// Sends `req`, checks the reply, and reconnects after a failure or an
/// announced close. Returns whether the response was correct.
fn send(
    plan: &Plan,
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    req: Req,
    buf: &mut Vec<u8>,
    trace_id: Option<u64>,
    tally: &mut Tally,
) -> bool {
    buf.clear();
    plan.encode(req, trace_id, buf);
    tally.attempted += 1;
    if conn.is_none() {
        match Conn::connect(addr) {
            Ok(c) => *conn = Some(c),
            Err(e) => {
                tally.fail(format!("connect: {e}"));
                return false;
            }
        }
    }
    let c = conn.as_mut().expect("connected above");
    let (ok, close) = match c.exchange(buf) {
        Ok(reply) => {
            let ok = plan.check(req, reply.status, reply.alternate, reply.body);
            if !ok {
                tally.fail(format!(
                    "wrong response to {req:?}: status {}, alternate {:?}, {} body bytes",
                    reply.status,
                    reply.alternate.map(String::from_utf8_lossy),
                    reply.body.len()
                ));
            }
            (ok, reply.close)
        }
        Err(e) => {
            tally.fail(format!("exchange: {e}"));
            (false, true)
        }
    };
    if close {
        *conn = None;
    }
    ok
}

/// Closed loop: `threads` connections, each with one request
/// outstanding, share `reqs` round-robin. Returns the tally and the
/// phase's wall time.
pub fn closed_loop(
    plan: &Plan,
    addr: SocketAddr,
    reqs: &[Req],
    threads: usize,
    tracer: Option<&Tracer>,
) -> (Tally, Duration) {
    let start = Instant::now();
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut conn = None;
                    let mut buf = Vec::with_capacity(2048);
                    for &req in reqs.iter().skip(t).step_by(threads) {
                        let id = tracer.map(Tracer::next_id);
                        let sent = Instant::now();
                        send(plan, addr, &mut conn, req, &mut buf, id, &mut tally);
                        if let (Some(tracer), Some(id)) = (tracer, id) {
                            tracer.record(Span::client(id, req, sent, Instant::now()));
                        }
                    }
                    tally
                })
            })
            .collect();
        for worker in workers {
            total.absorb(worker.join().expect("closed-loop client thread panicked"));
        }
    });
    (total, start.elapsed())
}

/// Open loop: request `i` falls due at `i / rate` seconds; connection
/// `i mod threads` sends it once due and free. Latency is timed from
/// the due time, so a stall also charges the requests queued behind it.
pub fn open_loop(
    plan: &Plan,
    addr: SocketAddr,
    reqs: &[Req],
    rate: f64,
    threads: usize,
    tracer: Option<&Tracer>,
) -> Tally {
    let start = Instant::now() + Duration::from_millis(5);
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut conn = None;
                    let mut buf = Vec::with_capacity(2048);
                    let mut free_at = start;
                    for (i, &req) in reqs.iter().enumerate().skip(t).step_by(threads) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ready = due.max(free_at);
                        let lateness = sent.saturating_duration_since(ready);
                        tally.max_lateness_us =
                            tally.max_lateness_us.max(lateness.as_secs_f64() * 1e6);
                        let id = tracer.map(Tracer::next_id);
                        let ok = send(plan, addr, &mut conn, req, &mut buf, id, &mut tally);
                        let done = Instant::now();
                        free_at = done;
                        if let (Some(tracer), Some(id)) = (tracer, id) {
                            tracer.record(Span::client(id, req, sent, done));
                        }
                        let latency = done - due;
                        if !ok || latency > SLO {
                            tally.slo_misses += 1;
                        }
                        if ok {
                            let us = latency.as_secs_f64() * 1e6;
                            if req.is_page() {
                                tally.page_us.push((i as u32, us));
                            } else {
                                tally.report_us.push((i as u32, us));
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        for worker in workers {
            total.absorb(worker.join().expect("open-loop client thread panicked"));
        }
    });
    total
}
