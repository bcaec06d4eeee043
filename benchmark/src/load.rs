//! The load generators and what they record.
//!
//! Every workload is driven the same way: one **driver** thread in a
//! closed loop (a fixed number of tickets in flight, waited oldest-first)
//! and one **updater** thread in an open loop (a batch every period,
//! timed from when it was *due*, so a stall is charged to every batch it
//! delays). Reads always run beside writes.

use crate::inputs::{Inputs, UpdateStream};
use crate::spans::SpanLog;
use crate::stats;
use bingo_gateway::Gateway;
use bingo_graph::{UpdateBatch, UpdateEvent, VertexId};
use bingo_service::{WalkRequest, WalkService, WalkTicket};
use bingo_walks::WalkSpec;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Nanoseconds since the start of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, due_ns: u64) {
        let now = self.now_ns();
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
    }
}

/// The measured part of a pass: `segments` equal slices after a discarded
/// warm-up. Per-segment figures are reduced by their median, so one
/// disturbed slice cannot move a result.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start_ns: u64,
    pub segment_ns: u64,
    pub segments: usize,
}

impl Window {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.segment_ns * self.segments as u64
    }

    fn segment_of(&self, t_ns: u64) -> Option<usize> {
        if t_ns < self.start_ns || t_ns >= self.end_ns() {
            return None;
        }
        Some(((t_ns - self.start_ns) / self.segment_ns) as usize)
    }
}

/// One completed ticket: `submit` entry to `wait` return.
#[derive(Debug, Clone, Copy)]
pub struct TicketRec {
    pub submit_ns: u64,
    pub done_ns: u64,
    pub steps: u32,
}

/// One update batch: due, handed to the program, visible to new steps.
#[derive(Debug, Clone, Copy)]
pub struct UpdateRec {
    pub due_ns: u64,
    pub start_ns: u64,
    pub visible_ns: u64,
    pub events: u32,
}

/// What one load thread observed.
#[derive(Debug, Default)]
pub struct LoadLog {
    pub tickets: Vec<TicketRec>,
    pub updates: Vec<UpdateRec>,
    pub spans: SpanLog,
    /// Operations attempted (tickets submitted + update batches sent).
    pub attempted: u64,
    /// Refused submissions, malformed paths, lost walks, rejected events.
    pub failed: u64,
    /// Walks handed in and walks handed back.
    pub walks_submitted: u64,
    pub walks_returned: u64,
    /// Engine-side applications the update batches should have produced
    /// (an insert or a delete is one, a bias rewrite is a delete plus an
    /// insert).
    pub applications_expected: u64,
    /// First few failure descriptions, for the operator.
    pub problems: Vec<String>,
}

impl LoadLog {
    pub fn new(traced: bool) -> LoadLog {
        LoadLog {
            spans: SpanLog::new(traced),
            ..LoadLog::default()
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn absorb(&mut self, other: LoadLog) {
        self.tickets.extend(other.tickets);
        self.updates.extend(other.updates);
        self.spans.absorb(other.spans);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.walks_submitted += other.walks_submitted;
        self.walks_returned += other.walks_returned;
        self.applications_expected += other.applications_expected;
        self.problems.extend(other.problems);
    }
}

/// Engine-side applications a batch stands for.
pub fn applications(batch: &UpdateBatch) -> u64 {
    batch
        .events()
        .iter()
        .map(|e| match e {
            UpdateEvent::UpdateBias { .. } => 2,
            _ => 1,
        })
        .sum()
}

/// Check one ticket's paths: one per start, each beginning at its start,
/// within the model's length, every vertex in range. Returns the steps
/// taken, or what was wrong.
pub fn check_paths(
    paths: &[Vec<VertexId>],
    starts: &[VertexId],
    walk_len: usize,
    num_vertices: usize,
) -> Result<u32, String> {
    if paths.len() != starts.len() {
        return Err(format!(
            "{} walks returned for {} starts",
            paths.len(),
            starts.len()
        ));
    }
    let mut steps = 0u32;
    for (path, &start) in paths.iter().zip(starts) {
        let well_formed = path.first() == Some(&start)
            && path.len() <= walk_len + 1
            && path.iter().all(|&v| (v as usize) < num_vertices);
        if !well_formed {
            return Err(format!("malformed path from start {start}: {path:?}"));
        }
        steps += (path.len() - 1) as u32;
    }
    Ok(steps)
}

/// The submit/wait surface of whichever layer a workload enters through.
pub trait Frontend: Sync {
    type Ticket;
    /// Span name of the submit call.
    const SUBMIT_SPAN: &'static str;
    fn submit(&self, lane: usize, starts: &[VertexId]) -> Result<Self::Ticket, String>;
    fn wait(&self, ticket: Self::Ticket) -> Result<Vec<Vec<VertexId>>, String>;
}

/// Straight into the sharded service.
pub struct ServiceFront<'a> {
    pub service: &'a WalkService,
    pub spec: WalkSpec,
}

impl Frontend for ServiceFront<'_> {
    type Ticket = WalkTicket;
    const SUBMIT_SPAN: &'static str = "service.submit";

    fn submit(&self, _lane: usize, starts: &[VertexId]) -> Result<WalkTicket, String> {
        self.service
            .submit(self.spec, starts)
            .map_err(|e| e.to_string())
    }

    fn wait(&self, ticket: WalkTicket) -> Result<Vec<Vec<VertexId>>, String> {
        Ok(self.service.wait(ticket).paths)
    }
}

/// The gateway's tenants: lane 0 is `heavy`, lane 1 is `light`.
pub const TENANTS: [(&str, u32); 2] = [("heavy", 3), ("light", 1)];

/// Through the multi-tenant gateway; the lane picks the tenant.
pub struct GatewayFront<'a> {
    pub gateway: &'a Gateway,
    pub spec: WalkSpec,
}

impl Frontend for GatewayFront<'_> {
    type Ticket = bingo_gateway::GatewayTicket;
    const SUBMIT_SPAN: &'static str = "gateway.submit";

    fn submit(&self, lane: usize, starts: &[VertexId]) -> Result<Self::Ticket, String> {
        let (tenant, weight) = TENANTS[lane];
        self.gateway
            .submit(
                WalkRequest::spec(self.spec)
                    .starts(starts.to_vec())
                    .tenant(tenant)
                    .weight(weight),
            )
            .map_err(|e| e.to_string())
    }

    fn wait(&self, ticket: Self::Ticket) -> Result<Vec<Vec<VertexId>>, String> {
        self.gateway
            .wait(ticket)
            .map(|r| r.paths)
            .map_err(|e| e.to_string())
    }
}

/// The driver's fixed load: `lanes × in_flight_per_lane` tickets
/// outstanding at all times.
#[derive(Debug, Clone, Copy)]
pub struct DriverShape {
    pub walk_len: usize,
    pub lanes: usize,
    pub in_flight_per_lane: usize,
}

struct Pending<T> {
    ticket: T,
    number: usize,
    lane: usize,
    submit_ns: u64,
    span: Option<u32>,
}

/// Closed-loop driver: keep the shape's tickets in flight until
/// `stop_ns`, always waiting for the oldest, then drain what is left.
pub fn drive<F: Frontend>(
    front: &F,
    inputs: &Inputs,
    shape: DriverShape,
    clock: &Clock,
    stop_ns: u64,
    traced: bool,
) -> LoadLog {
    let mut log = LoadLog::new(traced);
    let mut queue: VecDeque<Pending<F::Ticket>> = VecDeque::new();
    let mut number = 0usize;
    let mut submit = |lane: usize, log: &mut LoadLog, queue: &mut VecDeque<_>| {
        let starts = inputs.starts(number);
        log.attempted += 1;
        let submit_ns = clock.now_ns();
        let outcome = front.submit(lane, starts);
        let submitted_ns = clock.now_ns();
        match outcome {
            Ok(ticket) => {
                log.walks_submitted += starts.len() as u64;
                let span = log.spans.push("ticket", submit_ns, 0, None, number as u64);
                log.spans
                    .push(F::SUBMIT_SPAN, submit_ns, submitted_ns, span, number as u64);
                queue.push_back(Pending {
                    ticket,
                    number,
                    lane,
                    submit_ns,
                    span,
                });
            }
            Err(e) => log.fail(format!("submit refused: {e}")),
        }
        number += 1;
    };

    for _ in 0..shape.in_flight_per_lane {
        for lane in 0..shape.lanes {
            submit(lane, &mut log, &mut queue);
        }
    }
    loop {
        let draining = clock.now_ns() >= stop_ns;
        let Some(pending) = queue.pop_front() else {
            if draining {
                break;
            }
            // Every submission was refused: back off instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
            submit(0, &mut log, &mut queue);
            continue;
        };
        let wait_ns = clock.now_ns();
        let outcome = front.wait(pending.ticket);
        let done_ns = clock.now_ns();
        log.spans.push(
            "wait",
            wait_ns,
            done_ns,
            pending.span,
            pending.number as u64,
        );
        log.spans.close(pending.span, done_ns);
        let starts = inputs.starts(pending.number);
        match outcome
            .and_then(|paths| check_paths(&paths, starts, shape.walk_len, inputs.num_vertices))
        {
            Ok(steps) => {
                log.walks_returned += starts.len() as u64;
                log.tickets.push(TicketRec {
                    submit_ns: pending.submit_ns,
                    done_ns,
                    steps,
                });
            }
            Err(e) => log.fail(e),
        }
        if !draining {
            submit(pending.lane, &mut log, &mut queue);
        }
    }
    log
}

/// Open-loop updater: one batch every `period_ns`, `ingest` then `sync`,
/// until the next batch would be due past `stop_ns`. The next batch is
/// generated while waiting, never inside a timed interval.
pub fn pace_updates(
    service: &WalkService,
    stream: &mut UpdateStream,
    period_ns: u64,
    clock: &Clock,
    stop_ns: u64,
    traced: bool,
) -> LoadLog {
    let mut log = LoadLog::new(traced);
    let first_due = clock.now_ns();
    let mut batch = stream.next_batch();
    for k in 0u64.. {
        let due_ns = first_due + k * period_ns;
        if due_ns >= stop_ns {
            break;
        }
        clock.sleep_until(due_ns);
        log.attempted += 1;
        log.applications_expected += applications(&batch);
        let start_ns = clock.now_ns();
        let receipt = service.ingest(&batch);
        let ingested_ns = clock.now_ns();
        service.sync(receipt);
        let visible_ns = clock.now_ns();
        if receipt.events_routed != batch.len() {
            log.fail(format!(
                "{} of {} events routed",
                receipt.events_routed,
                batch.len()
            ));
        }
        let span = log.spans.push("update", due_ns, visible_ns, None, k);
        log.spans
            .push("service.ingest", start_ns, ingested_ns, span, k);
        log.spans
            .push("service.sync", ingested_ns, visible_ns, span, k);
        log.updates.push(UpdateRec {
            due_ns,
            start_ns,
            visible_ns,
            events: batch.len() as u32,
        });
        batch = stream.next_batch();
    }
    log
}

/// Figures reduced from one pass's records.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub steps_per_s: f64,
    pub ticket_p50_ms: f64,
    pub ticket_p95_ms: f64,
    pub ticket_p99_ms: f64,
    pub ticket_max_ms: f64,
    pub update_events_per_s: f64,
    pub update_visible_p50_ms: f64,
    pub update_visible_p95_ms: f64,
    pub update_gen_late_p95_ms: f64,
    pub steps_per_ticket: f64,
    pub segment_cv_pct: f64,
    pub min_tickets_per_segment: f64,
    /// Tickets in the quarter-emptiest segment: three segments in four
    /// hold at least this many.
    pub p25_tickets_per_segment: f64,
    pub measured_batches: f64,
}

const NS_PER_MS: f64 = 1e6;

/// Reduce a pass's tickets and update batches over the measured window.
/// A ticket belongs to the segment it completed in; a batch to the window
/// if it was due inside it.
pub fn summarize(window: &Window, tickets: &[TicketRec], updates: &[UpdateRec]) -> Summary {
    let mut seg_steps = vec![0u64; window.segments];
    let mut seg_latencies: Vec<Vec<f64>> = vec![Vec::new(); window.segments];
    for t in tickets {
        if let Some(s) = window.segment_of(t.done_ns) {
            seg_steps[s] += u64::from(t.steps);
            seg_latencies[s].push((t.done_ns - t.submit_ns) as f64 / NS_PER_MS);
        }
    }
    let segment_s = window.segment_ns as f64 / 1e9;
    let seg_rates: Vec<f64> = seg_steps.iter().map(|&s| s as f64 / segment_s).collect();
    // A segment that completed no ticket is not skipped: whatever was in
    // flight took at least the whole segment, so that is its p95.
    let seg_p95: Vec<f64> = seg_latencies
        .iter()
        .map(|l| match l.is_empty() {
            true => window.segment_ns as f64 / NS_PER_MS,
            false => stats::quantile(l, 0.95),
        })
        .collect();
    let seg_tickets: Vec<f64> = seg_latencies.iter().map(|l| l.len() as f64).collect();
    let all_latencies = stats::sorted(seg_latencies.iter().flatten().copied().collect());
    let measured_steps: u64 = seg_steps.iter().sum();

    let in_window: Vec<&UpdateRec> = updates
        .iter()
        .filter(|u| window.segment_of(u.due_ns).is_some())
        .collect();
    let visible: Vec<f64> = in_window
        .iter()
        .map(|u| (u.visible_ns - u.due_ns) as f64 / NS_PER_MS)
        .collect();
    let late: Vec<f64> = in_window
        .iter()
        .map(|u| (u.start_ns - u.due_ns) as f64 / NS_PER_MS)
        .collect();
    let events: u64 = in_window.iter().map(|u| u64::from(u.events)).sum();
    let service_ns: u64 = in_window.iter().map(|u| u.visible_ns - u.start_ns).sum();

    Summary {
        steps_per_s: stats::median(&seg_rates),
        ticket_p50_ms: stats::quantile_sorted(&all_latencies, 0.50),
        ticket_p95_ms: stats::median(&seg_p95),
        ticket_p99_ms: stats::quantile_sorted(&all_latencies, 0.99),
        ticket_max_ms: all_latencies.last().copied().unwrap_or(0.0),
        update_events_per_s: if service_ns == 0 {
            0.0
        } else {
            events as f64 / (service_ns as f64 / 1e9)
        },
        update_visible_p50_ms: stats::quantile(&visible, 0.50),
        update_visible_p95_ms: stats::quantile(&visible, 0.95),
        update_gen_late_p95_ms: stats::quantile(&late, 0.95),
        steps_per_ticket: if all_latencies.is_empty() {
            0.0
        } else {
            measured_steps as f64 / all_latencies.len() as f64
        },
        segment_cv_pct: stats::cv_pct(&seg_rates),
        min_tickets_per_segment: stats::quantile(&seg_tickets, 0.0),
        p25_tickets_per_segment: stats::quantile(&seg_tickets, 0.25),
        measured_batches: in_window.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_uses_segment_medians_and_due_times() {
        let window = Window {
            start_ns: 1_000,
            segment_ns: 1_000,
            segments: 3,
        };
        // Warm-up ticket (ignored), then 2/1/3 tickets per segment.
        let ticket = |submit_ns, done_ns| TicketRec {
            submit_ns,
            done_ns,
            steps: 10,
        };
        let tickets = [
            ticket(0, 500),
            ticket(900, 1_100),
            ticket(1_000, 1_900),
            ticket(1_500, 2_500),
            ticket(2_900, 3_100),
            ticket(3_000, 3_300),
            ticket(3_100, 3_999),
            ticket(3_900, 4_000),
        ];
        let updates = [
            UpdateRec {
                due_ns: 500,
                start_ns: 500,
                visible_ns: 600,
                events: 4,
            },
            UpdateRec {
                due_ns: 1_500,
                start_ns: 1_700,
                visible_ns: 2_000,
                events: 6,
            },
        ];
        let s = summarize(&window, &tickets, &updates);
        // Steps per segment 20/10/30 over 1 µs each: the median segment.
        assert_eq!(s.steps_per_s, 20.0 / 1e-6);
        assert_eq!(s.min_tickets_per_segment, 1.0);
        assert_eq!(s.p25_tickets_per_segment, 1.5);
        assert_eq!(s.steps_per_ticket, 10.0);
        // Only the batch due inside the window counts, timed from due.
        assert_eq!(s.measured_batches, 1.0);
        assert_eq!(s.update_visible_p50_ms, 500.0 / NS_PER_MS);
        assert_eq!(s.update_gen_late_p95_ms, 200.0 / NS_PER_MS);
        assert_eq!(s.update_events_per_s, 6.0 / 300e-9);
    }

    #[test]
    fn path_checks_catch_each_malformation() {
        let ok = vec![vec![3, 4, 5], vec![7]];
        assert_eq!(check_paths(&ok, &[3, 7], 2, 10), Ok(2));
        assert!(check_paths(&ok, &[3], 2, 10).is_err(), "lost walk");
        assert!(check_paths(&ok, &[4, 7], 2, 10).is_err(), "wrong start");
        assert!(check_paths(&ok, &[3, 7], 1, 10).is_err(), "too long");
        assert!(check_paths(&ok, &[3, 7], 2, 5).is_err(), "out of range");
        assert!(check_paths(&[vec![]], &[0], 2, 5).is_err(), "empty path");
    }
}
