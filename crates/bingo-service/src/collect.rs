//! Collection: the ticket table behind `service.pending`.
//!
//! A walk is filed where it finishes: the shard task that ran its last
//! step puts it in its ticket's slot (`Collector::file`). A ticket's last
//! walk signals the condvar, then calls the ticket's notifier, if any
//! ([`WalkService::submit_notify`]), with `service.pending` released.
//! [`WalkService::wait`] checks its ticket and parks on the same mutex, so
//! a completion can never slip between the check and the park;
//! [`WalkService::try_wait`] locks and checks. Results are built, and
//! capture faults asserted, on the thread that takes them.

use crate::service::{WalkService, WalkTicket};
use bingo_graph::VertexId;
use bingo_telemetry::{names, Histogram, Telemetry, TraceStage};
use bingo_walks::walk_store::WalkStore;
use bingo_walks::Walk;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A ticket's completion notifier ([`WalkService::submit_notify`]).
pub(crate) type Notify = Arc<dyn Fn(WalkTicket) + Send + Sync>;

/// Results of one walk submission.
#[derive(Debug, Clone)]
pub struct TicketResults {
    /// The ticket these results answer.
    pub ticket: WalkTicket,
    /// The walk that was run.
    pub walk: Walk,
    /// One path per submitted start vertex, in submission order.
    pub paths: Vec<Vec<VertexId>>,
    /// Wall-clock time from submission to the last walker finishing.
    pub latency: Duration,
}

impl TicketResults {
    /// Total steps across all walks of this ticket.
    pub fn total_steps(&self) -> usize {
        self.paths.iter().map(|p| p.len().saturating_sub(1)).sum()
    }

    /// Deposit the collected walks into a Wharf-style [`WalkStore`] for
    /// incremental maintenance, indexed over `num_vertices` vertices.
    ///
    /// The store keeps the ticket's walk, so a refresh resumes it.
    pub fn into_walk_store(self, num_vertices: usize, seed: u64) -> WalkStore {
        WalkStore::from_walks(self.paths, num_vertices, self.walk, seed)
    }
}

/// A completed walk on its way into its ticket's slot.
pub(crate) struct FinishedWalk {
    pub(crate) ticket: u64,
    pub(crate) index: u32,
    pub(crate) path: Vec<VertexId>,
    pub(crate) hops: u32,
    /// Second-order membership queries this walk answered without carried
    /// context on a non-owning shard (capture faults).
    pub(crate) context_misses: u64,
    /// Whether the walk is in the telemetry trace sample; filing it emits
    /// its `Collect` span.
    pub(crate) sampled: bool,
    /// Worker-side completion time, so ticket latency measures when the
    /// walk actually finished, not when it was collected.
    pub(crate) finished_at: Instant,
}

struct PendingTicket {
    walk: Walk,
    walks: Vec<Option<FinishedWalk>>,
    received: usize,
    submitted_at: Instant,
    /// Latest worker-side completion time seen so far.
    last_finish: Option<Instant>,
    /// Called once, with no lock held, when the last walk is filed.
    notify: Option<Notify>,
}

/// The outstanding tickets and the condvar their waiters park on.
pub(crate) struct Collector {
    pending: Mutex<HashMap<u64, PendingTicket>>,
    /// Signalled whenever a ticket's last walk is filed.
    pending_cv: Condvar,
    telemetry: Telemetry,
    /// `service.collect_ns`: walk finish → filed under its ticket.
    collect_ns: Histogram,
    /// `service.ticket.latency_ns`: submit → last walk of the ticket done.
    ticket_latency_ns: Histogram,
}

impl Collector {
    pub(crate) fn new(telemetry: &Telemetry, labels: &[(&str, &str)]) -> Self {
        Collector {
            pending: Mutex::new_named(HashMap::new(), "service.pending"),
            pending_cv: Condvar::new(),
            collect_ns: telemetry.histogram_with(names::SERVICE_COLLECT_NS, labels),
            ticket_latency_ns: telemetry.histogram_with(names::SERVICE_TICKET_LATENCY_NS, labels),
            telemetry: telemetry.clone(),
        }
    }

    /// Open `ticket` with one empty slot per walk. A ticket of zero walks
    /// is complete from the start.
    pub(crate) fn open(&self, ticket: u64, walk: Walk, walks: usize, notify: Option<Notify>) {
        self.pending.lock().insert(
            ticket,
            PendingTicket {
                walk,
                walks: (0..walks).map(|_| None).collect(),
                received: 0,
                // lint:allow(determinism): latency stamp feeding the
                // ticket-latency histogram (telemetry only).
                submitted_at: Instant::now(),
                last_finish: None,
                notify,
            },
        );
    }

    /// File a finished walk in its ticket's slot and, when that completes
    /// the ticket, wake the waiters and then call its notifier with
    /// `service.pending` released. Called by the shard task that finished
    /// the walk, with no other lock held.
    pub(crate) fn file(&self, finished: FinishedWalk) {
        let finished_at = finished.finished_at;
        let ticket = WalkTicket(finished.ticket);
        let complete = {
            let mut pending = self.pending.lock();
            let Some(entry) = pending.get_mut(&finished.ticket) else {
                return;
            };
            if finished.sampled {
                let latency = finished_at.saturating_duration_since(entry.submitted_at);
                self.telemetry.trace(
                    finished.ticket,
                    finished.index,
                    TraceStage::Collect {
                        path_len: finished.path.len() as u32,
                        hops: finished.hops,
                        latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
                    },
                );
            }
            let slot = finished.index as usize;
            if entry.walks[slot].is_none() {
                entry.received += 1;
            }
            entry.last_finish = Some(
                entry
                    .last_finish
                    .map_or(finished_at, |t| t.max(finished_at)),
            );
            entry.walks[slot] = Some(finished);
            (entry.received == entry.walks.len()).then(|| entry.notify.take())
        };
        if self.collect_ns.is_enabled() {
            self.collect_ns.record_duration(finished_at.elapsed());
        }
        if let Some(notify) = complete {
            self.pending_cv.notify_all();
            if let Some(notify) = notify {
                notify(ticket);
            }
        }
    }

    /// Extract `ticket`'s results if every one of its walks has been
    /// filed.
    fn take_if_complete(
        &self,
        pending: &mut HashMap<u64, PendingTicket>,
        ticket: WalkTicket,
    ) -> Option<TicketResults> {
        let entry = pending
            .get(&ticket.id())
            .expect("unknown or already-collected ticket");
        if entry.received != entry.walks.len() {
            return None;
        }
        let entry = pending.remove(&ticket.id()).expect("entry present");
        let latency = entry
            .last_finish
            .map(|t| t.duration_since(entry.submitted_at))
            .unwrap_or_default();
        self.ticket_latency_ns.record_duration(latency);
        let mut paths = Vec::with_capacity(entry.walks.len());
        for finished in entry.walks {
            let f = finished.expect("all walks received");
            // Loud in debug builds, and deliberately on the *waiter's*
            // thread (a panic on a pool worker would strand the walk and
            // hang `wait()` instead of failing the test): a capture fault
            // means a forwarding shard failed to attach second-order
            // context and the membership answer silently degraded. Release
            // builds keep serving; the fault stays visible as
            // `ServiceStats::total_context_misses`.
            debug_assert!(
                f.context_misses == 0,
                "walk {}#{} answered {} second-order membership queries without \
                 carried context on a non-owning shard",
                f.ticket,
                f.index,
                f.context_misses,
            );
            paths.push(f.path);
        }
        Some(TicketResults {
            ticket,
            walk: entry.walk,
            paths,
            latency,
        })
    }
}

impl WalkService {
    /// `ticket`'s results if every one of its walks has finished. Never
    /// blocks; use [`WalkService::wait`] to park until completion.
    pub fn try_wait(&self, ticket: WalkTicket) -> Option<TicketResults> {
        let collector = &self.shared.collector;
        collector.take_if_complete(&mut collector.pending.lock(), ticket)
    }

    /// Block until every walk of `ticket` has finished and return the
    /// collected results (walks are deposited in submission order).
    ///
    /// The waiter parks on a condvar the shard tasks signal when they file
    /// a ticket's last walk: no thread polls, and a blocked waiter costs
    /// zero CPU until a ticket actually completes.
    pub fn wait(&self, ticket: WalkTicket) -> TicketResults {
        let collector = &self.shared.collector;
        let mut pending = collector.pending.lock();
        loop {
            if let Some(results) = collector.take_if_complete(&mut pending, ticket) {
                return results;
            }
            pending = collector.pending_cv.wait(pending);
        }
    }
}
