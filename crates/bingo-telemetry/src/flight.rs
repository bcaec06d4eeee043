//! `flight` — the crate's one event ring, and the flight recorder's
//! structured runtime events in it.
//!
//! The ring is a fixed array of per-slot seqlocks over five payload
//! words: a writer takes a tick with one `fetch_add` on the head counter,
//! claims the tick's slot by moving its sequence from the previous even
//! value to odd while the payload words are in flight, and marks it even
//! (encoding the tick) when done. Readers snapshot without blocking
//! writers and skip torn slots. When the ring wraps, the oldest events are
//! overwritten and counted, exactly, as dropped. A detailed
//! [`Telemetry`](crate::Telemetry) has two: the [`Tracer`](crate::Tracer)'s
//! sampled walker spans, and the [`FlightRecorder`]'s *rare, load-bearing*
//! runtime transitions — a steal executing, a `Saturated` bounce, an AIMD
//! window change, an epoch advance, a shard parking or unparking, a
//! watchdog trip. Events carry a **relative tick** (the record index),
//! never a wall-clock timestamp, so recording from inside the
//! deterministic pipeline stays determinism-lint-clean.
//!
//! On panic, [`FlightRecorder::install_panic_hook`] dumps the flight ring
//! to stderr so a wedged CI run leaves a diagnosable trail.

use std::io::Write;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One structured runtime event. Payload fields are small integers so the
/// record path is a handful of atomic stores — cheap enough to leave on
/// even in release runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A shard (`thief`) stole a batch of `walkers` from `victim`'s inbox.
    StealExecuted {
        /// Shard that executed the steal.
        thief: u64,
        /// Shard the batch was taken from.
        victim: u64,
        /// Walkers moved by the steal.
        walkers: u64,
    },
    /// An admission attempt bounced with `Saturated` at `shard` whose
    /// inbox sat at `depth` walkers.
    SaturatedBounce {
        /// Shard that refused admission.
        shard: u64,
        /// Inbox depth observed at the bounce.
        depth: u64,
    },
    /// The gateway's AIMD in-flight window moved to `window`.
    WindowChange {
        /// New window size in walkers.
        window: u64,
    },
    /// `shard` applied an update batch and advanced to `epoch`.
    EpochAdvance {
        /// Shard that advanced.
        shard: u64,
        /// Epoch after the advance.
        epoch: u64,
    },
    /// `shard`'s task drained its inbox and returned to the idle state.
    ShardPark {
        /// Shard that parked.
        shard: u64,
    },
    /// `shard` was scheduled onto the pool after new work arrived.
    ShardUnpark {
        /// Shard that was scheduled.
        shard: u64,
    },
    /// The stall watchdog observed `shard` holding `depth` queued walkers
    /// without progress past the stall threshold.
    WatchdogTrip {
        /// Shard flagged as stalled.
        shard: u64,
        /// Inbox depth at the trip.
        depth: u64,
    },
}

impl FlightEventKind {
    fn encode(self) -> [u64; WORDS] {
        match self {
            FlightEventKind::StealExecuted {
                thief,
                victim,
                walkers,
            } => [1, thief, victim, walkers, 0],
            FlightEventKind::SaturatedBounce { shard, depth } => [2, shard, depth, 0, 0],
            FlightEventKind::WindowChange { window } => [3, window, 0, 0, 0],
            FlightEventKind::EpochAdvance { shard, epoch } => [4, shard, epoch, 0, 0],
            FlightEventKind::ShardPark { shard } => [5, shard, 0, 0, 0],
            FlightEventKind::ShardUnpark { shard } => [6, shard, 0, 0, 0],
            FlightEventKind::WatchdogTrip { shard, depth } => [7, shard, depth, 0, 0],
        }
    }

    fn decode([code, a, b, c, _]: [u64; WORDS]) -> Option<Self> {
        Some(match code {
            1 => FlightEventKind::StealExecuted {
                thief: a,
                victim: b,
                walkers: c,
            },
            2 => FlightEventKind::SaturatedBounce { shard: a, depth: b },
            3 => FlightEventKind::WindowChange { window: a },
            4 => FlightEventKind::EpochAdvance { shard: a, epoch: b },
            5 => FlightEventKind::ShardPark { shard: a },
            6 => FlightEventKind::ShardUnpark { shard: a },
            7 => FlightEventKind::WatchdogTrip { shard: a, depth: b },
            _ => return None,
        })
    }

    /// Stable lowercase tag for the event kind (used by dumps and docs).
    pub fn tag(&self) -> &'static str {
        match self {
            FlightEventKind::StealExecuted { .. } => "steal",
            FlightEventKind::SaturatedBounce { .. } => "saturated",
            FlightEventKind::WindowChange { .. } => "window",
            FlightEventKind::EpochAdvance { .. } => "epoch",
            FlightEventKind::ShardPark { .. } => "park",
            FlightEventKind::ShardUnpark { .. } => "unpark",
            FlightEventKind::WatchdogTrip { .. } => "watchdog-trip",
        }
    }

    fn render(&self) -> String {
        match *self {
            FlightEventKind::StealExecuted {
                thief,
                victim,
                walkers,
            } => format!("steal thief={thief} victim={victim} walkers={walkers}"),
            FlightEventKind::SaturatedBounce { shard, depth } => {
                format!("saturated shard={shard} depth={depth}")
            }
            FlightEventKind::WindowChange { window } => format!("window window={window}"),
            FlightEventKind::EpochAdvance { shard, epoch } => {
                format!("epoch shard={shard} epoch={epoch}")
            }
            FlightEventKind::ShardPark { shard } => format!("park shard={shard}"),
            FlightEventKind::ShardUnpark { shard } => format!("unpark shard={shard}"),
            FlightEventKind::WatchdogTrip { shard, depth } => {
                format!("watchdog-trip shard={shard} depth={depth}")
            }
        }
    }
}

/// A decoded flight-recorder event: a relative tick plus the event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Record index at which the event was written. Ticks are relative and
    /// monotonic, not wall-clock times: event `t+1` was recorded after
    /// event `t`, nothing more.
    pub tick: u64,
    /// The recorded event.
    pub kind: FlightEventKind,
}

impl FlightEvent {
    /// One-line rendering, e.g. `[42] steal thief=1 victim=0 walkers=8`.
    pub fn render(&self) -> String {
        format!("[{}] {}", self.tick, self.kind.render())
    }
}

/// Payload words per ring slot.
pub(crate) const WORDS: usize = 5;

/// One ring slot: a seqlock over [`WORDS`] payload words. `seq == 0` means
/// the slot has never been written; odd means a write is in flight; even
/// `2*tick + 2` means tick `tick`'s payload is complete.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// The crate's one event ring (see the module docs): the [`FlightRecorder`]
/// and the [`Tracer`](crate::Tracer) each encode their events as words.
pub(crate) struct EventRing {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventRing({} of {})", self.recorded(), self.capacity())
    }
}

impl EventRing {
    pub(crate) fn new(capacity: usize) -> Self {
        let slot = |_| Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        EventRing {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(slot).collect(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record one event: one `fetch_add`, one compare-exchange and six
    /// stores. A writer waits only for a writer a full lap behind it that
    /// is still filling the same slot.
    pub(crate) fn push(&self, words: [u64; WORDS]) {
        // The tick counter orders events; payload visibility is carried by
        // the slot's seq below.
        let tick = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(tick % self.slots.len() as u64) as usize];
        let odd = tick * 2 + 1;
        // Claim the slot: move its seq from an even value below ours to our
        // odd one, waiting out a lap-behind writer still mid-write. Seqs
        // only grow, so two writers a lap apart cannot both hold it, and one
        // that finds a later lap there has been overwritten already
        // (`dropped` counts it). Acquire pairs with the previous writer's
        // even store, so its payload stores come before ours.
        loop {
            let seen = slot.seq.load(Ordering::Relaxed);
            if seen > odd {
                return;
            }
            let claimed = seen.is_multiple_of(2)
                && (slot.seq)
                    .compare_exchange_weak(seen, odd, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok();
            if claimed {
                break;
            }
            std::thread::yield_now();
        }
        // The odd seq is ordered before every payload store: a reader that
        // sees any of them sees at least this odd seq on its re-read.
        fence(Ordering::Release);
        for (word, value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        // Even seq encodes the claiming tick, so a reader can pair the
        // payload with its tick and detect overwrites between its loads.
        slot.seq.store(odd + 1, Ordering::Release);
    }

    pub(crate) fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Snapshot the readable events as `(tick, words)`, oldest first.
    /// Slots with a write in flight (or overwritten mid-read) are skipped
    /// rather than reported torn.
    pub(crate) fn read(&self) -> Vec<(u64, [u64; WORDS])> {
        let mut out = Vec::with_capacity(self.capacity());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or write in flight
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // Orders the payload loads before the re-read: a payload word
            // from a later writer makes the re-read see its odd seq.
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // overwritten between the two seq loads
            }
            out.push((s1 / 2 - 1, words));
        }
        out.sort_unstable_by_key(|&(tick, _)| tick);
        out
    }
}

/// The bounded, lock-free flight recorder. Cloning shares the ring.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: Arc<EventRing>,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Arc::new(EventRing::new(capacity)),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Record one event without a lock (see the module docs).
    pub fn record(&self, kind: FlightEventKind) {
        self.ring.push(kind.encode());
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events lost to wraparound: each one recorded past the capacity.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Snapshot the ring's readable events, oldest first; torn slots are
    /// skipped.
    pub fn events(&self) -> Vec<FlightEvent> {
        let decode =
            |(tick, words)| FlightEventKind::decode(words).map(|kind| FlightEvent { tick, kind });
        self.ring.read().into_iter().filter_map(decode).collect()
    }

    /// Human-readable dump of the ring: a header with capacity, recorded
    /// and dropped counts, then one line per readable event.
    pub fn dump(&self) -> String {
        let events = self.events();
        let mut out = format!(
            "flight recorder: {} events (capacity {}, {} recorded, {} dropped)\n",
            events.len(),
            self.capacity(),
            self.recorded(),
            self.dropped()
        );
        for event in &events {
            out.push_str(&event.render());
            out.push('\n');
        }
        out
    }

    /// Install a process-wide panic hook that dumps this ring to stderr
    /// (chaining the previously installed hook), so a panicking run leaves
    /// its last recorded events in the log.
    pub fn install_panic_hook(&self) {
        let sink: Box<dyn Write + Send> = Box::new(StderrSink);
        self.install_panic_hook_to(Arc::new(Mutex::new_named(sink, "telemetry.flight.sink")));
    }

    /// [`install_panic_hook`](Self::install_panic_hook) with an explicit
    /// sink instead of stderr. Exposed so tests can assert on the dumped
    /// bytes without capturing the process's stderr.
    pub fn install_panic_hook_to(&self, sink: Arc<Mutex<Box<dyn Write + Send>>>) {
        let recorder = self.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            {
                let mut sink = sink.lock();
                let _ = writeln!(sink, "{}", recorder.dump().trim_end());
                let _ = sink.flush();
            }
            previous(info);
        }));
    }
}

/// Forwarder so the stderr handle is resolved at write time, not capture
/// time (test harnesses replace stderr per test).
struct StderrSink;

impl Write for StderrSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::stderr().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::io::stderr().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_in_order() {
        let rec = FlightRecorder::new(8);
        rec.record(FlightEventKind::ShardUnpark { shard: 0 });
        rec.record(FlightEventKind::StealExecuted {
            thief: 1,
            victim: 0,
            walkers: 8,
        });
        rec.record(FlightEventKind::ShardPark { shard: 0 });
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].tick, 0);
        assert_eq!(events[1].kind.tag(), "steal");
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_newest() {
        let rec = FlightRecorder::new(4);
        for shard in 0..10u64 {
            rec.record(FlightEventKind::ShardPark { shard });
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        // The surviving ticks are the newest four.
        let ticks: Vec<u64> = events.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
    }

    #[test]
    fn a_writer_a_lap_behind_leaves_the_later_event_in_place() {
        let rec = FlightRecorder::new(2);
        // Tick 2 already holds slot 0, so tick 0 has been overwritten.
        let slot = &rec.ring.slots[0];
        slot.words[0].store(5, Ordering::Relaxed);
        slot.words[1].store(9, Ordering::Relaxed);
        slot.seq.store(2 * 2 + 2, Ordering::Release);
        rec.record(FlightEventKind::ShardPark { shard: 0 });
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tick, 2);
        assert_eq!(events[0].kind, FlightEventKind::ShardPark { shard: 9 });
    }

    #[test]
    fn dump_mentions_counts() {
        let rec = FlightRecorder::new(2);
        rec.record(FlightEventKind::WindowChange { window: 64 });
        let dump = rec.dump();
        assert!(dump.contains("capacity 2"));
        assert!(dump.contains("window window=64"));
    }
}
