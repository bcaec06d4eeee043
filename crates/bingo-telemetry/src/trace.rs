//! Sampled walker lifecycle tracing.
//!
//! A walk that matters travels far: it is submitted (possibly through the
//! gateway's tenant queues and DRR dispatcher), visits one shard per
//! ownership range it enters, forwards itself across shards with a carried
//! context, and is finally absorbed by the collector. The [`Tracer`]
//! records that journey as a sequence of [`TraceEvent`]s keyed by
//! `(ticket, walker)` so the full lifecycle of one walk can be stitched
//! back together from a single dump — including the spans recorded by
//! *different shard threads and the gateway dispatcher*, which share
//! nothing but the ticket id.
//!
//! ## Sampling
//!
//! Tracing every walker would melt the hot path, so walkers are sampled
//! **deterministically**: a walker is traced iff
//! `splitmix(seed ^ ticket ^ walker) < u64::MAX / sample_one_in`. The
//! decision is a pure function of `(seed, ticket, walker)` — no RNG state,
//! no thread identity — so the sampled set is identical across runs,
//! thread counts and layers (the gateway and every shard independently
//! agree on whether a walker is sampled without coordinating).
//!
//! ## Bounding
//!
//! Events land, as five words each, in the crate's one lock-free ring
//! type (see [`flight`](crate::flight)): when full, the **oldest** event
//! is overwritten and counted in [`Tracer::dropped`]. Saturation costs
//! recent history, never memory, and recording takes no lock.

use crate::flight::{EventRing, WORDS};
use std::collections::BTreeMap;

/// One stage of a walker's lifecycle. All fields are integers, so an event
/// is five words in the ring and recording it touches no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// The walker was created by a service submit and enqueued on its
    /// starting shard.
    Submit {
        /// Shard the walker starts on.
        shard: u32,
        /// Vertex the walk starts from.
        start: u64,
    },
    /// The gateway's DRR scheduler dispatched the chunk containing this
    /// walker to the service.
    GatewayDispatch {
        /// Owning tenant's `"index"` in the gateway's stats.
        tenant: u32,
        /// Nanoseconds the chunk waited in the tenant queue.
        wait_ns: u64,
        /// The gateway-side ticket the walker belongs to.
        gateway_ticket: u64,
    },
    /// One visit on a shard: consecutive steps sampled before the walk
    /// finished or left the shard's ownership range.
    StepBatch {
        /// Shard that sampled the steps.
        shard: u32,
        /// Steps taken during this visit.
        steps: u32,
        /// The shard's update epoch every step of the visit sampled under:
        /// the visit holds the engine's read guard throughout.
        epoch: u64,
    },
    /// The walker crossed an ownership boundary and was forwarded.
    ForwardHop {
        /// Shard that forwarded the walker.
        from_shard: u32,
        /// Shard that owns the walker's next vertex.
        to_shard: u32,
        /// Whether the carried context came from the wave-shared cache.
        cache_hit: bool,
        /// Context bytes billed for this hop.
        bytes: u64,
    },
    /// The finished walk was absorbed by the collector.
    Collect {
        /// Final path length (vertices).
        path_len: u32,
        /// Cross-shard hops the walker took.
        hops: u32,
        /// Nanoseconds from the ticket's submit to the walk's finish.
        latency_ns: u64,
    },
}

/// One event as the ring's five words: stage code (high half) and walker,
/// the ticket, then up to three stage fields.
fn encode(ticket: u64, walker: u32, stage: TraceStage) -> [u64; WORDS] {
    use TraceStage::*;
    let (code, [a, b, c]) = match stage {
        Submit { shard, start } => (1, [shard.into(), start, 0]),
        GatewayDispatch {
            tenant,
            wait_ns,
            gateway_ticket,
        } => (2, [tenant.into(), wait_ns, gateway_ticket]),
        StepBatch {
            shard,
            steps,
            epoch,
        } => (3, [shard.into(), steps.into(), epoch]),
        ForwardHop {
            from_shard,
            to_shard,
            cache_hit,
            bytes,
        } => {
            let shards = u64::from(from_shard) << 32 | u64::from(to_shard);
            (4, [shards, cache_hit.into(), bytes])
        }
        Collect {
            path_len,
            hops,
            latency_ns,
        } => (5, [path_len.into(), hops.into(), latency_ns]),
    };
    [code << 32 | u64::from(walker), ticket, a, b, c]
}

/// Inverse of [`encode`]; `None` for an unknown stage code.
fn decode(seq: u64, [head, ticket, a, b, c]: [u64; WORDS]) -> Option<TraceEvent> {
    use TraceStage::*;
    let stage = match head >> 32 {
        1 => Submit {
            shard: a as u32,
            start: b,
        },
        2 => GatewayDispatch {
            tenant: a as u32,
            wait_ns: b,
            gateway_ticket: c,
        },
        3 => StepBatch {
            shard: a as u32,
            steps: b as u32,
            epoch: c,
        },
        4 => ForwardHop {
            from_shard: (a >> 32) as u32,
            to_shard: a as u32,
            cache_hit: b != 0,
            bytes: c,
        },
        5 => Collect {
            path_len: a as u32,
            hops: b as u32,
            latency_ns: c,
        },
        _ => return None,
    };
    Some(TraceEvent {
        ticket,
        walker: head as u32,
        seq,
        stage,
    })
}

impl TraceStage {
    /// Compact single-token rendering, e.g. `step(s2 x5 @e3)`.
    pub fn render(&self) -> String {
        match self {
            TraceStage::Submit { shard, start } => format!("submit(s{shard} v{start})"),
            TraceStage::GatewayDispatch {
                tenant,
                wait_ns,
                gateway_ticket,
            } => format!("dispatch(tenant{tenant} g{gateway_ticket} wait={wait_ns}ns)"),
            TraceStage::StepBatch {
                shard,
                steps,
                epoch,
            } => format!("step(s{shard} x{steps} @e{epoch})"),
            TraceStage::ForwardHop {
                from_shard,
                to_shard,
                cache_hit,
                bytes,
            } => format!(
                "hop(s{from_shard}->s{to_shard} {} {bytes}B)",
                if *cache_hit { "hit" } else { "miss" }
            ),
            TraceStage::Collect {
                path_len,
                hops,
                latency_ns,
            } => format!("collect(len={path_len} hops={hops} {latency_ns}ns)"),
        }
    }
}

/// One recorded event: which walker, when (global sequence), what stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Service ticket the walker belongs to.
    pub ticket: u64,
    /// Walker index within the ticket.
    pub walker: u32,
    /// Global record order: the ring's tick, monotonic across threads.
    pub seq: u64,
    /// The lifecycle stage.
    pub stage: TraceStage,
}

const SPLIT_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a high-quality, platform-independent 64-bit mix.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bounded, deterministically-sampling trace collector.
#[derive(Debug)]
pub struct Tracer {
    ring: EventRing,
    seed: u64,
    /// Sampling threshold: a walker is traced iff its hash < threshold.
    threshold: u64,
}

impl Tracer {
    /// A tracer sampling one walker in `sample_one_in` (1 = every walker,
    /// 0 = none), keeping at most `capacity` events.
    pub fn new(seed: u64, sample_one_in: u64, capacity: usize) -> Self {
        let threshold = match sample_one_in {
            0 => 0,
            1 => u64::MAX,
            n => u64::MAX / n,
        };
        Tracer {
            ring: EventRing::new(capacity),
            seed,
            threshold,
        }
    }

    /// Whether `(ticket, walker)` is in the sampled set. Pure function of
    /// the tracer seed — every layer agrees without coordination.
    #[inline]
    pub fn is_sampled(&self, ticket: u64, walker: u64) -> bool {
        if self.threshold == 0 {
            return false;
        }
        if self.threshold == u64::MAX {
            return true;
        }
        let h = splitmix(
            self.seed
                ^ ticket.wrapping_mul(SPLIT_GAMMA)
                ^ walker.rotate_left(32).wrapping_mul(SPLIT_GAMMA),
        );
        h < self.threshold
    }

    /// Record a stage for a sampled walker, without a lock. Callers gate on
    /// [`is_sampled`](Tracer::is_sampled) (or a cached copy of its answer)
    /// before paying for event construction.
    pub fn record(&self, ticket: u64, walker: u32, stage: TraceStage) {
        self.ring.push(encode(ticket, walker, stage));
    }

    /// Number of events currently buffered (never exceeds the capacity).
    pub fn len(&self) -> usize {
        self.ring.recorded().min(self.capacity() as u64) as usize
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's bound.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// A copy of the buffered events in record (seq) order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let events = self.ring.read().into_iter();
        events
            .filter_map(|(seq, words)| decode(seq, words))
            .collect()
    }

    /// Buffered events grouped per walker: `(ticket, walker)` → events in
    /// seq order. This is the stitching step — spans recorded by different
    /// shards (and the gateway) join on the ticket id.
    pub fn lifecycles(&self) -> BTreeMap<(u64, u32), Vec<TraceEvent>> {
        let mut map: BTreeMap<(u64, u32), Vec<TraceEvent>> = BTreeMap::new();
        for event in self.events() {
            map.entry((event.ticket, event.walker))
                .or_default()
                .push(event);
        }
        map
    }

    /// Every *complete* lifecycle (has both a `Submit` and a `Collect`
    /// span) rendered as one `t<ticket>/w<walker>: stage -> stage -> …`
    /// line, in `(ticket, walker)` order. Incomplete lifecycles (evicted
    /// prefixes, in-flight walks) are omitted.
    pub fn complete_lifecycle_lines(&self) -> Vec<String> {
        Self::complete_lines(&self.lifecycles())
    }

    /// [`complete_lifecycle_lines`](Tracer::complete_lifecycle_lines) of
    /// one snapshot of the ring.
    fn complete_lines(lifecycles: &BTreeMap<(u64, u32), Vec<TraceEvent>>) -> Vec<String> {
        lifecycles
            .iter()
            .filter(|(_, events)| {
                events
                    .iter()
                    .any(|e| matches!(e.stage, TraceStage::Submit { .. }))
                    && events
                        .iter()
                        .any(|e| matches!(e.stage, TraceStage::Collect { .. }))
            })
            .map(|((ticket, walker), events)| {
                let chain: Vec<String> = events.iter().map(|e| e.stage.render()).collect();
                format!("t{ticket}/w{walker}: {}", chain.join(" -> "))
            })
            .collect()
    }

    /// Render every complete lifecycle (see
    /// [`complete_lifecycle_lines`](Tracer::complete_lifecycle_lines)) plus
    /// a trailing summary counting incomplete lifecycles and drops, all
    /// from one read of the ring.
    pub fn dump(&self) -> String {
        let lifecycles = self.lifecycles();
        let lines = Self::complete_lines(&lifecycles);
        let partial = lifecycles.len() - lines.len();
        let mut out = String::new();
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "({} lifecycles, {} partial, {} events dropped)\n",
            lifecycles.len(),
            partial,
            self.dropped()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_seed_dependent() {
        let a = Tracer::new(7, 8, 64);
        let b = Tracer::new(7, 8, 64);
        let c = Tracer::new(8, 8, 64);
        let set = |t: &Tracer| -> Vec<(u64, u64)> {
            (0..4u64)
                .flat_map(|ticket| (0..200u64).map(move |w| (ticket, w)))
                .filter(|&(ticket, w)| t.is_sampled(ticket, w))
                .collect()
        };
        assert_eq!(set(&a), set(&b), "same seed, same sampled set");
        assert_ne!(set(&a), set(&c), "different seed, different set");
        assert!(!set(&a).is_empty(), "1-in-8 over 800 walkers samples some");
        assert!(
            set(&a).len() < 400,
            "1-in-8 sampling keeps well under half: {}",
            set(&a).len()
        );
    }

    #[test]
    fn edge_rates() {
        let none = Tracer::new(1, 0, 64);
        let all = Tracer::new(1, 1, 64);
        assert!(!none.is_sampled(3, 4));
        assert!(all.is_sampled(3, 4));
    }

    #[test]
    fn ring_respects_bound_and_counts_drops() {
        let t = Tracer::new(0, 1, 8);
        for i in 0..100u32 {
            t.record(
                0,
                i,
                TraceStage::StepBatch {
                    shard: 0,
                    steps: 1,
                    epoch: 0,
                },
            );
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.dropped(), 92);
        let events = t.events();
        assert_eq!(events.first().map(|e| e.walker), Some(92), "oldest evicted");
    }

    #[test]
    fn every_stage_round_trips_through_the_ring_at_field_extremes() {
        let max = u64::MAX;
        let mut stages = Vec::new();
        for (small, wide) in [(u32::MAX, max), (0, 0)] {
            stages.extend([
                TraceStage::Submit {
                    shard: small,
                    start: wide,
                },
                TraceStage::GatewayDispatch {
                    tenant: small,
                    wait_ns: wide,
                    gateway_ticket: wide,
                },
                TraceStage::StepBatch {
                    shard: small,
                    steps: small,
                    epoch: wide,
                },
                TraceStage::Collect {
                    path_len: small,
                    hops: small,
                    latency_ns: wide,
                },
            ]);
            for cache_hit in [true, false] {
                stages.push(TraceStage::ForwardHop {
                    from_shard: small,
                    to_shard: u32::MAX - small,
                    cache_hit,
                    bytes: wide,
                });
            }
        }
        let t = Tracer::new(0, 1, stages.len());
        for (i, &stage) in stages.iter().enumerate() {
            let (ticket, walker) = if i % 2 == 0 { (max, u32::MAX) } else { (0, 0) };
            t.record(ticket, walker, stage);
        }
        let events = t.events();
        assert_eq!(events.len(), stages.len());
        for (i, (event, &stage)) in events.iter().zip(&stages).enumerate() {
            let (ticket, walker) = if i % 2 == 0 { (max, u32::MAX) } else { (0, 0) };
            let expected = TraceEvent {
                ticket,
                walker,
                seq: i as u64,
                stage,
            };
            assert_eq!(*event, expected);
        }
    }

    #[test]
    fn lifecycles_stitch_by_ticket_and_walker() {
        let t = Tracer::new(0, 1, 64);
        t.record(5, 1, TraceStage::Submit { shard: 0, start: 9 });
        t.record(
            5,
            1,
            TraceStage::StepBatch {
                shard: 0,
                steps: 3,
                epoch: 1,
            },
        );
        // A different shard thread records the hop + next batch.
        t.record(
            5,
            1,
            TraceStage::ForwardHop {
                from_shard: 0,
                to_shard: 2,
                cache_hit: true,
                bytes: 16,
            },
        );
        t.record(
            5,
            1,
            TraceStage::Collect {
                path_len: 4,
                hops: 1,
                latency_ns: 10,
            },
        );
        // Noise from another walker.
        t.record(5, 2, TraceStage::Submit { shard: 1, start: 3 });
        let dump = t.dump();
        assert!(dump.contains("t5/w1: submit(s0 v9) -> step(s0 x3 @e1) -> hop(s0->s2 hit 16B) -> collect(len=4 hops=1 10ns)"),
            "stitched lifecycle missing from dump:\n{dump}");
        assert!(dump.contains("1 partial"), "walker 2 has no collect");
    }
}
