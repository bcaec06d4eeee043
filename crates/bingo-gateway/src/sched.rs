//! Deficit-round-robin scheduling of queued walk chunks across tenants.
//!
//! The scheduler is deliberately pure bookkeeping — no threads, no clocks,
//! no service handles — so its fairness properties are unit-testable in
//! isolation. The dispatcher thread (see [`crate::Gateway`]) owns one
//! [`DrrScheduler`] and asks it for the next dispatchable chunk whenever
//! the in-flight window has room.
//!
//! A [`Chunk`] is a contiguous slice of one submission's start list, at
//! most [`GatewayConfig::chunk_walkers`](crate::GatewayConfig::chunk_walkers)
//! walkers long, so fairness granularity is per-chunk, not per-request: a
//! giant submission cannot monopolize a dispatch turn.
//!
//! ## The algorithm
//!
//! Classic deficit round robin over per-tenant FIFO queues, with the
//! *walker* (start vertex) as the unit of cost: every time the round-robin
//! pointer visits a backlogged tenant whose accumulated deficit cannot pay
//! for its head chunk, the tenant earns `quantum × weight` additional
//! deficit; chunks are dispatched while the deficit covers their cost.
//! Over any interval in which a set of tenants stays backlogged, each
//! receives dispatch bandwidth proportional to its weight regardless of
//! how the others shape their submissions — the property the fairness
//! example and tests measure end to end.

use bingo_graph::VertexId;
use bingo_service::TenantId;
use bingo_walks::Walk;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// One contiguous slice of a gateway submission's start list: the unit
/// the dispatcher admits into the walk service, as one service ticket
/// whose starts may lie on any shards.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Tenant the chunk is billed to.
    pub tenant: TenantId,
    /// Gateway submission this chunk belongs to.
    pub submission: u64,
    /// Walk to run (shared with every sibling chunk).
    pub walk: Walk,
    /// Start vertices: `starts[i]` is the submission's start `first + i`.
    pub starts: Vec<VertexId>,
    /// Index of `starts[0]` in the submission's start list; the chunk's
    /// paths are written back from there.
    pub first: usize,
    /// Per-submission seed override forwarded to the service.
    pub seed: Option<u64>,
    /// When the chunk entered its tenant queue (queue-wait measurement).
    pub enqueued_at: Instant,
}

impl Chunk {
    /// Scheduling cost of the chunk: the number of walkers it admits.
    pub fn cost(&self) -> usize {
        self.starts.len()
    }
}

struct TenantQueue {
    weight: u32,
    deficit: usize,
    queue: VecDeque<Chunk>,
    queued_walkers: usize,
    /// Whether the tenant's current ring visit has already earned its
    /// quantum. DRR earns exactly once per visit — earning on every
    /// scheduling attempt would let whichever tenant sits at the front
    /// accumulate deficit indefinitely and starve the rest.
    visit_earned: bool,
}

/// The deficit-round-robin scheduler: per-tenant FIFO chunk queues plus
/// the active ring the dispatcher cycles through.
pub struct DrrScheduler {
    /// Deficit earned per visit per weight unit, in walkers.
    quantum: usize,
    tenants: HashMap<TenantId, TenantQueue>,
    /// Round-robin ring of tenants with at least one queued chunk.
    active: VecDeque<TenantId>,
}

impl DrrScheduler {
    /// A scheduler granting `quantum` walkers of deficit per weight unit
    /// each time the round-robin pointer passes a backlogged tenant.
    pub fn new(quantum: usize) -> Self {
        DrrScheduler {
            quantum: quantum.max(1),
            tenants: HashMap::new(),
            active: VecDeque::new(),
        }
    }

    /// Set (or update) a tenant's weight. Registers the tenant if new. A
    /// weight of 0 would starve the tenant forever, so it is read as 1:
    /// this is the one place a weight is clamped.
    pub fn set_weight(&mut self, tenant: &TenantId, weight: u32) {
        let entry = self
            .tenants
            .entry(tenant.clone())
            .or_insert_with(|| TenantQueue {
                weight: 1,
                deficit: 0,
                queue: VecDeque::new(),
                queued_walkers: 0,
                visit_earned: false,
            });
        entry.weight = weight.max(1);
    }

    /// A tenant's configured weight (1 when unknown).
    pub fn weight(&self, tenant: &TenantId) -> u32 {
        self.tenants.get(tenant).map_or(1, |t| t.weight)
    }

    /// Walkers currently queued for `tenant`.
    pub fn queued_walkers(&self, tenant: &TenantId) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.queued_walkers)
    }

    /// Whether any chunk is queued.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Enqueue time of the oldest chunk still queued across all tenants
    /// (`None` when nothing is queued). The stall watchdog compares this
    /// against now to detect a gateway whose queues sit still while the
    /// window never reopens.
    pub fn oldest_enqueued_at(&self) -> Option<Instant> {
        // `.min()` is an order-insensitive fold over the unordered map.
        self.tenants
            .values()
            .filter_map(|t| t.queue.front())
            .map(|c| c.enqueued_at)
            .min()
    }

    /// Append a chunk to its tenant's queue.
    pub fn enqueue(&mut self, chunk: Chunk) {
        let tenant = chunk.tenant.clone();
        self.set_weight(&tenant, self.weight(&tenant)); // ensure registered
        let entry = self.tenants.get_mut(&tenant).expect("just registered");
        let was_empty = entry.queue.is_empty();
        entry.queued_walkers += chunk.cost();
        entry.queue.push_back(chunk);
        if was_empty {
            self.active.push_back(tenant);
        }
    }

    /// Put a chunk the service refused back at the *front* of its tenant's
    /// queue, refunding the deficit its dispatch consumed — the rejection
    /// must not count against the tenant's fair share. The refund also
    /// marks the visit's quantum as earned: the tenant can re-dispatch the
    /// bounced chunk from the refund without collecting a second quantum.
    pub fn requeue_front(&mut self, chunk: Chunk) {
        let tenant = chunk.tenant.clone();
        let entry = self.tenants.get_mut(&tenant).expect("tenant registered");
        let was_empty = entry.queue.is_empty();
        entry.queued_walkers += chunk.cost();
        entry.deficit += chunk.cost();
        entry.visit_earned = true;
        entry.queue.push_front(chunk);
        if was_empty {
            self.active.push_front(tenant);
        }
    }

    /// The next chunk to dispatch under DRR, costing at most `budget`
    /// walkers (the in-flight window's remaining room). Returns `None`
    /// when nothing is queued or no backlogged tenant's head chunk fits
    /// the budget.
    pub fn next(&mut self, budget: usize) -> Option<Chunk> {
        if budget == 0 || self.active.is_empty() {
            return None;
        }
        // Tenants whose affordable head chunk exceeds the remaining budget
        // are *paused* (they keep ring position, deficit, and the earned
        // flag); once every active tenant has been paused, nothing is
        // dispatchable this call.
        let mut blocked = 0usize;
        while blocked < self.active.len() {
            let tenant = self.active.front().expect("ring non-empty").clone();
            let entry = self.tenants.get_mut(&tenant).expect("active ⊆ tenants");
            let Some(head_cost) = entry.queue.front().map(Chunk::cost) else {
                // Queue drained (defensive; dequeues keep the ring in sync).
                entry.deficit = 0;
                entry.visit_earned = false;
                self.active.pop_front();
                continue;
            };
            // A ring visit earns its quantum exactly once — on arrival at
            // the front, not on every scheduling attempt (per-attempt
            // earning would let the front tenant accrue without bound and
            // starve the ring).
            if !entry.visit_earned {
                entry.visit_earned = true;
                entry.deficit += self.quantum * entry.weight as usize;
            }
            if entry.deficit < head_cost {
                // This visit cannot afford the head: pass the turn. The
                // deficit carries over, so a chunk larger than one quantum
                // is eventually affordable — no starvation.
                entry.visit_earned = false;
                self.active.rotate_left(1);
                blocked = 0;
                continue;
            }
            if head_cost > budget {
                // Affordable but window-blocked: pause the visit without
                // ending it (no double quantum when the window reopens).
                self.active.rotate_left(1);
                blocked += 1;
                continue;
            }
            let chunk = entry.queue.pop_front().expect("head exists");
            entry.deficit -= head_cost;
            entry.queued_walkers -= head_cost;
            if entry.queue.is_empty() {
                // An idle tenant must not hoard deficit for a later burst.
                entry.deficit = 0;
                entry.visit_earned = false;
                self.active.pop_front();
            } else if entry.deficit < entry.queue.front().map_or(0, Chunk::cost) {
                // Deficit spent below the next head: the visit ends.
                entry.visit_earned = false;
                self.active.rotate_left(1);
            }
            return Some(chunk);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_walks::{DeepWalkConfig, WalkSpec};

    fn chunk(tenant: &str, submission: u64, walkers: usize) -> Chunk {
        Chunk {
            tenant: TenantId::new(tenant),
            submission,
            walk: WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 }).into(),
            starts: vec![0; walkers],
            first: 0,
            seed: None,
            enqueued_at: Instant::now(),
        }
    }

    /// Drain the whole scheduler, returning walkers dispatched per tenant.
    fn drain_shares(sched: &mut DrrScheduler, budget: usize) -> HashMap<String, usize> {
        let mut shares: HashMap<String, usize> = HashMap::new();
        while let Some(c) = sched.next(budget) {
            *shares.entry(c.tenant.as_str().to_string()).or_default() += c.cost();
        }
        shares
    }

    #[test]
    fn full_drain_serves_every_queued_walker() {
        let mut sched = DrrScheduler::new(8);
        sched.set_weight(&TenantId::new("a"), 3);
        for i in 0..40 {
            sched.enqueue(chunk("a", i, 8));
            sched.enqueue(chunk("b", 100 + i, 8));
        }
        let shares = drain_shares(&mut sched, usize::MAX);
        // Weights shape the *order*, not the total: a full drain serves
        // everything, and the scheduler comes back empty.
        assert_eq!(shares["a"], 320);
        assert_eq!(shares["b"], 320);
        assert!(sched.is_empty());
    }

    #[test]
    fn weighted_tenants_drain_proportionally() {
        // Both tenants stay backlogged for most of the drain; dispatched
        // walkers must track the weights at every ratio. Measure over a
        // truncated prefix so neither queue empties inside the window.
        for weight in [2u32, 3, 4, 8] {
            let mut sched = DrrScheduler::new(8);
            sched.set_weight(&TenantId::new("heavy"), weight);
            sched.set_weight(&TenantId::new("light"), 1);
            for i in 0..120 {
                sched.enqueue(chunk("heavy", i, 8));
                sched.enqueue(chunk("light", 1000 + i, 8));
            }
            let mut heavy = 0usize;
            let mut light = 0usize;
            // 720 walkers of dispatch, at most 640 of them heavy, against
            // 960 queued per tenant: both backlogged.
            while heavy + light < 720 {
                let c = sched.next(usize::MAX).expect("both tenants backlogged");
                match c.tenant.as_str() {
                    "heavy" => heavy += c.cost(),
                    _ => light += c.cost(),
                }
            }
            let ratio = heavy as f64 / light as f64;
            assert!(
                (ratio / f64::from(weight) - 1.0).abs() < 0.12,
                "heavy/light dispatch ratio {ratio:.2}, want ~{weight}"
            );
        }
    }

    #[test]
    fn uneven_chunk_sizes_do_not_break_fairness() {
        // Tenant "big" queues few large chunks, "small" many tiny ones;
        // per-walker bandwidth must still follow the (equal) weights.
        let mut sched = DrrScheduler::new(4);
        for i in 0..60 {
            sched.enqueue(chunk("big", i, 20));
        }
        for i in 0..300 {
            sched.enqueue(chunk("small", 1000 + i, 4));
        }
        let mut big = 0usize;
        let mut small = 0usize;
        while big + small < 600 {
            let c = sched.next(usize::MAX).expect("backlogged");
            match c.tenant.as_str() {
                "big" => big += c.cost(),
                _ => small += c.cost(),
            }
        }
        let ratio = big as f64 / small as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "equal weights, ratio {ratio:.2}"
        );
    }

    #[test]
    fn budget_limits_and_skips_oversized_heads() {
        let mut sched = DrrScheduler::new(16);
        sched.enqueue(chunk("wide", 0, 12));
        sched.enqueue(chunk("narrow", 1, 2));
        // Budget 4: wide's 12-walker head does not fit, narrow's does.
        let c = sched.next(4).expect("narrow chunk fits");
        assert_eq!(c.tenant.as_str(), "narrow");
        assert!(sched.next(4).is_none(), "remaining head exceeds budget");
        assert!(sched.next(0).is_none(), "zero budget dispatches nothing");
        let c = sched.next(12).expect("wide fits a larger window");
        assert_eq!(c.tenant.as_str(), "wide");
        assert!(sched.is_empty());
    }

    #[test]
    fn heads_larger_than_one_quantum_are_not_starved() {
        // quantum 2, weight 1, head cost 10: the tenant needs 5 visits to
        // afford its head but must eventually get it.
        let mut sched = DrrScheduler::new(2);
        sched.enqueue(chunk("slow", 0, 10));
        sched.enqueue(chunk("other", 1, 2));
        sched.enqueue(chunk("other", 2, 2));
        let mut got_slow = false;
        for _ in 0..32 {
            match sched.next(usize::MAX) {
                Some(c) if c.tenant.as_str() == "slow" => {
                    got_slow = true;
                    break;
                }
                Some(_) => {}
                None => break,
            }
        }
        assert!(got_slow, "large head chunk eventually dispatched");
    }

    #[test]
    fn a_zero_weight_is_read_as_one() {
        let mut sched = DrrScheduler::new(8);
        let (starved, heavy) = (TenantId::new("starved"), TenantId::new("heavy"));
        assert_eq!(sched.weight(&starved), 1, "an unknown tenant weighs 1");
        sched.set_weight(&starved, 0);
        sched.set_weight(&heavy, 5);
        assert_eq!((sched.weight(&starved), sched.weight(&heavy)), (1, 5));
        sched.enqueue(chunk("starved", 1, 8));
        assert_eq!(sched.next(usize::MAX).map(|c| c.submission), Some(1));
    }

    #[test]
    fn requeue_front_restores_order_cost_and_deficit() {
        let mut sched = DrrScheduler::new(8);
        sched.enqueue(chunk("t", 1, 8));
        sched.enqueue(chunk("t", 2, 8));
        let first = sched.next(usize::MAX).expect("dispatch");
        assert_eq!(first.submission, 1);
        assert_eq!(sched.queued_walkers(&TenantId::new("t")), 8);
        sched.requeue_front(first);
        assert_eq!(sched.queued_walkers(&TenantId::new("t")), 16);
        // The bounced chunk comes back first, and its refunded deficit
        // pays for it without earning another quantum.
        let again = sched.next(usize::MAX).expect("re-dispatch");
        assert_eq!(again.submission, 1, "rejected chunk keeps FIFO position");
    }

    #[test]
    fn oldest_enqueued_at_tracks_queue_fronts() {
        let mut sched = DrrScheduler::new(8);
        assert!(sched.oldest_enqueued_at().is_none());
        let first = chunk("a", 1, 4);
        let first_at = first.enqueued_at;
        sched.enqueue(first);
        sched.enqueue(chunk("b", 2, 4));
        assert_eq!(sched.oldest_enqueued_at(), Some(first_at));
        while sched.next(usize::MAX).is_some() {}
        assert!(sched.oldest_enqueued_at().is_none());
    }
}
