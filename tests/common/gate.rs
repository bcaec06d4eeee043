//! A walk model that holds a shard's activation mid-step until the test
//! lets it go, shared by the service and gateway suites (included with
//! `#[path]`, so neither binary takes the counting allocator in `mod.rs`).

use bingo::prelude::*;
use rand::RngCore;
use std::sync::{Arc, Barrier};

/// A one-step walk whose single step meets the test at `entered`, then
/// parks at `gate` until the test meets it there too — holding the shard's
/// activation (and its engine read guard) mid-visit in between.
#[derive(Debug)]
pub struct GateModel {
    pub entered: Arc<Barrier>,
    pub gate: Arc<Barrier>,
}

impl WalkModel for GateModel {
    fn name(&self) -> &str {
        "gate"
    }

    fn expected_length(&self) -> usize {
        1
    }

    fn max_steps(&self) -> usize {
        1
    }

    fn step(
        &self,
        _state: &WalkState,
        _sampler: &dyn StepSampler,
        _rng: &mut dyn RngCore,
    ) -> Transition {
        self.entered.wait();
        self.gate.wait();
        Transition::Terminate
    }
}
