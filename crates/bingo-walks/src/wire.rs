//! Versioned wire codecs for the shard distribution boundary.
//!
//! Everything that crosses a shard boundary in the sharded walk service —
//! a forwarded walker, its carried membership snapshot, or the 16-byte
//! *handle* that stands in for a snapshot the receiver already caches —
//! has a fixed-width **little-endian** encoding defined here. The
//! in-process transport never materialises these bytes (it moves the
//! boxed walker), but its byte accounting is defined as "what this module
//! would emit", and the serialized transport round-trips every message
//! through [`encode_walker`]/[`decode_walker`] so accounted bytes are
//! measured bytes.
//!
//! Format rules (enforced by the `wire-format` lint rule):
//!
//! * every integer is fixed-width little-endian — never `usize` or any
//!   other platform-dependent width;
//! * every variable-length section carries an explicit count — a decoder
//!   never infers structure from container iteration order;
//! * decoding is total: truncated or corrupted input returns
//!   [`WireError`], never panics, and never allocates proportionally to a
//!   length field that the remaining buffer cannot back.
//!
//! The carried-context envelope and payload are specified in the
//! [`crate::model`] module docs. The walker frame (version 1):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0 | 1 | frame version ([`WALKER_WIRE_VERSION`]) |
//! | 1 | 8 | submission ticket (`u64`) |
//! | 9 | 4 | walker index within the ticket (`u32`) |
//! | 13 | 4 | cross-shard hops so far (`u32`) |
//! | 17 | 8 | missing-context faults so far (`u64`) |
//! | 25 | 1 | flags: bit 0 = trace-sampled, bit 1 = inline context follows, bit 2 = context handle follows |
//! | 26 | 16 | walker RNG raw state (`u128`) |
//! | 42 | 16 | walker RNG raw increment (`u128`) |
//! | 58 | 4 | path length (`u32`, ≥ 1) |
//! | 62 | 4·n | the visited path, one `u32` per vertex |
//! | — | var | carried context ([`encode_context`]) or handle ([`ContextHandle`]), per flags |
//!
//! The RNG state travels raw (`Pcg64::to_raw_parts`) so a decoded walker
//! resumes the *exact* random stream: a serialized hop is bit-identical
//! to an in-process hop.
//!
//! A forward is the walker frame followed by its **walk section**
//! ([`encode_walk`]): one tag byte naming the walk, then that built-in's
//! parameters, so the receiver rebuilds the walker from the bytes alone.
//! Step counts travel as `u32` (a cap past `u32::MAX` travels as
//! `u32::MAX`: no path that long fits in a frame), probabilities and
//! node2vec's `p`/`q` as raw `f64` bits in a `u64`. A custom model has no
//! wire form: its tag carries no body, and the receiver takes the model
//! from the process that sent the walker.
//!
//! | tag | walk | body | size |
//! |--:|---|---|--:|
//! | 0 | custom model | — | 1 |
//! | 1 | DeepWalk | `walk_length` (`u32`) | 5 |
//! | 2 | node2vec | `walk_length` (`u32`), `p`, `q` (`f64` bits) | 21 |
//! | 3 | PPR | `stop_probability` (`f64` bits), `max_length` (`u32`) | 13 |
//! | 4 | SimpleSampling | `walk_length` (`u32`) | 5 |

use crate::apps::{DeepWalkConfig, Node2VecConfig, PprConfig, SimpleSamplingConfig, WalkSpec};
use crate::model::CarriedContext;
use bingo_graph::VertexId;
use std::fmt;

/// Why a wire buffer failed to decode. Decoders return this for every
/// malformed input — truncation and corruption are recoverable protocol
/// errors, never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The leading version byte is not a known format version.
    BadVersion(u8),
    /// A structural invariant failed (explained by the message).
    Corrupt(&'static str),
    /// A walk section's tag names no known walk.
    UnknownWalk(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire buffer truncated"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::Corrupt(why) => write!(f, "corrupt wire buffer: {why}"),
            WireError::UnknownWalk(tag) => write!(f, "unknown walk tag {tag}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Current walker frame version.
pub const WALKER_WIRE_VERSION: u8 = 1;

/// Wire size of a [`ContextHandle`]: vertex + owner shard + epoch.
pub const CONTEXT_HANDLE_BYTES: usize = 16;

const FLAG_SAMPLED: u8 = 1;
const FLAG_INLINE_CONTEXT: u8 = 1 << 1;
const FLAG_HANDLE_CONTEXT: u8 = 1 << 2;

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn u128(&mut self) -> Result<u128, WireError> {
        let mut raw = [0u8; 16];
        raw.copy_from_slice(self.take(16)?);
        Ok(u128::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Narrow an in-memory length to its `u32` wire representation. Lengths
/// here are bounded far below `u32::MAX` (vertex ids are `u32`; paths and
/// adjacency lists cannot exceed the id space), so overflow is an
/// encoder-side invariant violation, not a runtime condition.
fn len_u32(len: usize) -> u32 {
    u32::try_from(len).expect("wire length exceeds u32 range")
}

// ---------------------------------------------------------------------------
// Carried-context codec
// ---------------------------------------------------------------------------

/// The only carried-context envelope version: the sorted adjacency ids
/// verbatim. Versions 2 and 3 named retired encodings and are rejected.
const CONTEXT_WIRE_VERSION: u8 = 1;

/// Append the wire encoding of `ctx` to `buf`, returning the number of
/// bytes written — always exactly [`CarriedContext::byte_len`], which is
/// what makes the service's byte accounting honest. The body of a
/// captured snapshot ([`CarriedContext::captured`]) is sorted here, when it
/// ships.
pub fn encode_context(ctx: &CarriedContext, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.push(CONTEXT_WIRE_VERSION);
    buf.extend_from_slice(&ctx.vertex.to_le_bytes());
    let ids = ctx.sorted_ids();
    buf.extend_from_slice(&len_u32(4 * ids.len()).to_le_bytes());
    for &v in ids.iter() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    debug_assert_eq!(
        buf.len() - start,
        ctx.byte_len(),
        "byte_len is the wire size"
    );
    buf.len() - start
}

/// Decode one carried context from the front of `bytes`, returning it
/// and the number of bytes consumed.
pub fn decode_context(bytes: &[u8]) -> Result<(CarriedContext, usize), WireError> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    let vertex: VertexId = r.u32()?;
    let payload_len = r.u32()? as usize;
    let payload = r.take(payload_len)?;
    if version != CONTEXT_WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    if !payload_len.is_multiple_of(4) {
        return Err(WireError::Corrupt("payload not a whole number of ids"));
    }
    let mut ids: Vec<VertexId> = Vec::with_capacity(payload_len / 4);
    for chunk in payload.chunks_exact(4) {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(chunk);
        ids.push(u32::from_le_bytes(raw));
    }
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(WireError::Corrupt("ids not strictly increasing"));
    }
    Ok((CarriedContext::exact(vertex, ids), r.pos))
}

// ---------------------------------------------------------------------------
// Snapshot handles
// ---------------------------------------------------------------------------

/// The 16-byte stand-in for a snapshot body the receiver already caches:
/// the negotiated *handle*. Identity is `(vertex, epoch)` — a snapshot of
/// a vertex stays valid for as long as no structural update touches that
/// vertex, so the capture epoch names it unambiguously; the owner shard
/// routes a body re-request on a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextHandle {
    /// The vertex whose adjacency the referenced snapshot describes.
    pub vertex: VertexId,
    /// The shard that owns the vertex (and can serve the body on a miss).
    pub owner_shard: u32,
    /// The epoch the snapshot was captured in.
    pub epoch: u64,
}

impl ContextHandle {
    /// Append the 16-byte wire encoding to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) -> usize {
        buf.extend_from_slice(&self.vertex.to_le_bytes());
        buf.extend_from_slice(&self.owner_shard.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        CONTEXT_HANDLE_BYTES
    }

    /// Decode a handle from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        let mut r = Reader::new(bytes);
        let handle = ContextHandle {
            vertex: r.u32()?,
            owner_shard: r.u32()?,
            epoch: r.u64()?,
        };
        Ok((handle, r.pos))
    }
}

// ---------------------------------------------------------------------------
// Walker frames
// ---------------------------------------------------------------------------

/// The context section of a walker frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameContext {
    /// No carried context (first-order models, or pre-first-hop walkers).
    None,
    /// The full snapshot body travels inline (receiver-cache miss, or
    /// negotiation disabled).
    Inline(CarriedContext),
    /// Only the negotiated handle travels; the receiver resolves the body
    /// from its snapshot cache.
    Handle(ContextHandle),
}

/// Everything a forwarded walker is on the wire: the fields the receiving
/// shard needs to resume the walk bit-identically. Debug-only instrumentation
/// (trace spans, per-hop context records, in-flight timestamps) is
/// deliberately *not* frame data — it stays on the sending process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkerFrame {
    /// The submission ticket the walker belongs to.
    pub ticket: u64,
    /// The walker's index within its ticket.
    pub index: u32,
    /// Cross-shard hops taken so far.
    pub hops: u32,
    /// Missing-context faults accumulated so far.
    pub context_misses: u64,
    /// Whether this walker's lifecycle is trace-sampled.
    pub sampled: bool,
    /// Raw PCG state (`Pcg64::to_raw_parts().0`).
    pub rng_state: u128,
    /// Raw PCG increment (`Pcg64::to_raw_parts().1`).
    pub rng_inc: u128,
    /// The visited path including the start vertex (never empty; the
    /// receiver rebuilds the cursor from it).
    pub path: Vec<VertexId>,
    /// The carried-context section.
    pub context: FrameContext,
}

impl WalkerFrame {
    /// Exact number of bytes [`encode_walker`] emits for this frame.
    pub fn encoded_len(&self) -> usize {
        let fixed = 1 + 8 + 4 + 4 + 8 + 1 + 16 + 16 + 4;
        let context = match &self.context {
            FrameContext::None => 0,
            FrameContext::Inline(ctx) => ctx.byte_len(),
            FrameContext::Handle(_) => CONTEXT_HANDLE_BYTES,
        };
        fixed + 4 * self.path.len() + context
    }
}

/// Append the wire encoding of `frame` to `buf`, returning the number of
/// bytes written (always [`WalkerFrame::encoded_len`]).
pub fn encode_walker(frame: &WalkerFrame, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.push(WALKER_WIRE_VERSION);
    buf.extend_from_slice(&frame.ticket.to_le_bytes());
    buf.extend_from_slice(&frame.index.to_le_bytes());
    buf.extend_from_slice(&frame.hops.to_le_bytes());
    buf.extend_from_slice(&frame.context_misses.to_le_bytes());
    let mut flags = 0u8;
    if frame.sampled {
        flags |= FLAG_SAMPLED;
    }
    match &frame.context {
        FrameContext::None => {}
        FrameContext::Inline(_) => flags |= FLAG_INLINE_CONTEXT,
        FrameContext::Handle(_) => flags |= FLAG_HANDLE_CONTEXT,
    }
    buf.push(flags);
    buf.extend_from_slice(&frame.rng_state.to_le_bytes());
    buf.extend_from_slice(&frame.rng_inc.to_le_bytes());
    buf.extend_from_slice(&len_u32(frame.path.len()).to_le_bytes());
    for &v in &frame.path {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    match &frame.context {
        FrameContext::None => {}
        FrameContext::Inline(ctx) => {
            encode_context(ctx, buf);
        }
        FrameContext::Handle(handle) => {
            handle.encode(buf);
        }
    }
    debug_assert_eq!(buf.len() - start, frame.encoded_len());
    buf.len() - start
}

/// Decode one walker frame from the front of `bytes`, returning it and
/// the number of bytes consumed.
pub fn decode_walker(bytes: &[u8]) -> Result<(WalkerFrame, usize), WireError> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != WALKER_WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let ticket = r.u64()?;
    let index = r.u32()?;
    let hops = r.u32()?;
    let context_misses = r.u64()?;
    let flags = r.u8()?;
    if flags & !(FLAG_SAMPLED | FLAG_INLINE_CONTEXT | FLAG_HANDLE_CONTEXT) != 0 {
        return Err(WireError::Corrupt("unknown walker flag bits"));
    }
    if flags & FLAG_INLINE_CONTEXT != 0 && flags & FLAG_HANDLE_CONTEXT != 0 {
        return Err(WireError::Corrupt("both inline and handle context flagged"));
    }
    let rng_state = r.u128()?;
    let rng_inc = r.u128()?;
    let path_len = r.u32()? as usize;
    if path_len == 0 {
        return Err(WireError::Corrupt("walker path is empty"));
    }
    let raw_path = r.take(path_len.checked_mul(4).ok_or(WireError::Truncated)?)?;
    let mut path: Vec<VertexId> = Vec::with_capacity(path_len);
    for chunk in raw_path.chunks_exact(4) {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(chunk);
        path.push(u32::from_le_bytes(raw));
    }
    let context = if flags & FLAG_INLINE_CONTEXT != 0 {
        let (ctx, used) = decode_context(&bytes[r.pos..])?;
        r.take(used)?;
        FrameContext::Inline(ctx)
    } else if flags & FLAG_HANDLE_CONTEXT != 0 {
        let (handle, used) = ContextHandle::decode(&bytes[r.pos..])?;
        r.take(used)?;
        FrameContext::Handle(handle)
    } else {
        FrameContext::None
    };
    let frame = WalkerFrame {
        ticket,
        index,
        hops,
        context_misses,
        sampled: flags & FLAG_SAMPLED != 0,
        rng_state,
        rng_inc,
        path,
        context,
    };
    Ok((frame, r.pos))
}

// ---------------------------------------------------------------------------
// Walk sections
// ---------------------------------------------------------------------------

const WALK_CUSTOM: u8 = 0;
const WALK_DEEPWALK: u8 = 1;
const WALK_NODE2VEC: u8 = 2;
const WALK_PPR: u8 = 3;
const WALK_SIMPLE_SAMPLING: u8 = 4;

/// A step count's `u32` wire form, saturating (see the module docs).
fn steps_u32(steps: usize) -> u32 {
    u32::try_from(steps).unwrap_or(u32::MAX)
}

/// Exact number of bytes [`encode_walk`] emits for `spec`.
pub fn walk_section_len(spec: Option<&WalkSpec>) -> usize {
    1 + match spec {
        None => 0,
        Some(WalkSpec::DeepWalk(_) | WalkSpec::SimpleSampling(_)) => 4,
        Some(WalkSpec::Node2Vec(_)) => 4 + 8 + 8,
        Some(WalkSpec::Ppr(_)) => 8 + 4,
    }
}

/// Append the walk section naming `spec` — `None` for a custom model,
/// whose tag carries no body — to `buf`, returning the number of bytes
/// written (always [`walk_section_len`]).
pub fn encode_walk(spec: Option<&WalkSpec>, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    match spec {
        None => buf.push(WALK_CUSTOM),
        Some(WalkSpec::DeepWalk(c)) => {
            buf.push(WALK_DEEPWALK);
            buf.extend_from_slice(&steps_u32(c.walk_length).to_le_bytes());
        }
        Some(WalkSpec::Node2Vec(c)) => {
            buf.push(WALK_NODE2VEC);
            buf.extend_from_slice(&steps_u32(c.walk_length).to_le_bytes());
            buf.extend_from_slice(&c.p.to_bits().to_le_bytes());
            buf.extend_from_slice(&c.q.to_bits().to_le_bytes());
        }
        Some(WalkSpec::Ppr(c)) => {
            buf.push(WALK_PPR);
            buf.extend_from_slice(&c.stop_probability.to_bits().to_le_bytes());
            buf.extend_from_slice(&steps_u32(c.max_length).to_le_bytes());
        }
        Some(WalkSpec::SimpleSampling(c)) => {
            buf.push(WALK_SIMPLE_SAMPLING);
            buf.extend_from_slice(&steps_u32(c.walk_length).to_le_bytes());
        }
    }
    debug_assert_eq!(buf.len() - start, walk_section_len(spec));
    buf.len() - start
}

/// Decode one walk section from the front of `bytes`, returning the
/// built-in spec it names (`None`: a custom model) and the number of
/// bytes consumed.
pub fn decode_walk(bytes: &[u8]) -> Result<(Option<WalkSpec>, usize), WireError> {
    let mut r = Reader::new(bytes);
    let spec = match r.u8()? {
        WALK_CUSTOM => None,
        WALK_DEEPWALK => Some(WalkSpec::DeepWalk(DeepWalkConfig {
            walk_length: r.u32()? as usize,
        })),
        WALK_NODE2VEC => {
            let config = Node2VecConfig {
                walk_length: r.u32()? as usize,
                p: r.f64()?,
                q: r.f64()?,
            };
            if !config.has_valid_parameters() {
                return Err(WireError::Corrupt(
                    "node2vec p and q must be finite and positive, with \
                     max(p, 1, q) / min(p, 1, q) at most 4096 \
                     (the expected draws per step)",
                ));
            }
            Some(WalkSpec::Node2Vec(config))
        }
        WALK_PPR => Some(WalkSpec::Ppr(PprConfig {
            stop_probability: r.f64()?,
            max_length: r.u32()? as usize,
        })),
        WALK_SIMPLE_SAMPLING => Some(WalkSpec::SimpleSampling(SimpleSamplingConfig {
            walk_length: r.u32()? as usize,
        })),
        tag => return Err(WireError::UnknownWalk(tag)),
    };
    Ok((spec, r.pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CONTEXT_ENVELOPE_BYTES;
    use bingo_sampling::rng::Pcg64;
    use rand::{Rng, SeedableRng};

    fn random_sorted_ids(rng: &mut Pcg64, max_len: usize) -> Vec<VertexId> {
        let len = rng.gen_range(0..=max_len);
        let mut ids: Vec<VertexId> = (0..len).map(|_| rng.gen_range(0..2_000_000u32)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn random_context(rng: &mut Pcg64) -> CarriedContext {
        let ids = random_sorted_ids(rng, 200);
        CarriedContext::exact(rng.gen_range(0..1_000_000u32), ids)
    }

    fn random_frame(rng: &mut Pcg64) -> WalkerFrame {
        let path_len = rng.gen_range(1..=64usize);
        let context = match rng.gen_range(0..3u8) {
            0 => FrameContext::None,
            1 => FrameContext::Inline(random_context(rng)),
            _ => FrameContext::Handle(ContextHandle {
                vertex: rng.gen(),
                owner_shard: rng.gen_range(0..64u32),
                epoch: rng.gen(),
            }),
        };
        WalkerFrame {
            ticket: rng.gen(),
            index: rng.gen(),
            hops: rng.gen_range(0..1000u32),
            context_misses: rng.gen_range(0..10u64),
            sampled: rng.gen_bool(0.3),
            rng_state: ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128,
            rng_inc: ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128,
            path: (0..path_len).map(|_| rng.gen()).collect(),
            context,
        }
    }

    #[test]
    fn context_round_trips_on_random_inputs() {
        let mut rng = Pcg64::seed_from_u64(0xC0DEC);
        for _ in 0..200 {
            let ctx = random_context(&mut rng);
            let mut buf = Vec::new();
            let written = encode_context(&ctx, &mut buf);
            assert_eq!(written, buf.len());
            assert_eq!(written, ctx.byte_len(), "byte_len is the exact wire size");
            let (decoded, consumed) = decode_context(&buf).expect("round trip");
            assert_eq!(consumed, buf.len());
            assert_eq!(decoded, ctx);
        }
    }

    #[test]
    fn context_decode_errs_on_every_truncation() {
        let mut rng = Pcg64::seed_from_u64(0x7A17);
        for _ in 0..40 {
            let ctx = random_context(&mut rng);
            let mut buf = Vec::new();
            encode_context(&ctx, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    decode_context(&buf[..cut]).is_err(),
                    "prefix of {cut}/{} bytes must not decode",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn context_decode_never_panics_on_corruption() {
        let mut rng = Pcg64::seed_from_u64(0xBADBEEF);
        for _ in 0..60 {
            let ctx = random_context(&mut rng);
            let mut buf = Vec::new();
            encode_context(&ctx, &mut buf);
            for _ in 0..32 {
                let mut bad = buf.clone();
                let at = rng.gen_range(0..bad.len());
                bad[at] ^= 1 << rng.gen_range(0..8u8);
                // Must return (Ok or Err), never panic or over-allocate.
                let _ = decode_context(&bad);
            }
        }
    }

    #[test]
    fn context_decode_rejects_structural_corruption() {
        let ctx = CarriedContext::exact(9, vec![3, 5, 8]);
        let mut buf = Vec::new();
        encode_context(&ctx, &mut buf);
        // Unknown version byte.
        let mut bad = buf.clone();
        bad[0] = 9;
        assert_eq!(decode_context(&bad), Err(WireError::BadVersion(9)));
        // Out-of-order ids.
        let mut bad = buf.clone();
        bad[CONTEXT_ENVELOPE_BYTES..CONTEXT_ENVELOPE_BYTES + 4]
            .copy_from_slice(&100u32.to_le_bytes());
        assert!(matches!(decode_context(&bad), Err(WireError::Corrupt(_))));
        // Payload length not a multiple of the id width.
        let mut bad = buf.clone();
        bad[5..9].copy_from_slice(&11u32.to_le_bytes());
        assert!(decode_context(&bad).is_err());
    }

    #[test]
    fn retired_context_versions_are_rejected_as_bad_version() {
        // Well-formed envelopes of the retired delta (v2: entry count +
        // LEB128 gap stream) and Bloom (v3: entry count, probe count, word
        // count, filter words) encodings: a peer still speaking them gets
        // a typed version error, never a misparse as v1 ids.
        let delta_payload: Vec<u8> = [&3u32.to_le_bytes()[..], &[10, 10, 10]].concat();
        let bloom_payload: Vec<u8> = [
            &3u32.to_le_bytes()[..],
            &[7],
            &1u32.to_le_bytes(),
            &0x8421u64.to_le_bytes(),
        ]
        .concat();
        for (version, payload) in [(2u8, delta_payload), (3u8, bloom_payload)] {
            let mut buf = vec![version];
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&payload);
            assert_eq!(decode_context(&buf), Err(WireError::BadVersion(version)));
        }
    }

    #[test]
    fn handle_round_trips_in_exactly_sixteen_bytes() {
        let handle = ContextHandle {
            vertex: 0xDEAD_BEEF,
            owner_shard: 7,
            epoch: 0x0123_4567_89AB_CDEF,
        };
        let mut buf = Vec::new();
        assert_eq!(handle.encode(&mut buf), CONTEXT_HANDLE_BYTES);
        assert_eq!(buf.len(), CONTEXT_HANDLE_BYTES);
        let (decoded, consumed) = ContextHandle::decode(&buf).expect("round trip");
        assert_eq!(consumed, CONTEXT_HANDLE_BYTES);
        assert_eq!(decoded, handle);
        for cut in 0..buf.len() {
            assert_eq!(
                ContextHandle::decode(&buf[..cut]),
                Err(WireError::Truncated)
            );
        }
    }

    #[test]
    fn walker_frame_round_trips_on_random_inputs() {
        let mut rng = Pcg64::seed_from_u64(0xF4A3E);
        for _ in 0..200 {
            let frame = random_frame(&mut rng);
            let mut buf = Vec::new();
            let written = encode_walker(&frame, &mut buf);
            assert_eq!(written, buf.len());
            assert_eq!(written, frame.encoded_len(), "encoded_len is exact");
            let (decoded, consumed) = decode_walker(&buf).expect("round trip");
            assert_eq!(consumed, buf.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn walker_decode_errs_on_truncation_and_survives_corruption() {
        let mut rng = Pcg64::seed_from_u64(0x5EED);
        for _ in 0..30 {
            let frame = random_frame(&mut rng);
            let mut buf = Vec::new();
            encode_walker(&frame, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    decode_walker(&buf[..cut]).is_err(),
                    "prefix of {cut}/{} bytes must not decode",
                    buf.len()
                );
            }
            for _ in 0..32 {
                let mut bad = buf.clone();
                let at = rng.gen_range(0..bad.len());
                bad[at] ^= 1 << rng.gen_range(0..8u8);
                let _ = decode_walker(&bad);
            }
        }
    }

    #[test]
    fn walker_decode_rejects_bad_structure() {
        let frame = WalkerFrame {
            ticket: 1,
            index: 0,
            hops: 2,
            context_misses: 0,
            sampled: false,
            rng_state: 42,
            rng_inc: 43,
            path: vec![1, 2, 3],
            context: FrameContext::None,
        };
        let mut buf = Vec::new();
        encode_walker(&frame, &mut buf);
        // Unknown frame version.
        let mut bad = buf.clone();
        bad[0] = 200;
        assert_eq!(decode_walker(&bad), Err(WireError::BadVersion(200)));
        // Unknown flag bits.
        let mut bad = buf.clone();
        bad[25] = 0xF0;
        assert!(matches!(decode_walker(&bad), Err(WireError::Corrupt(_))));
        // Contradictory context flags.
        let mut bad = buf.clone();
        bad[25] = FLAG_INLINE_CONTEXT | FLAG_HANDLE_CONTEXT;
        assert!(matches!(decode_walker(&bad), Err(WireError::Corrupt(_))));
        // Empty path.
        let mut bad = buf.clone();
        bad[58..62].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_walker(&bad), Err(WireError::Corrupt(_))));
        // A path length the buffer cannot back must fail fast without a
        // proportional allocation.
        let mut bad = buf;
        bad[58..62].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_walker(&bad), Err(WireError::Truncated));
    }

    fn random_spec(rng: &mut Pcg64) -> Option<WalkSpec> {
        let steps = |rng: &mut Pcg64| rng.gen_range(0..=u32::MAX as usize);
        match rng.gen_range(0..5u8) {
            0 => None,
            1 => Some(WalkSpec::DeepWalk(DeepWalkConfig {
                walk_length: steps(rng),
            })),
            2 => Some(WalkSpec::Node2Vec(Node2VecConfig {
                walk_length: steps(rng),
                p: rng.gen_range(0.01..10.0),
                q: rng.gen_range(0.01..10.0),
            })),
            3 => Some(WalkSpec::Ppr(PprConfig {
                stop_probability: rng.gen(),
                max_length: steps(rng),
            })),
            _ => Some(WalkSpec::SimpleSampling(SimpleSamplingConfig {
                walk_length: steps(rng),
            })),
        }
    }

    #[test]
    fn walk_section_round_trips_after_a_random_frame() {
        let mut rng = Pcg64::seed_from_u64(0x3A1C);
        for _ in 0..300 {
            let frame = random_frame(&mut rng);
            let spec = random_spec(&mut rng);
            let mut buf = Vec::new();
            let framed = encode_walker(&frame, &mut buf);
            let written = encode_walk(spec.as_ref(), &mut buf);
            assert_eq!(written, walk_section_len(spec.as_ref()), "length is exact");
            assert_eq!(framed + written, buf.len());
            let (decoded, used) = decode_walker(&buf).expect("frame");
            assert_eq!(used, framed, "the section starts where the frame ends");
            let (walk, consumed) = decode_walk(&buf[used..]).expect("walk section");
            assert_eq!(consumed, written);
            assert_eq!((decoded, walk), (frame, spec));
            let mut again = Vec::new();
            encode_walk(walk.as_ref(), &mut again);
            assert_eq!(again, buf[used..], "re-encoding is byte-identical");
        }
    }

    #[test]
    fn walk_section_sizes_match_the_table() {
        let sizes = [
            (None, 1),
            (Some(WalkSpec::DeepWalk(DeepWalkConfig::default())), 5),
            (
                Some(WalkSpec::SimpleSampling(SimpleSamplingConfig::default())),
                5,
            ),
            (Some(WalkSpec::Ppr(PprConfig::default())), 13),
            (Some(WalkSpec::Node2Vec(Node2VecConfig::default())), 21),
        ];
        for (spec, size) in sizes {
            assert_eq!(
                encode_walk(spec.as_ref(), &mut Vec::new()),
                size,
                "{spec:?}"
            );
        }
        // A cap past u32::MAX saturates instead of failing the forward.
        let endless = WalkSpec::Ppr(PprConfig {
            stop_probability: 0.1,
            max_length: usize::MAX,
        });
        let mut buf = Vec::new();
        encode_walk(Some(&endless), &mut buf);
        assert_eq!(
            decode_walk(&buf).unwrap().0,
            Some(WalkSpec::Ppr(PprConfig {
                stop_probability: 0.1,
                max_length: u32::MAX as usize,
            }))
        );
    }

    #[test]
    fn a_node2vec_section_with_a_p_or_q_that_is_not_finite_and_positive_is_corrupt() {
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (p, q) in [(bad, 2.0), (0.5, bad)] {
                let spec = WalkSpec::Node2Vec(Node2VecConfig {
                    walk_length: 80,
                    p,
                    q,
                });
                let mut buf = Vec::new();
                encode_walk(Some(&spec), &mut buf);
                assert!(
                    matches!(decode_walk(&buf), Err(WireError::Corrupt(_))),
                    "p = {p}, q = {q}"
                );
            }
        }
    }

    #[test]
    fn walk_section_decode_errs_on_truncation_and_survives_corruption() {
        let mut rng = Pcg64::seed_from_u64(0x7A1C);
        for _ in 0..60 {
            let spec = random_spec(&mut rng);
            let mut buf = Vec::new();
            encode_walk(spec.as_ref(), &mut buf);
            for cut in 0..buf.len() {
                assert_eq!(
                    decode_walk(&buf[..cut]),
                    Err(WireError::Truncated),
                    "prefix of {cut}/{} bytes must not decode",
                    buf.len()
                );
            }
            for _ in 0..32 {
                let mut bad = buf.clone();
                let at = rng.gen_range(0..bad.len());
                bad[at] ^= 1 << rng.gen_range(0..8u8);
                let _ = decode_walk(&bad);
            }
        }
    }

    #[test]
    fn walk_section_rejects_an_unknown_tag() {
        for tag in [5u8, 9, 0x80, u8::MAX] {
            let buf = [tag, 80, 0, 0, 0];
            assert_eq!(decode_walk(&buf), Err(WireError::UnknownWalk(tag)));
        }
        assert_eq!(WireError::UnknownWalk(7).to_string(), "unknown walk tag 7");
    }

    #[test]
    fn decoded_walker_resumes_the_exact_rng_stream() {
        let mut walker_rng = Pcg64::seed_from_u64(77);
        for _ in 0..13 {
            walker_rng.next();
        }
        let (state, inc) = walker_rng.to_raw_parts();
        let frame = WalkerFrame {
            ticket: 5,
            index: 1,
            hops: 1,
            context_misses: 0,
            sampled: true,
            rng_state: state,
            rng_inc: inc,
            path: vec![4, 9],
            context: FrameContext::None,
        };
        let mut buf = Vec::new();
        encode_walker(&frame, &mut buf);
        let (decoded, _) = decode_walker(&buf).expect("round trip");
        let mut resumed = Pcg64::from_raw_parts(decoded.rng_state, decoded.rng_inc);
        for _ in 0..16 {
            assert_eq!(walker_rng.next(), resumed.next());
        }
    }
}
