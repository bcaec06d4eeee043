//! The pluggable distribution boundary between shard workers.
//!
//! The service forwards walkers between shards either as in-process
//! `Box<Walker>` moves (zero-copy, nothing billed) or — in
//! [`TransportMode::Serialized`] — by round-tripping every forwarded
//! walker through the versioned wire format of
//! [`bingo_walks::wire`]: encode to bytes, hand the bytes to a
//! [`ShardTransport`], decode what comes back, and rebuild the walker
//! from the frame alone (cursor replayed from the path, RNG restored
//! from its raw parts, context resolved from the receiver's snapshot
//! cache). Accounted bytes are then *real* bytes: everything the
//! receiving shard knows crossed the boundary as `Vec<u8>`, so the
//! same forwarding path works when the peer is another process or
//! node — the two-process demo (`examples/two_process_demo.rs`) plugs
//! a length-prefixed loopback `TcpStream` carrier into
//! [`WalkService::build_with_transport`](crate::WalkService::build_with_transport)
//! and proves the socket byte counts equal the service's counters.

use std::io;

/// How forwarded walkers cross the shard boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Forwarded walkers move as in-process allocations (zero-copy).
    /// Nothing is serialized, so nothing is negotiated or billed: every
    /// handle and `*bytes*` counter stays 0.
    #[default]
    InProcess,
    /// Every forwarded walker is encoded to its wire frame, carried by
    /// the service's [`ShardTransport`], decoded, and rebuilt from the
    /// frame. Walk output is bit-identical to [`TransportMode::InProcess`]
    /// (the frame captures the cursor, RNG and context exactly);
    /// `transport.bytes_sent`/`transport.bytes_recv` count the frames.
    Serialized,
}

/// A carrier of encoded walker frames between shards.
///
/// `carry` moves one encoded frame to shard `to` and returns the bytes
/// as they arrive on the receiving side. The in-process
/// [`LoopbackTransport`] returns the frame unchanged; a real carrier
/// (see the two-process demo) writes the frame to a socket and returns
/// what the remote end sent back. The service treats any `Err` as a
/// delivery failure and falls back to forwarding the original
/// in-process walker, so a flaky carrier degrades to zero-copy
/// forwarding instead of losing walks.
///
/// Implementations must be `Send + Sync`: shard tasks on the worker
/// pool call `carry` concurrently (serialize internally if the
/// underlying channel is not concurrent-safe).
pub trait ShardTransport: Send + Sync {
    /// Short human-readable carrier name (for stats and logs).
    fn name(&self) -> &'static str;

    /// Deliver `frame` to shard `to`, returning the bytes as received.
    fn carry(&self, to: usize, frame: Vec<u8>) -> io::Result<Vec<u8>>;
}

/// The identity carrier: frames "arrive" exactly as sent, without
/// leaving the process. [`TransportMode::Serialized`] uses it by
/// default, so the serialization round-trip (encode → decode → rebuild)
/// is exercised end to end even with no real wire underneath.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoopbackTransport;

impl ShardTransport for LoopbackTransport {
    fn name(&self) -> &'static str {
        "loopback"
    }

    fn carry(&self, _to: usize, frame: Vec<u8>) -> io::Result<Vec<u8>> {
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_is_identity() {
        let t = LoopbackTransport;
        assert_eq!(t.name(), "loopback");
        let frame = vec![1u8, 2, 3, 254];
        assert_eq!(t.carry(7, frame.clone()).unwrap(), frame);
    }

    #[test]
    fn transport_mode_defaults_to_in_process() {
        assert_eq!(TransportMode::default(), TransportMode::InProcess);
    }
}
