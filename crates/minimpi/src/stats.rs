//! Traffic accounting: message and byte counters per world.
//!
//! Each [`TrafficStats`] instance keeps exact per-world counts; the
//! [`obs::Counter`] hot path is one relaxed atomic add.

use obs::Counter;

/// Aggregate counters over a world's lifetime. Cheap relaxed atomics;
/// read them after `World::run` returns (or between phases) for exact
/// values.
#[derive(Debug, Default)]
pub struct TrafficStats {
    messages: Counter,
    bytes: Counter,
    collective_calls: Counter,
}

impl TrafficStats {
    pub(crate) fn record_send(&self, bytes: usize) {
        self.messages.inc();
        self.bytes.add(bytes as u64);
    }

    pub(crate) fn record_collective(&self) {
        self.collective_calls.inc();
    }

    /// Total point-to-point messages sent (collectives are built from
    /// point-to-point, so their traffic is included).
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Total payload bytes sent.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Number of collective-operation *entries* across all ranks.
    pub fn collective_calls(&self) -> u64 {
        self.collective_calls.get()
    }

    /// Reset this world's counters.
    pub fn reset(&self) {
        self.messages.reset();
        self.bytes.reset();
        self.collective_calls.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = TrafficStats::default();
        s.record_send(100);
        s.record_send(28);
        s.record_collective();
        assert_eq!(s.messages(), 2);
        assert_eq!(s.bytes(), 128);
        assert_eq!(s.collective_calls(), 1);
        s.reset();
        assert_eq!((s.messages(), s.bytes(), s.collective_calls()), (0, 0, 0));
    }
}
