//! Generation-stamped scratch arena for per-attempt churning state.
//!
//! The probe path and transaction teardown need short-lived working buffers
//! every attempt: a snapshot of victim speculative state, the batched
//! verdict list, and the dropped-line list from spec teardown. Allocating
//! them per use would put a `malloc`/`free` pair on the hottest loop in the
//! simulator; keeping them as loose fields on `Machine` (the pre-PR-6
//! arrangement) worked but scattered the pooling discipline across the
//! struct. [`ProbeArena`] gathers them behind a checkout/checkin protocol:
//!
//! * `checkout_*` hands the caller the buffer by value (`std::mem::take`),
//!   cleared, so the caller can hold it across `&mut self` calls on the
//!   machine without fighting the borrow checker.
//! * `checkin_*` returns it, retaining its grown capacity for the next
//!   attempt.
//!
//! Debug builds track outstanding checkouts and panic on double-checkout —
//! the probe path is non-reentrant, and silently handing out a second
//! (empty, capacity-less) buffer would hide a pooling regression rather
//! than a correctness bug.

use crate::hier::DroppedLine;
use asf_core::detector::ProbeOutcome;
use asf_core::spec::SpecState;

/// Pooled scratch buffers for one machine's probe/teardown hot paths.
#[derive(Debug, Default)]
pub struct ProbeArena {
    /// Snapshot of `(victim core, victim spec state)` pairs for one probe.
    vspec: Vec<(usize, SpecState)>,
    /// Batched probe verdicts: `(victim core, outcome)` in ascending core
    /// order, produced by the read-only pass and consumed by the apply pass.
    verdicts: Vec<(usize, ProbeOutcome)>,
    /// Lines whose residency on a core may have ended during spec teardown.
    dropped: Vec<DroppedLine>,
    /// Attempts served — bumped per checkin cycle; a cheap liveness signal
    /// for tests and debug dumps.
    generation: u64,
    #[cfg(debug_assertions)]
    out_vspec: bool,
    #[cfg(debug_assertions)]
    out_verdicts: bool,
    #[cfg(debug_assertions)]
    out_dropped: bool,
}

impl ProbeArena {
    /// Fresh arena with empty (capacity-less) buffers.
    pub fn new() -> ProbeArena {
        ProbeArena::default()
    }

    /// Attempts served (checkin cycles completed).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Check out the victim-spec snapshot buffer (cleared).
    #[inline]
    pub fn checkout_vspec(&mut self) -> Vec<(usize, SpecState)> {
        #[cfg(debug_assertions)]
        {
            assert!(!self.out_vspec, "vspec scratch double-checkout");
            self.out_vspec = true;
        }
        let mut v = std::mem::take(&mut self.vspec);
        v.clear();
        v
    }

    /// Return the victim-spec snapshot buffer, keeping its capacity pooled.
    #[inline]
    pub fn checkin_vspec(&mut self, v: Vec<(usize, SpecState)>) {
        #[cfg(debug_assertions)]
        {
            assert!(self.out_vspec, "vspec checkin without checkout");
            self.out_vspec = false;
        }
        self.vspec = v;
        self.generation += 1;
    }

    /// Check out the batched-verdict buffer (cleared).
    #[inline]
    pub fn checkout_verdicts(&mut self) -> Vec<(usize, ProbeOutcome)> {
        #[cfg(debug_assertions)]
        {
            assert!(!self.out_verdicts, "verdict scratch double-checkout");
            self.out_verdicts = true;
        }
        let mut v = std::mem::take(&mut self.verdicts);
        v.clear();
        v
    }

    /// Return the batched-verdict buffer, keeping its capacity pooled.
    #[inline]
    pub fn checkin_verdicts(&mut self, v: Vec<(usize, ProbeOutcome)>) {
        #[cfg(debug_assertions)]
        {
            assert!(self.out_verdicts, "verdict checkin without checkout");
            self.out_verdicts = false;
        }
        self.verdicts = v;
    }

    /// Check out the dropped-line buffer (cleared).
    #[inline]
    pub fn checkout_dropped(&mut self) -> Vec<DroppedLine> {
        #[cfg(debug_assertions)]
        {
            assert!(!self.out_dropped, "dropped scratch double-checkout");
            self.out_dropped = true;
        }
        let mut v = std::mem::take(&mut self.dropped);
        v.clear();
        v
    }

    /// Return the dropped-line buffer, keeping its capacity pooled.
    #[inline]
    pub fn checkin_dropped(&mut self, v: Vec<DroppedLine>) {
        #[cfg(debug_assertions)]
        {
            assert!(self.out_dropped, "dropped checkin without checkout");
            self.out_dropped = false;
        }
        self.dropped = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_checkin_pools_capacity() {
        let mut a = ProbeArena::new();
        let mut v = a.checkout_vspec();
        v.reserve(64);
        let cap = v.capacity();
        v.push((1, SpecState::EMPTY));
        a.checkin_vspec(v);
        assert_eq!(a.generation(), 1);
        let v2 = a.checkout_vspec();
        assert!(v2.is_empty(), "checkout hands back a cleared buffer");
        assert!(v2.capacity() >= cap, "capacity survives the round trip");
        a.checkin_vspec(v2);
        assert_eq!(a.generation(), 2);
    }

    #[test]
    fn buffers_are_independent() {
        let mut a = ProbeArena::new();
        let v = a.checkout_vspec();
        let mut d = a.checkout_dropped();
        let w = a.checkout_verdicts();
        d.push((1, false));
        a.checkin_dropped(d);
        a.checkin_verdicts(w);
        a.checkin_vspec(v);
        assert!(a.checkout_dropped().is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double-checkout")]
    fn double_checkout_panics_in_debug() {
        let mut a = ProbeArena::new();
        let _v1 = a.checkout_vspec();
        let _v2 = a.checkout_vspec();
    }
}
