//! The engine's run queue (DESIGN.md §14): one packed `clock << 6 | core`
//! key per core, popped in ascending `(clock, core)` order.
//!
//! Packing the core id under the clock makes comparing keys the same as
//! comparing `(clock, core)` pairs, and every key is distinct, so the pop
//! order is total. A pop is an argmin over at most 64 keys — with ≤ 16
//! live cores per machine that is a few compares over one cache line,
//! cheaper than any heap or calendar structure. The scan also yields the
//! second-smallest key: during a turn only the running core's key changes
//! (a core's clock moves only in its own turn), so when the runner comes
//! back still ahead of that key, the next pop returns it without a scan.

/// Bits reserved for the core id under the clock.
const CORE_BITS: u32 = 6;
/// Key of a retired core; sorts after every live key.
const DONE: u64 = u64::MAX;

#[inline]
fn unpack(key: u64) -> (u64, usize) {
    (key >> CORE_BITS, (key & ((1 << CORE_BITS) - 1)) as usize)
}

/// Per-core packed keys plus the cached runner-versus-rest split.
#[derive(Debug)]
pub(crate) struct RunQueue {
    keys: Vec<u64>,
    /// Core returned by the last scanning pop.
    runner: usize,
    /// Smallest key among every core but `runner`, exact while `cached`.
    rest: u64,
    /// No core other than `runner` has been re-keyed since `rest` was taken.
    cached: bool,
}

impl RunQueue {
    /// A queue with every one of `cores` cores due at clock 0.
    pub(crate) fn new(cores: usize) -> RunQueue {
        assert!(cores <= 1 << CORE_BITS, "run queue holds at most 64 cores");
        RunQueue {
            keys: (0..cores as u64).collect(),
            runner: 0,
            rest: DONE,
            cached: false,
        }
    }

    /// The earliest live `(clock, core)`, without changing anything.
    pub(crate) fn peek(&self) -> Option<(u64, usize)> {
        let min = if self.cached {
            self.keys[self.runner].min(self.rest)
        } else {
            self.keys.iter().copied().min().unwrap_or(DONE)
        };
        (min != DONE).then(|| unpack(min))
    }

    /// The earliest live `(clock, core)`. Its key stays queued: the caller
    /// re-keys the core with [`RunQueue::requeue`] or [`RunQueue::retire`]
    /// at the end of its turn.
    pub(crate) fn pop(&mut self) -> Option<(u64, usize)> {
        if self.cached && self.keys[self.runner] < self.rest {
            return Some(unpack(self.keys[self.runner]));
        }
        let (mut min, mut second) = (DONE, DONE);
        for &k in &self.keys {
            if k < min {
                second = min;
                min = k;
            } else if k < second {
                second = k;
            }
        }
        if min == DONE {
            return None;
        }
        let (clock, core) = unpack(min);
        self.runner = core;
        self.rest = second;
        self.cached = true;
        Some((clock, core))
    }

    /// Schedule `core`'s next turn at `clock`.
    #[inline]
    pub(crate) fn requeue(&mut self, core: usize, clock: u64) {
        debug_assert!(
            clock < 1 << (64 - CORE_BITS),
            "clock {clock} overflows the packed key"
        );
        self.set(core, (clock << CORE_BITS) | core as u64);
    }

    /// Remove `core` for good (its program is exhausted).
    #[inline]
    pub(crate) fn retire(&mut self, core: usize) {
        self.set(core, DONE);
    }

    #[inline]
    fn set(&mut self, core: usize, key: u64) {
        self.cached &= core == self.runner;
        self.keys[core] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_clock_then_core_order() {
        let mut q = RunQueue::new(4);
        q.requeue(0, 5);
        q.requeue(1, 5);
        q.requeue(2, 2);
        q.requeue(3, 5);
        assert_eq!(q.pop(), Some((2, 2)));
        q.retire(2);
        for core in [0, 1, 3] {
            assert_eq!(q.peek(), Some((5, core)));
            assert_eq!(q.pop(), Some((5, core)));
            q.retire(core);
        }
        assert_eq!((q.peek(), q.pop()), (None, None));
    }

    #[test]
    fn runner_ahead_of_the_rest_pops_again_without_losing_order() {
        let mut q = RunQueue::new(3);
        q.requeue(1, 100);
        q.requeue(2, 50);
        assert_eq!(q.pop(), Some((0, 0)));
        q.requeue(0, 10);
        assert_eq!(q.pop(), Some((10, 0)), "cached fast path");
        // A same-clock tie with the rest goes to the smaller core id.
        q.requeue(0, 50);
        assert_eq!(q.pop(), Some((50, 0)));
        q.requeue(0, 51);
        assert_eq!(q.pop(), Some((50, 2)));
        q.requeue(2, 200);
        assert_eq!(q.pop(), Some((51, 0)));
    }

    #[derive(Clone, Debug)]
    enum Turn {
        /// Re-queue the popped core this many cycles later.
        Requeue(u64),
        /// Retire the popped core.
        Retire,
        /// Re-queue the popped core, then push another live core's key
        /// forward (a re-key that invalidates the cached split).
        RekeyOther(u64, usize, u64),
    }

    fn arb_turn() -> impl Strategy<Value = Turn> {
        prop_oneof![
            // Zero deltas make same-clock ties with the other cores.
            (0u64..4).prop_map(Turn::Requeue),
            (0u64..300).prop_map(Turn::Requeue),
            (0u64..300).prop_map(Turn::Requeue),
            (0u64..100_000).prop_map(Turn::Requeue),
            Just(Turn::Retire),
            (0u64..50, 0usize..64, 0u64..500).prop_map(|(d, o, e)| Turn::RekeyOther(d, o, e)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The queue pops exactly what `BinaryHeap<Reverse<(clock, core)>>`
        /// pops, under monotone re-keys, retirements and same-clock ties.
        #[test]
        fn matches_binary_heap_reference(
            cores in 1usize..=64,
            turns in prop::collection::vec(arb_turn(), 1..400),
        ) {
            let mut q = RunQueue::new(cores);
            let mut clocks = vec![0u64; cores];
            let mut live = vec![true; cores];
            let mut h: BinaryHeap<Reverse<(u64, usize)>> =
                (0..cores).map(|c| Reverse((0, c))).collect();
            for turn in turns {
                let want = h.pop().map(|Reverse(e)| e);
                prop_assert_eq!(q.peek(), want);
                prop_assert_eq!(q.pop(), want);
                let Some((now, core)) = want else { break };
                match turn {
                    Turn::Retire => {
                        q.retire(core);
                        live[core] = false;
                    }
                    Turn::Requeue(d) | Turn::RekeyOther(d, ..) => {
                        clocks[core] = now + d;
                        q.requeue(core, now + d);
                        h.push(Reverse((now + d, core)));
                    }
                }
                if let Turn::RekeyOther(_, pick, d) = turn {
                    let other = pick % cores;
                    if other != core && live[other] {
                        h.retain(|&Reverse((_, c))| c != other);
                        clocks[other] += d;
                        q.requeue(other, clocks[other]);
                        h.push(Reverse((clocks[other], other)));
                    }
                }
            }
            // Drain what is left in order.
            while let Some(Reverse(want)) = h.pop() {
                prop_assert_eq!(q.pop(), Some(want));
                q.retire(want.1);
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
