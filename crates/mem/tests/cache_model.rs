//! Model-based property test: `CacheArray` against a trivially correct
//! reference implementation (a per-set vector with explicit LRU ordering).
//! Line `n` is interned as id `n`, and every real op is followed by the
//! array's own self-consistency check.

use asf_mem::addr::{Addr, LineAddr};
use asf_mem::cache::CacheArray;
use asf_mem::geometry::CacheGeometry;
use asf_mem::intern::LineId;
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference model: per set, a most-recently-used-last list of
/// `(line, meta, pinned)`.
#[derive(Debug, Clone)]
struct Model {
    sets: HashMap<usize, Vec<(LineAddr, u32)>>,
    ways: usize,
    geom: CacheGeometry,
}

impl Model {
    fn new(geom: CacheGeometry) -> Model {
        Model { sets: HashMap::new(), ways: geom.ways, geom }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        self.geom.set_of(line)
    }

    fn get(&mut self, line: LineAddr) -> Option<u32> {
        let set = self.set_of(line);
        let v = self.sets.entry(set).or_default();
        if let Some(pos) = v.iter().position(|&(l, _)| l == line) {
            let entry = v.remove(pos);
            let meta = entry.1;
            v.push(entry); // MRU at the back
            Some(meta)
        } else {
            None
        }
    }

    fn peek(&self, line: LineAddr) -> Option<u32> {
        self.sets
            .get(&self.set_of(line))
            .and_then(|v| v.iter().find(|&&(l, _)| l == line))
            .map(|&(_, m)| m)
    }

    /// Insert with "meta >= PIN is pinned" semantics; returns evicted line
    /// or Err(()) when all ways pinned.
    fn insert(&mut self, line: LineAddr, meta: u32, pin: u32) -> Result<Option<LineAddr>, ()> {
        let set = self.set_of(line);
        let ways = self.ways;
        let v = self.sets.entry(set).or_default();
        if let Some(pos) = v.iter().position(|&(l, _)| l == line) {
            v.remove(pos);
            v.push((line, meta));
            return Ok(None);
        }
        if v.len() < ways {
            v.push((line, meta));
            return Ok(None);
        }
        // Evict the LRU (front-most) non-pinned entry.
        let victim_pos = v.iter().position(|&(_, m)| m < pin).ok_or(())?;
        let (victim, _) = v.remove(victim_pos);
        v.push((line, meta));
        Ok(Some(victim))
    }

    fn remove(&mut self, line: LineAddr) -> Option<u32> {
        let set = self.set_of(line);
        let v = self.sets.entry(set).or_default();
        let pos = v.iter().position(|&(l, _)| l == line)?;
        Some(v.remove(pos).1)
    }

    fn len(&self) -> usize {
        self.sets.values().map(|v| v.len()).sum()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Get(u8),
    Peek(u8),
    Insert(u8, u32),
    Remove(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::Peek),
        (any::<u8>(), 0u32..200).prop_map(|(l, m)| Op::Insert(l, m)),
        any::<u8>().prop_map(Op::Remove),
    ]
}

/// Metas >= PIN are pinned (cannot be evicted).
const PIN: u32 = 150;

fn line(n: u8) -> LineAddr {
    Addr(n as u64 * 64).line()
}

/// Line `n`'s id.
fn id(n: u8) -> LineId {
    n as LineId
}

/// The real array's insert under the "meta >= PIN is pinned" rule.
fn insert(real: &mut CacheArray<u32>, l: u8, m: u32) -> Result<Option<LineAddr>, ()> {
    let ev = real.insert(id(l), line(l), m, |&meta| meta >= PIN).map_err(|_| ())?;
    Ok(ev.map(|e| {
        assert_eq!(e.line, Addr(e.lid as u64 * 64).line(), "evicted id names its line");
        e.line
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_array_matches_reference_model(
        sets in prop::sample::select(vec![4usize, 64]),
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        // 4 sets × 2 ways keeps sets crowded; with 64 sets most lines sit
        // alone in their set.
        let geom = CacheGeometry::new(sets * 2 * 64, 2);
        let mut real: CacheArray<u32> = CacheArray::new(geom);
        let mut model = Model::new(geom);
        for op in ops {
            match op {
                Op::Get(l) => {
                    let a = real.get(id(l)).map(|m| *m);
                    let b = model.get(line(l));
                    prop_assert_eq!(a, b, "get({})", l);
                }
                Op::Peek(l) => {
                    prop_assert_eq!(real.peek(id(l)).copied(), model.peek(line(l)));
                }
                Op::Insert(l, m) => {
                    let a = insert(&mut real, l, m);
                    let b = model.insert(line(l), m, PIN);
                    prop_assert_eq!(a, b, "insert({}, {})", l, m);
                }
                Op::Remove(l) => {
                    prop_assert_eq!(real.remove(id(l)), model.remove(line(l)));
                }
            }
            prop_assert_eq!(real.len(), model.len());
            if let Err(e) = real.check() {
                prop_assert!(false, "self-check after {:?}: {}", op, e);
            }
        }
        // Final contents agree, looked up and walked.
        let mut want = vec![];
        for n in 0u16..=255 {
            let n = n as u8;
            prop_assert_eq!(real.peek(id(n)).copied(), model.peek(line(n)));
            want.extend(model.peek(line(n)).map(|m| (line(n), m)));
        }
        let mut got: Vec<_> = real.iter().map(|(l, &m)| (l, m)).collect();
        got.sort();
        prop_assert_eq!(got, want);
    }
}

/// Run one op against both implementations, failing on any divergence.
fn step(real: &mut CacheArray<u32>, model: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    match *op {
        Op::Get(l) => prop_assert_eq!(real.get(id(l)).map(|m| *m), model.get(line(l))),
        Op::Peek(l) => prop_assert_eq!(real.peek(id(l)).copied(), model.peek(line(l))),
        Op::Insert(l, m) => {
            let a = insert(real, l, m);
            let b = model.insert(line(l), m, PIN);
            prop_assert_eq!(a, b, "insert({}, {})", l, m);
        }
        Op::Remove(l) => prop_assert_eq!(real.remove(id(l)), model.remove(line(l))),
    }
    prop_assert_eq!(real.len(), model.len());
    if let Err(e) = real.check() {
        prop_assert!(false, "self-check after {:?}: {}", op, e);
    }
    Ok(())
}

/// One set of four ways: every line collides, so removals free ways that
/// the next insertions must reuse, and pinned metas fill the set.
fn one_set() -> CacheGeometry {
    CacheGeometry::new(4 * 64, 4)
}

#[test]
fn removed_way_is_reused_before_any_eviction() {
    let mut real: CacheArray<u32> = CacheArray::new(one_set());
    let mut model = Model::new(one_set());
    let mut ops: Vec<Op> = (0..4).map(|l| Op::Insert(l, l as u32)).collect();
    ops.extend([
        // Free a middle way: the next insert takes it and evicts nothing.
        Op::Remove(1),
        Op::Insert(9, 9),
        Op::Peek(9),
        // Full again: the LRU resident line (0) is the victim, not line 9.
        Op::Insert(10, 10),
        Op::Peek(0),
        // Re-inserting a removed line is a fresh fill, not a stale hit.
        Op::Remove(2),
        Op::Peek(2),
        Op::Insert(2, 22),
        Op::Get(2),
        Op::Insert(11, 11),
        Op::Peek(3),
    ]);
    for op in &ops {
        step(&mut real, &mut model, op).unwrap();
    }
    assert_eq!(real.evictions(), 2);
}

#[test]
fn pinned_set_is_full_until_a_way_is_freed() {
    let mut real: CacheArray<u32> = CacheArray::new(one_set());
    let mut model = Model::new(one_set());
    let mut ops: Vec<Op> = (0..4).map(|l| Op::Insert(l, PIN + l as u32)).collect();
    ops.extend([
        // Every way pinned: SetFull, and the set is left as it was.
        Op::Insert(7, 1),
        Op::Peek(7),
        Op::Peek(0),
        // Unpinning line 2 in place makes it the only victim.
        Op::Insert(2, 5),
        Op::Insert(7, 1),
        Op::Peek(2),
        // Pinned again; removing one frees a way for the next insert.
        Op::Insert(7, PIN),
        Op::Insert(8, 1),
        Op::Remove(0),
        Op::Insert(8, 1),
        Op::Peek(8),
        Op::Insert(8, PIN),
    ]);
    for op in &ops {
        step(&mut real, &mut model, op).unwrap();
    }
    assert_eq!(
        real.insert(id(9), line(9), 0, |&m| m >= PIN),
        Err(asf_mem::cache::SetFull)
    );
}

fn arb_churn_op() -> impl Strategy<Value = Op> {
    // Twelve lines over four ways, removals as common as insertions, and
    // half the inserted metas pinned.
    prop_oneof![
        (0u8..12).prop_map(Op::Get),
        (0u8..12).prop_map(Op::Remove),
        (0u8..12).prop_map(Op::Remove),
        (0u8..12, 0u32..2 * PIN).prop_map(|(l, m)| Op::Insert(l, m)),
        (0u8..12, 0u32..2 * PIN).prop_map(|(l, m)| Op::Insert(l, m)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_set_churn_matches_reference_model(
        ops in prop::collection::vec(arb_churn_op(), 1..300)
    ) {
        let mut real: CacheArray<u32> = CacheArray::new(one_set());
        let mut model = Model::new(one_set());
        for op in &ops {
            step(&mut real, &mut model, op)?;
        }
        for l in 0u8..12 {
            prop_assert_eq!(real.peek(id(l)).copied(), model.peek(line(l)));
        }
    }
}
