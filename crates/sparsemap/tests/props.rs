//! Property tests: the sparse map must behave exactly like a reference
//! `HashMap` under arbitrary operation sequences, and its memory must stay
//! proportional to live entries.
//!
//! Cases come from the deterministic `simkit::SimRng`, so every run covers
//! the same operation sequences and failures reproduce by case number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use simkit::SimRng;
use sparsemap::{DenseMap, RowPool, SparseHashMap, SparseRow};

/// Counts the bytes a thread that has armed it holds, so that a structure's
/// `heap_bytes` can be checked against what it really allocated.
struct LiveBytes;

thread_local! {
    /// `Some(n)`: this thread holds `n` more bytes than when it armed the
    /// count. `const`-initialised, so the allocator can read it.
    static LIVE: Cell<Option<isize>> = const { Cell::new(None) };
}

fn count_live(delta: isize) {
    let _ = LIVE.try_with(|n| n.set(n.get().map(|n| n + delta)));
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_live(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_live(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// An operation in a random map workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

// Keys drawn from a small domain so inserts/removes/hits actually
// interact, mixed with occasional far-away keys for sparseness.
fn random_key(rng: &mut SimRng) -> u64 {
    if rng.gen_bool(0.5) {
        rng.gen_range(64)
    } else {
        rng.next_u64()
    }
}

fn random_ops(rng: &mut SimRng, max: u64) -> Vec<Op> {
    let n = 1 + rng.gen_range(max) as usize;
    (0..n)
        .map(|_| match rng.gen_range(3) {
            0 => Op::Insert(random_key(rng), rng.next_u64()),
            1 => Op::Remove(random_key(rng)),
            _ => Op::Get(random_key(rng)),
        })
        .collect()
}

#[test]
fn sparse_map_matches_hashmap() {
    for case in 0..256u64 {
        let mut rng = SimRng::seed_from(0x5AA5_0000 ^ case);
        let ops = random_ops(&mut rng, 399);
        let mut sut: SparseHashMap<u64> = SparseHashMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    assert_eq!(sut.insert(k, v), reference.insert(k, v));
                }
                Op::Remove(k) => {
                    assert_eq!(sut.remove(k), reference.remove(&k));
                }
                Op::Get(k) => {
                    assert_eq!(sut.get(k), reference.get(&k));
                }
            }
            // An absent key's miss is memoised; a quarter of them are then
            // filled from that memo and must land where a fresh probe would.
            let absent = std::iter::repeat_with(|| random_key(&mut rng))
                .find(|k| !reference.contains_key(k))
                .unwrap();
            assert_eq!(sut.get(absent), None);
            if rng.gen_bool(0.25) {
                *sut.get_or_insert_with(absent, || 1) += 1;
                reference.insert(absent, 2);
            }
            assert_eq!(sut.len(), reference.len());
            sut.check_invariants();
        }
        assert_same_contents(&sut, &reference);
    }
}

/// Full-content comparison, both directions: same pairs, and every one of
/// them found by a lookup.
fn assert_same_contents(sut: &SparseHashMap<u64>, reference: &HashMap<u64, u64>) {
    let mut got: Vec<(u64, u64)> = sut.iter().map(|(k, v)| (k, *v)).collect();
    got.sort_unstable();
    let mut want: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
    want.sort_unstable();
    assert_eq!(got, want);
    for (k, v) in reference {
        assert_eq!(sut.get(*k), Some(v), "key {k:#x} stored but not found");
    }
}

/// The map's hash is a bijection on `u64` (an odd multiply, then a rotate),
/// so it can be run backwards: the `n`th key whose home bucket is `home` in
/// every table of up to 2^32 buckets. What random keys almost never build —
/// many keys sharing one home — is then built on purpose.
fn key_with_home(home: usize, n: u64) -> u64 {
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
    // Newton's iteration for the inverse modulo 2^64; each round doubles the
    // number of correct low bits.
    let mut inverse = MULTIPLIER;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(MULTIPLIER.wrapping_mul(inverse)));
    }
    assert_eq!(MULTIPLIER.wrapping_mul(inverse), 1);
    let hash = home as u64 | (n + 1) << 32;
    hash.rotate_left(17).wrapping_mul(inverse)
}

#[test]
fn inverted_keys_really_share_a_home() {
    // Guards every cluster test below against a change of hash function:
    // `n` keys with one home in an otherwise empty table are displaced
    // 0, 1, .., n-1 buckets, so the mean probe length is (n + 1) / 2.
    for home in [0, 5, 31, 63] {
        let mut m: SparseHashMap<u64> = SparseHashMap::new();
        for n in 0..9 {
            m.insert(key_with_home(home, n), n);
        }
        m.check_invariants();
        assert_eq!(m.probe_stats(), 5.0, "home {home}");
    }
}

/// A cluster of 15 keys on 5 neighbouring homes starting at `base` (of a
/// 64-bucket table, wrapping past bucket 63), three keys a home.
fn cluster(base: usize) -> Vec<u64> {
    (0..15)
        .map(|i| key_with_home((base + i / 3) % 64, i as u64 % 3))
        .collect()
}

#[test]
fn clusters_survive_removal_at_head_middle_and_tail() {
    // One home's worth of pile-up inside a group, a run that straddles the
    // group boundary at bucket 32, and one that wraps from bucket 63 to 0.
    for base in [5, 27, 58, 61] {
        let keys = cluster(base);
        // Insertion orders decide who is displaced past whom: home order,
        // reverse (late homes settle first, early homes probe past them),
        // and shuffles. Removal orders: head first, tail first, middle
        // out, and shuffles.
        let mut rng = SimRng::seed_from(0x5AA5_4000 ^ base as u64);
        let mut orders: Vec<Vec<u64>> = vec![keys.clone(), keys.iter().rev().copied().collect()];
        let mut middle_out = keys.clone();
        middle_out.rotate_left(keys.len() / 2);
        orders.push(middle_out);
        for _ in 0..5 {
            let mut shuffled = keys.clone();
            rng.shuffle(&mut shuffled);
            orders.push(shuffled);
        }
        for insert_order in &orders {
            for remove_order in &orders {
                let mut sut: SparseHashMap<u64> = SparseHashMap::new();
                let mut reference: HashMap<u64, u64> = HashMap::new();
                for &k in insert_order {
                    assert_eq!(sut.insert(k, !k), reference.insert(k, !k));
                    sut.check_invariants();
                }
                assert_eq!(sut.buckets(), 64, "the cluster was laid out for 64");
                for (step, &k) in remove_order.iter().enumerate() {
                    assert_eq!(sut.remove(k), reference.remove(&k));
                    sut.check_invariants();
                    assert_same_contents(&sut, &reference);
                    // Every third step puts a removed key back, so shifted
                    // entries are probed past and displaced again.
                    if step % 3 == 2 {
                        let back = remove_order[step - 1];
                        assert_eq!(sut.insert(back, step as u64), None);
                        reference.insert(back, step as u64);
                        sut.check_invariants();
                    }
                }
                assert_same_contents(&sut, &reference);
            }
        }
    }
}

#[test]
fn clusters_keep_their_keys_across_growth_and_shrink() {
    // 60 keys on three homes around the wrap point: growing moves the run
    // (bucket 63 of 64 is bucket 63 of 128, mid-table), shrinking moves it
    // back, and both rebuild through the same probe.
    let keys: Vec<u64> = (0..60)
        .map(|i| key_with_home([62, 63, 0][i % 3], i as u64 / 3))
        .collect();
    let mut sut: SparseHashMap<u64> = SparseHashMap::new();
    let mut reference: HashMap<u64, u64> = HashMap::new();
    for &k in &keys {
        assert_eq!(sut.insert(k, k ^ 1), reference.insert(k, k ^ 1));
        sut.check_invariants();
    }
    assert_eq!(sut.buckets(), 128);
    assert_same_contents(&sut, &reference);
    for &k in &keys[..55] {
        assert_eq!(sut.remove(k), reference.remove(&k));
        sut.check_invariants();
    }
    assert_eq!(sut.buckets(), 64);
    assert_same_contents(&sut, &reference);
}

#[test]
fn fifo_churn_across_grow_and_shrink_cycles() {
    // The page map's traffic — remove the oldest key, insert a fresh one —
    // while the live size swings between 12 and 700 entries: the table goes
    // 64 -> 1024 buckets and back, three times over, 10 k operations in all.
    let mut rng = SimRng::seed_from(0x5AA5_5000);
    let mut sut: SparseHashMap<u64> = SparseHashMap::new();
    let mut reference: HashMap<u64, u64> = HashMap::new();
    let mut fifo = std::collections::VecDeque::new();
    let fresh = |rng: &mut SimRng| {
        // Half the keys dense and sequential like LBAs, half anywhere.
        if rng.gen_bool(0.5) {
            rng.gen_range(1 << 20)
        } else {
            rng.next_u64()
        }
    };
    let mut ops = 0u64;
    let mut sizes = Vec::new();
    for target in [700usize, 12, 700, 12, 700, 12] {
        // Drift toward the target two steps forward, one back, then churn
        // in place at constant live size.
        let mut churn = 400;
        while churn > 0 {
            let grow = match fifo.len().cmp(&target) {
                std::cmp::Ordering::Less => ops % 3 != 2,
                std::cmp::Ordering::Greater => ops % 3 == 2,
                std::cmp::Ordering::Equal => {
                    churn -= 1;
                    churn % 2 == 0
                }
            };
            if grow || fifo.is_empty() {
                let k = fresh(&mut rng);
                let old = reference.insert(k, ops);
                if old.is_none() {
                    fifo.push_back(k);
                }
                assert_eq!(sut.insert(k, ops), old);
            } else {
                let k = fifo.pop_front().unwrap();
                assert_eq!(sut.remove(k), reference.remove(&k));
            }
            ops += 1;
            assert_eq!(sut.len(), reference.len());
            sut.check_invariants();
        }
        assert_same_contents(&sut, &reference);
        sizes.push(sut.buckets());
    }
    assert!(ops >= 10_000, "only {ops} operations");
    assert_eq!(sizes, [1024, 64, 1024, 64, 1024, 64]);
}

#[test]
fn memo_follows_hot_keys_through_shifts_swaps_and_resizes() {
    // A repeat lookup is answered from the memo. Hammer a few hot keys
    // with repeated lookups, and between them insert and remove keys homed
    // in the same and the adjacent group: those shift the hot keys' packed
    // slots, carry them across buckets by backward-shift swaps, and move
    // them between groups at the 31 -> 32 boundary. Filler keys grow the
    // table and let it shrink again, rebuilding it under the memo.
    let hot: Vec<u64> = [(29, 0), (30, 0), (31, 0), (33, 0)]
        .map(|(home, n)| key_with_home(home, n))
        .to_vec();
    let neighbours: Vec<u64> = (0..24)
        .map(|i| key_with_home(26 + i % 12, 1 + i as u64 / 12))
        .collect();
    let mut rng = SimRng::seed_from(0x5AA5_6000);
    let mut sut: SparseHashMap<u64> = SparseHashMap::new();
    let mut reference: HashMap<u64, u64> = HashMap::new();
    let mut fillers: Vec<u64> = Vec::new();
    let (mut grew, mut shrank) = (0, 0);
    for step in 0..6_000u64 {
        let at = format!("step {step}");
        let buckets = sut.buckets();
        match rng.gen_range(10) {
            // A hot key, looked up one to three times running.
            0..=5 => {
                let k = hot[rng.gen_range(hot.len() as u64) as usize];
                for _ in 0..1 + rng.gen_range(3) {
                    match rng.gen_range(5) {
                        0 => assert_eq!(sut.get(k), reference.get(&k), "{at}"),
                        1 => {
                            let want = reference.get_mut(&k).map(|v| {
                                *v += 1;
                                *v
                            });
                            let got = sut.get_mut(k).map(|v| {
                                *v += 1;
                                *v
                            });
                            assert_eq!(got, want, "{at}");
                        }
                        2 => {
                            let want = *reference.entry(k).or_insert(step);
                            assert_eq!(*sut.get_or_insert_with(k, || step), want, "{at}");
                        }
                        3 => assert_eq!(sut.remove(k), reference.remove(&k), "{at}"),
                        _ => assert_eq!(sut.insert(k, !step), reference.insert(k, !step), "{at}"),
                    }
                    sut.check_invariants();
                }
            }
            // A neighbour comes or goes.
            6..=7 => {
                let k = neighbours[rng.gen_range(neighbours.len() as u64) as usize];
                if rng.gen_bool(0.5) {
                    assert_eq!(sut.insert(k, step), reference.insert(k, step), "{at}");
                } else {
                    assert_eq!(sut.remove(k), reference.remove(&k), "{at}");
                }
            }
            // Fillers pile up for a thousand steps, then drain twice as fast.
            _ if step / 1_000 % 2 == 0 => {
                for _ in 0..3 {
                    let k = rng.next_u64();
                    fillers.push(k);
                    assert_eq!(sut.insert(k, k), reference.insert(k, k), "{at}");
                }
            }
            _ => {
                for k in fillers.split_off(fillers.len().saturating_sub(6)) {
                    assert_eq!(sut.remove(k), reference.remove(&k), "{at}");
                }
            }
        }
        grew += usize::from(sut.buckets() > buckets);
        shrank += usize::from(sut.buckets() < buckets);
        assert_eq!(sut.len(), reference.len(), "{at}");
        sut.check_invariants();
        // The figure reads where each key's probe ends; the memo must not
        // change it, whether it is stale or was just set by a hit.
        let cold = sut.probe_stats();
        let k = hot[step as usize % hot.len()];
        assert_eq!(sut.get(k), reference.get(&k), "{at}");
        assert_eq!(sut.probe_stats(), cold, "{at}: probe_stats cold vs warm");
    }
    assert_same_contents(&sut, &reference);
    assert!(grew >= 6 && shrank >= 6, "grew {grew}, shrank {shrank}");
}

#[test]
fn sparse_map_survives_heavy_churn() {
    for case in 0..32u64 {
        let seed = SimRng::seed_from(0x5AA5_1000 ^ case).next_u64();
        // Insert/remove the same small key set thousands of times; churn
        // alone must never grow the table.
        let mut m: SparseHashMap<u64> = SparseHashMap::new();
        let mut x = seed | 1;
        for round in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 32;
            if round % 3 == 2 {
                m.remove(k);
            } else {
                m.insert(k, round);
            }
            assert!(m.len() <= 32);
            assert_eq!(m.buckets(), 64, "32 live keys fit the minimum table");
            m.check_invariants();
        }
    }
}

#[test]
fn sparse_memory_tracks_entries() {
    for case in 0..24u64 {
        let mut rng = SimRng::seed_from(0x5AA5_2000 ^ case);
        let n = 1 + rng.gen_range(1_999) as usize;
        let mut m: SparseHashMap<u64> = SparseHashMap::new();
        for i in 0..n as u64 {
            m.insert(i * 1_000_003, i);
        }
        let mem = m.memory();
        assert_eq!(mem.entries, n);
        let per = mem.modeled_bytes_per_entry().unwrap();
        assert!((8.0..10.0).contains(&per), "modeled per-entry {}", per);
    }
}

#[test]
fn dense_map_matches_hashmap() {
    const SPAN: u64 = 64;
    for case in 0..256u64 {
        let mut rng = SimRng::seed_from(0x5AA5_3000 ^ case);
        let ops = random_ops(&mut rng, 299);
        let mut sut: DenseMap<u64> = DenseMap::new(SPAN as usize);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    if k < SPAN {
                        assert_eq!(sut.insert(k, v).unwrap(), reference.insert(k, v));
                    } else {
                        assert!(sut.insert(k, v).is_err());
                    }
                }
                Op::Remove(k) => {
                    assert_eq!(sut.remove(k), reference.remove(&k));
                }
                Op::Get(k) => {
                    assert_eq!(sut.get(k), reference.get(&k));
                }
            }
            assert_eq!(sut.len(), reference.len());
        }
    }
}

/// Everything observable about `row` against a plain 64-slot array: bitmap,
/// length, every slot through `get` and `get_mut`, `iter()` contents and
/// ascending order, and no heap held while empty.
fn assert_row_matches(row: &mut SparseRow<u64>, model: &[Option<u64>; 64], at: &str) {
    let want: Vec<(u32, u64)> = (0..64)
        .filter_map(|i| Some((i, model[i as usize]?)))
        .collect();
    let got: Vec<(u32, u64)> = row.iter().map(|(i, v)| (i, *v)).collect();
    assert_eq!(got, want, "{at}: iter()");
    let bits = want.iter().fold(0u64, |bits, (i, _)| bits | 1 << i);
    assert_eq!(row.bits(), bits, "{at}: bits()");
    assert_eq!(row.len(), want.len(), "{at}: len()");
    assert_eq!(row.is_empty(), want.is_empty(), "{at}: is_empty()");
    for i in 0..64 {
        assert_eq!(row.get(i).copied(), model[i as usize], "{at}: get({i})");
        assert_eq!(
            row.get_mut(i).copied(),
            model[i as usize],
            "{at}: get_mut({i})"
        );
    }
    if want.is_empty() {
        assert_eq!(row.heap_bytes(), 0, "{at}: an empty row holds heap");
    } else {
        assert!(row.heap_bytes() >= 8 * want.len(), "{at}: heap_bytes()");
    }
}

#[test]
fn sparse_row_matches_a_64_slot_array() {
    // The slots where an off-by-one in the rank mask or the shift shows.
    const EDGES: [u32; 4] = [0, 31, 32, 63];
    for case in 0..128u64 {
        let mut rng = SimRng::seed_from(0x0520_0000 ^ case);
        let mut pool = RowPool::new();
        let mut row: SparseRow<u64> = SparseRow::new();
        let mut model = [None; 64];
        // Some cases live in a few slots (so removes and overwrites hit),
        // some over the whole row.
        let span = [4, 16, 64][case as usize % 3];
        for step in 0..200 {
            let at = format!("case {case} step {step}");
            let slot = if rng.gen_bool(0.2) {
                EDGES[rng.gen_range(4) as usize]
            } else {
                rng.gen_range(span) as u32
            };
            match rng.gen_range(8) {
                // Insert or overwrite.
                0..=3 => {
                    let value = rng.next_u64();
                    let old = row.insert(slot, value, &mut pool);
                    assert_eq!(old, model[slot as usize].replace(value), "{at}");
                }
                // Remove, present or absent.
                4..=6 => {
                    let old = row.remove(slot, &mut pool);
                    assert_eq!(old, model[slot as usize].take(), "{at}");
                }
                // Take the whole row.
                _ => {
                    let want: Vec<(u32, u64)> = (0..64)
                        .filter_map(|i| Some((i, model[i as usize].take()?)))
                        .collect();
                    let mut taken = Vec::new();
                    row.drain(&mut pool, |i, v| taken.push((i, v)));
                    assert_eq!(taken, want, "{at}");
                }
            }
            assert_row_matches(&mut row, &model, &at);
        }
    }
}

#[test]
fn sparse_row_holds_all_64_slots() {
    let mut pool = RowPool::new();
    let mut row: SparseRow<u64> = SparseRow::new();
    let mut model = [None; 64];
    // Filled from both ends toward the middle, so inserts land in front of,
    // behind and between the values already packed.
    for n in 0..32u32 {
        for slot in [63 - n, n] {
            assert_eq!(row.insert(slot, u64::from(slot) * 3, &mut pool), None);
            model[slot as usize] = Some(u64::from(slot) * 3);
            assert_row_matches(&mut row, &model, &format!("filling {slot}"));
        }
    }
    assert_eq!(row.bits(), u64::MAX);
    assert_eq!(row.len(), 64);
    assert_eq!(
        row.insert(63, 1, &mut pool),
        Some(189),
        "a full row still overwrites"
    );
    assert_eq!(row.remove(63, &mut pool), Some(1));
    model[63] = None;
    assert_row_matches(&mut row, &model, "63 removed");
    let mut taken: Vec<(u32, u64)> = Vec::new();
    row.drain(&mut pool, |i, v| taken.push((i, v)));
    assert_eq!(taken.len(), 63);
    assert!(taken.iter().all(|&(i, v)| v == u64::from(i) * 3));
    assert_row_matches(&mut row, &[None; 64], "taken");
}

/// Rows sharing one pool against 64-slot arrays, through every capacity
/// class and back: each row's contents as above, its array the class a
/// row of its history must have (4 slots for its first value, the next
/// class each time it fills, none once empty), and every byte the rows and
/// the pool hold counted by their `heap_bytes` — checked against the
/// allocator after every step, and nothing left once they drop.
#[test]
fn pooled_rows_match_the_model_across_every_class_change() {
    const ROWS: usize = 4;
    for case in 0..32u64 {
        let mut rng = SimRng::seed_from(0x9001_0000 ^ case);
        let mut taken = Vec::with_capacity(64);
        LIVE.set(Some(0));
        let mut pool = RowPool::new();
        let mut rows: [SparseRow<u64>; ROWS] = std::array::from_fn(|_| SparseRow::new());
        let mut models = [[None; 64]; ROWS];
        // The capacity each row's array must have.
        let mut slots = [0usize; ROWS];
        let mut classes_seen = 0u32;
        for step in 0..1200 {
            let r = rng.gen_range(ROWS as u64) as usize;
            let (row, model) = (&mut rows[r], &mut models[r]);
            let slot = rng.gen_range(64) as u32;
            // Mostly inserts, so rows climb into the 64-slot class; removes
            // and the odd drain bring them back.
            match rng.gen_range(64) {
                0..=47 => {
                    let value = rng.next_u64();
                    let new = model[slot as usize].is_none();
                    if new && row.len() == slots[r] {
                        slots[r] = (2 * slots[r]).max(4);
                    }
                    let old = row.insert(slot, value, &mut pool);
                    assert_eq!(old, model[slot as usize].replace(value));
                }
                48..=62 => {
                    let old = row.remove(slot, &mut pool);
                    assert_eq!(old, model[slot as usize].take());
                    if row.is_empty() {
                        slots[r] = 0;
                    }
                }
                _ => {
                    taken.clear();
                    row.drain(&mut pool, |i, v| taken.push((i, v)));
                    let want: Vec<(u32, u64)> = (0..64)
                        .filter_map(|i| Some((i, model[i as usize].take()?)))
                        .collect();
                    assert_eq!(taken, want);
                    slots[r] = 0;
                }
            }
            let at = format!("case {case} step {step} row {r}");
            assert_row_matches(row, model, &at);
            assert_eq!(row.heap_bytes(), 8 * slots[r], "{at}: array class");
            classes_seen |= slots[r] as u32;
            // The label above is the step's one allocation; it is freed
            // before the count is read.
            drop(at);
            let rows_bytes: usize = rows.iter().map(SparseRow::heap_bytes).sum();
            assert_eq!(
                Some((rows_bytes + pool.heap_bytes()) as isize),
                LIVE.get(),
                "case {case} step {step}: heap_bytes against the allocator"
            );
        }
        assert_eq!(classes_seen, 4 | 8 | 16 | 32 | 64, "case {case}");
        drop((rows, pool));
        assert_eq!(LIVE.take(), Some(0), "case {case}: bytes left behind");
    }
}
