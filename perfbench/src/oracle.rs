//! Output checks. Each writer keeps a bitmap of the indices it owns, so its
//! own inserts, removes and gets are checked exactly; everything else is
//! checked by invariants that hold under any interleaving.

use crate::gen::{key, prefilled};

/// Which indices of the working set are present, as seen by their one writer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    bits: Vec<u64>,
}

impl Model {
    /// The state right after the bulk build, restricted to the indices
    /// congruent to `thread` modulo `threads`.
    pub fn prefilled(w: u64, threads: u64, thread: u64) -> Self {
        let mut model = Model {
            bits: vec![0; w.div_ceil(64) as usize],
        };
        for i in (thread..w).step_by(threads as usize) {
            if prefilled(i) {
                model.set(i, true);
            }
        }
        model
    }

    pub fn has(&self, i: u64) -> bool {
        self.bits[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    pub fn set(&mut self, i: u64, present: bool) {
        let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        if present {
            self.bits[word] |= bit;
        } else {
            self.bits[word] &= !bit;
        }
    }

    pub fn len(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// The union of models over disjoint index sets.
    pub fn union(models: &[Model]) -> Model {
        let mut bits = models[0].bits.clone();
        for model in &models[1..] {
            for (into, from) in bits.iter_mut().zip(&model.bits) {
                *into |= from;
            }
        }
        Model { bits }
    }
}

/// `insert` must report "newly inserted" exactly when the owner's model lacks
/// the index; the model then has it either way.
pub fn check_insert(model: &mut Model, i: u64, inserted: bool) -> bool {
    let ok = inserted != model.has(i);
    model.set(i, true);
    ok
}

/// `remove` must hand back the stored value exactly when the model has the index.
pub fn check_remove(model: &mut Model, i: u64, removed: Option<u64>) -> bool {
    let ok = removed == model.has(i).then_some(i);
    model.set(i, false);
    ok
}

/// `get` of an index the model covers is checked exactly; of any other index
/// only "absent, or the value stored under that key".
pub fn check_get(model: &Model, covered: bool, i: u64, got: Option<u64>) -> bool {
    if covered {
        got == model.has(i).then_some(i)
    } else {
        got.is_none_or(|v| v == i)
    }
}

/// Any entry a query returns must be one the benchmark stored.
pub fn check_entry(k: u64, v: u64) -> bool {
    key(v) == k
}

/// `predecessor(bound)` returns a stored entry at or below the bound.
pub fn check_pred(bound: u64, got: Option<(u64, u64)>) -> bool {
    got.is_none_or(|(k, v)| k <= bound && check_entry(k, v))
}

/// Checks a scan as it streams: stored entries, at or above `from`, strictly
/// ascending, at most `limit` of them.
pub struct ScanCheck {
    from: u64,
    limit: usize,
    last: Option<u64>,
    seen: usize,
    ok: bool,
}

impl ScanCheck {
    pub fn new(from: u64, limit: usize) -> Self {
        ScanCheck {
            from,
            limit,
            last: None,
            seen: 0,
            ok: true,
        }
    }

    pub fn visit(&mut self, k: u64, v: u64) {
        self.ok &= check_entry(k, v) && k >= self.from && self.last.is_none_or(|last| k > last);
        self.last = Some(k);
        self.seen += 1;
    }

    pub fn finish(self) -> bool {
        self.ok && self.seen <= self.limit
    }
}

/// After the last slice the structure is quiescent: its length and its full
/// in-order contents must equal the union of the writers' models. Returns the
/// number of discrepancies (wrong, lost, duplicated or misordered entries, plus
/// one if `len` disagrees).
pub fn final_mismatches(
    expected: &Model,
    len: usize,
    contents: impl Iterator<Item = (u64, u64)>,
) -> u64 {
    let mut wrong = 0u64;
    let mut seen = 0u64;
    let mut last = None;
    for (k, v) in contents {
        let stored = check_entry(k, v) && expected.has(v);
        let ascending = last.is_none_or(|last| k > last);
        if !(stored && ascending) {
            wrong += 1;
        }
        last = Some(k);
        seen += 1;
    }
    let want = expected.len();
    // Every entry seen is a distinct expected one unless counted wrong above,
    // so a shortfall is exactly the number of lost keys.
    wrong += want.saturating_sub(seen - wrong.min(seen));
    if len as u64 != want {
        wrong += 1;
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_a_writers_own_indices() {
        let mut model = Model::prefilled(64, 2, 1);
        // Thread 1 owns odd indices; of those, bit 1 clear is prefilled.
        assert!(model.has(1) && !model.has(3) && model.has(5));
        assert!(!model.has(0), "index 0 belongs to thread 0");
        assert_eq!(model.len(), 16);
        assert!(check_insert(&mut model, 3, true));
        assert!(
            !check_insert(&mut model, 3, true),
            "second insert must say false"
        );
        assert!(check_remove(&mut model, 3, Some(3)));
        assert!(!check_remove(&mut model, 3, Some(3)), "already removed");
        let all = Model::union(&[Model::prefilled(64, 2, 0), Model::prefilled(64, 2, 1)]);
        assert_eq!(all, Model::prefilled(64, 1, 0));
    }

    #[test]
    fn an_injected_wrong_reply_is_flagged() {
        let model = Model::prefilled(64, 1, 0);
        assert!(check_get(&model, true, 4, Some(4)));
        assert!(!check_get(&model, true, 4, None), "lost key");
        assert!(!check_get(&model, true, 4, Some(5)), "wrong value");
        assert!(!check_get(&model, true, 2, Some(2)), "phantom key");
        assert!(check_get(&model, false, 2, None) && check_get(&model, false, 2, Some(2)));
        assert!(!check_get(&model, false, 2, Some(9)));

        let (k, v) = (key(9), 9);
        assert!(check_pred(k + 5, Some((k, v))) && check_pred(0, None));
        assert!(!check_pred(k - 1, Some((k, v))), "above the bound");
        assert!(!check_pred(k + 5, Some((k, v + 1))), "not a stored entry");

        let mut entries = [(key(1), 1), (key(2), 2), (key(3), 3)];
        entries.sort_unstable();
        let run = |from, limit, entries: &[(u64, u64)]| {
            let mut check = ScanCheck::new(from, limit);
            for &(k, v) in entries {
                check.visit(k, v);
            }
            check.finish()
        };
        assert!(run(0, 3, &entries));
        assert!(!run(0, 2, &entries), "over the limit");
        assert!(!run(entries[0].0 + 1, 3, &entries), "below from");
        entries.swap(0, 1);
        assert!(!run(0, 3, &entries), "not ascending");
    }

    #[test]
    fn an_injected_lost_key_fails_the_final_check() {
        let model = Model::prefilled(256, 1, 0);
        let mut contents: Vec<(u64, u64)> = (0..256)
            .filter(|&i| model.has(i))
            .map(|i| (key(i), i))
            .collect();
        contents.sort_unstable();
        let n = contents.len();
        assert_eq!(final_mismatches(&model, n, contents.iter().copied()), 0);
        let lost = contents.remove(n / 2);
        assert_eq!(final_mismatches(&model, n, contents.iter().copied()), 1);
        assert_eq!(final_mismatches(&model, n - 1, contents.iter().copied()), 2);
        contents.push((key(3), 3));
        contents.sort_unstable();
        assert!(!model.has(3));
        // One phantom entry and still one lost key.
        assert_eq!(final_mismatches(&model, n, contents.iter().copied()), 2);
        contents.push(lost);
        assert!(final_mismatches(&model, n + 1, contents.iter().copied()) >= 2);
    }
}
