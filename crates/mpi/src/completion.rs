//! The completed-request set of one MPI rank.

use pico_psm::MqHandle;

/// PSM requests that completed but were not yet consumed by a wait, as a
/// bitset indexed by `handle - base`.
///
/// Handles are dense per endpoint (one counter), and a wait consumes the
/// handles it waited on, so the live span is the rank's outstanding
/// window. [`rebase`](Self::rebase) restarts the index at the endpoint's
/// next handle whenever nothing is live, which keeps the words bounded by
/// that window rather than by the run's length.
#[derive(Default)]
pub(crate) struct CompletionSet {
    /// Handle number of bit 0 of `words[0]`.
    base: u64,
    words: Vec<u64>,
    /// Set bits.
    len: usize,
}

impl CompletionSet {
    fn slot(&self, h: MqHandle) -> Option<(usize, u64)> {
        let i = h.0.checked_sub(self.base)?;
        Some(((i / 64) as usize, 1 << (i % 64)))
    }

    /// Record that `h` completed.
    pub(crate) fn insert(&mut self, h: MqHandle) {
        let (w, bit) = self
            .slot(h)
            .expect("completion of a handle issued before the last rebase");
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.len += 1;
        }
    }

    /// Whether `h` completed and was not yet consumed.
    pub(crate) fn contains(&self, h: MqHandle) -> bool {
        self.slot(h)
            .and_then(|(w, bit)| self.words.get(w).map(|x| x & bit != 0))
            .unwrap_or(false)
    }

    /// Consume `h` (a no-op if it is not in the set).
    pub(crate) fn remove(&mut self, h: MqHandle) {
        if let Some((w, bit)) = self.slot(h) {
            if let Some(x) = self.words.get_mut(w) {
                if *x & bit != 0 {
                    *x &= !bit;
                    self.len -= 1;
                }
            }
        }
    }

    /// Whether no completion is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Restart the index at `next`, the lowest handle that can still
    /// complete. Only valid while the set is empty.
    pub(crate) fn rebase(&mut self, next: MqHandle) {
        debug_assert!(self.is_empty(), "rebase with pending completions");
        self.words.clear();
        self.base = next.0;
    }

    /// The pending completions in ascending handle order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = MqHandle> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &x)| {
            let base = self.base + 64 * w as u64;
            (0..64)
                .filter(move |b| x >> b & 1 != 0)
                .map(move |b| MqHandle(base + b))
        })
    }

    /// Words in use (the memory bound the rebase keeps).
    #[cfg(test)]
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_sim::{FastMap, Rng};

    /// Seeded interleavings of issue, complete, wait and rebase over a
    /// dense handle counter, the way one rank drives its endpoint: the
    /// bitset answers every query exactly like the hash-map set it
    /// replaced, and its words stay bounded by the outstanding window.
    #[test]
    fn bitset_matches_map_reference() {
        for case in 0..20u64 {
            let mut rng = Rng::new(0xc0_3e7e ^ case);
            let window = 1 + rng.gen_range(64) as usize;
            let mut set = CompletionSet::default();
            let mut map: FastMap<MqHandle, ()> = FastMap::new();
            let mut next = 1u64;
            // Issued and not yet consumed (the rank's outstanding handles
            // plus the wait in progress).
            let mut live: Vec<MqHandle> = Vec::new();
            let mut rebases = 0;
            while next < 12_000 {
                let roll = rng.gen_range(100);
                if roll < 45 && live.len() < window {
                    live.push(MqHandle(next));
                    next += 1;
                } else if roll < 80 && !live.is_empty() {
                    // Completions arrive out of issue order.
                    let h = live[rng.gen_range(live.len() as u64) as usize];
                    set.insert(h);
                    map.insert(h, ());
                } else {
                    // A wait on the oldest live handles (half the time all
                    // of them, like `WaitAll`): it consumes them once all
                    // have completed.
                    let k = if rng.chance(0.5) {
                        live.len()
                    } else {
                        rng.gen_range(live.len() as u64 + 1) as usize
                    };
                    let wait: Vec<MqHandle> = live[..k].to_vec();
                    let all = wait.iter().all(|h| map.contains_key(h));
                    assert_eq!(wait.iter().all(|&h| set.contains(h)), all, "case {case}");
                    if all {
                        for h in &wait {
                            set.remove(*h);
                            map.remove(h);
                        }
                        live.drain(..k);
                    }
                    if live.is_empty() && set.is_empty() {
                        set.rebase(MqHandle(next));
                        rebases += 1;
                    }
                }
                for probe in [next.saturating_sub(1), next / 2, next] {
                    let h = MqHandle(probe);
                    assert_eq!(
                        set.contains(h),
                        map.contains_key(&h),
                        "case {case} h {probe}"
                    );
                }
                assert_eq!(set.is_empty(), map.is_empty(), "case {case}");
                // Words are bounded by the handles issued since the last
                // rebase, not by the run's length.
                assert!(set.words() <= (next - set.base) as usize / 64 + 1);
            }
            let mut want: Vec<MqHandle> = map.iter().map(|(&h, _)| h).collect();
            want.sort_unstable();
            assert_eq!(set.iter().collect::<Vec<_>>(), want, "case {case}");
            assert!(rebases > 0, "case {case}: the run never rebased");
        }
    }

    /// A rank that waits on everything it issues keeps a bounded
    /// bitset over a long run.
    #[test]
    fn rebase_bounds_words_by_window() {
        let mut set = CompletionSet::default();
        let mut next = 1u64;
        for _ in 0..10_000 {
            let batch: Vec<MqHandle> = (next..next + 100).map(MqHandle).collect();
            next += 100;
            for &h in batch.iter().rev() {
                set.insert(h);
            }
            assert!(set.words() <= 2);
            for &h in &batch {
                set.remove(h);
            }
            set.rebase(MqHandle(next));
        }
        assert!(set.is_empty());
    }
}
