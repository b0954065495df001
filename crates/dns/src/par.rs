//! A minimal order-preserving scoped-thread map — the one parallel
//! primitive this workspace needs, shared by the broker feed's fleet
//! stream builder and its concurrent publish instead of hand-rolled
//! scope/spawn/join copies.
//!
//! Semantics: `scoped_map(items, workers, f)` returns exactly
//! `items.map(f)` in input order. Items are distributed round-robin
//! over at most `workers` lanes (round-robin balances skewed item costs
//! better than contiguous chunking — zone shards are skewed), each lane
//! runs on one scoped thread, and a panicking worker propagates the
//! panic to the caller. With one worker (or one item) no thread is
//! spawned.

/// Order-preserving parallel map over scoped threads.
///
/// # Panics
/// Propagates a panic from `f`.
pub fn scoped_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let total = items.len();
    let mut lanes: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        lanes[i % workers].push((i, item));
    }
    let mut out: Vec<Option<R>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                scope.spawn(move || {
                    lane.into_iter().map(|(i, item)| (i, f(item))).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("scoped_map worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every index mapped")).collect()
}

/// Worker count matching the machine: one per available core.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_for_any_worker_count() {
        let items: Vec<u32> = (0..37).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = scoped_map(items.clone(), workers, |x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        assert_eq!(scoped_map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            scoped_map(vec![1, 2, 3], 2, |x| {
                assert_ne!(x, 2, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }
}
