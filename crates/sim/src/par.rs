//! Deterministic parallel map driver.
//!
//! Lives in `overlap-sim` (rather than the bench harness it started in)
//! so the compiler passes themselves can fan work across cores — the
//! §5.5 cost gate evaluates every candidate pattern independently — while
//! the experiment sweeps keep using the same driver through the
//! `overlap-bench` re-export.

/// Number of worker threads for [`par_map`]: `RAYON_NUM_THREADS` if set
/// to a positive integer (the name predates the built-in pool and is what
/// the sweep scripts set), otherwise the machine's available parallelism.
#[must_use]
pub fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item across worker threads and returns the
/// results **in input order**, regardless of which thread finished when —
/// callers produce byte-identical output serial or parallel.
///
/// A scoped-thread pool with an atomic work-stealing index, sized by
/// [`sweep_threads`].
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    let n = items.len();
    let threads = sweep_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(&items[i]);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Results land in their input slot as they arrive, which
        // erases completion-order nondeterminism.
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots.into_iter().map(|s| s.expect("worker computed every index")).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&i| i * 2 + 1).collect();
        assert_eq!(par_map(&items, |&i| i * 2 + 1), expected);
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: [u32; 0] = [];
        assert!(par_map(&empty, |&i| i).is_empty());
        assert_eq!(par_map(&[7u32], |&i| i + 1), vec![8]);
    }

    #[test]
    fn sweep_threads_is_positive() {
        assert!(sweep_threads() >= 1);
    }
}
