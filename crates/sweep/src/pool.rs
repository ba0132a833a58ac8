//! The work-stealing worker pool the stage driver ([`crate::stage`])
//! runs every sweep stage on.
//!
//! The driver fans a stage's job list out over a fixed number of worker
//! threads. Jobs are dealt round-robin into per-worker
//! deques; a worker drains its own deque from the front and, when empty,
//! steals from the back of its neighbours'. Compared to the previous
//! single shared counter, contention stays on the cold path (stealing
//! only happens when a worker runs dry), and long-tailed jobs no longer
//! serialise behind one hot mutex.
//!
//! The pool guarantees **deterministic ordering**: job *i*'s outcome
//! lands in slot *i* of the returned vector regardless of worker count
//! or scheduling. Jobs must not panic; the driver catches panics inside
//! each job.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `f` over every job on `workers` threads, returning one result
/// per job in job order.
pub(crate) fn run_jobs<J, R>(workers: usize, jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R>
where
    J: Sync,
    R: Send,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = workers.max(1).min(jobs.len());

    // Round-robin deal: worker w owns jobs w, w+workers, w+2·workers…
    // Every job index appears in exactly one deque and is removed
    // exactly once (own pop or steal), so each slot is written once.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..jobs.len()).step_by(workers).collect()))
        .collect();
    // One mutex per slot instead of one around the whole vector: a
    // result landing never contends with another worker's result.
    let slots: Vec<Mutex<Option<R>>> = (0..jobs.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                // Own work first (front), then steal from the victims'
                // opposite end to minimise interference.
                let mut found = queues[me].lock().expect("queue lock").pop_front();
                if found.is_none() {
                    for offset in 1..workers {
                        let victim = (me + offset) % workers;
                        if let Some(i) = queues[victim].lock().expect("queue lock").pop_back() {
                            found = Some(i);
                            break;
                        }
                    }
                }
                // Jobs never respawn: once every deque is empty the pool
                // is drained and the worker can retire.
                let Some(i) = found else {
                    break;
                };
                // The job body runs *outside* any lock.
                let outcome = f(&jobs[i]);
                *slots[i].lock().expect("no job runs under a slot lock") = Some(outcome);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no job runs under a slot lock")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_land_in_job_order() {
        let jobs: Vec<usize> = (0..64).collect();
        let out = run_jobs(8, &jobs, |&j| j * 2);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, i * 2);
        }
    }

    #[test]
    fn empty_job_list_is_empty() {
        let out: Vec<()> = run_jobs(4, &[] as &[u8], |_| ());
        assert!(out.is_empty());
    }

    #[test]
    fn idle_workers_steal_the_long_tail() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Worker 0 owns all the slow jobs under round-robin dealing with
        // 2 workers (slow jobs sit at even indices). If stealing works,
        // worker 1 must end up executing some of them; without stealing
        // it would finish its fast half and retire.
        let jobs: Vec<usize> = (0..32).collect();
        let executed = AtomicUsize::new(0);
        let out = run_jobs(2, &jobs, |&j| {
            if j % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            executed.fetch_add(1, Ordering::Relaxed);
            j
        });
        assert_eq!(executed.load(Ordering::Relaxed), 32, "every job ran once");
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, i);
        }
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let jobs: Vec<usize> = (0..41).collect();
        let reference = run_jobs(1, &jobs, |&j| j * j);
        for workers in [2, 3, 8, 64] {
            let out = run_jobs(workers, &jobs, |&j| j * j);
            assert_eq!(reference, out);
        }
    }
}
