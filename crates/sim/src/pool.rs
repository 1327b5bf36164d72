//! Process-wide pool of long-lived helper threads for the engine's
//! partitioned executor.
//!
//! A run over `k` parts leases `k − 1` helpers as a [`Crew`] for its
//! whole duration and works as part 0 itself. Each phase hands every
//! helper one part of the same job and waits for all of them; between
//! phases and between runs a helper blocks in [`thread::park`] — it never
//! spins — and a finished run returns its helpers to the idle list. So a
//! driver that chains hundreds of engine runs starts its threads once,
//! and protocol state a helper allocates keeps coming from the same
//! malloc arena run after run (a fresh thread per phase would start a
//! fresh glibc arena each time, which is what inflated peak RSS when the
//! drivers first went parallel).
//!
//! Concurrent runs from different threads lease disjoint helpers —
//! spawning more when the idle list is empty — so no run ever waits on
//! work queued behind another run, and they all make progress.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};

/// Panic payload carried from a helper back to the leader.
type Payload = Box<dyn Any + Send>;

/// Helpers not leased by any run, most recently returned last (so the
/// next lease reuses the warmest threads).
static IDLE: Mutex<Vec<Seat>> = Mutex::new(Vec::new());

/// One phase of a crew's work, living on the leader's stack until every
/// helper has reported back.
struct Phase<'a> {
    job: &'a (dyn Fn(usize) + Sync),
    /// Helpers that have not finished this phase yet.
    pending: AtomicUsize,
    /// The leasing thread, unparked by the helper that finishes last.
    leader: &'a Thread,
    /// First panic raised by a helper, re-raised on the leader.
    panic: Mutex<Option<Payload>>,
}

/// The state a leader shares with one helper thread.
struct Helper {
    /// The part this helper runs in its current crew.
    part: AtomicUsize,
    /// The phase to run next; null while there is none.
    phase: AtomicPtr<Phase<'static>>,
}

/// A helper plus the handle that wakes it.
struct Seat {
    helper: Arc<Helper>,
    thread: Thread,
}

impl Seat {
    fn spawn() -> Seat {
        let helper = Arc::new(Helper {
            part: AtomicUsize::new(0),
            phase: AtomicPtr::new(ptr::null_mut()),
        });
        let shared = Arc::clone(&helper);
        let handle = thread::Builder::new()
            .name("congest-sim-helper".to_string())
            .spawn(move || serve(&shared))
            .expect("failed to spawn an engine helper thread");
        Seat {
            helper,
            thread: handle.thread().clone(),
        }
    }
}

/// A helper's whole life: park until a phase is published, run its part,
/// report back, repeat. Helpers are never joined; they park for the rest
/// of the process once idle.
fn serve(helper: &Helper) {
    loop {
        let phase = helper.phase.swap(ptr::null_mut(), Ordering::Acquire);
        if phase.is_null() {
            thread::park();
            continue;
        }
        // SAFETY: the leader published this pointer for exactly one
        // phase and keeps the `Phase` alive until `pending` drops to
        // zero, which cannot happen before this helper's decrement below;
        // nothing touches the phase after that decrement.
        let phase = unsafe { &*phase };
        let part = helper.part.load(Ordering::Relaxed);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (phase.job)(part))) {
            phase
                .panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
        let leader = phase.leader.clone();
        if phase.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            leader.unpark();
        }
    }
}

/// Helpers leased by one run; dropping the crew returns them to the
/// idle list.
pub(crate) struct Crew {
    seats: Vec<Seat>,
    leader: Thread,
}

impl Crew {
    /// Leases `helpers` threads, reusing idle ones and spawning the rest.
    pub(crate) fn lease(helpers: usize) -> Crew {
        let mut seats = {
            let mut idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner);
            let keep = idle.len().saturating_sub(helpers);
            idle.split_off(keep)
        };
        seats.extend((seats.len()..helpers).map(|_| Seat::spawn()));
        // Relaxed: the Release store of each phase pointer publishes the
        // part index along with it.
        for (i, seat) in seats.iter().enumerate() {
            seat.helper.part.store(i + 1, Ordering::Relaxed);
        }
        Crew {
            seats,
            leader: thread::current(),
        }
    }

    /// Runs `job(0)` on the calling thread and `job(k)` on the crew's
    /// `k`-th helper, returning once every part has finished. A panic in
    /// any part is re-raised here, after all parts are done, so `job` is
    /// never referenced past this call. Must be called on the thread that
    /// leased the crew: that is the thread the last helper unparks.
    pub(crate) fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        debug_assert_eq!(thread::current().id(), self.leader.id());
        let phase = Phase {
            job,
            pending: AtomicUsize::new(self.seats.len()),
            leader: &self.leader,
            panic: Mutex::new(None),
        };
        let published = ptr::from_ref(&phase).cast_mut().cast::<Phase<'static>>();
        for seat in &self.seats {
            seat.helper.phase.store(published, Ordering::Release);
            seat.thread.unpark();
        }
        let own = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
        while phase.pending.load(Ordering::Acquire) != 0 {
            thread::park();
        }
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        let helper_panic = phase
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        IDLE.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut self.seats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_part_runs_once_per_phase() {
        let crew = Crew::lease(3);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..50 {
            crew.run(&|part| {
                hits[part].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn helper_panics_reach_the_leader_and_the_crew_survives() {
        let crew = Crew::lease(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            crew.run(&|part| assert_ne!(part, 2, "part two fails"));
        }));
        assert!(caught.is_err());
        let ran = AtomicU64::new(0);
        crew.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn concurrent_crews_all_make_progress() {
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let crew = Crew::lease(2);
                    let sum = AtomicU64::new(0);
                    for _ in 0..100 {
                        crew.run(&|part| {
                            sum.fetch_add(part as u64, Ordering::Relaxed);
                        });
                    }
                    assert_eq!(sum.load(Ordering::Relaxed), 300);
                });
            }
        });
    }
}
