//! Recoverable failures are quiet: a `CommError` unwinds without running the
//! panic hook, so a crash that every rank catches prints nothing — and one
//! that no rank catches still fails the run with a panic naming the error.
//! Its own test binary, because the panic hook is process-global.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dspgemm_mpi::{catch_comm_mut, run, CommError};

/// Both tests panic or count panics; they run one at a time.
fn hook_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn caught_crash_runs_no_panic_hook() {
    let _lock = hook_lock();
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    let victim = 2;
    let out = catch_unwind(AssertUnwindSafe(|| {
        run(4, |c| {
            if c.rank() == victim {
                c.arm_crash(1);
            }
            let res = catch_comm_mut(|| {
                c.allreduce(c.rank() as u64, |a, b| a + b);
                c.barrier();
            });
            c.advance_recovery_epoch();
            c.barrier();
            res
        })
    }));
    std::panic::set_hook(previous);
    let out = out.expect("every rank caught its error");
    for (rank, res) in out.results.iter().enumerate() {
        let want = if rank == victim {
            CommError::Crashed { rank: victim }
        } else {
            CommError::PeerFailed { rank: victim }
        };
        assert_eq!(res, &Err(want), "rank {rank}");
    }
    assert_eq!(calls.load(Ordering::SeqCst), 0, "the panic hook ran");
}

#[test]
fn uncaught_comm_error_still_fails_the_run_with_its_message() {
    let _lock = hook_lock();
    let panic = catch_unwind(|| {
        run(4, |c| {
            if c.rank() == 0 {
                c.arm_crash(1);
            }
            c.barrier();
        })
    })
    .expect_err("an uncaught CommError must fail the run");
    let msg = panic
        .downcast_ref::<String>()
        .expect("re-raised as a panic message");
    let err = CommError::Crashed { rank: 0 };
    assert!(msg.contains("rank 0"), "{msg}");
    assert!(msg.contains(&err.to_string()), "{msg}");
}
