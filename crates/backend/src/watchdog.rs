//! The one deadline thread behind both dispatch paths. A supervised
//! subprocess and an in-process dylib run share one kill-deadline
//! contract and differ only in what "kill" means, so every armed deadline
//! carries an [`Alarm`]: raise a cooperative cancel flag (the dylib
//! engine) or `SIGKILL` a child (the supervisor). The caller's own thread
//! blocks on the work itself; a timer thread plus a channel per run would
//! put a fixed cost back into the dispatch path.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::Instant;

extern "C" {
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

pub(crate) const SIGKILL: c_int = 9;

/// What an armed deadline does when it passes.
pub(crate) enum Alarm {
    /// Raise a cooperative cancel flag.
    Cancel(Arc<AtomicI32>),
    /// `SIGKILL` the child with this pid. The caller must keep the child
    /// unreaped until [`Watchdog::disarm`] returns, so the pid cannot be
    /// recycled to an unrelated process while the alarm is armed.
    Kill(u32),
}

/// A process-wide timer thread firing [`Alarm`]s at their deadlines.
pub(crate) struct Watchdog {
    /// Armed alarms. An alarm leaves the list under this lock when it
    /// fires or is disarmed, so it can never do both.
    armed: Mutex<Vec<(u64, Instant, Alarm)>>,
    wake: Condvar,
    next_token: AtomicU64,
}

static WATCHDOG: Watchdog = Watchdog {
    armed: Mutex::new(Vec::new()),
    wake: Condvar::new(),
    next_token: AtomicU64::new(0),
};

impl Watchdog {
    /// The shared watchdog, its thread started on first use.
    pub(crate) fn global() -> &'static Watchdog {
        static START: Once = Once::new();
        START.call_once(|| {
            std::thread::Builder::new()
                .name("accmos-watchdog".into())
                .spawn(|| WATCHDOG.run())
                .expect("spawn watchdog thread");
        });
        &WATCHDOG
    }

    /// Fire `alarm` at `deadline`; returns a token for
    /// [`Watchdog::disarm`].
    pub(crate) fn arm(&self, deadline: Instant, alarm: Alarm) -> u64 {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.armed.lock().expect("watchdog lock").push((token, deadline, alarm));
        self.wake.notify_one();
        token
    }

    /// Drop the alarm behind `token`, reporting whether it already fired.
    /// Once this returns, the alarm can no longer fire.
    pub(crate) fn disarm(&self, token: u64) -> bool {
        let mut armed = self.armed.lock().expect("watchdog lock");
        match armed.iter().position(|(t, _, _)| *t == token) {
            Some(i) => {
                armed.swap_remove(i);
                false
            }
            None => true,
        }
    }

    fn run(&self) {
        let mut armed = self.armed.lock().expect("watchdog lock");
        loop {
            let now = Instant::now();
            armed.retain(|(_, deadline, alarm)| {
                if *deadline > now {
                    return true;
                }
                match alarm {
                    Alarm::Cancel(flag) => flag.store(1, Ordering::SeqCst),
                    // SAFETY: `kill` takes two integers and touches no
                    // memory. The pid is an unreaped child (the `Kill`
                    // contract), so the signal cannot reach a recycled
                    // pid; a child that already exited ignores it.
                    Alarm::Kill(pid) => unsafe {
                        kill(*pid as c_int, SIGKILL);
                    },
                }
                false
            });
            let next = armed.iter().map(|(_, deadline, _)| *deadline).min();
            armed = match next {
                Some(deadline) => {
                    let sleep = deadline.saturating_duration_since(now);
                    self.wake.wait_timeout(armed, sleep).expect("watchdog lock").0
                }
                None => self.wake.wait(armed).expect("watchdog lock"),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::{await_exit, reap};
    use std::os::unix::process::ExitStatusExt;
    use std::process::Command;
    use std::time::Duration;

    #[test]
    fn kill_alarm_fires_on_an_unreaped_child() {
        let pid = Command::new("sleep").arg("30").spawn().unwrap().id();
        let dog = Watchdog::global();
        let token = dog.arm(Instant::now() + Duration::from_millis(50), Alarm::Kill(pid));
        await_exit(pid).unwrap();
        assert!(dog.disarm(token), "the deadline passed, so the alarm fired");
        let (status, _) = reap(pid).unwrap();
        assert_eq!(status.signal(), Some(SIGKILL));
    }

    #[test]
    fn disarmed_kill_alarm_never_fires() {
        let pid = Command::new("true").spawn().unwrap().id();
        let dog = Watchdog::global();
        let token = dog.arm(Instant::now() + Duration::from_secs(5), Alarm::Kill(pid));
        await_exit(pid).unwrap();
        assert!(!dog.disarm(token), "disarmed before its deadline");
        let (status, _) = reap(pid).unwrap();
        assert!(status.success(), "`true` exits 0 when nobody kills it: {status}");
    }
}
