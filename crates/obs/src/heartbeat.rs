//! A background thread that renders a progress line to stderr on a fixed
//! period while a pipeline runs.

use crate::instruments::Instruments;
use crate::snapshot::Snapshot;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to a running heartbeat; the thread stops (promptly, not at the
/// next period boundary) when the handle is dropped or [`stop`](Self::stop)
/// is called.
///
/// # Examples
///
/// ```
/// use pufobs::{Heartbeat, Instruments};
/// use std::time::Duration;
///
/// let ins = Instruments::new();
/// let hb = Heartbeat::spawn(ins.clone(), Duration::from_millis(50), |snap| {
///     format!("{} records", snap.counter("records"))
/// });
/// ins.counter("records").add(10);
/// hb.stop();
/// ```
#[derive(Debug)]
pub struct Heartbeat {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Heartbeat {
    /// Spawns a thread that prints `render(&snapshot)` to stderr every
    /// `period` until stopped.
    pub fn spawn<F>(instruments: Instruments, period: Duration, render: F) -> Self
    where
        F: Fn(&Snapshot) -> String + Send + 'static,
    {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (lock, condvar) = &*thread_stop;
            let mut stopped = lock.lock().expect("heartbeat lock");
            // Check the flag before every wait: a stop that lands before this
            // thread first takes the lock has already notified, and waiting
            // would sleep out a whole period.
            while !*stopped {
                let (guard, timeout) = condvar
                    .wait_timeout(stopped, period)
                    .expect("heartbeat lock");
                stopped = guard;
                if !*stopped && timeout.timed_out() {
                    eprintln!("{}", render(&instruments.snapshot()));
                }
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the heartbeat and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, condvar) = &*self.stop;
        *lock.lock().expect("heartbeat lock") = true;
        condvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn heartbeat_renders_and_stops_promptly() {
        let ins = Instruments::new();
        ins.counter("ticks");
        let rendered = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&rendered);
        let hb = Heartbeat::spawn(ins, Duration::from_millis(5), move |snap| {
            seen.fetch_add(1, Ordering::Relaxed);
            format!("{}", snap.counter("ticks"))
        });
        std::thread::sleep(Duration::from_millis(60));
        hb.stop();
        assert!(rendered.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn drop_does_not_hang_even_with_a_long_period() {
        let ins = Instruments::new();
        let hb = Heartbeat::spawn(ins, Duration::from_secs(3600), |_| String::new());
        drop(hb); // must return promptly, not after an hour
    }
}
