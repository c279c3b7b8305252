//! Shared infrastructure for the benchmark harness binaries that
//! regenerate every table and figure of the paper (see `DESIGN.md` §4 for
//! the experiment index and `EXPERIMENTS.md` for recorded results).

pub mod baselines;
pub mod conv;
pub mod experiments;
pub mod harness;
pub mod obs;
pub mod profile;
pub mod threads;
pub mod trace;
pub mod trained;

pub use harness::TableWriter;

/// The profiler's tables are process-global and `profile::run_profile`
/// switches recording on for every thread, so lib tests that profile or
/// run forward passes serialise on this lock.
#[cfg(test)]
pub(crate) fn profile_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
