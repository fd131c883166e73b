//! The benchmark's panic hook.
//!
//! The fleet workload runs in chaos mode, where requests flagged
//! `crash` make a session panic on purpose; the service and the client
//! replay both catch those panics. The default hook would still print a
//! message and backtrace for each one. This hook drops exactly the
//! panics whose payload starts with [`CHAOS_PREFIX`], counts them so the
//! run can check the count against the quarantines the service reports,
//! and hands every other panic to the previous hook unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Payload prefix of the deliberate session crashes injected by
/// `hev_serve`'s chaos mode.
pub const CHAOS_PREFIX: &str = "chaos: injected";

static CHAOS_PANICS: AtomicU64 = AtomicU64::new(0);
static INSTALL: Once = Once::new();

/// Installs the hook once per process; later calls do nothing.
pub fn install() {
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if is_chaos(info.payload()) {
                CHAOS_PANICS.fetch_add(1, Ordering::SeqCst);
            } else {
                previous(info);
            }
        }));
    });
}

/// Chaos panics dropped by the hook so far in this process.
pub fn chaos_panics() -> u64 {
    CHAOS_PANICS.load(Ordering::SeqCst)
}

/// Whether a panic payload is an injected chaos crash.
pub fn is_chaos(payload: &(dyn std::any::Any + Send)) -> bool {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.is_some_and(|t| t.starts_with(CHAOS_PREFIX))
}
