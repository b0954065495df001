// Seeded L1 violation through a lock helper: `lock_half(`, which
// registers the pipe-half class (level 46) with lockdep, under a
// level-50 lock. Never compiled — scanned by tests/rules.rs.
pub static PIPE_HALF: LockClass = LockClass::new("transport.pipe_half", 46);

struct Reactor {
    // lock-level: 50
    pending: Mutex<Vec<usize>>,
}

fn lock_half(half: &Half) -> (lockdep::Held, MutexGuard<'_, HalfState>) {
    let held = lockdep::acquire(&lockdep::PIPE_HALF);
    (held, half.state.lock().unwrap_or_else(|p| p.into_inner()))
}

fn half_under_pending(reactor: &Reactor, half: &Half) {
    let pending = reactor.pending.lock();
    let (_held, mut st) = lock_half(half);
}

fn pending_under_half(reactor: &Reactor, half: &Half) {
    let (_held, mut st) = lock_half(half);
    let pending = reactor.pending.lock();
}
