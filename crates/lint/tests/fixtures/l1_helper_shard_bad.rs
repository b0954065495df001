// Seeded L1 violation through a lock helper: a subscriber queue guard
// (level 30) held across `lock_shard(`, which registers the shard
// class (level 20) with lockdep. Never compiled — scanned by
// tests/rules.rs.
pub static SHARD: LockClass = LockClass::new("broker.shard", 20);

struct Sub {
    // lock-level: 30
    queue: TrackedMutex<Vec<u8>>,
}

fn lock_shard(handle: &Handle, count_contention: bool) -> ShardGuard<'_> {
    let held = lockdep::acquire(&lockdep::SHARD);
    ShardGuard { guard: handle.state.lock(), _held: held }
}

fn shard_under_queue(sub: &Sub, handle: &Handle) {
    let queue = sub.queue.lock();
    let st = lock_shard(handle, false);
}

fn queue_under_shard(sub: &Sub, handle: &Handle) {
    let mut st = lock_shard(handle, true);
    let queue = sub.queue.lock();
    drop(queue);
    drop(st);
    let head = lock_shard(handle, false).shard.head().clone();
}
