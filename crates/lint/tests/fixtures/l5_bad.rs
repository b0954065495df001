// Seeded L5 violation: a server growing its own event loop instead of
// running a `Protocol` handler on the shared reactor. Never compiled —
// scanned by tests/rules.rs.
pub fn run_lookup_loop(listener: TcpListener) {
    let Ok(epoll) = Epoll::new() else { return };
    let mut events = Events::with_capacity(64);
    loop {
        let _ = epoll.wait(&mut events, None);
    }
}
