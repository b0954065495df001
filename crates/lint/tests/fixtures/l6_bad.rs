// Seeded L6 violations: a consumer growing its own dialer instead of
// driving the shared `UpstreamLink`, and a replica-set state machine
// that reads the clock and sleeps. Never compiled — scanned by
// tests/rules.rs.
fn relay_loop(conn: Box<dyn FrameConn>, claims: &Claims, partials: &mut Vec<SnapshotProgress>) {
    let scope = HelloScope::Full;
    let _client = TransportClient::connect_salvaged(conn, claims, partials, scope);
}

impl ReplicaSet {
    pub fn live(&self) -> Vec<usize> {
        let dead = self.dead(self.clock);
        (0..self.count()).filter(|&at| !dead[at]).collect()
    }
    pub fn failed(&mut self, at: usize) {
        let now = Instant::now();
        self.health[at].down_until = Some(now + BACKOFF_FLOOR);
        if self.live().is_empty() {
            std::thread::sleep(BACKOFF_FLOOR);
        }
    }
}

// The I/O half may read the clock: only the impl above is pure.
fn link_connect(set: &mut ReplicaSet) {
    set.failed_at(0, Instant::now());
}
