// Seeded L4 violations, bootstrap half: chunk trains encoded on a
// fan-out path anywhere but the single train-cache fill site. Never
// compiled — scanned by tests/rules.rs.

// A per-connection encode beside the cache: every joiner pays O(zone).
pub fn pump(conn: &mut Conn, snapshot: &ZoneSnapshot) {
    for chunk in encode_snapshot_chunks(conn.tld, snapshot, 0, conn.chunk_bytes) {
        conn.stage(chunk);
    }
}

pub fn snapshot_train(cache: &mut Cache, snapshot: &ZoneSnapshot, start: usize) -> Vec<Bytes> {
    if let Some(tail) = cache.tail_from(snapshot, start) {
        return tail;
    }
    // The fill site itself is legal...
    let frames = encode_snapshot_chunks(cache.tld, snapshot, start, cache.chunk_bytes);
    // ...a second encode in the same function is not.
    let again = encode_snapshot_chunks(cache.tld, snapshot, 0, cache.chunk_bytes);
    cache.fill(snapshot, again);
    frames
}
