// A file that passes every rule under the full profile: annotated
// locks acquired in level order, a bounded decode, no panic tokens, no
// direct indexing, no delta re-encode, one chunk-train encode at the
// cache-fill site. Never compiled — scanned by tests/rules.rs.
use std::sync::Mutex;

struct State {
    // lock-level: 10
    directory: Mutex<Vec<u8>>,
    // lock-level: 20
    shard: Mutex<Vec<u8>>,
}

impl State {
    fn ordered(&self) {
        let _dir = self.directory.lock();
        let _shard = self.shard.lock();
    }
}

pub fn decode_counts(bytes: &[u8]) -> Option<Vec<u16>> {
    let count = (*bytes.first()?) as usize;
    let remaining = bytes.len().saturating_sub(1);
    if count.checked_mul(2)? > remaining {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for chunk in bytes.get(1..)?.chunks_exact(2).take(count) {
        out.push(u16::from_be_bytes([*chunk.first()?, *chunk.get(1)?]));
    }
    Some(out)
}

fn snapshot_train(cache: &mut Cache, snapshot: &ZoneSnapshot, start: usize) -> Vec<Bytes> {
    if let Some(tail) = cache.tail_from(snapshot, start) {
        return tail;
    }
    let frames = encode_snapshot_chunks(cache.tld, snapshot, start, cache.chunk_bytes);
    cache.fill(snapshot, &frames);
    frames
}
