// Seeded L8 violations: an interner-shaped module whose `unsafe` is not
// all explained. Scanned as the interner (unsafe allowed, each block
// explained) and as any other file (no unsafe at all). Never compiled —
// scanned by tests/rules.rs.
fn resolve(&self, id: u32) -> &'static str {
    let chunk = self.chunks[(id >> CHUNK_BITS) as usize].load(Ordering::Acquire);
    // Safety: a live id implies its chunk and slot were published with
    // release stores before the id escaped the interner.
    let slot = unsafe { &*chunk.add((id as usize) & (CHUNK_SLOTS - 1)) };
    let cell = slot.load(Ordering::Acquire);
    debug_assert!(!cell.is_null(), "resolve of unpublished name id {id}");
    unsafe { *cell }
}

fn raw(&self) -> &str {
    unsafe { std::str::from_utf8_unchecked(&self.data[..self.tag as usize]) }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_not_scanned() {
        let bytes = [b'a'];
        assert_eq!(unsafe { std::str::from_utf8_unchecked(&bytes) }, "a");
    }
}
