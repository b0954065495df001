// The L8 counterpart of l8_bad.rs: every `unsafe` block has its
// `// Safety:` comment on the line or within the two lines above. Clean
// as the interner; as any other file, each `unsafe` is still a finding.
// Never compiled — scanned by tests/rules.rs.
fn resolve(&self, id: u32) -> &'static str {
    let chunk = self.chunks[(id >> CHUNK_BITS) as usize].load(Ordering::Acquire);
    // Safety: a live id implies its chunk and slot were published with
    // release stores before the id escaped the interner.
    let slot = unsafe { &*chunk.add((id as usize) & (CHUNK_SLOTS - 1)) };
    let cell = slot.load(Ordering::Acquire);
    debug_assert!(!cell.is_null(), "resolve of unpublished name id {id}");
    // Safety: published before the id escaped, never written again.
    unsafe { *cell }
}

fn raw(&self) -> &str {
    unsafe { std::str::from_utf8_unchecked(&self.data[..self.tag as usize]) } // Safety: ASCII.
}
