//! Two types with a same-named method: `report.rs` calls one of them.

pub struct Counter(pub u64);

impl Counter {
    pub fn get(&self) -> u64 {
        self.0
    }
}

pub struct Gauge(pub u64);

impl Gauge {
    /// No caller: `Counter::get`'s callers spell its name, not its path.
    pub fn get(&self) -> u64 {
        self.0
    }
}
