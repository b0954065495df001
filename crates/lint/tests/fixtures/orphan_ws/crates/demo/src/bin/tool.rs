//! A binary's items have no importer by construction: not surface.

pub fn bin_helper() -> u32 {
    3
}

fn main() {}
