//! What one check profile cannot see whole is not probed: a
//! `#[cfg(not(debug_assertions))]` twin (dead to a debug check, yet
//! the release build's), and a `macro_rules!` body (its `load` has no
//! caller, but one expansion is no evidence about the others).

#[cfg(debug_assertions)]
mod imp {
    pub fn held_count() -> usize {
        1
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    pub fn held_count() -> usize {
        0
    }
}

pub use imp::held_count;

macro_rules! cells {
    ($name:ident) => {
        pub struct $name;

        impl $name {
            pub fn load(&self) -> u64 {
                0
            }
        }
    };
}

cells!(Cells);
