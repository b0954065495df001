//! Calls `Counter::get`. A doc link to [`crate::verdicts::nobody_calls_this`]
//! and a string naming it are no callers.

use crate::meters::Counter;

pub fn total(counter: &Counter) -> u64 {
    let _label = "nobody_calls_this";
    counter.get()
}
