//! Side loops: one layer at a time, timed directly on the workload's own
//! inputs. They run after the measured phases of a traced run and feed
//! the `wire.*`, `zone.*` and in-process `edge.*` per-layer metrics —
//! the costs an end-to-end span cannot separate because they happen
//! inside a tier's own thread.

use crate::stats::median;
use crate::workloads::SideInputs;
use darkdns_dns::wire::{
    decode_delta_push, decode_lookup_request, decode_lookup_response, decode_snapshot_chunk,
    encode_delta_push, encode_lookup_request, encode_lookup_response, encode_snapshot_chunks,
    DeltaPush,
};
use darkdns_dns::Serial;
use darkdns_edge::{EdgeIndex, EdgeIndexConfig};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Median time in µs of one call of `f`, over `samples` samples of
/// `batch` back-to-back calls each (batching lifts sub-microsecond
/// calls above the clock's resolution).
fn time_us(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&per_call)
}

/// The directly timed layer costs, all in µs per call.
pub struct LayerTimes {
    pub encode_delta_us: f64,
    pub decode_delta_us: f64,
    pub snapshot_encode_us: f64,
    pub snapshot_decode_us: f64,
    pub lookup_codec_us: f64,
    pub zone_apply_us: f64,
    pub epoch_apply_us: f64,
    pub index_answer_us: f64,
}

pub fn run(inputs: &SideInputs) -> LayerTimes {
    let SideInputs {
        tld,
        snapshot,
        add,
        remove,
        batch,
        served_by,
    } = inputs;
    let origin = *snapshot.origin();
    let (s0, s1) = (Serial::new(0), Serial::new(1));
    let at = SimTime::from_hours(1);

    let frame = encode_delta_push(&origin, s0, s1, at, add);
    let encode_delta_us = time_us(51, 4, || {
        black_box(encode_delta_push(&origin, s0, s1, at, black_box(add)));
    });
    let decode_delta_us = time_us(51, 4, || {
        black_box(decode_delta_push(black_box(&frame)).expect("own frame decodes"));
    });

    let chunks = encode_snapshot_chunks(*tld, snapshot, 0, 1 << 20);
    let snapshot_encode_us = time_us(5, 1, || {
        black_box(encode_snapshot_chunks(
            *tld,
            black_box(snapshot),
            0,
            1 << 20,
        ));
    });
    let snapshot_decode_us = time_us(5, 1, || {
        for chunk in &chunks {
            black_box(decode_snapshot_chunk(black_box(chunk)).expect("own chunk decodes"));
        }
    });

    let after_add = add.apply(snapshot, s1, at);
    let zone_apply_us = time_us(11, 1, || {
        black_box(black_box(add).apply(black_box(snapshot), s1, at));
    });

    // The index in the workload's steady state: bootstrapped, then
    // alternating add/remove pushes one sim-hour apart, so the NRD
    // window holds what it holds during the run.
    let index = EdgeIndex::new(EdgeIndexConfig::default());
    let tld_id = TldId(*tld);
    index.adopt_snapshot(tld_id, snapshot.clone());
    let mut serial = 0u32;
    let mut apply_next = || {
        serial += 1;
        let adding = serial % 2 == 1;
        let push = DeltaPush {
            origin,
            from_serial: Serial::new(serial - 1),
            to_serial: Serial::new(serial),
            pushed_at: SimTime::from_hours(u64::from(serial)),
            delta: if adding { add.clone() } else { remove.clone() },
        };
        let state = if adding {
            after_add.clone()
        } else {
            snapshot.clone()
        };
        index.apply_delta(tld_id, state, &push);
    };
    for _ in 0..100 {
        apply_next();
    }
    let epoch_apply_us = time_us(41, 1, &mut apply_next);

    // A batch over several shards is answered by the workload's own
    // index: against the one-shard index every query for another shard
    // would return unprobed and the call would read too cheap.
    let serving = served_by.as_deref().unwrap_or(&index);
    let answers = serving.load().answer(batch);
    let index_answer_us = time_us(51, 20, || {
        black_box(serving.load().answer(black_box(batch)));
    });
    let lookup_codec_us = time_us(51, 20, || {
        let request = encode_lookup_request(7, black_box(batch));
        black_box(decode_lookup_request(&request).expect("own request decodes"));
        let response = encode_lookup_response(7, 1, black_box(&answers));
        black_box(decode_lookup_response(&response).expect("own response decodes"));
    });
    LayerTimes {
        encode_delta_us,
        decode_delta_us,
        snapshot_encode_us,
        snapshot_decode_us,
        lookup_codec_us,
        zone_apply_us,
        epoch_apply_us,
        index_answer_us,
    }
}
