//! Host-speed calibration.
//!
//! On a shared host the speed of the processor the benchmark gets moves
//! by tens of percent from one minute to the next, with almost no steal
//! time: other tenants contend for shared caches and memory bandwidth.
//! A wall time alone then measures the neighbours as much as the program.
//!
//! The benchmark therefore interleaves a fixed *calibration unit* — work
//! of the benchmark's own, never changed by the program under test — with
//! the work it times. Each timed interval is scaled by how slow the units
//! just before and just after it ran, relative to [`NOMINAL_UNIT_S`]:
//! `scaled = raw × NOMINAL_UNIT_S / mean(unit before, unit after)`.
//! A host slowdown stretches the interval and its bounding units alike and
//! cancels out; a slower program stretches only the interval.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// About the wall of one calibration unit on a quiet 2-vCPU cloud VM. It
/// only sets the scale: on a host of that speed, scaled times read as
/// raw ones.
pub const NOMINAL_UNIT_S: f64 = 300e-6;

/// Raw timed work between two calibration units, in seconds: often
/// enough to follow the host's speed, which moves over seconds, while the
/// units stay a few percent of the run.
const INTERVAL_S: f64 = 10e-3;

/// Keys per calibration unit.
const UNIT_KEYS: u64 = 1500;

/// The calibration unit: hashing, ordered-map inserts, small allocations
/// and a sort — the operations the derivation pipeline is made of.
fn unit_work() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..UNIT_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buckets.entry(x % 257).or_default().push(i as u32);
        tree.insert(x, i);
    }
    let mut keys: Vec<u64> = tree.keys().map(|k| k.rotate_left(23)).collect();
    keys.sort_unstable();
    let spread: u64 = buckets
        .values()
        .map(|v| v.len() as u64 * u64::from(v[0]))
        .sum();
    keys[keys.len() / 2] ^ spread
}

/// Runs one calibration unit and returns its wall in seconds.
pub fn unit() -> f64 {
    let started = Instant::now();
    black_box(unit_work());
    started.elapsed().as_secs_f64()
}

/// Scales timed intervals by the calibration units around them.
///
/// Intervals are [`record`](HostSpeed::record)ed as they are timed; once
/// [`INTERVAL_S`] of raw work has gathered, a unit runs (outside every
/// timed interval) and the pending intervals resolve against the mean of
/// that unit and the one before them.
#[derive(Debug)]
pub struct HostSpeed {
    last_unit: f64,
    pending: Vec<(usize, f64)>,
    pending_s: f64,
    /// Every unit's wall, in seconds.
    pub units: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}

impl HostSpeed {
    /// Starts with one unit, which bounds the first interval.
    pub fn new() -> HostSpeed {
        let first = unit();
        HostSpeed {
            last_unit: first,
            pending: Vec::new(),
            pending_s: 0.0,
            units: vec![first],
        }
    }

    /// Records `raw` seconds of timed work under `slot`. Intervals that
    /// resolve are appended to `out` as `(slot, raw, scaled)`.
    pub fn record(&mut self, slot: usize, raw: f64, out: &mut Vec<(usize, f64, f64)>) {
        self.pending.push((slot, raw));
        self.pending_s += raw;
        if self.pending_s >= INTERVAL_S {
            self.flush(out);
        }
    }

    /// Runs a unit and resolves every pending interval into `out`.
    pub fn flush(&mut self, out: &mut Vec<(usize, f64, f64)>) {
        if self.pending.is_empty() {
            return;
        }
        let next = unit();
        let scale = NOMINAL_UNIT_S / ((self.last_unit + next) / 2.0);
        out.extend(
            self.pending
                .drain(..)
                .map(|(slot, raw)| (slot, raw, raw * scale)),
        );
        self.pending_s = 0.0;
        self.last_unit = next;
        self.units.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_interval_resolves_once_with_one_scale_between_units() {
        let mut speed = HostSpeed::new();
        let mut out = Vec::new();
        for slot in 0..2000 {
            speed.record(slot, 1e-5 * (1 + slot % 3) as f64, &mut out);
        }
        speed.flush(&mut out);
        speed.flush(&mut out);
        let slots: Vec<usize> = out.iter().map(|r| r.0).collect();
        assert_eq!(slots, (0..2000).collect::<Vec<_>>());
        // 0.04 s of work at one unit per 0.01 s, plus the first unit; an
        // empty flush runs none.
        assert!(
            (4..=6).contains(&speed.units.len()),
            "{}",
            speed.units.len()
        );
        assert!(out.iter().all(|r| r.2 > 0.0));
        // Intervals between the same two units share one scale.
        let mut scales: Vec<f64> = out.iter().map(|r| r.2 / r.1).collect();
        scales.dedup_by(|a, b| (*a / *b - 1.0).abs() < 1e-9);
        assert!(scales.len() < speed.units.len(), "{scales:?}");
        let expected = NOMINAL_UNIT_S / ((speed.units[0] + speed.units[1]) / 2.0);
        assert!((out[0].2 / out[0].1 / expected - 1.0).abs() < 1e-9);
    }
}
