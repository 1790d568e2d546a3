//! Seeded, deterministic inputs for every workload.
//!
//! Everything the benchmark sends or writes is a pure function of the
//! `--seed` value: the serve byte streams and the open-loop tick schedule,
//! and the batch reference and window files. The end-to-end runs, the traced
//! replay and the oracles all take their inputs from here, so they see the
//! same bytes.

use moche_cli::protocol;
use moche_stream::shard_of;
use std::time::Duration;

/// Step of the low-discrepancy noise sequence (the golden-ratio rotation).
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// A splitmix64 generator: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Distinct series ids: multiplying by an odd constant and xoring a salt
/// are both bijections on `u64`, so no two indices collide.
fn series_id(index: usize, salt: u64) -> u64 {
    (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// One generated series: golden-ratio rotation noise around a level that
/// optionally flips on a fixed period.
///
/// The rotation is a low-discrepancy sequence, so any two windows of one
/// level have a KS distance far below the test's threshold: a series never
/// alarms by chance, only at a level flip.
#[derive(Debug, Clone, Copy)]
pub struct Series {
    pub id: u64,
    offset: f64,
    step: f64,
    base: f64,
    scale: f64,
    shift: f64,
    /// Pushes between level flips (`0` = stationary).
    period: u64,
    first_flip: u64,
}

impl Series {
    fn stationary(rng: &mut Rng, id: u64) -> Self {
        Series {
            id,
            offset: rng.unit(),
            step: if rng.next_u64() & 1 == 0 { GOLDEN } else { 1.0 - GOLDEN },
            base: rng.uniform(-100.0, 100.0),
            scale: rng.uniform(0.5, 20.0),
            shift: 0.0,
            period: 0,
            first_flip: 0,
        }
    }

    /// The value of push `n` (0-based).
    pub fn value(&self, n: u64) -> f64 {
        let u = (self.offset + n as f64 * self.step).fract();
        let mut level = self.base;
        if self.period > 0
            && n >= self.first_flip
            && ((n - self.first_flip) / self.period).is_multiple_of(2)
        {
            level += self.shift;
        }
        level + self.scale * (u - 0.5)
    }
}

/// Appends one `OBS` frame per series for push `n` of each, in series order.
pub fn encode_round(series: &[Series], n: u64, buf: &mut Vec<u8>) {
    for s in series {
        buf.extend_from_slice(&protocol::encode_obs(s.id, s.value(n)));
    }
}

/// For each shard, one series id routed to it: a `SERIES` query on each is
/// the barrier proving every earlier observation was applied.
pub fn barrier_ids(series: &[Series], shards: usize) -> Vec<u64> {
    (0..shards)
        .map(|shard| {
            series
                .iter()
                .map(|s| s.id)
                .find(|&id| shard_of(id, shards) == shard)
                .expect("thousands of series cover every shard")
        })
        .collect()
}

/// `serve_ingest`: thousands of stationary series at a small window,
/// pushed round-robin.
#[derive(Debug, Clone)]
pub struct Ingest {
    pub window: usize,
    pub series: Vec<Series>,
}

impl Ingest {
    pub const SERIES: usize = 4096;
    pub const WINDOW: usize = 64;

    pub fn new(seed: u64) -> Self {
        Self::sized(seed, Self::SERIES, Self::WINDOW)
    }

    pub fn sized(seed: u64, count: usize, window: usize) -> Self {
        let mut rng = Rng::new(seed, 1);
        let salt = rng.next_u64();
        let series = (0..count).map(|i| Series::stationary(&mut rng, series_id(i, salt))).collect();
        Ingest { window, series }
    }

    /// Rounds (one push per series each) until every series is warm.
    pub fn warm_rounds(&self) -> u64 {
        2 * self.window as u64
    }

    /// Appends the frames of round `n`: push `n` of every series.
    pub fn encode_round(&self, n: u64, buf: &mut Vec<u8>) {
        encode_round(&self.series, n, buf);
    }

    pub fn barrier_ids(&self, shards: usize) -> Vec<u64> {
        barrier_ids(&self.series, shards)
    }
}

/// `serve_drift`: a few hundred series at a large window whose levels flip
/// on staggered periods, fed by an open-loop tick schedule.
#[derive(Debug, Clone)]
pub struct Drift {
    pub window: usize,
    pub series: Vec<Series>,
    /// Observations per series per tick.
    pub per_tick: u64,
    pub tick: Duration,
}

impl Drift {
    pub const SERIES: usize = 256;
    pub const WINDOW: usize = 1000;

    pub fn new(seed: u64) -> Self {
        Self::sized(seed, Self::SERIES, Self::WINDOW)
    }

    pub fn sized(seed: u64, count: usize, window: usize) -> Self {
        let mut rng = Rng::new(seed, 2);
        let salt = rng.next_u64();
        let w = window as u64;
        let series = (0..count)
            .map(|i| {
                let mut s = Series::stationary(&mut rng, series_id(i, salt));
                // About 2.5w between flips leaves room for the alarm, the
                // window reset and the 2w re-warm before the next flip.
                s.period = (w as f64 * rng.uniform(2.4, 2.6)) as u64;
                s.first_flip = 2 * w + rng.below(s.period as usize) as u64;
                s.shift = s.scale * rng.uniform(0.4, 1.0);
                s
            })
            .collect();
        Drift { window, series, per_tick: 20, tick: Duration::from_millis(50) }
    }

    pub fn warm_rounds(&self) -> u64 {
        2 * self.window as u64
    }

    /// The pushes tick `k` carries for every series.
    pub fn tick_pushes(&self, k: u64) -> std::ops::Range<u64> {
        let first = self.warm_rounds() + k * self.per_tick;
        first..first + self.per_tick
    }

    /// Appends tick `k`'s block: `per_tick` consecutive pushes per series.
    pub fn encode_tick(&self, k: u64, buf: &mut Vec<u8>) {
        for s in &self.series {
            for n in self.tick_pushes(k) {
                buf.extend_from_slice(&protocol::encode_obs(s.id, s.value(n)));
            }
        }
    }

    /// The tick that carried push `n` (0-based), if it was sent on the tick
    /// schedule rather than while warming.
    pub fn tick_of(&self, n: u64) -> Option<u64> {
        n.checked_sub(self.warm_rounds()).map(|k| k / self.per_tick)
    }

    pub fn barrier_ids(&self, shards: usize) -> Vec<u64> {
        barrier_ids(&self.series, shards)
    }
}

/// `batch_explain`: one reference and several windows files.
#[derive(Debug, Clone)]
pub struct BatchInputs {
    pub reference: Vec<f64>,
    /// `files[f][w]` is window `w` of windows file `f`.
    pub files: Vec<Vec<Vec<f64>>>,
}

/// Rounds to four decimals, so the value prints (and parses back) exactly.
fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

impl BatchInputs {
    pub const REFERENCE: usize = 10_000;
    pub const WINDOW: usize = 10_000;
    pub const FILES: usize = 8;
    pub const WINDOWS_PER_FILE: usize = 16;

    pub fn new(seed: u64) -> Self {
        Self::sized(seed, Self::REFERENCE, Self::WINDOW, Self::FILES, Self::WINDOWS_PER_FILE)
    }

    /// Reference and windows are standard normal; each window carries one
    /// contiguous anomaly segment covering up to 8% of it, so `k` varies
    /// and the least contaminated tenth of the windows (under about 0.8%)
    /// pass the test. The contamination levels are stratified: every file
    /// holds one window from each of `per_file` equal slices of that range,
    /// in a shuffled order, so every file (and every seed) asks for about
    /// the same work.
    ///
    /// The reference is stratified too (see [`stratified_normal`]). Every
    /// window of a run is explained against the one reference, so a plain
    /// normal draw, whose empirical CDF strays from the normal by about
    /// `1/sqrt(n)`, shifts the Phase-2 work of the whole run: over eight
    /// seeds, one thread of a 2.1 GHz Xeon VM explained all 128 windows
    /// in-process in 1.06 to 1.65 s with a plain draw, and in 1.25 to 1.32 s
    /// stratified.
    pub fn sized(seed: u64, n: usize, w: usize, files: usize, per_file: usize) -> Self {
        let mut rng = Rng::new(seed, 3);
        let reference = stratified_normal(&mut rng, n);
        let files = (0..files)
            .map(|_| {
                let mut strata: Vec<usize> = (0..per_file).collect();
                for i in (1..per_file).rev() {
                    strata.swap(i, rng.below(i + 1));
                }
                strata
                    .into_iter()
                    .map(|stratum| {
                        let mut window: Vec<f64> = (0..w).map(|_| round4(rng.normal())).collect();
                        let level = (stratum as f64 + rng.unit()) / per_file as f64;
                        let len = ((w as f64 * 0.08 * level).ceil() as usize).min(w);
                        let start = rng.below(w - len + 1);
                        let mean = rng.uniform(2.5, 4.0);
                        for v in &mut window[start..start + len] {
                            *v = round4(mean + 0.5 * rng.normal());
                        }
                        window
                    })
                    .collect()
            })
            .collect();
        BatchInputs { reference, files }
    }
}

/// `n` standard normal values, one from each of `n` equal-probability
/// slices of the distribution (`probit((i + u) / n)`, `u` uniform), in a
/// shuffled order: their empirical CDF is within `1/n` of the normal's
/// whatever the seed.
pub fn stratified_normal(rng: &mut Rng, n: usize) -> Vec<f64> {
    // The clamp keeps a draw of exactly 0 off the quantile's pole.
    let mut values: Vec<f64> =
        (0..n).map(|i| round4(probit(((i as f64 + rng.unit()) / n as f64).max(1e-12)))).collect();
    for i in (1..n).rev() {
        values.swap(i, rng.below(i + 1));
    }
    values
}

/// The standard normal quantile function, by Acklam's rational
/// approximation (relative error below 1.2e-9 on `(0, 1)`).
pub fn probit(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    const LOW: f64 = 0.024_25;
    if p < LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

/// A data file: one value per line.
pub fn values_text(values: &[f64]) -> String {
    let mut text = String::with_capacity(values.len() * 8);
    for v in values {
        text.push_str(&v.to_string());
        text.push('\n');
    }
    text
}

/// A windows file: one comma-separated window per line.
pub fn windows_text(windows: &[Vec<f64>]) -> String {
    let mut text = String::new();
    for window in windows {
        for (i, v) in window.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            text.push_str(&v.to_string());
        }
        text.push('\n');
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use moche_stream::{FleetConfig, FleetPush, MonitorConfig, MonitorFleet};

    fn ingest_bytes(seed: u64) -> Vec<u8> {
        let plan = Ingest::sized(seed, 64, 16);
        let mut buf = Vec::new();
        for n in 0..40 {
            plan.encode_round(n, &mut buf);
        }
        buf
    }

    fn drift_bytes(seed: u64) -> Vec<u8> {
        let plan = Drift::sized(seed, 16, 50);
        let mut buf = Vec::new();
        for n in 0..plan.warm_rounds() {
            encode_round(&plan.series, n, &mut buf);
        }
        for k in 0..30 {
            plan.encode_tick(k, &mut buf);
        }
        buf
    }

    fn batch_text(seed: u64) -> String {
        let inputs = BatchInputs::sized(seed, 500, 400, 2, 3);
        let mut text = values_text(&inputs.reference);
        for file in &inputs.files {
            text.push_str(&windows_text(file));
        }
        text
    }

    #[test]
    fn same_seed_gives_identical_bytes_and_another_seed_differs() {
        assert_eq!(ingest_bytes(7), ingest_bytes(7));
        assert_ne!(ingest_bytes(7), ingest_bytes(8));
        assert_eq!(drift_bytes(7), drift_bytes(7));
        assert_ne!(drift_bytes(7), drift_bytes(8));
        assert_eq!(batch_text(7), batch_text(7));
        assert_ne!(batch_text(7), batch_text(8));
    }

    #[test]
    fn written_values_parse_back_exactly() {
        let inputs = BatchInputs::sized(3, 200, 100, 1, 2);
        let text = values_text(&inputs.reference);
        let parsed = moche_cli::io::parse_values("ref", &text).unwrap();
        assert_eq!(parsed, inputs.reference);
        let text = windows_text(&inputs.files[0]);
        assert_eq!(moche_cli::io::parse_windows("win", &text).unwrap(), inputs.files[0]);
    }

    #[test]
    fn probit_inverts_the_normal_cdf() {
        for (p, z) in
            [(0.5, 0.0), (0.975, 1.959_963_985), (0.001, -3.090_232_306), (0.8, 0.841_621_234)]
        {
            assert!((probit(p) - z).abs() < 1e-8, "probit({p}) = {}", probit(p));
            assert!((probit(1.0 - p) + z).abs() < 1e-8, "probit(1 - {p}) = {}", probit(1.0 - p));
        }
    }

    #[test]
    fn stratified_reference_has_one_value_per_slice() {
        let n = 1000;
        let mut values = stratified_normal(&mut Rng::new(9, 3), n);
        assert_ne!(values, stratified_normal(&mut Rng::new(10, 3), n));
        values.sort_by(f64::total_cmp);
        for (i, v) in values.iter().enumerate() {
            let lo = if i == 0 { f64::NEG_INFINITY } else { probit(i as f64 / n as f64) };
            let hi = if i + 1 == n { f64::INFINITY } else { probit((i + 1) as f64 / n as f64) };
            assert!(lo - 5e-5 <= *v && *v <= hi + 5e-5, "value {i} = {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn series_ids_are_distinct_and_barriers_cover_every_shard() {
        let plan = Ingest::new(11);
        let mut ids: Vec<u64> = plan.series.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Ingest::SERIES);
        let barriers = plan.barrier_ids(2);
        assert_eq!(barriers.iter().map(|&id| shard_of(id, 2)).collect::<Vec<_>>(), vec![0, 1]);
    }

    fn alarms(series: &[Series], window: usize, pushes: u64) -> u64 {
        let mut fleet = MonitorFleet::new(FleetConfig::new(1, MonitorConfig::new(window, 0.05)))
            .expect("valid config");
        let mut alarms = 0;
        for n in 0..pushes {
            for s in series {
                if let FleetPush::Alarm { .. } = fleet.push(s.id, s.value(n)).expect("finite") {
                    alarms += 1;
                }
            }
        }
        alarms
    }

    #[test]
    fn stationary_series_never_alarm_and_flipping_series_do() {
        let ingest = Ingest::sized(5, 24, 64);
        assert_eq!(alarms(&ingest.series, 64, 1500), 0);
        let drift = Drift::sized(5, 6, 64);
        assert!(alarms(&drift.series, 64, 1500) >= 6);
    }

    #[test]
    fn ticks_carry_consecutive_pushes_after_the_warm_rounds() {
        let plan = Drift::sized(1, 4, 50);
        assert_eq!(plan.tick_pushes(0), 100..120);
        assert_eq!(plan.tick_of(99), None);
        assert_eq!(plan.tick_of(100), Some(0));
        assert_eq!(plan.tick_of(139), Some(1));
        let mut buf = Vec::new();
        plan.encode_tick(3, &mut buf);
        assert_eq!(buf.len(), 4 * 20 * 21);
    }
}
