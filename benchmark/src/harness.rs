//! What every workload shares: the run context, the three bracketed
//! cold set-ups, the time-boxed round loop, and the arithmetic that
//! turns bracketed series into the seven end-to-end metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::pace::{Pacer, Series};
use crate::spans::Tracer;
use crate::util::peak_rss_mib;

/// Cold set-ups per run; `setup_s` is their pace-corrected mean.
pub const SETUPS: usize = 3;
/// Seconds a mini-run measures (see [`Ctx::mini`]).
const MINI_SECONDS: f64 = 2.0;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub pacer: Pacer,
    pub tracer: Tracer,
    setups: usize,
    started: Instant,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, out_dir: PathBuf) -> Self {
        Ctx {
            seed,
            seconds,
            trace,
            out_dir,
            pacer: Pacer::new(),
            tracer: Tracer::new(),
            setups: SETUPS,
            started: Instant::now(),
        }
    }

    /// The context of a mini-run: one set-up, a couple of traced rounds.
    /// A traced run of one workload uses mini-runs of the other two to
    /// fill the per-layer metrics its own workload does not exercise,
    /// so every traced run reports every layer with a measured value.
    pub fn mini(&self) -> Ctx {
        Ctx {
            setups: 1,
            ..Ctx::new(self.seed, MINI_SECONDS, true, self.out_dir.clone())
        }
    }

    /// Builds the workload's state [`SETUPS`] times from the same seed,
    /// each between two reference windows, keeping only the last (the
    /// earlier ones are dropped first so peak memory is one set-up's).
    pub fn setup<S>(&mut self, mut build: impl FnMut() -> S) -> (S, Series) {
        let mut series = Series::default();
        let mut state = None;
        for _ in 0..self.setups {
            drop(state.take());
            let before = self.pacer.window();
            let (s, raw, bracket, _) = self.pacer.bracket(before, &mut build);
            series.push(raw, bracket);
            state = Some(s);
        }
        (state.expect("SETUPS >= 1"), series)
    }

    /// Runs `round(ctx, index)` until `--seconds` of wall clock have
    /// passed; a round always finishes. In a traced run odd rounds
    /// record spans and even rounds do not, so the two halves measure
    /// the tracing overhead on the same host in the same minute.
    pub fn rounds(&mut self, mut round: impl FnMut(&mut Ctx, usize)) -> usize {
        let box_ = Duration::from_secs_f64(self.seconds);
        let t0 = Instant::now();
        let mut i = 0;
        while i < 2 || t0.elapsed() < box_ {
            self.tracer.on = self.trace && i % 2 == 1;
            self.tracer.round = i as u32;
            round(self, i);
            i += 1;
        }
        self.tracer.on = self.trace;
        i
    }

    /// Share of the run so far spent in reference windows.
    pub fn ref_share(&self) -> f64 {
        self.pacer.total() / self.started.elapsed().as_secs_f64()
    }
}

/// The bracketed series the end-to-end timings are derived from.
#[derive(Default)]
pub struct Timings {
    pub setup: Series,
    /// `rhs_per_s = rhs_count ÷ Σ rhs_time`.
    pub rhs_count: f64,
    pub rhs_time: Vec<Series>,
    /// `lat_p50_ms = p50 ÷ p50_div`.
    pub p50: Series,
    pub p50_div: f64,
    pub slow: Series,
    /// `alt_lat_p50_ms = alt ÷ alt_div + alt_wall_s`.
    pub alt: Series,
    pub alt_div: f64,
    /// Seconds of `alt_lat_p50_ms` that are a wall-clock wait (the
    /// batcher's linger timer), which no host runs faster or slower:
    /// added as measured, never pace-corrected.
    pub alt_wall_s: f64,
}

impl Timings {
    /// `(rhs_per_s, lat_p50_ms, lat_slow_ms, alt_lat_p50_ms)`, pace
    /// corrected or raw.
    pub fn derive(&self, corrected: bool) -> [f64; 4] {
        let rhs_secs: f64 = self.rhs_time.iter().map(|s| s.secs(corrected)).sum();
        [
            self.rhs_count / rhs_secs,
            self.p50.secs(corrected) / self.p50_div * 1e3,
            self.slow.secs(corrected) * 1e3,
            (self.alt.secs(corrected) / self.alt_div + self.alt_wall_s) * 1e3,
        ]
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Seconds of `op` with the telemetry registry on ÷ off, over `pairs`
/// alternated pairs so that drift hits both sides; leaves the registry
/// as `after`. `op` returns the seconds it took.
pub fn registry_on_over_off(
    pairs: usize,
    after: bool,
    mut op: impl FnMut() -> f64,
) -> f64 {
    let (mut on, mut off) = (0.0, 0.0);
    for _ in 0..pairs {
        for enabled in [true, false] {
            mrhs_telemetry::set_enabled(enabled);
            *(if enabled { &mut on } else { &mut off }) += op();
        }
    }
    mrhs_telemetry::set_enabled(after);
    on / off
}

/// What a workload hands back.
pub struct Outcome {
    pub timings: Timings,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    /// Per-layer metrics this workload measured (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human reader.
    pub notes: Vec<String>,
}

/// The end-to-end metrics of a finished run, in manifest order.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    let [rhs, p50, slow, alt] = o.timings.derive(true);
    vec![
        ("setup_s", o.timings.setup.corrected()),
        ("peak_rss_mb", peak_rss_mib()),
        ("ok_share", (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64),
        ("rhs_per_s", rhs),
        ("lat_p50_ms", p50),
        ("lat_slow_ms", slow),
        ("alt_lat_p50_ms", alt),
    ]
}

/// Adds the host and raw-twin metrics every workload reports.
pub fn host_layer(ctx: &Ctx, o: &mut Outcome) {
    let [rhs, p50, slow, alt] = o.timings.derive(false);
    o.layer.insert("host.pace", ctx.pacer.pace());
    o.layer.insert("host.pace_spread", ctx.pacer.spread());
    o.layer.insert("host.ref_share", ctx.ref_share());
    o.layer.insert("raw.setup_s", o.timings.setup.raw_mean());
    o.layer.insert("raw.rhs_per_s", rhs);
    o.layer.insert("raw.lat_p50_ms", p50);
    o.layer.insert("raw.lat_slow_ms", slow);
    o.layer.insert("raw.alt_lat_p50_ms", alt);
}
