//! Deterministic arrival traces for service benchmarking.
//!
//! `service-bench` replays one of these against a running
//! [`SolveService`](crate::SolveService): each entry is a request
//! arrival offset (relative to replay start) plus the request width.
//! Two generators cover the interesting regimes — memoryless
//! [`poisson`](ArrivalTrace::poisson) traffic and
//! [`bursty`](ArrivalTrace::bursty) traffic whose bursts arrive as a
//! Poisson process. Traces serialize to a line-oriented text format
//! (documented in EXPERIMENTS.md) so runs are replayable byte-for-byte.

use std::time::Duration;

/// One request arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from replay start, microseconds.
    pub at_us: u64,
    /// Right-hand sides in this request.
    pub width: usize,
}

/// An ordered arrival schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrivalTrace {
    pub arrivals: Vec<Arrival>,
}

/// splitmix64 — tiny deterministic generator, no dependencies.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in (0, 1].
fn uniform(state: &mut u64) -> f64 {
    ((splitmix(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Exponential inter-arrival gap, microseconds.
fn exp_gap_us(state: &mut u64, rate_hz: f64) -> u64 {
    (-uniform(state).ln() / rate_hz * 1e6).round() as u64
}

impl ArrivalTrace {
    /// Memoryless arrivals at `rate_hz` requests per second.
    pub fn poisson(rate_hz: f64, count: usize, width: usize, seed: u64) -> Self {
        assert!(rate_hz > 0.0 && width >= 1);
        let mut state = seed ^ 0xa076_1d64_78bd_642f;
        let mut t = 0u64;
        let arrivals = (0..count)
            .map(|_| {
                t += exp_gap_us(&mut state, rate_hz);
                Arrival { at_us: t, width }
            })
            .collect();
        ArrivalTrace { arrivals }
    }

    /// Bursts of `burst` back-to-back requests; burst *epochs* are a
    /// Poisson process at `rate_hz / burst` so the long-run request
    /// rate still averages `rate_hz`.
    pub fn bursty(
        rate_hz: f64,
        count: usize,
        width: usize,
        burst: usize,
        seed: u64,
    ) -> Self {
        assert!(rate_hz > 0.0 && width >= 1 && burst >= 1);
        let mut state = seed ^ 0xe703_7ed1_a0b4_28db;
        let epoch_rate = rate_hz / burst as f64;
        let mut t = 0u64;
        let mut arrivals = Vec::with_capacity(count);
        while arrivals.len() < count {
            t += exp_gap_us(&mut state, epoch_rate);
            for _ in 0..burst.min(count - arrivals.len()) {
                arrivals.push(Arrival { at_us: t, width });
            }
        }
        ArrivalTrace { arrivals }
    }

    /// Span from replay start to the last arrival.
    pub fn duration(&self) -> Duration {
        Duration::from_micros(self.arrivals.last().map_or(0, |a| a.at_us))
    }

    /// Total right-hand sides across all arrivals.
    pub fn total_columns(&self) -> usize {
        self.arrivals.iter().map(|a| a.width).sum()
    }

    /// Serializes to the EXPERIMENTS.md text format.
    pub fn to_text(&self) -> String {
        let mut s = String::from("# mrhs-service arrival trace v1\n");
        s.push_str("# <offset_us> <width>\n");
        for a in &self.arrivals {
            s.push_str(&format!("{} {}\n", a.at_us, a.width));
        }
        s
    }

    /// Parses the text format (comments and blank lines ignored;
    /// arrivals must be time-ordered).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut arrivals = Vec::new();
        let mut last = 0u64;
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (at, w) = (it.next(), it.next());
            let err =
                |what: &str| format!("trace line {}: {what}: {line:?}", ln + 1);
            let at_us: u64 = at
                .ok_or_else(|| err("missing offset"))?
                .parse()
                .map_err(|_| err("bad offset"))?;
            let width: usize = w
                .ok_or_else(|| err("missing width"))?
                .parse()
                .map_err(|_| err("bad width"))?;
            if it.next().is_some() {
                return Err(err("trailing fields"));
            }
            if width == 0 {
                return Err(err("width must be >= 1"));
            }
            if at_us < last {
                return Err(err("arrivals must be time-ordered"));
            }
            last = at_us;
            arrivals.push(Arrival { at_us, width });
        }
        Ok(ArrivalTrace { arrivals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_roughly_at_rate() {
        let a = ArrivalTrace::poisson(1000.0, 2000, 1, 7);
        let b = ArrivalTrace::poisson(1000.0, 2000, 1, 7);
        assert_eq!(a, b, "same seed, same trace");
        let secs = a.duration().as_secs_f64();
        let rate = a.arrivals.len() as f64 / secs;
        assert!(
            (rate - 1000.0).abs() < 100.0,
            "empirical rate {rate:.0}/s should be near 1000/s"
        );
    }

    #[test]
    fn bursty_arrivals_share_epochs() {
        let t = ArrivalTrace::bursty(800.0, 64, 1, 8, 3);
        assert_eq!(t.arrivals.len(), 64);
        let firsts: Vec<u64> = t.arrivals.chunks(8).map(|c| c[0].at_us).collect();
        for c in t.arrivals.chunks(8) {
            assert!(c.iter().all(|a| a.at_us == c[0].at_us));
        }
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn text_round_trip() {
        let t = ArrivalTrace::poisson(500.0, 100, 2, 11);
        let parsed = ArrivalTrace::parse(&t.to_text()).unwrap();
        assert_eq!(t, parsed);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(ArrivalTrace::parse("abc 1").is_err());
        assert!(ArrivalTrace::parse("5").is_err());
        assert!(ArrivalTrace::parse("5 0").is_err());
        assert!(ArrivalTrace::parse("5 1 9").is_err());
        assert!(ArrivalTrace::parse("9 1\n5 1").is_err());
        assert!(ArrivalTrace::parse("# ok\n\n3 1\n4 2").is_ok());
    }
}
