//! The estimator: percentiles, the tail-percentile rule, and
//! quietest-rounds pooling.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest of p99 / p90 / p50 that leaves at least ten samples
/// beyond it: a percentile resting on fewer is one neighbour's burst.
pub fn tail_percentile(samples: usize) -> u32 {
    [99u32, 90]
        .into_iter()
        .find(|p| samples * (100 - *p as usize) >= 10 * 100)
        .unwrap_or(50)
}

/// One workload-round as the child process reported it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// False when an oracle outside the per-op checks failed.
    pub oracle_ok: bool,
    pub input_digest: String,
    /// Exact counters a workload asserts equal across rounds.
    pub exact: Vec<(String, String)>,
    /// Client-observed latency of each successful timed op, µs.
    pub samples_us: Vec<f64>,
}

impl Round {
    pub fn p50_us(&self) -> f64 {
        median(&self.samples_us)
    }

    /// Two lines a child process prints for its parent: `key=value`
    /// fields, then the samples.
    pub fn encode(&self) -> String {
        let mut head = format!(
            "round setup_s={} peak_rss_mb={} attempted={} failed={} oracle_ok={} input_digest={}",
            self.setup_s,
            self.peak_rss_mb,
            self.attempted,
            self.failed,
            self.oracle_ok,
            self.input_digest
        );
        for (k, v) in &self.exact {
            head.push_str(&format!(" exact.{k}={v}"));
        }
        let samples: Vec<String> = self.samples_us.iter().map(|s| format!("{s:.3}")).collect();
        format!("{head}\nsamples_us {}", samples.join(" "))
    }

    /// Read [`Round::encode`] back out of a child's standard output.
    pub fn decode(stdout: &str) -> Option<Round> {
        let mut round = Round::default();
        let head = stdout.lines().find_map(|l| l.strip_prefix("round "))?;
        for (key, value) in head.split_whitespace().filter_map(|f| f.split_once('=')) {
            match key {
                "setup_s" => round.setup_s = value.parse().ok()?,
                "peak_rss_mb" => round.peak_rss_mb = value.parse().ok()?,
                "attempted" => round.attempted = value.parse().ok()?,
                "failed" => round.failed = value.parse().ok()?,
                "oracle_ok" => round.oracle_ok = value.parse().ok()?,
                "input_digest" => round.input_digest = value.to_string(),
                _ => round
                    .exact
                    .push((key.strip_prefix("exact.")?.to_string(), value.to_string())),
            }
        }
        let samples = stdout.lines().find_map(|l| l.strip_prefix("samples_us"))?;
        round.samples_us = samples
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        Some(round)
    }
}

/// Indices of the `keep` lowest of `noise` (one reading per round).
/// Neighbour noise on a shared host arrives in epochs of seconds and
/// only ever slows a run, so the quietest rounds are the ones closest
/// to the code's own cost.
pub fn quietest(noise: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..noise.len()).collect();
    order.sort_by(|&a, &b| noise[a].total_cmp(&noise[b]));
    order.truncate(keep);
    order.sort_unstable();
    order
}

fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The samples of rounds `kept`, ascending.
fn pool(rounds: &[Round], kept: &[usize]) -> Vec<f64> {
    sorted(
        kept.iter()
            .flat_map(|&i| rounds[i].samples_us.iter().copied())
            .collect(),
    )
}

/// The end-to-end numbers of one workload, estimated from its rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    pub setup_s: f64,
    pub op_p50_us: f64,
    pub op_tail_us: f64,
    pub tail_percentile: u32,
    pub pooled_samples: usize,
    pub ops_per_s: f64,
    pub peak_rss_mb: f64,
    /// Each round's own median and tail, and which rounds were pooled.
    pub round_p50s: Vec<f64>,
    pub round_tails: Vec<f64>,
    pub p50_rounds: Vec<usize>,
    pub tail_rounds: Vec<usize>,
}

/// Each latency metric is read from the pooled samples of the `keep`
/// rounds that were quietest *in that metric*: the median from the
/// rounds with the lowest own median, the tail from those with the
/// lowest own tail, throughput (pooled ops over pooled busy time -
/// closed loop, depth 1, the generator's checking time is not the
/// system's) from those with the lowest mean. A round can have a quiet
/// median and a burst in its tail, so one ranking does not serve all
/// three. Set-up time and memory are medians over every round. The
/// tail is the workload's `tail` percentile, or the highest a short
/// run's pool supports.
pub fn estimate(rounds: &[Round], keep: usize, tail: u32) -> Estimate {
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let round_p50s = per_round(&Round::p50_us);
    let p50_rounds = quietest(&round_p50s, keep);
    let p50_pool = pool(rounds, &p50_rounds);
    let tail = tail.min(tail_percentile(p50_pool.len()));
    let round_tails = per_round(&|r| percentile(&sorted(r.samples_us.clone()), f64::from(tail)));
    let tail_rounds = quietest(&round_tails, keep);
    let means = per_round(&|r| r.samples_us.iter().sum::<f64>() / r.samples_us.len().max(1) as f64);
    let busy_pool = pool(rounds, &quietest(&means, keep));
    let busy_s: f64 = busy_pool.iter().sum::<f64>() / 1e6;
    Estimate {
        setup_s: median(&per_round(&|r| r.setup_s)),
        op_p50_us: percentile(&p50_pool, 50.0),
        op_tail_us: percentile(&pool(rounds, &tail_rounds), f64::from(tail)),
        tail_percentile: tail,
        pooled_samples: p50_pool.len(),
        ops_per_s: if busy_s > 0.0 {
            busy_pool.len() as f64 / busy_s
        } else {
            0.0
        },
        peak_rss_mb: median(&per_round(&|r| r.peak_rss_mb)),
        round_p50s,
        round_tails,
        p50_rounds,
        tail_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(p50: f64, n: usize) -> Round {
        Round {
            samples_us: vec![p50; n],
            setup_s: p50 / 100.0,
            ..Round::default()
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(180_000), 99);
        assert_eq!(tail_percentile(1_000), 99);
        assert_eq!(tail_percentile(999), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn quietest_three_of_five_drops_the_noisy_rounds() {
        let rounds = [
            round(70.0, 10),
            round(55.0, 10),
            round(200.0, 10),
            round(56.0, 10),
            round(54.0, 10),
        ];
        assert_eq!(quietest(&[70.0, 55.0, 200.0, 56.0, 54.0], 3), [1, 3, 4]);
        let e = estimate(&rounds, 3, 99);
        assert_eq!(e.p50_rounds, [1, 3, 4]);
        assert_eq!(e.pooled_samples, 30);
        assert_eq!(e.op_p50_us, 55.0);
        assert_eq!(e.tail_percentile, 50);
        assert_eq!(e.round_p50s, [70.0, 55.0, 200.0, 56.0, 54.0]);
        // 30 ops over (540 + 550 + 560) us of busy time
        assert!((e.ops_per_s - 30.0 / 1650e-6).abs() < 1e-6);
        // set-up is a median over all five rounds, noisy ones included
        assert_eq!(e.setup_s, 0.56);
    }

    #[test]
    fn each_metric_pools_the_rounds_quietest_in_it() {
        // round 0: lowest median, but a fifth of its ops hit a burst;
        // rounds 1-3: a little slower, no burst; round 4: slow throughout
        let burst: Vec<f64> = (0..200)
            .map(|i| if i % 5 == 0 { 300.0 } else { 50.0 })
            .collect();
        let mut rounds = vec![Round {
            samples_us: burst,
            ..Round::default()
        }];
        rounds.extend([52.0, 53.0, 54.0, 90.0].map(|p50| round(p50, 200)));
        let e = estimate(&rounds, 3, 90);
        assert_eq!(e.tail_percentile, 90);
        assert_eq!(e.p50_rounds, [0, 1, 2]);
        assert_eq!(e.op_p50_us, 52.0);
        assert_eq!(e.tail_rounds, [1, 2, 3]);
        assert_eq!(e.op_tail_us, 54.0);
        assert_eq!(e.round_tails, [300.0, 52.0, 53.0, 54.0, 90.0]);
        // throughput leaves the burst round out too: its mean is 100 us
        assert!((e.ops_per_s - 1e6 / 53.0).abs() < 1e-6);
    }

    #[test]
    fn a_round_survives_the_pipe_to_its_parent() {
        let round = Round {
            setup_s: 0.25,
            peak_rss_mb: 51.5,
            attempted: 3,
            failed: 1,
            oracle_ok: true,
            input_digest: "00ff".into(),
            exact: vec![("wal_bytes_per_user_byte".into(), "1.650000".into())],
            samples_us: vec![55.125, 60.5],
        };
        let stdout = format!("host nproc=2\n{}\n", round.encode());
        assert_eq!(Round::decode(&stdout), Some(round));
        assert_eq!(Round::decode("round setup_s=x\nsamples_us 1"), None);
        assert_eq!(Round::decode("no round here"), None);
    }

    #[test]
    fn fewer_rounds_than_keep_pools_them_all() {
        let e = estimate(&[round(10.0, 4)], 3, 90);
        assert_eq!(e.p50_rounds, [0]);
        assert_eq!(e.pooled_samples, 4);
        // a workload's own tail is used once the pool supports it
        assert_eq!(estimate(&[round(10.0, 2_000)], 3, 90).tail_percentile, 90);
        assert_eq!(estimate(&[round(10.0, 2_000)], 3, 99).tail_percentile, 99);
        assert_eq!(estimate(&[round(10.0, 500)], 3, 99).tail_percentile, 90);
    }
}
