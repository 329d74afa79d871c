//! The offline decision maker: `replicate_spec` at the paper's horizon, and a
//! stepped loop over the public policy and bandit API that reproduces
//! `run_spec` bit for bit while timing each round or each layer call.

use std::time::{Duration, Instant};

use netband_env::PullBuffer;
use netband_sim::spec::{combinatorial_scenario, single_scenario};
use netband_sim::{replicate_spec, step, RegretTrace};
use netband_spec::{AnyPolicy, ArmId, BuiltScenario, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fleet::{paper_scenarios, Variant, PAPER_HORIZON, PAPER_REPLICATIONS, REFERENCE_SEED};
use crate::host::{slowdown, HostSpeed};
use crate::report::{Checks, Outcome};
use crate::server::{cpu_s, peak_rss_mb};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Set-ups timed before the load; one more is timed per pass, and the
/// median of all of them is reported.
const SETUP_REPEATS: usize = 5;

/// Threads the stepped pass runs replications on: one per core of the
/// 2-core reference machine.
const STEP_THREADS: usize = 2;

/// The simulation's own CPU account; `replicate_spec`'s worker threads
/// count in it once they end.
const SELF_STAT: &str = "/proc/self/stat";

/// `final_regrets` bit patterns of the reference scenarios
/// ([`REFERENCE_SEED`]), per variant and replication, recorded when the
/// benchmark was defined. Any change to them is a behaviour change of the
/// policies, the environment or the runner.
const REFERENCE_REGRETS: [[u64; PAPER_REPLICATIONS]; 4] = [
    [
        0x4047_9500_7636_f90c,
        0x4048_ab02_0d2a_60a2,
        0x403a_d629_ebb9_067c,
        0x4042_223a_69fc_cd90,
        0x4046_1d2a_bb71_ac26,
        0x403a_dff5_719c_6746,
        0x4035_7744_a8d2_8aa1,
        0x404b_fe71_2c12_18e0,
    ],
    [
        0x40b3_55ce_c541_b06c,
        0x40a5_53df_9041_c14e,
        0x40ac_6b00_c467_5c19,
        0x40b2_eb74_e4c1_0077,
        0x40b3_6f7d_48ea_da0a,
        0x40a8_f2ff_b91f_da72,
        0x40b8_6855_00e6_c710,
        0x40b1_c595_d0e6_ae55,
    ],
    [
        0x4060_bc61_8d2b_06bc,
        0x4058_38d5_8cde_6cd2,
        0x406e_04f0_7bc9_0a6c,
        0x4045_50c9_5586_ae7d,
        0x4067_595f_e7fe_594b,
        0x4045_e326_4181_8efd,
        0x4060_2b52_48e7_7da7,
        0x4053_51df_522d_9a6b,
    ],
    [
        0x4072_f7ca_ef52_b240,
        0x4071_99c5_c999_138a,
        0xc05c_895f_697d_8bcb,
        0x4045_9b87_399b_3ab7,
        0x4031_ef96_2be9_30da,
        0x4061_98e0_5a8f_d1f9,
        0x4054_c98c_ce07_5196,
        0x4078_cff0_6343_1f54,
    ],
];

/// Span names of one variant: round, select, pull, update.
fn span_names(variant: Variant) -> [&'static str; 4] {
    match variant {
        Variant::Sso => [
            "sim.round.sso",
            "core.select.sso",
            "env.pull.sso",
            "core.update.sso",
        ],
        Variant::Ssr => [
            "sim.round.ssr",
            "core.select.ssr",
            "env.pull.ssr",
            "core.update.ssr",
        ],
        Variant::Cso => [
            "sim.round.cso",
            "core.select.cso",
            "env.pull.cso",
            "core.update.cso",
        ],
        Variant::Csr => [
            "sim.round.csr",
            "core.select.csr",
            "env.pull.csr",
            "core.update.csr",
        ],
    }
}

/// What the stepped loop times.
pub enum Timing<'a> {
    /// Nothing: the plain loop.
    Off,
    /// A span per layer call of every round.
    Traced(&'a mut Tracer, Variant),
}

/// One built stationary scenario, advanced a round at a time through the
/// public policy and bandit API: the same calls in the same order, on the
/// same RNG stream, as `run_built`, so its total regret equals `run_spec`'s
/// bit for bit.
pub struct Stepper {
    built: BuiltScenario,
    rng: StdRng,
    buf: PullBuffer,
    trace: RegretTrace,
    strategy: Vec<ArmId>,
    optimal: f64,
}

impl Stepper {
    /// Prepares a built scenario for stepping.
    pub fn new(built: BuiltScenario) -> Result<Stepper, String> {
        if built.drift.as_ref().is_some_and(|d| !d.is_trivial()) {
            return Err(format!(
                "{}: the stepped loop covers stationary scenarios",
                built.name
            ));
        }
        let optimal = match (&built.policy, &built.family) {
            (AnyPolicy::Single(_), _) => {
                step::single_benchmark(&built.bandit, single_scenario(built.side_bonus))
            }
            (AnyPolicy::Combinatorial(_), Some(family)) => step::combinatorial_benchmark(
                &built.bandit,
                family,
                combinatorial_scenario(built.side_bonus),
            ),
            (AnyPolicy::Combinatorial(_), None) => {
                return Err(format!(
                    "{}: combinatorial scenario without a family",
                    built.name
                ))
            }
        };
        Ok(Stepper {
            rng: StdRng::seed_from_u64(built.seed),
            trace: RegretTrace::with_capacity(built.horizon),
            buf: PullBuffer::new(),
            strategy: Vec::new(),
            optimal,
            built,
        })
    }

    /// Plays round `t`. With `timed`, returns the instants before select,
    /// after select, after pull and scoring, and before and after update.
    pub fn step(&mut self, t: usize, timed: bool) -> Result<Option<[Instant; 5]>, String> {
        let now = || timed.then(Instant::now);
        let Stepper {
            built,
            rng,
            buf,
            trace,
            strategy,
            optimal,
        } = self;
        let BuiltScenario {
            bandit,
            policy,
            side_bonus,
            ..
        } = built;
        let marks = match policy {
            AnyPolicy::Single(policy) => {
                let t0 = now();
                let arm = policy.select_arm(t);
                let t1 = now();
                let feedback = buf.pull_single(bandit, arm, rng);
                let (reward, mean) =
                    step::score_single(bandit, single_scenario(*side_bonus), feedback);
                let t2 = now();
                trace.record(*optimal - reward, *optimal - mean);
                let t3 = now();
                policy.update(t, feedback);
                [t0, t1, t2, t3, now()]
            }
            AnyPolicy::Combinatorial(policy) => {
                let t0 = now();
                policy.select_strategy_into(t, strategy);
                let t1 = now();
                let feedback = buf
                    .pull_strategy(bandit, strategy, rng)
                    .map_err(|e| format!("round {t}: {e}"))?;
                let (reward, mean) = step::score_combinatorial(
                    bandit,
                    combinatorial_scenario(*side_bonus),
                    feedback,
                );
                let t2 = now();
                trace.record(*optimal - reward, *optimal - mean);
                let t3 = now();
                policy.update(t, feedback);
                [t0, t1, t2, t3, now()]
            }
        };
        Ok(match marks {
            [Some(a), Some(b), Some(c), Some(d), Some(e)] => Some([a, b, c, d, e]),
            _ => None,
        })
    }

    /// Rounds in the scenario's horizon.
    pub fn horizon(&self) -> usize {
        self.built.horizon
    }

    /// Total realised regret so far.
    pub fn total_regret(&self) -> f64 {
        self.trace.total()
    }
}

/// Runs a whole scenario through a [`Stepper`]; returns its total regret.
pub fn stepped_run(built: BuiltScenario, mut timing: Timing<'_>) -> Result<f64, String> {
    let mut stepper = Stepper::new(built)?;
    let timed = !matches!(timing, Timing::Off);
    for t in 1..=stepper.horizon() {
        let marks = stepper.step(t, timed)?;
        if let (Timing::Traced(tracer, variant), Some([t0, t1, t2, t3, t4])) = (&mut timing, marks)
        {
            let [round, select, pull, update] = span_names(*variant);
            let root = tracer.record(round, t0, t4, 0, t as u64);
            tracer.record(select, t0, t1, root, t as u64);
            tracer.record(pull, t1, t2, root, t as u64);
            tracer.record(update, t3, t4, root, t as u64);
        }
    }
    Ok(stepper.total_regret())
}

/// Builds every replication of every scenario; returns the elapsed time.
fn build_all(scenarios: &[(Variant, ScenarioSpec)]) -> Result<Duration, String> {
    let start = Instant::now();
    for (_, spec) in scenarios {
        for r in 0..spec.replications {
            spec.build_replication(r as u64)
                .map_err(|e| format!("build {}: {e}", spec.name))?;
        }
    }
    Ok(start.elapsed())
}

/// One `replicate_spec` call: final regrets, and wall and process CPU
/// seconds taken.
struct Replicated {
    finals: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

/// One `replicate_spec` pass over the scenarios, with a host-speed sample
/// before each call when `host` is given.
fn replicate_pass(
    scenarios: &[(Variant, ScenarioSpec)],
    mut host: Option<&mut HostSpeed>,
) -> Result<Vec<Replicated>, String> {
    scenarios
        .iter()
        .map(|(_, spec)| {
            if let Some(host) = host.as_deref_mut() {
                host.sample();
            }
            let (start, cpu0) = (Instant::now(), cpu_s(SELF_STAT)?);
            let run = replicate_spec(spec).map_err(|e| format!("replicate {}: {e}", spec.name))?;
            Ok(Replicated {
                finals: run.final_regrets,
                wall_s: start.elapsed().as_secs_f64(),
                cpu_s: cpu_s(SELF_STAT)? - cpu0,
            })
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Checks the reference scenarios' final regrets against the recorded bits.
fn check_reference(checks: &mut Checks) -> Result<(), String> {
    let scenarios = paper_scenarios(REFERENCE_SEED);
    let finals = replicate_pass(&scenarios, None)?;
    for ((variant, _), (call, want)) in scenarios
        .iter()
        .zip(finals.iter().zip(REFERENCE_REGRETS.iter()))
    {
        checks.attempted += 1;
        let got = bits(&call.finals);
        checks.check(got == want, || {
            format!(
                "sim-paper reference {}: final regrets {got:#x?} differ from the recorded {want:#x?}",
                variant.name()
            )
        });
    }
    Ok(())
}

/// One stepped replication: its index, median round time (µs) and final
/// regret.
type SteppedReplication = (usize, f64, f64);

/// Steps every replication of every scenario through the whole horizon,
/// timing each round, with a host-speed sample before each scenario, and
/// checks each final regret against `expected`; returns, per scenario, the
/// median round time of each replication in microseconds. A scenario's
/// replications are split over [`STEP_THREADS`] threads, as `replicate_spec`
/// splits them, and scenarios are stepped one after another, so each
/// replication's round times form one distribution.
fn stepped_pass(
    scenarios: &[(Variant, ScenarioSpec)],
    expected: &[Vec<f64>],
    host: &mut HostSpeed,
    checks: &mut Checks,
) -> Result<Vec<Vec<f64>>, String> {
    let mut p50s = Vec::with_capacity(scenarios.len());
    for ((variant, spec), finals) in scenarios.iter().zip(expected) {
        host.sample();
        let parts: Vec<Result<Vec<SteppedReplication>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..STEP_THREADS)
                .map(|first| {
                    scope.spawn(move || {
                        let mut samples = Vec::with_capacity(PAPER_HORIZON);
                        (first..finals.len())
                            .step_by(STEP_THREADS)
                            .map(|r| {
                                let built = spec
                                    .build_replication(r as u64)
                                    .map_err(|e| format!("build {}: {e}", spec.name))?;
                                let mut stepper = Stepper::new(built)?;
                                samples.clear();
                                for t in 1..=PAPER_HORIZON {
                                    let start = Instant::now();
                                    stepper.step(t, false)?;
                                    samples.push(start.elapsed().as_nanos() as u64);
                                }
                                samples.sort_unstable();
                                let p50 = quantile(&samples, 0.50) as f64 / 1e3;
                                Ok((r, p50, stepper.total_regret()))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stepping thread panicked"))
                .collect()
        });
        let mut scenario_p50s = Vec::with_capacity(finals.len());
        for part in parts {
            for (r, p50, got) in part? {
                let want = finals[r];
                checks.attempted += 1;
                checks.check(got.to_bits() == want.to_bits(), || {
                    format!(
                        "sim-paper {} replication {r}: stepped regret {got} differs from replicate_spec's {want}",
                        variant.name()
                    )
                });
                scenario_p50s.push(p50);
            }
        }
        p50s.push(scenario_p50s);
    }
    Ok(p50s)
}

/// The `sim-paper` end-to-end run.
///
/// Passes run until the deadline. Each pass runs `replicate_spec` on every
/// scenario, for the process CPU time per simulated round, and then steps
/// every replication round by round, for the per-decide latency: the mean
/// over the four scenarios of the median round time of their replications.
/// Every pass covers the same rounds. Each pass's figures are scaled by the
/// host's slowdown over the pass (see `host`) and the medians over passes
/// and replications reported; set-up times are scaled by the run's
/// slowdown.
pub fn run_end_to_end(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut host = HostSpeed::new();
    let scenarios = paper_scenarios(seed);

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        setups.push(build_all(&scenarios)?.as_secs_f64());
    }
    check_reference(&mut out.checks)?;

    // Warm-up pass; every later pass and stepped replication must
    // reproduce its final regrets bit for bit.
    let expected: Vec<Vec<f64>> = replicate_pass(&scenarios, None)?
        .into_iter()
        .map(|call| call.finals)
        .collect();

    let rounds_per_pass = (scenarios.len() * PAPER_REPLICATIONS * PAPER_HORIZON) as f64;
    let (mut rates, mut costs) = (Vec::new(), Vec::new());
    let mut scaled_costs = Vec::new();
    let mut p50s = vec![Vec::new(); scenarios.len()];
    let mut scaled_p50s = vec![Vec::new(); scenarios.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let first = host.len();
        let pass = replicate_pass(&scenarios, Some(&mut host))?;
        costs.push(pass.iter().map(|c| c.cpu_s).sum::<f64>() / rounds_per_pass * 1e6);
        rates.push(rounds_per_pass / pass.iter().map(|c| c.wall_s).sum::<f64>());
        for ((variant, _), (call, want)) in scenarios.iter().zip(pass.iter().zip(&expected)) {
            out.checks.attempted += call.finals.len() as u64;
            out.checks.check(bits(&call.finals) == bits(want), || {
                format!(
                    "sim-paper {}: a repeated pass changed its regrets",
                    variant.name()
                )
            });
        }
        let stepped = stepped_pass(&scenarios, &expected, &mut host, &mut out.checks)?;
        let slow = slowdown(host.mean_since(first));
        scaled_costs.push(costs[costs.len() - 1] / slow);
        for ((raw, scaled), replications) in p50s.iter_mut().zip(&mut scaled_p50s).zip(stepped) {
            scaled.extend(replications.iter().map(|p| p / slow));
            raw.extend(replications);
        }
        // Another set-up per pass, so set-up times sample the whole run.
        setups.push(build_all(&scenarios)?.as_secs_f64());
    }
    // A scenario's latency is the median over its replications; the mix's
    // is the mean over the four scenarios.
    let mix_p50 =
        |p50s: &[Vec<f64>]| p50s.iter().map(|p| median(p)).sum::<f64>() / p50s.len() as f64;
    let setup = median(&setups);
    println!("{}", host.describe());
    println!(
        "raw: {} passes, {:.0} rounds/s, {:.3} CPU us per round, round p50 {:.3} us, set-up {setup:.4} s",
        costs.len(),
        median(&rates),
        median(&costs),
        mix_p50(&p50s)
    );
    out.push("cpu_us_per_decide", median(&scaled_costs), "us");
    out.push("decide_p50_us", mix_p50(&scaled_p50s), "us");
    out.push("setup_s", setup / slowdown(host.median_s()), "s");
    out.push("peak_rss_mb", peak_rss_mb("/proc/self/status")?, "MiB");
    Ok(out)
}

/// Per-layer figures of the stepped loop over one scenario per variant.
pub struct SteppedLayers {
    /// `(variant, select ns, update ns, pull ns, build ms)` means.
    pub per_variant: Vec<(Variant, f64, f64, f64, f64)>,
    /// Untraced rounds per second over the same rounds.
    pub untraced_rounds_per_s: f64,
    /// Traced rounds per second.
    pub traced_rounds_per_s: f64,
}

/// Runs each scenario untraced and then traced (spans into `tracer`),
/// checking both regrets against `run_spec`'s; times `spec.build()`.
pub fn stepped_layers(
    scenarios: &[(Variant, ScenarioSpec)],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<SteppedLayers, String> {
    let mut per_variant = Vec::new();
    let (mut untraced_s, mut traced_s, mut rounds) = (0.0, 0.0, 0usize);
    for (variant, spec) in scenarios {
        let reference = netband_sim::run_spec(spec)
            .map_err(|e| format!("run_spec {}: {e}", spec.name))?
            .total_regret();
        let mut builds = Vec::new();
        let mut built = None;
        for _ in 0..5 {
            let start = Instant::now();
            let b = spec
                .build()
                .map_err(|e| format!("build {}: {e}", spec.name))?;
            builds.push(start.elapsed().as_secs_f64() * 1e3);
            built = Some(b);
        }
        let plain = built.expect("built at least once");
        let traced = plain.clone();
        let start = Instant::now();
        let regret_plain = stepped_run(plain, Timing::Off)?;
        untraced_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let regret_traced = stepped_run(traced, Timing::Traced(tracer, *variant))?;
        traced_s += start.elapsed().as_secs_f64();
        rounds += spec.horizon;
        for regret in [regret_plain, regret_traced] {
            checks.attempted += 1;
            checks.check(regret.to_bits() == reference.to_bits(), || {
                format!(
                    "{}: stepped regret {regret} differs from run_spec's {reference}",
                    variant.name()
                )
            });
        }
        let [_, select, pull, update] = span_names(*variant);
        let mean = |name| crate::stats::mean_ns(&tracer.durations(name));
        per_variant.push((
            *variant,
            mean(select),
            mean(update),
            mean(pull),
            median(&builds),
        ));
    }
    Ok(SteppedLayers {
        per_variant,
        untraced_rounds_per_s: rounds as f64 / untraced_s,
        traced_rounds_per_s: rounds as f64 / traced_s,
    })
}
