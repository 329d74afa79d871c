//! Workload inputs, generated from the workload seed.
//!
//! The program under test only ever sees the generated scenario documents;
//! the seed stays on the benchmark's side.

use netband_spec::{presets, FeedbackSpec, ScenarioSpec};

/// Tenants in the wire fleet: 4 presets × 4 instances.
pub const FLEET_TENANTS: usize = 16;

/// Horizon of the paper's Section VII simulations.
pub const PAPER_HORIZON: usize = 10_000;

/// Replications per `sim-paper` scenario. Each is a fresh random instance,
/// so eight of them keep a seed's luck in instance cost from moving the mix.
pub const PAPER_REPLICATIONS: usize = 8;

/// The seed whose `sim-paper` final regrets are recorded in the benchmark.
pub const REFERENCE_SEED: u64 = 1;

/// A DFL variant: play mode × side bonus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Single play, side observation (DFL-SSO).
    Sso,
    /// Single play, side reward (DFL-SSR).
    Ssr,
    /// Combinatorial play, side observation (DFL-CSO).
    Cso,
    /// Combinatorial play, side reward (DFL-CSR).
    Csr,
}

impl Variant {
    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Sso => "sso",
            Variant::Ssr => "ssr",
            Variant::Cso => "cso",
            Variant::Csr => "csr",
        }
    }

    /// All four, in metric order.
    pub const ALL: [Variant; 4] = [Variant::Sso, Variant::Ssr, Variant::Cso, Variant::Csr];
}

/// SplitMix64 finaliser: decorrelates the derived seeds of one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The preset of fleet slot `index % 4`, at the sizes of
/// `examples/fleet.json`, with the variant it hosts.
fn fleet_preset(index: usize, workload_seed: u64) -> (Variant, ScenarioSpec) {
    match index % 4 {
        0 => (
            Variant::Sso,
            presets::paper_simulation(12, 0.35, workload_seed),
        ),
        1 => (
            Variant::Ssr,
            presets::social_promotion(16, 3, workload_seed),
        ),
        2 => (
            Variant::Cso,
            presets::online_advertising(12, 3, workload_seed),
        ),
        _ => (
            Variant::Csr,
            presets::channel_access(12, 3, 0.35, workload_seed),
        ),
    }
}

/// The 16-tenant wire fleet of `seed`: `(tenant id, variant, scenario)`.
pub fn wire_fleet(seed: u64) -> Vec<(String, Variant, ScenarioSpec)> {
    (0..FLEET_TENANTS)
        .map(|index| {
            let (variant, mut scenario) = fleet_preset(index, mix(seed, 2 * index as u64));
            scenario.seed = mix(seed, 2 * index as u64 + 1);
            scenario.horizon = 150;
            scenario.replications = 1;
            scenario.feedback = FeedbackSpec::Batched { max_pending: 32 };
            (format!("t{index:02}"), variant, scenario)
        })
        .collect()
}

/// The four Section VII-sized scenarios of `sim-paper`, one per variant, at
/// the paper's horizon.
pub fn paper_scenarios(seed: u64) -> Vec<(Variant, ScenarioSpec)> {
    let mut out = vec![
        (
            Variant::Sso,
            presets::paper_simulation(100, 0.3, mix(seed, 100)),
        ),
        (
            Variant::Ssr,
            presets::social_promotion(100, 5, mix(seed, 101)),
        ),
        (
            Variant::Cso,
            presets::online_advertising(12, 3, mix(seed, 102)),
        ),
        (
            Variant::Csr,
            presets::channel_access(16, 3, 0.35, mix(seed, 103)),
        ),
    ];
    for (i, (_, spec)) in out.iter_mut().enumerate() {
        spec.seed = mix(seed, 200 + i as u64);
        spec.horizon = PAPER_HORIZON;
        spec.replications = PAPER_REPLICATIONS;
    }
    out
}
