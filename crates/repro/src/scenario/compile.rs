//! Lowering: validated [`ScenarioGraph`] → flat [`ExecutionPlan`].
//!
//! The compiler expands the graph's cross products — every traffic node ×
//! every model node it uses × every network × every device × every batch
//! size — into a flat list of [`PlanUnit`]s the driver executes one by one.
//! All name resolution already happened in [`mod@super::validate`]; lowering is
//! pure bookkeeping plus two resolutions that need model metadata: the
//! host-glue microseconds (`HostGlue::Model` → the network's calibrated
//! value) and the execution device (power mode → [`DeviceSpec`]).
//!
//! `--smoke` is applied here, not in the driver: [`CompileOptions::smoke`]
//! caps frames / builds / runs so CI exercises the full pipeline in
//! seconds, and the caps are visible in the plan rather than silently
//! applied mid-run.

use super::validate::{DeviceDecl, EngineSource, HostGlue, PowerMode, ScenarioGraph, TrafficKind};
use trtsim_gpu::device::DeviceSpec;
use trtsim_models::ModelId;

/// Knobs for lowering.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    /// Cap the plan to CI size: ≤ 32 frames, ≤ 2 builds, ≤ 5 timed runs.
    pub smoke: bool,
}

/// One fully resolved experiment unit.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanUnit {
    /// Name of the traffic node this unit came from.
    pub traffic: String,
    /// Name of the model node.
    pub model: String,
    /// The network under test.
    pub network: ModelId,
    /// The device declaration (platform, power, name). Fleet units span
    /// several devices ([`PlanUnit::fleet_devices`]); this is the first.
    pub device: DeviceDecl,
    /// Every device of a fleet unit, in graph order. Empty for non-fleet
    /// kinds, which run on [`PlanUnit::device`] alone.
    pub fleet_devices: Vec<DeviceDecl>,
    /// Engine max batch size / dynamic-batcher cap.
    pub batch: u32,
    /// Engine provenance.
    pub source: EngineSource,
    /// Engine builds (latency traffic measures each; serving uses build 0).
    pub builds: u32,
    /// Resolved host glue, µs.
    pub host_glue_us: f64,
    /// What to run, with smoke caps already applied.
    pub kind: TrafficKind,
}

impl PlanUnit {
    /// Stable display label: `traffic/model/network@device b<batch>`
    /// (`@fleet<n>` for a unit spanning `n` devices).
    pub fn label(&self) -> String {
        let device = if self.fleet_devices.len() > 1 {
            format!("fleet{}", self.fleet_devices.len())
        } else {
            self.device.name.clone()
        };
        format!(
            "{}/{}/{}@{} b{}",
            self.traffic,
            self.model,
            self.network.info().name,
            device,
            self.batch
        )
    }

    /// The [`DeviceSpec`] the unit executes on.
    pub fn device_spec(&self) -> DeviceSpec {
        spec_of(&self.device)
    }

    /// Every device the unit spans, with resolved specs: the fleet set for
    /// fleet units, the single execution device otherwise.
    pub fn device_specs(&self) -> Vec<(&DeviceDecl, DeviceSpec)> {
        if self.fleet_devices.is_empty() {
            vec![(&self.device, self.device_spec())]
        } else {
            self.fleet_devices.iter().map(|d| (d, spec_of(d))).collect()
        }
    }
}

/// Resolves a device declaration's power mode to a [`DeviceSpec`].
fn spec_of(device: &DeviceDecl) -> DeviceSpec {
    match device.power {
        PowerMode::Max => DeviceSpec::max_clock(device.platform),
        PowerMode::Pinned => DeviceSpec::pinned_clock(device.platform),
    }
}

/// A lowered assertion: a metric bound applied to a set of plan units.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAssert {
    /// The assert node's name.
    pub name: String,
    /// Metric key to bound.
    pub metric: String,
    /// Inclusive lower bound.
    pub min: Option<f64>,
    /// Inclusive upper bound.
    pub max: Option<f64>,
    /// Indices into [`ExecutionPlan::units`] the bound applies to.
    pub units: Vec<usize>,
}

/// The flat plan the generic driver executes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Scenario name.
    pub name: String,
    /// Experiment units in deterministic graph order.
    pub units: Vec<PlanUnit>,
    /// Lowered assertions.
    pub asserts: Vec<PlanAssert>,
}

fn cap_kind(kind: &TrafficKind, smoke: bool) -> TrafficKind {
    let mut kind = kind.clone();
    if !smoke {
        return kind;
    }
    match &mut kind {
        TrafficKind::Latency { runs, .. } => *runs = (*runs).min(5),
        TrafficKind::Closed { frames, queue, .. }
        | TrafficKind::Poisson { frames, queue, .. }
        | TrafficKind::Fleet { frames, queue, .. } => {
            *frames = (*frames).min(32);
            *queue = (*queue).min(32);
        }
        // Closed-form sweep: already CI-fast, nothing to cap.
        TrafficKind::Concurrency => {}
    }
    kind
}

/// Lowers a validated graph into an execution plan.
pub fn compile(graph: &ScenarioGraph, opts: CompileOptions) -> ExecutionPlan {
    let mut units = Vec::new();
    // traffic index → plan-unit indices, for assertion lowering.
    let mut units_of_traffic: Vec<Vec<usize>> = vec![Vec::new(); graph.traffic.len()];
    for (t, traffic) in graph.traffic.iter().enumerate() {
        let kind = cap_kind(&traffic.kind, opts.smoke);
        for &m in &traffic.models {
            let model = &graph.models[m];
            let builds = if opts.smoke {
                model.builds.min(2)
            } else {
                model.builds
            };
            for &network in &model.networks {
                // A fleet unit spans every device the model uses — one
                // router over the whole set, not a per-device cross
                // product.
                let device_sets: Vec<(DeviceDecl, Vec<DeviceDecl>)> =
                    if matches!(kind, TrafficKind::Fleet { .. }) {
                        let fleet: Vec<DeviceDecl> = model
                            .devices
                            .iter()
                            .map(|&d| graph.devices[d].clone())
                            .collect();
                        match fleet.first() {
                            Some(first) => vec![(first.clone(), fleet)],
                            None => Vec::new(),
                        }
                    } else {
                        model
                            .devices
                            .iter()
                            .map(|&d| (graph.devices[d].clone(), Vec::new()))
                            .collect()
                    };
                for (device, fleet_devices) in device_sets {
                    for &batch in &model.batches {
                        units_of_traffic[t].push(units.len());
                        units.push(PlanUnit {
                            traffic: traffic.name.clone(),
                            model: model.name.clone(),
                            network,
                            device: device.clone(),
                            fleet_devices: fleet_devices.clone(),
                            batch,
                            source: model.source,
                            builds,
                            host_glue_us: match model.host_glue {
                                HostGlue::Model => network.info().host_glue_us,
                                HostGlue::Fixed(us) => us,
                            },
                            kind: kind.clone(),
                        });
                    }
                }
            }
        }
    }
    let asserts = graph
        .asserts
        .iter()
        .map(|a| PlanAssert {
            name: a.name.clone(),
            metric: a.metric.clone(),
            min: a.min,
            max: a.max,
            units: a
                .traffic
                .iter()
                .flat_map(|&t| units_of_traffic[t].iter().copied())
                .collect(),
        })
        .collect();
    ExecutionPlan {
        name: graph.name.clone(),
        units,
        asserts,
    }
}
