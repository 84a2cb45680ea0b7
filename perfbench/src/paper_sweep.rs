//! `paper_sweep`: the Fig 13 cells — one operator, 15 gateways,
//! 4.8 MHz, 2k–12k users — once with standard LoRaWAN and once with
//! AlphaWAN, all on the exact engine (`SimWorld::run`).
//!
//! * LoRaWAN cell: standard gateway channel plans, ADR data rates,
//!   group transmit-power control, Poisson traffic at 1% duty over 60 s.
//! * AlphaWAN cell: GA plan (`plan_observed`) → `deploy_plan` → group
//!   transmit-power control → `coordinated_schedule` at 1% duty.
//!
//! Set-up builds the twelve worlds. A pass runs every cell; one cell is
//! one operation.

use crate::checks;
use crate::trace::Tracer;
use crate::{mix, Pass, Workload};
use alphawan::{GaConfig, IntraNetworkPlanner};
use baselines::standard::{standard_assignments, standard_gateway_configs};
use bench::experiments::{band_channels, deploy_plan, duty_workload, quick_ga, BAND_LOW_HZ};
use bench::scenario::{
    adr_data_rate, apply_group_tpc, coordinated_schedule, subtopology, NetworkSpec, WorldBuilder,
    PAYLOAD_LEN,
};
use lora_phy::channel::Channel;
use lora_phy::types::{DataRate, TxPowerDbm};
use sim::metrics::RunMetrics;
use sim::traffic::TxPlan;
use sim::world::{PacketRecord, SimWorld};

const GWS: usize = 15;
const SPECTRUM_HZ: u32 = 4_800_000;
const HORIZON_US: u64 = 60_000_000;
const DUTY: f64 = 0.01;
const SCALES: [usize; 6] = [2_000, 4_000, 6_000, 8_000, 10_000, 12_000];
/// From this scale on, AlphaWAN's PRR must be at least LoRaWAN's
/// (the Fig 13b claim).
const CLAIM_FROM_USERS: usize = 6_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stack {
    LoRaWan,
    AlphaWan,
}

struct Cell {
    users: usize,
    stack: Stack,
    seed: u64,
    world: SimWorld,
}

pub struct PaperSweep {
    cells: Vec<Cell>,
    channels: Vec<Channel>,
}

/// What one cell produced, and the first check it failed.
struct CellOut {
    plans: Vec<TxPlan>,
    records: Vec<PacketRecord>,
    prr: f64,
    error: Option<String>,
}

impl Workload for PaperSweep {
    const SETUP_SHARE: f64 = 0.2;

    fn setup(seed: u64, tr: &mut Tracer) -> PaperSweep {
        let channels = band_channels(SPECTRUM_HZ);
        let mut cells = Vec::new();
        for &users in &SCALES {
            for stack in [Stack::LoRaWan, Stack::AlphaWan] {
                let id = cells.len() as u64;
                let cell_seed = mix(seed, id);
                let gw_channels = match stack {
                    Stack::LoRaWan => standard_gateway_configs(BAND_LOW_HZ, SPECTRUM_HZ, GWS),
                    // Replaced by the plan at the start of every pass.
                    Stack::AlphaWan => vec![channels[..8].to_vec(); GWS],
                };
                let mut b = WorldBuilder::testbed(cell_seed).network(NetworkSpec {
                    network_id: 1,
                    n_nodes: users,
                    gw_channels,
                });
                // Every link closes at every gateway: the decoder cap,
                // not range, is what binds (the paper's Fig 13 regime).
                b.max_link_loss_db = 124.0;
                let world = tr.call("bench.build", id, || b.build_with_sink(None));
                cells.push(Cell {
                    users,
                    stack,
                    seed: cell_seed,
                    world,
                });
            }
        }
        PaperSweep { cells, channels }
    }

    /// The smallest scale's records, both stacks, against the
    /// pre-indexing reference loop.
    fn precheck(&mut self) -> (u64, u64) {
        let mut scratch = Tracer::new();
        let mut failed = 0;
        let smallest: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].users == SCALES[0])
            .collect();
        for &i in &smallest {
            let out = run_cell(&mut self.cells[i], &self.channels, i as u64, &mut scratch);
            let w = &mut self.cells[i].world;
            w.reset();
            let reference =
                sim::reference::run_with_faults_reference(w, &out.plans, &sim::NoFaults);
            if out.error.is_some() || reference != out.records {
                eprintln!(
                    "paper_sweep: cell {i} differs from sim::reference ({:?})",
                    out.error
                );
                failed += 1;
            }
        }
        (smallest.len() as u64, failed)
    }

    fn pass(&mut self, _index: u64, tr: &mut Tracer) -> Pass {
        let mut outs = Vec::with_capacity(self.cells.len());
        for i in 0..self.cells.len() {
            let (wall0, cpu0) = tr.busy();
            let g = tr.begin_group("cell", i as u64);
            let out = run_cell(&mut self.cells[i], &self.channels, i as u64, tr);
            tr.end(g);
            let (wall1, cpu1) = tr.busy();
            tr.ref_lap(wall1 - wall0, cpu1 - cpu0);
            outs.push(out);
        }
        let mut failed: Vec<bool> = outs.iter().map(|o| o.error.is_some()).collect();
        for (i, o) in outs.iter().enumerate() {
            if let Some(e) = &o.error {
                eprintln!("paper_sweep: cell {i}: {e}");
            }
        }
        // Fig 13b: AlphaWAN delivers at least LoRaWAN's share at scale.
        for i in (0..self.cells.len()).step_by(2) {
            let (lora, alpha) = (&outs[i], &outs[i + 1]);
            if self.cells[i].users >= CLAIM_FROM_USERS && alpha.prr < lora.prr {
                eprintln!(
                    "paper_sweep: {} users: AlphaWAN PRR {:.4} < LoRaWAN {:.4}",
                    self.cells[i].users, alpha.prr, lora.prr
                );
                failed[i] = true;
                failed[i + 1] = true;
            }
        }
        let s = tr.sample_get("alphawan.plan_s");
        let evals = tr.sample_get("alphawan.evals");
        if evals > 0.0 {
            tr.set("alphawan.eval_ns", s * 1e9 / evals);
        }
        let txs = tr.sample_get("sim.run_txs");
        if txs > 0.0 {
            tr.set("sim.run_ns_per_tx", tr.sample_get("sim.run_s") * 1e9 / txs);
        }
        let (wall_s, cpu_s) = tr.busy();
        Pass {
            wall_s,
            cpu_s,
            attempted: self.cells.len() as u64,
            failed: failed.iter().filter(|&&f| f).count() as u64,
        }
    }
}

/// Run one cell's pipeline, timed call by call, then check its output.
fn run_cell(cell: &mut Cell, channels: &[Channel], id: u64, tr: &mut Tracer) -> CellOut {
    let users = cell.users;
    let ids: Vec<usize> = (0..users).collect();
    let w = &mut cell.world;
    let mut error = None;
    let assigns: Vec<(usize, Channel, DataRate)> = match cell.stack {
        Stack::LoRaWan => {
            let mut covered: Vec<Channel> = w
                .gateways
                .iter()
                .flat_map(|g| g.config().channels().to_vec())
                .collect();
            covered.sort_by_key(|c| c.center_hz);
            covered.dedup();
            let topo = &w.topo;
            let adr = |i: usize| adr_data_rate(topo, i, TxPowerDbm(14.0));
            tr.call("baselines.assign", id, || {
                standard_assignments(&ids, &covered, Some(&adr), mix(cell.seed, 3))
            })
        }
        Stack::AlphaWan => {
            let gw_ids: Vec<usize> = (0..GWS).collect();
            let mut planner = IntraNetworkPlanner::new(channels.to_vec(), GWS);
            planner.ga = GaConfig {
                seed: mix(cell.seed, 1),
                ..quick_ga(users)
            };
            let mut sink = obs::VecSink::new();
            let (sub, outcome) = tr.call("alphawan.plan", id, || {
                let sub = subtopology(&w.topo, &ids, &gw_ids);
                let outcome = planner.plan_observed(&sub, vec![1.0; users], &mut sink, 0);
                (sub, outcome)
            });
            tr.add("alphawan.plans", 1.0);
            for e in sink.events() {
                if let obs::ObsEvent::SolverRun { evaluations, .. } = e {
                    tr.add("alphawan.evals", *evaluations as f64);
                }
            }
            let objective = planner
                .problem(&sub, vec![1.0; users])
                .objective(&outcome.solution);
            if objective != outcome.objective {
                error = Some(format!(
                    "GA reports objective {} but CpProblem::objective of its solution is {objective}",
                    outcome.objective
                ));
            }
            tr.call("alphawan.deploy", id, || {
                deploy_plan(w, &outcome, &ids, &gw_ids)
            })
        }
    };
    tr.call("bench.tpc", id, || apply_group_tpc(w, &assigns));
    let plans = tr.call("sim.traffic", id, || match cell.stack {
        Stack::LoRaWan => duty_workload(&assigns, HORIZON_US, mix(cell.seed, 2)),
        Stack::AlphaWan => coordinated_schedule(&assigns, DUTY, HORIZON_US, PAYLOAD_LEN),
    });
    let records = tr.call("sim.run", id, || {
        w.reset();
        w.run(&plans)
    });
    tr.add("sim.run_txs", plans.len() as f64);
    let m = tr.call("sim.metrics", id, || {
        RunMetrics::from_records(&records, None)
    });
    if let Err(e) = checks::exact_run(&plans, &records, &w.gateways, &m, checks::airtime_us) {
        error.get_or_insert(e);
    }
    CellOut {
        prr: m.prr(),
        plans,
        records,
        error,
    }
}
