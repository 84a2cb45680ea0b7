//! `city_stream`: three coexisting operators, 1M devices in total and
//! 63 gateways (21 each), every gateway listening on one 8-channel
//! sub-band block of a 64-channel band. Devices send sparse metering
//! traffic (duty 2·10⁻⁵: one uplink every ~50 min at DR5 to ~20 h at
//! DR0) for one simulated hour, streamed from `DutyCycleStream` into
//! `run_streamed` in accumulator mode.
//!
//! Set-up builds the topology and world (the 1M × 63 link tables). A
//! pass builds the traffic stream and runs it; one transmission is one
//! operation.

use crate::checks;
use crate::trace::Tracer;
use crate::{mix, probe, Pass, Workload};
use bench::scenario::{NetworkSpec, WorldBuilder, PAYLOAD_LEN};
use lora_phy::channel::{Channel, ChannelGrid};
use lora_phy::types::DataRate;
use sim::traffic::{ChunkSource, DutyCycleStream, TxPlan};
use sim::{RunSummary, ShardOpts, SimWorld};
use std::sync::OnceLock;

const NODES: usize = 1_000_000;
const OPERATORS: usize = 3;
const GWS_PER_OPERATOR: usize = 21;
const DUTY: f64 = 2e-5;
const HORIZON_US: u64 = 3_600_000_000;
/// Simulated time per traffic chunk.
const CHUNK_US: u64 = 10_000_000;
/// Reduced city for the one-time engine checks: denser and shorter, so
/// that transmissions contend, and small enough for the reference loop.
const REDUCED_NODES: usize = 9_000;
const REDUCED_DUTY: f64 = 1e-3;
const REDUCED_HORIZON_US: u64 = 600_000_000;
/// The documented accumulator gate against the reference loop
/// (per-network PDR gap, loss-distribution TV distance).
const ACCUM_GATE: (f64, f64) = (0.02, 0.02);

pub struct CityStream {
    world: SimWorld,
    node_network: Vec<u32>,
    assigns: Vec<(usize, Channel, DataRate)>,
    traffic_seed: u64,
    /// Analytic expectation of the transmission count.
    expected_txs: f64,
    seed: u64,
}

/// The run's first pass's summary. It outlives the inputs, which are
/// re-built during the run: every later pass, on any build, must
/// reproduce it.
static FIRST: OnceLock<RunSummary> = OnceLock::new();

/// The 64-channel band: 8 sub-band blocks of 8 channels.
fn band() -> Vec<Channel> {
    ChannelGrid::standard(902_300_000, 12_800_000).channels()
}

fn build_world(nodes: usize, seed: u64) -> SimWorld {
    let chans = band();
    let mut b = WorldBuilder::testbed(seed);
    b.area_m = (2_000.0, 1_500.0);
    b.max_link_loss_db = 126.0;
    for op in 0..OPERATORS {
        let n_nodes = nodes / OPERATORS + usize::from(op < nodes % OPERATORS);
        // Operators start their gateways on different blocks, so every
        // block is shared by gateways of more than one operator.
        let gw_channels = (0..GWS_PER_OPERATOR)
            .map(|g| {
                let block = (g + 3 * op) % 8;
                chans[block * 8..block * 8 + 8].to_vec()
            })
            .collect();
        b = b.network(NetworkSpec {
            network_id: op as u32 + 1,
            n_nodes,
            gw_channels,
        });
    }
    b.build_with_sink(None)
}

/// A uniform channel of the band and a uniform data rate per device.
fn assignments(nodes: usize, seed: u64) -> Vec<(usize, Channel, DataRate)> {
    let chans = band();
    (0..nodes)
        .map(|i| {
            let r = mix(seed, i as u64);
            let dr = DataRate::from_index(((r >> 32) % 6) as usize).expect("index below 6");
            (i, chans[(r % 64) as usize], dr)
        })
        .collect()
}

fn stream(
    assigns: &[(usize, Channel, DataRate)],
    duty: f64,
    horizon_us: u64,
    seed: u64,
) -> DutyCycleStream {
    DutyCycleStream::new(assigns, PAYLOAD_LEN, duty, horizon_us, seed, CHUNK_US)
}

/// Hands the engine the plans of `inner` and counts them, in total and
/// per network.
struct Counting<'a> {
    inner: DutyCycleStream,
    node_network: &'a [u32],
    per_network: [u64; OPERATORS + 1],
    total: u64,
}

impl ChunkSource for Counting<'_> {
    fn channels(&self) -> &[Channel] {
        self.inner.channels()
    }

    fn next_chunk(&mut self, out: &mut Vec<TxPlan>) -> Option<u64> {
        let frontier = self.inner.next_chunk(out);
        for p in out.iter() {
            self.per_network[self.node_network[p.node] as usize] += 1;
        }
        self.total += out.len() as u64;
        frontier
    }
}

/// The streamed run's summary accounts for exactly the plans `src`
/// handed the engine, per network and in total.
fn check_accounting(src: &Counting, run: &sim::StreamedRun) -> Result<(), String> {
    let t = &run.summary.total;
    if run.stats.txs != src.total || t.sent != src.total || run.stats.events != 3 * src.total {
        return Err(format!(
            "{} plans handed over; engine counted {} txs, {} events, summary {} sent",
            src.total, run.stats.txs, run.stats.events, t.sent
        ));
    }
    if t.delivered + t.losses.total() != t.sent {
        return Err(format!(
            "{} sent = {} delivered + {} lost does not close",
            t.sent,
            t.delivered,
            t.losses.total()
        ));
    }
    let (mut sent, mut delivered, mut lost) = (0, 0, 0);
    for (net, s) in &run.summary.per_network {
        let handed = src.per_network.get(*net as usize).copied().unwrap_or(0);
        if s.sent != handed {
            return Err(format!(
                "network {net}: {handed} plans handed over, {} summarised",
                s.sent
            ));
        }
        sent += s.sent;
        delivered += s.delivered;
        lost += s.losses.total();
    }
    if (sent, delivered, lost) != (t.sent, t.delivered, t.losses.total()) {
        return Err(format!(
            "per-network sums ({sent}, {delivered}, {lost}) differ from the total ({}, {}, {})",
            t.sent,
            t.delivered,
            t.losses.total()
        ));
    }
    Ok(())
}

/// Analytic transmission count of a `DutyCycleStream` over `assigns`.
fn expected_txs(assigns: &[(usize, Channel, DataRate)], duty: f64, horizon_us: u64) -> f64 {
    assigns
        .iter()
        .map(|&(_, _, dr)| {
            let air = checks::airtime_us(dr.spreading_factor().value(), PAYLOAD_LEN);
            checks::expected_arrivals(horizon_us as f64, air as f64 / duty)
        })
        .sum()
}

impl Workload for CityStream {
    const SETUP_SHARE: f64 = 0.3;

    fn setup(seed: u64, tr: &mut Tracer) -> CityStream {
        let world = tr.call("bench.build", 0, || build_world(NODES, mix(seed, 1)));
        tr.set("sim.topology_s", tr.sample_get("bench.build_s"));
        tr.set("sim.topology_rss_mb", probe::rss_mb());
        let assigns = assignments(NODES, mix(seed, 2));
        CityStream {
            node_network: world.node_network.clone(),
            expected_txs: expected_txs(&assigns, DUTY, HORIZON_US),
            world,
            assigns,
            traffic_seed: mix(seed, 3),
            seed,
        }
    }

    /// On a reduced city: identical summaries at 1 and 2 shards, and
    /// agreement with the reference loop within the accumulator gate.
    fn precheck(&mut self) -> (u64, u64) {
        let mut w = build_world(REDUCED_NODES, mix(self.seed, 4));
        let assigns = assignments(REDUCED_NODES, mix(self.seed, 5));
        let seed = mix(self.seed, 6);
        let reduced = || stream(&assigns, REDUCED_DUTY, REDUCED_HORIZON_US, seed);
        let mut runs = Vec::new();
        for shards in [1, 2] {
            let mut opts = ShardOpts::from_env();
            opts.max_shards = shards;
            w.reset();
            runs.push(w.run_streamed(&mut reduced(), &opts));
        }
        let plans = sim::collect_chunks(&mut reduced());
        w.reset();
        let records = sim::reference::run_with_faults_reference(&mut w, &plans, &sim::NoFaults);
        let reference = RunSummary::from_records(&records);
        let mut errors = Vec::new();
        if runs[0].summary != runs[1].summary {
            errors.push("1-shard and 2-shard summaries differ".to_string());
        }
        if runs[0].stats.accum_updates == 0 {
            errors.push("the streamed run did not use the accumulators".to_string());
        }
        if let Err(e) =
            runs[1]
                .summary
                .statistically_equivalent(&reference, ACCUM_GATE.0, ACCUM_GATE.1)
        {
            errors.push(format!("against sim::reference: {e}"));
        }
        for e in &errors {
            eprintln!("city_stream: reduced city: {e}");
        }
        let n = plans.len() as u64;
        (n, if errors.is_empty() { 0 } else { n })
    }

    fn pass(&mut self, index: u64, tr: &mut Tracer) -> Pass {
        let CityStream {
            world,
            node_network,
            assigns,
            traffic_seed,
            ..
        } = self;
        let inner = tr.call("sim.traffic", index, || {
            stream(assigns, DUTY, HORIZON_US, *traffic_seed)
        });
        let mut src = Counting {
            inner,
            node_network,
            per_network: [0; OPERATORS + 1],
            total: 0,
        };
        let run = tr.call("sim.stream", index, || {
            world.reset();
            world.run_streamed(&mut src, &ShardOpts::from_env())
        });

        let mut errors = Vec::new();
        if let Err(e) = check_accounting(&src, &run) {
            errors.push(e);
        }
        if !checks::within_poisson_band(src.total, self.expected_txs, 6.0) {
            errors.push(format!(
                "{} transmissions, outside 6σ of the analytic {:.0}",
                src.total, self.expected_txs
            ));
        }
        match FIRST.get() {
            None => {
                eprintln!(
                    "city_stream: {} transmissions (analytic {:.0}), PDR {:.4}",
                    src.total,
                    self.expected_txs,
                    run.summary.total.pdr()
                );
                FIRST.get_or_init(|| run.summary.clone());
            }
            Some(first) if *first != run.summary => {
                errors.push("summary differs from the first pass's".to_string())
            }
            Some(_) => {}
        }
        for e in &errors {
            eprintln!("city_stream: pass {index}: {e}");
        }

        let stream_s = tr.sample_get("sim.stream_s");
        let walls: Vec<f64> = run
            .shard_stats
            .iter()
            .map(|s| s.wall_us as f64 / 1e6)
            .collect();
        let wall_max = walls.iter().copied().fold(0.0, f64::max);
        let wall_mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
        tr.set("sim.stream_events", run.stats.events as f64);
        tr.set(
            "sim.stream_events_per_s",
            run.stats.events as f64 / stream_s,
        );
        tr.set(
            "sim.stream_peak_live",
            run.shard_stats.iter().map(|s| s.peak_live).sum::<u64>() as f64,
        );
        tr.set("sim.stream_shard_wall_max_s", wall_max);
        tr.set("sim.stream_shard_imbalance", wall_max / wall_mean);
        tr.set("sim.accum_updates", run.stats.accum_updates as f64);
        tr.set("sim.wheel_cascades", run.stats.wheel_cascades as f64);

        let (wall_s, cpu_s) = tr.busy();
        tr.ref_lap(wall_s, cpu_s);
        Pass {
            wall_s,
            cpu_s,
            attempted: src.total,
            failed: if errors.is_empty() { 0 } else { src.total },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_city() -> (SimWorld, Vec<(usize, Channel, DataRate)>) {
        (build_world(3_000, 1), assignments(3_000, 2))
    }

    #[test]
    fn accounting_holds_and_a_withheld_plan_is_caught() {
        let (mut w, assigns) = small_city();
        let nets = w.node_network.clone();
        let mut src = Counting {
            inner: stream(&assigns, 1e-3, 300_000_000, 3),
            node_network: &nets,
            per_network: [0; OPERATORS + 1],
            total: 0,
        };
        let run = w.run_streamed(&mut src, &ShardOpts::from_env());
        assert!(src.total > 100);
        assert_eq!(check_accounting(&src, &run), Ok(()));
        // One plan the engine never saw.
        src.total += 1;
        src.per_network[1] += 1;
        assert!(check_accounting(&src, &run).is_err());
        src.total -= 1;
        assert!(check_accounting(&src, &run)
            .unwrap_err()
            .contains("network 1"));
    }

    #[test]
    fn transmission_count_is_in_the_analytic_band() {
        let (_, assigns) = small_city();
        let n = sim::collect_chunks(&mut stream(&assigns, 1e-3, 300_000_000, 3)).len() as u64;
        let e = expected_txs(&assigns, 1e-3, 300_000_000);
        assert!(checks::within_poisson_band(n, e, 6.0), "{n} vs {e}");
        // An expectation 20% off is far outside: the band has teeth.
        assert!(!checks::within_poisson_band(n, e * 0.8, 6.0));
    }
}
