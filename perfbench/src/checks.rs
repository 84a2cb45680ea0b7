//! Checks made on the program's outputs, against computations made
//! here, apart from the program, or properties its method must have.

use gateway::radio::Gateway;
use sim::metrics::RunMetrics;
use sim::traffic::TxPlan;
use sim::world::PacketRecord;

/// LoRa symbol time at 125 kHz, µs: `2^SF / BW`.
pub fn symbol_us(sf: u32) -> u64 {
    8 << sf
}

/// Time on air of a LoRaWAN uplink at 125 kHz, µs, from the Semtech
/// modem equation: CR 4/5, 8 programmed preamble symbols (+4.25 sync),
/// explicit header, CRC on, low-data-rate optimisation at SF11/12. At
/// 125 kHz every term is a whole number of microseconds.
pub fn airtime_us(sf: u32, payload_len: usize) -> u64 {
    let de = i64::from(sf >= 11);
    let sf_i = i64::from(sf);
    let numer = 8 * payload_len as i64 - 4 * sf_i + 28 + 16;
    let denom = 4 * (sf_i - 2 * de);
    let blocks = if numer > 0 {
        (numer + denom - 1) / denom
    } else {
        0
    };
    let payload_symbols = 8 + blocks as u64 * 5;
    // (8 + 4.25) symbols = 98 · 2^SF µs.
    (98 << sf) + payload_symbols * symbol_us(sf)
}

/// Check one exact-engine run: a record per plan, each record's time on
/// air equal to `airtime(sf, len)`, every receiving gateway listening
/// on the record's channel, and the delivered/loss accounting closed
/// both over the records and in `m`. Returns the first violation.
pub fn exact_run(
    plans: &[TxPlan],
    records: &[PacketRecord],
    gateways: &[Gateway],
    m: &RunMetrics,
    airtime: impl Fn(u32, usize) -> u64,
) -> Result<(), String> {
    if records.len() != plans.len() {
        return Err(format!(
            "{} records for {} plans",
            records.len(),
            plans.len()
        ));
    }
    let (mut delivered, mut lost) = (0u64, 0u64);
    for r in records {
        let sf = r.dr.spreading_factor().value();
        let expect = airtime(sf, r.payload_len);
        if r.end_us - r.start_us != expect {
            return Err(format!(
                "tx {}: {} µs on air at SF{sf}, the Semtech equation gives {expect}",
                r.tx_id,
                r.end_us - r.start_us
            ));
        }
        for &g in &r.receiving_gateways {
            if !gateways[g].config().channels().contains(&r.channel) {
                return Err(format!(
                    "tx {}: gateway {g} received on {} Hz, which it does not listen on",
                    r.tx_id, r.channel.center_hz
                ));
            }
        }
        match (r.delivered, r.cause) {
            (true, None) => delivered += 1,
            (false, Some(_)) => lost += 1,
            _ => {
                return Err(format!(
                    "tx {}: delivered {} with cause {:?}",
                    r.tx_id, r.delivered, r.cause
                ))
            }
        }
    }
    let sent = records.len() as u64;
    if delivered + lost != sent
        || m.sent != sent
        || m.delivered != delivered
        || m.delivered + m.losses.total() != m.sent
    {
        return Err(format!(
            "accounting: records {sent} sent = {delivered} delivered + {lost} lost; \
             summary {} sent = {} delivered + {} lost",
            m.sent,
            m.delivered,
            m.losses.total()
        ));
    }
    Ok(())
}

/// Expected transmissions of one `DutyCycleStream` node over
/// `horizon` when its mean gap is `gap`: the first arrival is uniform
/// in `(0, gap]`, later ones follow at exponential gaps of mean `gap`.
/// `E[N] = P(t0 < H) + E[(H − t0)⁺] / gap`.
pub fn expected_arrivals(horizon: f64, gap: f64) -> f64 {
    if horizon >= gap {
        horizon / gap + 0.5
    } else {
        horizon / gap + horizon * horizon / (2.0 * gap * gap)
    }
}

/// Whether `count` lies within `sigmas` standard deviations of a
/// count with mean `expected`. The count is a sum of independent
/// per-node counts, each no more dispersed than a Poisson count of the
/// same mean, so `√expected` bounds its standard deviation.
pub fn within_poisson_band(count: u64, expected: f64, sigmas: f64) -> bool {
    (count as f64 - expected).abs() <= sigmas * expected.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::scenario::{NetworkSpec, WorldBuilder};
    use lora_phy::airtime::PacketParams;
    use lora_phy::channel::ChannelGrid;
    use lora_phy::types::{Bandwidth, DataRate, SpreadingFactor};

    #[test]
    fn airtime_matches_semtech_calculator() {
        // Semtech calculator, 23-byte payload: SF7 61.696 ms, SF12 1482.752 ms.
        assert_eq!(airtime_us(7, 23), 61_696);
        assert_eq!(airtime_us(12, 23), 1_482_752);
        for sf in SpreadingFactor::ALL {
            for len in [1, 13, 23, 51, 222] {
                let program = PacketParams::lorawan_uplink(sf, Bandwidth::Khz125, len)
                    .airtime()
                    .total_us();
                assert_eq!(airtime_us(sf.value(), len), program);
            }
        }
    }

    fn small_run() -> (Vec<TxPlan>, Vec<PacketRecord>, Vec<Gateway>, RunMetrics) {
        let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
        let mut w = WorldBuilder::testbed(5)
            .network(NetworkSpec {
                network_id: 1,
                n_nodes: 60,
                gw_channels: vec![channels.clone(); 2],
            })
            .build_with_sink(None);
        let assigns: Vec<_> = (0..60)
            .map(|i| (i, channels[i % 8], DataRate::from_index(i % 6).unwrap()))
            .collect();
        let plans = sim::traffic::duty_cycled(&assigns, 23, 0.05, 20_000_000, 9);
        let records = w.run(&plans);
        let m = RunMetrics::from_records(&records, None);
        (plans, records, w.gateways.clone(), m)
    }

    #[test]
    fn exact_run_accepts_the_program_output() {
        let (plans, records, gws, m) = small_run();
        assert!(records.iter().any(|r| r.delivered));
        assert_eq!(exact_run(&plans, &records, &gws, &m, airtime_us), Ok(()));
    }

    #[test]
    fn airtime_one_symbol_off_fails() {
        let (plans, records, gws, m) = small_run();
        let off =
            |sf: u32, len: usize| airtime_us(sf, len) + if sf == 9 { symbol_us(9) } else { 0 };
        let err = exact_run(&plans, &records, &gws, &m, off).unwrap_err();
        assert!(err.contains("SF9"), "{err}");
    }

    #[test]
    fn gateway_off_channel_fails() {
        let (plans, mut records, gws, m) = small_run();
        let r = records
            .iter_mut()
            .find(|r| !r.receiving_gateways.is_empty())
            .unwrap();
        r.channel = lora_phy::channel::Channel::khz125(903_900_000);
        let err = exact_run(&plans, &records, &gws, &m, airtime_us).unwrap_err();
        assert!(err.contains("does not listen"), "{err}");
    }

    #[test]
    fn unaccounted_loss_fails() {
        let (plans, records, gws, mut m) = small_run();
        m.delivered -= 1;
        let err = exact_run(&plans, &records, &gws, &m, airtime_us).unwrap_err();
        assert!(err.contains("accounting"), "{err}");
    }

    #[test]
    fn arrival_expectation_matches_a_long_simulation() {
        // Mean count over many nodes against the closed form, for a gap
        // both shorter and longer than the horizon.
        for gap_s in [600.0, 20_000.0] {
            let assigns: Vec<_> = (0..20_000)
                .map(|i| {
                    (
                        i,
                        ChannelGrid::standard(902_300_000, 1_600_000).channels()[0],
                        DataRate::DR5,
                    )
                })
                .collect();
            let air = airtime_us(7, 23) as f64;
            let duty = air / (gap_s * 1e6);
            let mut s = sim::traffic::DutyCycleStream::new(
                &assigns,
                23,
                duty,
                3_600_000_000,
                11,
                60_000_000,
            );
            let n = sim::traffic::collect_chunks(&mut s).len() as u64;
            let e = 20_000.0 * expected_arrivals(3_600e6, air / duty);
            assert!(within_poisson_band(n, e, 6.0), "gap {gap_s}: {n} vs {e}");
            assert!(!within_poisson_band(n, e * 1.25, 6.0));
        }
    }
}
