//! `ingest`: `NetServerDaemon` (1 receiver, 1 dedup shard) on
//! loopback, fed Semtech `PUSH_DATA` datagrams by the benchmark.
//!
//! The uplinks are those of 512 devices (64 devices × 8 replicas, as
//! in the service soak) heard by 1 to 4 of 4 gateways each, 64 rxpks
//! per datagram, encoded once per run with the public codec. A pass is
//! `SESSIONS` sessions; each starts a fresh daemon and sends it the
//! whole datagram set (~250k uplink copies): replaying the same frames
//! into one daemon would turn later copies into `Late` decisions, which
//! is different work. One uplink copy sent is one operation.
//!
//! The sender keeps at most `WINDOW` datagrams un-acknowledged and
//! waits for the `PUSH_ACK` before sending more, so the daemon's
//! loopback socket buffer can never overflow. (`svc::loadgen` is not
//! used: its window gives up on an ACK after a 5 ms stall and never
//! takes the slot back, so on a busy 2-core host it overruns the
//! daemon's socket and datagrams are lost now and then; see
//! `README.md`.)
//!
//! A session's time runs from the start of its daemon until the daemon
//! has decided every copy; its CPU time is that of the daemon's own
//! threads (`svc-*`), which do the receive → parse → route → dedup →
//! decision-log work.

use crate::trace::Tracer;
use crate::{median, mix, probe, quantile, Pass, Workload};
use gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket};
use gateway::forwarder::fast::parse_push_data;
use lora_phy::channel::ChannelGrid;
use lora_phy::types::DataRate;
use netserver::dedup::DedupStats;
use std::net::UdpSocket;
use std::time::{Duration, Instant};
use svc::{render_decisions, replay_decisions, Decision, LatencyQuantiles};
use svc::{NetServerConfig, NetServerDaemon};

const DEVICES: u64 = 64 * 8;
const GATEWAYS: u64 = 4;
const BATCH: usize = 64;
/// Uplink frames per session; each is heard by 1–4 gateways.
const FRAMES: u64 = 100_000;
/// Frames start this far apart (µs of concentrator time).
const FRAME_STEP_US: u64 = 4;
const WINDOW: usize = 8;
const SESSIONS: usize = 8;
/// How long the sender waits for a `PUSH_ACK` before it declares the
/// daemon stuck.
const ACK_TIMEOUT: Duration = Duration::from_secs(2);

pub struct Ingest {
    /// One session's datagrams, token = index.
    datagrams: Vec<Vec<u8>>,
    /// (DevAddr, FCnt, tmst) of every rxpk, in datagram order.
    keys: Vec<(u32, u16, u64)>,
}

/// A 23-byte unconfirmed-uplink PHY payload for `dev`/`fcnt`.
fn phy_payload(dev: u32, fcnt: u16) -> Vec<u8> {
    let mut p = vec![0x40];
    p.extend_from_slice(&dev.to_le_bytes());
    p.push(0x00);
    p.extend_from_slice(&fcnt.to_le_bytes());
    p.push(1);
    p.extend_from_slice(&[0xA5; 10]);
    p.extend_from_slice(&[0x5A; 4]);
    p
}

/// Check a session's decisions: every copy sent decided exactly once
/// (nothing lost, nothing dropped from the log), the dedup counters
/// summing to what was sent, one `New` per distinct frame, and an
/// in-process replay of the logs reproducing the merged stream byte for
/// byte.
fn check_decisions(
    sent: u64,
    frames: u64,
    stats: &DedupStats,
    logs: &[Vec<Decision>],
    dropped: u64,
    window_us: u64,
) -> Result<(), String> {
    let decided: u64 = logs.iter().map(|l| l.len() as u64).sum();
    if decided != sent || dropped != 0 {
        return Err(format!(
            "{sent} sent, {decided} decided, {dropped} dropped from the log"
        ));
    }
    if stats.new + stats.duplicate + stats.late != sent || stats.new != frames {
        return Err(format!(
            "{sent} copies of {frames} frames sent but new {} + duplicate {} + late {}",
            stats.new, stats.duplicate, stats.late
        ));
    }
    // Rendered a slice at a time: the whole stream is tens of MB,
    // which would dominate the run's peak memory.
    let replayed = replay_decisions(logs, window_us);
    for (shard, (log, replay)) in logs.iter().zip(&replayed).enumerate() {
        let render = |slice: &[Decision]| {
            let mut shards = vec![Vec::new(); shard];
            shards.push(slice.to_vec());
            render_decisions(&shards)
        };
        for (a, b) in log.chunks(4096).zip(replay.chunks(4096)) {
            if render(a) != render(b) {
                return Err(format!(
                    "shard {shard}: replayed decision stream differs from the daemon's"
                ));
            }
        }
    }
    Ok(())
}

/// Send every datagram with at most `WINDOW` un-acknowledged; return
/// the `PUSH_ACK` round-trip times, µs.
fn send_windowed(datagrams: &[Vec<u8>], socket: &UdpSocket) -> Result<Vec<f64>, String> {
    let mut sent_at = vec![None::<Instant>; datagrams.len()];
    let mut rtt = Vec::with_capacity(datagrams.len());
    let mut in_flight = 0usize;
    let mut ack = [0u8; 64];
    let mut await_ack = |in_flight: &mut usize, sent_at: &mut [Option<Instant>]| {
        let len = socket
            .recv(&mut ack)
            .map_err(|e| format!("no PUSH_ACK within {ACK_TIMEOUT:?}: {e}"))?;
        if len == 4 && ack[3] == 0x01 {
            let token = u16::from_be_bytes([ack[1], ack[2]]) as usize;
            if let Some(t) = sent_at.get_mut(token).and_then(Option::take) {
                rtt.push(t.elapsed().as_secs_f64() * 1e6);
                *in_flight -= 1;
            }
        }
        Ok::<(), String>(())
    };
    for (i, d) in datagrams.iter().enumerate() {
        while in_flight >= WINDOW {
            await_ack(&mut in_flight, &mut sent_at)?;
        }
        sent_at[i] = Some(Instant::now());
        socket.send(d).map_err(|e| format!("send: {e}"))?;
        in_flight += 1;
    }
    while in_flight > 0 {
        await_ack(&mut in_flight, &mut sent_at)?;
    }
    Ok(rtt)
}

/// What one daemon session sent, cost and got wrong.
struct Session {
    sent: u64,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
    rtt: Vec<f64>,
    latency: LatencyQuantiles,
    errors: Vec<String>,
}

impl Ingest {
    /// Time `parse_push_data` over the session's datagrams, and check
    /// that it reads back what the codec wrote.
    fn time_parse(&self) -> Result<f64, String> {
        let mut out = Vec::with_capacity(self.keys.len());
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        for d in &self.datagrams {
            parse_push_data(std::hint::black_box(d), &mut out, &mut scratch)
                .map_err(|e| format!("fast parser rejected a codec datagram: {e}"))?;
        }
        let ns = t0.elapsed().as_nanos() as f64 / self.keys.len() as f64;
        if out.len() != self.keys.len() {
            return Err(format!(
                "fast parser read {} of {} rxpks",
                out.len(),
                self.keys.len()
            ));
        }
        for (rx, &(dev, fcnt, tmst)) in out.iter().zip(&self.keys) {
            if rx.dev_addr != Some(dev) || rx.fcnt != Some(fcnt) || rx.tmst != tmst {
                return Err(format!(
                    "fast parser read {rx:?} for dev {dev:08x} fcnt {fcnt}"
                ));
            }
        }
        Ok(ns)
    }

    /// One fresh daemon, the whole datagram set into it, and the checks.
    fn session(&self, id: u64, tr: &mut Tracer) -> Session {
        let cfg = NetServerConfig {
            shards: 1,
            receivers: 1,
            ..NetServerConfig::default()
        };
        // The session's time includes starting its daemon.
        let t0 = Instant::now();
        let daemon = tr
            .call("svc.start", id, || NetServerDaemon::start(cfg, None))
            .expect("bind loopback sockets");
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind loopback");
        socket.connect(daemon.addr()).expect("connect loopback");
        socket
            .set_read_timeout(Some(ACK_TIMEOUT))
            .expect("non-zero timeout");
        let sent = self.keys.len() as u64;
        let mut errors = Vec::new();

        let o = tr.begin("svc.ingest", id);
        let rtt = send_windowed(&self.datagrams, &socket).unwrap_or_else(|e| {
            errors.push(e);
            Vec::new()
        });
        // Every datagram is acknowledged; its copies may still be
        // queued for the shard.
        let deadline = Instant::now() + ACK_TIMEOUT;
        while daemon.dedup_stats().offered < sent && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        tr.end(o);

        let threads = probe::threads("svc-");
        let cpu = |prefix: &str| -> f64 {
            threads
                .iter()
                .filter(|t| t.name.starts_with(prefix))
                .map(|t| t.cpu_s)
                .sum()
        };
        let stats = daemon.dedup_stats();
        let latency = LatencyQuantiles::of(&daemon.ingest_latency());
        let dropped = daemon.decisions_dropped();
        let window_us = daemon.window_us();
        let logs = daemon.decisions();
        daemon.shutdown();

        let decided: u64 = logs.iter().map(|l| l.len() as u64).sum();
        if let Err(e) = check_decisions(sent, FRAMES, &stats, &logs, dropped, window_us) {
            errors.push(e);
        }
        tr.add("svc.rx_cpu_s", cpu("svc-ingest"));
        tr.add("svc.shard_cpu_s", cpu("svc-shard"));
        tr.add(
            "svc.ctx_switches",
            threads.iter().map(|t| t.voluntary_switches).sum::<u64>() as f64,
        );
        tr.add("netserver.dedup_new", stats.new as f64);
        tr.add("netserver.dedup_duplicate", stats.duplicate as f64);
        tr.add("netserver.dedup_late", stats.late as f64);

        let lost = sent.saturating_sub(decided);
        Session {
            sent,
            failed: match errors.len() {
                0 => 0,
                1 if lost > 0 => lost,
                _ => sent,
            },
            wall_s,
            cpu_s: cpu("svc-"),
            rtt,
            latency,
            errors,
        }
    }
}

impl Workload for Ingest {
    const SETUP_SHARE: f64 = 0.25;

    /// Frames in time order; frame `f` comes from device `f mod 512`
    /// with FCnt `f / 512` and is heard by 1–4 gateways (drawn from the
    /// seed). Each gateway's receptions go out in datagrams of 64, the
    /// datagrams of all gateways interleaved by first timestamp.
    fn setup(seed: u64, tr: &mut Tracer) -> Ingest {
        type Rx = (u32, u16, u64, usize, DataRate);
        let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
        let mut per_gw: Vec<Vec<Rx>> = (0..GATEWAYS).map(|_| Vec::new()).collect();
        for f in 0..FRAMES {
            let r = mix(seed, f);
            let dev = 0x0100_0000 + (f % DEVICES) as u32;
            let fcnt = (f / DEVICES) as u16;
            let heard_by = 1 + r % GATEWAYS;
            let first = (r >> 8) % GATEWAYS;
            let dr = DataRate::from_index(((r >> 16) % 6) as usize).expect("index below 6");
            for k in 0..heard_by {
                let gw = (first + k) % GATEWAYS;
                let tmst = 1_000_000_000 + f * FRAME_STEP_US + gw;
                per_gw[gw as usize].push((dev, fcnt, tmst, (f % 8) as usize, dr));
            }
        }
        let mut chunks: Vec<(u64, &[Rx])> = Vec::new();
        for (gw, rxs) in per_gw.iter().enumerate() {
            for c in rxs.chunks(BATCH) {
                chunks.push((gw as u64, c));
            }
        }
        chunks.sort_by_key(|(gw, c)| (c[0].2, *gw));
        assert!(
            chunks.len() <= usize::from(u16::MAX),
            "tokens are unique per session"
        );

        let mut keys = Vec::new();
        let datagrams = tr.call("gateway.encode", 0, || {
            chunks
                .iter()
                .enumerate()
                .map(|(i, (gw, c))| {
                    let rxpk = c
                        .iter()
                        .map(|&(dev, fcnt, tmst, ch, dr)| {
                            keys.push((dev, fcnt, tmst));
                            RxPacket::new(
                                tmst,
                                channels[ch],
                                dr.spreading_factor(),
                                -90.0 - (tmst % 30) as f64,
                                -2.0 - (tmst % 16) as f64,
                                &phy_payload(dev, fcnt),
                            )
                            .with_trace(tmst)
                        })
                        .collect();
                    Datagram::PushData {
                        token: i as u16,
                        eui: GatewayEui(0x00AA_0000_0000_0000 + gw),
                        rxpk,
                    }
                    .encode()
                })
                .collect()
        });
        Ingest { datagrams, keys }
    }

    fn precheck(&mut self) -> (u64, u64) {
        (0, 0)
    }

    fn pass(&mut self, index: u64, tr: &mut Tracer) -> Pass {
        let mut pass = Pass {
            wall_s: 0.0,
            cpu_s: 0.0,
            attempted: 0,
            failed: 0,
        };
        let (mut rtt, mut latency) = (Vec::new(), Vec::new());
        for session in 0..SESSIONS {
            let s = self.session(index * SESSIONS as u64 + session as u64, tr);
            tr.ref_lap(s.wall_s, s.cpu_s);
            for e in &s.errors {
                eprintln!("ingest: pass {index} session {session}: {e}");
            }
            pass.wall_s += s.wall_s;
            pass.cpu_s += s.cpu_s;
            pass.attempted += s.sent;
            pass.failed += s.failed;
            rtt.extend(s.rtt);
            latency.push(s.latency);
        }
        if tr.recording {
            match self.time_parse() {
                Ok(ns) => tr.set("gateway.parse_ns_per_pkt", ns),
                Err(e) => {
                    eprintln!("ingest: pass {index}: {e}");
                    pass.failed = pass.attempted;
                }
            }
        }
        let lat = |f: fn(&LatencyQuantiles) -> u64| {
            median(&latency.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
        };
        tr.set("svc.wall_pps", pass.attempted as f64 / pass.wall_s);
        tr.set("svc.ack_rtt_p50_us", median(&rtt));
        tr.set("svc.ack_rtt_p99_us", quantile(&rtt, 0.99));
        tr.set("svc.ingest_latency_p50_us", lat(|x| x.p50));
        tr.set("svc.ingest_latency_p99_us", lat(|x| x.p99));
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netserver::dedup::DedupOutcome;

    fn logs() -> (Vec<Vec<Decision>>, DedupStats) {
        let mut log = Vec::new();
        for dev in 0..20u32 {
            for gw in 0..3u16 {
                log.push(Decision {
                    dev,
                    fcnt: 7,
                    gw,
                    t_us: 1_000 + dev as u64 * 10 + gw as u64,
                    outcome: if gw == 0 {
                        DedupOutcome::New
                    } else {
                        DedupOutcome::Duplicate
                    },
                });
            }
        }
        let stats = DedupStats {
            offered: 60,
            new: 20,
            duplicate: 40,
            late: 0,
        };
        (vec![log], stats)
    }

    #[test]
    fn consistent_decisions_pass() {
        let (logs, stats) = logs();
        assert_eq!(check_decisions(60, 20, &stats, &logs, 0, 2_000_000), Ok(()));
    }

    #[test]
    fn a_withheld_datagram_is_caught() {
        let (mut logs, stats) = logs();
        logs[0].pop();
        let err = check_decisions(60, 20, &stats, &logs, 0, 2_000_000).unwrap_err();
        assert!(err.contains("59 decided"), "{err}");
    }

    #[test]
    fn counters_that_do_not_sum_are_caught() {
        let (logs, mut stats) = logs();
        stats.duplicate -= 1;
        stats.late += 2;
        assert!(check_decisions(60, 20, &stats, &logs, 0, 2_000_000).is_err());
        let (logs, stats) = self::logs();
        assert!(check_decisions(60, 21, &stats, &logs, 0, 2_000_000).is_err());
    }

    #[test]
    fn a_wrong_outcome_fails_the_replay() {
        let (mut logs, stats) = logs();
        logs[0][4].outcome = DedupOutcome::New;
        logs[0][3].outcome = DedupOutcome::Duplicate;
        let err = check_decisions(60, 20, &stats, &logs, 0, 2_000_000).unwrap_err();
        assert!(err.contains("replayed"), "{err}");
    }

    #[test]
    fn one_session_into_a_live_daemon_is_lossless_and_exact() {
        let ingest = Ingest::setup(3, &mut Tracer::new());
        assert!(ingest.time_parse().unwrap() > 0.0);
        let s = ingest.session(0, &mut Tracer::new());
        assert!(s.errors.is_empty(), "{:?}", s.errors);
        assert_eq!(s.rtt.len(), ingest.datagrams.len());
    }
}
