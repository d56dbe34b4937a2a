// The slot-stepped reference MAC simulator, the test oracle the
// event-driven `aqua_mac::netsim::simulate` is pinned against. It is shared
// by the `ocean::event` unit tests (via `include!`) and
// `tests/ocean_equivalence.rs` (via `#[path]`); each wraps it in a
// `slot_oracle` module whose parent imports `MacConfig`, `MacResult` and
// `collision_stats`. Plain comments only: `include!` rejects inner docs.

use super::{collision_stats, MacConfig, MacResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
enum NodeState {
    /// Waiting until this slot index before next action.
    WaitingUntil(usize),
    /// In carrier-sense backoff with this many slots remaining.
    Backoff(usize),
    /// Transmitting until this slot index.
    TransmittingUntil(usize),
    /// Sent all packets.
    Done,
}

/// The slot-stepped reference simulator: every node through every slot,
/// sensed energy recomputed per slot from the full gain matrix.
///
/// `gains[i][j]` is the linear power gain from transmitter `i` to node `j`
/// (diagonal unused); `noise_floor[j]` is node `j`'s in-band noise power.
pub fn slot_oracle(
    cfg: &MacConfig,
    gains: &[Vec<f64>],
    noise_floor: &[f64],
    seed: u64,
) -> MacResult {
    let n = gains.len();
    assert!(n >= 1 && noise_floor.len() == n);
    let mut rng = StdRng::seed_from_u64(seed);
    let packet_slots = (cfg.packet_duration_s / cfg.slot_s).ceil() as usize;
    let to_slots = |range: (f64, f64), rng: &mut StdRng| -> usize {
        let s: f64 = rng.gen_range(range.0..=range.1);
        (s / cfg.slot_s).ceil() as usize
    };

    let mut states: Vec<NodeState> = (0..n)
        .map(|_| NodeState::WaitingUntil(to_slots(cfg.initial_delay_s, &mut rng)))
        .collect();
    let mut sent: Vec<usize> = vec![0; n];
    let mut tx_times: Vec<Vec<f64>> = vec![Vec::new(); n];

    let mut slot = 0usize;
    let max_slots = 1_000_000; // safety stop (~22 hours simulated)
    while states.iter().any(|s| !matches!(s, NodeState::Done)) && slot < max_slots {
        // Energy each node senses this slot (sum of active others + noise).
        let active: Vec<bool> = states
            .iter()
            .map(|s| matches!(s, NodeState::TransmittingUntil(until) if slot < *until))
            .collect();
        let sensed: Vec<f64> = (0..n)
            .map(|j| {
                let mut p = noise_floor[j];
                for i in 0..n {
                    if i != j && active[i] {
                        p += gains[i][j];
                    }
                }
                p
            })
            .collect();

        for i in 0..n {
            match states[i] {
                NodeState::Done => {}
                NodeState::TransmittingUntil(until) => {
                    if slot >= until {
                        states[i] = if sent[i] >= cfg.max_packets {
                            NodeState::Done
                        } else {
                            NodeState::WaitingUntil(
                                slot + to_slots(cfg.inter_packet_gap_s, &mut rng),
                            )
                        };
                    }
                }
                NodeState::WaitingUntil(when) => {
                    if slot >= when {
                        let busy = sensed[i] > noise_floor[i] * cfg.threshold_margin;
                        if cfg.carrier_sense && busy {
                            let packets: u32 =
                                rng.gen_range(cfg.cs_backoff_packets.0..=cfg.cs_backoff_packets.1);
                            states[i] = NodeState::Backoff(packets as usize * packet_slots);
                        } else {
                            tx_times[i].push(slot as f64 * cfg.slot_s);
                            sent[i] += 1;
                            states[i] = NodeState::TransmittingUntil(slot + packet_slots);
                        }
                    }
                }
                NodeState::Backoff(remaining) => {
                    let busy = sensed[i] > noise_floor[i] * cfg.threshold_margin;
                    // The paper's rule: if energy is detected during the
                    // backoff, extend it so it cannot elapse mid-packet.
                    let mut rem = remaining.saturating_sub(1);
                    if busy && rem < packet_slots {
                        rem += packet_slots;
                    }
                    if rem == 0 {
                        if busy {
                            rem = packet_slots; // re-check after one packet
                        } else {
                            tx_times[i].push(slot as f64 * cfg.slot_s);
                            sent[i] += 1;
                            states[i] = NodeState::TransmittingUntil(slot + packet_slots);
                            continue;
                        }
                    }
                    states[i] = NodeState::Backoff(rem);
                }
            }
        }
        slot += 1;
    }

    let (collision_fraction, per_tx) = collision_stats(&tx_times, cfg.packet_duration_s);
    MacResult {
        tx_times,
        collision_fraction,
        per_tx_collision_fraction: per_tx,
        duration_s: slot as f64 * cfg.slot_s,
    }
}
