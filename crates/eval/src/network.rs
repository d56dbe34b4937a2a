//! Network-scale experiments: Fig. 12d (long-range FSK beacons) and
//! Fig. 19 (carrier-sense MAC collisions).

use crate::runner::RunSize;
use crate::table::{pct, Table};
use aqua_channel::device::Device;
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig};
use aqua_mac::budget::{gain_matrix, noise_floor};
use aqua_mac::netsim::{simulate, MacConfig};
use aqua_phy::fsk::{demodulate, modulate, FskParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fig. 12d: FSK beacon BER vs distance at 5/10/20 bps (beach, 1 m depth).
pub fn fig12d(size: RunSize) -> String {
    let bits_per_run = match size {
        RunSize::Quick => 24,
        RunSize::Standard => 60,
        RunSize::Full => 120,
    };
    let mut table = Table::new(
        "Fig 12d — FSK beacon uncoded BER vs distance (beach, 1 m depth)",
        &["distance", "5 bps", "10 bps", "20 bps"],
    );
    let distances = [20.0, 40.0, 60.0, 80.0, 100.0, 113.0];
    // Each (distance, bitrate) cell renders an independent seeded FSK
    // burst; fan the distance rows out and keep the cells in order.
    let rows = crate::engine::global().par_map_slice(&distances, |&dist| {
        let mut row = vec![format!("{dist} m")];
        for params in [FskParams::bps5(), FskParams::bps10(), FskParams::bps20()] {
            let mut rng = StdRng::seed_from_u64(60_000 + dist as u64 + params.symbol_len as u64);
            let bits: Vec<u8> = (0..bits_per_run).map(|_| rng.gen_range(0..2u8)).collect();
            let tx = modulate(&params, &bits);
            let mut link = Link::new(LinkConfig::s9_pair(
                Environment::preset(Site::Beach),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(dist, 0.0, 1.0),
                61_000 + dist as u64,
            ));
            let rx = link.transmit(&tx, 0.0);
            // receiver knows nominal timing up to the propagation delay
            let delay = (dist / 1500.0 * params.fs) as usize;
            let decoded = demodulate(&params, &rx, delay, bits.len());
            let ber = aqua_coding::bits::bit_error_rate(&bits, &decoded);
            row.push(format!("{ber:.3}"));
        }
        row
    });
    for row in rows {
        table.row(row);
    }
    table.render()
}

/// Fig. 19: collision fraction with/without carrier sense for two- and
/// three-transmitter networks (bridge, 5–10 m spacing, up to 120 packets
/// per transmitter).
pub fn fig19(size: RunSize) -> String {
    let max_packets = match size {
        RunSize::Quick => 30,
        RunSize::Standard => 60,
        RunSize::Full => 120,
    };
    let mut table = Table::new(
        "Fig 19 — MAC collision fraction (bridge)",
        &["network", "carrier sense", "collision fraction", "paper"],
    );
    let networks = [(2usize, "33%", "5%"), (3, "53%", "7%")];
    let network_rows =
        crate::engine::global().par_map_slice(&networks, |&(n_tx, paper_no_cs, paper_cs)| {
            let mut rows: Vec<Vec<String>> = Vec::new();
            // n_tx transmitters + 1 receiver placed 5-10 m apart
            let mut positions = vec![Pos::new(0.0, 0.0, 1.0)];
            for i in 0..n_tx {
                positions.push(Pos::new(5.0 + 2.0 * i as f64, (i as f64 - 1.0) * 4.0, 1.0));
            }
            let devices: Vec<Device> = (0..=n_tx)
                .map(|i| Device::default_rig(i as u64 + 1))
                .collect();
            let env = Environment::preset(Site::Bridge);
            let full_gains = gain_matrix(&env, &positions, &devices);
            let nf = noise_floor(&env, positions.len());
            // transmit band power scales the gain matrix into sensed power
            let tx_power = 0.04; // target_rms²
            let gains: Vec<Vec<f64>> = full_gains
                .iter()
                .map(|row| row.iter().map(|g| g * tx_power).collect())
                .collect();
            // node 0 is the receiver: it never transmits; model by running the
            // simulation over the transmitter subset (indices 1..)
            let tx_gains: Vec<Vec<f64>> = (1..=n_tx)
                .map(|i| (1..=n_tx).map(|j| gains[i][j]).collect())
                .collect();
            let tx_nf: Vec<f64> = (1..=n_tx).map(|i| nf[i]).collect();
            for cs in [false, true] {
                let cfg = MacConfig {
                    carrier_sense: cs,
                    max_packets,
                    ..MacConfig::default()
                };
                let result = simulate(&cfg, &tx_gains, &tx_nf, 73 + n_tx as u64);
                rows.push(vec![
                    format!("{n_tx} transmitters"),
                    if cs { "on" } else { "off" }.to_string(),
                    pct(result.collision_fraction),
                    if cs { paper_cs } else { paper_no_cs }.to_string(),
                ]);
            }
            rows
        });
    for row in network_rows.into_iter().flatten() {
        table.row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig19_quick_runs() {
        // The four quick rows, pinned exactly: any change to the MAC
        // simulator's RNG draw order, sensing or backoff moves them.
        let report = fig19(RunSize::Quick);
        for row in [
            "| 2 transmitters | off           | 36.7%              | 33%   |",
            "| 2 transmitters | on            | 10.0%              | 5%    |",
            "| 3 transmitters | off           | 71.1%              | 53%   |",
            "| 3 transmitters | on            | 21.1%              | 7%    |",
        ] {
            assert!(report.contains(row), "missing row {row:?} in\n{report}");
        }
    }
}
