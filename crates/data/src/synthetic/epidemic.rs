//! Synthetic weekly epidemic case counts (Chickenpox-Hungary stand-in).
//!
//! A stochastic SIR-style process on the sensor graph: infection pressure
//! flows along edges, recoveries decay the infected pool, and a seasonal
//! forcing term produces the winter peaks characteristic of chickenpox.

use crate::signal::StaticGraphTemporalSignal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_graph::generators::SensorNetwork;
use st_tensor::Tensor;

/// Generate `[entries, nodes, 1]` weekly case counts over `network`.
pub fn generate(network: &SensorNetwork, entries: usize, seed: u64) -> StaticGraphTemporalSignal {
    let n = network.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51E0);
    let population: Vec<f32> = (0..n).map(|_| rng.gen_range(50.0..500.0)).collect();
    let mut susceptible: Vec<f32> = population.clone();
    let mut infected: Vec<f32> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                rng.gen_range(1.0..5.0)
            } else {
                0.0
            }
        })
        .collect();

    let adj = &network.adjacency;
    let mut out = Vec::with_capacity(entries * n);
    for t in 0..entries {
        // Seasonal forcing: transmission peaks yearly (52-week period).
        let season = 1.0 + 0.6 * (2.0 * std::f32::consts::PI * t as f32 / 52.0).cos();
        let beta = 0.35 * season;
        let gamma = 0.55; // weekly recovery

        let mut new_cases = vec![0.0f32; n];
        for i in 0..n {
            // Infection pressure: local + neighbor spillover.
            let mut pressure = infected[i];
            for (j, w) in adj.row(i) {
                if w > 0.0 && j != i {
                    pressure += 0.3 * w * infected[j];
                }
            }
            let frac_s = susceptible[i] / population[i];
            let mean_new = beta * pressure * frac_s;
            // Poisson-ish noise via a clamped normal.
            let noise: f32 = rng.gen_range(-0.5..0.5) * mean_new.sqrt().max(1.0);
            new_cases[i] = (mean_new + noise).max(0.0).min(susceptible[i]);
        }
        for i in 0..n {
            susceptible[i] -= new_cases[i];
            infected[i] = (infected[i] * (1.0 - gamma) + new_cases[i]).max(0.0);
            // Births / waning immunity slowly replenish susceptibles.
            susceptible[i] = (susceptible[i] + 0.01 * population[i]).min(population[i]);
            out.push(new_cases[i]);
        }
    }
    StaticGraphTemporalSignal::new(
        Tensor::from_vec(out, [entries, n, 1]).expect("entries*n values"),
        adj.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::generators::random_geometric;

    #[test]
    fn case_counts_nonnegative_and_nonconstant() {
        let net = random_geometric(15, 40.0, 9);
        let sig = generate(&net, 200, 9);
        let v = sig.data().to_vec();
        assert!(v.iter().all(|&c| c >= 0.0));
        let mean = v.iter().sum::<f32>() / v.len() as f32;
        let var = v.iter().map(|c| (c - mean).powi(2)).sum::<f32>() / v.len() as f32;
        assert!(var > 0.0, "signal must carry information");
    }

    #[test]
    fn epidemic_never_exceeds_population_burst() {
        let net = random_geometric(10, 30.0, 2);
        let sig = generate(&net, 104, 2);
        // Weekly new cases bounded by max population.
        assert!(sig.data().to_vec().iter().all(|&c| c <= 500.0));
    }
}
