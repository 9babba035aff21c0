//! Diffusion transition matrices and normalized adjacencies.
//!
//! DCRNN models traffic as a diffusion process with transition matrix
//! `P = D_o⁻¹ A` (forward random walk) and its reverse `P' = D_i⁻¹ Aᵀ`;
//! a K-step diffusion convolution uses the powers `P⁰..P^{K-1}` of both.
//! A3T-GCN instead uses the symmetric normalization `D̃^{-1/2} Ã D̃^{-1/2}`
//! with self-loops. Both constructions live here.

use crate::adjacency::Adjacency;
use crate::csr::Csr;

/// Forward random-walk transition matrix `D_o⁻¹ A` as CSR.
pub fn random_walk(adj: &Adjacency) -> Csr {
    let deg = adj.out_degrees();
    let inv: Vec<f32> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
        .collect();
    adj.csr().scale_rows(&inv)
}

/// Reverse random-walk transition matrix `D_i⁻¹ Aᵀ` as CSR.
pub fn reverse_random_walk(adj: &Adjacency) -> Csr {
    random_walk(&adj.transpose())
}

/// The set of diffusion supports used by a K-step dual-direction diffusion
/// convolution: `[I, P, P², …, P^{K-1}, P', P'², …, P'^{K-1}]`.
///
/// `max_step` (K) ≥ 1; with K=1 only the identity is returned, K=2 adds one
/// forward and one reverse step, and so on. Matrix powers are repeated
/// CSR×CSR products ([`Csr::matmul`]), so no N×N intermediate is ever
/// formed (road graphs stay sparse for the small K used in practice —
/// DCRNN uses K=2 or 3).
pub fn diffusion_supports(adj: &Adjacency, max_step: usize) -> Vec<Csr> {
    assert!(max_step >= 1, "diffusion needs at least the identity step");
    let mut supports = vec![Csr::identity(adj.num_nodes())];
    if max_step == 1 {
        return supports;
    }
    for base in [random_walk(adj), reverse_random_walk(adj)] {
        let mut power = base.clone();
        supports.push(base.clone());
        for _ in 2..max_step {
            power = power.matmul(&base).expect("square matrices");
            supports.push(power.clone());
        }
    }
    supports
}

/// Symmetrically-normalized adjacency with self-loops,
/// `D̃^{-1/2} (A + I) D̃^{-1/2}`, used by GCN-style layers (A3T-GCN/TGCN).
pub fn sym_norm_adjacency(adj: &Adjacency) -> Csr {
    let n = adj.num_nodes();
    let mut edges: Vec<(usize, usize, f32)> = Vec::with_capacity(adj.num_edges() + n);
    let sym = adj.symmetrized();
    for i in 0..n {
        edges.extend(sym.row(i).map(|(j, w)| (i, j, w)));
        edges.push((i, i, 1.0));
    }
    let with_loops = Adjacency::from_edges(n, &edges);
    let inv_sqrt: Vec<f32> = with_loops
        .out_degrees()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    edges.clear();
    for i in 0..n {
        edges.extend(
            with_loops
                .row(i)
                .map(|(j, w)| (i, j, w * (inv_sqrt[i] * inv_sqrt[j]))),
        );
    }
    Csr::from_triplets(n, n, &edges)
}

/// Scaled graph Laplacian `2L/λ_max − I` with `L = I − D^{-1/2} A D^{-1/2}`,
/// using the common `λ_max ≈ 2` approximation (Chebyshev-style layers).
pub fn scaled_laplacian(adj: &Adjacency) -> Csr {
    // L_scaled ≈ (I - Asym) - I = -Asym  (with lambda_max = 2):
    // 2/2 * (I - Asym) - I = -Asym.
    sym_norm_adjacency(adj).scale_rows(&vec![-1.0; adj.num_nodes()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> Adjacency {
        // 0 -> 1 -> 2 with unit weights (directed).
        Adjacency::from_dense(3, vec![0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    }

    #[test]
    fn random_walk_rows_sum_to_one_or_zero() {
        let p = random_walk(&line_graph());
        let d = p.to_dense().to_vec();
        let row_sums: Vec<f32> = (0..3).map(|r| d[r * 3..(r + 1) * 3].iter().sum()).collect();
        assert_eq!(row_sums, vec![1.0, 1.0, 0.0], "sink row is all zero");
    }

    #[test]
    fn reverse_walk_follows_transposed_edges() {
        let p = reverse_random_walk(&line_graph());
        let d = p.to_dense().to_vec();
        // Reverse edges: 1 -> 0, 2 -> 1.
        assert_eq!(d[3], 1.0);
        assert_eq!(d[2 * 3 + 1], 1.0);
    }

    #[test]
    fn supports_count_matches_dual_direction() {
        let s = diffusion_supports(&line_graph(), 3);
        // I + 2 forward powers + 2 reverse powers.
        assert_eq!(s.len(), 5);
        // First support must be the identity.
        assert_eq!(
            s[0].to_dense().to_vec(),
            Csr::identity(3).to_dense().to_vec()
        );
    }

    #[test]
    fn supports_k1_is_identity_only() {
        let s = diffusion_supports(&line_graph(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn second_power_is_two_hop() {
        let s = diffusion_supports(&line_graph(), 3);
        // s[2] = P^2: node 0 reaches node 2 in two hops.
        let p2 = s[2].to_dense().to_vec();
        assert_eq!(p2[2], 1.0);
    }

    #[test]
    fn sym_norm_rows_bounded() {
        let coords: Vec<(f32, f32)> = (0..5).map(|i| (i as f32, 0.0)).collect();
        let adj = Adjacency::from_coordinates(&coords, Some(2.0), 0.01);
        let a = sym_norm_adjacency(&adj);
        let d = a.to_dense().to_vec();
        assert!(d.iter().all(|&v| (0.0..=1.0 + 1e-5).contains(&v)));
        // Symmetric.
        for i in 0..5 {
            for j in 0..5 {
                assert!((d[i * 5 + j] - d[j * 5 + i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn scaled_laplacian_is_negated_sym_norm() {
        let adj = line_graph();
        let l = scaled_laplacian(&adj).to_dense().to_vec();
        let a = sym_norm_adjacency(&adj).to_dense().to_vec();
        for (lv, av) in l.iter().zip(&a) {
            assert!((lv + av).abs() < 1e-6);
        }
    }
}
