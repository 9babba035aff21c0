//! Property-based tests on tensor view/stride invariants — the machinery
//! index-batching trusts for zero-copy snapshot reconstruction.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use st_tensor::{ops, Shape, Tensor};

/// Row-major walk of the view `(dims, strides, base)` over `data`, one
/// element at a time: the oracle every strided copy must match bit for bit.
fn odometer(data: &[f32], dims: &[usize], strides: &[usize], base: usize) -> Vec<f32> {
    let total: usize = dims.iter().product();
    let mut idx = vec![0usize; dims.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let off: usize = idx.iter().zip(strides).map(|(i, s)| i * s).sum();
        out.push(data[base + off]);
        for d in (0..dims.len()).rev() {
            idx[d] += 1;
            if idx[d] < dims[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

fn view_oracle(t: &Tensor) -> Vec<f32> {
    odometer(
        t.storage().as_slice(),
        t.dims(),
        t.strides(),
        t.storage_offset(),
    )
}

/// `t` broadcast to `target` by the oracle: missing leading axes and
/// size-1 axes read with stride 0.
fn broadcast_oracle(t: &Tensor, target: &Shape) -> Vec<f32> {
    let lead = target.rank() - t.rank();
    let mut strides = vec![0; lead];
    strides.extend(
        t.dims()
            .iter()
            .zip(t.strides())
            .map(|(&n, &s)| if n == 1 { 0 } else { s }),
    );
    odometer(
        t.storage().as_slice(),
        target.dims(),
        &strides,
        t.storage_offset(),
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A deterministic stream of choices drawn from one op code (splitmix64).
struct Picks(u64);

impl Picks {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// Ranks 0–5 with distinct element values. Most axes are 0–3 long, so
/// zero-size and size-1 axes are common; one in five is 20–69 long, so
/// transposed copies cross tile edges.
fn base_tensor(codes: &[u32]) -> Tensor {
    let mut dims: Vec<usize> = codes
        .iter()
        .map(|&c| {
            let c = c as usize;
            if c.is_multiple_of(5) {
                20 + (c / 5) % 50
            } else {
                (c / 5) % 4
            }
        })
        .collect();
    while dims.iter().product::<usize>() > 20_000 {
        let big = (0..dims.len()).max_by_key(|&d| dims[d]).expect("rank > 0");
        dims[big] %= 4;
    }
    let n = dims.iter().product();
    Tensor::from_vec((0..n).map(|i| i as f32 + 0.5).collect(), dims).unwrap()
}

/// One random `permute` / `narrow` / `select` / `unsqueeze` /
/// `broadcast_to` of `t`, chosen by `op`. A broadcast also returns what the
/// oracle says it must hold.
fn apply(t: &Tensor, op: u64) -> (Tensor, Option<Vec<f32>>) {
    let mut p = Picks(op);
    let rank = t.rank();
    match p.below(5) {
        0 => {
            let mut perm: Vec<usize> = (0..rank).collect();
            for i in (1..rank).rev() {
                perm.swap(i, p.below(i + 1));
            }
            (t.permute(&perm).unwrap(), None)
        }
        1 if rank > 0 => {
            let d = p.below(rank);
            let start = p.below(t.dim(d) + 1);
            let len = p.below(t.dim(d) - start + 1);
            (t.narrow(d, start, len).unwrap(), None)
        }
        2 if t.dims().iter().any(|&n| n > 0) => {
            let live: Vec<usize> = (0..rank).filter(|&d| t.dim(d) > 0).collect();
            let d = live[p.below(live.len())];
            (t.select(d, p.below(t.dim(d))).unwrap(), None)
        }
        3 if rank < 6 => (t.unsqueeze(p.below(rank + 1)).unwrap(), None),
        4 if rank < 6 => {
            let mut target = t.dims().to_vec();
            if p.below(2) == 0 {
                target.insert(0, 1);
            }
            // Widen size-1 axes while the result stays small.
            for d in 0..target.len() {
                let numel: usize = target.iter().product();
                if target[d] == 1 && numel > 0 {
                    target[d] = 1 + p.below((40_000 / numel).clamp(1, 40));
                }
            }
            let target = Shape::new(target);
            let want = broadcast_oracle(t, &target);
            (t.broadcast_to(&target).unwrap(), Some(want))
        }
        _ => (t.clone(), None),
    }
}

/// `to_vec`, `contiguous`, and `concat` / `stack0` (each input copied into
/// its slot) all agree with the oracle on `t`.
fn check_copies(t: &Tensor, p: &mut Picks) -> Result<(), TestCaseError> {
    let want = bits(&view_oracle(t));
    prop_assert_eq!(
        bits(&t.to_vec()),
        want.clone(),
        "to_vec of {:?} / {:?}",
        t.dims(),
        t.strides()
    );
    let c = t.contiguous();
    prop_assert!(c.is_contiguous());
    prop_assert_eq!(
        bits(c.as_slice().unwrap()),
        want.clone(),
        "contiguous of {:?}",
        t.strides()
    );
    let stacked = ops::stack0(&[t, t]).unwrap();
    for i in 0..2 {
        prop_assert_eq!(
            bits(&view_oracle(&stacked.select(0, i).unwrap())),
            want.clone()
        );
    }
    if t.rank() > 0 {
        let d = p.below(t.rank());
        let n = t.dim(d);
        let cat = ops::concat(&[t, t], d).unwrap();
        for start in [0, n] {
            let half = cat.narrow(d, start, n).unwrap();
            prop_assert_eq!(
                bits(&view_oracle(&half)),
                want.clone(),
                "concat along {}",
                d
            );
        }
    }
    Ok(())
}

fn arb_tensor() -> impl Strategy<Value = Tensor> {
    (1usize..6, 1usize..6, 1usize..6, any::<u32>()).prop_map(|(a, b, c, seed)| {
        let n = a * b * c;
        let mut state = seed as u64 | 1;
        let data: Vec<f32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % 2000) as f32 - 1000.0) / 100.0
            })
            .collect();
        Tensor::from_vec(data, [a, b, c]).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// narrow + to_vec equals slicing the flattened buffer.
    #[test]
    fn narrow_is_a_true_view(t in arb_tensor(), start_frac in 0.0f64..1.0, len_frac in 0.0f64..1.0) {
        let d0 = t.dim(0);
        let start = ((d0 as f64 * start_frac) as usize).min(d0 - 1);
        let len = 1 + ((d0 - start - 1) as f64 * len_frac) as usize;
        let v = t.narrow(0, start, len).unwrap();
        prop_assert!(v.shares_storage(&t));
        let row = t.numel() / d0;
        let expect = &t.to_vec()[start * row..(start + len) * row];
        prop_assert_eq!(v.to_vec(), expect.to_vec());
    }

    /// Double transpose is the identity; transpose never copies.
    #[test]
    fn transpose_involution(t in arb_tensor()) {
        let tt = t.transpose(0, 2).unwrap().transpose(0, 2).unwrap();
        prop_assert!(tt.shares_storage(&t));
        prop_assert_eq!(tt.to_vec(), t.to_vec());
    }

    /// reshape preserves element order for contiguous tensors.
    #[test]
    fn reshape_preserves_order(t in arb_tensor()) {
        let flat = t.reshape([t.numel()]).unwrap();
        prop_assert_eq!(flat.to_vec(), t.to_vec());
        prop_assert!(flat.shares_storage(&t));
    }

    /// a + b == b + a and (a + b) - b == a (within float tolerance).
    #[test]
    fn add_commutes_and_inverts(t in arb_tensor()) {
        let u = ops::mul_scalar(&t, 0.5);
        let ab = ops::add(&t, &u).unwrap();
        let ba = ops::add(&u, &t).unwrap();
        prop_assert_eq!(ab.to_vec(), ba.to_vec());
        let back = ops::sub(&ab, &u).unwrap();
        prop_assert!(back.allclose(&t, 1e-5));
    }

    /// Broadcast result shape follows NumPy trailing-dimension rules.
    #[test]
    fn broadcast_shape_law(a in 1usize..5, b in 1usize..5) {
        let x = Shape::new([a, 1, b]);
        let y = Shape::new([b]);
        let r = x.broadcast_with(&y).unwrap();
        prop_assert_eq!(r.dims(), &[a, 1, b]);
        // Symmetric.
        let r2 = y.broadcast_with(&x).unwrap();
        prop_assert_eq!(r2.dims(), &[a, 1, b]);
    }

    /// index_select0 gathers exactly the requested rows.
    #[test]
    fn index_select_rows(t in arb_tensor(), pick in any::<u8>()) {
        let d0 = t.dim(0);
        let i = pick as usize % d0;
        let g = t.index_select0(&[i]).unwrap();
        prop_assert_eq!(g.to_vec(), t.select(0, i).unwrap().to_vec());
    }

    /// Concat along dim 0 then narrow recovers the parts.
    #[test]
    fn concat_narrow_roundtrip(t in arb_tensor()) {
        let u = ops::mul_scalar(&t, 2.0);
        let cat = ops::concat(&[&t, &u], 0).unwrap();
        let d0 = t.dim(0);
        prop_assert_eq!(cat.narrow(0, 0, d0).unwrap().to_vec(), t.to_vec());
        prop_assert_eq!(cat.narrow(0, d0, d0).unwrap().to_vec(), u.to_vec());
    }

    /// Copy-on-write: mutating a view never corrupts the base tensor.
    #[test]
    fn cow_isolation(t in arb_tensor()) {
        let before = t.to_vec();
        let mut view = t.narrow(0, 0, 1).unwrap();
        view.fill_(1234.5);
        prop_assert_eq!(t.to_vec(), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every strided copy — `to_vec`, `contiguous`, `broadcast_to`,
    /// `concat`, `stack0` — equals the element-at-a-time odometer, bit for
    /// bit, along random chains of views: stride-0 axes, swapped inner axes,
    /// zero-size and size-1 axes all occur.
    #[test]
    fn strided_copies_match_the_odometer(
        dim_codes in proptest::collection::vec(any::<u32>(), 0..6),
        chain in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let mut t = base_tensor(&dim_codes);
        let mut p = Picks(dim_codes.len() as u64);
        check_copies(&t, &mut p)?;
        for &op in &chain {
            let (next, broadcast) = apply(&t, op);
            if let Some(want) = broadcast {
                prop_assert_eq!(bits(&next.to_vec()), bits(&want), "broadcast_to {:?}", next.dims());
            }
            t = next;
            check_copies(&t, &mut p)?;
        }
    }
}
