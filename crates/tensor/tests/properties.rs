//! Property-based tests for the tensor kernels: algebraic identities the
//! float ops must satisfy and quantisation invariants the integer ops must
//! preserve.

use kwt_tensor::{math, ops, packed, qops, Mat, PackedMat};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    // Bounded, finite floats keep identity tolerances meaningful.
    (-8.0f32..8.0).prop_map(|x| (x * 64.0).round() / 64.0)
}

fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat<f32>> {
    proptest::collection::vec(small_f32(), rows * cols)
        .prop_map(move |v| Mat::from_vec(rows, cols, v).expect("length matches"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_distributes_over_addition(
        a in mat_strategy(3, 4),
        b in mat_strategy(4, 2),
        c in mat_strategy(4, 2),
    ) {
        // A(B + C) == AB + AC
        let mut bc = b.clone();
        ops::add_assign(&mut bc, &c).unwrap();
        let lhs = ops::matrix_multiply(&a, &bc).unwrap();
        let mut rhs = ops::matrix_multiply(&a, &b).unwrap();
        ops::add_assign(&mut rhs, &ops::matrix_multiply(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_identity(
        a in mat_strategy(3, 4),
        b in mat_strategy(4, 3),
    ) {
        // (AB)^T == B^T A^T
        let lhs = ops::matrix_multiply(&a, &b).unwrap().transpose();
        let rhs = ops::matrix_multiply(&b.transpose(), &a.transpose()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(
        v in proptest::collection::vec(small_f32(), 1..24),
        shift in -4.0f32..4.0,
    ) {
        let mut a = v.clone();
        let mut b: Vec<f32> = v.iter().map(|x| x + shift).collect();
        ops::softmax_normalized(&mut a).unwrap();
        ops::softmax_normalized(&mut b).unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_output_is_distribution(
        v in proptest::collection::vec(small_f32(), 1..32),
    ) {
        let mut a = v;
        ops::softmax_normalized(&mut a).unwrap();
        let sum: f32 = a.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-5);
        prop_assert!(a.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn softmax_preserves_order(
        v in proptest::collection::vec(small_f32(), 2..16),
    ) {
        let mut s = v.clone();
        ops::softmax_normalized(&mut s).unwrap();
        for i in 0..v.len() {
            for j in 0..v.len() {
                if v[i] > v[j] {
                    prop_assert!(s[i] >= s[j] - 1e-7);
                }
            }
        }
    }

    #[test]
    fn layer_norm_output_standardised(
        v in proptest::collection::vec(small_f32(), 2..32),
    ) {
        // Skip near-constant vectors where eps dominates.
        let (_, var) = ops::compute_mean_and_variance(&v).unwrap();
        prop_assume!(var > 1e-3);
        let mut x = v;
        let n = x.len();
        ops::layer_norm(&mut x, &vec![1.0; n], &vec![0.0; n], 1e-9).unwrap();
        let (m, s2) = ops::compute_mean_and_variance(&x).unwrap();
        prop_assert!(m.abs() < 1e-4, "mean {m}");
        prop_assert!((s2 - 1.0).abs() < 1e-2, "var {s2}");
    }

    #[test]
    fn gelu_bounded_by_relu(
        v in proptest::collection::vec(small_f32(), 1..32),
    ) {
        // 0 >= GELU(x) - ReLU(x) >= -0.17 everywhere
        let mut g = v.clone();
        ops::gelu(&mut g);
        for (x, y) in v.iter().zip(&g) {
            let relu = x.max(0.0);
            prop_assert!(*y <= relu + 1e-6);
            prop_assert!(*y >= relu - 0.17);
        }
    }

    #[test]
    fn erf_is_odd_and_bounded(x in -10.0f32..10.0) {
        let e = math::erf(x);
        prop_assert!((-1.0..=1.0).contains(&e));
        prop_assert!((math::erf(-x) + e).abs() < 1e-6);
    }

    #[test]
    fn quantize_dequantize_error_bound(
        v in proptest::collection::vec(-4.0f32..4.0, 1..64),
        y in 3u32..8,
    ) {
        let n = v.len();
        let m = Mat::from_vec(1, n, v).unwrap();
        let (q, stats) = qops::quantize_i16(&m, y);
        prop_assume!(stats.saturations == 0);
        let back = qops::dequantize_i16(&q, y);
        let step = 1.0 / (1 << y) as f32;
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            // floor quantisation error lies in [0, step)
            let err = a - b;
            prop_assert!(err >= -1e-6 && err < step + 1e-6, "err {err} step {step}");
        }
    }

    #[test]
    fn quantized_matmul_tracks_float(
        a in mat_strategy(2, 3),
        w in proptest::collection::vec(-0.9f32..0.9, 6),
    ) {
        let w_f = Mat::from_vec(3, 2, w).unwrap();
        let ya = 8u32;
        let yw = 6u32;
        let (a_q, sa) = qops::quantize_i16(&a, ya);
        let (w_q, sw) = qops::quantize_i8(&w_f, yw);
        prop_assume!(sa.saturations == 0 && sw.saturations == 0);
        let (c_q, _) = qops::matmul_i16_i8(&a_q, &w_q, None, yw).unwrap();
        let c_f = ops::matrix_multiply(&a, &w_f).unwrap();
        let c_d = qops::dequantize_i16(&c_q, ya);
        // Floor-quantisation error per term: |a| * 2^-yw + |w| * 2^-ya, summed
        // over K = 3 inner terms, plus the output floor shift.
        let bound = 3.0 * (8.0 / (1 << yw) as f32 + 0.9 / (1 << ya) as f32) + 1.0 / (1 << ya) as f32;
        for (x, y) in c_f.as_slice().iter().zip(c_d.as_slice()) {
            prop_assert!((x - y).abs() < bound, "{x} vs {y} (bound {bound})");
        }
    }

    #[test]
    fn attention_rows_are_convex_combinations(
        q in mat_strategy(3, 2),
        k in mat_strategy(3, 2),
        v in mat_strategy(3, 2),
    ) {
        // Every output row of SDPA lies inside the [min, max] envelope of
        // V's columns because softmax weights are a convex combination.
        let sa = ops::scaled_dot_product_attention(&q, &k, &v).unwrap();
        for c in 0..2 {
            let lo = (0..3).map(|r| v[(r, c)]).fold(f32::INFINITY, f32::min);
            let hi = (0..3).map(|r| v[(r, c)]).fold(f32::NEG_INFINITY, f32::max);
            for r in 0..3 {
                prop_assert!(sa[(r, c)] >= lo - 1e-4);
                prop_assert!(sa[(r, c)] <= hi + 1e-4);
            }
        }
    }

    // ---- packed/blocked kernels vs naive reference oracles ----
    //
    // The packed fast paths must be *bit-identical* to the reference
    // kernels — same outputs AND same QuantStats — across arbitrary
    // shapes, explicitly including dimensions that are not multiples of
    // the panel width (NR = 8), the row blocking (MR = 4) or the k
    // blocking (KC = 256).

    #[test]
    fn packed_i16_i8_bit_identical_to_reference(
        m in 1usize..10,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0i32..1000,
        shift in 0u32..8,
        with_bias in proptest::any::<bool>(),
    ) {
        let a = Mat::from_fn(m, k, |r, c| {
            ((r as i32 * 131 + c as i32 * 37 + seed) % 8001 - 4000) as i16
        });
        let w = Mat::from_fn(k, n, |r, c| {
            ((r as i32 * 31 + c as i32 * 17 + seed) % 255 - 127) as i8
        });
        let bias: Vec<i32> = (0..n as i32).map(|j| (j * 7919 + seed) % 100_000 - 50_000).collect();
        let b = if with_bias { Some(bias.as_slice()) } else { None };
        let (c_ref, s_ref) = qops::reference::matmul_i16_i8(&a, &w, b, shift).unwrap();
        // Drop-in entry point (packs on the fly).
        let (c_new, s_new) = qops::matmul_i16_i8(&a, &w, b, shift).unwrap();
        prop_assert_eq!(&c_new, &c_ref);
        prop_assert_eq!(s_new, s_ref);
        // Pre-packed entry point.
        let p = PackedMat::pack(&w);
        let (c_pre, s_pre) = packed::matmul_i16_i8_packed(&a, &p, b, shift).unwrap();
        prop_assert_eq!(c_pre, c_ref);
        prop_assert_eq!(s_pre, s_ref);
    }

    #[test]
    fn packed_i16_i8_saturating_inputs_match(
        m in 1usize..4,
        k in 1usize..600,   // crosses the KC = 256 block boundary
        sign in proptest::any::<bool>(),
    ) {
        // Extremal operands drive the accumulator to its bounds and force
        // output saturation; stats must still match exactly.
        let a = Mat::filled(m, k, if sign { i16::MAX } else { i16::MIN });
        let w = Mat::filled(k, 3, i8::MIN);
        let (c_ref, s_ref) = qops::reference::matmul_i16_i8(&a, &w, None, 2).unwrap();
        let (c_new, s_new) = qops::matmul_i16_i8(&a, &w, None, 2).unwrap();
        prop_assert_eq!(c_new, c_ref);
        prop_assert_eq!(s_new, s_ref);
    }

    #[test]
    fn packed_i16_i16_bit_identical_to_reference(
        m in 1usize..10,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0i32..1000,
        shift in 0u32..8,
    ) {
        let a = Mat::from_fn(m, k, |r, c| {
            ((r as i32 * 57 + c as i32 * 23 + seed) % 60001 - 30000) as i16
        });
        let b = Mat::from_fn(k, n, |r, c| {
            ((r as i32 * 91 + c as i32 * 13 + seed * 3) % 60001 - 30000) as i16
        });
        let (c_ref, s_ref) = qops::reference::matmul_i16_i16(&a, &b, shift).unwrap();
        let (c_new, s_new) = qops::matmul_i16_i16(&a, &b, shift).unwrap();
        prop_assert_eq!(&c_new, &c_ref);
        prop_assert_eq!(s_new, s_ref);
        let p = PackedMat::pack(&b);
        let (c_pre, s_pre) = packed::matmul_i16_i16_packed(&a, &p, shift).unwrap();
        prop_assert_eq!(c_pre, c_ref);
        prop_assert_eq!(s_pre, s_ref);
    }

    #[test]
    fn packed_f32_bit_identical_to_reference(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1000,
    ) {
        let a = Mat::from_fn(m, k, |r, c| {
            let h = seed.wrapping_add((r * k + c) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 16.0
        });
        let b = Mat::from_fn(k, n, |r, c| {
            let h = seed.wrapping_add(0x1234).wrapping_add((r * n + c) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
        });
        let c_ref = ops::reference::matrix_multiply(&a, &b).unwrap();
        let c_new = ops::matrix_multiply(&a, &b).unwrap();
        for (x, y) in c_ref.as_slice().iter().zip(c_new.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let p = PackedMat::pack(&b);
        let c_pre = packed::matrix_multiply_packed(&a, &p).unwrap();
        for (x, y) in c_ref.as_slice().iter().zip(c_pre.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fused_attention_bit_identical_to_split_oracle(
        heads in 1usize..5,
        dim_head in 1usize..18,
        s in 1usize..41,
        magnitude in 0usize..5,
        seed in 0u64..1000,
    ) {
        // ordinary, large (one-hot softmax rows), tiny, subnormal, and a
        // per-element mix of all four
        let scales = [4.0f32, 300.0, 1e-20, 1e-39];
        let x = Mat::from_fn(s, 3 * heads * dim_head, |r, c| {
            let h = seed
                .wrapping_add((r * 3 * heads * dim_head + c) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let unit = (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            unit * scales.get(magnitude).copied().unwrap_or(scales[(h & 3) as usize])
        });
        let (q, k, v) = ops::split_into_qkv(&x, heads, dim_head).unwrap();
        let (mut work, mut out) = (Mat::default(), Mat::default());
        ops::multi_head_attention_into(&x, heads, dim_head, &mut work, &mut out).unwrap();
        prop_assert_eq!(out.shape(), (s, heads * dim_head));
        for h in 0..heads {
            let head = ops::scaled_dot_product_attention(&q[h], &k[h], &v[h]).unwrap();
            for r in 0..s {
                for d in 0..dim_head {
                    prop_assert_eq!(
                        out[(r, h * dim_head + d)].to_bits(),
                        head[(r, d)].to_bits(),
                        "head {} row {} col {}", h, r, d
                    );
                }
            }
        }
    }

    #[test]
    fn pack_transposed_equals_pack_of_transpose(
        rows in 1usize..30,
        cols in 1usize..30,
        seed in 0i32..100,
    ) {
        let src = Mat::from_fn(rows, cols, |r, c| {
            ((r as i32 * 7 + c as i32 * 3 + seed) % 251 - 125) as i16
        });
        prop_assert_eq!(
            PackedMat::pack_transposed(&src),
            PackedMat::pack(&src.transpose())
        );
    }

    #[test]
    fn transpose_involution(m in mat_strategy(4, 5)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn hstack_then_columns_recovers(a in mat_strategy(3, 2), b in mat_strategy(3, 4)) {
        let h = a.hstack(&b).unwrap();
        prop_assert_eq!(h.columns(0, 2), a);
        prop_assert_eq!(h.columns(2, 4), b);
    }
}
