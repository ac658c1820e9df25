//! Property-based tests for the traffic sources.

use mbac_num::{KernelDispatch, RateMoments};
use mbac_traffic::ar1::{Ar1Batch, Ar1Config};
use mbac_traffic::batch::FlowBatch;
use mbac_traffic::fgn::fgn_autocovariance;
use mbac_traffic::marginal::Marginal;
use mbac_traffic::markov::MarkovFluidModel;
use mbac_traffic::process::{RateProcess, SourceModel};
use mbac_traffic::rcbr::{GeneralRcbrModel, RcbrConfig, RcbrModel};
use mbac_traffic::trace::Trace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// RCBR advancement is associative: advance(a+b) has the same
    /// distribution as advance(a); advance(b) — and with a shared seed,
    /// the *same* renegotiation draws, hence identical rates.
    #[test]
    fn rcbr_advance_composes(
        seed in 0u64..1000,
        a in 0.0f64..5.0,
        b in 0.0f64..5.0,
    ) {
        let cfg = RcbrConfig::paper_default(1.0);
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let mut s1 = mbac_traffic::rcbr::RcbrSource::new(cfg, &mut r1);
        let mut s2 = mbac_traffic::rcbr::RcbrSource::new(cfg, &mut r2);
        s1.advance(a + b, &mut r1);
        s2.advance(a, &mut r2);
        s2.advance(b, &mut r2);
        prop_assert_eq!(s1.rate().to_bits(), s2.rate().to_bits());
    }

    /// Every marginal's sample mean/variance constructors are honest.
    #[test]
    fn marginal_constructors_hit_moments(mean in 0.6f64..5.0, cov in 0.05f64..0.45) {
        let sd = mean * cov;
        for m in [
            Marginal::uniform_with_moments(mean, sd),
            Marginal::two_point_with_moments(mean, sd),
            Marginal::lognormal_with_moments(mean, sd),
        ] {
            prop_assert!((m.mean() - mean).abs() < 1e-9 * mean, "{m:?}");
            prop_assert!((m.variance() - sd * sd).abs() < 1e-9 * sd * sd, "{m:?}");
        }
    }

    /// Marginal samples stay inside their support.
    #[test]
    fn marginal_samples_in_support(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = Marginal::Uniform { lo: 0.5, hi: 2.0 };
        let t = Marginal::TwoPoint { low: 0.3, high: 1.9, p_high: 0.4 };
        for _ in 0..100 {
            let x = u.sample(&mut rng);
            prop_assert!((0.5..2.0).contains(&x));
            let y = t.sample(&mut rng);
            prop_assert!((y - 0.3).abs() < 1e-12 || (y - 1.9).abs() < 1e-12);
        }
    }

    /// fGn autocovariance is a valid correlation sequence: γ(0) = 1,
    /// |γ(k)| ≤ 1, and positive/decaying for H > 1/2.
    #[test]
    fn fgn_covariance_sane(h in 0.05f64..0.95, k in 1usize..500) {
        let g = fgn_autocovariance(h, k);
        prop_assert!(g.abs() <= 1.0 + 1e-12, "γ({k}) = {g}");
        if h > 0.5 {
            prop_assert!(g > 0.0);
            prop_assert!(g <= fgn_autocovariance(h, k.max(2) - 1) + 1e-12, "decay at {k}");
        }
    }

    /// On–off fluids: stationary activity and moments follow the rates.
    #[test]
    fn on_off_moments(peak in 0.5f64..10.0, on in 0.1f64..5.0, off in 0.1f64..5.0) {
        let m = MarkovFluidModel::on_off(peak, on, off);
        let p = on / (on + off);
        prop_assert!((m.stationary()[1] - p).abs() < 1e-9);
        let f = mbac_traffic::markov::MarkovFluidFactory::new(m);
        prop_assert!((f.mean() - p * peak).abs() < 1e-9);
        prop_assert!((f.variance() - p * (1.0 - p) * peak * peak).abs() < 1e-9);
    }

    /// Generalized RCBR reports the marginal's analytic moments.
    #[test]
    fn general_rcbr_moments_consistent(mean in 0.6f64..3.0, cov in 0.05f64..0.4, t_c in 0.1f64..10.0) {
        let m = GeneralRcbrModel::new(Marginal::uniform_with_moments(mean, mean * cov), t_c);
        prop_assert!((m.mean() - mean).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(7);
        let src = m.spawn(&mut rng);
        prop_assert_eq!(src.autocorrelation(t_c), Some((-1.0f64).exp()));
    }

    /// Trace playback position always lands in a valid slot.
    #[test]
    fn trace_playback_in_bounds(
        rates in proptest::collection::vec(0.0f64..10.0, 1..50),
        steps in 1usize..200,
        dt in 0.01f64..10.0,
        seed in 0u64..100,
    ) {
        let trace = std::sync::Arc::new(Trace::new(rates.clone(), 1.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut src = mbac_traffic::trace::TraceSource::new(trace, &mut rng);
        for _ in 0..steps {
            src.advance(dt, &mut rng);
            let r = src.rate();
            prop_assert!(rates.contains(&r), "rate {r} not from the trace");
        }
    }

    /// Classic RCBR model moments match config.
    #[test]
    fn rcbr_model_reports_config(mean in 0.5f64..4.0, sd in 0.0f64..1.0, t_c in 0.1f64..10.0) {
        let m = RcbrModel::new(RcbrConfig { mean, std_dev: sd, t_c, truncate_at_zero: false });
        prop_assert_eq!(m.mean(), mean);
        prop_assert!((m.variance() - sd * sd).abs() < 1e-12);
    }

    /// The scalar and wide AR(1) batch kernels are bit-exact twins:
    /// identical rate arrays, identical fused moments, and identical RNG
    /// end state, for arbitrary flow counts (including non-multiples of
    /// the lane width), mid-run spawns that break phase lock, and both
    /// clamp settings. Exercises the whole-array fast path, the
    /// mixed-phase chunk path, and the scalar remainder.
    #[test]
    fn ar1_dispatch_twins_bit_exact(
        seed in 0u64..400,
        n0 in 1usize..30,
        extra in 0usize..12,
        clamp in 0usize..2,
    ) {
        let cfg = Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: clamp == 1,
        };
        let run = |dispatch: KernelDispatch| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut batch = Ar1Batch::with_dispatch(cfg, dispatch);
            for _ in 0..n0 {
                batch.spawn_one(&mut rng);
            }
            let mut mom = RateMoments::new(cfg.mean);
            batch.advance_and_measure(0.25, &mut rng, &mut mom);
            // Move phase off zero, then spawn newcomers at phase zero so
            // the batch leaves the uniform-phase fast path.
            batch.advance_all(0.07, &mut rng);
            for _ in 0..extra {
                batch.spawn_one(&mut rng);
            }
            batch.advance_and_measure(0.25, &mut rng, &mut mom);
            let rate_bits: Vec<u64> = batch.rates().iter().map(|r| r.to_bits()).collect();
            (
                rate_bits,
                mom.sum().to_bits(),
                mom.sum_sq_dev(cfg.mean).to_bits(),
                rng,
            )
        };
        prop_assert_eq!(run(KernelDispatch::Wide), run(KernelDispatch::Scalar));
    }
}

/// Every batched RCBR kernel under test, with its boxed counterpart:
/// truncation on and off, `σ = 0` on both paths, and generalized
/// marginals including one (`sd = 0` Gaussian) whose rate draw consumes
/// no randoms.
fn rcbr_models() -> Vec<Box<dyn SourceModel>> {
    let rcbr = |std_dev, truncate_at_zero| {
        Box::new(RcbrModel::new(RcbrConfig {
            mean: 1.0,
            std_dev,
            t_c: 1.0,
            truncate_at_zero,
        })) as Box<dyn SourceModel>
    };
    let general = |marginal| Box::new(GeneralRcbrModel::new(marginal, 1.0)) as Box<dyn SourceModel>;
    vec![
        // σ/μ = 0.6 so the truncated path rejects ~5% of its draws.
        rcbr(0.6, true),
        rcbr(0.6, false),
        rcbr(0.0, true),
        rcbr(0.0, false),
        general(Marginal::two_point_with_moments(1.0, 0.3)),
        general(Marginal::lognormal_with_moments(1.0, 0.3)),
        general(Marginal::Gaussian { mean: 1.0, sd: 0.0 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tiled RCBR sweeps equal the boxed sources bit for bit across
    /// 64-flow tile boundaries. Flow counts cross 64, 128 and 192 and
    /// include 0; ticks include 0 and 3 `T_c` (several renegotiations
    /// per flow in one tick); a mid-run swap-remove and spawn reorder
    /// the slots. At every step the batch driven by `advance_all`, the
    /// twin driven by `advance_and_measure`, and the boxed flows hold
    /// the same rates, the fused moments equal `add_slice` of those
    /// rates, and at the end all three generators are in one state.
    #[test]
    fn rcbr_tiled_sweep_matches_boxed_sources(
        seed in 0u64..10_000,
        n in 0usize..300,
        ticks in collection::vec(0usize..4, 1..12),
        cut in 0usize..12,
        victim in 0usize..300,
    ) {
        const DTS: [f64; 4] = [0.0, 0.05, 0.25, 3.0];
        for model in rcbr_models() {
            let mut rng_boxed = StdRng::seed_from_u64(seed);
            let mut rng_all = StdRng::seed_from_u64(seed);
            let mut rng_fused = StdRng::seed_from_u64(seed);
            let mut boxed: Vec<Box<dyn RateProcess>> =
                (0..n).map(|_| model.spawn(&mut rng_boxed)).collect();
            let mut all = model.new_batch().expect("batched kernel");
            let mut fused = model.new_batch().expect("batched kernel");
            for _ in 0..n {
                all.spawn_one(&mut rng_all);
                fused.spawn_one(&mut rng_fused);
            }
            for (step, &t) in ticks.iter().enumerate() {
                if step == cut.min(ticks.len() - 1) {
                    if !boxed.is_empty() {
                        let i = victim % boxed.len();
                        boxed.swap_remove(i);
                        all.swap_remove(i);
                        fused.swap_remove(i);
                    }
                    boxed.push(model.spawn(&mut rng_boxed));
                    all.spawn_one(&mut rng_all);
                    fused.spawn_one(&mut rng_fused);
                }
                let dt = DTS[t];
                for p in boxed.iter_mut() {
                    p.advance(dt, &mut rng_boxed);
                }
                all.advance_all(dt, &mut rng_all);
                let mut want = RateMoments::new(model.mean());
                want.add_slice(all.rates());
                let mut got = RateMoments::new(model.mean());
                fused.advance_and_measure(dt, &mut rng_fused, &mut got);
                let boxed_bits: Vec<u64> = boxed.iter().map(|p| p.rate().to_bits()).collect();
                let all_bits: Vec<u64> = all.rates().iter().map(|r| r.to_bits()).collect();
                let fused_bits: Vec<u64> = fused.rates().iter().map(|r| r.to_bits()).collect();
                prop_assert_eq!(&boxed_bits, &all_bits, "advance_all diverged at step {}", step);
                prop_assert_eq!(&boxed_bits, &fused_bits, "advance_and_measure diverged at step {}", step);
                prop_assert_eq!(want, got, "fused moments diverged at step {}", step);
            }
            prop_assert_eq!(&rng_boxed, &rng_all);
            prop_assert_eq!(&rng_boxed, &rng_fused);
        }
    }
}
