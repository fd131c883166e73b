//! Throughput of the TD(λ) learner's select/update loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hev_rl::{EpsilonGreedy, TdLambda, TdLambdaConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_rl_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("rl_update");
    let n_states = 3840;
    let n_actions = 15;
    let mask = vec![true; n_actions];
    let policy = EpsilonGreedy::new(0.1);

    group.bench_function("td_lambda_update", |b| {
        let mut learner = TdLambda::new(n_states, n_actions, TdLambdaConfig::default());
        let mut s = 0usize;
        b.iter(|| {
            let delta = learner.update(black_box(s), 3, -0.5, (s + 17) % n_states, Some(&mask));
            s = (s + 17) % n_states;
            delta
        })
    });

    group.bench_function("td_lambda_select", |b| {
        let learner = TdLambda::new(n_states, n_actions, TdLambdaConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = 0usize;
        b.iter(|| {
            let a = learner.select(black_box(s), &mask, &policy, &mut rng);
            s = (s + 31) % n_states;
            a
        })
    });

    group.finish();
}

criterion_group!(benches, bench_rl_update);
criterion_main!(benches);
