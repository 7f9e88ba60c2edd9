//! Fine-tuning throughput benchmarks: single-fold adapter training
//! (fast scratch-buffer loop vs the pre-PR reference trainer) and the
//! full Table 4 + Table 6 cross-validation sweep (serial and
//! fold-parallel). `tables --bench-json finetune` records the same
//! comparison into `BENCH_finetune.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_finetune(c: &mut Criterion) {
    // Build the shared corpus views + calibrated surrogates outside the
    // timed region (every configuration below reuses them).
    let views = eval::corpus_views();
    let _ = eval::corpus_surrogates();

    let mut g = c.benchmark_group("finetune");
    g.sample_size(10);

    let kind = llm::ModelKind::StarChatBeta;
    let s = &eval::corpus_surrogates().iter().find(|(k, _)| *k == kind).expect("calibrated").1;
    let folds = finetune::folds_for(views, 5, 20230915);
    let cfg = finetune::TrainConfig::for_model(kind);

    g.bench_function("train_one_fold_fast", |b| {
        b.iter(|| black_box(finetune::FineTuned::train_on(s, views, &folds[0].train, &cfg)))
    });
    g.bench_function("train_one_fold_reference", |b| {
        let train: Vec<llm::KernelView> =
            folds[0].train.iter().map(|&i| views[i].clone()).collect();
        b.iter(|| black_box(finetune::FineTuned::train_reference(s, &train, &cfg)))
    });
    g.bench_function("cv_tables_serial", |b| {
        b.iter(|| black_box(eval::cv_tables_with_workers(1)))
    });
    g.bench_function("cv_tables_parallel", |b| {
        b.iter(|| black_box(eval::cv_tables_with_workers(par::default_workers())))
    });
    g.bench_function("cv_tables_pre_pr_serial", |b| {
        b.iter(|| black_box((eval::table4_serial_reference(), eval::table6_serial_reference())))
    });
    g.finish();

    println!("{}", eval::format_cv_table("Table 4", &eval::table4()));
    println!("{}", eval::format_cv_table("Table 6", &eval::table6()));
}

criterion_group!(benches, bench_finetune);
criterion_main!(benches);
