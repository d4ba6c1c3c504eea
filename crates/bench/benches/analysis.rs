//! Symbolic analysis costs: elimination tree, counts, supernodal structure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pselinv_order::{analyze, etree, AnalyzeOptions, OrderingChoice, Permutation};
use pselinv_sparse::gen;
use std::hint::black_box;

fn bench_etree_and_counts(c: &mut Criterion) {
    let mut g = c.benchmark_group("etree");
    g.sample_size(20);
    for &nx in &[16usize, 24] {
        let w = gen::grid_laplacian_3d(nx, nx, nx);
        let pat = w.matrix.pattern().symmetrized_with_diagonal();
        let natural = Permutation::identity(pat.ncols());
        g.bench_with_input(BenchmarkId::new("elimination_tree", nx * nx * nx), &nx, |b, _| {
            b.iter(|| etree::elimination_tree(black_box(&pat), &natural));
        });
        // Column counts need a postordered tree, as `analyze` produces.
        let parent = etree::elimination_tree(&pat, &natural);
        let post = Permutation::from_old_of_new(etree::postorder(&parent));
        let parent = etree::relabel_parent(&parent, post.new_of_old());
        g.bench_with_input(BenchmarkId::new("column_counts", nx * nx * nx), &nx, |b, _| {
            b.iter(|| etree::column_counts(black_box(&pat), &post, &parent));
        });
    }
    g.finish();
}

fn bench_full_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyze");
    g.sample_size(10);
    let w = gen::fem_3d(12, 12, 12, 3, 7);
    for (name, ordering) in [
        ("nd", OrderingChoice::NestedDissection(w.geometry, Default::default())),
        ("mmd", OrderingChoice::MinimumDegree),
    ] {
        let opts = AnalyzeOptions { ordering, ..Default::default() };
        g.bench_function(name, |b| {
            b.iter(|| analyze(black_box(&w.matrix.pattern()), &opts));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_etree_and_counts, bench_full_analysis);
criterion_main!(benches);
