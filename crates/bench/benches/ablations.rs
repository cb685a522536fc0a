//! Ablation benchmarks for the design decisions recorded in DESIGN.md §6:
//!
//! * ITE computed-table cache on/off,
//! * partitioned (disjunctive) vs monolithic transition relation in the
//!   symbolic image computation,
//! * parallel vs sequential per-component verification,
//! * explicit vs symbolic engine on the same growing model.

use cmc_bdd::{Bdd, BddManager};
use cmc_bench::counter_system;
use cmc_core::parallel::check_targets_with_workers;
use cmc_core::{scheduler, BackendChoice, Target};
use cmc_ctl::{parse, Checker, Formula};
use cmc_kripke::{Alphabet, System};
use cmc_symbolic::SymbolicModel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Build an n-variable "alternating XOR chain" — a function whose BDD
/// construction exercises the ITE recursion deeply.
fn xor_chain(m: &mut BddManager, n: usize) -> Bdd {
    let vars = m.new_vars(n);
    let mut acc = Bdd::FALSE;
    for (i, &v) in vars.iter().enumerate() {
        let lit = if i % 2 == 0 { m.var(v) } else { m.nvar(v) };
        acc = m.xor(acc, lit);
    }
    acc
}

fn ite_cache_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ite_cache");
    for &n in &[8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, &n| {
            b.iter(|| {
                let mut m = BddManager::new();
                let f = xor_chain(&mut m, n);
                let g = {
                    let nf = m.not(f);
                    m.or(f, nf)
                };
                assert!(g.is_true());
                black_box(m.stats().nodes_allocated)
            })
        });
        group.bench_with_input(BenchmarkId::new("uncached", n), &n, |b, &n| {
            b.iter(|| {
                let mut m = BddManager::new_without_cache();
                let f = xor_chain(&mut m, n);
                let g = {
                    let nf = m.not(f);
                    m.or(f, nf)
                };
                assert!(g.is_true());
                black_box(m.stats().nodes_allocated)
            })
        });
    }
    group.finish();
}

/// Partitioned vs monolithic pre-image on the AFS-2 composition: the
/// partitioned relational product never materialises the union relation.
fn trans_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("trans_partitioning");
    for &n in &[2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::new("partitioned", n), &n, |b, &n| {
            b.iter(|| {
                let mut sys = cmc_afs::afs2::compile_system(n);
                let init = sys.model.init();
                let mut reach = init;
                loop {
                    let pre = sys.model.pre_exists(reach);
                    let next = sys.model.mgr().or(reach, pre);
                    if next == reach {
                        break;
                    }
                    reach = next;
                }
                black_box(sys.model.mgr_ref().node_count(reach))
            })
        });
        group.bench_with_input(BenchmarkId::new("monolithic", n), &n, |b, &n| {
            b.iter(|| {
                let mut sys = cmc_afs::afs2::compile_system(n);
                let init = sys.model.init();
                let mut reach = init;
                loop {
                    let pre = sys.model.pre_exists_monolithic(reach);
                    let next = sys.model.mgr().or(reach, pre);
                    if next == reach {
                        break;
                    }
                    reach = next;
                }
                black_box(sys.model.mgr_ref().node_count(reach))
            })
        });
    }
    group.finish();
}

/// Parallel vs sequential component verification over many components.
/// Each per-component check must be non-trivial for the fan-out to pay
/// for thread startup: a 12-bit counter with an `AF` obligation whose
/// fixpoint walks the full cycle.
fn parallel_components(c: &mut Criterion) {
    let n_components = 12usize;
    let systems: Vec<System> = (0..n_components).map(|_| counter_system(12)).collect();
    let f = parse("AF (b0 & b1 & b2 & b3)").unwrap();
    let tasks: Vec<(String, Target, Formula)> = systems
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("c{i}"), Target::system(s.clone()), f.clone()))
        .collect();
    let workers = scheduler::default_workers();
    let mut group = c.benchmark_group("component_verification");
    group.sample_size(10);
    group.bench_function("parallel", |b| {
        b.iter(|| {
            let results = check_targets_with_workers(&tasks, BackendChoice::Explicit, workers);
            black_box(results.len())
        })
    });
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut count = 0;
            for s in &systems {
                let checker = Checker::new(s).unwrap();
                let _ = checker.holds_everywhere(&f).unwrap();
                count += 1;
            }
            black_box(count)
        })
    });
    group.finish();
}

/// Explicit vs symbolic engine on the ripple counter of growing width.
fn engine_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("explicit_vs_symbolic");
    group.sample_size(10);
    let goal: Formula = parse("AF (b0 & b1 & b2)").unwrap();
    let fair = parse("b0 & b1 & b2").unwrap();
    for &bits in &[6usize, 8, 10, 12] {
        let sys = counter_system(bits);
        group.bench_with_input(BenchmarkId::new("explicit", bits), &bits, |b, _| {
            b.iter(|| {
                let checker = Checker::new(&sys).unwrap();
                let sat = checker
                    .sat_fair(&goal, std::slice::from_ref(&fair))
                    .unwrap();
                black_box(sat.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("symbolic", bits), &bits, |b, _| {
            b.iter(|| {
                let mut model = SymbolicModel::from_explicit(&sys);
                let r = cmc_ctl::Restriction::new(Formula::True, [fair.clone()]);
                let v = model.check(&r, &goal).unwrap();
                assert!(v.holds);
                black_box(v.holds)
            })
        });
    }
    group.finish();
}

/// Keep `Alphabet` import used even if a target set shrinks during tuning.
#[allow(dead_code)]
fn _keep(_a: Alphabet) {}

/// Variable-order sensitivity: the pairwise comparator under the
/// interleaved (linear) and separated (exponential) orders.
fn variable_ordering(c: &mut Criterion) {
    fn comparator(k: usize, separated: bool) -> (BddManager, Bdd) {
        let mut m = BddManager::new();
        let vars = m.new_vars(2 * k);
        let mut acc = Bdd::TRUE;
        for i in 0..k {
            let (a, b) = if separated {
                (vars[i], vars[k + i])
            } else {
                (vars[2 * i], vars[2 * i + 1])
            };
            let (la, lb) = (m.var(a), m.var(b));
            let eq = m.iff(la, lb);
            acc = m.and(acc, eq);
        }
        (m, acc)
    }
    let mut group = c.benchmark_group("variable_ordering");
    for &k in &[6usize, 8, 10] {
        group.bench_with_input(BenchmarkId::new("interleaved", k), &k, |b, &k| {
            b.iter(|| {
                let (m, f) = comparator(k, false);
                black_box(m.node_count(f))
            })
        });
        group.bench_with_input(BenchmarkId::new("separated", k), &k, |b, &k| {
            b.iter(|| {
                let (m, f) = comparator(k, true);
                black_box(m.node_count(f))
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(15);
    targets = ite_cache_ablation, trans_partitioning, parallel_components, engine_comparison,
        variable_ordering
);
criterion_main!(ablations);
