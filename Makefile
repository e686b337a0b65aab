# Convenience targets for the repro toolkit.

PROFILE ?= small

# Let the targets work from a fresh checkout without `make install`.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast bench bench-engine bench-metrics-kernel bench-scale bench-serve experiments csv examples all

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Everything except the slow full-pipeline golden regressions (~20s saved);
# run `make test` before landing engine or scenario changes.
test-fast:
	pytest tests/ -m "not slow"

bench:
	pytest benchmarks/ --benchmark-only

# Propagation-engine ablation (reference / compiled); writes
# benchmarks/bench_compiled_engine.json.
bench-engine:
	pytest benchmarks/test_bench_engine_ablation.py --benchmark-only

# Array-native metric kernels vs the dict metric path on the Fig. 6/
# Table 2 reliance sweep; asserts identical summaries, zero routes
# materializations, and the >=3x metric-layer speedup; writes
# benchmarks/bench_metric_kernels.json.
bench-metrics-kernel:
	pytest benchmarks/test_bench_metric_kernels.py --benchmark-only

# Propagation + Fig. 6 reliance sweep wall time across scenario scales
# (small ~700 / mid ~2k / large ~10k ASes), engine/shm/batch
# stamped; per-stage wall time + tracemalloc/RSS peaks.
# REPRO_FULL_PROFILE=1 appends a ~70k-AS generation+validation row.
# Writes benchmarks/bench_scale.json.
bench-scale:
	pytest benchmarks/test_bench_scale.py --benchmark-only

# Query-serving tiers: cold propagation vs warm LRU vs precomputed mmap
# shards, plus an HTTP load-generator leg against the real `repro serve`
# server; asserts bit-identical answers across tiers, the >=10x
# precomputed-vs-cold speedup, and the >=10x metric-shard win on
# /reliance and /hegemony vs the live kernels; also races 1 vs 2
# SO_REUSEPORT serve workers (parallel win asserted on multi-CPU hosts)
# and stamps per-endpoint latency histograms; writes
# benchmarks/bench_serve.json.
bench-serve:
	pytest benchmarks/test_bench_serve.py --benchmark-only

experiments:
	python -m repro.experiments.runner $(PROFILE)

csv:
	python -m repro.experiments.runner $(PROFILE) --csv results/

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex; done

all: test bench
