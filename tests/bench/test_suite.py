"""Benchmark suite definitions against Table II."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.bench.suite import (
    BENCHMARKS,
    VANILLA_SGD_COMPRESSORS,
    get_benchmark,
    paper_gradient_tensors,
)


class TestTable2Rows:
    def test_all_nine_benchmarks_present(self):
        assert set(BENCHMARKS) == {
            "resnet20-cifar10", "densenet40-cifar10", "resnet9-cifar10",
            "vgg16-cifar10", "resnet50-imagenet", "vgg19-imagenet",
            "ncf-movielens", "lstm-ptb", "unet-dagm",
        }

    def test_published_parameter_counts(self):
        expected = {
            "resnet20-cifar10": 269_467,
            "densenet40-cifar10": 357_491,
            "resnet9-cifar10": 6_573_120,
            "vgg16-cifar10": 14_982_987,
            "resnet50-imagenet": 25_559_081,
            "vgg19-imagenet": 143_671_337,
            "ncf-movielens": 31_832_577,
            "lstm-ptb": 19_775_200,
            "unet-dagm": 1_850_305,
        }
        for key, params in expected.items():
            assert BENCHMARKS[key].paper.params == params

    def test_published_gradient_vector_counts(self):
        expected = {
            "resnet20-cifar10": 51, "densenet40-cifar10": 158,
            "resnet9-cifar10": 25, "vgg16-cifar10": 30,
            "resnet50-imagenet": 161, "vgg19-imagenet": 38,
            "ncf-movielens": 10, "lstm-ptb": 7, "unet-dagm": 46,
        }
        for key, vectors in expected.items():
            assert BENCHMARKS[key].paper.gradient_vectors == vectors

    def test_metrics_match_table2(self):
        assert BENCHMARKS["ncf-movielens"].paper.metric == "Best Hit Rate"
        assert BENCHMARKS["lstm-ptb"].paper.metric == "Test Perplexity"
        assert BENCHMARKS["unet-dagm"].paper.metric == "IoU"

    def test_tensor_sizes_sum_to_params(self):
        for spec in BENCHMARKS.values():
            sizes = spec.paper_tensor_sizes()
            assert sum(sizes) == spec.paper.params, spec.key
            assert len(sizes) == spec.paper.gradient_vectors, spec.key

    def test_tensor_sizes_deterministic(self):
        spec = get_benchmark("vgg16-cifar10")
        assert spec.paper_tensor_sizes() == spec.paper_tensor_sizes()

    def test_tensor_sizes_do_not_depend_on_the_hash_seed(self):
        # ``hash(str)`` is salted per process (PYTHONHASHSEED): two
        # processes with different salts must still agree.
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        code = (
            "from repro.bench.suite import BENCHMARKS;"
            "print([spec.paper_tensor_sizes() for spec in BENCHMARKS.values()])"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": salt},
            ).stdout
            for salt in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].strip() == str(
            [spec.paper_tensor_sizes() for spec in BENCHMARKS.values()]
        )

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("alexnet")


class TestOptimizerSelection:
    def test_vanilla_sgd_list_matches_paper(self):
        assert VANILLA_SGD_COMPRESSORS == {
            "powersgd", "randomk", "dgc", "signsgd", "signum",
        }

    def test_image_classification_splits_by_compressor(self):
        spec = get_benchmark("resnet20-cifar10")
        assert spec.optimizer_kind("topk") == "momentum-sgd"
        assert spec.optimizer_kind("powersgd") == "vanilla-sgd"

    def test_task_specific_optimizers(self):
        assert get_benchmark("ncf-movielens").optimizer_kind("topk") == "adam"
        assert get_benchmark("unet-dagm").optimizer_kind("topk") == "rmsprop"
        assert get_benchmark("lstm-ptb").optimizer_kind("topk") == "sgd"


class TestBuilders:
    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_every_benchmark_builds_and_runs_one_batch(self, key):
        spec = get_benchmark(key)
        run = spec.build(n_workers=2, seed=0)
        batches = next(iter(run.loader))
        loss, grads = run.task.forward_backward(*batches[0])
        assert loss > 0 or key == "lstm-ptb"
        assert grads
        run.task.apply_update(grads)
        quality = run.eval_fn()
        assert quality == quality  # not NaN

    def test_perf_model_built_per_spec(self):
        spec = get_benchmark("vgg16-cifar10")
        perf = spec.make_perf_model()
        assert perf.compute_seconds(spec.paper.batch_per_worker) == (
            pytest.approx(spec.paper.compute_seconds_per_iter)
        )


class TestPaperGradientTensors:
    def test_caps_tensor_sizes(self):
        spec = get_benchmark("vgg19-imagenet")
        tensors = paper_gradient_tensors(spec)
        assert max(t.size for t in tensors.values()) <= 1 << 20

    def test_one_entry_per_gradient_vector(self):
        spec = get_benchmark("lstm-ptb")
        assert len(paper_gradient_tensors(spec)) == 7
