"""Command-line interface."""

import pytest

from repro.cli import _parse_params, main


class TestParseParams:
    def test_typed_values(self):
        params = _parse_params(["ratio=0.05", "levels=16", "flag=true",
                                "name=abc"])
        assert params == {"ratio": 0.05, "levels": 16, "flag": True,
                          "name": "abc"}

    def test_rejects_malformed(self):
        with pytest.raises(SystemExit, match="key=value"):
            _parse_params(["oops"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "signsgd" in out and "Extensions" in out

    def test_compress(self, capsys):
        code = main(["compress", "--method", "topk", "--elements", "4096",
                     "--param", "ratio=0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wire size" in out and "compression" in out

    def test_compress_unknown_method(self):
        with pytest.raises(KeyError, match="unknown compressor"):
            main(["compress", "--method", "gzip"])

    def test_train(self, capsys):
        code = main(["train", "--benchmark", "ncf-movielens",
                     "--compressor", "topk", "--workers", "2",
                     "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Best Hit Rate" in out

    def test_train_unknown_benchmark(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["train", "--benchmark", "alexnet"])

    @pytest.mark.parametrize("argv", [
        ["train", "--workers", "2"],
        ["train", "--backend", "parallel", "--nproc", "2"],
        ["profile", "--workers", "2"],
        ["profile", "--backend", "parallel", "--nproc", "2"],
        ["chaos", "--trials", "1"],
    ])
    def test_unknown_compressor_is_one_line(self, argv, monkeypatch):
        # The simulator used to print a KeyError traceback, and the
        # parallel backend spawned its ranks before failing.
        import multiprocessing

        import repro.bench.runner

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the compressor")

        monkeypatch.setattr(repro.bench.runner, "train_quality", no_training)
        monkeypatch.setattr(multiprocessing.get_context("spawn").Process,
                            "start", no_training)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--benchmark", "ncf-movielens",
                  "--compressor", "nope"])
        message = str(exit_info.value.code)
        assert message.startswith("unknown compressor 'nope'; available:")
        assert "topk" in message and "\n" not in message

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Measured ratio" in capsys.readouterr().out

    def test_experiment_fig6_subset(self, capsys):
        code = main(["experiment", "fig6", "--panels", "d",
                     "--compressors", "none,topk", "--epochs", "1"])
        assert code == 0
        assert "Rel. throughput" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "fig99"])


class TestParallelBackendFlags:
    """Flag validation for --backend parallel (no processes spawned)."""

    def test_rejects_non_flat_topology(self):
        with pytest.raises(SystemExit, match="flat topology"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--backend", "parallel",
                  "--topology", "ps"])

    def test_rejects_sim_only_fault_kinds(self):
        # corrupt/drop/degrade mutate in-process wire bytes; the parallel
        # backend only injects real process faults (crash/straggler/stall).
        with pytest.raises(SystemExit, match="corrupt"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--backend", "parallel",
                  "--faults", "corrupt@5-20:rank=1,bits=8"])

    def test_rejects_backup_straggler_policy(self):
        with pytest.raises(SystemExit, match="sequential-only"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--backend", "parallel",
                  "--straggler-policy", "backup"])

    def test_rejects_drop_policy_under_restart(self):
        with pytest.raises(SystemExit, match="requires --recovery degrade"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--backend", "parallel",
                  "--straggler-policy", "drop", "--recovery", "restart"])

    def test_rejects_rejoin_under_degrade(self):
        with pytest.raises(SystemExit, match="never re-admits"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--backend", "parallel",
                  "--faults", "crash@3:rank=1,rejoin=5",
                  "--recovery", "degrade"])

    def test_rejects_fault_rank_out_of_range(self):
        with pytest.raises(SystemExit, match="targets rank 9"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--backend", "parallel",
                  "--nproc", "2", "--faults", "crash@3:rank=9",
                  "--recovery", "restart"])

    def test_sim_backend_rejects_checkpoint_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="--backend parallel"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk",
                  "--checkpoint-dir", str(tmp_path)])

    def test_parallel_flags_parse(self, capsys):
        # --nproc/--arena-mb/--backend must parse; an unknown benchmark
        # exits before any worker processes spawn.
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["train", "--benchmark", "alexnet",
                  "--compressor", "topk", "--backend", "parallel",
                  "--nproc", "2", "--arena-mb", "8"])

    @pytest.mark.parametrize("flags", [
        ["--nproc", "2"],
        ["--arena-mb", "8"],
        ["--stall-timeout", "5"],
        ["--sanitize", "arena"],
        ["--sanitize", "all"],
    ])
    def test_sim_backend_rejects_parallel_only_flags(self, flags):
        # These used to be accepted and ignored: the run trained without
        # them and exited 0.
        with pytest.raises(SystemExit,
                           match=f"{flags[0]}.*requires --backend parallel"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--workers", "2",
                  "--epochs", "1", *flags])

    @pytest.mark.parametrize("backend", [
        ["--workers", "2"],
        ["--backend", "parallel", "--nproc", "2"],
    ])
    def test_unwritable_trace_exits_before_training(self, backend, tmp_path):
        # The parallel backend used to train the whole run first, then
        # die with a FileNotFoundError traceback.
        trace = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        with pytest.raises(SystemExit, match="cannot write"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--epochs", "1", *backend,
                  "--trace", str(trace)])

    def test_parallel_backend_rejects_workers(self):
        with pytest.raises(SystemExit, match="--workers requires --backend sim"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--backend", "parallel",
                  "--workers", "2"])

    def test_sanitize_takes_a_level(self):
        from repro.cli import build_parser

        parser = build_parser()
        base = ["train", "--benchmark", "ncf-movielens"]
        assert parser.parse_args(base).sanitize == "off"
        assert parser.parse_args(base + ["--sanitize"]).sanitize == "contract"
        assert parser.parse_args(
            base + ["--sanitize", "all"]
        ).sanitize == "all"
        with pytest.raises(SystemExit):
            parser.parse_args(base + ["--sanitize-every", "5"])

    def test_bench_parallel_flag_parses(self):
        with pytest.raises(SystemExit, match="unknown benchmark 'alexnet'"):
            main(["bench", "throughput", "--benchmark", "alexnet",
                  "--parallel", "--nproc", "2"])


class TestBenchInputErrors:
    """Bad `repro bench` input ends in one line, like `repro train`'s."""

    @pytest.mark.parametrize("argv, message", [
        (["fusion", "--benchmark", "alexnet"],
         "bench fusion: unknown benchmark 'alexnet'"),
        (["fusion", "--compressor", "nope", "--workers", "2",
          "--iterations", "1"],
         "bench fusion: unknown compressor 'nope'"),
        (["overlap", "--networks", "3gbps-foo"],
         "bench overlap: unknown network profile '3gbps-foo'"),
        (["faults", "--iterations", "5"],
         "bench faults: iterations must be > 20"),
    ])
    def test_one_line_exit(self, argv, message, tmp_path):
        out = str(tmp_path / "never.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *argv, "--out", out])
        assert str(exit_info.value.code).startswith(message)
        assert "\n" not in str(exit_info.value.code)
        assert not (tmp_path / "never.json").exists()


class TestChaosInputErrors:
    """`repro chaos` rejects bad input before its clean run."""

    @pytest.fixture(autouse=True)
    def no_spawns(self, monkeypatch):
        import multiprocessing

        def start(worker):
            raise AssertionError("spawned a rank on bad input")

        monkeypatch.setattr(multiprocessing.get_context("spawn").Process,
                            "start", start)

    def test_unwritable_out(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "BENCH_chaos.json"
        with pytest.raises(SystemExit, match="cannot write"):
            main(["chaos", "--trials", "1", "--out", str(out)])

    def test_no_trials(self):
        with pytest.raises(SystemExit, match=">= 1 trial, got 0"):
            main(["chaos", "--trials", "0"])

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit, match="unknown benchmark 'nope'"):
            main(["chaos", "--benchmark", "nope", "--trials", "1"])
