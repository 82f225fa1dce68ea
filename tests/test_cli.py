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

    @pytest.mark.parametrize("method", ["topk", "powersgd"])
    @pytest.mark.parametrize("elements", [1, 3, 1000, 65536])
    def test_compress_takes_exactly_n_elements(self, method, elements,
                                               capsys):
        assert main(["compress", "--method", method,
                     "--elements", str(elements)]) == 0
        assert (f"{elements} elements ({4 * elements:,} bytes)"
                in capsys.readouterr().out)

    def test_compress_unknown_method(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["compress", "--method", "gzip"])
        message = str(exit_info.value.code)
        assert message.startswith("unknown compressor 'gzip'; available:")
        assert "\n" not in message

    def test_compress_unknown_param(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["compress", "--method", "qsgd", "--param", "bits=4"])
        assert str(exit_info.value.code) == (
            "unknown parameter 'bits' for compressor 'qsgd'; "
            "available: ['levels']"
        )

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
        ["train", "--backend", "parallel", "--workers", "2"],
        ["profile", "--workers", "2"],
        ["profile", "--backend", "parallel", "--workers", "2"],
        ["chaos", "--trials", "1"],
    ])
    def test_unknown_compressor_is_one_line(self, argv, monkeypatch):
        # The simulator used to print a KeyError traceback, and the
        # parallel backend spawned its ranks before failing.
        import repro.bench.runner
        import repro.comm.parallel

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the compressor")

        monkeypatch.setattr(repro.bench.runner, "run_cell", no_training)
        monkeypatch.setattr(repro.comm.parallel.RANK_CONTEXT.Process,
                            "start", no_training)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--benchmark", "ncf-movielens",
                  "--compressor", "nope"])
        message = str(exit_info.value.code)
        assert message.startswith("unknown compressor 'nope'; available:")
        assert "topk" in message and "\n" not in message

    @pytest.mark.parametrize("argv, message", [
        (["train", "--workers", "0"], "workers must be >= 1, got 0"),
        (["train", "--epochs", "0"], "epochs must be >= 1, got 0"),
        (["train", "--fusion-mb", "-1"], "fusion_mb must be >= 0, got -1.0"),
        (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--topology", "hier", "--racks", "9"],
         "racks must be in [1, 4], got 9"),
        (["train", "--backend", "parallel", "--workers", "2", "--epochs",
          "0"], "epochs must be >= 1, got 0"),
        (["train", "--backend", "parallel", "--workers", "0"],
         "workers must be >= 1, got 0"),
        (["profile", "--workers", "0"], "workers must be >= 1, got 0"),
        (["profile", "--backend", "parallel", "--epochs", "0"],
         "epochs must be >= 1, got 0"),
        (["chaos", "--workers", "0"], "workers must be >= 1, got 0"),
        (["chaos", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--compressor", "topk", "--param", "nope=1"],
         "unknown parameter 'nope' for compressor 'topk'; available: "
         "['ratio', 'index_encoding']"),
        (["train", "--backend", "parallel", "--workers", "2",
          "--compressor", "topk", "--param", "seed=3"],
         "unknown parameter 'seed' for compressor 'topk'; available: "
         "['ratio', 'index_encoding']"),
    ])
    def test_out_of_range_is_one_line(self, argv, message, monkeypatch):
        # Each used to end in a traceback from deep inside the run, or
        # in spawned ranks that each built a trainer and then raised.
        import glob

        import repro.bench.runner
        import repro.comm.parallel

        def no_run(*args, **kwargs):
            raise AssertionError("ran a cell that is out of range")

        monkeypatch.setattr(repro.bench.runner, "run_cell", no_run)
        monkeypatch.setattr(repro.comm.parallel, "run_parallel", no_run)
        monkeypatch.setattr(repro.comm.parallel.RANK_CONTEXT.Process,
                            "start", no_run)
        segments = set(glob.glob("/dev/shm/psm_*"))
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--benchmark", "ncf-movielens"])
        assert str(exit_info.value.code) == message
        assert set(glob.glob("/dev/shm/psm_*")) == segments

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Measured ratio" in capsys.readouterr().out

    def test_experiment_fig6_subset(self, capsys):
        code = main(["experiment", "fig6", "--panels", "d",
                     "--compressors", "none,topk", "--epochs", "1"])
        assert code == 0
        assert "Rel. throughput" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "fig99"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'fig99'" in capsys.readouterr().err


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
                  "--workers", "2", "--faults", "crash@3:rank=9",
                  "--recovery", "restart"])

    def test_parallel_flags_parse(self, capsys):
        # --workers/--backend must parse; an unknown benchmark exits
        # before any worker processes spawn.
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["train", "--benchmark", "alexnet",
                  "--compressor", "topk", "--backend", "parallel",
                  "--workers", "2"])

    def test_sim_backend_rejects_stall(self):
        # It used to end in a traceback from the trainer's constructor.
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--benchmark", "ncf-movielens",
                  "--faults", "stall@3:rank=1"])
        assert str(exit_info.value.code).startswith(
            "'stall' is a real-parallel-only fault kind")

    @pytest.mark.parametrize("level", ["arena", "all"])
    def test_sim_backend_rejects_arena_sanitizer(self, level):
        # It used to be accepted and ignored: the run trained without it
        # and exited 0.
        with pytest.raises(SystemExit,
                           match="--sanitize.*requires --backend parallel"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--workers", "2",
                  "--epochs", "1", "--sanitize", level])

    @pytest.mark.parametrize("backend", [
        ["--workers", "2"],
        ["--backend", "parallel", "--workers", "2"],
    ])
    def test_unwritable_trace_exits_before_training(self, backend, tmp_path):
        # The parallel backend used to train the whole run first, then
        # die with a FileNotFoundError traceback.
        trace = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        with pytest.raises(SystemExit, match="cannot write"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--compressor", "topk", "--epochs", "1", *backend,
                  "--trace", str(trace)])

    def test_refused_run_leaves_no_trace(self, tmp_path):
        # The early writability check used to create the file it checked.
        trace = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit, match="drop"):
            main(["train", "--benchmark", "ncf-movielens",
                  "--backend", "parallel", "--workers", "2",
                  "--faults", "drop@1:p=0.5", "--trace", str(trace)])
        assert not trace.exists()

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

    def test_profile_runs_the_given_rank_count(self, monkeypatch):
        # --workers counts the ranks on both backends; the parallel
        # profiler used to ignore it and run four.
        import repro.comm.parallel

        configs = []

        def capture(config):
            configs.append(config)
            raise SystemExit("captured")

        monkeypatch.setattr(repro.comm.parallel, "run_parallel", capture)
        with pytest.raises(SystemExit, match="captured"):
            main(["profile", "--benchmark", "ncf-movielens",
                  "--backend", "parallel", "--workers", "2"])
        (config,) = configs
        assert config.cell.workers == 2 and config.profile


class TestUnreadFlags:
    """A flag the chosen backend or topology does not read exits with
    one line naming it; each used to be accepted and ignored."""

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--backend", "parallel", "--racks", "7"], "--racks"),
        (["train", "--backend", "parallel", "--aggregation", "all"],
         "--aggregation"),
        (["train", "--racks", "7"], "--racks"),
        (["train", "--topology", "ps", "--racks", "3"], "--racks"),
        (["train", "--aggregation", "all"], "--aggregation"),
        (["train", "--checkpoint-dir", "ckpt"], "--checkpoint-dir"),
    ])
    def test_one_line_exit(self, argv, flag, tmp_path, monkeypatch):
        import repro.bench.runner

        def no_training(*args, **kwargs):
            raise AssertionError("trained with an unread flag")

        monkeypatch.setattr(repro.bench.runner, "run_cell", no_training)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--benchmark", "ncf-movielens"])
        message = str(exit_info.value.code)
        assert message.startswith(f"{flag} requires ")
        assert "\n" not in message
        assert list(tmp_path.iterdir()) == []


class TestUndeclaredFlags:
    """Each bench suite, experiment and command declares exactly the
    flags it reads, so argparse refuses any other: a usage error (exit
    2) naming it, before anything is trained or written."""

    @pytest.mark.parametrize("argv, named", [
        (["bench", "overlap", "--compressor", "nope"], "--compressor"),
        (["bench", "overlap", "--iterations", "3"], "--iterations"),
        (["bench", "faults", "--workers", "4"], "--workers"),
        (["bench", "faults", "--iterations", "5"], "--iterations"),
        (["bench", "fusion", "--parallel"], "--parallel"),
        (["bench", "compare", "a.json", "b.json", "--workers", "2"],
         "--workers"),
        (["bench", "compare", "a.json", "b.json", "--out", "c.json"],
         "--out"),
        (["bench", "compare", "a.json", "b.json", "--check"], "--check"),
        (["bench", "compare", "a.json", "b.json", "--record"], "--record"),
        (["bench", "faults", "stray.json"], "stray.json"),
        (["bench", "compare", "a.json"], "REF"),
        (["bench", "nope"], "invalid choice: 'nope'"),
        (["experiment", "table1", "--compressors", "topk"], "--compressors"),
        (["experiment", "fig9", "--panels", "a"], "--panels"),
        (["experiment", "table1", "--epochs", "0"], "--epochs"),
        # It used to exit 0 and ignore every cell flag: profile always
        # trains, and a saved trace is report's.
        (["profile", "--trace", "t.jsonl", "--workers", "8", "--backend",
          "parallel", "--epochs", "0"], "--benchmark"),
        (["profile", "--benchmark", "ncf-movielens", "--trace", "t.jsonl"],
         "--trace"),
    ])
    def test_usage_error(self, argv, named, tmp_path, monkeypatch, capsys):
        import repro.bench.runner

        def no_training(*args, **kwargs):
            raise AssertionError("trained with an undeclared flag")

        monkeypatch.setattr(repro.bench.runner, "run_cell", no_training)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBenchInputErrors:
    """Bad `repro bench` input ends in one line, like `repro train`'s."""

    @pytest.mark.parametrize("argv, message", [
        (["fusion", "--compressor", "nope", "--workers", "2",
          "--iterations", "1"],
         "bench fusion: unknown compressor 'nope'"),
        (["fusion", "--iterations", "0"],
         "bench fusion: iterations must be >= 1"),
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
        import repro.comm.parallel

        def start(worker):
            raise AssertionError("spawned a rank on bad input")

        monkeypatch.setattr(repro.comm.parallel.RANK_CONTEXT.Process,
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

    def test_refused_run_leaves_no_record(self, tmp_path):
        # The early writability check used to create the file it checked.
        out = tmp_path / "BENCH_chaos.json"
        with pytest.raises(SystemExit, match=">= 1 trial, got 0"):
            main(["chaos", "--trials", "0", "--out", str(out)])
        assert not out.exists()


class TestOneLineRefusals:
    """`protocol-check`, `experiment` and `compress` refuse out-of-range
    input with one line; each used to end in a traceback, a NaN or a
    verdict over empty programs (undeclared `experiment` flags are in
    :class:`TestUndeclaredFlags`)."""

    @pytest.mark.parametrize("argv, message", [
        (["protocol-check", "--seqs", "0"], "--seqs must be >= 1, got 0"),
        (["protocol-check", "--seqs", "-5"], "--seqs must be >= 1, got -5"),
        (["experiment", "fig6", "--compressors", "nope"],
         "unknown compressor 'nope'; available: "),
        (["experiment", "fig6", "--panels", "zz"],
         "unknown fig6 panel 'zz'; choose from a, b, c, d, e, f"),
        (["experiment", "fig6", "--epochs", "0"],
         "--epochs must be >= 1, got 0"),
        (["compress", "--method", "topk", "--elements", "-3"],
         "--elements must be >= 1, got -3"),
        (["compress", "--method", "topk", "--elements", "0"],
         "--elements must be >= 1, got 0"),
    ])
    def test_one_line_exit(self, argv, message, monkeypatch):
        import repro.analysis.protocol
        import repro.bench.runner

        def no_run(*args, **kwargs):
            raise AssertionError("ran with input it should refuse")

        monkeypatch.setattr(repro.bench.runner, "run_cell", no_run)
        monkeypatch.setattr(repro.analysis.protocol, "check", no_run)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert str(exit_info.value.code).startswith(message)
        assert "\n" not in str(exit_info.value.code)

    def test_protocol_check_state_cap_is_one_line(self, monkeypatch):
        import repro.analysis.protocol

        monkeypatch.setattr(repro.analysis.protocol, "MAX_STATES", 10)
        with pytest.raises(SystemExit) as exit_info:
            main(["protocol-check", "--seqs", "1"])
        assert str(exit_info.value.code).startswith("more than 10 states")


def test_protocol_check_writes_every_scenario(tmp_path, capsys):
    import json

    out = tmp_path / "PROTOCOL_CHECK.json"
    assert main(["protocol-check", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["ok"]
    assert len(summary["scenarios"]) == 8
    for scenario in summary["scenarios"].values():
        assert scenario["states"] > 0
        assert scenario["executions"] > 0
        assert "terminals" in scenario
    assert capsys.readouterr().out.endswith("protocol-check   : ok\n")
