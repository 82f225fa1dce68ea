"""Positive and negative cases for the concurrency rules (GR007–GR011)
and the PR's GR005 extensions (handle constructors, recovery drains)."""

import textwrap

from repro.analysis.lint.engine import lint_source
from repro.analysis.lint.rules import (
    BlockingWhileUndrainedRule,
    MetricNameRule,
    SpawnSafetyRule,
    StoreBeforePublishRule,
    UncooperativePollLoopRule,
    UndrainedHandleRule,
)

COMM_PATH = "src/repro/comm/fake.py"
FAULTS_PATH = "src/repro/faults/fake.py"


def _lint(rule, source, path=COMM_PATH):
    return lint_source(textwrap.dedent(source), path, [rule])


class TestGR007StoreBeforePublish:
    def test_flags_payload_store_after_publication(self):
        findings = _lint(StoreBeforePublishRule(), """
            class Arena:
                def post(self, seq, raw, off, n):
                    self._posted[self.rank] = seq + 1
                    self._data[self.rank][off:off + n] = raw
        """)
        assert [f.rule_id for f in findings] == ["GR007"]
        assert "publication store" in findings[0].message

    def test_flags_meta_store_through_local_alias(self):
        findings = _lint(StoreBeforePublishRule(), """
            class Arena:
                def post(self, seq, off, n, kind):
                    slot = self._meta[self.rank, seq % 4]
                    self._posted[self.rank] = seq + 1
                    slot[0] = off
        """)
        assert len(findings) == 1
        assert "_meta" in findings[0].message

    def test_flags_unpublishing_writer_helper_after_publish(self):
        findings = _lint(StoreBeforePublishRule(), """
            class Arena:
                def _stamp(self, seq, off):
                    self._meta[self.rank, seq % 4][0] = off

                def post(self, seq, off):
                    self._posted[self.rank] = seq + 1
                    self._stamp(seq, off)
        """)
        assert len(findings) == 1
        assert "_stamp" in findings[0].message

    def test_write_first_publish_last_is_clean(self):
        findings = _lint(StoreBeforePublishRule(), """
            class Arena:
                def post(self, seq, raw, off, n, kind):
                    self._data[self.rank][off:off + n] = raw
                    slot = self._meta[self.rank, seq % 4]
                    slot[0] = off
                    slot[2] = kind
                    self._posted[self.rank] = seq + 1
        """)
        assert findings == []

    def test_complete_repost_helper_after_publish_is_clean(self):
        # A helper that writes AND re-publishes is a full next post.
        findings = _lint(StoreBeforePublishRule(), """
            class Arena:
                def post(self, seq, raw, off, n):
                    self._data[self.rank][off:off + n] = raw
                    self._posted[self.rank] = seq + 1

                def post_two(self, a, b, off, n):
                    self.post(0, a, off, n)
                    self.post(1, b, off, n)
        """)
        assert findings == []

    def test_out_of_scope_path_is_skipped(self):
        findings = _lint(StoreBeforePublishRule(), """
            class Arena:
                def post(self, seq, raw, off, n):
                    self._posted[self.rank] = seq + 1
                    self._data[self.rank][off:off + n] = raw
        """, path="src/repro/core/fake.py")
        assert findings == []


class TestGR008UncooperativePollLoop:
    def test_flags_sleep_loop_without_beat_or_abort(self):
        findings = _lint(UncooperativePollLoopRule(), """
            import time

            def wait_for(arena, seq):
                while arena.posted() <= seq:
                    time.sleep(0.0005)
        """)
        assert [f.rule_id for f in findings] == ["GR008"]
        assert "beat the heartbeat" in findings[0].message
        assert "check the abort word" in findings[0].message

    def test_flags_timed_event_wait_loop(self):
        findings = _lint(UncooperativePollLoopRule(), """
            def wait_for(done):
                while not done.is_set():
                    done.wait(0.01)
        """)
        assert len(findings) == 1

    def test_cooperative_loop_is_clean(self):
        findings = _lint(UncooperativePollLoopRule(), """
            import time

            def wait_for(self, seq):
                while self._posted[0] <= seq:
                    self._beat()
                    self._check_abort()
                    time.sleep(0.0005)
        """)
        assert findings == []

    def test_evidence_through_called_helper_is_clean(self):
        findings = _lint(UncooperativePollLoopRule(), """
            import time

            class Arena:
                def _tick(self):
                    self._hb_words[self.rank] += 1
                    if self._abort[0]:
                        raise RuntimeError

                def wait_for(self, seq):
                    while self._posted[0] <= seq:
                        self._tick()
                        time.sleep(0.0005)
        """)
        assert findings == []

    def test_flags_spin_loop_that_rereads_a_control_word(self):
        # The spin phase of a spin-then-sleep wait: no sleep anywhere,
        # the abort word is checked, but nothing beats — the watchdog
        # would convict a rank that is merely waiting.
        findings = _lint(UncooperativePollLoopRule(), """
            class Arena:
                def wait_posted(self, seq, rank):
                    while self._posted[rank] <= seq:
                        self._check_abort()
        """)
        assert [f.rule_id for f in findings] == ["GR008"]
        assert "beat the heartbeat" in findings[0].message
        assert "check the abort word" not in findings[0].message

    def test_flags_spin_on_an_aliased_control_word(self):
        findings = _lint(UncooperativePollLoopRule(), """
            class Arena:
                def wait_drained(self, horizon):
                    drained = self._drained
                    while min(drained) <= horizon:
                        pass
        """)
        assert len(findings) == 1
        assert "beat the heartbeat" in findings[0].message
        assert "check the abort word" in findings[0].message

    def test_flags_spin_that_polls_through_a_helper(self):
        findings = _lint(UncooperativePollLoopRule(), """
            class Arena:
                def arrived(self, seq, rank):
                    return self._posted[rank] > seq

                def wait_posted(self, seq, rank):
                    while not self.arrived(seq, rank):
                        self._beat()
        """)
        assert len(findings) == 1
        assert "check the abort word" in findings[0].message

    def test_cooperative_spin_then_sleep_loop_is_clean(self):
        findings = _lint(UncooperativePollLoopRule(), """
            import time

            class Arena:
                def _poll(self, ready, peer, spin_until):
                    value = ready()
                    while value is None:
                        self._beat()
                        self._check_abort()
                        if self._status[peer] == 2:
                            raise RuntimeError
                        if time.monotonic() > spin_until:
                            time.sleep(0.00005)
                        value = ready()
                    return value
        """)
        assert findings == []

    def test_non_sleeping_drain_loop_is_out_of_scope(self):
        findings = _lint(UncooperativePollLoopRule(), """
            def drain(queue):
                while queue:
                    queue.pop()
        """)
        assert findings == []


class TestGR009SpawnSafety:
    def test_flags_lambda_process_target(self):
        findings = _lint(SpawnSafetyRule(), """
            from multiprocessing import Process

            def launch():
                p = Process(target=lambda: None)
                p.start()
        """)
        assert [f.rule_id for f in findings] == ["GR009"]
        assert "lambda" in findings[0].message

    def test_flags_nested_function_target(self):
        findings = _lint(SpawnSafetyRule(), """
            from multiprocessing import Process

            def launch():
                def body():
                    pass
                p = Process(target=body)
                p.start()
        """)
        assert len(findings) == 1
        assert "nested function" in findings[0].message

    def test_flags_bound_method_target(self):
        findings = _lint(SpawnSafetyRule(), """
            from multiprocessing import Process

            class Pool:
                def launch(self):
                    return Process(target=self.body)
        """)
        assert len(findings) == 1
        assert "bound method" in findings[0].message

    def test_flags_live_parameters_in_checkpoint_payload(self):
        findings = _lint(SpawnSafetyRule(), """
            def snapshot(model, path):
                params = list(model.parameters())
                ckpt = WorkerCheckpoint(params, path)
                return ckpt
        """, path=FAULTS_PATH)
        assert len(findings) == 1
        assert "Parameter" in findings[0].message

    def test_flags_module_level_side_effect_in_spawning_module(self):
        findings = _lint(SpawnSafetyRule(), """
            from multiprocessing import Process

            configure_logging()

            def launch(worker_main, rank):
                return Process(target=worker_main, args=(rank,))
        """)
        assert len(findings) == 1
        assert "re-imports" in findings[0].message

    def test_module_level_function_target_and_guard_are_clean(self):
        findings = _lint(SpawnSafetyRule(), """
            from multiprocessing import Process

            def worker_main(rank):
                pass

            def launch(rank):
                return Process(target=worker_main, args=(rank,))

            if __name__ == "__main__":
                launch(0)
        """)
        assert findings == []

    def test_detached_arrays_in_payload_are_clean(self):
        findings = _lint(SpawnSafetyRule(), """
            def snapshot(model, path):
                arrays = [p.detach_array() for p in model.layers]
                return WorkerCheckpoint(arrays, path)
        """, path=FAULTS_PATH)
        assert findings == []


class TestGR010BlockingWhileUndrained:
    def test_flags_blocking_collective_over_live_handle(self):
        findings = _lint(BlockingWhileUndrainedRule(), """
            def step(comm, grad, ctrl):
                handle = comm.iallreduce_parts(grad)
                comm.exchange_objects(ctrl)
                return handle.wait()
        """)
        assert [f.rule_id for f in findings] == ["GR010"]
        assert "exchange_objects" in findings[0].message
        assert "handle" in findings[0].message

    def test_wait_before_blocking_is_clean(self):
        findings = _lint(BlockingWhileUndrainedRule(), """
            def step(comm, grad, ctrl):
                handle = comm.iallreduce_parts(grad)
                out = handle.wait()
                comm.exchange_objects(ctrl)
                return out
        """)
        assert findings == []

    def test_different_communicator_is_clean(self):
        findings = _lint(BlockingWhileUndrainedRule(), """
            def step(data_comm, ctrl_comm, grad, ctrl):
                handle = data_comm.iallreduce_parts(grad)
                ctrl_comm.barrier(ctrl)
                return handle.wait()
        """)
        assert findings == []

    def test_handed_off_handle_is_clean(self):
        findings = _lint(BlockingWhileUndrainedRule(), """
            def step(comm, grad, ctrl, pending):
                handle = comm.iallreduce_parts(grad)
                pending.append(handle)
                comm.exchange_objects(ctrl)
        """)
        assert findings == []


class TestGR011MetricNames:
    MANIFEST = {"known_total": ("counter",)}

    def test_flags_unknown_registration_read_and_field(self):
        findings = _lint(MetricNameRule(self.MANIFEST), """
            def record(metrics):
                metrics.counter("typo_total", 1)
                return metrics.value("also_missing")

            FIELDS = [_MetricField("third_missing", "c")]
        """)
        assert [f.rule_id for f in findings] == ["GR011"] * 3
        assert "typo_total" in findings[0].message

    def test_manifest_names_and_dynamic_names_are_clean(self):
        findings = _lint(MetricNameRule(self.MANIFEST), """
            def record(metrics, name):
                metrics.counter("known_total", 1)
                metrics.counter(name, 1)
                return metrics.value("known_total")
        """)
        assert findings == []

    def test_default_manifest_accepts_repo_metrics(self):
        findings = _lint(MetricNameRule(), """
            def record(metrics):
                metrics.counter("train_iterations_total", 1)
        """)
        assert findings == []


class TestGR005Extensions:
    def test_flags_discarded_handle_constructor(self):
        findings = _lint(UndrainedHandleRule(), """
            def step(comm, parts):
                ParallelAsyncHandle(comm, parts)
        """)
        assert [f.rule_id for f in findings] == ["GR005"]
        assert "ParallelAsyncHandle" in findings[0].message

    def test_flags_never_used_constructed_handle(self):
        findings = _lint(UndrainedHandleRule(), """
            def step(comm, parts):
                handle = ParallelAsyncHandle(comm, parts)
                return None
        """)
        assert len(findings) == 1

    def test_drain_only_on_recovery_path_is_clean(self):
        findings = _lint(UndrainedHandleRule(), """
            def step(comm, grad):
                handle = comm.iallreduce_parts(grad)
                try:
                    return comm.finish()
                except ArenaAbortedError:
                    handle.wait()
                    raise
        """)
        assert findings == []

    def test_returned_constructed_handle_is_clean(self):
        findings = _lint(UndrainedHandleRule(), """
            def issue(comm, parts):
                handle = ParallelAsyncHandle(comm, parts)
                return handle
        """)
        assert findings == []
