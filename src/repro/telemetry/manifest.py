"""Metric-name manifest — GENERATED, do not edit by hand.

Regenerate with ``python -m repro.analysis.lint.manifest`` after adding
or renaming a metric; GR011 flags any literal metric name that is not a
key here, and ``tests/analysis/lint/test_metric_manifest.py`` fails if
this file is stale.  Values are the registration kinds each name is
used with.
"""

METRIC_MANIFEST: dict[str, tuple[str, ...]] = {
    "aborted_iterations_total": ("counter",),
    "arena_polls_total": ("counter",),
    "arena_sanitizer_events_total": ("counter",),
    "arena_sanitizer_violations_total": ("counter",),
    "arena_wait_seconds": ("histogram",),
    "checkpoints_total": ("counter",),
    "comm_bytes_per_worker_total": ("counter",),
    "comm_checksum_failures_total": ("counter",),
    "comm_fault_overhead_seconds_total": ("counter",),
    "comm_op_bytes_per_worker": ("histogram",),
    "comm_op_bytes_per_worker_total": ("counter",),
    "comm_op_count_total": ("counter",),
    "comm_op_sim_seconds_total": ("counter",),
    "comm_ops_total": ("counter",),
    "comm_root_bytes_total": ("counter",),
    "comm_sim_seconds_total": ("counter",),
    "comm_workers_killed_total": ("counter",),
    "compress_kernel_seconds": ("histogram",),
    "compress_raw_bytes_total": ("counter",),
    "compress_wire_bytes_total": ("counter",),
    "degraded_iterations_total": ("counter",),
    "ef_residual_norm": ("histogram",),
    "faults_injected_total": ("counter",),
    "fusion_bucket_bytes": ("histogram",),
    "fusion_buckets_total": ("counter",),
    "grad_l2": ("histogram",),
    "recoveries_total": ("counter",),
    "retransmit_bytes_total": ("counter",),
    "retries_total": ("counter",),
    "stale_gradients_applied_total": ("counter",),
    "stale_gradients_dropped_total": ("counter",),
    "train_bytes_per_worker_total": ("counter",),
    "train_iterations_total": ("counter",),
    "train_measured_compression_seconds_total": ("counter",),
    "train_overlap_fraction": ("gauge",),
    "train_samples_total": ("counter",),
    "train_sim_comm_seconds_total": ("counter",),
    "train_sim_compression_seconds_total": ("counter",),
    "train_sim_compute_seconds_total": ("counter",),
    "train_sim_exposed_comm_seconds_total": ("counter",),
    "train_sim_hidden_comm_seconds_total": ("counter",),
    "train_sim_makespan_seconds_total": ("counter",),
    "train_sim_recovery_seconds_total": ("counter",),
    "wire_framing_overhead_bytes_total": ("counter",),
}
