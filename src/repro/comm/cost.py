"""Analytical collective cost model.

Standard alpha-beta estimates for the three primitives GRACE exposes:

* Ring **Allreduce** over ``n`` workers of an ``m``-byte tensor moves
  ``2 (n-1)/n * m`` bytes per link in ``2 (n-1)`` latency-bound steps.
* Ring **Allgather** moves ``(n-1)/n`` of the total gathered payload per
  link in ``n-1`` steps; with variable payloads the step cost is driven by
  the largest contribution still in flight, which we upper-bound by the
  per-step maximum contribution.
* **Broadcast** along a binomial tree of depth ``ceil(log2 n)``.

Beyond the ring collectives, the star (parameter-server) and two-tier
(rack-then-root) topologies price here too: :func:`ps_round_trip_time`,
:func:`ps_aggregated_round_trip_time` and
:func:`hierarchical_reduce_time`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.comm.backends import Backend
from repro.comm.network import NetworkModel


def _link_rate(net: NetworkModel, backend: Backend) -> float:
    return net.effective_bytes_per_second * backend.collective_efficiency


def ring_allreduce_time(
    nbytes: int | float, n_workers: int, net: NetworkModel, backend: Backend
) -> float:
    """Seconds for a ring Allreduce of one ``nbytes`` tensor."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if n_workers == 1:
        return backend.per_op_overhead_s
    steps = 2 * (n_workers - 1)
    payload = 2.0 * (n_workers - 1) / n_workers * nbytes
    return (
        backend.per_op_overhead_s
        + steps * net.message_latency_s
        + payload / _link_rate(net, backend)
    )


def fused_allreduce_time(
    part_nbytes: Sequence[int | float],
    n_workers: int,
    net: NetworkModel,
    backend: Backend,
) -> float:
    """Seconds for one Allreduce moving several payload parts as one message.

    This is the fusion-buffer accounting: the parts travel back-to-back,
    so the per-op overhead and the ``2(n-1)`` latency-bound steps are
    paid once for the whole batch instead of once per part — only the
    bandwidth term grows with the summed size.
    """
    if any(b < 0 for b in part_nbytes):
        raise ValueError("part sizes must be non-negative")
    return ring_allreduce_time(
        float(sum(part_nbytes)), n_workers, net, backend
    )


def allgather_time(
    payload_nbytes: Sequence[int | float],
    net: NetworkModel,
    backend: Backend,
) -> float:
    """Seconds for an Allgather where rank ``i`` contributes ``payload_nbytes[i]``."""
    n_workers = len(payload_nbytes)
    if n_workers < 1:
        raise ValueError("at least one payload required")
    if any(b < 0 for b in payload_nbytes):
        raise ValueError("payload sizes must be non-negative")
    if n_workers == 1:
        return backend.per_op_overhead_s
    steps = n_workers - 1
    # Ring allgather: each step forwards one rank's (possibly variable-size)
    # contribution; with unequal payloads every step is paced by the largest
    # block travelling that step, bounded by the global maximum contribution.
    per_step_bytes = max(payload_nbytes)
    return (
        backend.per_op_overhead_s
        + steps * (net.message_latency_s + per_step_bytes / _link_rate(net, backend))
    )


def sparse_allreduce_time(
    union_nbytes: int | float,
    bitmap_nbytes: int | float,
    n_workers: int,
    net: NetworkModel,
    backend: Backend,
) -> float:
    """Seconds for an OmniReduce-style block-sparse Allreduce.

    Only the union of the workers' non-zero blocks travels the ring
    (plus a per-worker block bitmap for coordination); zero blocks are
    skipped entirely — the related-work §VI "sends the non-zero gradient
    blocks" design.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if union_nbytes < 0 or bitmap_nbytes < 0:
        raise ValueError("byte counts must be non-negative")
    if n_workers == 1:
        return backend.per_op_overhead_s
    steps = 2 * (n_workers - 1)
    payload = 2.0 * (n_workers - 1) / n_workers * union_nbytes + bitmap_nbytes
    return (
        backend.per_op_overhead_s
        + steps * net.message_latency_s
        + payload / _link_rate(net, backend)
    )


def ps_round_trip_time(
    upload_nbytes: Sequence[int | float],
    download_nbytes: Sequence[int | float],
    net: NetworkModel,
    backend: Backend,
) -> float:
    """Push-then-pull time through a single parameter server.

    Uploads serialize on the server's ingress link; downloads serialize
    on its egress.  Each direction pays one message latency per worker
    regardless of payload size — so ``download_nbytes`` is *per worker*:
    the legacy relay fan-out passes ``[sum(uploads)] * n`` (every rank
    pulls everyone's payload), while compressed-domain aggregation
    passes ``[aggregated] * n`` (every rank pulls the one summed
    payload; only the bandwidth term shrinks, the ``n`` latencies
    remain).  The one-worker round trip degenerates to a self-push and
    self-pull: two message latencies plus the worker's own bytes.
    """
    if len(upload_nbytes) != len(download_nbytes):
        raise ValueError("upload and download lists must align per worker")
    if any(b < 0 for b in list(upload_nbytes) + list(download_nbytes)):
        raise ValueError("byte counts must be non-negative")
    rate = _link_rate(net, backend)
    n_workers = len(upload_nbytes)
    push = n_workers * net.message_latency_s + sum(upload_nbytes) / rate
    pull = n_workers * net.message_latency_s + sum(download_nbytes) / rate
    return backend.per_op_overhead_s + push + pull


def ps_aggregated_round_trip_time(
    upload_nbytes: Sequence[int | float],
    aggregated_nbytes: int | float,
    net: NetworkModel,
    backend: Backend,
) -> float:
    """PS round trip when the server sums payloads in the compressed domain.

    Uploads are unchanged; the fan-out ships the single aggregated
    payload to every worker, so the egress bandwidth term is
    ``aggregated·n / rate`` instead of the relay's ``sum(uploads)·n /
    rate``.  An aggregate can be as wide as a dense float32 sum, wider
    than a few compact uploads; the parameter server prices both and,
    for exact-linear schemes, relays when that is cheaper.
    """
    if aggregated_nbytes < 0:
        raise ValueError("aggregated_nbytes must be non-negative")
    return ps_round_trip_time(
        upload_nbytes,
        [float(aggregated_nbytes)] * len(upload_nbytes),
        net,
        backend,
    )


def hierarchical_reduce_time(
    member_nbytes: Sequence[Sequence[int | float]],
    leader_nbytes: Sequence[int | float],
    root_nbytes: int | float,
    net: NetworkModel,
    backend: Backend,
) -> float:
    """Two-tier (rack-then-root) reduce-broadcast time.

    Models in-network / switch-level aggregation: rack ``k``'s members
    push ``member_nbytes[k]`` into their rack leader concurrently across
    racks (phase 1, the slowest rack paces the step); the ``K`` leaders
    push their rack-level aggregates ``leader_nbytes`` into the root
    (phase 2); the root fans one ``root_nbytes`` result back to the
    leaders (phase 3); and each leader fans it to its members, again
    concurrently across racks (phase 4).
    """
    if len(member_nbytes) != len(leader_nbytes):
        raise ValueError("one leader size per rack required")
    if not member_nbytes:
        raise ValueError("at least one rack required")
    if root_nbytes < 0:
        raise ValueError("root_nbytes must be non-negative")
    if any(b < 0 for b in leader_nbytes):
        raise ValueError("byte counts must be non-negative")
    for rack in member_nbytes:
        if any(b < 0 for b in rack):
            raise ValueError("byte counts must be non-negative")
    rate = _link_rate(net, backend)
    latency = net.message_latency_s
    n_racks = len(member_nbytes)
    gather = max(
        len(rack) * latency + sum(rack) / rate for rack in member_nbytes
    )
    uplink = n_racks * latency + sum(leader_nbytes) / rate
    downlink = n_racks * latency + n_racks * float(root_nbytes) / rate
    scatter = max(
        len(rack) * latency + len(rack) * float(root_nbytes) / rate
        for rack in member_nbytes
    )
    return backend.per_op_overhead_s + gather + uplink + downlink + scatter


def broadcast_time(
    nbytes: int | float, n_workers: int, net: NetworkModel, backend: Backend
) -> float:
    """Seconds for a binomial-tree Broadcast of one ``nbytes`` tensor."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if n_workers == 1:
        return backend.per_op_overhead_s
    depth = math.ceil(math.log2(n_workers))
    return backend.per_op_overhead_s + depth * (
        net.message_latency_s + nbytes / _link_rate(net, backend)
    )
