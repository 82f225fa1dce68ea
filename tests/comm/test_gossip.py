"""Gossip topologies and the neighbourhood exchange."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.comm import (
    GossipCommunicator,
    OPENMPI_TCP,
    complete_topology,
    ethernet,
    random_regular_topology,
    ring_topology,
)


def test_importing_the_package_leaves_networkx_out():
    """networkx costs 120-260 ms to import and only the overlay builders
    use it; every spawned rank and every CLI call imports ``repro``."""
    script = (
        "import sys, repro, repro.comm.parallel, repro.bench.runner\n"
        "assert 'networkx' not in sys.modules, 'imported at start-up'\n"
        "from repro.comm import ring_topology\n"
        "ring = ring_topology(4)\n"
        "assert ring.neighbors(0) == [1, 3] and ring.degree(2) == 2\n"
        "assert 'networkx' in sys.modules\n"
    )
    src = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


class TestTopologies:
    def test_ring_neighbours(self):
        topology = ring_topology(5)
        assert topology.neighbors(0) == [1, 4]
        assert topology.degree(2) == 2

    def test_complete_neighbours(self):
        topology = complete_topology(4)
        assert topology.neighbors(0) == [1, 2, 3]

    def test_random_regular_is_regular_and_connected(self):
        topology = random_regular_topology(10, degree=3, seed=1)
        assert all(topology.degree(i) == 3 for i in range(10))

    def test_mixing_matrix_doubly_stochastic(self):
        for topology in (ring_topology(6), complete_topology(5),
                         random_regular_topology(8, 3)):
            matrix = topology.mixing_matrix()
            np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-9)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_mixing_converges_to_mean(self):
        topology = ring_topology(8)
        matrix = topology.mixing_matrix()
        values = np.arange(8.0)
        mixed = values.copy()
        for _ in range(200):
            mixed = matrix @ mixed
        np.testing.assert_allclose(mixed, values.mean(), atol=1e-6)

    def test_complete_has_larger_spectral_gap_than_ring(self):
        assert (
            complete_topology(8).spectral_gap > ring_topology(8).spectral_gap
        )

    def test_validation(self):
        import networkx as nx

        with pytest.raises(ValueError, match="at least 2"):
            ring_topology(1)
        disconnected = nx.Graph()
        disconnected.add_nodes_from([0, 1, 2, 3])
        disconnected.add_edges_from([(0, 1), (2, 3)])
        from repro.comm.gossip import Topology

        with pytest.raises(ValueError, match="connected"):
            Topology(disconnected)
        with pytest.raises(ValueError, match="degree"):
            random_regular_topology(4, degree=4)


class TestGossipCommunicator:
    def test_delivery_to_neighbours_only(self):
        topology = ring_topology(4)
        comm = GossipCommunicator(topology, ethernet(10.0), OPENMPI_TCP)
        payloads = [[np.array([float(i)])] for i in range(4)]
        inbox = comm.exchange(payloads)
        # Node 0's neighbours on a 4-ring: 1 and 3.
        sources = sorted(source for source, _ in inbox[0])
        assert sources == [1, 3]
        values = sorted(p[0][0] for _, p in inbox[0])
        assert values == [1.0, 3.0]

    def test_costs_scale_with_degree(self):
        def round_seconds(topology):
            comm = GossipCommunicator(topology, ethernet(10.0), OPENMPI_TCP)
            payloads = [[np.zeros(1 << 16, np.float32)]] * topology.n_nodes
            comm.exchange(payloads)
            return comm.record.simulated_seconds

        # Complete graph: every node pushes n-1 copies; ring: 2 copies.
        assert round_seconds(complete_topology(8)) > 2 * round_seconds(
            ring_topology(8)
        )

    def test_rejects_wrong_payload_count(self):
        comm = GossipCommunicator(ring_topology(3))
        with pytest.raises(ValueError, match="payloads"):
            comm.exchange([[np.zeros(1)]])
