"""Gossip communication over ad-hoc P2P overlays.

The paper's related work (§VI) covers decentralized training where
"nodes communicate only with neighbours" and explicitly leaves
integrating P2P-overlay primitives into GRACE as future work — this
module is that integration.  A :class:`Topology` (ring, complete, or
random regular, built on ``networkx``) defines who talks to whom and the
Metropolis-Hastings mixing weights; :class:`GossipCommunicator` performs
one neighbourhood exchange per round, charging each node the serialized
cost of its own links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.comm.backends import Backend, OPENMPI_TCP
from repro.comm.collectives import CommRecord, Payload, payload_nbytes
from repro.comm.network import NetworkModel, ethernet

if TYPE_CHECKING:
    # networkx takes 120-260 ms to import and only the overlay code below
    # uses it: it is imported where a graph is built or checked, so that
    # `import repro` — every spawned rank, every CLI call — does not pay.
    import networkx as nx


class Topology:
    """A connected overlay graph with Metropolis-Hastings mixing weights.

    Mixing weights ``W_ij = 1 / (1 + max(deg_i, deg_j))`` for edges,
    ``W_ii = 1 - Σ_j W_ij`` — symmetric, doubly stochastic, the standard
    choice that makes gossip averaging converge to the true mean.
    """

    def __init__(self, graph: nx.Graph):
        import networkx as nx

        if graph.number_of_nodes() < 2:
            raise ValueError("topology needs at least 2 nodes")
        if not nx.is_connected(graph):
            raise ValueError("topology must be connected")
        expected = set(range(graph.number_of_nodes()))
        if set(graph.nodes) != expected:
            raise ValueError("nodes must be labeled 0..n-1")
        self.graph = graph
        self.n_nodes = graph.number_of_nodes()

    def neighbors(self, node: int) -> list[int]:
        """Sorted neighbour list of a node."""
        return sorted(self.graph.neighbors(node))

    def degree(self, node: int) -> int:
        """Number of overlay links at a node."""
        return self.graph.degree(node)

    def mixing_weight(self, i: int, j: int) -> float:
        """W_ij (Metropolis-Hastings)."""
        if i == j:
            return 1.0 - sum(
                self.mixing_weight(i, k) for k in self.neighbors(i)
            )
        if not self.graph.has_edge(i, j):
            return 0.0
        return 1.0 / (1.0 + max(self.degree(i), self.degree(j)))

    def mixing_matrix(self) -> np.ndarray:
        """The full n×n mixing matrix W."""
        matrix = np.zeros((self.n_nodes, self.n_nodes))
        for i in range(self.n_nodes):
            for j in range(self.n_nodes):
                matrix[i, j] = self.mixing_weight(i, j)
        return matrix

    @property
    def spectral_gap(self) -> float:
        """1 - λ₂(W): larger means faster consensus."""
        eigenvalues = np.sort(np.abs(np.linalg.eigvalsh(self.mixing_matrix())))
        return float(1.0 - eigenvalues[-2])


def ring_topology(n_nodes: int) -> Topology:
    """Each node talks to its two ring neighbours."""
    import networkx as nx

    return Topology(nx.cycle_graph(n_nodes))


def complete_topology(n_nodes: int) -> Topology:
    """All-to-all overlay (gossip equivalent of dense averaging)."""
    import networkx as nx

    return Topology(nx.complete_graph(n_nodes))


def random_regular_topology(n_nodes: int, degree: int = 3,
                            seed: int = 0) -> Topology:
    """Random d-regular overlay (expander-like, good spectral gap)."""
    import networkx as nx

    if degree >= n_nodes:
        raise ValueError("degree must be below the node count")
    if (n_nodes * degree) % 2:
        raise ValueError("n_nodes * degree must be even")
    graph = nx.random_regular_graph(degree, n_nodes, seed=seed)
    if not nx.is_connected(graph):  # rare; retry with shifted seeds
        for retry in range(1, 50):
            graph = nx.random_regular_graph(degree, n_nodes,
                                            seed=seed + retry)
            if nx.is_connected(graph):
                break
    return Topology(graph)


class GossipCommunicator:
    """One-round neighbourhood exchange with cost accounting.

    Every node sends its payload to each neighbour; links run in
    parallel across the overlay, but a node's own transmissions
    serialize on its NIC — so a round costs the busiest node's total.
    """

    def __init__(
        self,
        topology: Topology,
        network: NetworkModel | None = None,
        backend: Backend = OPENMPI_TCP,
        registry=None,
    ):
        self.topology = topology
        self.n_workers = topology.n_nodes
        self.network = network if network is not None else ethernet(10.0)
        self.backend = backend
        self.record = CommRecord(registry)

    def exchange(
        self, payloads: list[Payload]
    ) -> list[list[tuple[int, Payload]]]:
        """Deliver each node's payload to its neighbours.

        Returns, per node, the list of ``(source, payload)`` pairs it
        received this round.
        """
        if len(payloads) != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} payloads, got {len(payloads)}"
            )
        sizes = [payload_nbytes(p) for p in payloads]
        rate = (
            self.network.effective_bytes_per_second
            * self.backend.collective_efficiency
        )
        per_node_seconds = []
        for node in range(self.n_workers):
            out_bytes = sizes[node] * self.topology.degree(node)
            per_node_seconds.append(
                self.topology.degree(node) * self.network.message_latency_s
                + out_bytes / rate
            )
        seconds = self.backend.per_op_overhead_s + max(per_node_seconds)
        mean_sent = float(
            np.mean([
                sizes[node] * self.topology.degree(node)
                for node in range(self.n_workers)
            ])
        )
        self.record.charge(bytes_per_worker=mean_sent, seconds=seconds,
                           op="gossip_exchange")
        inbox: list[list[tuple[int, Payload]]] = [
            [] for _ in range(self.n_workers)
        ]
        for node in range(self.n_workers):
            for neighbor in self.topology.neighbors(node):
                inbox[neighbor].append((node, list(payloads[node])))
        return inbox
