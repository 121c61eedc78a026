"""Shared graph builders, referees and fakes for the test-suite."""

import os

import numpy as np

from graphbayes import Graph


def random_graph(rng, n, edge_prob=0.3):
    """Erdos-Renyi style test graph; may be disconnected."""
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.uniform() < edge_prob
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng, n, extra_prob=0.2):
    """Random spanning tree plus extra edges: always connected."""
    order = rng.permutation(n)
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((int(order[i]), int(order[j])))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < extra_prob:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


def components(graph):
    """Connected components as lists of node ids, by depth-first search."""
    neighbours = {v: [] for v in range(graph.n)}
    for i, j in graph.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    label = [-1] * graph.n
    found = []
    for start in range(graph.n):
        if label[start] >= 0:
            continue
        label[start] = len(found)
        stack, members = [start], []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in neighbours[v]:
                if label[w] < 0:
                    label[w] = label[start]
                    stack.append(w)
        found.append(sorted(members))
    return found


def two_component_graph():
    """Two 5-node connected blobs with no edges between them."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2),
             (5, 6), (6, 7), (7, 8), (8, 9), (5, 7)]
    return Graph.from_edges(10, edges)


def reference_greedy(prior, budget, sigma2, metric="trace"):
    """Greedy selection that scores every candidate with one ``fuse``, the
    rule ``greedy_select`` must reproduce set for set."""
    from graphbayes.sampling_eval import _score

    selected = []
    remaining = list(range(prior.n))
    for _ in range(budget):
        best_node = min(remaining, key=lambda v: _score(prior, selected + [v], sigma2, metric))
        selected.append(best_node)
        remaining.remove(best_node)
    return tuple(sorted(selected))


def fake_physical_memory(monkeypatch, nbytes):
    """Make ``os.sysconf`` report ``nbytes`` of physical memory, in 4 KiB
    pages, so that a memory guard can be tested without allocating."""
    real, pages = os.sysconf, {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name] if name in pages else real(name))
