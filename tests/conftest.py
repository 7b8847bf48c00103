"""Shared fixtures: hand-built graphs and applications with known numbers."""

import pytest

from fogsched.topology import (CLOUD, FCI, FOG, CloudNode, FogNode, Link,
                               NodeId, ResourceGraph)
from fogsched.workload import Application, Task, TaskEdge


def fn(i):
    return NodeId(FOG, i)


def fci(i):
    return NodeId(FCI, i)


CLOUD_ID = NodeId(CLOUD, 0)


def make_graph(fn_caps, clusters, fci_links=(), cloud_fcis=None,
               fn_fci_latency=60.0, fci_fci_latency=120.0,
               fci_cloud_latency=150.0, fn_fci_bw=350.0, fci_fci_bw=500.0,
               fci_cloud_bw=800.0, cloud_cpu=10**6, cloud_mem=10**9):
    """Build a small graph by hand.

    fn_caps: list of (cpu, mem) per fog node; clusters: attached FCI index per
    fog node; fci_links: FCI index pairs with a direct link; cloud_fcis: FCI
    indices linked to the cloud (default: all).
    """
    n_fcis = max(clusters) + 1
    fcis = [fci(i) for i in range(n_fcis)]
    fns = [FogNode(id=fn(i), cpu_capacity=cpu, mem_capacity=mem,
                   attached_fci=fcis[clusters[i]])
           for i, (cpu, mem) in enumerate(fn_caps)]
    links = [Link((node.id, node.attached_fci), fn_fci_bw, fn_fci_latency)
             for node in fns]
    for i, j in fci_links:
        links.append(Link((fcis[i], fcis[j]), fci_fci_bw, fci_fci_latency))
    if cloud_fcis is None:
        cloud_fcis = range(n_fcis)
    for i in cloud_fcis:
        links.append(Link((fcis[i], CLOUD_ID), fci_cloud_bw, fci_cloud_latency))
    cloud = CloudNode(id=CLOUD_ID, cpu_capacity=cloud_cpu, mem_capacity=cloud_mem)
    return ResourceGraph(fns=fns, fcis=fcis, cloud=cloud, links=links)


def make_task(tid, cpu=1, mem=100, makespan=500.0, priority=3):
    return Task(id=tid, cpu_demand=cpu, mem_demand=mem, makespan=makespan,
                priority=priority)


def make_edge(src, dst, bw=50.0, max_latency=1000.0):
    return TaskEdge(src=src, dst=dst, bandwidth_demand=bw, max_latency=max_latency)


def make_app(tasks, edges=(), home=None, app_id="app-x"):
    return Application(id=app_id, tasks=list(tasks), edges=list(edges),
                       home_fn=home if home is not None else fn(0))


def matrix_state(rm):
    """Every held and effective amount of a ResourceMatrix, in key order."""
    return [list(d.items()) for d in (*rm.held.parts(), *rm.effective.parts())]


@pytest.fixture
def two_cluster_graph():
    """4 FNs in 2 linked clusters; fog-0 is the big node (100 cpu, 1000 mem)."""
    return make_graph(
        fn_caps=[(100, 1000), (8, 800), (8, 800), (8, 800)],
        clusters=[0, 0, 1, 1],
        fci_links=[(0, 1)],
    )
