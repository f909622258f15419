"""Closure-bitset convexity against the breadth-first form it replaced
(``pytest -m soak``).

``DFG.is_convex`` reads reachability off per-node ancestor/descendant
closures and the memory-order hazard off a position mask.  The oracle
below is the form the compiler used before: a breadth-first walk from
the candidate's outside consumers, a scan of the memory order between
the candidate's first and last memory operation, and a breadth-first
``reachable`` per node pair.  Over every block of the Fig. 11 kernels
and of every APP1-4 stage, with const-region replication on and off
(1,496 DFGs), the two must agree on hypothesis-drawn member subsets and
on the reachability of every ordered node pair.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.experiments.kernels import FIG11_KERNELS
from repro.compiler.dfg import DFG
from repro.compiler.driver import KernelCompiler
from repro.isa.instructions import Op
from repro.workloads import make_kernel
from repro.workloads.apps import all_apps

pytestmark = pytest.mark.soak


# -- the oracle: the breadth-first forms -------------------------------------


def oracle_is_convex(dfg, member_ids):
    members = set(member_ids)
    if oracle_mem_span_violated(dfg, members):
        return False
    frontier = []
    for node_id in members:
        for consumer in dfg.consumers(node_id):
            if consumer not in members:
                frontier.append(consumer)
    seen = set()
    while frontier:
        node_id = frontier.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        if node_id in members:
            return False
        for consumer in dfg.consumers(node_id):
            frontier.append(consumer)
    return True


def oracle_mem_span_violated(dfg, members):
    member_mem = [dfg.nodes[m] for m in members if dfg.nodes[m].is_mem]
    if len(member_mem) < 2:
        return False
    positions = [node.pos for node in member_mem]
    lo, hi = min(positions), max(positions)
    member_has_store = any(node.op is Op.SW for node in member_mem)
    for pos in dfg.mem_order:
        if lo < pos < hi:
            node = dfg.node_at_pos.get(pos)
            if node is not None and node.id in members:
                continue
            outside_is_load = node is not None and node.op is Op.LW
            if not outside_is_load or member_has_store:
                return True
    return False


def oracle_reachable(dfg, src, dst):
    frontier = [src]
    seen = set()
    while frontier:
        node = frontier.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(dfg.consumers(node))
    return False


# -- every block DFG ---------------------------------------------------------


@lru_cache(maxsize=None)
def all_dfgs():
    kernels = [make_kernel(name, seed=1) for name in FIG11_KERNELS]
    for app in all_apps(seed=1):
        kernels.extend(stage.kernel for stage in app.stages)
    dfgs = []
    for kernel in kernels:
        for replication in (True, False):
            compiler = KernelCompiler(kernel, allow_replication=replication)
            for hot in compiler.profile.hot_blocks(0.0):
                dfgs.append(DFG(
                    hot.block,
                    spm_only=compiler.profile.spm_only,
                    live_out=compiler.block_live_out[hot.block.index],
                    replicable=frozenset(compiler.replicable),
                ))
    return tuple(dfgs)


def test_every_block_is_covered():
    assert len(all_dfgs()) == 1496


def test_pair_reachability_matches_oracle():
    for dfg in all_dfgs():
        count = len(dfg.nodes)
        for a in range(count):
            for b in range(count):
                if a == b:
                    continue
                assert bool(dfg.descendants[a] >> b & 1) \
                    == oracle_reachable(dfg, a, b), (dfg.block, a, b)
                assert bool(dfg.ancestors[b] >> a & 1) \
                    == oracle_reachable(dfg, a, b), (dfg.block, a, b)


def members(dfg):
    """Member subsets mixing any nodes with memory operations, so the
    memory-span hazard is exercised as well as value-edge paths."""
    ids = range(len(dfg.nodes))
    mem_ids = [node.id for node in dfg.nodes if node.is_mem] or list(ids)
    return st.builds(
        lambda some, mem: set(some) | set(mem),
        st.lists(st.sampled_from(ids), min_size=1, max_size=8),
        st.lists(st.sampled_from(mem_ids), max_size=4),
    )


# Each example draws one subset per DFG of its chunk; a chunk keeps the
# draws of one example within hypothesis's input-size limit.
CHUNKS = 32


@pytest.mark.parametrize("chunk", range(CHUNKS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_is_convex_matches_oracle(chunk, data):
    for dfg in all_dfgs()[chunk::CHUNKS]:
        if not dfg.nodes:
            continue
        subset = data.draw(members(dfg))
        assert dfg.is_convex(subset) == oracle_is_convex(dfg, subset), \
            (dfg.block, sorted(subset))
