"""The mapper's shared templates against the mapper they replaced.

``mapper_oracle.py`` keeps the mapper that searched every (candidate,
target) pair afresh.  Here every pair that a kernel's 13 versions offer
the mapper, in the order they offer it, goes through one shared
:class:`MappingTemplates` table, as a compiler's pairs do, and each
mapping must equal the oracle's field by field: so a candidate whose
shape an earlier candidate already searched must bind its own refs,
registers and node ids into that search's result.

Tier-1 replays fir, fft and aes; the soak tier every target of the
enumeration golden.
"""

from unittest import mock

import pytest

from repro.analysis.experiments.kernels import FIG11_KERNELS
from repro.compiler import mapper, selector
from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION, KernelCompiler
from repro.compiler.mapper import MappingTemplates, map_candidate
from repro.core.fusion import FusedConfig
from repro.workloads import make_kernel
from tests.compiler import mapper_oracle
from tests.compiler.test_enumeration_golden import kernels


def offered_pairs(kernel, replication):
    """The (candidate, target) pairs compiling ``kernel`` at every
    option asks the mapper for, in order."""
    pairs = []
    real = selector.map_candidate

    def recording(candidate, target, templates=None):
        pairs.append((candidate, target))
        return real(candidate, target, templates)

    with mock.patch.object(selector, "map_candidate", recording):
        KernelCompiler(kernel, allow_replication=replication).compile_options(
            ALL_OPTIONS + (LOCUS_OPTION,)
        )
    return pairs


def fields(mapping):
    if mapping is None:
        return None
    config = mapping.config
    if isinstance(config, FusedConfig):
        config = (config.cfg_a, config.cfg_b, config.b_ext, config.outs,
                  config.remote_tile)
    return (mapping.candidate, mapping.is_fused, config, mapping.ext_binding,
            mapping.out_binding, mapping.remote_node_ids)


def assert_oracle_mappings(kernel, replication):
    pairs = offered_pairs(kernel, replication)
    assert pairs
    templates = MappingTemplates()
    mapped = 0
    for candidate, target in pairs:
        mine = map_candidate(candidate, target, templates)
        assert fields(mine) == fields(
            mapper_oracle.map_candidate(candidate, target)
        ), (candidate, target)
        mapped += mine is not None
    assert mapped


@pytest.mark.parametrize("name", ["fir", "fft", "aes"])
def test_shared_templates_match_the_oracle(name):
    assert_oracle_mappings(make_kernel(name, seed=1), replication=True)


@pytest.mark.soak
@pytest.mark.parametrize("label", list(kernels()))
def test_shared_templates_match_the_oracle_on_every_target(label):
    assert_oracle_mappings(kernels()[label],
                           replication=label in FIG11_KERNELS)


def test_one_search_per_shape_and_target():
    pairs = offered_pairs(make_kernel("fir", seed=1), replication=True)
    templates = MappingTemplates()
    with mock.patch.object(mapper, "_template",
                           wraps=mapper._template) as search:
        for candidate, target in pairs:
            map_candidate(candidate, target, templates)
    searched = [(id(call.args[0]), call.args[1])
                for call in search.call_args_list]
    assert len(searched) == len(set(searched)) < len(pairs)


def test_each_compiler_searches_for_itself():
    """No table outlives its compiler: a second compile of the same
    kernel searches as much as the first."""
    searches = []
    for _ in range(2):
        with mock.patch.object(mapper, "_template",
                               wraps=mapper._template) as search:
            KernelCompiler(make_kernel("fir", seed=1)).compile_options(
                ALL_OPTIONS + (LOCUS_OPTION,)
            )
        searches.append(search.call_count)
    assert searches[0] == searches[1] > 0
