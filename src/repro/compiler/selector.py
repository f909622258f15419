"""ISE selection: choosing which mapped candidates to commit.

Greedy (largest coverage first), honoring:

* disjointness — an instruction joins at most one custom instruction,
* mappability on the target patch option,
* constant-register availability in the :class:`ImmPool`,
* schedulability — adding the mapping must not create a dependence
  cycle in the rewritten block (checked on the block's dependence
  closure, see :class:`~repro.compiler.codegen.Schedule`), and its
  constants must get registers.
"""

from repro.compiler.codegen import CodegenError, Schedule, operand_registers
from repro.compiler.mapper import MappingTemplates, map_candidate
from repro.core.fusion import FusedConfig
from repro.provenance.records import (
    REJECT_IMM_POOL,
    REJECT_MAX_PER_BLOCK,
    REJECT_OVERLAP,
    REJECT_UNMAPPABLE,
    REJECT_UNSCHEDULABLE,
    REJECTED,
    SELECTED,
)


def _target_name(mapping):
    """Patch-type name(s) the mapping landed on, e.g. ``AT-MA+AT-AS``."""
    config = mapping.config
    if isinstance(config, FusedConfig):
        return f"{config.cfg_a.ptype.name}+{config.cfg_b.ptype.name}"
    return config.ptype.name


def select_ises(candidates, targets, pool, max_per_block=8, observer=None,
                templates=None):
    """Pick mappings for one block.

    ``targets`` is an ordered list of mapping targets (best first), e.g.
    ``[(AT_MA, AT_AS), AT_MA]`` for a kernel whose tile has an {AT-MA}
    patch fused with a remote {AT-AS}.  For each candidate the first
    target that admits a mapping wins.  The returned list of
    :class:`~repro.compiler.mapper.Mapping` is guaranteed to rewrite
    cleanly as a set.

    ``observer`` optionally receives the fate of **every** candidate
    (the :class:`repro.provenance.BlockRecord` protocol):
    ``decide(candidate, status, reason=..., target=...)`` — selected, or
    rejected with one of the documented reasons — so accepted plus
    rejected always sums to ``len(candidates)``.  With the default
    ``None`` the loop short-circuits exactly as before.

    ``templates`` is the :class:`~repro.compiler.mapper.MappingTemplates`
    table the mapper searches through (a fresh one when None), so a
    compiler shares its searches over every block and option.
    """
    chosen = []
    covered = set()
    if templates is None:
        templates = MappingTemplates()
    schedule = Schedule(candidates[0].dfg) if candidates else None
    for candidate in candidates:
        if len(chosen) >= max_per_block:
            if observer is None:
                break
            observer.decide(candidate, REJECTED, reason=REJECT_MAX_PER_BLOCK)
            continue
        if candidate.node_ids & covered:
            if observer is not None:
                observer.decide(candidate, REJECTED, reason=REJECT_OVERLAP)
            continue
        imm_values = [ref[1] for ref in candidate.inputs if ref[0] == "imm"]
        if not pool.can_allocate(imm_values):
            if observer is not None:
                observer.decide(candidate, REJECTED, reason=REJECT_IMM_POOL)
            continue
        mapping = None
        for target in targets:
            mapping = map_candidate(candidate, target, templates)
            if mapping is not None:
                break
        if mapping is None:
            if observer is not None:
                observer.decide(candidate, REJECTED, reason=REJECT_UNMAPPABLE)
            continue
        if not (schedule.admits(candidate) and _allocate(mapping, pool)):
            if observer is not None:
                observer.decide(
                    candidate, REJECTED, reason=REJECT_UNSCHEDULABLE
                )
            continue
        schedule.accept(candidate)
        chosen.append(mapping)
        covered |= candidate.node_ids
        if observer is not None:
            observer.decide(candidate, SELECTED, target=_target_name(mapping))
    return chosen


def _allocate(mapping, pool):
    """Give the mapping's constants registers, in operand order, as its
    cix will read them; False when the pool runs dry (what it allocated
    before that stays allocated)."""
    try:
        operand_registers(mapping.ext_binding, pool)
    except CodegenError:
        return False
    return True
