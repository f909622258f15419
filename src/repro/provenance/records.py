"""Compiler decision provenance: the :class:`CompileReport`.

The tool chain of Figure 6 makes three kinds of decisions per kernel —
which DFG subgraphs become ISE candidates, which candidates are
committed as custom instructions, and which executable version each
patch option yields.  A :class:`CompileReport` records all of them:

* per-phase wall-time spans (profile/liveness/reference at the kernel
  level; enumerate/select/rewrite/measure/validate per option),
* per hot block, the enumeration tally (subgraphs visited, rejections by
  reason, truncation) plus the fate of **every** feasible candidate —
  selected, or rejected with a reason — so accepted + rejected always
  sums to the enumeration total (the V600 invariant),
* per patch option, one :class:`VersionRecord` with the measured cycles,
  the bit-exact validation verdict and whether a fused option fell back
  to single-patch mappings.

The disabled path follows the telemetry null-object idiom: the driver
always talks to a report object, and :data:`NULL_REPORT` swallows every
call, so the hot compile path carries no ``if report:`` forests.
"""

import time
from contextlib import contextmanager

SELECTED = "selected"
REJECTED = "rejected"

# Rejection vocabulary.  Enumeration-time reasons (infeasible subgraphs
# never become candidates):
REJECT_CONVEXITY = "non-convex"
REJECT_INPUTS = "input-port-budget"
REJECT_OUTPUTS = "output-port-budget"
# Selection-time reasons (feasible candidates that lost):
REJECT_MAX_PER_BLOCK = "max-per-block"
REJECT_OVERLAP = "overlaps-selected"
REJECT_IMM_POOL = "imm-pool-pressure"
REJECT_UNMAPPABLE = "unmappable"
REJECT_UNSCHEDULABLE = "unschedulable"


class PhaseSpan:
    """One timed compile phase."""

    __slots__ = ("name", "start", "seconds")

    def __init__(self, name, start, seconds):
        self.name = name
        self.start = start          # seconds since the report's origin
        self.seconds = seconds

    def to_dict(self):
        return {"name": self.name, "seconds": self.seconds}

    def __repr__(self):
        return f"PhaseSpan({self.name}, {self.seconds:.4f}s)"


class EnumerationLog:
    """Tally of one ESU sweep over one block's DFG.

    ``visited`` counts connected subgraphs the search examined;
    ``rejections`` buckets the infeasible ones by reason (non-convex,
    input/output port budget).  Feasible candidates are the difference —
    their individual fates are the surrounding block record's business.
    """

    __slots__ = ("visited", "rejections", "truncated")

    def __init__(self):
        self.visited = 0
        self.rejections = {}
        self.truncated = False

    def note_visited(self):
        self.visited += 1

    def note_rejected(self, reason):
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def note_truncated(self):
        self.truncated = True

    def total_rejected(self):
        return sum(self.rejections.values())

    def to_dict(self):
        return {
            "visited": self.visited,
            "rejections": dict(sorted(self.rejections.items())),
            "truncated": self.truncated,
        }


class CandidateRecord:
    """The fate of one feasible ISE candidate during selection."""

    __slots__ = ("signature", "node_ids", "size", "n_inputs", "n_outputs",
                 "status", "reason", "target")

    def __init__(self, signature, node_ids, size, n_inputs, n_outputs,
                 status, reason=None, target=None):
        self.signature = signature
        self.node_ids = tuple(node_ids)
        self.size = size
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.status = status
        self.reason = reason          # rejected: why; selected: None
        self.target = target          # selected: mapped patch target name

    @classmethod
    def of(cls, candidate, status, reason=None, target=None):
        return cls(
            candidate.signature(), sorted(candidate.node_ids), candidate.size,
            len(candidate.inputs), len(candidate.outputs),
            status, reason=reason, target=target,
        )

    def to_dict(self):
        record = {
            "signature": self.signature,
            "node_ids": list(self.node_ids),
            "size": self.size,
            "inputs": self.n_inputs,
            "outputs": self.n_outputs,
            "status": self.status,
        }
        if self.reason is not None:
            record["reason"] = self.reason
        if self.target is not None:
            record["target"] = self.target
        return record

    def __repr__(self):
        tail = self.target if self.status == SELECTED else self.reason
        return f"CandidateRecord({self.signature}, {self.status}: {tail})"


class BlockRecord:
    """Provenance of one hot block under one patch option."""

    def __init__(self, block_index, weight):
        self.block_index = block_index
        self.weight = weight
        self.enumeration = EnumerationLog()
        self.candidates = []          # CandidateRecord, decision order
        self.enumerated = None        # len() of the feasible candidate set

    # -- selection observer protocol -----------------------------------------

    def decide(self, candidate, status, reason=None, target=None):
        self.candidates.append(
            CandidateRecord.of(candidate, status, reason=reason, target=target)
        )

    # -- queries -------------------------------------------------------------

    def selected(self):
        return [c for c in self.candidates if c.status == SELECTED]

    def rejected(self):
        return [c for c in self.candidates if c.status == REJECTED]

    def rejection_counts(self):
        counts = {}
        for record in self.rejected():
            reason = record.reason or "<missing>"
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    def accounted(self):
        """Every enumerated candidate selected or rejected-with-reason."""
        if self.enumerated is None:
            return False
        decided = len(self.selected()) + len(self.rejected())
        if decided != self.enumerated or decided != len(self.candidates):
            return False
        return all(record.reason for record in self.rejected())

    def to_dict(self):
        return {
            "block": self.block_index,
            "weight": self.weight,
            "enumeration": self.enumeration.to_dict(),
            "enumerated_candidates": self.enumerated,
            "selected": len(self.selected()),
            "rejected": self.rejection_counts(),
            "accounted": self.accounted(),
            "candidates": [record.to_dict() for record in self.candidates],
        }


class VersionRecord:
    """One executable version of the kernel (one patch option)."""

    def __init__(self, option_name, fused):
        self.option = option_name
        self.fused = fused            # the option *offers* fusion
        self.blocks = []              # BlockRecord per hot block
        self.phases = []              # PhaseSpan per compile sub-phase
        self.cycles = None
        self.baseline_cycles = None
        self.mappings = 0
        self.fused_mappings = 0
        self.fallback_single = False  # fused option, no mapping crossed
        self.replicated_regions = ()
        self.validated = None         # bit-exact verdict (None = not run)
        self.wall_seconds = 0.0

    # -- driver hooks --------------------------------------------------------

    def block(self, block_index, weight):
        record = BlockRecord(block_index, weight)
        self.blocks.append(record)
        return record

    def measured(self, cycles, baseline_cycles, mappings,
                 replicated_regions=()):
        self.cycles = cycles
        self.baseline_cycles = baseline_cycles
        self.mappings = len(mappings)
        self.fused_mappings = sum(1 for m in mappings if m.is_fused)
        self.fallback_single = bool(
            self.fused and mappings and self.fused_mappings == 0
        )
        self.replicated_regions = tuple(
            region.name for region in replicated_regions
        )

    def note_validation(self, ok):
        self.validated = bool(ok)

    # -- queries -------------------------------------------------------------

    @property
    def speedup(self):
        if not self.cycles or not self.baseline_cycles:
            return 1.0
        return self.baseline_cycles / self.cycles

    def candidate_totals(self):
        """Aggregated {selected, rejected, enumerated} over all blocks."""
        totals = {"selected": 0, "rejected": 0, "enumerated": 0}
        for block in self.blocks:
            totals["selected"] += len(block.selected())
            totals["rejected"] += len(block.rejected())
            totals["enumerated"] += block.enumerated or 0
        return totals

    def accounted(self):
        return all(block.accounted() for block in self.blocks)

    def to_dict(self):
        return {
            "option": self.option,
            "fused_option": self.fused,
            "cycles": self.cycles,
            "baseline_cycles": self.baseline_cycles,
            "speedup": round(self.speedup, 4),
            "mappings": self.mappings,
            "fused_mappings": self.fused_mappings,
            "fallback_single": self.fallback_single,
            "replicated_regions": list(self.replicated_regions),
            "validated": self.validated,
            "wall_seconds": self.wall_seconds,
            "phases": [span.to_dict() for span in self.phases],
            "blocks": [block.to_dict() for block in self.blocks],
        }

    def __repr__(self):
        return (
            f"VersionRecord({self.option}: {self.cycles} cyc, "
            f"validated={self.validated})"
        )


class CompileReport:
    """Full decision provenance of one kernel's compilation."""

    def __init__(self, kernel_name):
        self.kernel_name = kernel_name
        self.origin = time.perf_counter()
        self.phases = []              # kernel-level PhaseSpan
        self.versions = {}            # option name -> VersionRecord
        self.baseline_cycles = None

    @contextmanager
    def phase(self, name, owner=None):
        """Time a compile phase; attach it to ``owner`` (a version) or
        the report itself."""
        start = time.perf_counter()
        try:
            yield
        finally:
            span = PhaseSpan(name, start - self.origin,
                             time.perf_counter() - start)
            (owner if owner is not None else self).phases.append(span)

    def version(self, option):
        record = self.versions.get(option.name)
        if record is None:
            record = VersionRecord(option.name, option.fused)
            self.versions[option.name] = record
        return record

    # -- queries -------------------------------------------------------------

    def accounted(self):
        """The V600 invariant over every version and block."""
        return all(v.accounted() for v in self.versions.values())

    def candidate_totals(self):
        totals = {"selected": 0, "rejected": 0, "enumerated": 0}
        for version in self.versions.values():
            for key, value in version.candidate_totals().items():
                totals[key] += value
        return totals

    def best_version(self):
        measured = [v for v in self.versions.values() if v.cycles]
        return max(measured, key=lambda v: v.speedup) if measured else None

    def total_wall_seconds(self):
        return (
            sum(span.seconds for span in self.phases)
            + sum(v.wall_seconds for v in self.versions.values())
        )

    def to_dict(self):
        return {
            "kernel": self.kernel_name,
            "baseline_cycles": self.baseline_cycles,
            "accounted": self.accounted(),
            "candidate_totals": self.candidate_totals(),
            "phases": [span.to_dict() for span in self.phases],
            "versions": {
                name: record.to_dict()
                for name, record in sorted(self.versions.items())
            },
        }

    def render(self):
        from repro.provenance.narrative import render_compile_report

        return render_compile_report(self)

    def __repr__(self):
        return (
            f"CompileReport({self.kernel_name}, "
            f"{len(self.versions)} versions)"
        )


# -- disabled path -------------------------------------------------------------


class _NullVersionRecord:
    """Swallows every driver hook; ``block`` yields no observer."""

    option = None
    phases = ()
    wall_seconds = 0.0

    def block(self, block_index, weight):
        return None

    def measured(self, cycles, baseline_cycles, mappings,
                 replicated_regions=()):
        pass

    def note_validation(self, ok):
        pass

    def __setattr__(self, name, value):
        pass  # shared singleton: ignore stray attribute writes


class NullCompileReport:
    """Disabled provenance: the driver's default report sink."""

    kernel_name = None
    baseline_cycles = None
    phases = ()
    versions = {}

    @contextmanager
    def phase(self, name, owner=None):
        yield

    def version(self, option):
        return NULL_VERSION

    def accounted(self):
        return True

    def candidate_totals(self):
        return {"selected": 0, "rejected": 0, "enumerated": 0}

    def best_version(self):
        return None

    def total_wall_seconds(self):
        return 0.0

    def to_dict(self):
        return {}

    def render(self):
        return ""

    def __setattr__(self, name, value):
        pass  # shared singleton: ignore stray attribute writes


NULL_VERSION = _NullVersionRecord()
NULL_REPORT = NullCompileReport()
