"""Regenerate EXPERIMENTS.md by running every experiment.

Usage::

    python -m repro.analysis.report [output-path]

Runs each table/figure driver plus the ablations (about 8 s on a
2-vCPU host) and writes the consolidated paper-vs-measured report.
"""

import sys
import time

from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.analysis.experiments.ablations import ABLATIONS

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `python -m repro.analysis.report`.  Every table and figure
of the paper's evaluation is regenerated by this repository; the
*shape* of each result (who wins, by roughly what factor, where
qualitative boundaries fall) is compared against the paper's numbers.
Absolute matches are not expected: the substrate here is a from-scratch
Python functional/cycle model, not gem5 + ARM RTL (see DESIGN.md §1 for
every substitution, and the "known gaps" section at the bottom).
"""

KNOWN_GAPS = """## Known gaps (and why)

* **Application speedup magnitudes sit below the paper's** (Fig. 12:
  measured Stitch ~1.2-1.5x per app vs the paper's 2.3x average, while
  LOCUS matches almost exactly — 1.11x vs 1.14x).  Two substrate
  differences dominate: (1) cross-SPM data placement is supported only
  for *read-only replicated* regions and only at kernel level — a
  16-kernel application leaves no free scratchpad space on remote
  tiles, so app binaries fuse without remote loads (the load-
  replication ablation quantifies the foregone ~20%); (2) our kernels
  are hand-written tight RISC loops, so the accelerable fraction per
  block is smaller than in compiler-generated ARM code.  Every
  *ordering* claim (baseline < LOCUS < w/o fusion < Stitch; per-kernel
  patch preferences; fusion helping most where patches are contended;
  astar's non-benefit; Table I's deadline boundary) reproduces.
* **Sec. VI-D**: with our per-kernel stitched speedups (~1.5x avg vs
  the paper's ~1.9x), clock-doubled LOCUS wins raw performance where
  the paper reports Stitch 1.03x ahead.  The perf/W direction (Stitch
  well ahead) holds.
* **Sec. III-A rates** differ numerically ({AT} 60% vs 95.7%) because
  the kernel *suite* and ISA differ; the ranking ({AT} first) and the
  8/4/4 patch-mix derivation from the paper's own rates reproduce.
"""


def generate(path="EXPERIMENTS.md"):
    sections = [HEADER]
    summary = []
    for exp_id, runner in ALL_EXPERIMENTS.items():
        start = time.time()
        report = runner()
        elapsed = time.time() - start
        sections.append(report.to_markdown())
        summary.append(
            f"- {report.summary()} ({elapsed:.0f}s)"
        )
        print(report.summary(), flush=True)
    sections.append("## Ablations (beyond the paper)")
    for name, runner in ABLATIONS.items():
        report = runner()
        sections.append(report.to_markdown())
        summary.append(f"- {report.summary()}")
        print(report.summary(), flush=True)
    sections.append(KNOWN_GAPS)
    sections.append("## Run summary\n\n" + "\n".join(summary))
    text = "\n\n".join(sections) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path}")
    return text


if __name__ == "__main__":
    generate(sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md")
