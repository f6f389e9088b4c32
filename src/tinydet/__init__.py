"""tinydet: a desk-scale tiny-object detection lab.

Building blocks: a numpy-backed reverse-mode tensor core, global-context and
foreground-gating feature enhancement over a small feature pyramid, an
adaptive L1/L2 regression loss with analytic verifiers, anchor assignment
audits, a deterministic synthetic-scene generator, and a training/evaluation
harness with CSV/JSON reports.
"""

__version__ = "0.1.0"
