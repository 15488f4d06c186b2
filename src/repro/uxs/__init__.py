"""Universal exploration sequences (UXS).

An *exploration sequence* is a sequence of offsets ``σ_0, σ_1, ...``
interpreted by a walking robot as: having entered the current node through
port ``e`` (``e = 0`` at the start), leave through port ``(e + σ_t) mod δ``
where ``δ`` is the node's degree.  A sequence is *universal* for ``n`` if
this walk visits every node of every connected graph with at most ``n``
nodes, from every start.

The paper invokes the Reingold/Ta-Shma–Zwick construction with length
``T = Õ(n^5)``.  That construction is famously impractical (see DESIGN.md,
substitution S1), so this package provides:

* :func:`~repro.uxs.generators.practical_plan` — a deterministic
  pseudorandom sequence derived from ``n`` alone, certified by walking it
  over a deterministic battery of graphs (including the lollipop cover-time
  worst case) from every start node, with a doubling search for the
  required length (:func:`~repro.uxs.generators.certify_plan`).  Everything
  is a pure function of ``n``: all robots compute the identical plan, which
  is the only property the algorithms rely on.  Certification yields one
  integer per ``n``, so :mod:`~repro.uxs.table` commits it for every
  ``n <= 128``; only other ``n`` are certified live.
* :func:`~repro.uxs.generators.exhaustive_plan` — a provably universal
  sequence for tiny ``n`` found by searching against *all* connected
  port-labeled graphs on at most ``n`` nodes.
* :mod:`~repro.uxs.verify` — coverage checking utilities used by both and
  by the experiment harness (which re-verifies the plan on each experiment
  graph and refuses to report results for an uncovered instance).
"""

from repro.uxs.sequence import UxsPlan, exploration_walk
from repro.uxs.generators import certify_plan, practical_plan, exhaustive_plan, splitmix_offsets
from repro.uxs.verify import covers, cover_step, covers_all_starts, UxsCertificationError

__all__ = [
    "UxsPlan",
    "exploration_walk",
    "practical_plan",
    "certify_plan",
    "exhaustive_plan",
    "splitmix_offsets",
    "covers",
    "cover_step",
    "covers_all_starts",
    "UxsCertificationError",
]
