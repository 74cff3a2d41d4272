"""Configuration of the SLUGGER heuristic."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_int

__all__ = ["SluggerConfig"]


@dataclass
class SluggerConfig:
    """Tunable parameters of SLUGGER (Algorithm 1).

    Attributes
    ----------
    iterations:
        The number of candidate-generation + merging rounds ``T``.  The
        paper uses ``T = 20`` by default and studies the effect of ``T``
        in Table III.
    max_candidate_size:
        Upper bound on the size of a candidate root set.  The paper caps
        candidate sets at 500 roots; the pure-Python reproduction defaults
        to a smaller cap because saving evaluation inside a candidate set
        is quadratic in its size (the cap is swept in an ablation bench).
    shingle_rounds:
        Maximum number of min-hash splitting rounds before oversized
        groups are split randomly (the paper uses at most 10).
    height_bound:
        Optional upper bound ``H_b`` on the height of hierarchy trees
        (Table V).  ``None`` reproduces the unbounded original algorithm.
    threshold_schedule:
        ``"paper"`` uses Eq. 9, θ(t) = 1/(1+t) with θ(T) = 0;
        ``"zero"`` always merges any cost-non-increasing pair; a string of
        the form ``"constant:0.25"`` keeps a fixed threshold (used by the
        threshold ablation bench).
    use_memoized_encoder:
        When ``False``, the local encoding search re-solves the blanket
        pattern optimisation for every merge instead of using the
        process-wide memo table (ablation of the paper's memoization).
    prune:
        Whether to run the pruning step after the merge phase.
    prune_rounds:
        How many times the three pruning substeps are repeated (the paper
        notes they "can be repeated a few times").
    seed:
        Seed for all randomized choices; ``None`` gives fresh randomness.
    validate_output:
        When ``True`` the driver validates the final summary against the
        input graph and raises if losslessness was broken (cheap safety
        net for small graphs; disable for large runs).
    check_invariants:
        When ``True`` the driver runs ``SluggerState.check_consistency``
        after every iteration, verifying the incremental indices (superedge
        counters, adjacency counters, incident index, leaf-set cache)
        against the summary.  O(|summary|) per iteration: tests and debugging.

    Shingle rounds, candidate generation and the local encoder always run
    on the dense integer-id substrate
    (:class:`~repro.graphs.dense.DenseAdjacency`); there is no label-keyed
    fallback to configure.
    """

    iterations: int = 20
    max_candidate_size: int = 120
    shingle_rounds: int = 10
    height_bound: Optional[int] = None
    threshold_schedule: str = "paper"
    use_memoized_encoder: bool = True
    prune: bool = True
    prune_rounds: int = 2
    seed: Optional[int] = None
    validate_output: bool = False
    check_invariants: bool = False

    def __post_init__(self) -> None:
        for name in ("iterations", "max_candidate_size", "shingle_rounds", "prune_rounds"):
            require_int(getattr(self, name), name)
        if self.height_bound is not None:
            require_int(self.height_bound, "height_bound")
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if self.max_candidate_size < 2:
            raise ConfigurationError(
                f"max_candidate_size must be >= 2, got {self.max_candidate_size}"
            )
        if self.shingle_rounds < 0:
            raise ConfigurationError(f"shingle_rounds must be >= 0, got {self.shingle_rounds}")
        if self.height_bound is not None and self.height_bound < 1:
            raise ConfigurationError(f"height_bound must be >= 1 or None, got {self.height_bound}")
        if self.prune_rounds < 0:
            raise ConfigurationError(f"prune_rounds must be >= 0, got {self.prune_rounds}")
        self._parse_threshold_schedule()

    def _parse_threshold_schedule(self) -> Optional[float]:
        schedule = self.threshold_schedule
        if schedule in ("paper", "zero"):
            return None
        if schedule.startswith("constant:"):
            try:
                value = float(schedule.split(":", 1)[1])
            except ValueError as error:
                raise ConfigurationError(f"invalid threshold schedule {schedule!r}") from error
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError("constant threshold must lie in [0, 1]")
            return value
        raise ConfigurationError(
            f"threshold_schedule must be 'paper', 'zero', or 'constant:<x>', got {schedule!r}"
        )

    def threshold(self, iteration: int) -> float:
        """Merging threshold θ(t) for the 1-based ``iteration`` (Eq. 9)."""
        if iteration < 1 or iteration > self.iterations:
            raise ConfigurationError(
                f"iteration must be in [1, {self.iterations}], got {iteration}"
            )
        if self.threshold_schedule == "zero":
            return 0.0
        constant = self._parse_threshold_schedule()
        if constant is not None:
            return constant
        if iteration >= self.iterations:
            return 0.0
        return 1.0 / (1.0 + iteration)
