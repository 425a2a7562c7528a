"""Trial scoring, equal error rate, detection cost, and DET reporting.

Scoring is plain cosine between unit embeddings. `score_trials` returns a
`ScoredTrials`: the trials with their scores and target mask as read-only
arrays, which builds a `Trial` object only when one is indexed or iterated.
The error-rate machinery sweeps every distinct score as an
accept-if-greater-or-equal threshold, building false-accept and
false-reject staircases; the equal error rate is read off at their crossing
with linear interpolation between adjacent sweep points. The detection cost
is minimized over the same sweep and normalized by the better of the two
default policies (accept all, reject all). A `ScoredTrials` computes its
sweep once, so `eer`, `min_dcf` and `det_points` on one scored set share
it; given a list of scored `Trial`s, each metric reads it into arrays first.
Every score must be finite.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateTrialsError,
    DimensionMismatchError,
    TrialParseError,
    UnknownIdError,
)

# Trials per gathered chunk in score_trials: two (chunk, dim) float64 blocks.
# Gathering all 18,336 pairs of the desk evaluation at once raised its peak
# RSS by about 10 MB (4%); chunks of 2048 left it unchanged.
_SCORE_CHUNK = 2048


@dataclass(frozen=True)
class Trial:
    """One verification trial; score is filled in by score_trials."""

    enroll_id: str
    test_id: str
    is_target: bool
    score: float | None = None


@dataclass(frozen=True)
class DcfParams:
    """Detection cost weights and the target-trial prior."""

    c_miss: float = 1.0
    c_fa: float = 1.0
    p_target: float = 0.05

    def __post_init__(self) -> None:
        costs = f"c_miss={self.c_miss}, c_fa={self.c_fa}"
        if not (math.isfinite(self.c_miss) and math.isfinite(self.c_fa)):
            raise DegenerateTrialsError(f"costs must be finite, got {costs}")
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise DegenerateTrialsError(f"costs must be positive, got {costs}")
        if not 0.0 < self.p_target < 1.0:
            raise DegenerateTrialsError(
                f"p_target must be in (0, 1), got {self.p_target}"
            )


_IS_TARGET = attrgetter("is_target")


class ScoredTrials(Sequence[Trial]):
    """Scored trials held as arrays: a read-only sequence of `Trial`.

    Holds the trials it was built from, a float64 copy of their `scores`,
    one per trial, and the `is_target` mask read from the trials, both
    read-only, and every score is finite. Indexing and iteration build each
    `Trial` only when asked, with the score as a Python float. `sweep` is
    computed once, on first use, so `eer`, `min_dcf` and `det_points` on
    one scored set sort its scores once.
    """

    def __init__(self, trials: Sequence[Trial], scores: Sequence[float] | np.ndarray):
        scores = np.array(scores, dtype=np.float64)
        if scores.shape != (len(trials),):
            raise DimensionMismatchError(
                f"need one score per trial: {len(trials)} trials, scores of shape {scores.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            t = trials[bad[0]]
            raise DegenerateTrialsError(
                f"scores must be finite; {bad.size} are not, the first is "
                f"{scores[bad[0]]!r} for trial {t.enroll_id} {t.test_id}"
            )
        is_target = np.fromiter(map(_IS_TARGET, trials), dtype=bool, count=len(trials))
        scores.setflags(write=False)
        is_target.setflags(write=False)
        self._trials = tuple(trials)
        self.scores = scores
        self.is_target = is_target

    @classmethod
    def of(cls, trials: Sequence[Trial]) -> ScoredTrials:
        """`trials` itself if it is a ScoredTrials, else its scores in one pass."""
        if isinstance(trials, cls):
            return trials
        scores = [t.score for t in trials]
        if None in scores:
            raise DegenerateTrialsError("trials must be scored before metric computation")
        return cls(trials, scores)

    def __len__(self) -> int:
        return len(self._trials)

    def __getitem__(self, index: int | slice) -> Trial | list[Trial]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        t = self._trials[index]
        return Trial(t.enroll_id, t.test_id, t.is_target, self.scores[index].item())

    def __iter__(self) -> Iterator[Trial]:
        for t, s in zip(self._trials, self.scores.tolist()):
            yield Trial(t.enroll_id, t.test_id, t.is_target, s)

    @cached_property
    def sweep(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(thresholds, P_fa, P_miss) over distinct scores plus one sentinel.

        Accept iff score >= threshold; a trial exactly at threshold is
        accepted. The sentinel sits above every score so the sweep always
        reaches the reject-all corner (P_fa 0, P_miss 1).
        """
        targets = np.sort(self.scores[self.is_target])
        nontargets = np.sort(self.scores[~self.is_target])
        if not targets.size or not nontargets.size:
            raise DegenerateTrialsError(
                f"need both classes, got {targets.size} target and "
                f"{nontargets.size} nontarget trials"
            )
        # The distinct scores of the two sorted classes in this order: which
        # of 0.0 and -0.0 survives as a threshold depends on it.
        distinct = np.unique(np.concatenate([targets, nontargets]))
        thresholds = np.concatenate([distinct, [distinct[-1] + 1.0]])
        p_fa = 1.0 - np.searchsorted(nontargets, thresholds, side="left") / nontargets.size
        p_miss = np.searchsorted(targets, thresholds, side="left") / targets.size
        return thresholds, p_fa, p_miss


def score_trials(
    embeddings: Mapping[str, np.ndarray], trials: Sequence[Trial]
) -> ScoredTrials:
    """Cosine scores of the trials' pairs, in trial order.

    Every score is bit-equal to `embedding.cosine` of the trial's pair: row
    norms and pair dot products are row-wise `vecdot`s, which compute each
    vector product as `np.dot` and `np.linalg.norm` do (a Gram matrix
    `E @ E.T` or `einsum` sums in another order and differs in the last
    bits), and a NaN score clamps to -1.0 as `max(-1.0, nan)` does. Pairs
    are gathered in chunks of `_SCORE_CHUNK` trials to bound memory.
    """
    if not trials:
        return ScoredTrials(trials, np.empty(0))
    keys = [key for t in trials for key in (t.enroll_id, t.test_id)]
    rows = dict.fromkeys(keys)  # distinct ids in order of first use
    vectors = []
    for row, key in enumerate(rows):
        if key not in embeddings:
            raise UnknownIdError(f"no embedding for id {key!r}")
        rows[key] = row
        vectors.append(np.asarray(embeddings[key], dtype=np.float64))
    shape = vectors[0].shape
    for key, v in zip(rows, vectors):
        if v.shape != shape or v.ndim != 1:
            raise DimensionMismatchError(
                f"embedding of {key!r} has shape {v.shape}; trials need vectors "
                f"of one shape, the first has {shape}"
            )
    emb = np.stack(vectors)
    norms = np.sqrt(np.vecdot(emb, emb))
    pairs = np.fromiter(
        map(rows.__getitem__, keys), dtype=np.intp, count=len(keys)
    ).reshape(-1, 2)
    scores = np.empty(len(pairs))
    for start in range(0, len(pairs), _SCORE_CHUNK):
        a, b = pairs[start : start + _SCORE_CHUNK].T
        scores[start : start + _SCORE_CHUNK] = np.vecdot(emb[a], emb[b]) / (
            norms[a] * norms[b]
        )
    return ScoredTrials(trials, np.minimum(np.fmax(scores, -1.0), 1.0))


def eer(trials: Sequence[Trial]) -> tuple[float, float]:
    """Equal error rate and the threshold where the staircases cross.

    At the first sweep point where P_miss >= P_fa, either the rates are
    equal (that value is the answer) or the crossing lies strictly between
    this point and the previous one; both staircases are then interpolated
    linearly in sweep position and the common value at the intersection is
    returned.
    """
    thresholds, p_fa, p_miss = ScoredTrials.of(trials).sweep
    i = int(np.argmax(p_miss >= p_fa))
    if p_miss[i] == p_fa[i] or i == 0:
        return float(p_fa[i]), float(thresholds[i])
    d_fa = p_fa[i] - p_fa[i - 1]
    d_miss = p_miss[i] - p_miss[i - 1]
    u = (p_fa[i - 1] - p_miss[i - 1]) / (d_miss - d_fa)
    value = p_fa[i - 1] + u * d_fa
    threshold = thresholds[i - 1] + u * (thresholds[i] - thresholds[i - 1])
    return float(value), float(threshold)


def min_dcf(trials: Sequence[Trial], params: DcfParams = DcfParams()) -> tuple[float, float]:
    """Minimum normalized detection cost and the threshold attaining it."""
    thresholds, p_fa, p_miss = ScoredTrials.of(trials).sweep
    dcf = (
        params.c_miss * params.p_target * p_miss
        + params.c_fa * (1.0 - params.p_target) * p_fa
    )
    default_cost = min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    i = int(np.argmin(dcf))
    return float(dcf[i] / default_cost), float(thresholds[i])


def det_points(trials: Sequence[Trial]) -> list[tuple[float, float]]:
    """(P_fa, P_miss) staircase, one point per distinct score plus sentinel."""
    _, p_fa, p_miss = ScoredTrials.of(trials).sweep
    return list(zip(p_fa.tolist(), p_miss.tolist()))


def read_trial_list(path: str | Path) -> list[Trial]:
    """Parse 'label enroll test [score]' lines; label 1 marks a target."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise TrialParseError(f"{path}: trial list is not UTF-8 text: {exc}") from exc
    trials = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise TrialParseError(
                f"{path}:{lineno}: expected 3 or 4 fields, got {len(parts)}"
            )
        if parts[0] not in ("0", "1"):
            raise TrialParseError(
                f"{path}:{lineno}: label must be 0 or 1, got {parts[0]!r}"
            )
        score = None
        if len(parts) == 4:
            try:
                score = float(parts[3])
            except ValueError:
                pass
            if score is None or not math.isfinite(score):
                raise TrialParseError(f"{path}:{lineno}: bad score field {parts[3]!r}")
        trials.append(Trial(parts[1], parts[2], parts[0] == "1", score))
    if not trials:
        raise TrialParseError(f"{path}: no trials found")
    return trials


def write_trial_list(path: str | Path, trials: Iterable[Trial]) -> None:
    lines = []
    for t in trials:
        base = f"{1 if t.is_target else 0} {t.enroll_id} {t.test_id}"
        if t.score is not None:
            base += f" {t.score!r}"
        lines.append(base)
    Path(path).write_text("\n".join(lines) + "\n")


def write_det_csv(path: str | Path, points: Sequence[tuple[float, float]]) -> None:
    lines = ["p_fa,p_miss"]
    lines += [f"{a!r},{b!r}" for a, b in points]
    Path(path).write_text("\n".join(lines) + "\n")
