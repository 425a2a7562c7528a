"""Verification metrics: EER, minDCF, DET staircase, trial file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cel.embedding import cosine
from cel.errors import (
    DegenerateTrialsError,
    DimensionMismatchError,
    TrialParseError,
    UnknownIdError,
)
from cel.evaluation import (
    DcfParams,
    Trial,
    _split_scores,
    det_points,
    eer,
    min_dcf,
    read_trial_list,
    score_trials,
    write_det_csv,
    write_trial_list,
)
from cel.rng import derive_rng


def make_trials(target_scores, nontarget_scores):
    trials = [Trial("e", "t", True, float(s)) for s in target_scores]
    trials += [Trial("e", "t", False, float(s)) for s in nontarget_scores]
    return trials


def random_trials(rng, max_n=50):
    n_t = int(rng.integers(1, max_n + 1))
    n_n = int(rng.integers(1, max_n + 1))
    kind = rng.integers(0, 3)
    if kind == 0:
        t = rng.normal(0.5, 0.3, n_t)
        n = rng.normal(-0.2, 0.3, n_n)
    elif kind == 1:
        # Heavy ties: scores drawn from a small grid.
        t = rng.integers(-3, 4, n_t) / 4.0
        n = rng.integers(-4, 3, n_n) / 4.0
    else:
        t = rng.uniform(-1, 1, n_t)
        n = rng.uniform(-1, 1, n_n)
    return make_trials(t, n)


class TestWorkedExample:
    def test_three_targets_three_nontargets(self):
        # Targets 0.9, 0.6, 0.2; nontargets 0.7, 0.3, 0.1. Any threshold
        # accepting two targets also accepts one nontarget: both error
        # rates meet at exactly 1/3.
        trials = make_trials([0.9, 0.6, 0.2], [0.7, 0.3, 0.1])
        value, threshold = eer(trials)
        assert value == pytest.approx(1 / 3, abs=1e-12)
        want = oracles.oracle_eer([0.9, 0.6, 0.2], [0.7, 0.3, 0.1])
        assert value == pytest.approx(want, abs=1e-12)
        assert 0.3 < threshold <= 0.7

    def test_perfect_separation(self):
        trials = make_trials([0.8, 0.9], [0.1, 0.2])
        value, _ = eer(trials)
        assert value == 0.0

    def test_fully_swapped(self):
        trials = make_trials([0.1, 0.2], [0.8, 0.9])
        value, _ = eer(trials)
        assert value == 1.0


class TestAgainstBruteForce:
    def test_eer_exact_on_1000_random_sets(self):
        rng = derive_rng("eer-fuzz")
        for _ in range(1000):
            trials = random_trials(rng)
            got, _ = eer(trials)
            want = oracles.oracle_eer(
                [t.score for t in trials if t.is_target],
                [t.score for t in trials if not t.is_target],
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_min_dcf_exact_on_1000_random_sets(self):
        rng = derive_rng("dcf-fuzz")
        params = DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.05)
        for _ in range(1000):
            trials = random_trials(rng)
            got, _ = min_dcf(trials, params)
            want = oracles.oracle_min_dcf(
                [t.score for t in trials if t.is_target],
                [t.score for t in trials if not t.is_target],
                c_miss=1.0,
                c_fa=1.0,
                p_target=0.05,
            )
            assert got == pytest.approx(want, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000), shift=st.floats(-2, 2), scale=st.floats(0.1, 5))
    @settings(max_examples=80, deadline=None)
    def test_eer_invariant_under_monotone_transform(self, seed, shift, scale):
        rng = derive_rng("mono", seed)
        trials = random_trials(rng)
        base, _ = eer(trials)
        moved = [
            Trial(t.enroll_id, t.test_id, t.is_target, scale * t.score + shift)
            for t in trials
        ]
        got, _ = eer(moved)
        assert got == pytest.approx(base, abs=1e-9)


class TestMinDcf:
    def test_normalization_caps_at_one_for_useless_scores(self):
        # All scores identical: the best decision is accept-all or
        # reject-all, whose normalized cost is exactly 1.
        trials = make_trials([0.5, 0.5], [0.5, 0.5, 0.5])
        value, _ = min_dcf(trials)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_zero_for_separable_scores(self):
        trials = make_trials([0.9, 0.8], [0.1, 0.0])
        value, _ = min_dcf(trials)
        assert value == 0.0

    def test_param_validation(self):
        with pytest.raises(DegenerateTrialsError):
            DcfParams(c_miss=0.0)
        with pytest.raises(DegenerateTrialsError):
            DcfParams(p_target=1.0)


class TestDetCurve:
    def test_point_count_is_distinct_scores_plus_one(self):
        trials = make_trials([0.9, 0.6, 0.6], [0.3, 0.1])
        points = det_points(trials)
        assert len(points) == 4 + 1

    def test_endpoints_cover_both_corners(self):
        rng = derive_rng("det")
        trials = random_trials(rng)
        points = det_points(trials)
        assert points[0][0] == 1.0  # accept-all: every nontarget passes
        assert points[-1] == (0.0, 1.0)  # sentinel: reject-all

    def test_monotone_in_sweep_direction(self):
        rng = derive_rng("det-mono")
        for _ in range(50):
            points = det_points(random_trials(rng))
            p_fa = [a for a, _ in points]
            p_miss = [b for _, b in points]
            assert all(x >= y for x, y in zip(p_fa, p_fa[1:]))
            assert all(x <= y for x, y in zip(p_miss, p_miss[1:]))


class TestScoring:
    def test_scores_are_cosines_in_order(self):
        emb = {
            "a": np.array([1.0, 0.0]),
            "b": np.array([0.0, 1.0]),
            "c": np.array([1.0, 1.0]) / np.sqrt(2),
        }
        trials = [Trial("a", "b", False), Trial("a", "c", True)]
        scored = score_trials(emb, trials)
        assert scored[0].score == pytest.approx(0.0, abs=1e-12)
        assert scored[1].score == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert [t.enroll_id for t in scored] == ["a", "a"]

    def test_unknown_id_rejected(self):
        emb = {"a": np.array([1.0, 0.0])}
        with pytest.raises(UnknownIdError):
            score_trials(emb, [Trial("a", "missing", True)])

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dim=st.sampled_from([2, 32, 64]),
        n_ids=st.integers(min_value=1, max_value=12),
        n_trials=st.integers(min_value=1, max_value=60),
        zero_id=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_per_trial_cosine(self, seed, dim, n_ids, n_trials, zero_id):
        rng = derive_rng("score-fuzz", seed)
        # Unnormalized vectors over several magnitudes, and ids repeated
        # across trials (and within one, as "a" vs "a").
        emb = {
            f"u{i}": rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            for i in range(n_ids)
        }
        if zero_id:
            emb["u0"] = np.zeros(dim)
        ids = rng.integers(0, n_ids, size=(n_trials, 2))
        trials = [
            Trial(f"u{a}", f"u{b}", bool(rng.integers(0, 2))) for a, b in ids
        ]
        with np.errstate(invalid="ignore"):
            scored = score_trials(emb, trials)
            want = [cosine(emb[t.enroll_id], emb[t.test_id]) for t in trials]
        assert [(t.enroll_id, t.test_id, t.is_target) for t in scored] == [
            (t.enroll_id, t.test_id, t.is_target) for t in trials
        ]
        assert all(type(t.score) is float for t in scored)
        assert [t.score for t in scored] == want
        if zero_id:
            assert all(
                t.score == -1.0 for t in scored if "u0" in (t.enroll_id, t.test_id)
            )

    def test_zero_vector_scores_minus_one(self):
        emb = {"a": np.zeros(3), "b": np.array([0.0, 1.0, 0.0])}
        with np.errstate(invalid="ignore"):
            scored = score_trials(emb, [Trial("a", "b", True), Trial("a", "a", False)])
        assert [t.score for t in scored] == [-1.0, -1.0]

    def test_first_missing_id_in_trial_order_is_named(self):
        emb = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        trials = [
            Trial("a", "b", True), Trial("b", "gone1", False), Trial("gone2", "a", True)
        ]
        with pytest.raises(UnknownIdError, match="'gone1'"):
            score_trials(emb, trials)
        with pytest.raises(UnknownIdError, match="'gone2'"):
            score_trials(emb, [trials[0], trials[2], trials[1]])

    def test_mismatched_dimensions_rejected(self):
        emb = {"a": np.ones(3), "b": np.ones(4), "c": np.ones(3)}
        score_trials(emb, [Trial("a", "c", True)])
        with pytest.raises(DimensionMismatchError):
            score_trials(emb, [Trial("a", "c", True), Trial("c", "b", False)])

    def test_empty_trial_list_scores_to_empty(self):
        assert score_trials({"a": np.ones(2)}, []) == []

    def test_unscored_trials_rejected_by_metrics(self):
        with pytest.raises(DegenerateTrialsError):
            eer([Trial("a", "b", True), Trial("a", "c", False)])

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrialsError):
            eer([Trial("a", "b", True, 0.5)])

    def test_unscored_trial_reported_before_missing_class(self):
        for metric in (eer, min_dcf, det_points):
            with pytest.raises(DegenerateTrialsError, match="scored before"):
                metric([Trial("a", "b", True, 0.5), Trial("a", "c", True)])
            with pytest.raises(DegenerateTrialsError, match="got 0 target and 2 nontarget"):
                metric([Trial("a", "b", False, 0.5), Trial("a", "c", False, 0.1)])

    def test_split_scores_bit_equal_to_two_pass_reference(self):
        rng = derive_rng("split-scores")
        for _ in range(20):
            trials = random_trials(rng)
            trials = [trials[i] for i in rng.permutation(len(trials))]
            trials.append(Trial("a", "b", False, -0.0))
            trials.append(Trial("a", "c", True, float("nan")))
            tgt = [t.score for t in trials if t.is_target]
            non = [t.score for t in trials if not t.is_target]
            got = _split_scores(trials)
            assert got[0].tobytes() == np.sort(np.asarray(tgt, dtype=np.float64)).tobytes()
            assert got[1].tobytes() == np.sort(np.asarray(non, dtype=np.float64)).tobytes()


class TestTrialFiles:
    def test_round_trip_with_scores(self, tmp_path):
        trials = make_trials([0.25, 1 / 3], [-0.125])
        path = tmp_path / "trials.txt"
        write_trial_list(path, trials)
        back = read_trial_list(path)
        assert len(back) == 3
        for a, b in zip(back, trials):
            assert (a.enroll_id, a.test_id, a.is_target) == (
                b.enroll_id,
                b.test_id,
                b.is_target,
            )
            assert a.score == b.score  # repr round trip is exact

    def test_round_trip_without_scores(self, tmp_path):
        trials = [Trial("x", "y", True), Trial("x", "z", False)]
        path = tmp_path / "trials.txt"
        write_trial_list(path, trials)
        back = read_trial_list(path)
        assert all(t.score is None for t in back)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 a b\n")
        with pytest.raises(TrialParseError):
            read_trial_list(path)

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 a\n")
        with pytest.raises(TrialParseError):
            read_trial_list(path)

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 a b notafloat\n")
        with pytest.raises(TrialParseError):
            read_trial_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(TrialParseError):
            read_trial_list(path)

    def test_det_csv_format(self, tmp_path):
        path = tmp_path / "det.csv"
        write_det_csv(path, [(1.0, 0.0), (0.5, 0.25)])
        lines = path.read_text().splitlines()
        assert lines[0] == "p_fa,p_miss"
        assert len(lines) == 3
        assert float(lines[2].split(",")[1]) == 0.25
